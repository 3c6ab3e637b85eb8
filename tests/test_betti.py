from __future__ import annotations

import functools
import inspect
import random
import sys
import types
from collections.abc import Iterable
from itertools import combinations
from math import comb

import pytest
from hypothesis import Phase, assume, example, find, given, settings
from hypothesis import strategies as st

from pathbetti import (
    QQ,
    BettiTable,
    FieldSpec,
    HomologySummary,
    OracleCapError,
    PathFamilySpec,
    RunSequence,
    SimplicialComplex,
    betti_closed_cycle,
    betti_closed_line,
    betti_hochster,
    betti_top_degree,
    build_path_complex,
    build_run_complex,
    complement_homology,
    homology_cycle_complement,
    homology_run_sequence,
    make_complex,
    nonzero_criterion,
    pd_reg,
    vertex_count_of_runs,
)
from pathbetti import betti as betti_module
from pathbetti import cli
from pathbetti import homology as homology_module

from conftest import empty_oracle_memos, small_complexes
from reference import (
    GF2, GF32003, RP2, complement, cycle_independence_at_minus_one, cycle_placement_counts, cycle_product_counts,
    enumerate_placements, induced_subcollection, lcm_lattice_betti, levels_homology, line_placement_counts,
    line_product_counts, reduced_homology_dims, run_sequence, run_sequences,
)


def _table(entries: dict) -> BettiTable:
    return BettiTable({key: (value, "test") for key, value in entries.items()})


def _summed(terms) -> dict:
    """(i, j) -> (value, method) from (i, j, amount, method) terms: repeated keys summed, the first tag kept."""
    out: dict = {}
    for i, j, amount, method in terms:
        value, first = out.get((i, j), (0, method))
        out[(i, j)] = (value + amount, first)
    return out


def _filled_term_by_term(terms) -> list[tuple[int, int, int, str]]:
    """The items of a table filled one term at a time: sums, first tags, no zeros, sorted by (j, i)."""
    summed = _summed(terms)
    return [
        (i, j, *summed[(i, j)])
        for i, j in sorted(summed, key=lambda key: (key[1], key[0])) if summed[(i, j)][0]
    ]


def _unrestricted_terms(delta, field):
    """The oracle's terms, tagged, from a search over every union of the facets."""
    for y, ind in betti_module._union_search(betti_module.facet_masks(delta), field):
        for d, dim in ind.items():
            yield y.bit_count() - d - 1, y.bit_count(), dim, "oracle"


PENTAGON = {(1, 2): 5, (2, 3): 5, (3, 5): 1}
TRIANGLE = {(1, 2): 3, (2, 3): 2}
SQUARE_T3 = {(1, 3): 4, (2, 4): 3}
PATH4_T2 = {(1, 2): 3, (2, 3): 2}


class TestBettiTable:
    @pytest.mark.parametrize("other", [
        {(1, 2): (5, "closed_form"), (2, 3): (5, "closed_form"), (3, 5): (1, "closed_form")},
        {(1, 2): (5, "oracle"), (2, 3): (5, "eligible_count"), (3, 5): (1, "oracle"), (4, 9): (0, "oracle")},
        {(9, 10): (0, "oracle"), (3, 5): (1, "test"), (2, 3): (5, "test"), (1, 2): (5, "test")},
    ], ids=["another-tag", "mixed-tags-and-a-zero", "a-zero-first"])
    def test_equality_ignores_provenance(self, other):
        # a zero is not stored, so it changes neither ==, pd nor reg
        table, other = _table(PENTAGON), BettiTable(other)
        assert table == other and other == table
        assert (other.pd, other.reg) == (table.pd, table.reg) == (3, 2)
        assert [(i, j, value) for i, j, value, _ in other.items()] == [(1, 2, 5), (2, 3, 5), (3, 5, 1)]
        assert table != _table({**PENTAGON, (3, 5): 2})

    @pytest.mark.parametrize("entries", [
        {(3, 5): 1, (1, 2): 5, (2, 3): 5},
        {(2, 3): 5, (3, 5): 1, (1, 2): 5},
        {(3, 5): 1, (2, 3): 5, (1, 2): 5},
    ])
    def test_items_sorted_by_internal_degree(self, entries):
        # the constructor orders by (j, i): (4, 5) comes before (3, 6), though its i is larger
        table = _table({**entries, (3, 6): 2, (4, 5): 3})
        order = [(1, 2), (2, 3), (3, 5), (4, 5), (3, 6)]
        assert [(i, j) for i, j, _, _ in table.items()] == order
        assert list(table.entries) == order
        assert table.value(4, 5) == 3 and table.value(9, 9) == 0

    @pytest.mark.parametrize("entries", [{}, {(5, 9): (0, "test")}], ids=["empty", "only-a-zero"])
    def test_pd_reg_of_empty_table(self, entries):
        table = BettiTable(entries)
        assert (table.pd, table.reg) == (0, 0)
        assert table.items() == [] and table.entries == {} and table == BettiTable()

    def test_diff(self):
        a = _table({(3, 6): 2, (1, 2): 5, (2, 3): 4, (4, 4): 0})
        b = _table({(3, 5): 1, (1, 2): 5, (4, 5): 7})
        assert list(a.diff(b).items()) == [((2, 3), (4, 0)), ((3, 5), (0, 1)), ((4, 5), (0, 7)), ((3, 6), (2, 0))]
        assert list(b.diff(a)) == [(2, 3), (3, 5), (4, 5), (3, 6)]
        assert a.diff(a) == {}

    @pytest.mark.parametrize("kind", ["cycle", "line"])
    def test_both_routes_give_the_items_of_a_table_filled_term_by_term(self, kind):
        # the closed forms against the reference counts, the oracle against
        # every union of the facets, each with the tags the routes give
        for n in range(2 if kind == "line" else 3, 13):
            for t in range(2, n + 1):
                spec = PathFamilySpec(kind, n, t)
                if kind == "cycle":
                    closed = betti_closed_cycle(spec)
                    counts = cycle_placement_counts(n, t)
                    i_top, value = betti_top_degree(spec)
                    top = [(i_top, n, value, "closed_form")]
                else:
                    closed = betti_closed_line(spec)
                    counts, top = line_placement_counts(n, t), []
                terms = [(i, j, value, "eligible_count") for (i, j), value in counts.items()] + top
                assert closed.items() == _filled_term_by_term(terms), (n, t)
                delta = build_path_complex(spec)
                assert betti_hochster(delta).items() == _filled_term_by_term(_unrestricted_terms(delta, QQ)), (n, t)


class TestFacetMasks:
    def test_a_non_contiguous_ambient_puts_its_b_th_vertex_on_bit_b(self):
        delta = make_complex((2, 5, 9), [(2, 9), (5,)])
        assert betti_module.facet_masks(delta) == [0b101, 0b010]
        assert betti_module.facet_masks(make_complex((2, 5, 9), [()])) == [0]
        assert betti_module.facet_masks(make_complex((2, 5, 9), [])) == []
        assert betti_hochster(delta) == betti_hochster(make_complex((1, 2, 3), [(1, 3), (2,)]))


class TestHochsterOracle:
    def test_pentagon(self):
        delta = build_path_complex(PathFamilySpec("cycle", 5, 2))
        assert betti_hochster(delta).entries == PENTAGON

    def test_heptagon_has_seven_generators(self):
        delta = build_path_complex(PathFamilySpec("cycle", 7, 4))
        table = betti_hochster(delta)
        assert table.value(1, 4) == 7
        assert table.value(3, 7) == 1

    def test_single_simplex_is_principal(self):
        delta = make_complex(range(1, 5), [tuple(range(1, 5))])
        assert betti_hochster(delta).entries == {(1, 4): 1}

    def test_triangle_boundary_case(self):
        delta = build_path_complex(PathFamilySpec("cycle", 3, 2))
        assert betti_hochster(delta).entries == TRIANGLE

    def test_cap_refuses_large_inputs(self):
        delta = build_path_complex(PathFamilySpec("cycle", 30, 3))
        with pytest.raises(OracleCapError):
            betti_hochster(delta)

    def test_cap_is_max_vertices(self, monkeypatch):
        monkeypatch.setattr(betti_module, "MAX_VERTICES", 5)
        delta = build_path_complex(PathFamilySpec("cycle", 6, 2))
        with pytest.raises(OracleCapError, match="cap of 5"):
            betti_hochster(delta)
        monkeypatch.setattr(betti_module, "MAX_VERTICES", 6)
        assert betti_hochster(delta).value(1, 2) == 6

    @pytest.mark.parametrize("n", [5, 7, 8])
    def test_largest_accepted_prime_matches_the_closed_form(self, n):
        # (p - 1)^2 is close to 2^62 here: the GF(p) elimination must not wrap
        spec = PathFamilySpec("cycle", n, 2)
        field = FieldSpec(2147483647)
        assert betti_hochster(build_path_complex(spec), field) == betti_closed_cycle(spec)


def _direct_hochster(delta, field) -> BettiTable:
    """Hochster's sum taken literally: homology of the complement of every induced subcollection."""
    terms = []
    for size in range(len(delta.ambient) + 1):
        for y in combinations(delta.ambient, size):
            gamma = induced_subcollection(delta, y)
            if not gamma.facets or gamma.ambient != y:
                continue
            for degree, dim in reduced_homology_dims(complement(gamma, y), field).items():
                terms.append((degree + 2, size, dim, "direct"))
    return BettiTable(_summed(terms))


def _no_split(shape, field):
    """A split search that finds no vertex, so ``_ind_homology`` takes the matrix route."""
    return None


@st.composite
def framed_vertex_sets(draw, max_frame: int = 12) -> tuple[int, int, list[int]]:
    """(frame, vertex mask, facet masks inside it): half the masks fill one arc of the frame."""
    frame = draw(st.integers(min_value=1, max_value=max_frame))
    full = (1 << frame) - 1
    if draw(st.booleans()):
        length, start = draw(st.integers(1, frame)), draw(st.integers(0, frame - 1))
        verts = ((full >> frame - length) << start | (full >> frame - length) >> frame - start) & full
    else:
        verts = draw(st.integers(1, full))
    members = draw(st.lists(st.integers(1, full).map(lambda fm: fm & verts).filter(bool), min_size=1, max_size=5))
    return frame, verts, members


def _rp2_ideal() -> SimplicialComplex:
    """The complex of the 10 triangles missing from the six-vertex real projective plane, its Stanley-Reisner ideal."""
    return make_complex(range(1, 7), [f for f in combinations(range(1, 7), 3) if f not in RP2.facets])


class TestOracleRoute:
    """The oracle passes through Alexander duality and components; the direct sum checks it."""

    @given(small_complexes(allow_void=False))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_direct_complement_route(self, delta):
        for field in (QQ, GF2):
            assert betti_hochster(delta, field) == _direct_hochster(delta, field)

    @pytest.mark.parametrize("ambient,facets,entries", [
        ((1, 2, 3), [], {}),
        ((1, 2), [()], {(1, 0): 1}),
        ((1, 2, 3), [(1, 2, 3)], {(1, 3): 1}),
        ((1, 2, 3, 4), [(1, 2, 3)], {(1, 3): 1}),
        ((1, 2, 3), [(1,), (2,), (3,)], {(1, 1): 3, (2, 2): 3, (3, 3): 1}),
        ((1, 2, 3, 4), [(1,), (3, 4)], {(1, 1): 1, (1, 2): 1, (2, 3): 1}),
    ], ids=["void", "irrelevant", "simplex", "simplex-with-free-vertex",
            "isolated-vertices", "isolated-vertex-and-edge"])
    def test_degenerate_complexes(self, ambient, facets, entries):
        delta = make_complex(ambient, facets)
        for field in (QQ, GF2):
            assert betti_hochster(delta, field).entries == entries

    def test_the_splitting_shares_the_keys_of_the_scan(self, empty_ind_memo):
        # facets {0, 1}, {2, 3}, {3, 4} and {4, 5} on 6 vertices: the
        # splitting keys the path 2-3-4-5 as the scan keys the same path on
        # bits 0..3, under the field None of its every-field entry, so
        # looking that path up afterwards is a hit
        assert betti_module._sub_homology([0b000011, 0b001100, 0b011000, 0b110000], 6, QQ) == {}
        hits = betti_module._ind_homology.cache_info().hits
        betti_module._ind_homology((0b0011, 0b0110, 0b1100), None)
        assert betti_module._ind_homology.cache_info().hits == hits + 1

    @pytest.mark.parametrize("first, second", [(GF2, QQ), (QQ, GF2)], ids=["GF2-then-QQ", "QQ-then-GF2"])
    def test_the_memo_keeps_fields_apart(self, empty_ind_memo, first, second):
        # the Stanley-Reisner ideal of the six-vertex real projective plane,
        # whose facets are the 10 triangles missing from it: the full
        # union's Ind is RP2, acyclic over Q but not over GF(2), and the
        # second field runs on the memo the first one filled
        delta = _rp2_ideal()
        want = {QQ: {(1, 3): 10, (2, 4): 15, (3, 5): 6}}
        want[GF2] = {**want[QQ], (3, 6): 1, (4, 6): 1}
        for field in (first, second):
            assert betti_hochster(delta, field).entries == want[field]

    @given(framed_vertex_sets())
    @example((5, 0b11111, [0b00111, 0b11100]))
    @example((10, 0b1100000011, [0b1000000011, 0b1100000001]))
    @example((7, 0b1010101, [0b0000101, 0b1010000, 0b1000000]))
    @settings(max_examples=100, deadline=None)
    def test_relabelling_keeps_the_vertex_order_and_ind(self, case):
        # verts is the union of the members, as every caller passes; the
        # facets reaching past the frame are not inside it and stay out
        frame, _, members = case
        verts = 0
        for fm in members:
            verts |= fm
        bits = [b for b in range(frame) if verts >> b & 1]
        m = len(bits)
        shape = betti_module._relabelled(verts, members + [fm | 1 << frame for fm in members])
        assert shape == tuple(sorted(sum(1 << k for k, b in enumerate(bits) if fm >> b & 1) for fm in members))
        covered = 0
        for fm in shape:
            covered |= fm
        assert covered == (1 << m) - 1
        levels = [[] for _ in range(m + 1)]
        for s in range(1 << frame):
            if s & ~verts == 0 and all(fm & ~s for fm in members):
                levels[s.bit_count()].append(s)
        while not levels[-1]:
            levels.pop()
        assert levels_homology(levels, QQ) == levels_homology(_ind_by_brute_force(shape), QQ)

    def test_every_relabelled_vertex_mask_is_a_block(self, monkeypatch, empty_ind_memo):
        # the traffic of cycles and lines on at most 12 vertices, of their
        # full complements and of the run complexes on at most 12 vertices:
        # every component keyed outside the splitting, as the union search
        # and the full sets finish them, is a block of consecutive
        # vertices, so the shift alone moves it to bit 0.  The splitting's
        # links need not be blocks, but every shape covers its bits 0..m-1
        received, nested, depth = [], [], [0]
        relabelled, split = betti_module._relabelled, betti_module._split_homology

        def recording(verts, masks):
            shape = relabelled(verts, masks)
            covered = 0
            for fm in shape:
                covered |= fm
            assert covered == (1 << verts.bit_count()) - 1
            (nested if depth[0] else received).append(verts)
            return shape

        def splitting(shape, field):
            depth[0] += 1
            try:
                return split(shape, field)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(betti_module, "_relabelled", recording)
        monkeypatch.setattr(betti_module, "_split_homology", splitting)
        for kind in ("cycle", "line"):
            for n in range(3 if kind == "cycle" else 2, 13):
                for t in range(2, n + 1):
                    delta = build_path_complex(PathFamilySpec(kind, n, t))
                    betti_hochster(delta)
                    complement_homology(delta)
        for t in (2, 3, 4):
            for lengths in run_sequences(t, 12):
                complement_homology(build_run_complex(RunSequence(lengths), t))
        blocks = {verts >> (verts & -verts).bit_length() - 1 for verts in received}
        assert received and nested and all(not block & (block + 1) for block in blocks)

    def test_large_facets_take_the_complement_route(self, monkeypatch, empty_ind_memo):
        # With no vertex splitting, the matrix route sees Ind of the 12-cycle
        # with t = 9, which holds every subset of at most 8 vertices; the
        # complements of its facets have 3 vertices each.
        seen = []
        homology = homology_module._homology

        def recording(levels, p):
            seen.append(levels)
            return homology(levels, p)

        monkeypatch.setattr(betti_module, "_split_homology", _no_split)
        monkeypatch.setattr(homology_module, "_homology", recording)
        spec = PathFamilySpec("cycle", 12, 9)
        assert betti_hochster(build_path_complex(spec)) == betti_closed_cycle(spec)
        assert seen and max(len(levels) - 2 for levels in seen) <= 2

    def test_component_over_the_face_budget_is_refused_before_any_column_is_built(
        self, monkeypatch, empty_ind_memo,
    ):
        # With no vertex splitting, the matrix route sees Ind of the 10-cycle
        # with t = 2, whose complement has 1024 - 123 = 901 faces; counting
        # them passes a budget of 100 before any column is built
        def unbuilt(*args):
            raise AssertionError("a column was built")

        monkeypatch.setattr(homology_module, "MAX_FACES", 100)
        monkeypatch.setattr(betti_module, "_split_homology", _no_split)
        monkeypatch.setattr(homology_module, "_homology", unbuilt)
        cycle = tuple(sorted(1 << v | 1 << (v + 1) % 10 for v in range(10)))
        with pytest.raises(OracleCapError, match="more than 100 faces exceeds the face budget"):
            betti_module._ind_homology(cycle, QQ)

    def test_component_over_the_face_budget_is_refused_when_the_search_meets_it(
        self, monkeypatch, empty_ind_memo,
    ):
        # With no vertex splitting, every component's complement is counted.
        # The 10-cycle on 5..14 has 1024 - 123 = 901 complement faces, over a
        # budget of 890, while its paths have at most 1024 - 144 = 880 and
        # the path on 1..4 has 12, so the search ranks those and is refused
        # at the whole cycle.
        real = homology_module._levels
        cycle_complement = {0b1111111111 ^ (1 << v | 1 << (v + 1) % 10) for v in range(10)}
        counted = []

        def levels(facets):
            counted.append(set(facets) == cycle_complement)
            return real(facets)

        path = [(1, 2), (2, 3), (3, 4)]
        cycle = [(5 + v, 5 + (v + 1) % 10) for v in range(10)]
        delta = make_complex(range(1, 15), path + cycle)
        monkeypatch.setattr(homology_module, "MAX_FACES", 890)
        monkeypatch.setattr(betti_module, "_split_homology", _no_split)
        monkeypatch.setattr(homology_module, "_levels", levels)
        with pytest.raises(OracleCapError, match="face budget"):
            betti_hochster(delta)
        assert counted[-1] and len(counted) > 1 and not any(counted[:-1])

    def test_cache_stays_within_its_bound(self, monkeypatch):
        # the same memo with room for 3 shapes: the splitting's nested
        # lookups go through it too, and the table is still right
        assert betti_module._ind_homology.cache_info().maxsize == 4096
        small = functools.lru_cache(maxsize=3)(betti_module._ind_homology.__wrapped__)
        monkeypatch.setattr(betti_module, "_ind_homology", small)
        spec = PathFamilySpec("cycle", 9, 2)
        table = betti_hochster(build_path_complex(spec))
        info = small.cache_info()
        assert info.misses > 3 and info.currsize <= 3
        assert table == betti_closed_cycle(spec)

    @pytest.mark.parametrize("kind", ["cycle", "line"])
    def test_each_component_is_relabelled_once_per_scan(self, monkeypatch, kind):
        # every component of a contributing union is looked up, and no
        # component of another union misses the search's memo twice: the
        # search relabels each at most once.  On the cycle only the unions
        # holding vertex 0 and missing vertex 8 are searched, and the full
        # union's term is read from the Ind of all the facets instead; on
        # the line only the unions holding vertex 0 are searched.
        delta = build_path_complex(PathFamilySpec(kind, 9, 2))
        masks = betti_module.facet_masks(delta)
        unions = _kept_by_filter(masks, 9)
        components = {y: [verts for verts, _ in betti_module._components(_inside(masks, y))] for y in unions}
        if kind == "line":
            searched = {y for y in unions if y & 1}
        else:
            searched = {y for y in unions if y & 1 and not y >> 8}
        needed = {verts for y in searched if _complement_outright(delta, y) for verts in components[y]}
        relabelled = _count_search_relabels(monkeypatch)
        betti_hochster(delta)
        assert len(set(relabelled)) == len(relabelled)
        assert needed <= set(relabelled) <= {verts for found in components.values() for verts in found}

    @pytest.mark.parametrize("kind", ["cycle", "line"])
    def test_sixteen_vertices_match_the_closed_form(self, kind):
        spec = PathFamilySpec(kind, 16, 2)
        closed = betti_closed_cycle(spec) if kind == "cycle" else betti_closed_line(spec)
        assert betti_hochster(build_path_complex(spec), GF32003) == closed

    @pytest.mark.parametrize("kind, n, t", [
        ("cycle", 22, 12), ("line", 22, 12), ("cycle", 22, 17), ("cycle", 21, 8),
    ])
    def test_complement_side_near_the_cap_matches_the_closed_form(self, monkeypatch, empty_ind_memo, kind, n, t):
        # with no vertex splitting, every component goes through its complement
        complements = []
        real = homology_module._levels

        def recording(facets):
            complements.append(facets)
            return real(facets)

        monkeypatch.setattr(betti_module, "_split_homology", _no_split)
        monkeypatch.setattr(homology_module, "_levels", recording)
        spec = PathFamilySpec(kind, n, t)
        closed = betti_closed_cycle(spec) if kind == "cycle" else betti_closed_line(spec)
        assert betti_hochster(build_path_complex(spec), GF32003) == closed
        assert complements

    @pytest.mark.parametrize("kind, n, t", [
        ("cycle", 21, 5), ("cycle", 22, 4), ("cycle", 22, 5), ("cycle", 22, 6), ("line", 21, 4), ("line", 22, 4),
    ])
    @pytest.mark.usefixtures("empty_ind_memo")
    def test_points_over_the_face_budget_match_the_closed_form(self, kind, n, t):
        # the matrix route alone refused these: some component's Ind and its
        # complement both have more than MAX_FACES faces
        spec = PathFamilySpec(kind, n, t)
        closed = betti_closed_cycle(spec) if kind == "cycle" else betti_closed_line(spec)
        assert betti_hochster(build_path_complex(spec), GF32003) == closed


def _without_search_memo(monkeypatch) -> None:
    """Run the oracle without its two memos, so that every ``betti_hochster`` call starts its own search."""
    monkeypatch.setattr(betti_module, "_oracle_sums", betti_module._oracle_sums.__wrapped__)
    monkeypatch.setattr(betti_module, "_pattern_terms", betti_module._pattern_terms.__wrapped__)


def _count_search_relabels(monkeypatch) -> list[int]:
    """Patch the oracle to record the vertex mask of each component its union search relabels.

    ``_relabelled`` also serves the splitting's sub-shapes, so only the
    calls on the facet list the search was given are kept.  Every call
    searches.
    """
    _without_search_memo(monkeypatch)
    relabelled, searched = [], []
    relabel, search = betti_module._relabelled, betti_module._union_search

    def recording(verts, masks):
        if any(masks is given for given in searched):
            relabelled.append(verts)
        return relabel(verts, masks)

    def searching(masks, *args):
        searched.append(masks)
        return search(masks, *args)

    monkeypatch.setattr(betti_module, "_relabelled", recording)
    monkeypatch.setattr(betti_module, "_union_search", searching)
    return relabelled


def _inside(masks: list[int], y: int) -> list[int]:
    """The facets inside the vertex mask y: its induced subcollection."""
    return [fm for fm in masks if fm & ~y == 0]


def _complement_outright(delta, y: int) -> dict:
    """Reduced homology over QQ of the complement within y of delta's induced subcollection on y, built outright."""
    vertices = [v for b, v in enumerate(delta.ambient) if y >> b & 1]
    return reduced_homology_dims(complement(induced_subcollection(delta, vertices), vertices), QQ)


def _kept_by_filter(masks: list[int], n: int) -> set[int]:
    """The 2^n scan the oracle used to make: every subset Y whose induced subcollection has support Y."""
    kept = set()
    for y in range(1 << n):
        picked = _inside(masks, y)
        support = 0
        for fm in picked:
            support |= fm
        if picked and support == y:
            kept.add(y)
    return kept


def _ind_by_brute_force(shape: tuple[int, ...]) -> list[list[int]]:
    """Every subset containing no facet, level by level, up to the largest nonempty level."""
    m = max(shape).bit_length()
    levels = [
        [s for s in range(1 << m) if s.bit_count() == size and all(fm & ~s for fm in shape)]
        for size in range(m + 1)
    ]
    while not levels[-1]:
        levels.pop()
    return levels


class TestOracleScan:
    """The unions of facets and Ind's levels, against the brute force they replace."""

    @given(small_complexes())
    @example(make_complex((1, 2, 3), []))
    @settings(max_examples=100, deadline=None)
    def test_unions_of_facets_are_the_kept_supports(self, delta):
        # the search reaches exactly the unions with nonzero complement
        # homology, each once, and hands over the Ind that duality needs
        masks = betti_module.facet_masks(delta)
        n = len(delta.ambient)
        kept = _kept_by_filter(masks, n)
        reached = list(betti_module._union_search(masks, QQ))
        unions = [y for y, _ in reached]
        assert len(set(unions)) == len(unions)
        assert set(unions) <= kept
        dual = {y: {y.bit_count() - d - 3: dim for d, dim in ind.items()} for y, ind in reached}
        nonzero = {y: h for y in kept if (h := _complement_outright(delta, y))}
        assert dual == nonzero

    def test_every_vertex_a_facet_leaves_only_the_empty_face(self):
        # Ind is {Ø}; its complement is the boundary of a triangle, whose
        # H_1 duality moves to degree 3 - 1 - 3 = -1
        for field in (QQ, GF2):
            assert betti_module._matrix_homology((0b1, 0b10, 0b100), field) == {-1: 1}

    def test_a_union_holding_an_acyclic_component_is_skipped_as_a_branch(self, monkeypatch):
        # The path on vertices 1..4 has a contractible Ind and its facets come
        # first.  Of their seven closed choices (none, 12, 23, 34, 123, 234 and
        # 1234) only the last finishes the path as one component, whose Ind is
        # acyclic, so the 5-cycle's components are looked up under the other
        # six alone, and no union holding the path reaches the table.  The
        # lookups are the calls of the search's own cache, memo hits too.
        path = [(1, 2), (2, 3), (3, 4)]
        cycle = [(5 + v, 5 + (v + 1) % 5) for v in range(5)]
        delta = make_complex(range(1, 10), path + cycle)
        masks = betti_module.facet_masks(delta)
        lookups, leaves = [], []
        search = betti_module._union_search

        def looking_cache(function):
            cached = functools.cache(function)

            def looking(verts):
                lookups.append(verts)
                return cached(verts)
            return looking

        def cycle_lookups(facets):
            lookups.clear()
            for _ in search(facets, QQ):
                pass
            return sum(1 for verts in lookups if not verts & 0b1111)

        def searching(*args):
            for y, ind in search(*args):
                leaves.append(y)
                yield y, ind

        monkeypatch.setattr(betti_module, "functools", types.SimpleNamespace(cache=looking_cache))
        assert cycle_lookups(masks) == 6 * cycle_lookups(masks[3:]) > 0
        monkeypatch.setattr(betti_module, "_union_search", searching)
        _without_search_memo(monkeypatch)
        for field in (QQ, GF2):
            leaves.clear()
            assert betti_hochster(delta, field) == _direct_hochster(delta, field)
            assert leaves and all(y & 0b1111 != 0b1111 for y in leaves)

    @pytest.mark.usefixtures("empty_ind_memo")
    def test_the_search_keeps_its_own_stack(self):
        # 120 facets, the 3-subsets of 10 vertices: a Python frame per facet
        # would pass a recursion limit 60 frames above the caller
        delta = make_complex(range(1, 11), combinations(range(1, 11), 3))
        want = _direct_hochster(delta, QQ)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 60)
        try:
            got = betti_hochster(delta, QQ)
        finally:
            sys.setrecursionlimit(limit)
        assert got == want


@st.composite
def circulant_complexes(draw) -> SimplicialComplex:
    """The orbits under rotation of 1 to 3 random facets on 3 to 11 vertices."""
    n = draw(st.integers(min_value=3, max_value=11))
    seeds = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1), min_size=1, max_size=3))
    facets = [tuple(sorted((v + k) % n + 1 for v in seed)) for seed in seeds for k in range(n)]
    return make_complex(range(1, n + 1), facets)


def _searched_below(masks: list[int], n: int) -> tuple[list[int], int]:
    """The facets of a rotation-invariant set that the oracle searches, and the vertices they are searched on.

    The facets that miss vertex n - 1, on the other n - 1 vertices, and
    so on while the facets left rotate again, as single vertices do.
    """
    while True:
        n -= 1
        masks = [fm for fm in masks if not fm >> n]
        turned = {(fm << 1 | fm >> n - 1) & ((1 << n) - 1) for fm in masks}
        if not masks or turned != set(masks):
            return masks, n


def _started(monkeypatch) -> list[tuple[list[int], int]]:
    """The facets and the lead count of every ``_union_search`` that ``betti_hochster`` starts, recorded."""
    started = []
    search = betti_module._union_search

    def recording(masks, field, lead=0):
        started.append((list(masks), lead))
        return search(masks, field, lead)

    monkeypatch.setattr(betti_module, "_union_search", recording)
    return started


class TestRotationRoute:
    """Rotation-invariant facets: the full set once, and n/(n - j) times the facets missing the last vertex."""

    @given(circulant_complexes())
    @example(make_complex(range(1, 10), [(v % 9 + 1, (v + 1) % 9 + 1, (v + 3) % 9 + 1) for v in range(9)]))
    @example(make_complex(range(1, 6), [(v,) for v in range(1, 6)]))
    @example(make_complex(range(1, 8), combinations(range(1, 8), 2)))
    @settings(max_examples=40, deadline=None)
    def test_matches_the_direct_complement_route(self, delta):
        n = len(delta.ambient)
        with pytest.MonkeyPatch.context() as monkeypatch:
            _without_search_memo(monkeypatch)
            calls = _started(monkeypatch)
            for field in (QQ, GF2):
                assert betti_hochster(delta, field) == _direct_hochster(delta, field)
        assert calls and all(not fm >> n - 1 for masks, _ in calls for fm in masks)

    @given(circulant_complexes())
    @example(make_complex(range(1, 6), [(v,) for v in range(1, 6)]))
    @example(make_complex(range(1, 8), combinations(range(1, 8), 2)))
    @example(make_complex(range(1, 12), [sorted((v + k) % 11 + 1 for v in (0, 3, 5, 6, 7)) for k in range(11)]))
    @settings(max_examples=40, deadline=None)
    def test_searches_the_facets_missing_the_last_vertex_on_the_others(self, delta):
        # one translation search on the other n - 1 vertices, or, when the
        # facets left rotate again, as single vertices do, on fewer; a
        # search refused under every field, as the 11-vertex example's is,
        # runs once more over GF(2)
        masks = betti_module.facet_masks(delta)
        below, m = _searched_below(masks, len(delta.ambient))
        memo = betti_module._oracle_sums
        empty_oracle_memos()
        with pytest.MonkeyPatch.context() as monkeypatch:
            calls = _started(monkeypatch)
            betti_hochster(delta, GF2)
        (searched, lead), *again = calls
        hits = memo.cache_info().hits
        refused = memo(tuple(below), m, None) is None
        assert memo.cache_info().hits == hits + 1
        assert again == ([(searched, lead)] if refused else [])
        assert sorted(searched) == sorted(below)
        assert lead == sum(1 for fm in searched if fm & 1)
        assert all(fm & 1 for fm in searched[:lead]) and not any(fm & 1 for fm in searched[lead:])

    @pytest.mark.parametrize("field", [QQ, GF32003], ids=["QQ", "GF32003"])
    def test_cycles_match_the_unrestricted_search(self, field):
        for n in range(3, 15):
            for t in range(2, n + 1):
                delta = build_path_complex(PathFamilySpec("cycle", n, t))
                everything = BettiTable(_summed(_unrestricted_terms(delta, field)))
                assert betti_hochster(delta, field).items() == everything.items(), (n, t)

    @pytest.mark.parametrize("facets, lead", [
        ([(v, v + 1, v + 2) for v in range(1, 7)], 1),
        ([(v % 8 + 1, (v + 1) % 8 + 1, (v + 2) % 8 + 1) for v in range(8) if v != 2], 0),
    ], ids=["line", "cycle-without-a-facet"])
    def test_is_not_taken_without_rotation(self, monkeypatch, facets, lead):
        # every facet is searched on all 8 vertices, the one through the last
        # vertex too; the line takes the translation route, whose lead is its
        # one facet through 0
        delta = make_complex(range(1, 9), facets)
        _without_search_memo(monkeypatch)
        calls = _started(monkeypatch)
        for field in (QQ, GF2):
            assert betti_hochster(delta, field) == _direct_hochster(delta, field)
        assert [found for _, found in calls] == [lead, lead]
        assert all(masks == betti_module.facet_masks(delta) for masks, _ in calls)

    @pytest.mark.parametrize("delta", [
        make_complex((1,), [(1,)]),
        make_complex((1, 2), [(1, 2)]),
        make_complex(range(1, 6), [range(1, 6)]),
        build_path_complex(PathFamilySpec("cycle", 5, 5)),
    ], ids=["one-vertex", "two-vertices", "five-vertices", "cycle-5-5"])
    def test_a_facet_on_every_vertex(self, monkeypatch, delta):
        # the only union is the full one, which the search never reaches
        _without_search_memo(monkeypatch)
        calls = _started(monkeypatch)
        for field in (QQ, GF2):
            assert betti_hochster(delta, field).entries == {(1, len(delta.ambient)): 1}
            assert betti_hochster(delta, field) == _direct_hochster(delta, field)
        assert calls and all(masks == [] for masks, _ in calls)

    def test_the_void_complex(self, monkeypatch):
        _without_search_memo(monkeypatch)
        calls = _started(monkeypatch)
        assert betti_hochster(make_complex((1, 2, 3), []), GF2).entries == {}
        assert calls == [([], 0)]

    def test_a_sum_that_n_minus_j_does_not_divide_is_refused(self, monkeypatch):
        # vertices {0, 2} of the 5-cycle weigh their 2 translates on the
        # other 4 vertices, and 5 * 2 / (5 - 2) leaves a remainder
        monkeypatch.setattr(betti_module, "_union_search", lambda *args: iter([(0b101, {-1: 1})]))
        with pytest.raises(RuntimeError, match="not divisible"):
            betti_hochster(build_path_complex(PathFamilySpec("cycle", 5, 2)))


@st.composite
def small_antichains(draw) -> SimplicialComplex:
    """Up to 8 random sets of 2 to 4 vertices on at most 8 vertices, the non-maximal ones dropped."""
    n = draw(st.integers(min_value=2, max_value=8))
    facets = draw(st.lists(st.sets(st.integers(1, n), min_size=2, max_size=4), min_size=1, max_size=8))
    return make_complex(range(1, n + 1), facets)


def _lcm_route_agrees(delta: SimplicialComplex) -> bool:
    """Whether the oracle's table is the lcm lattice's over QQ and over GF(2)."""
    masks = betti_module.facet_masks(delta)
    return all(lcm_lattice_betti(masks, field) == betti_hochster(delta, field).entries for field in (QQ, GF2))


class TestLcmLatticeRoute:
    """The oracle against the crosscut complexes of the lcm lattice, a route with no Hochster, Ind or duality."""

    def test_every_cycle_and_line_up_to_nine_vertices(self):
        specs = [
            PathFamilySpec(kind, n, t) for kind, least in (("cycle", 3), ("line", 2))
            for n in range(least, 10) for t in range(2, n + 1)
        ]
        assert len(specs) == 71
        assert [spec for spec in specs if not _lcm_route_agrees(build_path_complex(spec))] == []

    @given(small_antichains())
    @example(make_complex(range(1, 9), combinations(range(1, 5), 2)))
    @settings(max_examples=40, deadline=None)
    def test_random_antichains(self, delta):
        assert _lcm_route_agrees(delta)

    @given(circulant_complexes().filter(lambda delta: len(delta.facets) <= 8))
    @settings(max_examples=25, deadline=None)
    def test_circulant_draws(self, delta):
        # the rotation route, its full vertex set read from Ind, against the lattice
        assert _lcm_route_agrees(delta)


def _shift_closed(delta: SimplicialComplex) -> bool:
    """Whether each facet moved one vertex up, and each moved one vertex down, is a facet where it fits."""
    facets, n = set(delta.facets), len(delta.ambient)
    return all(
        (f[-1] == n or tuple(v + 1 for v in f) in facets) and (f[0] == 1 or tuple(v - 1 for v in f) in facets)
        for f in facets
    )


@st.composite
def translated_complexes(draw) -> SimplicialComplex:
    """All the translates that fit of 1 to 3 random vertex sets on 1 to 10 vertices.

    Dropping the translates that are not maximal can leave a complex that
    is not shift-closed; those draws are rejected.
    """
    n = draw(st.integers(min_value=1, max_value=10))
    seeds = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1), min_size=1, max_size=3))
    facets = [
        tuple(v - min(seed) + k + 1 for v in sorted(seed))
        for seed in seeds for k in range(n - max(seed) + min(seed))
    ]
    delta = make_complex(range(1, n + 1), facets)
    assume(_shift_closed(delta))
    return delta


class TestTranslationRoute:
    """Shift-closed facets: only the unions through vertex 0 are searched, each weighted by its translates."""

    @given(translated_complexes())
    @example(make_complex(range(1, 10), [(v, v + 1, v + 3) for v in range(1, 7)] + [(v, v + 4) for v in range(1, 6)]))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_direct_complement_route(self, delta):
        masks = betti_module.facet_masks(delta)
        with pytest.MonkeyPatch.context() as monkeypatch:
            _without_search_memo(monkeypatch)
            calls = _started(monkeypatch)
            for field in (QQ, GF2):
                assert betti_hochster(delta, field) == _direct_hochster(delta, field)
        # a rotating complex is searched on the facets missing its last
        # vertex, or fewer while those rotate; the rest on all n vertices
        n = len(delta.ambient)
        for searched, lead in calls:
            assert sorted(searched) in (sorted(masks), sorted(_searched_below(masks, n)[0]))
            assert lead == sum(1 for fm in searched if fm & 1)
            assert all(fm & 1 for fm in searched[:lead]) and not any(fm & 1 for fm in searched[lead:])

    @given(translated_complexes())
    @example(make_complex(range(1, 10), [(v, v + 1, v + 3) for v in range(1, 7)] + [(v, v + 4) for v in range(1, 6)]))
    @settings(max_examples=60, deadline=None)
    def test_yields_the_unrestricted_unions_through_vertex_0_union_by_union(self, delta):
        # the lead search's unions, each moved to every place it fits, are the full search's, each once,
        # with the same Ind; several facets may hold vertex 0, and all of them lead (two in the example)
        n, masks = len(delta.ambient), betti_module.facet_masks(delta)
        lead = [fm for fm in masks if fm & 1]
        translates = [
            (y << shift, ind)
            for y, ind in betti_module._union_search(lead + [fm for fm in masks if not fm & 1], QQ, len(lead))
            for shift in range(n + 1 - y.bit_length())
        ]
        found = dict(betti_module._union_search(masks, QQ))
        assert len(translates) == len(found) and dict(translates) == found

    @pytest.mark.parametrize("field", [QQ, GF32003], ids=["QQ", "GF32003"])
    def test_lines_match_the_unrestricted_search(self, field):
        for n in range(2, 15):
            for t in range(2, n + 1):
                delta = build_path_complex(PathFamilySpec("line", n, t))
                everything = BettiTable(_summed(_unrestricted_terms(delta, field)))
                assert betti_hochster(delta, field).items() == everything.items(), (n, t)

    @pytest.mark.parametrize("facets", [
        [(v, v + 1, v + 2) for v in range(1, 7) if v != 3],
        [(v % 8 + 1, (v + 1) % 8 + 1, (v + 2) % 8 + 1) for v in range(8) if v != 2],
    ], ids=["line-without-an-inner-facet", "cycle-without-a-facet"])
    def test_is_not_taken_without_shift_closure(self, monkeypatch, facets):
        delta = make_complex(range(1, 9), facets)
        _without_search_memo(monkeypatch)
        calls = _started(monkeypatch)
        for field in (QQ, GF2):
            assert betti_hochster(delta, field) == _direct_hochster(delta, field)
        assert calls == [(betti_module.facet_masks(delta), 0)] * 2

    def test_cycles_keep_the_rotation_route(self, monkeypatch):
        # the t facets through the last vertex are dropped and the rest,
        # the line's on n - 1 vertices, are searched; at t = n - 1 the
        # line's one facet holds every vertex and rotates in turn, which
        # leaves no facet to search
        _without_search_memo(monkeypatch)
        calls = _started(monkeypatch)
        for n in range(3, 12):
            for t in range(2, n):
                calls.clear()
                betti_hochster(build_path_complex(PathFamilySpec("cycle", n, t)))
                [(searched, lead)] = calls
                if t < n - 1:
                    assert len(searched) == n - t and not any(fm >> n - 1 for fm in searched) and lead == 1
                else:
                    assert (searched, lead) == ([], 0)

    def test_the_line_on_sixteen_vertices_yields_the_unions_through_vertex_0(self, monkeypatch):
        yielded = _yielded(monkeypatch)
        spec = PathFamilySpec("line", 16, 2)
        assert betti_hochster(build_path_complex(spec)) == betti_closed_line(spec)
        assert len(yielded) == 1420 and all(y & 1 for y in yielded)
        everything = betti_module._union_search(betti_module.facet_masks(build_path_complex(spec)), QQ)
        assert sum(1 for _ in everything) == 3457

    def test_the_cycle_on_sixteen_vertices_yields_the_unions_through_vertex_0_missing_vertex_15(self, monkeypatch):
        yielded = _yielded(monkeypatch)
        spec = PathFamilySpec("cycle", 16, 2)
        assert betti_hochster(build_path_complex(spec)) == betti_closed_cycle(spec)
        assert len(yielded) == 836 and all(y & 1 and not y >> 15 for y in yielded)


def _fresh(delta: SimplicialComplex, field: FieldSpec) -> list[tuple[int, int, int, str]]:
    """The items of the oracle's table from a call made with the oracle's memos emptied first."""
    empty_oracle_memos()
    return betti_hochster(delta, field).items()


class TestSearchMemo:
    """One oracle entry per facet set and frame under the field None, and one per field where that one is refused."""

    def test_every_cycle_and_line_in_a_shuffled_order_over_four_fields(self):
        calls = [
            (build_path_complex(PathFamilySpec(kind, n, t)), field)
            for kind, least in (("cycle", 3), ("line", 2)) for n in range(least, 13) for t in range(2, n + 1)
            for field in (QQ, GF2, FieldSpec(3), GF32003)
        ]
        want = [_fresh(delta, field) for delta, field in calls]
        order = list(range(len(calls)))
        random.Random(32).shuffle(order)
        empty_oracle_memos()
        got = {k: betti_hochster(*calls[k]).items() for k in order}
        assert [got[k] for k in range(len(calls))] == want
        assert betti_module._oracle_sums.cache_info().hits > len(calls) / 2

    @given(small_antichains())
    @example(_rp2_ideal())
    @settings(max_examples=40, deadline=None)
    def test_random_antichains_over_two_fields_in_both_orders(self, delta):
        want = {field: _fresh(delta, field) for field in (QQ, GF2)}
        for fields in ((QQ, GF2), (GF2, QQ)):
            empty_oracle_memos()
            assert [betti_hochster(delta, field).items() for field in fields] == [want[field] for field in fields]

    @pytest.mark.parametrize("first, second", [(GF2, QQ), (QQ, GF2)], ids=["GF2-then-QQ", "QQ-then-GF2"])
    def test_a_shape_whose_ind_differs_over_the_second_field_starts_its_own_search(self, monkeypatch, first, second):
        # the full union's Ind is RP2, acyclic over Q but not over GF(2): one
        # search refused under every field, then one search per field
        delta = _rp2_ideal()
        started = _started(monkeypatch)
        betti_hochster(delta, first)
        table = betti_hochster(delta, second)
        assert len(started) == 3
        assert table.items() == _fresh(delta, second)

    def test_the_rp2_ideal_searches_once_per_field_and_keeps_its_refusal(self, monkeypatch):
        # alternating fields search no field twice, and the refused
        # every-field search is kept as a None that later calls hit
        delta = _rp2_ideal()
        fields = (QQ, GF2, QQ, GF2, FieldSpec(3))
        want = [_fresh(delta, field) for field in fields]
        memo = betti_module._oracle_sums
        empty_oracle_memos()
        started = _started(monkeypatch)
        assert [betti_hochster(delta, field).items() for field in fields] == want
        assert len(started) == 4
        searched, lead = started[0]
        assert list(searched) == betti_module.facet_masks(delta) and lead == 0
        hits = memo.cache_info().hits
        assert memo(tuple(searched), 6, None) is None
        assert memo.cache_info().hits == hits + 1

    def test_a_field_free_facet_set_searches_once_for_every_field(self, monkeypatch):
        spec = PathFamilySpec("cycle", 9, 2)
        delta = build_path_complex(spec)
        memo = betti_module._oracle_sums
        started = _started(monkeypatch)
        for field in (QQ, GF2, FieldSpec(3), GF32003):
            assert betti_hochster(delta, field) == betti_closed_cycle(spec)
        assert len(started) == 1
        # the cycle's facet set and the line's (8, 2) within it miss once each
        assert memo.cache_info()[:2] == (3, 2)

    def test_a_cycle_after_the_line_on_one_vertex_fewer_starts_no_search(self, monkeypatch):
        # the facets of the cycle (n, t) that miss vertex n - 1 are the line's (n - 1, t), in its order; at
        # t = n - 1 the line's one facet holds every vertex, and the line takes the rotation route itself
        started = _started(monkeypatch)
        for n in range(4, 13):
            for t in range(2, n - 1):
                line = build_path_complex(PathFamilySpec("line", n - 1, t))
                cycle = build_path_complex(PathFamilySpec("cycle", n, t))
                betti_hochster(line, QQ)
                searches = len(started)
                assert betti_hochster(cycle, GF32003) == betti_closed_cycle(PathFamilySpec("cycle", n, t))
                assert len(started) == searches, (n, t)

    def test_a_cycle_over_four_fields_is_searched_and_scaled_once(self, monkeypatch):
        # the memo keeps the whole table's sums, so the three fields after
        # the first take neither a search nor a scaling
        spec = PathFamilySpec("cycle", 9, 2)
        delta, want = build_path_complex(spec), betti_closed_cycle(spec)
        started, scaled = _started(monkeypatch), []
        scale = betti_module._cycle_counts
        monkeypatch.setattr(betti_module, "_cycle_counts", lambda n, counts: scaled.append(n) or scale(n, counts))
        for field in (QQ, GF2, FieldSpec(3), GF32003):
            assert betti_hochster(delta, field) == want
        assert (len(started), scaled) == (1, [9])

    def test_a_line_after_the_cycle_on_one_vertex_more_starts_no_search(self, monkeypatch):
        # the cycle asked for the line's facet set from the same memo, at
        # t = n - 1 too, where that set rotates in turn
        started = _started(monkeypatch)
        for n in range(4, 13):
            for t in range(2, n):
                betti_hochster(build_path_complex(PathFamilySpec("cycle", n, t)), QQ)
                searches = len(started)
                line = PathFamilySpec("line", n - 1, t)
                assert betti_hochster(build_path_complex(line), GF32003) == betti_closed_line(line)
                assert len(started) == searches, (n, t)

    def test_the_memo_stays_within_its_bound(self):
        memo = betti_module._oracle_sums
        bound = memo.cache_info().maxsize
        assert bound == 64
        # one edge on 14 vertices each: distinct facet sets, each one search
        deltas = [make_complex(range(1, 15), [edge]) for edge in list(combinations(range(1, 15), 2))[:bound + 8]]
        for delta in deltas:
            betti_hochster(delta, QQ)
        info = memo.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, bound + 8, bound)
        betti_hochster(deltas[-1], GF2)
        assert memo.cache_info()[:2] == (1, bound + 8)
        betti_hochster(deltas[0], QQ)
        assert memo.cache_info()[:2] == (1, bound + 9) and memo.cache_info().currsize == bound


def _pattern_frames(pattern: list[int], frames: Iterable[int]) -> dict[int, SimplicialComplex]:
    """Each frame's complex of every translate that fits of the pattern's facet masks, by its number of vertices."""
    return {
        n: make_complex(range(1, n + 1), [
            tuple(b + k + 1 for b in range(fm.bit_length()) if fm >> b & 1)
            for fm in pattern for k in range(n + 1 - fm.bit_length())
        ])
        for n in frames
    }


class TestPatternMemo:
    """One translation search per pattern of facets through vertex 0: the largest frame searched answers the smaller."""

    @given(translated_complexes(), st.randoms(use_true_random=False))
    @example(
        make_complex(range(1, 10), [(v, v + 1, v + 3) for v in range(1, 7)] + [(v, v + 4) for v in range(1, 6)]),
        random.Random(0),
    )
    @settings(max_examples=40, deadline=None)
    def test_frames_in_any_order_over_two_fields_match_fresh_searches(self, delta, rng):
        # every frame from the pattern's highest vertex up to the drawn one, asked largest first,
        # smallest first and shuffled, QQ and GF(2) interleaved
        pattern = [fm for fm in betti_module.facet_masks(delta) if fm & 1]
        frames = _pattern_frames(pattern, range(max(pattern).bit_length(), len(delta.ambient) + 1))
        asks = [(n, field) for n in frames for field in (QQ, GF2)]
        want = {(n, field): _fresh(frames[n], field) for n, field in asks}
        shuffled = list(asks)
        rng.shuffle(shuffled)
        for order in (sorted(asks, key=lambda ask: -ask[0]), sorted(asks, key=lambda ask: ask[0]), shuffled):
            empty_oracle_memos()
            assert [betti_hochster(frames[n], field).items() for n, field in order] == [want[ask] for ask in order]

    def test_a_smaller_frame_after_a_larger_one_starts_no_search(self, monkeypatch):
        # the line (14, 3) is searched once; every line (n, 3) with 3 < n < 14, and every cycle (n + 1, 3),
        # which asks for the line (n, 3), over either field and smallest first, reads that search's cell
        started = _started(monkeypatch)
        line = PathFamilySpec("line", 14, 3)
        assert betti_hochster(build_path_complex(line), QQ) == betti_closed_line(line)
        for n in range(4, 14):
            for field in (QQ, GF2):
                line, cycle = PathFamilySpec("line", n, 3), PathFamilySpec("cycle", n + 1, 3)
                assert betti_hochster(build_path_complex(line), field) == betti_closed_line(line)
                assert betti_hochster(build_path_complex(cycle), field) == betti_closed_cycle(cycle)
        assert len(started) == 1
        assert betti_module._pattern_terms.cache_info().misses == 1

    def test_a_pattern_facet_that_does_not_fit_the_smaller_frame_keeps_its_own_key(self, monkeypatch):
        # the facets {0, 1, 2} and {0, 5} with their translates: on 5 vertices {0, 5} does not fit, which
        # leaves the line (5, 3), a pattern of its own, searched on its own and kept beside the larger one
        big, small = _pattern_frames([0b111, 0b100001], (8, 5)).values()
        want = [_fresh(delta, QQ) for delta in (big, small)]
        empty_oracle_memos()
        started = _started(monkeypatch)
        assert [betti_hochster(delta, QQ).items() for delta in (big, small)] == want
        assert betti_hochster(small) == betti_closed_line(PathFamilySpec("line", 5, 3))
        assert [sorted(masks) for masks, _ in started] == [sorted(betti_module.facet_masks(d)) for d in (big, small)]
        memo = betti_module._pattern_terms
        assert memo.cache_info().currsize == 2
        assert (memo((0b111, 0b100001), None)[0], memo((0b111,), None)[0]) == (8, 5)

    def test_the_memo_stays_within_its_bound(self):
        memo = betti_module._pattern_terms
        bound = memo.cache_info().maxsize
        assert bound == 64
        # one facet {0} + S with its translates on 14 vertices each: distinct patterns, each one search
        facets = [1 | sum(1 << v for v in rest) for size in (1, 2) for rest in combinations(range(1, 13), size)]
        deltas = [_pattern_frames([fm], (14,))[14] for fm in facets[:bound + 8]]
        for delta in deltas:
            betti_hochster(delta, QQ)
        info = memo.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, bound + 8, bound)
        # a smaller frame of the last pattern reads its cell; the first pattern was dropped and misses again
        betti_hochster(_pattern_frames([facets[bound + 7]], (13,))[13], GF2)
        assert memo.cache_info()[:2] == (1, bound + 8)
        betti_hochster(deltas[0], QQ)
        assert memo.cache_info()[:2] == (1, bound + 9) and memo.cache_info().currsize == bound


def _eligible_unions(n: int, t: int) -> dict[int, tuple[int, ...]]:
    """The vertex masks on the line of n vertices whose maximal blocks all hold eligible runs, with those runs.

    A block of L >= t consecutive vertices holds a run of L - t + 1
    facets, eligible when its residue mod t + 1 is 1 or 2, and the blocks
    are apart by at least one vertex.
    """
    out = {}

    def place(start: int, mask: int, runs: tuple[int, ...]) -> None:
        for low in range(start, n - t + 1):
            for length in range(t, n - low + 1):
                if (length - t + 1) % (t + 1) in (1, 2):
                    grown, longer = mask | ((1 << length) - 1) << low, runs + (length - t + 1,)
                    out[grown] = longer
                    place(low + length + 1, grown, longer)

    place(0, 0, ())
    return out


def _cyclic_blocks(n: int) -> dict[int, list[int]]:
    """Every vertex mask on the cycle of n vertices but the empty and the full one, with its maximal blocks' lengths.

    The mask is turned so that one of its gaps sits at bit 0, so no block
    wraps around, and its blocks are read off as on the line.
    """
    full = (1 << n) - 1
    out = {}
    for mask in range(1, full):
        gap = (~mask & (mask + 1)).bit_length() - 1  # the lowest missing vertex
        rest = (mask >> gap | mask << (n - gap)) & full
        blocks = []
        while rest:
            rest >>= (rest & -rest).bit_length() - 1
            length = (~rest & (rest + 1)).bit_length() - 1
            blocks.append(length)
            rest >>= length
        out[mask] = blocks
    return out


class TestUnionByUnion:
    """Hochster's formula per union of the line's or the cycle's facets, not only per (i, j) sum, against the run lemma."""

    def test_the_line_search_yields_the_eligible_unions_each_once_with_the_run_homology(self):
        for n in range(2, 15):
            for t in range(2, n + 1):
                masks = betti_module.facet_masks(build_path_complex(PathFamilySpec("line", n, t)))
                reached = list(betti_module._union_search(masks, QQ))
                found = dict(reached)
                assert len(found) == len(reached), (n, t)
                dual = {y: {y.bit_count() - d - 3: dim for d, dim in ind.items()} for y, ind in found.items()}
                want = {
                    y: homology_run_sequence(t, RunSequence(runs)).as_vector()
                    for y, runs in _eligible_unions(n, t).items()
                }
                assert dual == want, (n, t)
                # the lead search's unions, each moved to every place it
                # fits, are the full search's, each once, with the same Ind
                lead = [fm for fm in masks if fm & 1]
                translates = [
                    (y << shift, ind)
                    for y, ind in betti_module._union_search(lead + [fm for fm in masks if not fm & 1], QQ, len(lead))
                    for shift in range(n + 1 - y.bit_length())
                ]
                assert len(translates) == len(found) and dict(translates) == found, (n, t)

    def test_the_cycle_search_yields_the_unions_with_homology_each_once_with_the_run_homology(self):
        # a union short of the whole cycle is its blocks, each L >= t vertices holding a run of L - t + 1 facets
        for n in range(3, 14):
            blocks = _cyclic_blocks(n)
            for t in range(2, n + 1):
                spec = PathFamilySpec("cycle", n, t)
                reached = list(betti_module._union_search(betti_module.facet_masks(build_path_complex(spec)), QQ))
                found = dict(reached)
                assert len(found) == len(reached), (n, t)
                dual = {y: {y.bit_count() - d - 3: dim for d, dim in ind.items()} for y, ind in found.items()}
                want = {
                    y: homology_run_sequence(t, RunSequence([length - t + 1 for length in lengths])).as_vector()
                    for y, lengths in blocks.items() if min(lengths) >= t
                }
                want[(1 << n) - 1] = homology_cycle_complement(spec).as_vector()
                assert dual == {y: vector for y, vector in want.items() if vector}, (n, t)

    def test_the_cycle_rotation_route_reaches_each_union_once_per_missed_vertex(self):
        # betti_hochster searches the facets that miss vertex n - 1, those through vertex 0 first, with
        # lead their count; each union it yields, moved to each place among the n - 1 vertices and each
        # of those rotated to all n places, is a union Y' != V of the unrestricted search, with its Ind,
        # and Y' is reached once for each vertex it misses
        rotations = 0
        for n in range(3, 14):
            full = (1 << n) - 1
            for t in range(2, n + 1):
                masks = betti_module.facet_masks(build_path_complex(PathFamilySpec("cycle", n, t)))
                found = dict(betti_module._union_search(masks, QQ))
                below = [fm for fm in masks if not fm >> n - 1]
                lead = [fm for fm in below if fm & 1]
                reached: dict[int, int] = {}
                for y, ind in betti_module._union_search(lead + [fm for fm in below if not fm & 1], QQ, len(lead)):
                    for shift in range(n - y.bit_length()):
                        for turn in range(n):
                            moved = (y << shift + turn | y << shift >> n - turn) & full
                            assert found.get(moved) == ind, (n, t, moved)
                            reached[moved] = reached.get(moved, 0) + 1
                assert reached == {y: n - y.bit_count() for y in found if y != full}, (n, t)
                rotations += sum(reached.values())
        assert rotations == 19204


def _yielded(monkeypatch) -> list[int]:
    """Every union that the ``_union_search`` runs of ``betti_hochster`` yield, recorded; every call searches."""
    yielded = []
    search = betti_module._union_search

    def counting(*args):
        for y, ind in search(*args):
            yielded.append(y)
            yield y, ind

    monkeypatch.setattr(betti_module, "_union_search", counting)
    _without_search_memo(monkeypatch)
    return yielded


@st.composite
def connected_antichains(draw, max_vertices: int = 10) -> tuple[int, ...]:
    """The largest component of a random antichain of vertex sets, as sorted masks on bits 0..m-1.

    At least m sets of 2 or 3 vertices, so that Ind is large enough for
    the shape and its first sub-shapes to be split rather than ranked;
    the examples of ``TestIndSplitting`` add the smallest shapes.
    """
    m = draw(st.integers(min_value=5, max_value=max_vertices))
    sets = draw(st.lists(
        st.sets(st.integers(0, m - 1), min_size=2, max_size=3), min_size=m, max_size=2 * m,
    ))
    masks = {sum(1 << v for v in vs) for vs in sets}
    antichain = [fm for fm in masks if not any(o != fm and o & ~fm == 0 for o in masks)]
    verts, members = max(betti_module._components(antichain), key=lambda c: (c[0].bit_count(), c[0]))
    return betti_module._relabelled(verts, members)


def _cone_vertices(shape: tuple[int, ...]) -> set[int]:
    """The vertices v that some other vertex w lies in no facet without: deleting v leaves w in no facet."""
    m = max(shape).bit_length()
    out = set()
    for w in range(m):
        through = [{b for b in range(m) if fm >> b & 1} for fm in shape if fm >> w & 1]
        out |= set.intersection(*through) - {w}
    return out


class TestIndSplitting:
    """Ind homology by link/deletion splitting, against Ind's faces taken outright."""

    @given(connected_antichains())
    @example((0b1,))
    @example((0b011, 0b110, 0b101))
    @example(tuple(0b111 << v for v in range(5)))  # the line on 7 vertices, t = 3: cone vertices 1, 2, 4 and 5
    @example(tuple(sorted(1 << v | 1 << (v + 1) % 9 for v in range(9))))  # the 9-cycle, t = 2: none
    @settings(max_examples=150, deadline=None)
    def test_matches_the_matrix_route(self, shape):
        levels = _ind_by_brute_force(shape)
        for field in (QQ, GF2, GF32003):
            want = levels_homology(levels, field)
            betti_module._ind_homology.cache_clear()
            assert betti_module._ind_homology(shape, field) == want
            split = betti_module._split_homology(shape, field)
            assert split is None or split == want

    def test_the_drawn_shapes_have_a_cone_vertex_and_have_none(self):
        # the strategy above reaches both sides of the cone rule, not only its examples
        quick = settings(max_examples=500, database=None, derandomize=True, phases=[Phase.generate])
        assert _cone_vertices(find(connected_antichains(), _cone_vertices, settings=quick))
        assert not _cone_vertices(find(connected_antichains(), lambda shape: not _cone_vertices(shape), settings=quick))

    @pytest.mark.parametrize("shape", [
        tuple(0b111 << v for v in range(5)),  # the line on 7 vertices, t = 3
        (0b00011, 0b00110, 0b01100, 0b11000, 0b10001, 0b100100),  # a 5-cycle with a pendant edge at vertex 2
    ], ids=["line-7-3", "pendant"])
    def test_a_cone_vertex_splits_first_with_only_its_link_evaluated(self, monkeypatch, empty_ind_memo, shape):
        # the _sub_homology calls the split makes itself, not those of the sub-shapes' own splits
        evaluated, depth = [], [0]
        sub = betti_module._sub_homology

        def recording(masks, m, field):
            if not depth[0]:
                evaluated.append(masks)
            depth[0] += 1
            try:
                return sub(masks, m, field)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(betti_module, "_sub_homology", recording)
        assert _cone_vertices(shape)
        for field in (QQ, GF2):
            evaluated.clear()
            assert betti_module._split_homology(shape, field) == levels_homology(_ind_by_brute_force(shape), field)
            assert len(evaluated) == 1

    @pytest.mark.usefixtures("empty_ind_memo")
    def test_the_run_of_nine_with_t_4_costs_fewer_than_ten_shapes(self):
        # splitting fewest facets first took 55 shapes; a line shape's cone vertex leaves a line-like link alone
        delta = build_run_complex(RunSequence((9,)), 4)
        assert complement_homology(delta) == homology_run_sequence(4, RunSequence((9,))).as_vector()
        assert betti_module._ind_homology.cache_info().misses < 10

    @pytest.mark.parametrize("n, t", [(50, 22), (60, 25), (80, 33)])
    @pytest.mark.usefixtures("empty_ind_memo")
    def test_the_full_cycle_past_the_cap_matches_the_closed_form_without_eviction(self, n, t):
        # the 4096-shape memo thrashed here when lines split at vertex 0: 147,103 misses at (50, 22)
        spec = PathFamilySpec("cycle", n, t)
        ind = betti_module._sub_homology(betti_module.facet_masks(build_path_complex(spec)), n, QQ)
        assert {n - d - 3: dim for d, dim in ind.items()} == homology_cycle_complement(spec).as_vector()
        info = betti_module._ind_homology.cache_info()
        assert info.misses == info.currsize

    @pytest.mark.parametrize("t", [2, 5])
    @pytest.mark.usefixtures("empty_ind_memo")
    def test_the_line_on_200_vertices_within_the_default_recursion_limit(self, t):
        # each cone split recurses on its link alone, so the recursion stays shallow; splitting fewest facets
        # first raised RecursionError here.  The line on 200 vertices is the run of 200 - t + 1 facets.
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            ind = betti_module._sub_homology([(1 << t) - 1 << v for v in range(201 - t)], 200, QQ)
        finally:
            sys.setrecursionlimit(limit)
        want = homology_run_sequence(t, RunSequence((201 - t,))).as_vector()
        assert {200 - d - 3: dim for d, dim in ind.items()} == want

    def test_small_complements_are_ranked_without_splitting(self, monkeypatch, empty_ind_memo):
        # splitting alone made thousands of sub-shapes for t = n - 2 and ran for minutes at n = 22
        searches = []
        split = betti_module._split_homology

        def counting(shape, field):
            searches.append(shape)
            return split(shape, field)

        monkeypatch.setattr(betti_module, "_split_homology", counting)
        spec = PathFamilySpec("cycle", 22, 20)
        assert betti_hochster(build_path_complex(spec), GF32003) == betti_closed_cycle(spec)
        assert len(searches) < 10

    def test_the_matrix_route_ranks_the_complement_alone(self, monkeypatch, empty_ind_memo):
        # the path on 4 vertices: its complement bound, 3 * 2^2 faces, is at
        # most 4 per facet, so it is ranked without splitting
        shape = (0b0011, 0b0110, 0b1100)
        built = []
        real = homology_module._levels

        def recording(facets):
            built.append(facets)
            return real(facets)

        monkeypatch.setattr(homology_module, "_levels", recording)
        for field in (QQ, GF2):
            built.clear()
            assert betti_module._ind_homology(shape, field) == \
                levels_homology(_ind_by_brute_force(shape), field)
            assert built == [[0b1100, 0b1001, 0b0011]]

    def test_no_vertex_splitting_falls_back_to_the_matrix_route(self, monkeypatch, empty_ind_memo):
        taken = []
        matrix = betti_module._matrix_homology

        def recording(shape, field):
            taken.append(shape)
            return matrix(shape, field)

        monkeypatch.setattr(betti_module, "_split_homology", _no_split)
        monkeypatch.setattr(betti_module, "_matrix_homology", recording)
        shapes = [
            tuple(sorted(1 << v | 1 << (v + 1) % 9 for v in range(9))),  # the 9-cycle, t = 2
            tuple(0b111 << v for v in range(6)),  # the line on 8 vertices, t = 3
            (0b0011, 0b0110, 0b1100, 0b1001, 0b0101),  # a square with one diagonal
        ]
        for shape in shapes:
            for field in (QQ, GF2):
                taken.clear()
                assert betti_module._ind_homology(shape, field) == \
                    levels_homology(_ind_by_brute_force(shape), field)
                assert taken == [shape]

    def test_a_shape_on_which_no_vertex_splits_reaches_the_matrix_route(self, monkeypatch, empty_ind_memo):
        # found by a random search over connected antichains of 2- to 4-sets:
        # Ind has homology in degrees 1 and 2, and at every vertex the link
        # and the deletion share a degree; the complement is not small
        # (232 faces against 7 per facet), so the fallback is all that is left
        shape = (13, 14, 19, 20, 26, 39, 44, 48, 66, 68, 73)
        m = 7
        assert sum(1 << (m - fm.bit_count()) for fm in shape) > m * len(shape)
        taken = []
        matrix = betti_module._matrix_homology

        def recording(shape, field):
            taken.append(shape)
            return matrix(shape, field)

        monkeypatch.setattr(betti_module, "_matrix_homology", recording)
        delta = make_complex(range(1, m + 1), [[b + 1 for b in range(m) if fm >> b & 1] for fm in shape])
        for field in (QQ, GF2):
            taken.clear()
            assert betti_module._split_homology(shape, field) is None
            assert betti_module._ind_homology(shape, field) == \
                levels_homology(_ind_by_brute_force(shape), field) == {1: 2, 2: 2}
            assert shape in taken
            assert betti_hochster(delta, field) == _direct_hochster(delta, field)


FOUR_FIELDS = (QQ, GF2, FieldSpec(3), GF32003)


def _rp2_ideal_shape() -> tuple[int, ...]:
    """The facet masks of the RP2 ideal's full union: its Ind is RP2, whose homology depends on the field."""
    return tuple(sorted(betti_module.facet_masks(_rp2_ideal())))


class TestFieldFreeInd:
    """One memo entry under the field None for a shape whose homology every field shares, and per field otherwise."""

    @pytest.mark.parametrize("shape", [
        tuple(sorted(1 << v | 1 << (v + 1) % 10 for v in range(10))),  # the 10-cycle, t = 2, split
        tuple(0b111 << v for v in range(7)),  # the line on 9 vertices, t = 3
        tuple(sorted(0b111111111 << v & 0xfff | 0b111111111 << v >> 12 for v in range(12))),  # the 12-cycle, t = 9
    ], ids=["cycle-10-2", "line-9-3", "cycle-12-9"])
    def test_a_shape_every_field_shares_costs_one_miss_over_four_fields(self, empty_ind_memo, shape):
        levels = _ind_by_brute_force(shape)
        assert betti_module._ind(shape, QQ) == levels_homology(levels, QQ)
        misses = betti_module._ind_homology.cache_info().misses
        assert betti_module._ind_homology(shape, None) is not None
        for field in FOUR_FIELDS:
            assert betti_module._ind(shape, field) == levels_homology(levels, field)
        assert betti_module._ind_homology.cache_info().misses == misses

    @pytest.mark.parametrize("first, second", [(QQ, GF2), (GF2, QQ)], ids=["QQ-then-GF2", "GF2-then-QQ"])
    def test_the_full_union_of_the_rp2_ideal_is_found_per_field(self, empty_ind_memo, first, second):
        shape = _rp2_ideal_shape()
        levels = _ind_by_brute_force(shape)
        assert levels_homology(levels, QQ) == {} and levels_homology(levels, GF2) == {1: 1, 2: 1}
        for field in (first, second):
            assert betti_module._ind(shape, field) == levels_homology(levels, field)
        assert betti_module._ind_homology(shape, None) is None

    @given(connected_antichains(), st.sampled_from(FOUR_FIELDS), st.sampled_from(FOUR_FIELDS))
    @example(_rp2_ideal_shape(), QQ, GF2)
    @example(_rp2_ideal_shape(), GF2, QQ)
    @settings(max_examples=100, deadline=None)
    def test_a_memo_warmed_over_another_field_gives_each_field_its_own_homology(self, shape, warm, asked):
        betti_module._ind_homology.cache_clear()
        betti_module._ind(shape, warm)
        assert betti_module._ind(shape, asked) == levels_homology(_ind_by_brute_force(shape), asked)


class TestComplementHomology:
    """The duality route for one complement, checked against the complement built outright."""

    @given(small_complexes())
    @settings(max_examples=60, deadline=None)
    def test_matches_the_direct_complement_route(self, gamma):
        for field in (QQ, GF2):
            assert complement_homology(gamma, field) == \
                reduced_homology_dims(complement(gamma, gamma.ambient), field)

    @pytest.mark.parametrize("ambient,facets,vector", [
        ((1, 2, 3), [], {}),
        ((), [], {}),
        ((), [()], {-1: 1}),
        ((1, 2), [()], {}),
        ((1, 2, 3), [(1, 2, 3)], {-1: 1}),
        ((1, 2, 3, 4), [(1, 2), (2, 3)], {}),
        ((1, 2, 3, 4), [(1, 2), (3, 4)], {0: 1}),
    ], ids=["void", "void-on-no-vertices", "irrelevant", "irrelevant-with-free-vertices",
            "facet-equal-to-ambient", "support-not-ambient", "two-disjoint-edges"])
    def test_degenerate_complexes(self, ambient, facets, vector):
        gamma = make_complex(ambient, facets)
        for field in (QQ, GF2):
            assert complement_homology(gamma, field) == vector
            assert reduced_homology_dims(complement(gamma, ambient), field) == vector

    def test_above_the_vertex_cap_is_refused(self):
        gamma = build_path_complex(PathFamilySpec("cycle", 23, 2))
        with pytest.raises(OracleCapError, match="vertex cap"):
            complement_homology(gamma)


class TestRunSequenceHomology:
    @pytest.mark.parametrize("t,lengths,degree", [
        (4, (1,), -1),
        (2, (2,), 0),
        (2, (4,), 1),
        (3, (2, 1), 1),
        (2, (1, 1), 0),
    ])
    def test_nonzero_cases(self, t, lengths, degree):
        summary = homology_run_sequence(t, RunSequence(lengths))
        assert summary == HomologySummary(degree, 1)

    @pytest.mark.parametrize("t,lengths", [
        (2, (3,)),
        (2, (6,)),
        (3, (4,)),
        (4, (5, 1)),
    ])
    def test_zero_cases(self, t, lengths):
        assert homology_run_sequence(t, RunSequence(lengths)) == HomologySummary.zero()

    def test_matches_explicit_homology(self):
        for t, lengths in [(2, (4,)), (2, (2, 2)), (3, (1, 2)), (4, (1,))]:
            seq = RunSequence(lengths)
            gamma = build_run_complex(seq, t)
            explicit = reduced_homology_dims(complement(gamma, gamma.ambient))
            assert homology_run_sequence(t, seq).as_vector() == explicit


class TestCycleComplementHomology:
    @pytest.mark.parametrize("n,t,degree,dim", [
        (6, 2, 2, 2),
        (7, 4, 1, 1),
        (8, 3, 2, 3),
        (4, 4, -1, 1),
    ])
    def test_examples(self, n, t, degree, dim):
        summary = homology_cycle_complement(PathFamilySpec("cycle", n, t))
        assert summary == HomologySummary(degree, dim)

    def test_shifted_into_top_betti_degree(self):
        for n, t in [(6, 2), (7, 4), (8, 3), (9, 4), (5, 5)]:
            spec = PathFamilySpec("cycle", n, t)
            summary = homology_cycle_complement(spec)
            i, value = betti_top_degree(spec)
            assert i == summary.nonzero_degree + 2
            assert value == summary.dimension


class TestTopDegree:
    @pytest.mark.parametrize("n,t,i,value", [
        (6, 2, 4, 2),
        (7, 4, 3, 1),
        (8, 3, 4, 3),
        (3, 3, 1, 1),
    ])
    def test_examples(self, n, t, i, value):
        assert betti_top_degree(PathFamilySpec("cycle", n, t)) == (i, value)


class TestCountEligible:
    """Eligible placements counted below degree n, read off the closed table."""

    def test_heptagon_single_facets(self):
        assert betti_closed_cycle(PathFamilySpec("cycle", 7, 4)).value(1, 4) == 7

    def test_pentagon_runs_of_two(self):
        assert betti_closed_cycle(PathFamilySpec("cycle", 5, 2)).value(2, 3) == 5

    def test_pentagon_has_no_disjoint_pairs(self):
        assert betti_closed_cycle(PathFamilySpec("cycle", 5, 2)).value(2, 4) == 0


class TestPlacementCounts:
    @pytest.mark.parametrize("n,t", [
        (n, t) for n in range(4, 15) for t in range(2, n)
    ])
    def test_matches_the_reference_enumerator(self, n, t):
        spec = PathFamilySpec("cycle", n, t)
        hist: dict[tuple[int, int], int] = {}
        for placement in enumerate_placements(spec):
            seq = run_sequence(placement)
            summary = homology_run_sequence(t, seq)
            if summary.nonzero_degree is not None:
                key = (summary.nonzero_degree + 2, vertex_count_of_runs(seq, t))
                hist[key] = hist.get(key, 0) + 1
        table = betti_closed_cycle(spec)
        assert {(i, j): value for i, j, value, _ in table.items() if j < n} == hist


BEYOND_THE_ORACLE = [
    (n, t) for n in (30, 45, 60) for t in (2, 3, 4, 5)
] + [
    (n, t) for n in (120, 200, 300) for t in (2, 3, 5)
]


def _walked(n: int, t: int) -> dict[tuple[int, int], int]:
    return dict(betti_module._placement_walk(n, t))


class TestProductFormula:
    """Each entry of ``_placement_walk`` is one product of two binomials; the (r, b, P) sum it collapses checks it."""

    def test_matches_the_line_binomial_sum_up_to_n_60(self):
        wrong = [
            (n, t) for n in range(61) for t in range(2, n + 2)
            if _walked(n, t) != line_placement_counts(n, t)
        ]
        assert wrong == []

    @pytest.mark.parametrize("n,t", BEYOND_THE_ORACLE)
    def test_matches_the_line_binomial_sum_beyond_the_oracle(self, n, t):
        assert _walked(n, t) == line_placement_counts(n, t)

    def test_no_entry_is_zero_below_n_90(self):
        zero = [
            (n, t, key) for n in range(90) for t in range(2, n + 2)
            for key, value in _walked(n, t).items() if value <= 0
        ]
        assert zero == []


class TestPlacementWalk:
    """``_placement_walk`` walks each u's entries by one exact ratio; every product taken afresh checks the walk."""

    def test_matches_the_products_up_to_n_200(self):
        wrong = [
            (n, t) for n in range(201) for t in range(2, n + 2)
            if _walked(n, t) != line_product_counts(n, t)
        ]
        assert wrong == []

    @pytest.mark.parametrize("n,t", [(600, 2), (600, 5)])
    def test_matches_the_products_far_past_the_oracle(self, n, t):
        assert _walked(n, t) == line_product_counts(n, t)


def _closed_bound(entries: int, n: int) -> int:
    """The closed route's byte bound for that many entries on n vertices, as ``_closed_entries`` takes it."""
    return entries * (betti_module._ENTRY_BYTES + 2 * len(str(n)) + n * 30103 // 100000 + 1)


class TestClosedEntries:
    """The closed route's one walk: its entries in (j, i) order, each product checked afresh, and its byte budget."""

    @staticmethod
    def _entries(kind: str, n: int, t: int) -> list[tuple[int, int, int, str]]:
        return list(betti_module._closed_entries(PathFamilySpec(kind, n, t)))

    def test_every_line_and_cycle_up_to_n_60_in_strictly_increasing_j_i_order(self):
        wrong = []
        for n in range(3, 61):
            for t in range(2, n + 1):
                line, cycle = self._entries("line", n, t), self._entries("cycle", n, t)
                for entries in (line, cycle):
                    keys = [(j, i) for i, j, _, _ in entries]
                    if any(a >= b for a, b in zip(keys, keys[1:])):
                        wrong.append(("order", n, t))
                if {(i, j): value for i, j, value, _ in line} != line_product_counts(n, t):
                    wrong.append(("line", n, t))
                if {(i, j): value for i, j, value, _ in cycle if j < n} != cycle_product_counts(n, t):
                    wrong.append(("cycle", n, t))
                i_top, value = betti_top_degree(PathFamilySpec("cycle", n, t))
                if cycle[-1] != (i_top, n, value, "closed_form"):
                    wrong.append(("top", n, t))
        assert wrong == []

    def test_the_count_of_entries_is_exact(self, monkeypatch):
        # a budget of exactly the bound for the entries yielded passes, one byte less is refused
        cases = [(kind, n, t) for n in range(3, 41) for t in range(2, n + 1) for kind in ("cycle", "line")]
        bounds = [_closed_bound(len(self._entries(*case)), case[1]) for case in cases]
        for (kind, n, t), bound in zip(cases, bounds):
            monkeypatch.setattr(betti_module, "MAX_CLOSED_BYTES", bound)
            self._entries(kind, n, t)
            monkeypatch.setattr(betti_module, "MAX_CLOSED_BYTES", bound - 1)
            with pytest.raises(OracleCapError, match="budget"):
                self._entries(kind, n, t)

    def test_every_entry_fits_its_share_of_the_bound(self):
        # no value reaches 2^n, and an entry's JSON beside its numbers takes at most _ENTRY_BYTES
        fixed = max(len(cli._ENTRY % (0, 0, 0, cli._string(tag))) - 3 + len(",\n    ")
                    for tag in ("eligible_count", "closed_form"))
        assert fixed <= betti_module._ENTRY_BYTES
        for n in range(3, 61):
            for t in range(2, n + 1):
                for kind in ("cycle", "line"):
                    assert all(0 < value < 2**n for _, _, value, _ in self._entries(kind, n, t)), (kind, n, t)
        assert max(value for _, _, value, _ in self._entries("cycle", 600, 2)) < 2**600

    @pytest.mark.parametrize("kind,n,t,refused", [
        ("cycle", 4000, 2, False), ("line", 4000, 2, False), ("cycle", 2000, 2, False), ("cycle", 1000, 5, False),
        ("cycle", 5000, 2, True), ("cycle", 8000, 2, True), ("line", 10**9, 3, True), ("cycle", 10**9, 10**9, False),
    ])
    def test_the_budget_is_decided_before_any_counting(self, monkeypatch, kind, n, t, refused):
        def unreached(n, t):
            raise AssertionError("the walk started")

        monkeypatch.setattr(betti_module, "_placement_walk", unreached)
        entries = betti_module._closed_entries(PathFamilySpec(kind, n, t))
        if refused:
            with pytest.raises(OracleCapError, match="over the closed route's budget"):
                next(entries)
        else:
            with pytest.raises(AssertionError, match="the walk started"):
                next(entries)


class TestClosedCycleBeyondTheOracle:
    @pytest.mark.parametrize("n,t", BEYOND_THE_ORACLE)
    def test_independent_invariants(self, n, t):
        spec = PathFamilySpec("cycle", n, t)
        table = betti_closed_cycle(spec)
        assert (table.pd, table.reg) == pd_reg(spec)
        i_top, value = betti_top_degree(spec)
        assert {i: v for i, j, v, _ in table.items() if j == n} == {i_top: value}
        accepted = {
            (i, j) for j in range(1, n) for i in range(1, j + 1) if nonzero_criterion(spec, i, j)
        }
        assert {(i, j) for i, j in table.entries if j < n} == accepted

    @pytest.mark.parametrize("n,t", BEYOND_THE_ORACLE)
    def test_matches_the_cycle_binomial_sum(self, n, t):
        # the line's count on n - 1 vertices, scaled, against the cycle's own wrap-around sum
        table = betti_closed_cycle(PathFamilySpec("cycle", n, t))
        assert {(i, j): value for i, j, value, _ in table.items() if j < n} == cycle_placement_counts(n, t)


class TestCycleTopDegreeFromTheKPolynomial:
    """The top-degree entry against the independence sum at -1, which uses no Hochster and no table."""

    def test_every_cycle_up_to_n_30_and_four_far_past_the_oracle(self):
        # degree n holds one entry, (i, value), so the alternating sum of the
        # Betti numbers there, the coefficient of x_1...x_n of the
        # K-polynomial, is (-1)^i value, and it is (-1)^n I(-1)
        cases = [(n, t) for n in range(3, 31) for t in range(2, n + 1)] + [(300, 2), (500, 3), (1000, 5), (2000, 7)]
        wrong = []
        for n, t in cases:
            i, value = betti_top_degree(PathFamilySpec("cycle", n, t))
            if (-1) ** (n + i) * cycle_independence_at_minus_one(n, t) != value:
                wrong.append((n, t))
        assert len(cases) == 438 and wrong == []

    def test_small_cycles_by_counting_the_sets(self):
        for n in range(3, 11):
            for t in range(2, n + 1):
                full = (1 << n) - 1
                arcs = [((1 << t) - 1 << v | (1 << t) - 1 >> n - v) & full for v in range(n)]
                brute = sum((-1) ** s.bit_count() for s in range(1 << n) if all(arc & ~s for arc in arcs))
                assert cycle_independence_at_minus_one(n, t) == brute, (n, t)


class TestCycleProductFormula:
    """Below degree n, the cycle's entries against the cyclic product, which uses neither the line's count nor a sum."""

    @staticmethod
    def _below_n(n: int, t: int) -> dict[tuple[int, int], int]:
        return {(i, j): value for i, j, value, _ in betti_closed_cycle(PathFamilySpec("cycle", n, t)).items() if j < n}

    def test_every_cycle_up_to_n_60(self):
        wrong = [
            (n, t) for n in range(3, 61) for t in range(2, n + 1)
            if self._below_n(n, t) != cycle_product_counts(n, t)
        ]
        assert wrong == []

    @pytest.mark.parametrize("n,t", [(300, 2), (300, 3), (300, 5), (1000, 5)])
    def test_far_past_the_oracle(self, n, t):
        assert self._below_n(n, t) == cycle_product_counts(n, t)


def _height(kind: str, n: int, t: int) -> int:
    """Height of the path ideal: the fewest vertices meeting every t-path."""
    return -(-n // t) if kind == "cycle" else n // t


def _numerator_derivatives(table: BettiTable, n: int, order: int) -> list[int]:
    """The Taylor coefficients at x = 1 of K(x), up to (x - 1)^order.

    With K(x) = Σ_j a_j x^j = 1 + Σ (-1)^i β_{i,j} x^j, the coefficient
    of (x - 1)^k is Σ_j a_j C(j, k).
    """
    a = [1] + [0] * n
    for i, j, value, _ in table.items():
        a[j] += (-1) ** i * value
    return [sum(a_j * comb(j, k) for j, a_j in enumerate(a)) for k in range(order + 1)]


class TestHilbertNumerator:
    """K(x), the numerator of the Hilbert series of R/I, vanishes at x = 1 to order exactly height(I).

    At that order its coefficient has sign (-1)^height, because the
    multiplicity is positive.  Nothing here counts placements, so the
    closed forms are checked past the oracle's reach.
    """

    @pytest.mark.parametrize("kind", ["cycle", "line"])
    def test_height_is_the_minimum_vertex_cover(self, kind):
        for n in range(3, 11):
            for t in range(2, n + 1):
                masks = betti_module.facet_masks(build_path_complex(PathFamilySpec(kind, n, t)))
                cover = min(c.bit_count() for c in range(1 << n) if all(c & fm for fm in masks))
                assert _height(kind, n, t) == cover, (n, t)

    @staticmethod
    def _check(kind: str, n: int, t: int) -> None:
        spec = PathFamilySpec(kind, n, t)
        table = betti_closed_cycle(spec) if kind == "cycle" else betti_closed_line(spec)
        height = _height(kind, n, t)
        *below, at = _numerator_derivatives(table, n, height)
        assert below == [0] * height, (kind, n, t)
        assert (-1) ** height * at > 0, (kind, n, t)

    @pytest.mark.parametrize("kind", ["cycle", "line"])
    def test_order_is_the_height_up_to_n_40(self, kind):
        for n in range(3, 41):
            for t in range(2, n + 1):
                self._check(kind, n, t)

    @pytest.mark.parametrize("kind,n,t", [
        ("cycle", 300, 2), ("line", 300, 2), ("cycle", 300, 5), ("cycle", 200, 3),
    ])
    def test_order_is_the_height_past_the_oracle(self, kind, n, t):
        self._check(kind, n, t)


class TestNonzeroCriterion:
    def test_gap_bound(self):
        assert not nonzero_criterion(PathFamilySpec("cycle", 7, 4), 2, 8)

    def test_homological_degree_bound_when_d_zero(self):
        spec = PathFamilySpec("cycle", 6, 2)
        assert not any(nonzero_criterion(spec, 4, j) for j in range(4, 6))

    def test_positive_case(self):
        assert nonzero_criterion(PathFamilySpec("cycle", 5, 2), 2, 3)

    def test_internal_degree_bound(self):
        assert not nonzero_criterion(PathFamilySpec("cycle", 9, 2), 1, 3)

    def test_exact_against_the_closed_form(self):
        # every cell 1 <= i <= n + 1, 0 <= j <= n + 2 of the cycles with n <= 30, in both directions
        wrong = []
        for n in range(3, 31):
            for t in range(2, n + 1):
                spec = PathFamilySpec("cycle", n, t)
                table = betti_closed_cycle(spec)
                wrong += [
                    (n, t, i, j)
                    for j in range(n + 3) for i in range(1, n + 2)
                    if nonzero_criterion(spec, i, j) != (table.value(i, j) != 0)
                ]
        assert wrong == []


class TestClosedCycle:
    def test_pentagon(self):
        assert betti_closed_cycle(PathFamilySpec("cycle", 5, 2)).entries == PENTAGON

    def test_heptagon_entries(self):
        table = betti_closed_cycle(PathFamilySpec("cycle", 7, 4))
        assert table.value(1, 4) == 7
        assert table.value(3, 7) == 1

    def test_triangle_boundary_case_matches_oracle(self):
        assert betti_closed_cycle(PathFamilySpec("cycle", 3, 2)).entries == TRIANGLE

    def test_square_with_t_three(self):
        assert betti_closed_cycle(PathFamilySpec("cycle", 4, 3)).entries == SQUARE_T3

    def test_full_simplex_cycle(self):
        assert betti_closed_cycle(PathFamilySpec("cycle", 4, 4)).entries == {(1, 4): 1}

    def test_a_count_the_rotation_does_not_divide_is_refused(self, monkeypatch):
        # 5 * 1 / (5 - 2) leaves a remainder
        monkeypatch.setattr(betti_module, "_placement_walk", lambda n, t: iter([((1, 2), 1)]))
        with pytest.raises(RuntimeError, match="not divisible"):
            betti_closed_cycle(PathFamilySpec("cycle", 5, 2))
        with pytest.raises(RuntimeError, match="not divisible"):
            list(betti_module._closed_entries(PathFamilySpec("cycle", 5, 2)))

    def test_provenance_tags(self):
        table = betti_closed_cycle(PathFamilySpec("cycle", 5, 2))
        assert table.items() == [(1, 2, 5, "eligible_count"), (2, 3, 5, "eligible_count"), (3, 5, 1, "closed_form")]


class TestClosedLine:
    def test_path_on_four_vertices(self):
        assert betti_closed_line(PathFamilySpec("line", 4, 2)).entries == PATH4_T2

    def test_single_generator(self):
        for t in (2, 3, 5):
            table = betti_closed_line(PathFamilySpec("line", t, t))
            assert table.items() == [(1, t, 1, "eligible_count")]

    def test_edge_count(self):
        assert betti_closed_line(PathFamilySpec("line", 5, 2)).value(1, 2) == 4

    def test_matches_oracle(self):
        for n, t in [(4, 2), (5, 2), (6, 3), (7, 2), (8, 4)]:
            spec = PathFamilySpec("line", n, t)
            oracle = betti_hochster(build_path_complex(spec))
            assert betti_closed_line(spec) == oracle

    def test_matches_oracle_on_the_full_range(self):
        for n in range(2, 13):
            for t in range(2, n + 1):
                spec = PathFamilySpec("line", n, t)
                oracle = betti_hochster(build_path_complex(spec))
                assert betti_closed_line(spec) == oracle, (n, t)


class TestPdReg:
    @pytest.mark.parametrize("n,t,pd,reg", [
        (6, 2, 4, 2),
        (7, 4, 3, 4),
        (5, 2, 3, 2),
        (3, 2, 2, 1),
        (4, 4, 1, 3),
    ])
    def test_examples(self, n, t, pd, reg):
        assert pd_reg(PathFamilySpec("cycle", n, t)) == (pd, reg)

    def test_rejects_lines(self):
        with pytest.raises(ValueError):
            pd_reg(PathFamilySpec("line", 5, 2))


class TestFieldIndependenceSpots:
    def test_pentagon_over_three_fields(self):
        delta = build_path_complex(PathFamilySpec("cycle", 5, 2))
        for field in (QQ, GF2, GF32003):
            assert betti_hochster(delta, field).entries == PENTAGON
