from __future__ import annotations

import itertools

import pytest

from pathbetti import (
    HomologySummary,
    PathFamilySpec,
    RunSequence,
    SimplicialComplex,
    build_path_complex,
    build_run_complex,
    homology_run_sequence,
    make_complex,
    vertex_count_of_runs,
)

from reference import complement, enumerate_placements, induced_subcollection, reduced_homology_dims, run_sequence


class _Index:
    """An integer-like object that is not an int, as numpy's integers are."""

    def __init__(self, value: int) -> None:
        self.value = value

    def __index__(self) -> int:
        return self.value


class TestPathFamilySpec:
    def test_euclidean_split(self):
        spec = PathFamilySpec("cycle", 7, 4)
        assert (spec.p, spec.d) == (1, 2)

    def test_remainder_can_equal_t(self):
        spec = PathFamilySpec("cycle", 5, 3)
        assert (spec.p, spec.d) == (1, 1)
        spec = PathFamilySpec("cycle", 3, 3)
        assert (spec.p, spec.d) == (0, 3)

    @pytest.mark.parametrize("kind,n,t", [
        ("cycle", 5, 6), ("cycle", 2, 2), ("line", 3, 1), ("ring", 5, 2),
    ])
    def test_invalid_parameters(self, kind, n, t):
        with pytest.raises(ValueError):
            PathFamilySpec(kind, n, t)

    @pytest.mark.parametrize("n,t", [(7.5, 2), (7, 2.0), ("7", 2), (None, 2)])
    def test_non_integer_parameters_rejected(self, n, t):
        # accepted, 7.5 would give p = 2.0 and d = 1.5, and fail later inside range()
        with pytest.raises(ValueError, match="must be an integer"):
            PathFamilySpec("cycle", n, t)

    def test_what_operator_index_accepts_is_stored_as_an_int(self):
        spec = PathFamilySpec("cycle", _Index(7), _Index(2))
        assert spec == PathFamilySpec("cycle", 7, 2)
        assert type(spec.n) is int and type(spec.t) is int


class TestRunSequence:
    def test_residues_and_aggregates(self):
        # (p, d) = (1, 1), (0, 2), (0, 1) for t = 2: P = 1, Q = 0, alpha = 2,
        # beta = 1, so the degree is 2(P + Q) + 2 beta + alpha - 2 = 4
        assert homology_run_sequence(2, RunSequence((4, 2, 1))) == HomologySummary(4, 1)

    def test_non_eligible_shape(self):
        assert homology_run_sequence(2, RunSequence((3,))) == HomologySummary.zero()
        assert homology_run_sequence(3, RunSequence((4, 3))) == HomologySummary.zero()

    def test_validation(self):
        with pytest.raises(ValueError):
            RunSequence(())
        with pytest.raises(ValueError):
            RunSequence((2, 0))

    def test_non_integer_lengths_rejected(self):
        # truncating would turn (2.7, 1) into (2, 1) without a word
        with pytest.raises(ValueError, match="must be an integer"):
            RunSequence((2.7, 1))
        with pytest.raises(ValueError, match="must be an integer"):
            RunSequence(("2", 1))

    def test_what_operator_index_accepts_is_stored_as_an_int(self):
        seq = RunSequence([_Index(2), 1])
        assert seq.lengths == (2, 1)
        assert all(type(s) is int for s in seq.lengths)


class TestBuildPathComplex:
    def test_heptagon(self):
        delta = build_path_complex(PathFamilySpec("cycle", 7, 4))
        assert len(delta.facets) == 7
        assert (1, 2, 3, 7) in delta.facets

    def test_line(self):
        delta = build_path_complex(PathFamilySpec("line", 5, 2))
        assert delta.facets == ((1, 2), (2, 3), (3, 4), (4, 5))

    def test_full_cycle_is_one_simplex(self):
        delta = build_path_complex(PathFamilySpec("cycle", 3, 3))
        assert delta.facets == ((1, 2, 3),)

    def test_line_facet_count(self):
        delta = build_path_complex(PathFamilySpec("line", 9, 4))
        assert len(delta.facets) == 6

    @pytest.mark.parametrize("kind", ["cycle", "line"])
    def test_is_what_make_complex_builds(self, kind):
        # built directly, the facets must already be a sorted antichain
        for n in range(3 if kind == "cycle" else 2, 41):
            for t in range(2, n + 1):
                delta = build_path_complex(PathFamilySpec(kind, n, t))
                assert make_complex(delta.ambient, delta.facets) == delta, (n, t)

    def test_the_cycle_is_the_set_of_its_rotated_paths(self):
        # the reference: every window of t vertices mod n, as a sorted set
        for n in range(3, 31):
            for t in range(2, n + 1):
                facets = sorted({tuple(sorted((i + k) % n + 1 for k in range(t))) for i in range(n)})
                want = SimplicialComplex(tuple(range(1, n + 1)), tuple(facets))
                assert build_path_complex(PathFamilySpec("cycle", n, t)) == want, (n, t)


def _support(spec: PathFamilySpec, runs: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    """The vertices a placement's runs cover on the standard labeling: s + t - 1 from each start."""
    return tuple(sorted({(b + off - 1) % spec.n + 1 for b, s in runs for off in range(s + spec.t - 1)}))


def _induces_its_runs(spec: PathFamilySpec, runs, support, facets, lengths) -> None:
    """The placement covers ``support``, whose induced subcollection is exactly ``facets`` and covers all of it."""
    assert _support(spec, runs) == support
    gamma = induced_subcollection(build_path_complex(spec), support)
    assert gamma.ambient == support
    assert gamma.facets == facets
    assert run_sequence(runs).lengths == lengths


class TestRunDecomposition:
    """A placement's support induces exactly the placement's runs, on worked examples."""

    def test_single_run_of_two(self):
        spec = PathFamilySpec("cycle", 7, 4)
        _induces_its_runs(spec, ((1, 2),), (1, 2, 3, 4, 5), ((1, 2, 3, 4), (2, 3, 4, 5)), (2,))

    def test_wrapping_run_of_three(self):
        # facets 6, 7 and 1: {6, 7, 1, 2}, {7, 1, 2, 3} and {1, 2, 3, 4}
        spec = PathFamilySpec("cycle", 7, 4)
        facets = ((1, 2, 3, 4), (1, 2, 3, 7), (1, 2, 6, 7))
        _induces_its_runs(spec, ((6, 3),), (1, 2, 3, 4, 6, 7), facets, (3,))

    def test_two_single_runs(self):
        spec = PathFamilySpec("cycle", 6, 2)
        _induces_its_runs(spec, ((1, 1), (4, 1)), (1, 2, 4, 5), ((1, 2), (4, 5)), (1, 1))

    def test_line_decomposition(self):
        spec = PathFamilySpec("line", 8, 2)
        facets = ((1, 2), (2, 3), (6, 7), (7, 8))
        _induces_its_runs(spec, ((1, 2), (6, 2)), (1, 2, 3, 6, 7, 8), facets, (2, 2))


class TestVertexCount:
    @pytest.mark.parametrize("lengths,t,expected", [
        ((1,), 4, 4),
        ((2,), 2, 3),
        ((3, 1), 4, 10),
    ])
    def test_examples(self, lengths, t, expected):
        assert vertex_count_of_runs(RunSequence(lengths), t) == expected


def _descending_runs(t: int, budget: int) -> list[tuple[int, ...]]:
    """Every non-increasing sequence of run lengths whose runs cover at most ``budget`` vertices."""
    out = []

    def extend(prefix: tuple[int, ...], most: int, left: int) -> None:
        for s in range(1, min(most, left - t + 1) + 1):
            out.append(prefix + (s,))
            extend(prefix + (s,), s, left - (s + t - 1))

    extend((), budget, budget)
    return out


def _run_complement(seq: RunSequence, t: int):
    gamma = build_run_complex(seq, t)
    return complement(gamma, gamma.ambient)


class TestBuildRunComplement:
    def test_runs_on_fresh_consecutive_blocks(self):
        gamma = build_run_complex(RunSequence((2, 1)), 3)
        assert gamma.ambient == tuple(range(1, 8))
        assert gamma.facets == ((1, 2, 3), (2, 3, 4), (5, 6, 7))

    @pytest.mark.parametrize("t", [2, 3, 4])
    def test_is_what_make_complex_builds(self, t):
        # the run sequences of the runs_explicit workload, on at most 12 vertices
        sequences = _descending_runs(t, 12)
        assert len(sequences) > 10
        for lengths in sequences:
            gamma = build_run_complex(RunSequence(lengths), t)
            assert make_complex(gamma.ambient, gamma.facets) == gamma, lengths

    def test_single_run_gives_irrelevant(self):
        for t in (2, 3, 5):
            assert _run_complement(RunSequence((1,)), t).facets == ((),)

    def test_run_of_two(self):
        comp = _run_complement(RunSequence((2,)), 2)
        assert comp.facets == ((1,), (3,))

    def test_two_singles(self):
        comp = _run_complement(RunSequence((1, 1)), 2)
        assert comp.facets == ((1, 2), (3, 4))
        assert reduced_homology_dims(comp) == {0: 1}

    def test_matches_placed_complements(self):
        # realized complements of placements with the same lengths have
        # the same homology as the freshly built model
        spec = PathFamilySpec("cycle", 10, 3)
        delta = build_path_complex(spec)
        for placement in itertools.islice(enumerate_placements(spec), 40):
            gamma = induced_subcollection(delta, _support(spec, placement))
            placed = reduced_homology_dims(complement(gamma, gamma.ambient))
            model = reduced_homology_dims(_run_complement(run_sequence(placement), spec.t))
            assert placed == model


def _brute_force_supports(spec: PathFamilySpec) -> list[tuple[int, ...]]:
    """Every proper vertex set Y whose induced subcollection has support Y, by raw subset enumeration."""
    delta = build_path_complex(spec)
    n = spec.n
    found = []
    for size in range(1, n):
        for y in itertools.combinations(range(1, n + 1), size):
            gamma = induced_subcollection(delta, y)
            if not gamma.facets or gamma.ambient != y:
                continue
            if len(gamma.facets) == len(delta.facets):
                continue
            found.append(y)
    return found


class TestEnumeratePlacements:
    def test_single_runs_on_heptagon(self):
        spec = PathFamilySpec("cycle", 7, 4)
        singles = [p for p in enumerate_placements(spec) if run_sequence(p).lengths == (1,)]
        assert len(singles) == 7

    def test_no_pair_of_disjoint_singles_on_heptagon(self):
        spec = PathFamilySpec("cycle", 7, 4)
        pairs = [p for p in enumerate_placements(spec) if run_sequence(p).lengths == (1, 1)]
        assert pairs == []

    def test_pentagon_counts(self):
        spec = PathFamilySpec("cycle", 5, 2)
        placements = list(enumerate_placements(spec))
        assert len([p for p in placements if run_sequence(p).lengths == (2,)]) == 5
        assert len([p for p in placements if run_sequence(p).lengths == (1, 1)]) == 0

    def test_rotation_of_a_placement_is_a_placement(self):
        spec = PathFamilySpec("cycle", 9, 2)
        all_placements = set(enumerate_placements(spec))
        for runs in all_placements:
            rotated = tuple(sorted(((b % spec.n) + 1, s) for b, s in runs))
            assert rotated in all_placements

    @pytest.mark.parametrize("n,t", [
        (n, t) for n in range(3, 13) for t in range(2, n)
    ])
    def test_bijection_with_induced_subcollections(self, n, t):
        # the placements and the supports of proper induced subcollections
        # correspond one to one, each placement to the vertices its runs cover
        spec = PathFamilySpec("cycle", n, t)
        placements = list(enumerate_placements(spec))
        assert len(set(placements)) == len(placements)
        supports = [_support(spec, p) for p in placements]
        assert sorted(supports) == sorted(_brute_force_supports(spec))
        for placement, y in zip(placements, supports):
            assert vertex_count_of_runs(run_sequence(placement), t) == len(y)
