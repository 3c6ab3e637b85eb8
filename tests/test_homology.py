from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathbetti import QQ, FieldSpec, OracleCapError, SimplicialComplex, make_complex
from pathbetti import homology
from pathbetti.betti import facet_masks

from conftest import small_complexes
from reference import GF2, GF32003, RP2, cone, faces_of_dim, reduced_homology_dims

FIELDS = [QQ, GF2, GF32003]

HOLLOW_TRIANGLE = make_complex((1, 2, 3), [(1, 2), (2, 3), (1, 3)])

# Two points beside a hollow triangle: homology in degrees 0 and 1.
S0_SQCUP_S1 = make_complex(range(1, 6), [(1,), (2,), (3, 4), (4, 5), (3, 5)])

# The boundary of the 4-simplex.
SPHERE_3 = make_complex(range(1, 6), [[v for v in range(1, 6) if v != skip] for skip in range(1, 6)])


class TestFieldSpec:
    def test_rationals_and_primes_accepted(self):
        for c in (0, 2, 3, 31, 32003, 2147483647):
            assert FieldSpec(c).characteristic == c

    @pytest.mark.parametrize("c", [1, 4, 6, 32004, -2])
    def test_composites_rejected(self, c):
        with pytest.raises(ValueError):
            FieldSpec(c)

    @pytest.mark.parametrize("c", [2.0, 0.0, "2"])
    def test_non_integers_rejected(self, c):
        with pytest.raises(ValueError, match="must be an integer"):
            FieldSpec(c)

    @pytest.mark.parametrize("c", [1 << 31, 2147483659, 4294967311])
    def test_characteristic_at_or_above_2_to_the_31_rejected(self, c):
        with pytest.raises(ValueError, match="2\\^31"):
            FieldSpec(c)


class TestFaceBudget:
    def test_face_budget_bounds_the_faces(self, monkeypatch):
        # three vertices, three edges and the empty face
        monkeypatch.setattr(homology, "MAX_FACES", 7)
        assert reduced_homology_dims(HOLLOW_TRIANGLE) == {1: 1}
        monkeypatch.setattr(homology, "MAX_FACES", 6)
        with pytest.raises(OracleCapError, match="face budget"):
            reduced_homology_dims(HOLLOW_TRIANGLE)

    def test_complex_over_the_face_budget_is_refused_unbuilt(self, monkeypatch):
        # a simplex on 40 vertices has 2^40 faces: counting them all would
        # not end, so the count stops just past the budget
        def no_columns(*args):
            raise AssertionError("a column was reduced")

        monkeypatch.setattr(homology, "_reduce", no_columns)
        monkeypatch.setattr(homology, "MAX_FACES", 1000)
        simplex = make_complex(range(1, 41), [range(1, 41)])
        with pytest.raises(OracleCapError, match="face budget"):
            reduced_homology_dims(simplex)


def _rank_fraction_oracle(rows: list[list[int]], p: int = 0) -> int:
    """Plain Gauss-Jordan elimination over exact fractions, or over GF(p) when p is given."""
    m = [[Fraction(v % p if p else v) for v in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(int(m[rank][col]), -1, p) if p else 1 / m[rank][col]
        m[rank] = [v * inv % p if p else v * inv for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [(a - f * b) % p if p else a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def _reference_homology(delta: SimplicialComplex, p: int) -> dict[int, int]:
    """Reduced homology from dense boundary matrices over faces_of_dim, ranked by the oracle above."""
    if not delta.facets:
        return {}
    top = max(len(f) for f in delta.facets) - 1
    faces = {k: faces_of_dim(delta, k) for k in range(-1, top + 1)}
    ranks = {k: 0 for k in range(-1, top + 2)}
    for k in range(0, top + 1):
        index = {f: i for i, f in enumerate(faces[k - 1])}
        dense = [[0] * len(faces[k]) for _ in faces[k - 1]]
        for c, face in enumerate(faces[k]):
            for i in range(len(face)):
                dense[index[face[:i] + face[i + 1:]]][c] = (-1) ** i
        ranks[k] = _rank_fraction_oracle(dense, p)
    dims = {k: len(faces[k]) - ranks[k] - ranks[k + 1] for k in range(-1, top + 1)}
    return {k: h for k, h in dims.items() if h}


def _stored_entry_types(monkeypatch) -> set[type]:
    """Patch the reduction to collect the types of the entries of every column it stores."""
    kinds: set[type] = set()
    real = homology._reduce

    def recording(columns, p):
        pivots = real(columns, p)
        kinds.update(type(v) for col in pivots.values() for v in col.values())
        return pivots

    monkeypatch.setattr(homology, "_reduce", recording)
    return kinds


def _reduced_column_counts(monkeypatch) -> list[int]:
    """Patch the reduction to collect the number of columns of each map it is given."""
    reduced: list[int] = []
    real = homology._reduce

    def counting(columns, p):
        columns = list(columns)
        reduced.append(len(columns))
        return real(columns, p)

    monkeypatch.setattr(homology, "_reduce", counting)
    return reduced


class TestReducedHomology:
    def test_irrelevant_complex(self):
        assert reduced_homology_dims(make_complex((), [()])) == {-1: 1}

    def test_void_complex(self):
        assert reduced_homology_dims(make_complex((1, 2), [])) == {}

    def test_two_points(self):
        delta = make_complex((1, 2, 3), [(3,), (1,)])
        assert reduced_homology_dims(delta) == {0: 1}

    def test_hollow_triangle_is_a_circle(self):
        for field in FIELDS:
            assert reduced_homology_dims(HOLLOW_TRIANGLE, field) == {1: 1}

    def test_solid_simplex_is_acyclic(self):
        delta = make_complex((1, 2, 3, 4), [(1, 2, 3, 4)])
        assert reduced_homology_dims(delta) == {}

    @given(small_complexes())
    @settings(max_examples=50, deadline=None)
    def test_cones_are_acyclic(self, delta: SimplicialComplex):
        apex = (delta.ambient[-1] if delta.ambient else 0) + 1
        assert reduced_homology_dims(cone(delta, apex)) == {}

    @given(small_complexes(allow_void=False), st.permutations(range(1, 9)))
    @settings(max_examples=50, deadline=None)
    def test_relabeling_invariance(self, delta: SimplicialComplex, image):
        relabel = {v: image[v - 1] for v in delta.ambient}
        shuffled = make_complex(
            [relabel[v] for v in delta.ambient],
            [[relabel[v] for v in f] for f in delta.facets],
        )
        assert reduced_homology_dims(shuffled) == reduced_homology_dims(delta)

    @given(small_complexes(allow_void=False))
    @settings(max_examples=40, deadline=None)
    def test_reduced_euler_poincare(self, delta: SimplicialComplex):
        for field in FIELDS:
            hom = reduced_homology_dims(delta, field)
            euler = sum(
                (-1) ** k * len(faces_of_dim(delta, k))
                for k in range(0, max(len(f) for f in delta.facets))
            ) - 1
            assert euler == sum((-1) ** i * h for i, h in hom.items())

    @given(small_complexes(allow_void=False))
    @settings(max_examples=30, deadline=None)
    def test_field_independence_on_small_complexes(self, delta: SimplicialComplex):
        # not true for arbitrary complexes, but no torsion of order 32003
        # fits on six vertices, so this flags rank-engine disagreements
        base = reduced_homology_dims(delta, QQ)
        assert reduced_homology_dims(delta, GF32003) == base


class TestSparseEngine:
    """The one column reduction; over the rationals it goes from integers to fractions at a pivot that is no unit."""

    @pytest.mark.parametrize("field", FIELDS)
    @given(delta=small_complexes())
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_reference(self, field, delta: SimplicialComplex):
        assert reduced_homology_dims(delta, field) == _reference_homology(delta, field.characteristic)

    @given(small_complexes(allow_void=False))
    @settings(max_examples=60, deadline=None)
    def test_fraction_path_matches_dense_reference(self, delta: SimplicialComplex):
        levels = homology._levels(facet_masks(delta))
        assert homology._homology(levels, 0) == _reference_homology(delta, 0)

    @pytest.mark.parametrize("field, expected", [(GF2, {1: 1, 2: 1}), (QQ, {}), (FieldSpec(3), {})],
                             ids=["gf2", "qq", "gf3"])
    def test_real_projective_plane(self, field, expected):
        assert reduced_homology_dims(RP2, field) == expected

    @pytest.mark.parametrize("delta, expected", [
        (S0_SQCUP_S1, {0: 2, 1: 1}),
        (HOLLOW_TRIANGLE, {1: 1}),
        (make_complex((1, 2, 3), [(1,), (2,), (3,)]), {0: 2}),
    ], ids=["s0-sqcup-s1", "circle", "three-points"])
    def test_rationals_stay_in_the_integers_while_every_pivot_is_a_unit(self, monkeypatch, delta, expected):
        kinds = _stored_entry_types(monkeypatch)
        assert reduced_homology_dims(delta, QQ) == expected
        assert kinds == {int}

    def test_rationals_go_on_over_fractions_from_a_pivot_that_is_no_unit(self, monkeypatch):
        # RP2's boundary maps meet the pivot 2 over the integers
        kinds = _stored_entry_types(monkeypatch)
        assert reduced_homology_dims(RP2, QQ) == {}
        assert Fraction in kinds

    def test_clearing_skips_the_pivot_rows_of_the_map_above(self, monkeypatch):
        # the 3-sphere bounding a 4-simplex: 5 tetrahedra, 10 triangles, 10
        # edges, 5 vertices; the maps from them have ranks 4, 6, 4 and 1, so
        # 5 + (10 - 4) + (10 - 6) + (5 - 4) columns are reduced, not all 30
        reduced = _reduced_column_counts(monkeypatch)
        assert reduced_homology_dims(SPHERE_3, GF32003) == {3: 1}
        assert reduced == [5, 6, 4, 1]


class TestEveryFieldElimination:
    """The reduction over the integers with pivots 1 and -1 only, whose homology holds over every field."""

    def test_raises_at_the_pivot_2_of_rp2(self):
        with pytest.raises(homology._NonUnitPivot):
            homology._homology(homology._levels(facet_masks(RP2)), None)

    @pytest.mark.parametrize("delta, expected", [
        (SPHERE_3, {3: 1}), (HOLLOW_TRIANGLE, {1: 1}), (S0_SQCUP_S1, {0: 2, 1: 1}),
    ], ids=["3-sphere", "circle", "s0-sqcup-s1"])
    def test_gives_the_homology_every_field_shares(self, delta, expected):
        assert homology._homology(homology._levels(facet_masks(delta)), None) == expected
        for p in (0, 2, 3, 32003):
            assert _reference_homology(delta, p) == expected

    def test_clearing_skips_the_same_columns(self, monkeypatch):
        reduced = _reduced_column_counts(monkeypatch)
        assert homology._homology(homology._levels(facet_masks(SPHERE_3)), None) == {3: 1}
        assert reduced == [5, 6, 4, 1]

    @given(small_complexes(allow_void=False))
    @settings(max_examples=40, deadline=None)
    def test_raises_or_matches_the_dense_reference_over_every_field(self, delta: SimplicialComplex):
        try:
            common = homology._homology(homology._levels(facet_masks(delta)), None)
        except homology._NonUnitPivot:
            return
        for p in (0, 2, 3, 32003):
            assert _reference_homology(delta, p) == common


def test_package_imports_without_numpy():
    code = "import sys, pathbetti.cli; assert 'numpy' not in sys.modules, 'numpy was imported'"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
