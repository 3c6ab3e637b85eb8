from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathbetti import (
    GF2,
    GF32003,
    QQ,
    FieldSpec,
    OracleCapError,
    PathFamilySpec,
    SimplicialComplex,
    boundary_matrices,
    boundary_product,
    build_path_complex,
    complement,
    cone,
    make_complex,
    matrix_rank,
    reduced_homology_dims,
)
from pathbetti import homology
from pathbetti.homology import BoundaryMatrix, _rank_char0

from conftest import small_complexes

FIELDS = [QQ, GF2, GF32003]

HOLLOW_TRIANGLE = make_complex((1, 2, 3), [(1, 2), (2, 3), (1, 3)])


class TestFieldSpec:
    def test_rationals_and_primes_accepted(self):
        for c in (0, 2, 3, 31, 32003, 2147483647):
            assert FieldSpec(c).characteristic == c

    @pytest.mark.parametrize("c", [1, 4, 6, 32004, -2])
    def test_composites_rejected(self, c):
        with pytest.raises(ValueError):
            FieldSpec(c)

    @pytest.mark.parametrize("c", [1 << 31, 2147483659, 4294967311])
    def test_characteristic_at_or_above_2_to_the_31_rejected(self, c):
        with pytest.raises(ValueError, match="2\\^31"):
            FieldSpec(c)


class TestBoundaryMatrices:
    def test_segment(self):
        delta = make_complex((1, 2), [(1, 2)])
        d0, d1 = boundary_matrices(delta)
        assert d0.to_dense().tolist() == [[1, 1]]
        assert d1.rows == ((1,), (2,))
        assert d1.to_dense().tolist() == [[-1], [1]]

    def test_hollow_triangle_columns(self):
        d0, d1 = boundary_matrices(HOLLOW_TRIANGLE)
        assert d0.shape == (1, 3)
        assert d1.shape == (3, 3)
        for column in d1.columns:
            assert sorted(sign for _, sign in column) == [-1, 1]

    def test_irrelevant_has_no_matrices(self):
        assert boundary_matrices(make_complex((), [()])) == []

    def test_void_rejected(self):
        with pytest.raises(ValueError):
            boundary_matrices(make_complex((1,), []))

    def test_consecutive_maps_compose_to_zero_on_cycle_complement(self):
        delta = build_path_complex(PathFamilySpec("cycle", 7, 4))
        comp = complement(delta, delta.ambient)
        mats = boundary_matrices(comp)
        for a, b in zip(mats, mats[1:]):
            assert boundary_product(a, b) == {}

    @given(small_complexes(allow_void=False))
    @settings(max_examples=50, deadline=None)
    def test_consecutive_maps_compose_to_zero(self, delta: SimplicialComplex):
        if delta.is_irrelevant:
            return
        mats = boundary_matrices(delta)
        for a, b in zip(mats, mats[1:]):
            assert boundary_product(a, b) == {}


class TestMatrixRank:
    def test_zero_matrix(self):
        zero = BoundaryMatrix(rows=((1,), (2,)), cols=((3,),), columns=((),))
        for field in FIELDS:
            assert matrix_rank(zero, field) == 0

    def test_all_ones_row_over_gf2(self):
        d0 = boundary_matrices(make_complex((1, 2), [(1,), (2,)]))[0]
        assert d0.shape == (1, 2)
        assert matrix_rank(d0, GF2) == 1

    @pytest.mark.parametrize("field", FIELDS)
    def test_hollow_triangle_edge_map_has_rank_two(self, field):
        _, d1 = boundary_matrices(HOLLOW_TRIANGLE)
        assert matrix_rank(d1, field) == 2

    def test_dense_budget_bounds_the_cells(self, monkeypatch):
        _, d1 = boundary_matrices(HOLLOW_TRIANGLE)
        monkeypatch.setattr(homology, "MAX_DENSE_CELLS", 9)
        assert matrix_rank(d1) == 2
        monkeypatch.setattr(homology, "MAX_DENSE_CELLS", 8)
        with pytest.raises(OracleCapError, match="3x3"):
            matrix_rank(d1)

    def test_matrix_over_the_dense_budget_is_refused_unbuilt(self):
        side = 12000  # side^2 is above 2^27 cells, 1.1 GiB as int64
        faces = tuple((v,) for v in range(side))
        empty = BoundaryMatrix(rows=faces, cols=faces, columns=((),) * side)
        with pytest.raises(OracleCapError, match="dense budget"):
            empty.to_dense()


def _rank_fraction_oracle(rows: list[list[int]]) -> int:
    """Plain Gaussian elimination over exact fractions."""
    m = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [v * inv for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


class TestRankEngines:
    def test_char0_agrees_with_fraction_elimination_on_random_matrices(self):
        rng = random.Random(20240813)
        for scale in (4, 1 << 40, 1 << 61):
            for _ in range(60):
                m = rng.randint(1, 8)
                n = rng.randint(1, 8)
                rows = [[rng.randint(-scale, scale) for _ in range(n)] for _ in range(m)]
                dense = np.array(rows, dtype=np.int64)
                assert _rank_char0(dense) == _rank_fraction_oracle(rows), scale

    def test_entry_growth_moves_to_python_ints_mid_elimination(self):
        # Every entry starts below 2^26, but cross-multiplication pushes
        # them past int64 before the rank-3 structure is found.
        rng = np.random.default_rng(20261018)
        for _ in range(50):
            left = rng.integers(-4000, 4001, size=(10, 3))
            right = rng.integers(-4000, 4001, size=(3, 10))
            dense = left @ right
            assert _rank_char0(dense) == _rank_fraction_oracle(dense.tolist()) == 3

    def test_bigint_fallback_on_huge_entries(self):
        big = 1 << 40
        rows = [[big, big + 1], [big - 1, big]]
        dense = np.array(rows, dtype=np.int64)
        assert _rank_char0(dense) == _rank_fraction_oracle(rows) == 2

    def test_singular_matrix_with_large_entries(self):
        big = (1 << 35) + 7
        rows = [[big, 2 * big], [3 * big, 6 * big]]
        dense = np.array(rows, dtype=np.int64)
        assert _rank_char0(dense) == 1


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
        from pathbetti import faces_of_dim

        for field in FIELDS:
            hom = reduced_homology_dims(delta, field)
            euler = sum(
                (-1) ** k * len(faces_of_dim(delta, k))
                for k in range(0, (delta.dim or 0) + 1)
            ) - 1
            assert euler == sum((-1) ** i * h for i, h in hom.items())

    @given(small_complexes(allow_void=False))
    @settings(max_examples=30, deadline=None)
    def test_field_independence_on_small_complexes(self, delta: SimplicialComplex):
        # not true for arbitrary complexes, but no torsion of order 32003
        # fits on six vertices, so this flags rank-engine disagreements
        base = reduced_homology_dims(delta, QQ)
        assert reduced_homology_dims(delta, GF32003) == base
