from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pathbetti import (
    PathFamilySpec,
    SimplicialComplex,
    build_path_complex,
    complement,
    cone,
    faces_of_dim,
    induced_subcollection,
    make_complex,
)
from pathbetti import betti
from pathbetti.homology import facet_masks

from conftest import small_complexes


class TestMakeComplex:
    def test_prunes_contained_facets(self):
        delta = make_complex((1, 2, 3), [(1, 2), (2, 3), (2,)])
        assert delta.facets == ((1, 2), (2, 3))

    def test_empty_facet_list_is_void(self):
        delta = make_complex((1, 2, 3), [])
        assert delta.is_void
        assert not delta.is_irrelevant
        assert delta.dim is None

    def test_lone_empty_facet_is_irrelevant(self):
        delta = make_complex((1, 2), [()])
        assert delta.is_irrelevant
        assert not delta.is_void
        assert delta.dim == -1

    def test_empty_facet_pruned_next_to_real_ones(self):
        delta = make_complex((1, 2), [(), (1,)])
        assert delta.facets == ((1,),)

    def test_facet_outside_ambient_rejected(self):
        with pytest.raises(ValueError):
            make_complex((1, 2), [(1, 3)])

    def test_duplicate_facets_dropped(self):
        delta = make_complex((1, 2, 3), [(1, 2), (2, 1), (3,)])
        assert delta.facets == ((1, 2), (3,))

    def test_seven_facets_of_the_heptagon_path_complex_kept(self):
        delta = build_path_complex(PathFamilySpec("cycle", 7, 4))
        expected = {
            (1, 2, 3, 4), (2, 3, 4, 5), (3, 4, 5, 6), (4, 5, 6, 7),
            (1, 5, 6, 7), (1, 2, 6, 7), (1, 2, 3, 7),
        }
        assert set(delta.facets) == expected

    @given(small_complexes())
    def test_idempotent(self, delta: SimplicialComplex):
        assert make_complex(delta.ambient, delta.facets) == delta


class TestInducedSubcollection:
    def test_heptagon_on_first_five_vertices(self):
        delta = build_path_complex(PathFamilySpec("cycle", 7, 4))
        gamma = induced_subcollection(delta, (1, 2, 3, 4, 5))
        assert gamma.facets == ((1, 2, 3, 4), (2, 3, 4, 5))
        assert gamma.ambient == (1, 2, 3, 4, 5)

    def test_too_small_vertex_set_gives_void(self):
        delta = build_path_complex(PathFamilySpec("cycle", 7, 4))
        gamma = induced_subcollection(delta, (1, 2, 3))
        assert gamma.is_void
        assert gamma.ambient == ()

    def test_pentagon_on_four_vertices(self):
        delta = build_path_complex(PathFamilySpec("cycle", 5, 2))
        gamma = induced_subcollection(delta, (1, 2, 3, 4))
        assert gamma.facets == ((1, 2), (2, 3), (3, 4))

    def test_vertices_outside_ambient_rejected(self):
        delta = make_complex((1, 2), [(1, 2)])
        with pytest.raises(ValueError):
            induced_subcollection(delta, (1, 3))

    def test_support_can_be_smaller_than_requested(self):
        delta = make_complex((1, 2, 3, 4), [(1, 2), (3, 4)])
        gamma = induced_subcollection(delta, (1, 2, 3))
        assert gamma.facets == ((1, 2),)
        assert gamma.ambient == (1, 2)

    @given(small_complexes())
    def test_inducing_on_full_ambient_keeps_facets(self, delta: SimplicialComplex):
        assert induced_subcollection(delta, delta.ambient).facets == delta.facets


class TestComplement:
    def test_single_full_facet_gives_irrelevant(self):
        t = 4
        delta = make_complex(range(1, t + 1), [tuple(range(1, t + 1))])
        comp = complement(delta, range(1, t + 1))
        assert comp.is_irrelevant

    def test_two_overlapping_edges(self):
        delta = make_complex((1, 2, 3), [(1, 2), (2, 3)])
        comp = complement(delta, (1, 2, 3))
        assert comp.facets == ((1,), (3,))

    def test_single_vertex(self):
        delta = make_complex((1, 2), [(1,)])
        comp = complement(delta, (1, 2))
        assert comp.facets == ((2,),)

    def test_facet_not_inside_given_set_rejected(self):
        delta = make_complex((1, 2, 3), [(1, 2, 3)])
        with pytest.raises(ValueError):
            complement(delta, (1, 2))

    @given(small_complexes(allow_void=False))
    def test_involution_on_pure_complexes(self, delta: SimplicialComplex):
        top = max(len(f) for f in delta.facets)
        pure = make_complex(delta.ambient, [f for f in delta.facets if len(f) == top])
        assert complement(complement(pure, pure.ambient), pure.ambient) == pure


class TestCone:
    def test_cone_over_void_is_a_point(self):
        delta = make_complex((1, 2), [])
        assert cone(delta, 9).facets == ((9,),)

    def test_cone_over_points(self):
        delta = make_complex((1, 2), [(1,), (2,)])
        assert cone(delta, 3).facets == ((1, 3), (2, 3))

    def test_cone_over_path(self):
        delta = make_complex((1, 2, 3), [(1, 2), (2, 3)])
        assert cone(delta, 4).facets == ((1, 2, 4), (2, 3, 4))

    def test_apex_must_be_fresh(self):
        delta = make_complex((1, 2), [(1, 2)])
        with pytest.raises(ValueError):
            cone(delta, 2)


def _components(delta: SimplicialComplex) -> list[tuple]:
    """The oracle's connected components of delta, each as its facets, sorted."""
    masks = facet_masks(delta)
    return sorted(
        tuple(f for f, fm in zip(delta.facets, masks) if fm & ~verts == 0)
        for verts in betti._components(masks)
    )


class TestConnectedComponents:
    """The oracle's split of the facets into connected components, on bitmasks."""

    def test_two_blocks(self):
        delta = make_complex(range(1, 7), [(1, 2), (2, 3), (5, 6)])
        assert _components(delta) == [((1, 2), (2, 3)), ((5, 6),)]
        assert sorted(betti._components(facet_masks(delta))) == [0b000111, 0b110000]

    def test_single_facet_single_component(self):
        delta = make_complex((1, 2), [(1, 2)])
        assert _components(delta) == [delta.facets]

    def test_heptagon_path_complex_is_connected(self):
        delta = build_path_complex(PathFamilySpec("cycle", 7, 4))
        assert _components(delta) == [delta.facets]

    @given(small_complexes(allow_void=False))
    def test_components_partition_facets(self, delta: SimplicialComplex):
        parts = _components(delta)
        gathered = sorted(f for facets in parts for f in facets)
        assert gathered == sorted(delta.facets)
        for a, b in itertools.combinations(parts, 2):
            assert not set().union(*a) & set().union(*b)


class TestFacesOfDim:
    def test_triangle_edges(self):
        delta = make_complex((1, 2, 3), [(1, 2, 3)])
        assert faces_of_dim(delta, 1) == [(1, 2), (1, 3), (2, 3)]

    def test_void_has_no_empty_face(self):
        assert faces_of_dim(make_complex((1,), []), -1) == []

    def test_nonvoid_has_empty_face(self):
        delta = make_complex((1, 2, 3), [(1, 2), (2, 3)])
        assert faces_of_dim(delta, -1) == [()]
        assert faces_of_dim(delta, 0) == [(1,), (2,), (3,)]

    def test_above_dimension_is_empty(self):
        delta = make_complex((1, 2), [(1, 2)])
        assert faces_of_dim(delta, 2) == []

    @given(st.integers(min_value=1, max_value=7), st.integers(min_value=-1, max_value=7))
    def test_simplex_face_counts_are_binomial(self, size: int, k: int):
        delta = make_complex(range(1, size + 1), [tuple(range(1, size + 1))])
        assert len(faces_of_dim(delta, k)) == math.comb(size, k + 1)
