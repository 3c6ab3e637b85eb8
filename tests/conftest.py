from __future__ import annotations

import pytest
from hypothesis import strategies as st

from pathbetti import SimplicialComplex, betti, make_complex


def empty_oracle_memos() -> None:
    """Empty the oracle's memos: its sums per facet set and its translation terms per pattern."""
    betti._oracle_sums.cache_clear()
    betti._pattern_terms.cache_clear()


@pytest.fixture(autouse=True)
def empty_oracle_memo():
    """The oracle's memos, emptied around every test, so that no sums or terms outlive their test."""
    empty_oracle_memos()
    yield
    empty_oracle_memos()


@pytest.fixture
def empty_ind_memo():
    """The Ind homology memo, emptied before the test and again after it."""
    betti._ind_homology.cache_clear()
    yield
    betti._ind_homology.cache_clear()


@st.composite
def small_complexes(draw, max_vertices: int = 6, allow_void: bool = True) -> SimplicialComplex:
    """Random facet complexes on at most ``max_vertices`` vertices."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    ambient = tuple(range(1, n + 1))
    min_facets = 0 if allow_void else 1
    facets = draw(st.lists(
        st.sets(st.sampled_from(ambient), min_size=1, max_size=n).map(tuple),
        min_size=min_facets,
        max_size=6,
    ))
    return make_complex(ambient, facets)
