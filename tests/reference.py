"""Exponential reference constructions that the tests check the package against.

None of this is on a route of the package.  The complexes are built
outright, facet by facet, never through the oracle's splitting or
Alexander duality, so a test that compares the oracle with them compares
two independent computations.  ``reduced_homology_dims`` ranks every
boundary map of a complex built this way; ``enumerate_placements`` lists
the run placements that the closed forms count by a binomial sum.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

from pathbetti import QQ, FieldSpec, HomologyVector, PathFamilySpec, RunSequence, SimplicialComplex, make_complex
from pathbetti.betti import facet_masks
from pathbetti.complexes import Face, Vertex, as_vertex_set
from pathbetti.homology import _levels, levels_homology

GF2 = FieldSpec(2)
GF32003 = FieldSpec(32003)

Placement = tuple[tuple[int, int], ...]


def induced_subcollection(delta: SimplicialComplex, vertices: Iterable[Vertex]) -> SimplicialComplex:
    """Facets of ``delta`` contained in the given vertex set.

    The result's ambient is the union of the kept facets (its support),
    not the given vertex set; callers that need the cone test compare
    the support against the vertex set themselves.
    """
    y = as_vertex_set(vertices)
    if not set(y) <= set(delta.ambient):
        raise ValueError(f"vertex set {y} is not contained in the ambient {delta.ambient}")
    y_set = set(y)
    kept = tuple(sorted(f for f in delta.facets if set(f) <= y_set))
    support = as_vertex_set(v for f in kept for v in f)
    return SimplicialComplex(support, kept)


def complement(delta: SimplicialComplex, vertices: Iterable[Vertex]) -> SimplicialComplex:
    """The complex generated by the complements of the facets within ``vertices``."""
    x = as_vertex_set(vertices)
    x_set = set(x)
    for f in delta.facets:
        if not set(f) <= x_set:
            raise ValueError(f"facet {f} is not contained in {x}")
    return make_complex(x, (x_set.difference(f) for f in delta.facets))


def cone(delta: SimplicialComplex, apex: Vertex) -> SimplicialComplex:
    """Join with a single new apex vertex; the cone over the void complex is a point."""
    if apex in delta.ambient:
        raise ValueError(f"apex {apex} already belongs to the ambient vertex set")
    amb = as_vertex_set(delta.ambient + (apex,))
    if not delta.facets:
        return SimplicialComplex(amb, ((apex,),))
    facets = tuple(sorted(as_vertex_set(f + (apex,)) for f in delta.facets))
    return SimplicialComplex(amb, facets)


def faces_of_dim(delta: SimplicialComplex, k: int) -> list[Face]:
    """All k-dimensional faces, deduplicated, in ascending lexicographic order.

    k = -1 returns the empty face unless the complex is void.
    """
    if k < 0:
        if k == -1 and delta.facets:
            return [()]
        return []
    faces: set[Face] = set()
    for f in delta.facets:
        if len(f) >= k + 1:
            faces.update(itertools.combinations(f, k + 1))
    return sorted(faces)


def reduced_homology_dims(delta: SimplicialComplex, field: FieldSpec = QQ) -> HomologyVector:
    """Dimensions of the nonzero reduced homology groups, as degree -> dim, from every boundary map.

    Zero dimensions are omitted, so the void complex yields ``{}`` and
    the irrelevant complex yields ``{-1: 1}``.  The faces of delta go to
    ``levels_homology`` as they are, with no splitting and no duality.
    """
    if not delta.facets:
        return {}
    return levels_homology(_levels(facet_masks(delta)), field)


def run_sequence(runs: Placement) -> RunSequence:
    """The run lengths of a placement, longest first."""
    return RunSequence(tuple(sorted((s for _, s in runs), reverse=True)))


def enumerate_placements(spec: PathFamilySpec) -> Iterator[Placement]:
    """All sets of disjoint runs on the cycle's standard labeling, as ((start facet, length), ...).

    Starts are ascending and pairwise cyclic facet gaps are at least t,
    which is exactly the condition for the union to be an induced
    subcollection.  Each placement is yielded once.  Their number grows
    exponentially in n; this enumerator is the reference that the
    binomial placement sum in :mod:`pathbetti.betti` is tested against.
    """
    if spec.kind != "cycle":
        raise ValueError("placements are enumerated on cycles only")
    n, t = spec.n, spec.t
    if t >= n:
        raise ValueError("placement enumeration requires t < n")

    def extend(runs: Placement) -> Iterator[Placement]:
        first_start = runs[0][0]
        last_start, last_len = runs[-1]
        for b in range(last_start + last_len + t, n + 1):
            # wrap-around gap back to the first run caps the length
            s_max = first_start + n - t - b
            for s in range(1, s_max + 1):
                longer = runs + ((b, s),)
                yield longer
                yield from extend(longer)

    for b1 in range(1, n + 1):
        for s1 in range(1, n - t + 1):
            first = ((b1, s1),)
            yield first
            yield from extend(first)
