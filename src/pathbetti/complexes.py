"""Facet-represented simplicial complexes.

A complex is stored as an ambient vertex set plus its inclusion-maximal
facets.  Three states are kept distinguishable because reduced homology
treats them differently: the *void* complex (no faces at all), the
*irrelevant* complex ``{Ø}`` (a single empty facet), and everything else.

Vertices are 1-based integers; faces are ascending tuples of vertices.
All values are immutable after construction and every operation is a
pure function.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

Vertex = int
Face = tuple[Vertex, ...]
VertexSet = tuple[Vertex, ...]


def as_vertex_set(vertices: Iterable[Vertex]) -> VertexSet:
    """Canonicalize an iterable of vertices: ascending, no duplicates."""
    return tuple(sorted(set(vertices)))


@dataclass(frozen=True)
class SimplicialComplex:
    """A simplicial complex given by ambient vertices and maximal facets.

    Instances should be built through :func:`make_complex`, which removes
    duplicate and non-maximal facets; downstream code relies on the facet
    list being inclusion-incomparable and lexicographically sorted.
    """

    ambient: VertexSet
    facets: tuple[Face, ...]

    @property
    def is_void(self) -> bool:
        return not self.facets

    @property
    def is_irrelevant(self) -> bool:
        return self.facets == ((),)

    @property
    def dim(self) -> int | None:
        """Dimension of the complex; None for the void complex."""
        if self.is_void:
            return None
        return max(len(f) for f in self.facets) - 1


def make_complex(ambient: Iterable[Vertex], facets: Iterable[Iterable[Vertex]]) -> SimplicialComplex:
    """Build a complex, dropping duplicate and non-maximal facets.

    An empty facet list yields the void complex; a lone empty facet
    yields the irrelevant complex ``{Ø}``.  Raises ValueError if a facet
    is not contained in the ambient vertex set.
    """
    amb = as_vertex_set(ambient)
    amb_set = frozenset(amb)
    canonical: dict[Face, frozenset[Vertex]] = {}
    for f in facets:
        vertices = frozenset(f)
        face = tuple(sorted(vertices))
        if not vertices <= amb_set:
            raise ValueError(f"facet {face} is not contained in the ambient vertex set {amb}")
        canonical[face] = vertices
    sets = list(canonical.values())
    maximal = [face for face, vertices in canonical.items() if not any(vertices < other for other in sets)]
    return SimplicialComplex(amb, tuple(sorted(maximal)))


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
    if delta.is_void:
        return SimplicialComplex(amb, ((apex,),))
    facets = tuple(sorted(as_vertex_set(f + (apex,)) for f in delta.facets))
    return SimplicialComplex(amb, facets)


def faces_of_dim(delta: SimplicialComplex, k: int) -> list[Face]:
    """All k-dimensional faces, deduplicated, in ascending lexicographic order.

    k = -1 returns the empty face unless the complex is void.
    """
    if k < 0:
        if k == -1 and not delta.is_void:
            return [()]
        return []
    faces: set[Face] = set()
    for f in delta.facets:
        if len(f) >= k + 1:
            faces.update(itertools.combinations(f, k + 1))
    return sorted(faces)
