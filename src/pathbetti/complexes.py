"""Facet-represented simplicial complexes.

A complex is stored as an ambient vertex set plus its inclusion-maximal
facets.  Three states are kept distinguishable because reduced homology
treats them differently: the *void* complex (no facets, so no faces at
all), the *irrelevant* complex ``{Ø}`` (the single facet ``()``), and
everything else.

Vertices are 1-based integers; faces are ascending tuples of vertices.
A complex is an immutable named tuple ``(ambient, facets)``.  The
package builds complexes here and computes on their facets as bitmasks
(``betti.facet_masks``).
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable

Vertex = int
Face = tuple[Vertex, ...]
VertexSet = tuple[Vertex, ...]


def as_vertex_set(vertices: Iterable[Vertex]) -> VertexSet:
    """Canonicalize an iterable of vertices: ascending, no duplicates."""
    return tuple(sorted(set(vertices)))


class SimplicialComplex(namedtuple("SimplicialComplex", "ambient facets")):
    """A simplicial complex given by ambient vertices (a VertexSet) and maximal facets (a tuple of Faces).

    Downstream code relies on the facets being a sorted antichain: distinct,
    pairwise inclusion-incomparable, each an ascending tuple inside the
    ambient, and lexicographically sorted.  :func:`make_complex` enforces
    that on any input; a builder that constructs an instance directly, as
    ``paths.build_path_complex`` and ``paths.build_run_complex`` do, must
    keep it itself.
    """

    __slots__ = ()


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
