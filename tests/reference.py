"""Exponential reference constructions that the tests check the package against.

None of this is on a route of the package.  The complexes are built
outright, facet by facet, never through the oracle's splitting or
Alexander duality, so a test that compares the oracle with them compares
two independent computations.  ``reduced_homology_dims`` ranks every
boundary map of a complex built this way; ``enumerate_placements`` lists
the run placements that the closed forms count.  The package counts
them as one product of two binomials per entry; ``line_placement_counts``
counts those on the line by the binomial sum over (r, b, P) that the
product collapses, and ``cycle_placement_counts`` counts those on the
cycle directly, with its own wrap-around gaps, where the package derives
them from the line.
"""

from __future__ import annotations

import itertools
from math import comb
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


def cycle_placement_counts(n: int, t: int) -> dict[tuple[int, int], int]:
    """Eligible run placements on the cycle of n vertices, counted by (i, j), by a binomial sum.

    Placements of r runs, b of them of residue 2, whose quotients sum to
    P cover S = (t+1)P + r + b facet slots and weigh (i, j) = (2P + r + b,
    S + r(t - 1)).  C(r, b) picks the residues in run order, C(P + r - 1,
    r - 1) spreads P over the runs, and r gaps of at least t slots, one
    after each run, share the free slots beyond S + rt.  Starting such a
    sequence of runs and gaps at each of the n slots yields every
    placement r times, once from each of its runs: hence the factor n/r.
    Polynomial in n, so it reaches past ``enumerate_placements``.
    """
    counts: dict[tuple[int, int], int] = {}
    for r in range(1, n // (t + 1) + 2):
        most = n - r - r * t  # the free slots when b = P = 0
        if most < 0:
            break
        for b in range(r + 1):
            for p_total in range(most // (t + 1) + 1):
                free = most - b - (t + 1) * p_total
                if free < 0:
                    break
                covered = (t + 1) * p_total + r + b
                term = comb(r, b) * comb(p_total + r - 1, r - 1) * comb(free + r - 1, r - 1)
                key = (2 * p_total + r + b, covered + r * (t - 1))
                counts[key] = counts.get(key, 0) + n * term // r
    return counts


def _spreads(parts: int, most: int) -> list[int]:
    """C(s + parts - 1, parts - 1) for s = 0..most: the ways to spread s over ``parts`` parts.

    Each comes from the one before by the exact ratio (s + parts - 1)/s.
    """
    out = [1]
    for s in range(1, most + 1):
        out.append(out[-1] * (s + parts - 1) // s)
    return out


def line_placement_counts(n: int, t: int) -> dict[tuple[int, int], int]:
    """Eligible run placements on the line of n vertices, counted by (i, j), by a binomial sum.

    Each eligible run has length (t+1)p + d with d in {1, 2}.  Placements
    of r runs, b of them with d = 2, whose quotients p sum to P, are
    counted by one binomial term: the runs cover (t+1)P + r + b of the
    n - t + 1 facet slots and weigh (i, j) = (2P + r + b, (t+1)P + rt +
    b).  C(r, b) picks the residues in run order, C(P + r - 1, r - 1)
    spreads P over the runs, and the r - 1 inner gaps of at least t slots
    and the two end gaps, which may be empty, share the n + 1 - j - r
    free slots.  Both spreading binomials are read from ``_spreads`` tables,
    one pair per r, not computed afresh in every term.
    """
    counts: dict[tuple[int, int], int] = {}
    for r in range(1, (n + 1) // (t + 1) + 1):
        most = n + 1 - r * (t + 1)  # the free slots when b = P = 0
        spreads = _spreads(r, most // (t + 1))
        gaps = _spreads(r + 1, most)
        for b in range(r + 1):
            residues = comb(r, b)
            for p_total, spread in enumerate(spreads):
                free = most - b - (t + 1) * p_total
                if free < 0:
                    break
                key = (2 * p_total + r + b, (t + 1) * p_total + r * t + b)
                counts[key] = counts.get(key, 0) + residues * spread * gaps[free]
    return counts
