"""Exponential reference constructions that the tests check the package against.

None of this is on a route of the package.  The complexes are built
outright, facet by facet, never through the oracle's splitting or
Alexander duality, so a test that compares the oracle with them compares
two independent computations.  ``reduced_homology_dims`` ranks every
boundary map of a complex built this way; ``enumerate_placements`` lists
the run placements that the closed forms count.  The package counts
them as one product of two binomials per entry, each walked from the
last by an exact ratio; ``line_product_counts`` takes every product
afresh, ``line_placement_counts`` counts those on the line by the
binomial sum over (r, b, P) that the product collapses, and
``cycle_placement_counts`` counts those on the cycle directly, with its
own wrap-around gaps, where the package derives them from the line, and
``cycle_product_counts`` takes each of the cycle's entries as one product
of the cyclic binomial and a plain one.  Two more routes share nothing
with the package's: ``cycle_independence_at_minus_one`` pins the cycle's
top-degree entry through the K-polynomial, and ``lcm_lattice_betti``
reads a whole table off the lattice of unions of the facets.
"""

from __future__ import annotations

import itertools
from math import comb
from typing import Iterable, Iterator

from pathbetti import QQ, FieldSpec, HomologyVector, PathFamilySpec, RunSequence, SimplicialComplex, make_complex
from pathbetti.betti import facet_masks
from pathbetti.complexes import Face, Vertex
from pathbetti.homology import _homology, _levels

GF2 = FieldSpec(2)
GF32003 = FieldSpec(32003)

# The six-vertex triangulation of the real projective plane: H_1 = Z/2,
# H_2 = 0, so over GF(2) both H~_1 and H~_2 are one-dimensional and over
# a field of any other characteristic all reduced homology vanishes.
RP2 = make_complex(range(1, 7), [
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
    (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
])

Placement = tuple[tuple[int, int], ...]


def as_vertex_set(vertices: Iterable[Vertex]) -> tuple[Vertex, ...]:
    """Canonicalize an iterable of vertices: ascending, no duplicates."""
    return tuple(sorted(set(vertices)))


def levels_homology(levels: list[list[int]], field: FieldSpec = QQ) -> HomologyVector:
    """Reduced homology of a nonvoid complex given by its faces, as degree -> dim.

    ``levels[s]`` holds the faces of s vertices as bitmasks, sorted, and
    ``levels[0]`` is ``[0]``, the empty face, so ``[[0]]`` is the
    irrelevant complex, with homology ``{-1: 1}``; ``_levels`` builds
    them from facet masks.  The package's own reduction ranks them as
    they are, with no splitting and no duality.
    """
    return _homology(levels, field.characteristic)


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


def run_sequences(t: int, budget: int) -> Iterator[tuple[int, ...]]:
    """Descending run lengths whose runs, s + t - 1 vertices for s facets, cover at most ``budget`` vertices."""

    def rec(prefix: tuple[int, ...], cap: int, remaining: int) -> Iterator[tuple[int, ...]]:
        for s in range(min(cap, remaining - t + 1), 0, -1):
            yield prefix + (s,)
            yield from rec(prefix + (s,), s, remaining - (s + t - 1))

    yield from rec((), budget, budget)


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


def line_product_counts(n: int, t: int) -> dict[tuple[int, int], int]:
    """Eligible run placements on the line of n vertices, each (i, j) as its own product of two binomials.

    With u = (j - i)/(t - 1) and a = 2u - i, the entry is C(n + 1 - j,
    a)·C(n - j - a + u, u - a), two ``comb`` calls each, none derived
    from another entry.
    """
    counts: dict[tuple[int, int], int] = {}
    for u in range(1, (n + 1) // (t + 1) + 1):
        for a in range(max(0, u * (t + 1) - n), u + 1):
            j = u * (t + 1) - a
            counts[(2 * u - a, j)] = comb(n + 1 - j, a) * comb(n - j - a + u, u - a)
    return counts


def cycle_product_counts(n: int, t: int) -> dict[tuple[int, int], int]:
    """The cycle's entries below degree n, each (i, j) as its own product, with neither the line nor a sum.

    With u = (j - i)/(t - 1) and a = 2u - i, the entry is n/(n - ut)·C(n -
    ut, u)·C(u, a).  The first two factors count the ways to place u
    disjoint arcs of t + 1 vertices on the n-cycle, an integer, so the
    division is exact; the remainder is asserted to be 0.
    """
    counts: dict[tuple[int, int], int] = {}
    for u in range(1, n // (t + 1) + 1):
        rest = n - u * t
        arcs, remainder = divmod(n * comb(rest, u), rest)
        assert not remainder, (n, t, u)
        for a in range(u + 1):
            j = u * (t + 1) - a
            if j < n:
                counts[(2 * u - a, j)] = arcs * comb(u, a)
    return counts


def cycle_independence_at_minus_one(n: int, t: int) -> int:
    """The sum of (-1)^|σ| over the vertex sets σ of the n-cycle with no t cyclically consecutive vertices.

    These σ are the faces of the Stanley-Reisner complex of the cycle's
    path ideal, so the coefficient of x_1...x_n in its K-polynomial, the
    alternating sum of the Betti numbers in degree n, is (-1)^n times
    this sum.  It is taken by a transfer matrix over the length of the
    current run of chosen vertices, O(t²n): the leading run 0..a - 1, a <
    t, is fixed and vertex a left out; the vertices a + 1..n - 1 are
    walked, each run kept below t; and the trailing run b must keep the
    run a + b that wraps round below t.  Every σ but the full vertex set
    leaves some vertex out, and the full set holds t consecutive vertices
    since t <= n.
    """
    if not 2 <= t <= n:
        raise ValueError(f"need 2 <= t <= n, got n = {n}, t = {t}")
    total = 0
    for a in range(t):
        runs = [1] + [0] * (t - 1)  # runs[r]: the signed sets whose current run has r vertices
        for _ in range(n - 1 - a):
            runs = [sum(runs)] + [-x for x in runs[:-1]]
        total += (-1) ** a * sum(runs[:t - a])
    return total


def lcm_lattice_betti(masks: list[int], field: FieldSpec = QQ) -> dict[tuple[int, int], int]:
    """The Betti numbers β_{i,j}, i >= 1, of the ideal of the facet masks, from its lcm lattice.

    The lattice is that of the unions of facets.  By Gasharov, Peeva and
    Welker ("The lcm-lattice in monomial resolutions", 1999) β_{i,Y} is
    the dimension of H~_{i-2} of the open interval (0̂, Y), and by the
    crosscut theorem that interval has the homology of its crosscut
    complex: the sets of the facets inside Y whose union is not Y, Ø
    included.  Each crosscut complex is listed outright, its faces being
    sets of facet indices, and ranked by ``levels_homology``: no
    Hochster, Ind, Alexander duality or splitting.  The masks must be a
    nonempty antichain without Ø.  Exponential in the number of facets.
    """
    count = len(masks)
    unions = [0] * (1 << count)  # unions[s]: the union of the facets in the index set s
    for s in range(1, 1 << count):
        low = s & -s
        unions[s] = unions[s ^ low] | masks[low.bit_length() - 1]
    out: dict[tuple[int, int], int] = {}
    for y in set(unions[1:]):
        below = sum(1 << i for i, fm in enumerate(masks) if fm & ~y == 0)
        levels: list[list[int]] = [[] for _ in range(below.bit_count())]
        s = below
        while True:
            s = (s - 1) & below
            if unions[s] != y:
                levels[s.bit_count()].append(s)
            if not s:
                break
        while not levels[-1]:
            levels.pop()
        for degree, dim in levels_homology([sorted(level) for level in levels], field).items():
            key = (degree + 2, y.bit_count())
            out[key] = out.get(key, 0) + dim
    return out
