"""Graded Betti numbers of path ideals, by two independent routes.

The brute-force route reaches the unions of facets, the only vertex
subsets whose induced subcollection has the whole subset as support
(the others complement to cones and contribute nothing), in one
depth-first search over the facets.  The search carries the connected
components of each union's facets, and a component no later facet meets
is finished: the homology of its independence complex Ind is looked up
once per scan by its vertex mask, and a component whose Ind is acyclic
drops its whole branch.  Ind's homology comes from link/deletion
splitting on a vertex, which recurses on smaller shapes through one
bounded memo.  A shape whose complement is small, or on which no vertex
splits, has its homology read off the boundary-matrix ranks of its own
complement instead, moved to Ind by Alexander duality.  The join
formula combines the components, and Alexander duality passes to the
complement.  ``_sub_homology`` is the one join over the components of
a facet set, for the splitting's sub-shapes and ``complement_homology``,
and every component, the search's too, is keyed in the memo by
``_relabelled``.  The face budget is checked in one place, where
``homology._levels`` counts a complement's faces.
The closed-form route counts eligible run placements by one binomial
term per number of runs r, number b of them of residue 2 and total
quotient P, in time polynomial in n, and adds the explicit top-degree
value.  Either route checks the other.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from math import comb

from . import homology
from .complexes import SimplicialComplex
from .homology import FieldSpec, HomologyVector, OracleCapError, QQ, levels_homology
from .paths import PathFamilySpec, RunSequence, _integer

# Most ambient vertices the oracle and the explicit complements accept;
# homology._levels keeps the face budget.
MAX_VERTICES = 22


def check_vertex_cap(count: int) -> None:
    """Refuse a complex on more than MAX_VERTICES ambient vertices with OracleCapError.

    ``betti_hochster`` and ``complement_homology`` check it first, and
    the command line checks it before any work on each route that
    reaches the oracle or an explicit complement.
    """
    if count > MAX_VERTICES:
        raise OracleCapError(f"{count} ambient vertices exceeds the oracle's vertex cap of {MAX_VERTICES}")


def facet_masks(delta: SimplicialComplex) -> list[int]:
    """The facets as bitmasks: bit b stands for the b-th ambient vertex."""
    position = {v: b for b, v in enumerate(delta.ambient)}
    return [sum(1 << position[v] for v in f) for f in delta.facets]


class BettiTable:
    """Sparse table of graded Betti numbers with per-entry provenance.

    Only nonzero entries with homological degree i >= 1 are stored; the
    rank-one entry in degree (0, 0) is implicit.  Absence means zero.
    Equality compares values only, never provenance tags.
    """

    __slots__ = ("_entries", "_methods")

    def __init__(self) -> None:
        self._entries: dict[tuple[int, int], int] = {}
        self._methods: dict[tuple[int, int], str] = {}

    def accumulate(self, i: int, j: int, amount: int, method: str) -> None:
        if amount == 0:
            return
        key = (i, j)
        self._entries[key] = self._entries.get(key, 0) + amount
        self._methods.setdefault(key, method)

    def value(self, i: int, j: int) -> int:
        return self._entries.get((i, j), 0)

    def method(self, i: int, j: int) -> str | None:
        return self._methods.get((i, j))

    @property
    def entries(self) -> dict[tuple[int, int], int]:
        """Entries as (i, j) -> value, in the (j, i) order of ``items``."""
        return {(i, j): value for i, j, value, _ in self.items()}

    def items(self) -> list[tuple[int, int, int, str]]:
        """Entries as (i, j, value, method), sorted by (j, i)."""
        return [
            (i, j, self._entries[(i, j)], self._methods[(i, j)])
            for i, j in sorted(self._entries, key=lambda key: (key[1], key[0]))
        ]

    @property
    def pd(self) -> int:
        """Projective dimension: largest stored homological degree."""
        return max((i for i, _ in self._entries), default=0)

    @property
    def reg(self) -> int:
        """Regularity: largest j - i over stored entries."""
        return max((j - i for i, j in self._entries), default=0)

    def diff(self, other: "BettiTable") -> dict[tuple[int, int], tuple[int, int]]:
        """Entries where the two tables disagree, as (i, j) -> (self, other)."""
        out = {}
        for key in sorted(set(self._entries) | set(other._entries), key=lambda k: (k[1], k[0])):
            a = self._entries.get(key, 0)
            b = other._entries.get(key, 0)
            if a != b:
                out[key] = (a, b)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BettiTable):
            return NotImplemented
        return self._entries == other._entries

    def __repr__(self) -> str:
        body = ", ".join(f"({i},{j}): {v}" for i, j, v, _ in self.items())
        return f"BettiTable({{{body}}})"


class HomologySummary(namedtuple("HomologySummary", "nonzero_degree dimension")):
    """At most one nonzero reduced homology group: its degree (an int, or None) and dimension."""

    __slots__ = ()

    def __new__(cls, nonzero_degree: int | None, dimension: int) -> HomologySummary:
        if nonzero_degree is not None:
            nonzero_degree = _integer(nonzero_degree, "nonzero_degree")
        dimension = _integer(dimension, "dimension")
        if nonzero_degree is None:
            if dimension != 0:
                raise ValueError("a zero summary cannot carry a dimension")
        elif dimension < 1:
            raise ValueError("a nonzero summary needs dimension >= 1")
        return super().__new__(cls, nonzero_degree, dimension)

    # ``_replace`` builds through ``_make``, so it checks the fields too
    @classmethod
    def _make(cls, fields) -> HomologySummary:
        return cls(*fields)

    @classmethod
    def zero(cls) -> HomologySummary:
        return cls(None, 0)

    def as_vector(self) -> HomologyVector:
        if self.nonzero_degree is None:
            return {}
        return {self.nonzero_degree: self.dimension}


# Independence-complex homology memo, keyed by a connected component's
# facet masks as ``_relabelled`` moves them onto bits 0..m-1, and the
# characteristic.  Bounded: the oldest entry goes once it is full.
_IND_CACHE_LIMIT = 4096
_IND_HOMOLOGY_CACHE: dict[tuple, HomologyVector] = {}


def _components(masks: list[int]) -> list[int]:
    """Connected components of the facets, as vertex masks.

    Two facets are in one component when a chain of facets, each meeting
    the next, joins them.  The facets stay bitmasks throughout: converting
    each kept support to faces and back made the oracle about 20 % slower.
    """
    components: list[int] = []
    for fm in masks:
        verts, rest = fm, []
        for comp in components:
            if comp & verts:
                verts |= comp
            else:
                rest.append(comp)
        rest.append(verts)
        components = rest
    return components


def _relabelled(verts: int, members: list[int], frame: int) -> tuple[int, ...]:
    """The facets moved onto bits 0..m-1, sorted.

    Vertices keep the cyclic order of the frame of ``frame`` bits and
    start just after the widest gap between consecutive vertices (the
    wrap-around gap wins a tie), so a run wrapping past the last bit
    gets the key of the same run placed without wrapping.  Vertices that
    fill one arc of the frame, as a run's do, are moved by shifts alone.
    """
    low = (verts & -verts).bit_length() - 1
    block = verts >> low
    if not block & (block + 1):
        return tuple(sorted(fm >> low for fm in members))
    full = (1 << frame) - 1
    gap = full ^ verts
    arc = gap >> (gap & -gap).bit_length() - 1
    if not arc & (arc + 1):
        # the vertices wrap past the last bit; the first comes just after the gap
        start = gap.bit_length()
        return tuple(sorted((fm >> start | fm << frame - start) & full for fm in members))
    bits = [b for b in range(verts.bit_length()) if verts >> b & 1]
    start = max(range(len(bits)), key=lambda k: (bits[k] - bits[k - 1]) % frame)
    return _onto(bits[start:] + bits[:start], members)


def _onto(order: list[int], members: list[int]) -> tuple[int, ...]:
    """The facets moved onto bits 0..len(order)-1, vertex order[k] to bit k, sorted."""
    moved = {1 << b: 1 << k for k, b in enumerate(order)}
    out = []
    for fm in members:
        image = 0
        while fm:
            low = fm & -fm
            image |= moved[low]
            fm ^= low
        out.append(image)
    return tuple(sorted(out))


def _matrix_homology(shape: tuple[int, ...], field: FieldSpec) -> HomologyVector:
    """Reduced homology of Ind of the facet masks from boundary-matrix ranks.

    The route of ``_ind_homology`` for a shape whose complement is small
    or on which no vertex splits.  The complement, whose facets are the
    complements of the facets, is ranked, and its homology is moved to
    Ind by Alexander duality, H_k(Ind) = H_{m-k-3}(complement).
    ``homology._levels`` refuses a complement over the face budget with
    OracleCapError while it counts the faces, before any column is built.
    """
    m = max(shape).bit_length()
    full = (1 << m) - 1
    comp = levels_homology(homology._levels([full ^ fm for fm in shape]), field)
    return {m - d - 3: dim for d, dim in comp.items()}


def _drop(mask: int, v: int) -> int:
    """The mask without bit v, the bits above v moved down one."""
    low = (1 << v) - 1
    return (mask & low) | ((mask >> 1) & ~low)


def _sub_homology(masks: list[int], m: int, field: FieldSpec) -> HomologyVector:
    """Reduced homology of Ind of the facet masks on the vertices 0..m-1.

    A vertex in no facet is a cone point of Ind, giving {}; no vertex at
    all gives {-1: 1}.  Otherwise Ind is the join of the independence
    complexes of the connected components, each keyed by ``_relabelled``
    in the frame of the m vertices, as the oracle's components are; the
    join stops at the first acyclic one.  Ø must not be a facet.
    """
    covered = 0
    for fm in masks:
        covered |= fm
    if covered != (1 << m) - 1:
        return {}
    out: HomologyVector = {-1: 1}
    for verts in _components(masks):
        members = [fm for fm in masks if fm & ~verts == 0]
        out = _join(out, _ind_homology(_relabelled(verts, members, m), field))
        if not out:
            break
    return out


def _split_homology(shape: tuple[int, ...], field: FieldSpec) -> HomologyVector | None:
    """Reduced homology of Ind of one connected shape by splitting on a vertex, or None.

    For a vertex v, the deletion del = Ind(H - v) is Ind of the facets
    avoiding v, and the link lk of v in Ind is Ind of the minimal sets
    among F minus v over the facets F through v and the facets avoiding
    v, both on the other vertices.  Ind = del ∪ (v * lk) with del ∩
    (v * lk) = lk and v * lk a cone, so Mayer-Vietoris gives H_k(Ind) =
    H_k(del) ⊕ H_{k-1}(lk) whenever no degree k has both H_k(lk) and
    H_k(del) nonzero: the maps H_k(lk) -> H_k(del) are then zero
    (Engström, "Independence complexes of claw-free graphs"; Adamaszek,
    "Splittings of independence complexes and the powers of cycles").
    The vertices are tried by the number of facets through them, fewest
    first, and None means that none splits.  A singleton facet is a
    component of its own, whose Ind {Ø} has homology {-1: 1} and drops
    out of the join, so neither complex has an empty facet.

    None also when the complement has at most m faces per facet, counting
    2^(m - |F|) faces under the complement of each facet F.  Long facets
    make Ind nearly a full simplex boundary, whose splitting multiplies
    sub-shapes (the 16-cycle with t = 14 made 1695 of them, and the
    22-cycle with t = 20 ran for minutes), while the complement's ranks
    in ``_matrix_homology`` cost next to nothing.
    """
    m = max(shape).bit_length()
    if sum(1 << (m - fm.bit_count()) for fm in shape) <= m * len(shape):
        return None
    degree = [0] * m
    for fm in shape:
        while fm:
            low = fm & -fm
            degree[low.bit_length() - 1] += 1
            fm ^= low
    for v in sorted(range(m), key=degree.__getitem__):
        bit = 1 << v
        deleted = [_drop(fm, v) for fm in shape if not fm & bit]
        cut = [_drop(fm ^ bit, v) for fm in shape if fm & bit]
        linked = cut + [fm for fm in deleted if all(c & ~fm for c in cut)]
        del_h = _sub_homology(deleted, m - 1, field)
        lk_h = _sub_homology(linked, m - 1, field)
        if not del_h.keys() & lk_h.keys():
            out = dict(del_h)
            for k, dim in lk_h.items():
                out[k + 1] = out.get(k + 1, 0) + dim
            return out
    return None


def _ind_homology(shape: tuple[int, ...], field: FieldSpec) -> HomologyVector:
    """Reduced homology of Ind of one connected component's facet masks, memoised.

    The facets cover the bits 0..m-1.  ``_split_homology`` recurses on
    the deletion and the link of a vertex, whose components come back
    here, so every sub-shape shares the memo.  The boundary-matrix route
    ``_matrix_homology``, with its face budget, is taken for a shape
    whose complement is small or on which no vertex splits.
    """
    key = (shape, field.characteristic)
    cached = _IND_HOMOLOGY_CACHE.get(key)
    if cached is None:
        cached = _split_homology(shape, field)
        if cached is None:
            cached = _matrix_homology(shape, field)
        if len(_IND_HOMOLOGY_CACHE) >= _IND_CACHE_LIMIT:
            del _IND_HOMOLOGY_CACHE[next(iter(_IND_HOMOLOGY_CACHE))]
        _IND_HOMOLOGY_CACHE[key] = cached
    return cached


def _join(a: HomologyVector, b: HomologyVector) -> HomologyVector:
    """Reduced homology of a join over a field: H_k(A * B) = sum over a + b = k - 1."""
    out: HomologyVector = {}
    for da, xa in a.items():
        for db, xb in b.items():
            out[da + db + 1] = out.get(da + db + 1, 0) + xa * xb
    return out


def _component_homology(
    verts: int, masks: list[int], field: FieldSpec, frame: int, memo: dict[int, HomologyVector],
) -> HomologyVector:
    """Ind homology of one connected component, looked up in the scan's memo first.

    Within one complex a component of an induced subcollection is fixed
    by its vertex mask, its members being exactly the facets inside it,
    so the memo is keyed by that mask, and only a miss picks the members
    out of ``masks`` and runs ``_relabelled``; the memo lives as long as
    the scan.
    """
    ind = memo.get(verts)
    if ind is None:
        members = [fm for fm in masks if fm & ~verts == 0]
        ind = memo[verts] = _ind_homology(_relabelled(verts, members, frame), field)
    return ind


def complement_homology(gamma: SimplicialComplex, field: FieldSpec = QQ) -> HomologyVector:
    """Reduced homology of the complement of gamma within its ambient vertices.

    The complement is the complex whose facets are the complements of
    gamma's facets; it is never built.  Alexander duality gives
    H_k(complement) = H_{m-k-3}(Ind) on m vertices, with Ind from
    ``_sub_homology``.  A void gamma has a void complement and yields
    {}; when gamma's support is not the whole ambient, the complement and
    Ind are both cones, and ``_sub_homology``'s cover check yields {}.
    Duality does not cover a facet Ø, which is gamma's only one when the
    ambient is empty, and the complement is then the irrelevant complex
    {Ø}.  Inputs above the vertex cap are refused first, by
    ``check_vertex_cap``.
    """
    m = len(gamma.ambient)
    check_vertex_cap(m)
    masks = facet_masks(gamma)
    if not masks:
        return {}
    if not m:
        return {-1: 1}
    return {m - d - 3: dim for d, dim in _sub_homology(masks, m, field).items()}


def _union_search(masks: list[int], field: FieldSpec, frame: int) -> Iterator[tuple[int, HomologyVector]]:
    """Each nonempty union of the facets Y whose Ind is not acyclic, with that Ind's homology.

    A depth-first search includes or excludes the facets in their order.
    A facet already inside the union is forced in, and an include that
    would cover an excluded facet is cut, so each union is reached once,
    with exactly the facets inside it included.  The vertex masks of the
    components of the included facets are carried along.  Once no later
    facet meets a component, it is finished: it is looked up through
    ``_component_homology``, in a memo of the search's own, and joined
    into the branch's Ind.  A join that comes out acyclic stays so for
    every union below, so the branch is dropped there.  The search keeps
    its own stack, which holds at most one entry per facet plus one, not
    Python recursion.  Ø must not be a facet.
    """
    count = len(masks)
    after = [0] * count  # after[i]: the vertices of the facets past the i-th
    for i in range(count - 1, 0, -1):
        after[i - 1] = after[i] | masks[i]
    steps = [(fm, after[i], [e for e in masks[:i] if e & fm]) for i, fm in enumerate(masks)]
    stack: list[tuple[int, int, tuple[int, ...], HomologyVector]] = [(0, 0, (), {-1: 1})]
    push, pop = stack.append, stack.pop
    memo: dict[int, HomologyVector] = {}
    while stack:
        i, union, comps, ind = pop()
        if i == count:
            if union:
                yield union, ind
            continue
        fm, later, earlier = steps[i]
        i += 1
        merged = fm
        if comps:
            untouched, still_open, finished = [], [], []
            for verts in comps:
                if not verts & fm:
                    untouched.append(verts)
                elif verts & later:
                    merged |= verts
                    still_open.append(verts)
                else:
                    merged |= verts
                    finished.append(verts)
        else:
            untouched = still_open = finished = ()
        grown = union | fm
        if grown != union:
            # exclude the facet: a component it was the last to meet is finished
            out = ind
            for verts in finished:
                out = _join(out, _component_homology(verts, masks, field, frame, memo))
                if not out:
                    break
            if out:
                push((i, union, (*untouched, *still_open), out))
            # an include covering an excluded facet would reach a union twice
            cut = False
            for e in earlier:
                if e & ~union and not e & ~grown:
                    cut = True
                    break
            if cut:
                continue
        # include the facet, merging the components it meets
        if merged & later:
            push((i, grown, (*untouched, merged), ind))
        else:
            ind = _join(ind, _component_homology(merged, masks, field, frame, memo))
            if ind:
                push((i, grown, tuple(untouched), ind))


def betti_hochster(delta: SimplicialComplex, field: FieldSpec = QQ) -> BettiTable:
    """Graded Betti numbers by enumeration over induced subcollections.

    Only a vertex subset Y that is a union of facets has an induced
    subcollection with support exactly Y; every other subset complements
    to a cone and contributes nothing.  ``_union_search`` reaches each
    union once, in a depth-first search that carries the components of
    its facets and drops a branch once a finished component has an
    acyclic Ind, since every union below then contributes nothing too.
    Alexander duality turns each Ind left into the reduced homology of
    the complement within Y, which goes into the table at homological
    degree (homology degree + 2) and internal degree |Y|.  A facet Ø
    makes delta the irrelevant complex, whose only entry is (1, 0).  A
    component whose homology needs a complex over the face budget is
    refused with OracleCapError when the search meets it.  Inputs above
    the vertex cap are refused first, by ``check_vertex_cap``, as they
    are by the command line.  Memory follows the search's depth and the
    memo, not the number of unions.
    """
    frame = len(delta.ambient)
    check_vertex_cap(frame)
    masks = facet_masks(delta)
    table = BettiTable()
    if 0 in masks:
        table.accumulate(1, 0, 1, "oracle")
        return table
    for y, ind in _union_search(masks, field, frame):
        weight = y.bit_count()
        for d, dim in ind.items():
            # duality puts H_d(Ind) in the complement's degree |Y| - d - 3
            table.accumulate(weight - d - 1, weight, dim, "oracle")
    return table


def homology_run_sequence(t: int, seq: RunSequence) -> HomologySummary:
    """Closed-form homology of the complement of a disjoint union of runs.

    Writing each length as (t+1)p + d, any residue d outside {1, 2}
    kills all homology; otherwise the unique nonzero group has dimension
    one and sits in degree 2(P+Q) + 2*beta + alpha - 2, where alpha and
    beta count the runs with d = 1 and d = 2 and P and Q total their
    quotients p.  That is the sum of 2p + d over the runs, minus 2.
    """
    if t < 2:
        raise ValueError(f"need t >= 2, got {t}")
    degree = -2
    for s in seq.lengths:
        p, d = divmod(s, t + 1)
        if d not in (1, 2):
            return HomologySummary.zero()
        degree += 2 * p + d
    return HomologySummary(degree, 1)


def homology_cycle_complement(spec: PathFamilySpec) -> HomologySummary:
    """Closed-form homology of the complement of the full cycle path complex.

    With n = (t+1)p + d: dimension t in degree 2p - 2 when d = 0, else
    dimension 1 in degree 2p - 1 (degree -1 for the single-simplex case
    n = t, whose complement is the irrelevant complex).
    """
    if spec.kind != "cycle":
        raise ValueError("full-complement homology is defined for cycles")
    p, d = spec.p, spec.d
    if d == 0:
        return HomologySummary(2 * p - 2, spec.t)
    return HomologySummary(2 * p - 1, 1)


def betti_top_degree(spec: PathFamilySpec) -> tuple[int, int]:
    """The unique nonzero Betti number in internal degree n: (i, value).

    This is the full-complement homology shifted up two degrees:
    (2p, t) when d = 0 and (2p + 1, 1) otherwise.
    """
    if spec.kind != "cycle":
        raise ValueError("the top-degree formula is defined for cycles")
    top = homology_cycle_complement(spec)
    return top.nonzero_degree + 2, top.dimension


def _spreads(parts: int, most: int) -> list[int]:
    """C(s + parts - 1, parts - 1) for s = 0..most: the ways to spread s over ``parts`` parts.

    Each comes from the one before by the exact ratio (s + parts - 1)/s.
    """
    out = [1]
    for s in range(1, most + 1):
        out.append(out[-1] * (s + parts - 1) // s)
    return out


def _placement_counts(kind: str, n: int, t: int) -> dict[tuple[int, int], int]:
    """Eligible run placements on the cycle or line of n vertices, counted by (i, j).

    Each eligible run has length (t+1)p + d with d in {1, 2}.  Placements
    of r runs, b of them with d = 2, whose quotients p sum to P, are
    counted by one binomial term: the runs cover S = (t+1)P + r + b facet
    slots and weigh (i, j) = (2P + r + b, S + r(t - 1)).  C(r, b) picks
    the residues in run order and C(P + r - 1, r - 1) spreads P over the
    runs.  On the cycle, r gaps of at least t slots, one after each run,
    share the free slots beyond S + rt.  Starting such a sequence of runs
    and gaps at each of the n slots yields every placement r times, once
    from each of its runs: hence the factor n/r, whose division is exact.
    On the line, n - t + 1 slots hold r - 1 inner gaps of at least t
    slots and two end gaps that may be empty, so r + 1 gaps share the
    free slots.  Both spreading binomials are read from ``_spreads``
    tables, one pair per r, not computed afresh in every term.
    """
    cycle = kind == "cycle"
    slots = n if cycle else n - t + 1
    counts: dict[tuple[int, int], int] = {}
    for r in range(1, n // (t + 1) + 2):
        most = slots - r - (r if cycle else r - 1) * t  # the free slots when b = P = 0
        if most < 0:
            break
        spreads = _spreads(r, most // (t + 1))
        gaps = _spreads(r if cycle else r + 1, most)
        for b in range(r + 1):
            residues = comb(r, b)
            for p_total, spread in enumerate(spreads):
                free = most - b - (t + 1) * p_total
                if free < 0:
                    break
                covered = (t + 1) * p_total + r + b
                term = residues * spread * gaps[free]
                if cycle:
                    term = n * term // r
                key = (2 * p_total + r + b, covered + r * (t - 1))
                counts[key] = counts.get(key, 0) + term
    return counts


def nonzero_criterion(spec: PathFamilySpec, i: int, j: int) -> bool:
    """Whether the Betti number of the cycle in bidegree (i, j), i >= 1, is nonzero.

    Exact in both directions.  Below n, with u = (j - i)/(t - 1): it is
    nonzero iff t - 1 divides j - i, i <= 2u and max(1, 2u - i) <= min(u,
    n - j).  These are the indices of the binomial sum in
    ``_placement_counts`` solved for (i, j): r runs, b of them of residue
    2, with quotients summing to P, give u = P + r and 2u - i = r - b and
    leave n - j - r free slots, and a term is positive iff r >= 1,
    0 <= b <= r, P >= 0 and n - j - r >= 0.  The bounds ask for such an
    r.  In degree n only the top-degree entry
    (``betti_top_degree``) is nonzero, and above n none is.
    """
    if spec.kind != "cycle":
        raise ValueError("the vanishing criterion is defined for cycles")
    if j >= spec.n:
        return j == spec.n and i == betti_top_degree(spec)[0]
    u, rest = divmod(j - i, spec.t - 1)
    return rest == 0 and i <= 2 * u and max(1, 2 * u - i) <= min(u, spec.n - j)


def betti_closed_cycle(spec: PathFamilySpec) -> BettiTable:
    """Full Betti table of the cycle path ideal by counting placements.

    Degrees below n come from eligible-placement counts; degree n comes
    from the top-degree formula.
    """
    if spec.kind != "cycle":
        raise ValueError("expected a cycle spec")
    table = BettiTable()
    for (i, j), count in _placement_counts("cycle", spec.n, spec.t).items():
        table.accumulate(i, j, count, "eligible_count")
    i_top, value = betti_top_degree(spec)
    table.accumulate(i_top, spec.n, value, "closed_form")
    return table


def betti_closed_line(spec: PathFamilySpec) -> BettiTable:
    """Full Betti table of the line path ideal by counting placements.

    On the line no placement wraps, so the placement count covers every
    degree including the top one.
    """
    if spec.kind != "line":
        raise ValueError("expected a line spec")
    table = BettiTable()
    if spec.t == spec.n:
        table.accumulate(1, spec.n, 1, "closed_form")
        return table
    for (i, j), count in _placement_counts("line", spec.n, spec.t).items():
        table.accumulate(i, j, count, "eligible_count")
    return table


def pd_reg(spec: PathFamilySpec) -> tuple[int, int]:
    """Projective dimension and regularity of the cycle path ideal quotient.

    The top-degree entry (i, n) of ``betti_top_degree`` attains both: pd
    = i and reg = n - i, that is (2p, (t-1)p) when d = 0 and (2p + 1,
    (t-1)p + d - 1) otherwise.
    """
    if spec.kind != "cycle":
        raise ValueError("the pd/reg formulas are stated for cycles")
    i_top, _ = betti_top_degree(spec)
    return i_top, spec.n - i_top
