"""Graded Betti numbers of path ideals, by two independent routes.

The brute-force route reaches the unions of facets, the only vertex
subsets whose induced subcollection has the whole subset as support
(the others complement to cones and contribute nothing), in one
depth-first search over the facets.  The search carries the connected
components of each union's facets, and a component no later facet meets
is finished: the homology of its independence complex Ind is looked up
once per scan by its vertex mask, and a component whose Ind is acyclic
drops its whole branch.  When the facets are invariant under rotating
the vertices, only the unions with an arc starting at vertex 0 are
searched, each weighted by n over its number of arcs, and the full
vertex set is added once.  When they are instead closed under moving
each facet one vertex up or down where it fits, as the line's are, only
the unions through vertex 0 are searched, each weighted by its n - hi(Y)
translates.  Ind's homology comes from link/deletion splitting on a
vertex, which recurses on smaller shapes through one bounded memo.  A
shape whose complement is small, or on which no vertex splits, has its
homology read off the boundary-matrix ranks of its own complement
instead, moved to Ind by Alexander duality.  The join
formula combines the components, and Alexander duality passes to the
complement.  ``_sub_homology`` is the one join over the components of
a facet set, for the splitting's sub-shapes and ``complement_homology``,
and every component, the search's too, is keyed in the memo by
``_relabelled``.  The face budget is checked in one place, where
``homology._levels`` counts a complement's faces.
The closed-form route counts eligible run placements on the line as one
product of two binomials per entry, in time polynomial in n.  The
cycle's entries below degree n are the line's count on n - 1 vertices
times n/(n - j), and its top-degree value is explicit.  Either route
checks the other.
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


def _union_search(
    masks: list[int], field: FieldSpec, frame: int, lead: int = 0,
) -> Iterator[tuple[int, HomologyVector]]:
    """Each nonempty union of the facets Y whose Ind is not acyclic, with that Ind's homology.

    A depth-first search includes or excludes the facets in their order.
    A facet already inside the union is forced in, and an include that
    would cover an excluded facet is cut, so each union is reached once,
    with exactly the facets inside it included.  The vertex masks of the
    components of the included facets are carried along.  Once no later
    facet meets a component, it is finished: it is looked up through
    ``_component_homology``, in a memo of the search's own, and joined
    into the branch's Ind.  A join that comes out acyclic stays so for
    every union below, so the branch is dropped there.  Once the first
    ``lead`` facets are decided, a branch whose union misses bit 0 is
    dropped too; only these facets may hold bit 0, and lead = 0 drops
    nothing.  The search keeps its own stack, which holds at most one
    entry per facet plus one, not Python recursion.  Ø must not be a
    facet.
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
            if i != lead or union & 1:
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
    degree (homology degree + 2) and internal degree |Y|.

    When the facets are invariant under the rotation of the n ambient
    vertices by one place, as the cycle's are, so is every term.  An arc
    of Y is a maximal cyclic interval of it; counting the pairs (Y, v)
    with an arc of Y starting at v over all Y but the full set gives
    Σ arcs(Y)·f(Y) = n·Σ f(Y) over the Y with an arc starting at vertex
    0, that is with 0 in Y and n - 1 not.  Only those unions are
    searched: the facets through n - 1 are dropped, those through 0 go
    first, and a branch that has decided them without reaching 0 is
    dropped.  Each (i, j, arcs) bucket is summed in ints and adds
    n·sum/arcs, an exact division, and the full set, which has no arc
    start, adds its own term once, from ``_sub_homology``.

    Otherwise, when the facets are shift-closed, as the line's are, the
    facets missing the top vertex moved up one place are exactly the
    facets missing vertex 0.  A union Y with lowest vertex m then induces
    the facets of Y - m moved up by m, so Y - m is a union too, with the
    same Ind up to relabelling and the same |Y|.  Each union through
    vertex 0 stands for its n - hi(Y) translates that fit, hi(Y) being
    its highest vertex, so only those are searched, with the facets
    through 0 first and a branch that has decided them without reaching
    0 dropped, and each adds its term times n - hi(Y), an exact integer
    weight.  A rotating complex is shift-closed too, but keeps the
    rotation route, which searches far fewer unions.

    A facet Ø makes delta the irrelevant complex, whose only entry is
    (1, 0).  A component whose homology needs a complex over the face
    budget is refused with OracleCapError when the search meets it.
    Inputs above the vertex cap are refused first, by
    ``check_vertex_cap``, as they are by the command line.  Memory
    follows the search's depth and the memo, not the number of unions.
    """
    frame = len(delta.ambient)
    check_vertex_cap(frame)
    masks = facet_masks(delta)
    table = BettiTable()
    if 0 in masks:
        table.accumulate(1, 0, 1, "oracle")
        return table
    full, top = (1 << frame) - 1, 1 << frame >> 1
    rotating = bool(masks) and sorted(masks) == sorted((fm << 1 | fm >> frame - 1) & full for fm in masks)
    shifted = sorted(fm << 1 for fm in masks if not fm & top)
    shifting = not rotating and shifted == sorted(fm for fm in masks if not fm & 1)
    scale, lead, searched = 1, 0, masks
    if rotating:
        scale = frame
        searched = [fm for fm in masks if fm & 1 and not fm & top]
        lead = len(searched)
        searched += [fm for fm in masks if not fm & (1 | top)]
        for d, dim in _sub_homology(masks, frame, field).items():
            table.accumulate(frame - d - 1, frame, dim, "oracle")
    elif shifting:
        searched = [fm for fm in masks if fm & 1]
        lead = len(searched)
        searched += [fm for fm in masks if not fm & 1]
    sums: dict[tuple[int, int, int], int] = {}
    for y, ind in _union_search(searched, field, frame, lead):
        size = y.bit_count()
        arcs = (y & ~(y << 1 | y >> frame - 1)).bit_count() if rotating else 1
        # the translates of Y that fit put its lowest vertex at 0..n - 1 - hi(Y)
        weight = frame + 1 - y.bit_length() if shifting else 1
        for d, dim in ind.items():
            # duality puts H_d(Ind) in the complement's degree |Y| - d - 3
            key = (size - d - 1, size, arcs)
            sums[key] = sums.get(key, 0) + dim * weight
    for (i, j, arcs), total in sums.items():
        value, rest = divmod(scale * total, arcs)
        if rest:
            raise RuntimeError(f"the rotation sum at ({i}, {j}) with {arcs} arcs is not divisible")
        table.accumulate(i, j, value, "oracle")
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


def _placement_counts(n: int, t: int) -> dict[tuple[int, int], int]:
    """Eligible run placements on the line of n vertices, counted by (i, j).

    Each eligible run has length (t+1)p + d with d in {1, 2}.  Put
    u = (j - i)/(t - 1), the runs plus their total quotient, and
    a = 2u - i, the runs of residue 1.  Then

        β_{i,j}(L_n) = C(n + 1 - j, a)·C(n - j - a + u, u - a).

    For fixed (i, j), placements of r runs, b = r - a of them of residue
    2, with quotients summing to P = u - r, leave n + 1 - j - r free
    slots to the r - 1 inner gaps of at least t slots and the two end
    gaps, so the count is Σ_r C(r, a)·C(u - 1, r - 1)·C(n + 1 - j, r).
    With m = n + 1 - j, C(r, a)·C(m, r) = C(m, a)·C(m - a, r - a), and
    Vandermonde then sums C(m - a, r - a)·C(u - 1, u - r) over r to
    C(m - a + u - 1, u - a).  Within the loop's bounds, u(t + 1) <= n + 1
    and a >= u(t + 1) - n, every entry is positive.
    """
    counts: dict[tuple[int, int], int] = {}
    for u in range(1, (n + 1) // (t + 1) + 1):
        for a in range(max(0, u * (t + 1) - n), u + 1):
            j = u * (t + 1) - a
            counts[(2 * u - a, j)] = comb(n + 1 - j, a) * comb(n - j - a + u, u - a)
    return counts


def nonzero_criterion(spec: PathFamilySpec, i: int, j: int) -> bool:
    """Whether the Betti number of the cycle in bidegree (i, j), i >= 1, is nonzero.

    Exact in both directions.  Below n, with u = (j - i)/(t - 1) and a =
    2u - i: ``betti_closed_cycle`` scales the line's entry on n - 1
    vertices by the positive n/(n - j), and ``_placement_counts`` gives
    that entry as C(n - j, a)·C(n - 1 - j - a + u, u - a) for u >= 1.
    The product is positive iff a >= 0, a <= min(u, n - j) and j < n.
    So the entry is nonzero iff t - 1 divides j - i, i <= 2u and max(1,
    2u - i) <= min(u, n - j).  In degree n only the top-degree entry
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

    Below degree n, Hochster's formula counts each union Y of j < n
    vertices once for each of the n - j vertices it misses, and the
    facets avoiding one vertex are the line's on the other n - 1, so
    β_{i,j}(C_n) = n·β_{i,j}(L_{n-1})/(n - j), an exact division (a
    remainder raises RuntimeError).  Degree n comes from the top-degree
    formula.
    """
    if spec.kind != "cycle":
        raise ValueError("expected a cycle spec")
    n = spec.n
    table = BettiTable()
    for (i, j), count in _placement_counts(n - 1, spec.t).items():
        value, rest = divmod(n * count, n - j)
        if rest:
            raise RuntimeError(f"the rotation count at ({i}, {j}) is not divisible by {n - j}")
        table.accumulate(i, j, value, "eligible_count")
    i_top, value = betti_top_degree(spec)
    table.accumulate(i_top, n, value, "closed_form")
    return table


def betti_closed_line(spec: PathFamilySpec) -> BettiTable:
    """Full Betti table of the line path ideal by counting placements.

    On the line no placement wraps, so the placement count covers every
    degree, the top one too: when t = n it is the single facet's (1, n).
    """
    if spec.kind != "line":
        raise ValueError("expected a line spec")
    table = BettiTable()
    for (i, j), count in _placement_counts(spec.n, spec.t).items():
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
