"""Graded Betti numbers of path ideals, by two independent routes.

Both routes share one identity.  For facets invariant under rotating
the n vertices, as the cycle's are, each entry β_{i,j} below degree n
is n/(n - j) times that entry for the facets that miss vertex n - 1,
on the other n - 1 vertices; ``_cycle_counts`` makes that exact
division for both routes.  For the cycle those facets are the line's
on n - 1 vertices.

The brute-force route reaches the unions of facets, the only vertex
subsets whose induced subcollection has the whole subset as support
(the others complement to cones and contribute nothing), in one
depth-first search over the facets.  The search carries the connected
components of each union's facets, and a component no later facet meets
is finished: the homology of its independence complex Ind is looked up
by its vertex mask in the scan's own ``functools.cache``, so that each
component is relabelled at most once per scan, and a component whose
Ind is acyclic drops its whole branch.  When the facets are closed
under moving each facet one vertex up or down where it fits, as the
line's are, only the unions through vertex 0 are searched, each
weighted by its n - hi(Y) translates.  Such facets are all the
translates that fit of their facets through 0, their pattern, and a
union through 0 on fewer vertices is one the larger search reaches
with a smaller hi(Y).  So the search's terms are kept per pattern and
per hi(Y) (``_pattern_terms``), and the largest frame searched answers
every frame up to it.  Ind's homology comes from
link/deletion splitting on a vertex, first on one whose deletion is a
cone, as every line shape has, so that only its link is evaluated.
The splitting recurses on smaller shapes through one memo, a
``functools.lru_cache`` of 4096 shapes that drops the least recently
used.  A shape whose complement is small, or on
which no vertex splits, has its homology read off the boundary-matrix
ranks of its own complement instead, moved to Ind by Alexander
duality.  The join formula combines the components, and Alexander
duality passes to the complement.  ``_sub_homology`` is the one join
over the components of a facet set, for the splitting's sub-shapes,
``_complement_vector`` and the full vertex set of a rotation-invariant
facet set, whose term the oracle reads from Ind at the key every union
uses, and every component, the search's too, is keyed in the memo by
its facets shifted down to bit 0 with the gaps between its vertices
closed (``_relabelled``).  The face budget is checked in one place,
where ``homology._levels`` counts a complement's faces.

Both routes to homology take facets as bitmasks, bit b standing for the
b-th vertex.  The commands call the mask-level ``_oracle_table`` and
``_complement_vector`` with the masks of ``paths._path_masks`` and
``paths._run_masks``; ``betti_hochster`` and ``complement_homology``
convert a ``SimplicialComplex`` once, at entry, by ``facet_masks``.

Both memos follow one rule, ``_every_field``: an entry is asked for
under the field None first, and under the field itself only when that
entry is None.  A field reaches Ind's homology only at the
boundary-matrix leaves, so Ind's None entry (``_ind``) is the splitting
with leaves reduced over the integers, which holds over every field
when every pivot is 1 or -1, and is None otherwise.  A field reaches
the oracle's sums only through the Ind of the shapes they meet, so
their None entry (``_oracle_sums``, 64 facet sets) holds over every
field when every shape met has a None entry of its own, and is None
otherwise, as for the RP2 ideal's full union.  One entry thus serves
every field and every repeat, and the cycle's asks for the line's.  A
pattern's terms are kept under the field its sums were asked for, and
a search refused under None leaves them as they were.

The closed-form route counts eligible run placements on the line as one
product of two binomials per entry, walked from entry to entry by one
exact ratio, in time polynomial in n, and its top-degree value for the
cycle is explicit.  One generator, ``_closed_entries``, yields the
entries already in (j, i) order and holds only one running value per
run count, so a caller can write each entry as it comes; a table whose
JSON could pass ``MAX_CLOSED_BYTES`` is refused with OracleCapError
before any counting.  Either route checks the other.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Iterable, Iterator, Mapping
from math import comb
from operator import itemgetter

from . import homology
from .complexes import SimplicialComplex
from .homology import FieldSpec, HomologyVector, OracleCapError, QQ, _checked, _integer
from .paths import PathFamilySpec, RunSequence

# Most ambient vertices the oracle and the explicit complements accept;
# homology._levels keeps the face budget.
MAX_VERTICES = 22

# Most bytes the closed route's JSON entries, or its diagram in the command
# line (``cli._diagram_bytes``), may take, bounded before any counting
# (``_closed_entries``), and the most one JSON entry takes beside its
# three numbers: "eligible_count" in the command line's template, and the
# separator before it.
MAX_CLOSED_BYTES = 2**31
_ENTRY_BYTES = 100


def check_vertex_cap(count: int) -> None:
    """Refuse a complex on more than MAX_VERTICES ambient vertices with OracleCapError.

    ``_oracle_table`` and ``_complement_vector`` check it first, and
    the command line checks it before any work on each route that
    reaches the oracle or an explicit complement.
    """
    if count > MAX_VERTICES:
        raise OracleCapError(f"{count} ambient vertices exceeds the oracle's vertex cap of {MAX_VERTICES}")


def facet_masks(delta: SimplicialComplex) -> list[int]:
    """The facets as bitmasks: bit b stands for the b-th ambient vertex."""
    bit = {v: 1 << b for b, v in enumerate(delta.ambient)}
    return [sum(map(bit.__getitem__, f)) for f in delta.facets]


class BettiTable:
    """Sparse table of graded Betti numbers with per-entry provenance, built whole.

    The constructor takes a mapping (i, j) -> (value, method) and keeps
    the nonzero values in one dict, put in (j, i) order there once; every
    reader takes that order as it stands.  Only entries with homological
    degree i >= 1 are given; the rank-one entry in degree (0, 0) is
    implicit.  Absence means zero.  Equality compares values only, never
    provenance tags.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[tuple[int, int], tuple[int, str]] | None = None) -> None:
        entries = entries or {}
        self._entries = {key: entries[key] for key in sorted(entries, key=itemgetter(1, 0)) if entries[key][0]}

    def value(self, i: int, j: int) -> int:
        entry = self._entries.get((i, j))
        return entry[0] if entry else 0

    @property
    def entries(self) -> dict[tuple[int, int], int]:
        """Entries as (i, j) -> value, in (j, i) order."""
        return {key: value for key, (value, _) in self._entries.items()}

    def items(self) -> list[tuple[int, int, int, str]]:
        """Entries as (i, j, value, method), in (j, i) order."""
        return [(i, j, value, method) for (i, j), (value, method) in self._entries.items()]

    @property
    def pd(self) -> int:
        """Projective dimension: largest stored homological degree."""
        return max((i for i, _ in self._entries), default=0)

    @property
    def reg(self) -> int:
        """Regularity: largest j - i over stored entries."""
        return max((j - i for i, j in self._entries), default=0)

    def diff(self, other: "BettiTable") -> dict[tuple[int, int], tuple[int, int]]:
        """Entries where the two tables disagree, as (i, j) -> (self, other), in (j, i) order."""
        out = {}
        for key in sorted(self._entries.keys() | other._entries.keys(), key=itemgetter(1, 0)):
            a, b = self.value(*key), other.value(*key)
            if a != b:
                out[key] = (a, b)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BettiTable):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self) -> str:
        body = ", ".join(f"({i},{j}): {v}" for i, j, v, _ in self.items())
        return f"BettiTable({{{body}}})"


class HomologySummary(_checked("HomologySummary", "nonzero_degree dimension")):
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

    @classmethod
    def zero(cls) -> HomologySummary:
        return cls(None, 0)

    def as_vector(self) -> HomologyVector:
        if self.nonzero_degree is None:
            return {}
        return {self.nonzero_degree: self.dimension}


def _components(masks: list[int]) -> list[tuple[int, list[int]]]:
    """Connected components of the facets, each as its vertex mask and its facets.

    Two facets are in one component when a chain of facets, each meeting
    the next, joins them.  The facets stay bitmasks throughout: converting
    each kept support to faces and back made the oracle about 20 % slower.
    """
    components: list[tuple[int, list[int]]] = []
    for fm in masks:
        verts, members, rest = fm, [fm], []
        for comp in components:
            if comp[0] & verts:
                verts |= comp[0]
                members += comp[1]
            else:
                rest.append(comp)
        rest.append((verts, members))
        components = rest
    return components


def _drop(mask: int, v: int) -> int:
    """The mask without bit v, the bits above v moved down one."""
    low = (1 << v) - 1
    return (mask & low) | ((mask >> 1) & ~low)


def _relabelled(verts: int, masks: list[int]) -> tuple[int, ...]:
    """The facets of ``masks`` inside ``verts`` moved onto bits 0..m-1, sorted.

    They are shifted down to bit 0, and each gap between the m vertices
    is closed with ``_drop``.  The vertices keep their order, and any
    relabelling that does keeps Ind the same up to isomorphism.  The
    components that the union search finishes on cycles and lines are
    blocks of consecutive vertices, which the shift alone moves; those
    of a split's link need not be.
    """
    low = (verts & -verts).bit_length() - 1
    block = verts >> low
    members = [fm >> low for fm in masks if fm & ~verts == 0]
    gaps = block ^ (1 << block.bit_length()) - 1
    while gaps:
        # the highest gap first, so the lower ones keep their places
        v = gaps.bit_length() - 1
        members = [_drop(fm, v) for fm in members]
        gaps ^= 1 << v
    return tuple(sorted(members))


def _matrix_homology(shape: tuple[int, ...], field: FieldSpec | None) -> HomologyVector:
    """Reduced homology of Ind of the facet masks from boundary-matrix ranks.

    The route of ``_ind_homology`` for a shape whose complement is small
    or on which no vertex splits.  The complement, whose facets are the
    complements of the facets, is ranked, and its homology is moved to
    Ind by Alexander duality, H_k(Ind) = H_{m-k-3}(complement).
    ``homology._levels`` refuses a complement over the face budget with
    OracleCapError while it counts the faces, before any column is built.
    With the field None the complement is reduced over the integers, and
    a pivot other than 1 or -1 raises ``homology._NonUnitPivot``.
    """
    m = max(shape).bit_length()
    full = (1 << m) - 1
    levels = homology._levels([full ^ fm for fm in shape])
    comp = homology._homology(levels, None if field is None else field.characteristic)
    return {m - d - 3: dim for d, dim in comp.items()}


def _sub_homology(masks: list[int], m: int, field: FieldSpec | None) -> HomologyVector:
    """Reduced homology of Ind of the facet masks on the vertices 0..m-1.

    A vertex in no facet is a cone point of Ind, giving {}; no vertex at
    all gives {-1: 1}.  Otherwise Ind is the join of the independence
    complexes of the connected components, each keyed, as the oracle's
    components are, by its facets shifted down to bit 0 with the gaps
    closed (``_relabelled``, given that component's facets alone) and
    looked up by ``_ind``; the join stops at the first acyclic one.  Ø
    must not be a facet.
    """
    covered = 0
    for fm in masks:
        covered |= fm
    if covered != (1 << m) - 1:
        return {}
    out: HomologyVector = {-1: 1}
    for verts, members in _components(masks):
        out = _join(out, _ind(_relabelled(verts, members), field))
        if not out:
            break
    return out


def _split_homology(shape: tuple[int, ...], field: FieldSpec | None) -> HomologyVector | None:
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
    When some vertex w lies only in facets through v, no facet avoiding
    v holds w, so del is a cone from w and H_k(Ind) = H_{k-1}(lk): v
    splits with only its link evaluated.  Such cone vertices are tried
    first, then the rest, each by the number of facets through it,
    fewest first, and None means that none splits.  Every line shape
    has a cone vertex, any vertex but 0 of its first facet, and so has
    each shape its links leave; the full cycle has none, but its first
    split leaves lines.  A singleton facet is a component of its own,
    whose Ind {Ø} has homology {-1: 1} and drops out of the join, so
    neither complex has an empty facet.

    None also when the complement has at most m faces per facet, counting
    2^(m - |F|) faces under the complement of each facet F.  Long facets
    make Ind nearly a full simplex boundary, whose splitting multiplies
    sub-shapes (the 16-cycle with t = 14 made 1695 of them, and the
    22-cycle with t = 20 ran for minutes), while the complement's ranks
    in ``_matrix_homology`` cost next to nothing.  The rule also keeps a
    singleton shape (m = 1, one facet: 1 <= 1) out of the split, where
    the cut would be the empty facet and ``_relabelled`` would shift by
    a negative count.
    """
    m = max(shape).bit_length()
    if sum(1 << (m - fm.bit_count()) for fm in shape) <= m * len(shape):
        return None
    degree, common = [0] * m, [-1] * m  # common[w]: the vertices of every facet through w
    for fm in shape:
        rest = fm
        while rest:
            low = rest & -rest
            w = low.bit_length() - 1
            degree[w] += 1
            common[w] &= fm
            rest ^= low
    cones = 0  # the vertices v whose deletion leaves some w in no facet
    for w in range(m):
        cones |= common[w] & ~(1 << w)
    for v in sorted(range(m), key=lambda v: (not cones >> v & 1, degree[v])):
        bit = 1 << v
        deleted = [_drop(fm, v) for fm in shape if not fm & bit]
        cut = [_drop(fm ^ bit, v) for fm in shape if fm & bit]
        linked = cut + [fm for fm in deleted if all(c & ~fm for c in cut)]
        del_h = {} if cones & bit else _sub_homology(deleted, m - 1, field)
        lk_h = _sub_homology(linked, m - 1, field)
        if not del_h.keys() & lk_h.keys():
            out = dict(del_h)
            for k, dim in lk_h.items():
                out[k + 1] = out.get(k + 1, 0) + dim
            return out
    return None


@functools.lru_cache(maxsize=4096)
def _ind_homology(shape: tuple[int, ...], field: FieldSpec | None) -> HomologyVector | None:
    """Reduced homology of Ind of one connected component's facet masks, memoised.

    The facets cover the bits 0..m-1, as ``_relabelled`` gives them.
    ``_split_homology`` recurses on the deletion and the link of a
    vertex, whose components come back through ``_ind``, so every
    sub-shape shares the memo: one least-recently-used cache of 4096
    shapes, keyed by the arguments.  Every caller gets the memo's own
    dict, to read and never to change.  The boundary-matrix route
    ``_matrix_homology``, with its face budget, is taken for a shape
    whose complement is small or on which no vertex splits.

    The field None asks for the homology over every field.  Splitting,
    joining and duality read the field only through the boundary-matrix
    leaves, and a leaf reduced over the integers with pivots 1 and -1
    alone has the same homology over every field (see ``homology``).  So
    that entry is found by the same splitting with such leaves, or is
    None once some leaf, or some sub-shape's entry, meets another pivot.
    """
    try:
        out = _split_homology(shape, field)
        if out is None:
            out = _matrix_homology(shape, field)
    except homology._NonUnitPivot:
        return None
    return out


def _every_field(memo: Callable[..., dict | None], field: FieldSpec | None, *key) -> dict:
    """The memo's entry for the key over the field: its every-field entry where it has one.

    Only a key whose every-field entry, ``memo(*key, None)``, is None is
    looked up under the field itself.  With the field None, such a key
    raises ``homology._NonUnitPivot``, so that the entry that asked is
    None too.  ``_ind`` and the oracle's ``_oracle_sums`` follow this one
    rule.
    """
    out = memo(*key, None)
    if out is None:
        if field is None:
            raise homology._NonUnitPivot
        out = memo(*key, field)
    return out


def _ind(shape: tuple[int, ...], field: FieldSpec | None) -> HomologyVector:
    """Reduced homology of Ind of a shape over the field, from ``_ind_homology`` by ``_every_field``."""
    return _every_field(_ind_homology, field, shape)


def _join(a: HomologyVector, b: HomologyVector) -> HomologyVector:
    """Reduced homology of a join over a field: H_k(A * B) = sum over a + b = k - 1."""
    out: HomologyVector = {}
    for da, xa in a.items():
        for db, xb in b.items():
            out[da + db + 1] = out.get(da + db + 1, 0) + xa * xb
    return out


def complement_homology(gamma: SimplicialComplex, field: FieldSpec = QQ) -> HomologyVector:
    """Reduced homology of the complement of gamma within its ambient vertices, by ``_complement_vector``.

    The complement is the complex whose facets are the complements of
    gamma's facets; it is never built.  Gamma's facets are turned into
    bitmasks once, here.
    """
    return _complement_vector(facet_masks(gamma), len(gamma.ambient), field)


def _complement_vector(masks: list[int], m: int, field: FieldSpec) -> HomologyVector:
    """Reduced homology of the complement of the facet masks within the vertices 0..m-1.

    Alexander duality gives H_k(complement) = H_{m-k-3}(Ind) on m
    vertices, with Ind from ``_sub_homology``.  No facet gives a void
    complement and {}; when the facets' support is not all m vertices,
    the complement and Ind are both cones, and ``_sub_homology``'s cover
    check yields {}.  Duality does not cover a facet Ø, the only one when
    m = 0, and the complement is then the irrelevant complex {Ø}.  More
    than MAX_VERTICES vertices are refused first, by
    ``check_vertex_cap``.  The command line calls this with the masks of
    ``paths._path_masks`` and ``paths._run_masks``.
    """
    check_vertex_cap(m)
    if not masks:
        return {}
    if not m:
        return {-1: 1}
    return {m - d - 3: dim for d, dim in _sub_homology(masks, m, field).items()}


def _union_search(masks: list[int], field: FieldSpec | None, lead: int = 0) -> Iterator[tuple[int, HomologyVector]]:
    """Each nonempty union of the facets Y whose Ind is not acyclic, with that Ind's homology.

    A depth-first search includes or excludes the facets in their order.
    A facet already inside the union is forced in, and an include that
    would cover an excluded facet is cut, so each union is reached once,
    with exactly the facets inside it included.  The vertex masks of the
    components of the included facets are carried along; an include
    merges those its facet meets into one.  A component is finished in
    one place, when a state is popped: once no facet from the state's
    next one on meets it, ``ind_of`` looks its Ind up, and it is joined
    into the state's Ind.  Past the last facet every component is
    finished.  Within one facet list a component is fixed by its vertex
    mask, its members being exactly the facets inside it, so ``ind_of``
    is a ``functools.cache`` keyed by that mask that lives as long as the
    search, and its ``cache_info()`` counts the hits and misses.  Only a
    miss runs ``_relabelled``, whose facets shifted down to bit 0, gaps
    closed, are looked up by ``_ind`` in the shared memo
    ``_ind_homology``.  The field reaches the search only there: with the
    field None, a shape whose Ind has no every-field entry raises
    ``homology._NonUnitPivot``.  A join that comes out acyclic stays so
    for every union below, so the state is dropped there, when it is
    popped.  Once the first ``lead`` facets are decided, a branch whose
    union misses bit 0 is not pushed; only these facets may hold bit 0,
    and lead = 0 drops nothing.  The search keeps its own stack, not
    Python recursion; each facet leaves at most one excluded branch on
    it, so it holds at most one entry per facet plus one.
    Ø must not be a facet.
    """
    count = len(masks)
    rest = [0] * (count + 1)  # rest[i]: the vertices of the facets from the i-th on
    for i in range(count - 1, -1, -1):
        rest[i] = rest[i + 1] | masks[i]
    steps = [(fm, [e for e in masks[:i] if e & fm]) for i, fm in enumerate(masks)]
    stack: list[tuple[int, int, list[int], HomologyVector]] = [(0, 0, [], {-1: 1})]
    push, pop = stack.append, stack.pop
    ind_of = functools.cache(lambda verts: _ind(_relabelled(verts, masks), field))
    while stack:
        i, union, comps, ind = pop()
        # finish every component that no facet from the i-th on meets
        left, still_open = rest[i], []
        for verts in comps:
            if verts & left:
                still_open.append(verts)
            else:
                ind = _join(ind, ind_of(verts))
                if not ind:
                    break
        if not ind:
            continue
        if i == count:
            if union:
                yield union, ind
            continue
        fm, earlier = steps[i]
        i += 1
        grown = union | fm
        if grown != union:
            if i != lead or union & 1:
                push((i, union, still_open, ind))
            # an include covering an excluded facet would reach a union twice
            cut = False
            for e in earlier:
                if e & ~union and not e & ~grown:
                    cut = True
                    break
            if cut:
                continue
        # include the facet, merging the components it meets
        merged, kept = fm, []
        for verts in still_open:
            if verts & fm:
                merged |= verts
            else:
                kept.append(verts)
        kept.append(merged)
        push((i, grown, kept, ind))


def _cycle_counts(n: int, counts: Iterable[tuple[tuple[int, int], int]]) -> Iterator[tuple[tuple[int, int], int]]:
    """Rotation-invariant entries below degree n from those of the facets missing vertex n - 1, as they come.

    ``counts`` gives β_{i,j} of the facets that miss vertex n - 1, on the
    other n - 1 vertices, as ((i, j), count) pairs, and the entries come
    out as pairs in the same order.  Hochster's formula sums over the
    unions Y of j < n vertices; summing over the pairs (Y, v) with v not
    in Y counts each Y n - j times, and rotating the facets gives every v
    the sum for v = n - 1.  So β_{i,j} = n·count/(n - j), an exact
    division (a remainder raises RuntimeError).  Both routes scale here:
    the closed one its placement walk, the oracle its sums, which it
    wraps in a dict.
    """
    for (i, j), count in counts:
        value, rest = divmod(n * count, n - j)
        if rest:
            raise RuntimeError(f"the rotation count at ({i}, {j}) is not divisible by {n - j}")
        yield (i, j), value


@functools.lru_cache(maxsize=64)
def _pattern_terms(pattern: tuple[int, ...], field: FieldSpec | None) -> list:
    """The cell of one pattern's translation search: [the largest frame searched, its terms], or [-1, {}].

    A shift-closed facet set is all the translates that fit of its facets
    through vertex 0, its pattern.  So the facets of one pattern on n'
    vertices are those on n >= n' vertices with hi(F) < n', and a union Y
    through 0 on n' vertices is exactly a union that the n-vertex search
    reaches with hi(Y) < n', with the same facets inside it and the same
    Ind.  The terms are kept unweighted, summed per h = hi(Y) + 1 and key
    (``_terms``), so that the largest frame searched answers every frame
    up to it: ``_oracle_sums`` weighs them by n' + 1 - h for h <= n'.
    Only ``_oracle_sums`` changes a cell, once a larger frame's search has
    finished; a refused search leaves it as it was.  One least-recently-
    used cache of 64 cells holds them, keyed by the pattern, sorted, and
    the field.
    """
    return [-1, {}]


@functools.lru_cache(maxsize=64)
def _oracle_sums(masks: tuple[int, ...], frame: int, field: FieldSpec | None) -> dict | None:
    """The (i, j) sums of the oracle's table for the facet masks on ``frame`` vertices, memoised, or None.

    When the facets are invariant under rotating the frame's vertices by
    one place, the full vertex set adds its term from ``_sub_homology``,
    and the entries below degree n are those of the facets that miss
    vertex n - 1, asked for from this memo by ``_every_field`` on the
    other n - 1 vertices and scaled by ``_cycle_counts``.  When they are
    shift-closed, each union Y through vertex 0 adds H_d of its Ind at
    the key (|Y| - d - 1, |Y|) times the n - hi(Y) translates that fit
    in the frame.  Those terms are read from the cell ``_pattern_terms``
    of the facets through 0, and when the cell holds a smaller frame, a
    search with those facets leading fills it first.  Otherwise each
    union that ``_union_search`` yields adds its term once.  The key is
    all the sums depend on: the facets in their order, the frame and the
    field.  With the field None the sums hold over every field, and a
    term or a search that meets a shape without an every-field Ind is
    refused with None, which is kept as well; the pattern's cell stays as
    it was.  One least-recently-used cache of 64 facet sets holds them,
    process-wide.  Every caller gets the memo's own dict, to read and
    never to change.  Ø must not be a facet.
    """
    try:
        full = (1 << frame) - 1
        if masks and sorted(masks) == sorted((fm << 1 | fm >> frame - 1) & full for fm in masks):
            # the full vertex set's term, keyed as every union's is below
            whole = {(frame - d - 1, frame): dim for d, dim in _sub_homology(masks, frame, field).items()}
            below = _every_field(_oracle_sums, field, tuple(fm for fm in masks if not fm >> frame - 1), frame - 1)
            return dict(_cycle_counts(frame, below.items())) | whole
        top = 1 << frame >> 1
        if sorted(fm << 1 for fm in masks if not fm & top) == sorted(fm for fm in masks if not fm & 1):
            pattern = tuple(sorted(fm for fm in masks if fm & 1))
            cell = _pattern_terms(pattern, field)
            if cell[0] < frame:
                # the facets through vertex 0 first, each part in its own order
                searched = sorted(masks, key=lambda fm: not fm & 1)
                cell[:] = frame, _terms(_union_search(searched, field, len(pattern)))
            terms, translated = cell[1], True
        else:
            terms, translated = _terms(_union_search(masks, field)), False
    except homology._NonUnitPivot:
        return None
    sums: dict[tuple[int, int], int] = {}
    for (h, key), value in terms.items():
        # the translates of Y that fit put its lowest vertex at 0..n - 1 - hi(Y), with h = hi(Y) + 1
        if h <= frame:
            sums[key] = sums.get(key, 0) + value * (frame + 1 - h if translated else 1)
    return sums


def _terms(unions: Iterable[tuple[int, HomologyVector]]) -> dict[tuple[int, tuple[int, int]], int]:
    """The Ind of each union Y, summed per (h, key), with h = ``y.bit_length()``, one more than hi(Y).

    H_d of Y's Ind goes to the key (|Y| - d - 1, |Y|): duality puts it in
    the complement's degree |Y| - d - 3, two below the Betti number's.
    """
    terms: dict[tuple[int, tuple[int, int]], int] = {}
    for y, ind in unions:
        size, h = y.bit_count(), y.bit_length()
        for d, dim in ind.items():
            key = h, (size - d - 1, size)
            terms[key] = terms.get(key, 0) + dim
    return terms


def betti_hochster(delta: SimplicialComplex, field: FieldSpec = QQ) -> BettiTable:
    """Graded Betti numbers by enumeration over induced subcollections.

    Only a vertex subset Y that is a union of facets has an induced
    subcollection with support exactly Y; every other subset complements
    to a cone and contributes nothing.  ``_union_search`` reaches each
    union once, in a depth-first search that carries the components of
    its facets and drops a branch once a finished component has an
    acyclic Ind, since every union below then contributes nothing too.
    Alexander duality turns each Ind left into the reduced homology of
    the complement within Y, which is summed at homological degree
    (homology degree + 2) and internal degree |Y|.  The table is built
    once from those sums, each entry tagged ``oracle``.

    When the facets are shift-closed, as the line's are, the facets
    missing the top vertex moved up one place are exactly the facets
    missing vertex 0.  A union Y with lowest vertex m then induces the
    facets of Y - m moved up by m, so Y - m is a union too, with the same
    Ind up to relabelling and the same |Y|.  Each union through vertex 0
    stands for its n - hi(Y) translates that fit, hi(Y) being its highest
    vertex, so only those are searched, with the facets through 0 first
    (one stable sort, so each part keeps its order) and a branch that
    has decided them without reaching 0 dropped, and each adds its term
    times n - hi(Y), an exact integer weight.

    When the facets are invariant under rotating the n ambient vertices
    by one place, as the cycle's are, the full vertex set adds its term
    once, from the Ind of all the facets by ``_sub_homology``, at the key
    (n - d - 1, n) that every union's H_d(Ind) takes, and goes into the
    table with the sums.  The entries below degree n are those of the
    facets that miss vertex n - 1, on the other n - 1 vertices, scaled
    by ``_cycle_counts``.  Those facets are shift-closed, since F avoids
    n - 2 and n - 1 exactly when F + 1 avoids n - 1 and 0, so the search
    reaches only the unions holding 0 and missing n - 1.  Where they
    rotate in turn on the n - 1 vertices, as single vertices do, they
    take this route again.

    All of this is done once per facet set, by ``_oracle_sums``, asked
    for under the field None first, as ``_ind`` asks for Ind, and a
    repeat or a second field costs one lookup.  The sums read the field
    only through the Ind of the shapes they meet: the search joins them
    and drops a branch where a join is acyclic.  Sums over None meet only
    shapes whose Ind holds over every field, so they hold over every
    field too.  Any other shape refuses them, and they are taken over
    the field itself.  No field independence is assumed: the facets of
    RP2's Stanley-Reisner ideal, whose full union has Ind RP2, are
    refused under None and searched once per field.  The cycle's facets
    missing vertex n - 1 are the line's on n - 1 vertices, in the line's
    order, and the cycle asks the same memo for them.  The search of a
    shift-closed facet set is kept by ``_pattern_terms`` under its facets
    through vertex 0, so the lines with one t, and the cycles that ask
    for them, share one search: every frame up to the largest searched.

    A facet Ø makes delta the irrelevant complex, whose only entry is
    (1, 0).  A component whose homology needs a complex over the face
    budget is refused with OracleCapError when the search meets it.
    Inputs above the vertex cap are refused before any search, by
    ``check_vertex_cap``, as they are by the command line.  Memory
    follows the search's depth and the memos, not the number of unions.
    Delta's facets are turned into bitmasks once, here, and
    ``_oracle_table`` does the rest.
    """
    return _oracle_table(facet_masks(delta), len(delta.ambient), field)


def _oracle_table(masks: list[int], frame: int, field: FieldSpec) -> BettiTable:
    """``betti_hochster``'s table of the facet masks on the vertices 0..frame-1.

    More than MAX_VERTICES vertices are refused first, by
    ``check_vertex_cap``.  The command line calls this with the masks of
    ``paths._path_masks``.
    """
    check_vertex_cap(frame)
    if 0 in masks:
        return BettiTable({(1, 0): (1, "oracle")})
    sums = _every_field(_oracle_sums, field, tuple(masks), frame)
    return BettiTable({key: (value, "oracle") for key, value in sums.items()})


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


def _placement_walk(n: int, t: int) -> Iterator[tuple[tuple[int, int], int]]:
    """Eligible run placements on the line of n vertices, counted by (i, j), as ((i, j), count) in (j, i) order.

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
    C(m - a + u - 1, u - a).  Put c = n + 1 - u(t + 1), the free slots
    when every run has its least length, so that the entry is
    C(c + a, a)·C(n - ut, u - a) with j = u(t + 1) - a.  Every entry is
    positive exactly when c >= 0 and max(0, 1 - c) <= a <= u, that is
    for 1 <= j <= n and ⌈j/(t + 1)⌉ <= u <= min(⌊j/t⌋, ⌊(n + 1)/(t + 1)⌋).

    The walk takes j up from t to n and, for each j, those u from the
    largest down, which puts i = j - u(t - 1) in increasing order, so
    nothing is kept or sorted but one running value per u.  A u starts at
    j = ut, a = u, as C(n + 1 - j, u), its only ``comb`` call.  Each next
    j takes a down by one, and the value from the last one, x, by one
    exact ratio:

        x·(a + 1)(c + a) // ((c + a + 1)(u - a)),

    that is x·(u(t + 1) - j + 1)(n + 1 - j) // ((n + 2 - j)(j - ut)).
    The division is exact, because C(A, a)(A + 1) = C(A + 1, a + 1)(a + 1)
    with A = c + a, and C(B, u - a)(u - a) = C(B, u - a - 1)(B - u + a + 1)
    with B = n - ut = c + u - 1.  Both factors of the divisor are at
    least 1: j <= n and a < u on every step.
    """
    top = (n + 1) // (t + 1)  # the largest u with c >= 0
    running = [0] * (top + 1)
    for j in range(t, n + 1):
        hi, lo = j // t, (j + t) // (t + 1)
        if hi > top:
            hi = top
        if lo > hi:
            continue  # no u has an entry at this j
        free = n + 1 - j
        if hi * t == j:
            running[hi] = x = comb(free, hi)
            yield (hi, j), x
            hi -= 1
        wider = n + 2 - j
        for u in range(hi, lo - 1, -1):
            running[u] = x = running[u] * ((u * (t + 1) - j + 1) * free) // (wider * (j - u * t))
            yield (j - u * (t - 1), j), x


def _closed_entries(spec: PathFamilySpec) -> Iterator[tuple[int, int, int, str]]:
    """The closed route's entries (i, j, value, method), in (j, i) order, each counted as it is asked for.

    The line's entries are its ``_placement_walk``.  The cycle's entries
    below degree n are the line's on n - 1 vertices, the facets that
    avoid vertex n - 1, scaled by ``_cycle_counts``; its degree n holds
    the top-degree entry alone.  Those are tagged ``eligible_count`` and
    this one ``closed_form``.  Nothing is held but the walk's running
    values, so the caller can write each entry and let it go.

    Before any counting, a table whose JSON could pass MAX_CLOSED_BYTES
    is refused with OracleCapError.  On the line of m vertices each u
    from 1 to U = ⌊(m + 1)/(t + 1)⌋ takes the u + 1 values 0..u of a,
    but for u = U when t + 1 divides m + 1, where c = 0 leaves out a = 0.
    So the line has U(U + 3)/2 entries, less one then, and the cycle has
    its top-degree entry more.  No value reaches 2^n: the Taylor
    resolution of the at most n generators bounds β_{i,j} by C(n, i).
    So beside its numbers the JSON of one entry takes _ENTRY_BYTES at
    most, i and j at most the digits of n each, and the value at most
    ⌊n·log10 2⌋ + 1 digits, bounded in integers by 0.30103 > log10 2.
    """
    n, t = spec.n, spec.t
    cycle = spec.kind == "cycle"
    m = n - cycle  # the line whose placements are counted
    top = (m + 1) // (t + 1)
    count = top * (top + 3) // 2 - ((m + 1) % (t + 1) == 0) + cycle
    size = count * (_ENTRY_BYTES + 2 * len(str(n)) + n * 30103 // 100000 + 1)
    if size > MAX_CLOSED_BYTES:
        raise OracleCapError(f"the closed table of the {spec.kind} ({n}, {t}) could take {size} bytes, "
                             f"over the closed route's budget of {MAX_CLOSED_BYTES}")
    counts = _cycle_counts(n, _placement_walk(m, t)) if cycle else _placement_walk(m, t)
    for (i, j), value in counts:
        yield i, j, value, "eligible_count"
    if cycle:
        i_top, value = betti_top_degree(spec)
        yield i_top, n, value, "closed_form"


def nonzero_criterion(spec: PathFamilySpec, i: int, j: int) -> bool:
    """Whether the Betti number of the cycle in bidegree (i, j), i >= 1, is nonzero.

    Exact in both directions.  Below n, with u = (j - i)/(t - 1) and a =
    2u - i: ``betti_closed_cycle`` scales the line's entry on n - 1
    vertices by the positive n/(n - j), and ``_placement_walk`` gives
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

    The facets avoiding vertex n - 1 are the line's on the other n - 1
    vertices, so the entries below degree n are the line's placement
    count scaled, tagged ``eligible_count``.  Degree n comes from the
    top-degree formula, tagged ``closed_form``.  The table is built once
    from ``_closed_entries``, which the command line writes from directly.
    """
    if spec.kind != "cycle":
        raise ValueError("expected a cycle spec")
    return BettiTable({(i, j): (value, tag) for i, j, value, tag in _closed_entries(spec)})


def betti_closed_line(spec: PathFamilySpec) -> BettiTable:
    """Full Betti table of the line path ideal by counting placements.

    On the line no placement wraps, so the placement count covers every
    degree, the top one too: when t = n it is the single facet's (1, n).
    The table is built once from ``_closed_entries``, each entry tagged
    ``eligible_count``.
    """
    if spec.kind != "line":
        raise ValueError("expected a line spec")
    return BettiTable({(i, j): (value, tag) for i, j, value, tag in _closed_entries(spec)})


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
