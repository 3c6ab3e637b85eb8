"""Exact reduced simplicial homology over the rationals or a prime field.

Homology dimensions come from ranks of boundary maps, found by one
sparse column reduction.  The columns are built one map at a time
inside the reduction and never leave it: each is a ``{row: residue}``
dict, and a column is reduced against the stored pivot columns until
its largest row is new or it is empty.  The maps are reduced from the
top dimension down with *clearing* (Chen and Kerber, "Persistent
homology computation with a twist"): a k-face that is the pivot row of
a column of the map above reduces to zero in its own column, so it is
skipped.

Over GF(p) that is the whole computation.  Over the integers the same
reduction runs for as long as every new pivot is 1 or -1; a column
whose new pivot is -1 is negated.  Such an elimination is a unimodular
column transform whose reduced columns keep a unit at distinct pivot
rows over Q and mod every prime, so its pivot count is the rank over
every field, clearing skips the same faces over every field, and the
homology it gives holds over every field.  Over
the rationals the elimination goes on over exact fractions from the
first other pivot; in the every-field mode that pivot raises
``_NonUnitPivot`` instead.  No floating point is used anywhere.

The engine knows no complex type: faces are bitmasks, held level by
level, ``levels[s]`` being the sorted faces of s vertices.  ``_levels``
builds them from facet masks, for the oracle's complements of
independence complexes, and ``_homology`` reduces such levels as they
are.  The empty face is level 0, so degree -1 needs no special case:
the irrelevant complex ``{Ø}`` has one-dimensional homology there,
every nonempty complex has none.  A complex with more than
``MAX_FACES`` faces is refused with OracleCapError while its faces are
counted, before any column is built.
"""

from __future__ import annotations

import operator
from collections import namedtuple

HomologyVector = dict[int, int]

# Most faces, the empty face included, one complex may have before its homology is refused.
MAX_FACES = 1 << 20


class OracleCapError(RuntimeError):
    """An exact computation refused an input above one of its budgets.

    The budgets are the oracle's vertex cap and the faces of one complex
    (``MAX_FACES``).
    """


class _NonUnitPivot(ArithmeticError):
    """The every-field reduction met a pivot that is not 1 or -1, so its homology may depend on the field."""


def _integer(value, what: str) -> int:
    """The value as an int if it is one (``operator.index`` accepts it), else ValueError."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def _checked(name: str, fields: str) -> type:
    """A ``namedtuple(name, fields)`` base whose ``_make`` builds through the subclass's own ``__new__``.

    namedtuple's ``_make`` calls ``tuple.__new__``, and ``_replace``
    builds through ``_make``; on this base both make the checks of the
    constructor.  Each value type that checks its fields derives from
    one, with its own ``__new__`` and ``__slots__ = ()``.
    """
    base = namedtuple(name, fields)
    base._make = classmethod(lambda cls, values: cls(*values))
    return base


def _is_prime(p: int) -> bool:
    """Whether p is prime, for p below 3,215,031,751: every characteristic ``FieldSpec`` accepts.

    Deterministic Miller-Rabin with the bases 2, 3, 5 and 7, which no
    odd composite below that bound passes: 3,215,031,751 is the least
    strong pseudoprime to all four (Pomerance, Selfridge and Wagstaff,
    "The pseudoprimes to 25·10^9", 1980).  On 2^31 - 1 four modular
    powers replace 23,000 trial divisions.
    """
    if p < 2:
        return False
    for base in (2, 3, 5, 7):
        if p % base == 0:
            return p == base
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d·2^s with d odd
    d = p - 1 >> s
    for base in (2, 3, 5, 7):
        # a prime has base^d = 1, or base^(d·2^k) = -1 for some k < s
        powers = [x := pow(base, d, p)] + [x := x * x % p for _ in range(s - 1)]
        if powers[0] != 1 and p - 1 not in powers:
            return False
    return True


class FieldSpec(_checked("FieldSpec", "characteristic")):
    """Coefficient field: characteristic 0 for the rationals, else a prime below 2^31."""

    __slots__ = ()

    def __new__(cls, characteristic: int = 0) -> FieldSpec:
        c = _integer(characteristic, "characteristic")
        if c >= 1 << 31:
            raise ValueError(f"characteristic must be below 2^31, got {c}")
        if c != 0 and not _is_prime(c):
            raise ValueError(f"characteristic must be 0 or a prime, got {c}")
        return super().__new__(cls, c)


QQ = FieldSpec(0)


def _levels(facets: list[int]) -> list[list[int]]:
    """The faces generated by a nonempty list of facet masks, by vertex count, each level sorted.

    levels[0] is [0], the empty face.  Built from the top down, each
    level being the facets of its size plus every face one vertex short
    of a face in the level above, so the work follows the faces
    themselves, not the sum of 2^|F| over facets.  Raises OracleCapError
    as soon as the count passes MAX_FACES.
    """
    by_size: dict[int, set[int]] = {}
    for fm in facets:
        by_size.setdefault(fm.bit_count(), set()).add(fm)
    top = max(by_size)
    levels: list[list[int]] = [[0]] + [[] for _ in range(top)]
    level: set[int] = set()
    seen = 0
    for size in range(top, 0, -1):
        level |= by_size.get(size, set())
        seen += len(level)
        levels[size] = sorted(level)
        below: set[int] = set()
        for face in level:
            rest = face
            while rest:
                bit = rest & -rest
                below.add(face ^ bit)
                rest ^= bit
            if seen + len(below) > MAX_FACES:
                raise OracleCapError(f"a complex with more than {MAX_FACES} faces exceeds the face budget")
        level = below
    return levels


def _boundary(face: int, index: dict[int, int]) -> dict[int, int]:
    """The boundary column of a face mask as {row: sign} over the integers.

    Removing the face's i-th lowest vertex has sign (-1)^i.  The column
    serves every field: ``_reduce`` takes each entry it computes mod p,
    and -1 is as good a pivot or row entry as p - 1.
    """
    out = {}
    rest, sign = face, 1
    while rest:
        bit = rest & -rest
        out[index[face ^ bit]] = sign
        rest ^= bit
        sign = -sign
    return out


def _reduce(columns, p: int | None) -> dict[int, dict[int, int]]:
    """Reduce the columns over GF(p), over the rationals when p is 0, over every field when p is None.

    Each column is cleared of its largest row by the stored column with
    that pivot row until the row is new, when the column is scaled to 1
    there (unless it is 1 already) and stored, or the column is empty.
    When p is 0 or None the entries stay integers while every new pivot
    is 1 or -1, which negates its column.  At another pivot the
    rationals go on over exact fractions and p = None raises
    ``_NonUnitPivot``.  Returns the stored columns by pivot row; their
    number is the rank.
    """
    pivots: dict[int, dict[int, int]] = {}
    for col in columns:
        while col:
            low = max(col)
            pivot = pivots.get(low)
            if pivot is None:
                c = col[low]
                if c != 1:
                    if p:
                        inv = pow(c, -1, p)
                    elif c == -1:
                        inv = -1
                    elif p is None:
                        raise _NonUnitPivot
                    else:
                        from fractions import Fraction  # only here, so that importing the package skips it

                        inv = 1 / Fraction(c)
                    col = {r: v * inv % p if p else v * inv for r, v in col.items()}
                pivots[low] = col
                break
            c = col[low]
            for r, v in pivot.items():
                x = col.get(r, 0) - c * v
                if p:
                    x %= p
                if x:
                    col[r] = x
                else:
                    del col[r]
    return pivots


def _homology(levels: list[list[int]], p: int | None) -> HomologyVector:
    """Reduced homology of the faces over GF(p), the rationals when p is 0, or every field when p is None.

    The map from level s to level s - 1 is reduced for s from the top
    down, skipping the faces that are pivot rows of the map above.
    """
    ranks = [0] * (len(levels) + 1)
    cleared: dict = {}
    for s in range(len(levels) - 1, 0, -1):
        index = {f: i for i, f in enumerate(levels[s - 1])}
        cleared = _reduce(
            (_boundary(f, index) for i, f in enumerate(levels[s]) if i not in cleared), p,
        )
        ranks[s] = len(cleared)
    dims: HomologyVector = {}
    for s in range(len(levels)):
        h = len(levels[s]) - ranks[s] - ranks[s + 1]
        if h:
            dims[s - 1] = h
    return dims

