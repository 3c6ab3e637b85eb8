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

Over GF(p) that is the whole computation.  Over the rationals the
reduction first runs over GF(q), q = 2^61 - 1, a prime above every
characteristic FieldSpec accepts.  For an integer matrix rank over Q is
at least rank over GF(q), so each Q homology dimension is at most the
GF(q) one, and the reduced Euler characteristic is the same over both
fields; so when the GF(q) homology lies in at most one degree it is the
Q homology.  Otherwise the same reduction runs over exact fractions.
No floating point is used anywhere.

The engine knows no complex type: faces are bitmasks, held level by
level, ``levels[s]`` being the sorted faces of s vertices.  ``_levels``
builds them from facet masks, for the oracle's complements of
independence complexes, and ``levels_homology`` takes such levels as
they are.  The empty face is level 0, so degree -1 needs no special
case: the irrelevant complex ``{Ø}`` has one-dimensional homology
there, every nonempty complex has none.  A complex with more than
``MAX_FACES`` faces is refused with OracleCapError while its faces are
counted, before any column is built.
"""

from __future__ import annotations

import operator
from collections import namedtuple

HomologyVector = dict[int, int]

# Most faces, the empty face included, one complex may have before its homology is refused.
MAX_FACES = 1 << 20

_CERTIFICATE_PRIME = (1 << 61) - 1


class OracleCapError(RuntimeError):
    """An exact computation refused an input above one of its budgets.

    The budgets are the oracle's vertex cap and the faces of one complex
    (``MAX_FACES``).
    """


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
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
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


def _boundary(face: int, index: dict[int, int], p: int) -> dict[int, int]:
    """The boundary column of a face mask as {row: sign} over GF(p), or the integers when p is 0.

    Removing the face's i-th lowest vertex has sign (-1)^i, and -1 is
    p - 1 over GF(p).
    """
    out = {}
    signs = (1, p - 1 if p else -1)
    rest, k = face, 0
    while rest:
        bit = rest & -rest
        out[index[face ^ bit]] = signs[k]
        rest ^= bit
        k ^= 1
    return out


def _reduce(columns, p: int) -> dict[int, dict[int, int]]:
    """Reduce the columns over GF(p), or over the rationals when p is 0.

    Each column is cleared of its largest row by the stored column with
    that pivot row until the row is new, when the column is scaled to 1
    there (unless it is 1 already) and stored, or the column is empty.
    Returns the stored columns by pivot row; their number is the rank.
    """
    if not p:
        from fractions import Fraction  # only here, so that importing the package skips it
    pivots: dict[int, dict[int, int]] = {}
    for col in columns:
        while col:
            low = max(col)
            pivot = pivots.get(low)
            if pivot is None:
                if col[low] != 1:
                    inv = pow(col[low], -1, p) if p else 1 / Fraction(col[low])
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


def _homology(levels: list[list[int]], p: int) -> HomologyVector:
    """Reduced homology of the faces over GF(p), or the rationals when p is 0.

    The map from level s to level s - 1 is reduced for s from the top
    down, skipping the faces that are pivot rows of the map above.
    """
    ranks = [0] * (len(levels) + 1)
    cleared: dict = {}
    for s in range(len(levels) - 1, 0, -1):
        index = {f: i for i, f in enumerate(levels[s - 1])}
        cleared = _reduce(
            (_boundary(f, index, p) for i, f in enumerate(levels[s]) if i not in cleared), p,
        )
        ranks[s] = len(cleared)
    dims: HomologyVector = {}
    for s in range(len(levels)):
        h = len(levels[s]) - ranks[s] - ranks[s + 1]
        if h:
            dims[s - 1] = h
    return dims


def levels_homology(levels: list[list[int]], field: FieldSpec = QQ) -> HomologyVector:
    """Reduced homology of a nonvoid complex given by its faces, as degree -> dim.

    ``levels[s]`` holds the faces of s vertices as bitmasks, sorted, and
    ``levels[0]`` is ``[0]``, the empty face, so ``[[0]]`` is the
    irrelevant complex, with homology ``{-1: 1}``; ``_levels`` builds
    them from facet masks.  Over the rationals the GF(2^61 - 1) homology
    is returned when it lies in at most one degree (see the module
    docstring), else the homology over exact fractions.
    """
    p = field.characteristic
    dims = _homology(levels, p or _CERTIFICATE_PRIME)
    if not p and len(dims) > 1:
        dims = _homology(levels, 0)
    return dims

