"""Exact reduced simplicial homology over the rationals or a prime field.

Homology dimensions come from ranks of boundary maps, found by one
sparse column reduction: each column is a ``{row: residue}`` dict, and
a column is reduced against the stored pivot columns until its largest
row is new or it is empty.  The maps are reduced from the top dimension
down with *clearing* (Chen and Kerber, "Persistent homology computation
with a twist"): a k-face that is the pivot row of a column of the map
above reduces to zero in its own column, so it is skipped.

Over GF(p) that is the whole computation.  Over the rationals the
reduction first runs over GF(q), q = 2^61 - 1, a prime above every
characteristic FieldSpec accepts.  For an integer matrix rank over Q is
at least rank over GF(q), so each Q homology dimension is at most the
GF(q) one, and the reduced Euler characteristic is the same over both
fields; so when the GF(q) homology lies in at most one degree it is the
Q homology.  Otherwise the same reduction runs over exact fractions.
No floating point is used anywhere.

Degree -1 is handled explicitly: the irrelevant complex ``{Ø}`` has
one-dimensional homology there, every nonempty complex has none, and
the void complex has no homology at all.  A complex with more than
``MAX_FACES`` faces is refused with OracleCapError while its faces are
counted, before any column is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .complexes import Face, SimplicialComplex

HomologyVector = dict[int, int]

# Most faces, the empty face included, one complex may have before its homology is refused.
MAX_FACES = 1 << 20

_CERTIFICATE_PRIME = (1 << 61) - 1


class OracleCapError(RuntimeError):
    """An exact computation refused an input above one of its budgets.

    The budgets are the oracle's vertex cap and the faces of one complex
    (``MAX_FACES``).
    """


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


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field: characteristic 0 for the rationals, else a prime below 2^31."""

    characteristic: int = 0

    def __post_init__(self) -> None:
        c = self.characteristic
        if c >= 1 << 31:
            raise ValueError(f"characteristic must be below 2^31, got {c}")
        if c != 0 and not _is_prime(c):
            raise ValueError(f"characteristic must be 0 or a prime, got {c}")


QQ = FieldSpec(0)
GF2 = FieldSpec(2)
GF32003 = FieldSpec(32003)


def _levels(delta: SimplicialComplex) -> list[list[int]]:
    """The faces of a nonvoid complex as bitmasks, by vertex count, each level sorted.

    Bit b stands for the b-th ambient vertex; levels[0] is [0], the empty
    face.  Built from the top down, each level being the facets of its
    size plus every face one vertex short of a face in the level above,
    so the work follows the faces themselves, not the sum of 2^|F| over
    facets.  Raises OracleCapError as soon as the count passes MAX_FACES.
    """
    position = {v: b for b, v in enumerate(delta.ambient)}
    by_size: dict[int, set[int]] = {}
    for f in delta.facets:
        by_size.setdefault(len(f), set()).add(sum(1 << position[v] for v in f))
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


def _boundary(face: int, index: dict[int, int]) -> list[tuple[int, int]]:
    """The boundary of a face mask as (row, sign): removing its i-th lowest vertex has sign (-1)^i."""
    out = []
    rest, sign = face, 1
    while rest:
        bit = rest & -rest
        out.append((index[face ^ bit], sign))
        rest ^= bit
        sign = -sign
    return out


def _entries(pairs, p: int) -> dict[int, int]:
    """A column as {row: value}: residues mod p, or integers when p is 0."""
    if not p:
        return dict(pairs)
    return {r: v % p for r, v in pairs if v % p}


def _reduce(columns, p: int) -> dict[int, dict[int, int]]:
    """Reduce the columns over GF(p), or over the rationals when p is 0.

    Each column is cleared of its largest row by the stored column with
    that pivot row until the row is new, when the column is scaled to 1
    there and stored, or the column is empty.  Returns the stored columns
    by pivot row; their number is the rank.
    """
    pivots: dict[int, dict[int, int]] = {}
    for col in columns:
        while col:
            low = max(col)
            pivot = pivots.get(low)
            if pivot is None:
                inv = pow(col[low], -1, p) if p else 1 / Fraction(col[low])
                pivots[low] = {r: v * inv % p if p else v * inv for r, v in col.items()}
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
            (_entries(_boundary(f, index), p) for i, f in enumerate(levels[s]) if i not in cleared), p,
        )
        ranks[s] = len(cleared)
    dims: HomologyVector = {}
    for s in range(1, len(levels)):
        h = len(levels[s]) - ranks[s] - ranks[s + 1]
        if h:
            dims[s - 1] = h
    return dims


def reduced_homology_dims(delta: SimplicialComplex, field: FieldSpec = QQ) -> HomologyVector:
    """Dimensions of the nonzero reduced homology groups, as degree -> dim.

    Zero dimensions are omitted, so the void complex yields ``{}`` and
    the irrelevant complex yields ``{-1: 1}``.  Over the rationals the
    GF(2^61 - 1) homology is returned when it lies in at most one degree
    (see the module docstring), else the homology over exact fractions.
    """
    if delta.is_void:
        return {}
    if delta.is_irrelevant:
        return {-1: 1}
    levels = _levels(delta)
    p = field.characteristic
    dims = _homology(levels, p or _CERTIFICATE_PRIME)
    if not p and len(dims) > 1:
        dims = _homology(levels, 0)
    return dims


@dataclass(frozen=True)
class BoundaryMatrix:
    """Signed incidence matrix from k-faces (columns) to (k-1)-faces (rows).

    Column ``c`` holds the boundary of ``cols[c]`` as pairs
    ``(row_index, sign)`` with the alternating-sign rule on the ascending
    vertex order of the face.
    """

    rows: tuple[Face, ...]
    cols: tuple[Face, ...]
    columns: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.cols))


def boundary_matrices(delta: SimplicialComplex) -> list[BoundaryMatrix]:
    """Boundary maps of the reduced chain complex, degree 0 up to dim.

    The degree-0 map is the augmentation onto the empty face.  Faces are
    those ``reduced_homology_dims`` reduces, in the same order, and obey
    the same face budget.  The irrelevant complex has the empty face as
    its only face and yields an empty list; the void complex is rejected.
    """
    if delta.is_void:
        raise ValueError("the void complex has no chain complex")
    levels = _levels(delta)

    def faces(level: list[int]) -> tuple[Face, ...]:
        return tuple(tuple(v for b, v in enumerate(delta.ambient) if f >> b & 1) for f in level)

    out = []
    for s in range(1, len(levels)):
        index = {f: i for i, f in enumerate(levels[s - 1])}
        columns = tuple(tuple(_boundary(f, index)) for f in levels[s])
        out.append(BoundaryMatrix(faces(levels[s - 1]), faces(levels[s]), columns))
    return out


def boundary_product(a: BoundaryMatrix, b: BoundaryMatrix) -> dict[tuple[int, int], int]:
    """Sparse product a·b; identically empty for consecutive boundary maps."""
    if a.cols != b.rows:
        raise ValueError("inner face lists do not match")
    acc: dict[tuple[int, int], int] = {}
    for c, entries in enumerate(b.columns):
        for mid, s in entries:
            for r, s2 in a.columns[mid]:
                key = (r, c)
                acc[key] = acc.get(key, 0) + s * s2
    return {k: v for k, v in acc.items() if v}


def matrix_rank(matrix: BoundaryMatrix, field: FieldSpec = QQ) -> int:
    """Exact rank of a matrix given by its sparse columns, over the given field.

    The entries may be any integers.  The reduction is the one
    ``reduced_homology_dims`` uses, without clearing; over the rationals
    it runs over exact fractions.
    """
    p = field.characteristic
    return len(_reduce((_entries(entries, p) for entries in matrix.columns), p))
