"""Exact reduced simplicial homology over the rationals or a prime field.

Homology dimensions are obtained from ranks of boundary matrices.  Over
characteristic 0 the rank is computed by integer-preserving elimination
(row operations never leave the integers; the matrix moves from int64 to
Python ints in mid-elimination if entries outgrow machine words), over a
prime p below 2^31 by modular elimination in int64.  Degree -1 is
handled explicitly: the irrelevant complex ``{Ø}`` has one-dimensional
homology there, every nonempty complex has none, and the void complex
has no homology at all.  A boundary matrix above ``MAX_DENSE_CELLS``
cells is refused with OracleCapError before its dense array exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .complexes import Face, SimplicialComplex, faces_of_dim

HomologyVector = dict[int, int]

# Two int64 factors below the guard multiply to less than 2^62, so a row
# update (a difference of two such products) cannot overflow.  An operand
# at or above it moves the elimination to Python ints; a GF(p) residue is
# always below it because p is.  When a row update leaves an entry at or
# above _STRIP, every updated row is divided by its gcd, which keeps most
# eliminations in int64.
_GUARD = 1 << 31
_STRIP = 1 << 30

# Largest boundary matrix ranked densely, in cells: 1 GiB as int64.
MAX_DENSE_CELLS = 1 << 27


class OracleCapError(RuntimeError):
    """An exact computation refused an input above one of its budgets.

    The budgets are the oracle's vertex cap and the cells of a dense
    boundary matrix (``MAX_DENSE_CELLS``).
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
        if c >= _GUARD:
            raise ValueError(f"characteristic must be below 2^31, got {c}")
        if c != 0 and not _is_prime(c):
            raise ValueError(f"characteristic must be 0 or a prime, got {c}")


QQ = FieldSpec(0)
GF2 = FieldSpec(2)
GF32003 = FieldSpec(32003)


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

    def to_dense(self) -> np.ndarray:
        """The matrix as a dense int64 array.

        Raises OracleCapError, before allocating, above MAX_DENSE_CELLS cells.
        """
        m, n = self.shape
        if m * n > MAX_DENSE_CELLS:
            raise OracleCapError(f"a {m}x{n} boundary matrix exceeds the dense budget of {MAX_DENSE_CELLS} cells")
        dense = np.zeros(self.shape, dtype=np.int64)
        flat = np.fromiter(chain.from_iterable(chain.from_iterable(self.columns)), dtype=np.int64)
        rows, signs = flat.reshape(-1, 2).T
        cols = np.repeat(np.arange(len(self.columns)), [len(entries) for entries in self.columns])
        dense[rows, cols] = signs
        return dense


def boundary_matrices(delta: SimplicialComplex) -> list[BoundaryMatrix]:
    """Boundary maps of the reduced chain complex, degree 0 up to dim.

    The degree-0 map is the augmentation onto the empty face.  The
    irrelevant complex has the empty face as its only face and yields an
    empty list; the void complex is rejected.
    """
    if delta.is_void:
        raise ValueError("the void complex has no chain complex")
    if delta.is_irrelevant:
        return []
    out = []
    below: list[Face] = faces_of_dim(delta, -1)
    for k in range(delta.dim + 1):
        here = faces_of_dim(delta, k)
        index = {f: i for i, f in enumerate(below)}
        columns = []
        for face in here:
            entries = []
            for i in range(len(face)):
                sub = face[:i] + face[i + 1:]
                entries.append((index[sub], 1 if i % 2 == 0 else -1))
            columns.append(tuple(entries))
        out.append(BoundaryMatrix(tuple(below), tuple(here), tuple(columns)))
        below = here
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
    """Exact rank of a boundary matrix over the given field."""
    m, n = matrix.shape
    if m == 0 or n == 0:
        return 0
    dense = matrix.to_dense()
    if field.characteristic == 0:
        return _rank_char0(dense)
    return _rank_mod_p(dense, field.characteristic)


def _rank_char0(a: np.ndarray) -> int:
    """Rank over the rationals by integer row elimination.

    Pivot columns are chosen by current sparsity and pivot rows by
    smallest magnitude; rows are cross-multiplied (never divided except
    by their gcd), so every intermediate value is an exact integer.
    The array switches from int64 to Python ints, and carries on from
    the same step, once an operand of a row update reaches the guard.
    """
    a = a.copy()
    m, n = a.shape
    row_active = np.ones(m, dtype=bool)
    col_done = np.zeros(n, dtype=bool)
    col_nnz = np.count_nonzero(a, axis=0)
    rank = 0
    while True:
        candidates = ~col_done & (col_nnz > 0)
        if not candidates.any():
            return rank
        c = int(np.where(candidates, col_nnz, m + 1).argmin())
        rows_nz = np.flatnonzero(row_active & (a[:, c] != 0))
        if rows_nz.size == 0:
            # stale count from retired rows
            col_nnz[c] = 0
            continue
        pr = int(rows_nz[np.argmin(np.abs(a[rows_nz, c]))])
        others = rows_nz[rows_nz != pr]
        if others.size:
            block = a[others]
            if a.dtype != object and max(np.abs(block).max(), np.abs(a[pr]).max()) >= _GUARD:
                a, block = a.astype(object), block.astype(object)
            old_nnz = np.count_nonzero(block, axis=0)
            block = block * a[pr, c] - np.outer(block[:, c], a[pr])
            if np.abs(block).max() >= _STRIP:
                # a row reduced to zeros has gcd 0
                block //= np.maximum(np.gcd.reduce(block, axis=1), 1)[:, None]
            col_nnz += np.count_nonzero(block, axis=0) - old_nnz
            a[others] = block
        col_nnz -= a[pr] != 0
        row_active[pr] = False
        col_done[c] = True
        rank += 1
        if rank == m:
            return rank


def _rank_mod_p(a: np.ndarray, p: int) -> int:
    """Rank over GF(p) by modular Gaussian elimination."""
    a = np.mod(a, p)
    m, n = a.shape
    rank = 0
    for col in range(n):
        if rank == m:
            break
        nz = np.flatnonzero(a[rank:, col])
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            a[[rank, piv], :] = a[[piv, rank], :]
        inv = pow(int(a[rank, col]), -1, p)
        a[rank, col:] = (a[rank, col:] * inv) % p
        below = np.flatnonzero(a[rank + 1:, col])
        if below.size:
            rows = below + rank + 1
            a[rows, col:] = (a[rows, col:] - np.outer(a[rows, col], a[rank, col:])) % p
        rank += 1
    return rank


def reduced_homology_dims(delta: SimplicialComplex, field: FieldSpec = QQ) -> HomologyVector:
    """Dimensions of the nonzero reduced homology groups, as degree -> dim.

    Zero dimensions are omitted, so the void complex yields ``{}`` and
    the irrelevant complex yields ``{-1: 1}``.
    """
    if delta.is_void:
        return {}
    if delta.is_irrelevant:
        return {-1: 1}
    mats = boundary_matrices(delta)
    ranks = [matrix_rank(mat, field) for mat in mats]
    ranks.append(0)
    dims: HomologyVector = {}
    for k, mat in enumerate(mats):
        h = (len(mat.cols) - ranks[k]) - ranks[k + 1]
        if h:
            dims[k] = h
    return dims
