"""Linear algebra over prime fields F_p, plus one small dense eliminator over
extension fields F_q driven by a field context's arithmetic tables.

The central object is RowReducer: an incremental row-reduced basis that rows
can be streamed through in batches.  Its basis is the unique RREF of the
rows fed, whatever the batching, and storage stays bounded by ncols^2, so
constraint systems far larger than memory-resident matrices can be ranked.
It eliminates in one of two regimes, chosen from ncols when it is built.

Narrow (ncols <= NARROW_COLS).  Most cocycle systems are H^1 with a small
coefficient module: a few columns, a few rows per batch, a pivot or two.
There the cost of a numpy call outweighs its arithmetic, so the basis is
kept as lists of Python ints and each row is reduced and inserted on its
own, reading no more rows once the rank is ncols.  Python ints do not
overflow, so this is exact for every p.

Wide (ncols > NARROW_COLS).  A batch is reduced against the basis with one
matrix product, then eliminated BLOCK_ROWS rows at a time: each block is
brought to reduced echelon form on its own (_rref_block, a few numpy calls
per pivot), and the rest of the batch and the basis are cleared at the
block's pivots with one product each.  Reduction is delayed: entries are
reduced mod p only where they are read, a row before its leading entry is
found and a pivot column before it serves as multipliers.  Each pivot step
subtracts (residue) x (residue), which is less than p^2 in absolute value,
so a block of BLOCK_ROWS rows stays below BLOCK_ROWS * p^2 + p.  A product
of two residue matrices sums at most ncols such terms; they are taken in
int32 by einsum, which vectorizes them without BLAS or its thread pool.
FpModule keeps p < 256, and RowReducer requires p < 256 and
ncols * (p-1)^2 < 2^31, so every intermediate is exact.

NARROW_COLS is the measured crossover: on the benchmark workloads' systems
a threshold of 8, 16 or 24 times the same, 40 is slower, and with every
system narrow the GL_2(F_5) direct solves eliminate about eight times
slower.
"""

from __future__ import annotations

import bisect
import functools

import numpy as np

NARROW_COLS = 16  # systems with at most this many columns are reduced in Python ints
BLOCK_ROWS = 32  # rows brought to echelon form before the rest of a batch is updated
MOD_SPLIT = 1024  # arrays below this size are reduced by %, larger ones by floor division


class RowReducer:
    """Incremental RREF basis over F_p for streamed rank/nullspace work.

    `rows` (int64, one row per pivot) and `pivots` (ascending) are the RREF
    of every row fed so far.  A reducer of at most NARROW_COLS columns keeps
    the same rows as lists of Python ints and inserts a batch row by row; a
    wider one eliminates through the blocked numpy kernel.
    """

    def __init__(self, p: int, ncols: int):
        if not 2 <= p < 256 or ncols * (p - 1) ** 2 >= 1 << 31:
            raise ValueError("delayed reduction is exact only for p < 256 and "
                             "ncols * (p-1)^2 < 2^31")
        self.p = p
        self.ncols = ncols
        self.rows = np.zeros((0, ncols), dtype=np.int64)
        self.pivots: list[int] = []
        self._narrow = ncols <= NARROW_COLS
        self._basis: list[list[int]] = []  # narrow: `rows` as Python ints

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _batch(self, batch) -> np.ndarray:
        B = np.asarray(batch, dtype=np.int64)
        if B.ndim == 1:
            B = B[None, :]
        if B.ndim != 2 or B.shape[1] != self.ncols:
            raise ValueError(f"rows of width {self.ncols} expected, got shape {B.shape}")
        return B

    def reduce(self, batch) -> np.ndarray:
        """Reduce rows against the current basis without inserting them."""
        B = mod(self._batch(batch), self.p)
        if self.pivots:
            B = mod(B - _dot(B[:, self.pivots], self.rows), self.p)
        return B

    def add_rows(self, batch) -> int:
        """Insert a batch of rows; returns how many new pivots appeared."""
        if self._narrow:
            return self._add_narrow(self._batch(batch).tolist())
        p = self.p
        B = self.reduce(batch)
        B = B[B.any(axis=1)]
        added = 0
        while B.shape[0] and self.rank < self.ncols:
            R, piv = _rref_block(B[:BLOCK_ROWS], p)
            B = B[BLOCK_ROWS:]
            if not piv:
                continue
            # R is zero at the old pivots, so clearing its pivot columns
            # keeps the old rows and the rest of the batch reduced there
            self.rows = np.vstack([mod(self.rows - _dot(self.rows[:, piv], R), p), R])
            self.pivots.extend(piv)
            added += len(piv)
            if B.shape[0]:
                B = mod(B - _dot(B[:, piv], R), p)
                B = B[B.any(axis=1)]
        if added:
            order = np.argsort(self.pivots, kind="stable")
            self.rows = self.rows[order]
            self.pivots = [self.pivots[i] for i in order]
        return added

    def _add_narrow(self, batch: list[list[int]]) -> int:
        """add_rows for a narrow reducer: each row reduced against the
        basis, normalized, and inserted at its pivot's place."""
        p, basis, pivots = self.p, self._basis, self.pivots
        inv = _inverses(p)
        added = 0
        for row in batch:
            if len(pivots) == self.ncols:
                break
            r = [v % p for v in row]
            # each basis row is zero at the other pivots, so the entries of r
            # there stay put while one pivot column is cleared
            for b, c in zip(basis, pivots):
                f = r[c]
                if f:
                    r = [x - f * y for x, y in zip(r, b)]
            r = [x % p for x in r]
            for c, lead in enumerate(r):
                if lead:
                    break
            else:
                continue
            if lead != 1:
                scale = inv[lead]
                r = [x * scale % p for x in r]
            for k, b in enumerate(basis):
                f = b[c]
                if f:
                    basis[k] = [(x - f * y) % p for x, y in zip(b, r)]
            k = bisect.bisect(pivots, c)
            pivots.insert(k, c)
            basis.insert(k, r)
            added += 1
        if added:
            self.rows = np.array(basis, dtype=np.int64)
        return added

    def free_columns(self) -> list[int]:
        pivset = set(self.pivots)
        return [c for c in range(self.ncols) if c not in pivset]

    def nullspace(self) -> np.ndarray:
        """Basis of {x : R x = 0}, one vector per free column.  Vector k is
        1 at its free column, 0 at the other free columns, so coordinates
        in this basis can be read off at the free columns.  A narrow reducer
        writes the vectors from its Python-int basis and converts them once."""
        free = self.free_columns()
        if self._narrow:
            p, out = self.p, []
            for j in free:
                v = [0] * self.ncols
                v[j] = 1
                for c, b in zip(self.pivots, self._basis):
                    v[c] = -b[j] % p
                out.append(v)
            return np.array(out, dtype=np.int64).reshape(len(free), self.ncols)
        out = np.zeros((len(free), self.ncols), dtype=np.int64)
        out[np.arange(len(free)), free] = 1
        if self.pivots:
            out[:, self.pivots] = (-self.rows[:, free].T) % self.p
        return out


@functools.cache
def _inverses(p: int) -> tuple[int, ...]:
    """x^{-1} mod p at index x, for x = 1..p-1 (0 at index 0)."""
    return (0,) + tuple(pow(x, -1, p) for x in range(1, p))


def mod(a: np.ndarray, p: int) -> np.ndarray:
    """a mod p elementwise.  NumPy vectorizes floor division by a scalar but
    divides element by element in %, so on large arrays a - (a // p) * p,
    computed in one new array, is several times faster; on small arrays %
    is faster, being one call instead of three."""
    if a.size < MOD_SPLIT:
        return a % p
    r = a // p
    r *= p
    return np.subtract(a, r, out=r)


def _dot(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B for residue matrices, through einsum in int32: exact by the
    module docstring, and vectorized without BLAS or its thread pool."""
    return np.einsum("ij,jk->ik", A.astype(np.int32), B.astype(np.int32))


def _rref_block(X: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced echelon rows of a small block of residues, and their pivot
    columns in the order found.  Pivot rows and columns are reduced mod p
    when read; the other entries only at the end."""
    X = X.copy()
    inv = _inverses(p)
    piv_rows: list[int] = []
    piv_cols: list[int] = []
    for i in range(X.shape[0]):
        r = X[i]
        r %= p
        nz = r.nonzero()[0]
        if not nz.size:
            continue
        c = nz[0]
        lead = r[c]
        if lead != 1:
            r *= inv[lead]
            r %= p
        col = X[:, c] % p
        col[i] = 0  # the pivot row itself stays
        X -= np.multiply.outer(col, r)
        piv_rows.append(i)
        piv_cols.append(int(c))
    R = X[piv_rows]
    R %= p
    return R, piv_cols


def rank_mod(A, p: int) -> int:
    A = np.asarray(A)
    if A.size == 0:
        return 0
    red = RowReducer(p, A.shape[1])
    red.add_rows(A)
    return red.rank


def nullspace_mod(A, p: int) -> np.ndarray:
    A = np.asarray(A)
    red = RowReducer(p, A.shape[1])
    if A.size:
        red.add_rows(A)
    return red.nullspace()


def is_invertible_mod(A, p: int) -> bool:
    A = np.asarray(A)
    return A.shape[0] == A.shape[1] and rank_mod(A, p) == A.shape[0]


def fq_eliminate(rows, field, ncols: int | None = None):
    """Gauss-Jordan elimination over F_q on rows of codes.

    Pivots are sought in the first ncols columns (all by default); row
    operations act on whole rows, so an augmented block rides along.
    Returns (rows, pivots, det): the reduced rows (zero rows included), the
    pivot columns, and (-1)^swaps times the product of the pivots, which is
    the determinant of a square matrix of full rank.  Intended for the small
    systems that arise in eigenspace, intertwiner and group computations.
    """
    M = [list(r) for r in rows]
    if ncols is None:
        ncols = len(M[0]) if M else 0
    mul, add = field.mul_code, field.add_code
    pivots: list[int] = []
    det = 1
    for c in range(ncols):
        rank = len(pivots)
        if rank == len(M):
            break
        for piv in range(rank, len(M)):
            if M[piv][c]:
                break
        else:
            continue
        if piv != rank:
            M[rank], M[piv] = M[piv], M[rank]
            det = field.neg_code(det)
        lead = M[rank][c]
        det = mul(det, lead)
        inv = field.inv_code(lead)
        prow = M[rank] = [mul(inv, v) for v in M[rank]]
        for i, row in enumerate(M):
            if row[c] and i != rank:
                neg = field.neg_code(row[c])
                M[i] = [add(a, mul(neg, b)) for a, b in zip(row, prow)]
        pivots.append(c)
    return M, pivots, det


def fq_rank(rows, field) -> int:
    """Rank of a matrix with entries given as F_q codes."""
    return len(fq_eliminate(rows, field)[1])


def fq_nullity(rows, field, ncols: int) -> int:
    if not rows:
        return ncols
    return ncols - fq_rank(rows, field)


def fq_invert(mat, field):
    """Inverse of a square matrix of F_q codes, or None if singular."""
    n = len(mat)
    aug = [list(mat[i]) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    R, pivots, _ = fq_eliminate(aug, field, n)
    if len(pivots) < n:
        return None
    return [tuple(row[n:]) for row in R]
