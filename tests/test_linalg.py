"""Streamed row reduction against plain dense elimination."""

import numpy as np
import pytest

from borelext import linalg
from borelext.linalg import (
    BLOCK_ROWS,
    NARROW_COLS,
    RowReducer,
    fq_invert,
    fq_rank,
    is_invertible_mod,
    mod,
    nullspace_mod,
    rank_mod,
)
from borelext.field import make_field

from _brute import gauss_rank, gauss_rref, solvable_mod


def test_rank_matches_brute_on_random_matrices():
    rng = np.random.default_rng(7)
    for p in (3, 5, 7):
        for _ in range(25):
            m, n = int(rng.integers(1, 30)), int(rng.integers(1, 20))
            A = rng.integers(0, p, size=(m, n))
            assert rank_mod(A, p) == gauss_rank(A.tolist(), p)


def test_streaming_equals_one_shot():
    rng = np.random.default_rng(1)
    p = 3
    A = rng.integers(0, p, size=(200, 17))
    red = RowReducer(p, 17)
    for start in range(0, 200, 13):
        red.add_rows(A[start : start + 13])
    assert red.rank == rank_mod(A, p)


def test_nullspace_vectors_annihilate():
    rng = np.random.default_rng(3)
    for p in (3, 5):
        A = rng.integers(0, p, size=(12, 9))
        N = nullspace_mod(A, p)
        assert N.shape[0] == 9 - rank_mod(A, p)
        assert not ((A @ N.T) % p).any()


def test_nullspace_coordinates_at_free_columns():
    p = 3
    A = np.array([[1, 2, 0, 1], [0, 0, 1, 2]])
    red = RowReducer(p, 4)
    red.add_rows(A)
    N = red.nullspace()
    free = red.free_columns()
    for k, vec in enumerate(N):
        for j, c in enumerate(free):
            assert vec[c] == (1 if j == k else 0)


def test_solvable():
    p = 5
    A = np.array([[1, 2], [2, 4]])
    assert solvable_mod(A, np.array([1, 2]), p)
    assert not solvable_mod(A, np.array([1, 3]), p)


def test_is_invertible():
    assert is_invertible_mod(np.array([[1, 1], [0, 2]]), 3)
    assert not is_invertible_mod(np.array([[1, 2], [2, 4]]), 3)


def test_fq_rank_and_invert():
    F9 = make_field(3, 2)
    x = F9.coeffs_code((0, 1))
    rows = [(1, x), (x, F9.mul_code(x, x))]  # second row = x * first row
    assert fq_rank(rows, F9) == 1
    m = [(1, x), (0, 1)]
    mi = fq_invert(m, F9)
    assert mi is not None
    # m * mi = identity
    a, b = mi[0], mi[1]
    top = (F9.add_code(F9.mul_code(1, a[0]), F9.mul_code(x, b[0])),
           F9.add_code(F9.mul_code(1, a[1]), F9.mul_code(x, b[1])))
    assert top == (1, 0)
    assert fq_invert(rows, F9) is None


def _low_rank(rng, p, m, n, r):
    """An m x n matrix of rank at most r: a random m x r times r x n."""
    return (rng.integers(0, p, size=(m, r)) @ rng.integers(0, p, size=(r, n))) % p


def _check_reducer(red, fed, p):
    """The basis against the pure-python RREF of every row fed so far, and
    the reduction and nullspace of those rows."""
    R, piv = gauss_rref(fed.tolist(), p)
    assert red.pivots == piv and red.rank == len(piv)
    assert red.rows.dtype == np.int64 and red.rows.shape == (len(piv), red.ncols)
    assert red.rows.tolist() == R
    assert not red.reduce(fed).any()
    N = red.nullspace()
    assert N.shape == (red.ncols - red.rank, red.ncols)
    assert not ((fed @ N.T) % p).any()


# widths on both sides of the narrow/wide threshold; each test below adds
# one wide width of its own
WIDTHS = [1, NARROW_COLS, NARROW_COLS + 1]


@pytest.mark.parametrize("ncols", WIDTHS + [108])
def test_blocked_eliminator_chunk_shape(ncols):
    # one chunk of the GL_2(F_5) direct solve: 8 edges x 36 rows, here over
    # ncols unknowns; rank 30 leaves the narrow widths at full rank
    rng = np.random.default_rng(11)
    for p in (3, 5, 7, 251):
        for r in (30, 100):
            A = _low_rank(rng, p, 288, ncols, r)
            red = RowReducer(p, ncols)
            assert red.add_rows(A) == red.rank
            _check_reducer(red, A, p)


@pytest.mark.parametrize("ncols", WIDTHS + [60])
def test_blocked_eliminator_streams_and_grows(ncols):
    # batches smaller and larger than one block, a single 1-D row and an
    # empty batch, fed into a growing basis; negative entries are reduced on
    # the way in
    rng = np.random.default_rng(12)
    r = max(1, 3 * ncols // 4)
    for p in (3, 5, 7, 251):
        A = _low_rank(rng, p, 200, ncols, r) - p * rng.integers(0, 3, size=(200, ncols))
        red = RowReducer(p, ncols)
        start = 0
        for size in (1, 0, 7, BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 5, 200):
            before = red.rank
            got = red.add_rows(A[start] if size == 1 else A[start : start + size])
            start += size
            assert got == red.rank - before
            _check_reducer(red, A[:start] % p, p)
        assert red.add_rows(np.zeros((0, ncols), dtype=np.int64)) == 0


@pytest.mark.parametrize("p", [3, 5, 7, 251])
def test_narrow_and_wide_regimes_agree(monkeypatch, p):
    # the same streamed batches through each regime: the same basis, pivots
    # and counts, and the same reduce() and nullspace() output
    rng = np.random.default_rng(p)
    for ncols in (1, 5, NARROW_COLS, NARROW_COLS + 1, 40):
        A = _low_rank(rng, p, 120, ncols, max(1, ncols - 2))
        A -= p * rng.integers(0, 2, size=(120, ncols))
        probe = rng.integers(-p, 2 * p, size=(9, ncols))
        runs = []
        for threshold in (0, 1 << 20):  # every system wide, then every one narrow
            monkeypatch.setattr(linalg, "NARROW_COLS", threshold)
            red = RowReducer(p, ncols)
            assert red._narrow == (threshold > 0)
            spans = ((0, 3), (3, 3), (3, 40), (40, 41), (41, 120))
            counts = [red.add_rows(A[a:b]) for a, b in spans]
            runs.append((counts, red.pivots, red.rows.tolist(), red.reduce(probe).tolist(),
                         red.reduce(probe[0]).tolist(), red.nullspace().tolist()))
        assert runs[0] == runs[1]


def _brute_nullspace(rows, ncols, p):
    """The nullspace basis read off gauss_rref: vector k is 1 at the k-th
    free column, 0 at the others, and -R[i][that column] at pivot i."""
    R, pivots = gauss_rref(rows, p) if rows else ([], [])
    free = [c for c in range(ncols) if c not in pivots]
    out = []
    for j in free:
        v = [0] * ncols
        v[j] = 1
        for r, c in zip(R, pivots):
            v[c] = -r[j] % p
        out.append(v)
    return out


@pytest.mark.parametrize("narrow", [False, True], ids=["wide", "narrow"])
def test_nullspace_matches_the_brute_rref_in_each_regime(monkeypatch, narrow):
    # the same batches through one regime: after every batch the nullspace
    # is gauss_rref's, with shape (free columns, ncols) and dtype int64 even
    # when no row was fed or no column is free
    monkeypatch.setattr(linalg, "NARROW_COLS", 1 << 20 if narrow else 0)
    rng = np.random.default_rng(11)
    for p in (3, 7, 251):
        for ncols in (1, 4, NARROW_COLS, 24):
            A = _low_rank(rng, p, 30, ncols, max(1, ncols - 3))
            A = np.vstack([A, rng.integers(0, p, size=(ncols, ncols))])  # full rank at the end
            red = RowReducer(p, ncols)
            assert red._narrow == narrow
            fed = 0
            for stop in (0, 2, 30, 30 + ncols):
                red.add_rows(A[fed:stop])
                fed = stop
                N = red.nullspace()
                want = _brute_nullspace(A[:fed].tolist(), ncols, p)
                assert N.dtype == np.int64 and N.shape == (len(want), ncols)
                assert N.tolist() == want


def test_reducer_rejects_rows_of_the_wrong_width():
    for ncols in (3, NARROW_COLS + 3):
        red = RowReducer(5, ncols)
        for bad in (np.ones((2, ncols + 1), dtype=np.int64), np.ones(ncols - 1, dtype=np.int64)):
            with pytest.raises(ValueError):
                red.add_rows(bad)
            with pytest.raises(ValueError):
                red.reduce(bad)


def test_eliminator_rejects_inexact_sizes():
    with pytest.raises(ValueError):
        RowReducer(257, 4)
    with pytest.raises(ValueError):
        RowReducer(251, 1 << 16)


def test_mod_matches_remainder():
    a = np.arange(-3000, 3000).reshape(60, 100)
    for p in (3, 251):
        assert (mod(a, p) == a % p).all()
        assert (mod(a[:2, :5], p) == a[:2, :5] % p).all()


def _perm_det(rows, fld):
    """Leibniz expansion over F_q, with no elimination."""
    import itertools

    n = len(rows)
    det = 0
    for perm in itertools.permutations(range(n)):
        term = 1
        for i, j in enumerate(perm):
            term = fld.mul_code(term, rows[i][j])
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        det = fld.add_code(det, fld.neg_code(term) if inversions % 2 else term)
    return det


def _fq_matmul(a, b, fld):
    n, m = len(a), len(b[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = 0
            for k in range(len(b)):
                acc = fld.add_code(acc, fld.mul_code(a[i][k], b[k][j]))
            row.append(acc)
        out.append(tuple(row))
    return out


@pytest.mark.parametrize("p,f,n", [(3, 1, 3), (3, 2, 2), (3, 2, 3)])
def test_fq_eliminator_on_random_matrices(p, f, n):
    """det_code against the Leibniz expansion; fq_invert and fq_rank against
    it, on random GL_n(F_q) and singular matrices."""
    from borelext.group import Mat

    fld = make_field(p, f)
    rng = np.random.default_rng(100 * p + 10 * f + n)
    eye = [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
    singular = 0
    for _ in range(150):
        codes = tuple(int(c) for c in rng.integers(0, fld.q, size=n * n))
        if _ == 0:
            codes = (0,) * n * n
        rows = [codes[i * n : (i + 1) * n] for i in range(n)]
        det = _perm_det(rows, fld)
        assert Mat(fld, n, codes).det_code() == det
        inv = fq_invert(rows, fld)
        assert (inv is None) == (det == 0)
        if inv is not None:
            assert _fq_matmul(rows, inv, fld) == eye
            assert fq_rank(rows, fld) == n
        else:
            singular += 1
            assert fq_rank(rows, fld) < n
    assert singular > 1
