"""Arithmetic in F_q = F_{p^f} for odd primes p.

Elements are stored as length-f coefficient vectors over F_p in the basis
1, x, ..., x^{f-1} modulo a fixed irreducible polynomial, and are carried
around as integer codes c_0 + c_1 p + ... + c_{f-1} p^{f-1}.  A field
element is always its code: there is no element object.  There is one
arithmetic on codes, in a scalar form on Python ints (add_code, mul_code,
pow_code, ...) and an array form on numpy arrays of codes (mul_array,
sum_arrays, inv_array, dlog_array): a product adds discrete logs against a
fixed multiplicative generator and reads the power back, and a sum adds
base-p digits mod p.  Only field construction multiplies coefficient
vectors, to find the generator and its powers.

The modulus is the lexicographically smallest monic irreducible of its
degree (coefficients compared constant term first), and the generator is
the element of order q-1 with the lexicographically smallest coefficient
vector.  Both choices are deterministic and easy to recompute elsewhere.
"""

from __future__ import annotations

import itertools

import numpy as np

DEFAULT_MAX_Q = 1 << 16


class FieldError(ValueError):
    pass


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


def _factorize(m: int) -> list[int]:
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


class FieldCtx:
    """The field F_{p^f}: modulus, generator and discrete logs.

    _log0[a] is the discrete log of the code a, and 2(q - 1) for a = 0;
    _pow0[e] is the generator's e-th power for e < 2(q - 1) and 0 from
    there on, so a * b = _pow0[_log0[a] + _log0[b]] for every pair of
    codes.  The scalar forms read the same two tables as Python lists,
    which index faster one element at a time.  a // p^m is the code a's
    m-th base-p digit up to a multiple of p, so sums add those mod p."""

    def __init__(self, p: int, f: int):
        if p == 2:
            raise FieldError("p must be an odd prime (p = 2 is not supported)")
        if not is_prime(p):
            raise FieldError(f"p = {p} is not prime")
        if f < 1:
            raise FieldError(f"extension degree must be >= 1, got {f}")
        q = p**f
        if q > DEFAULT_MAX_Q:
            raise FieldError(f"q = {p}^{f} = {q} exceeds the table cap {DEFAULT_MAX_Q}")
        self.p = p
        self.f = f
        self.q = q
        self._pp = [p**i for i in range(f)]
        self.modulus = self._find_modulus()
        # x^k mod modulus for k up to 2f-2, as coefficient tuples
        self._xpow = self._reduction_table()
        self.generator_code = self._find_generator()
        self._dlog, self._gpow = self._build_dlog()
        self._log0 = np.where(self._dlog < 0, 2 * (q - 1), self._dlog)
        self._pow0 = np.concatenate([self._gpow, self._gpow, np.zeros(2 * q - 1, dtype=np.int64)])
        self._logs, self._pows = self._log0.tolist(), self._pow0.tolist()
        self._powmats: np.ndarray | None = None

    # --- construction helpers -------------------------------------------

    def _find_modulus(self) -> tuple[int, ...]:
        p, f = self.p, self.f
        if f == 1:
            return (0, 1)  # the polynomial x; the field is F_p itself
        for tail in itertools.product(range(p), repeat=f):
            cand = tuple(tail) + (1,)
            if self._is_irreducible(cand):
                return cand
        raise FieldError("no irreducible polynomial found")  # unreachable

    def _is_irreducible(self, poly: tuple[int, ...]) -> bool:
        # trial division by every lower-degree monic; fine at desk scale
        p = self.p
        f = len(poly) - 1
        for d in range(1, f // 2 + 1):
            for tail in itertools.product(range(p), repeat=d):
                div = tuple(tail) + (1,)
                if not any(_poly_mod(poly, div, p)):
                    return False
        return True

    def _reduction_table(self):
        # x^k mod modulus for k = 0 .. 2f-2
        top = 2 * self.f - 1
        return [tuple(_poly_mod(tuple(int(i == k) for i in range(top)), self.modulus, self.p))
                for k in range(top)]

    def _find_generator(self) -> int:
        primes = _factorize(self.q - 1)
        for tail in itertools.product(range(self.p), repeat=self.f):
            code = sum(c * self._pp[i] for i, c in enumerate(tail))
            if code == 0:
                continue
            if all(self._pow_raw(code, (self.q - 1) // ell) != 1 for ell in primes):
                return code
        raise FieldError("no generator found")  # unreachable

    def _build_dlog(self):
        q = self.q
        dlog = np.full(q, -1, dtype=np.int64)
        gpow = np.zeros(q - 1, dtype=np.int64)
        c = 1
        for e in range(q - 1):
            if dlog[c] != -1:
                raise FieldError("generator order too small")
            dlog[c] = e
            gpow[e] = c
            c = self._mul_raw(c, self.generator_code)
        if c != 1:
            raise FieldError("generator order does not divide q-1")
        return dlog, gpow

    # --- code arithmetic --------------------------------------------------

    def code_coeffs(self, code: int) -> tuple[int, ...]:
        return tuple(code // m % self.p for m in self._pp)

    def coeffs_code(self, coeffs) -> int:
        if len(coeffs) > self.f:
            raise FieldError("too many coefficients")
        return sum((c % self.p) * self._pp[i] for i, c in enumerate(coeffs))

    def _mul_raw(self, a: int, b: int) -> int:
        """a * b by multiplying coefficient vectors mod the modulus."""
        p, f = self.p, self.f
        ca = self.code_coeffs(a)
        cb = self.code_coeffs(b)
        acc = [0] * f
        for i, ai in enumerate(ca):
            if not ai:
                continue
            for j, bj in enumerate(cb):
                if not bj:
                    continue
                red = self._xpow[i + j]
                m = ai * bj
                for k in range(f):
                    if red[k]:
                        acc[k] = (acc[k] + m * red[k]) % p
        return sum(c * self._pp[i] for i, c in enumerate(acc))

    def _pow_raw(self, a: int, e: int) -> int:
        """a^e for e >= 0 by square and multiply with _mul_raw."""
        out = 1
        while e:
            if e & 1:
                out = self._mul_raw(out, a)
            a = self._mul_raw(a, a)
            e >>= 1
        return out

    def add_code(self, a: int, b: int) -> int:
        p = self.p
        return sum((a // m + b // m) % p * m for m in self._pp)

    def sub_code(self, a: int, b: int) -> int:
        p = self.p
        return sum((a // m - b // m) % p * m for m in self._pp)

    def neg_code(self, a: int) -> int:
        p = self.p
        return sum(-(a // m) % p * m for m in self._pp)

    def mul_code(self, a: int, b: int) -> int:
        logs = self._logs
        return self._pows[logs[a] + logs[b]]

    def inv_code(self, a: int) -> int:
        if a == 0:
            raise FieldError("division by zero in F_q")
        return self.pow_code(a, -1)

    def pow_code(self, a: int, e: int) -> int:
        if a == 0:
            if e > 0:
                return 0
            if e == 0:
                return 1
            raise FieldError("0 has no negative powers")
        return self._pows[self._logs[a] * e % (self.q - 1)]

    def dlog_code(self, a: int) -> int:
        if a == 0:
            raise FieldError("dlog(0) is undefined")
        return self._logs[a]

    # --- array arithmetic -------------------------------------------------

    def mul_array(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The products of two arrays of codes, entrywise, broadcast."""
        return self._pow0[self._log0[a] + self._log0[b]]

    def sum_arrays(self, terms) -> np.ndarray:
        """The sum of an iterable of arrays of codes, entrywise, broadcast."""
        pp = np.array(self._pp)
        return sum(t[..., None] // pp for t in terms) % self.p @ pp

    def inv_array(self, a: np.ndarray) -> np.ndarray:
        """The inverses of an array of nonzero codes."""
        return self._gpow[-self._dlog[a] % (self.q - 1)]

    def dlog_array(self, a: np.ndarray) -> np.ndarray:
        """The discrete logs of an array of nonzero codes."""
        return self._dlog[a]

    def mult_matrix(self, code: int) -> np.ndarray:
        """Multiplication by the element as an F_p-linear map on F_q,
        columns indexed by the basis 1, x, ..., x^{f-1}."""
        f = self.f
        out = np.zeros((f, f), dtype=np.int64)
        for j in range(f):
            col = self.code_coeffs(self.mul_code(code, self._pp[j]))
            out[:, j] = col
        return out

    def power_matrices(self) -> np.ndarray:
        """mult_matrix of generator^e for every e < q - 1, shape (q - 1, f,
        f), as uint8, built on first use and read-only.  Its one reader is
        the module code, which needs p < 256, so the entries fit."""
        if self._powmats is None:
            self._powmats = np.stack([self.mult_matrix(int(c)) for c in self._gpow]).astype(np.uint8)
            self._powmats.setflags(write=False)
        return self._powmats

    def poly_str(self, code: int) -> str:
        coeffs = self.code_coeffs(code)
        terms = []
        for i, c in enumerate(coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                head = "" if c == 1 else str(c)
                terms.append(f"{head}x" if i == 1 else f"{head}x^{i}")
        return "+".join(terms) if terms else "0"

    def __repr__(self):
        return f"FieldCtx(p={self.p}, f={self.f}, modulus={self.poly_str(self.coeffs_code(self.modulus[:-1]))}+x^{self.f})"


def _poly_mod(a: tuple[int, ...], m: tuple[int, ...], p: int) -> list[int]:
    """Remainder of a by monic m, coefficient lists over F_p."""
    a = [c % p for c in a]
    dm = len(m) - 1
    for k in range(len(a) - 1, dm - 1, -1):
        c = a[k]
        if c:
            a[k] = 0
            for j in range(dm):
                a[k - dm + j] = (a[k - dm + j] - c * m[j]) % p
    return a[:dm]


def make_field(p: int, f: int) -> FieldCtx:
    """Build the F_{p^f} context; rejects p = 2 and q above DEFAULT_MAX_Q,
    read at call time."""
    return FieldCtx(p, f)

