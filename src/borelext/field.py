"""Arithmetic in F_q = F_{p^f} for odd primes p.

Elements are stored as length-f coefficient vectors over F_p in the basis
1, x, ..., x^{f-1} modulo a fixed irreducible polynomial, and are carried
around as integer codes c_0 + c_1 p + ... + c_{f-1} p^{f-1}.  The context
precomputes a discrete-log table against a fixed multiplicative generator,
which makes character evaluation and inversion table lookups.

The modulus is the lexicographically smallest monic irreducible of its
degree (coefficients compared constant term first), and the generator is
the element of order q-1 with the lexicographically smallest coefficient
vector.  Both choices are deterministic and easy to recompute elsewhere.
"""

from __future__ import annotations

import itertools

import numpy as np

DEFAULT_MAX_Q = 1 << 16
_LIST_TABLE_MAX_Q = 1024


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


class Fq:
    """A single element of F_q, tied to its FieldCtx."""

    __slots__ = ("field", "code")

    def __init__(self, field: "FieldCtx", code: int):
        self.field = field
        self.code = code

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.field.code_coeffs(self.code)

    def __eq__(self, other):
        if isinstance(other, Fq):
            return self.code == other.code and self.field is other.field
        if isinstance(other, int):
            return self.code == other % self.field.p
        return NotImplemented

    def __hash__(self):
        return hash((self.field.p, self.field.f, self.code))

    def __bool__(self):
        return self.code != 0

    def _coerce(self, other) -> int:
        if isinstance(other, Fq):
            if other.field is not self.field:
                raise FieldError("elements of different fields")
            return other.code
        if isinstance(other, int):
            return other % self.field.p
        return NotImplemented

    def __add__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return Fq(self.field, self.field.add_code(self.code, c))

    __radd__ = __add__

    def __sub__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return Fq(self.field, self.field.sub_code(self.code, c))

    def __rsub__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return Fq(self.field, self.field.sub_code(c, self.code))

    def __neg__(self):
        return Fq(self.field, self.field.neg_code(self.code))

    def __mul__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return Fq(self.field, self.field.mul_code(self.code, c))

    __rmul__ = __mul__

    def __truediv__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return Fq(self.field, self.field.mul_code(self.code, self.field.inv_code(c)))

    def __pow__(self, e: int):
        return Fq(self.field, self.field.pow_code(self.code, e))

    def inv(self) -> "Fq":
        return Fq(self.field, self.field.inv_code(self.code))

    def __repr__(self):
        return f"Fq({self.field.p}^{self.field.f}: {self.field.poly_str(self.code)})"


class FieldCtx:
    """The field F_{p^f}: modulus, generator, discrete logs, Frobenius."""

    def __init__(self, p: int, f: int, max_q: int = DEFAULT_MAX_Q):
        if p == 2:
            raise FieldError("p must be an odd prime (p = 2 is not supported)")
        if not is_prime(p):
            raise FieldError(f"p = {p} is not prime")
        if f < 1:
            raise FieldError(f"extension degree must be >= 1, got {f}")
        q = p**f
        if q > max_q:
            raise FieldError(f"q = {p}^{f} = {q} exceeds the table cap {max_q}")
        self.p = p
        self.f = f
        self.q = q
        self._pp = [p**i for i in range(f)]
        self.modulus = self._find_modulus()
        # x^k mod modulus for k up to 2f-2, as coefficient tuples
        self._xpow = self._reduction_table()
        self._mulL = None
        self._addL = None
        if q <= _LIST_TABLE_MAX_Q:
            self._build_list_tables()
        self.generator_code = self._find_generator()
        self._dlog, self._gpow = self._build_dlog()
        self._inv = np.zeros(q, dtype=np.int64)
        for c in range(1, q):
            self._inv[c] = self._gpow[(q - 1 - self._dlog[c]) % (q - 1)]
        self._frob1 = np.array([self.pow_code(c, p) for c in range(q)], dtype=np.int64)

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
        p, f = self.p, self.f
        table = []
        for k in range(2 * f - 1):
            mono = [0] * k + [1]
            table.append(tuple(_poly_mod(tuple(mono), self.modulus, p)) + (0,) * f)
        return [t[:f] for t in table]

    def _build_list_tables(self):
        q = self.q
        mul = [[0] * q for _ in range(q)]
        add = [[0] * q for _ in range(q)]
        for a in range(q):
            for b in range(a, q):
                m = self._mul_raw(a, b)
                s = self._add_raw(a, b)
                mul[a][b] = mul[b][a] = m
                add[a][b] = add[b][a] = s
        self._mulL = mul
        self._addL = add

    def _find_generator(self) -> int:
        primes = _factorize(self.q - 1)
        for tail in itertools.product(range(self.p), repeat=self.f):
            code = sum(c * self._pp[i] for i, c in enumerate(tail))
            if code == 0:
                continue
            if all(self.pow_code(code, (self.q - 1) // ell) != 1 for ell in primes):
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
            c = self.mul_code(c, self.generator_code)
        if c != 1:
            raise FieldError("generator order does not divide q-1")
        return dlog, gpow

    # --- code arithmetic --------------------------------------------------

    def code_coeffs(self, code: int) -> tuple[int, ...]:
        p = self.p
        out = []
        for _ in range(self.f):
            out.append(code % p)
            code //= p
        return tuple(out)

    def coeffs_code(self, coeffs) -> int:
        if len(coeffs) > self.f:
            raise FieldError("too many coefficients")
        return sum((c % self.p) * self._pp[i] for i, c in enumerate(coeffs))

    def _add_raw(self, a: int, b: int) -> int:
        p = self.p
        out = 0
        for pp in self._pp:
            out += (((a // pp) + (b // pp)) % p) * pp
        return out

    def _mul_raw(self, a: int, b: int) -> int:
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

    def add_code(self, a: int, b: int) -> int:
        if self._addL is not None:
            return self._addL[a][b]
        return self._add_raw(a, b)

    def sub_code(self, a: int, b: int) -> int:
        return self.add_code(a, self.neg_code(b))

    def neg_code(self, a: int) -> int:
        p = self.p
        out = 0
        for pp in self._pp:
            out += ((-(a // pp)) % p) * pp
        return out

    def mul_code(self, a: int, b: int) -> int:
        if self._mulL is not None:
            return self._mulL[a][b]
        return self._mul_raw(a, b)

    def inv_code(self, a: int) -> int:
        if a == 0:
            raise FieldError("division by zero in F_q")
        return int(self._inv[a])

    def pow_code(self, a: int, e: int) -> int:
        if a == 0:
            if e > 0:
                return 0
            if e == 0:
                return 1
            raise FieldError("0 has no negative powers")
        if hasattr(self, "_dlog"):
            return int(self._gpow[(int(self._dlog[a]) * e) % (self.q - 1)])
        # used during construction, before the dlog table exists
        if e < 0:
            raise FieldError("negative power before tables are ready")
        out, base = 1, a
        while e:
            if e & 1:
                out = self.mul_code(out, base)
            base = self.mul_code(base, base)
            e >>= 1
        return out

    def frob_code(self, a: int, k: int = 1) -> int:
        for _ in range(k % self.f):
            a = int(self._frob1[a])
        return a

    def dlog_code(self, a: int) -> int:
        if a == 0:
            raise FieldError("dlog(0) is undefined")
        return int(self._dlog[a])

    # --- element-level API ------------------------------------------------

    @property
    def zero(self) -> Fq:
        return Fq(self, 0)

    @property
    def one(self) -> Fq:
        return Fq(self, 1)

    @property
    def generator(self) -> Fq:
        return Fq(self, self.generator_code)

    def element(self, coeffs) -> Fq:
        if isinstance(coeffs, int):
            return Fq(self, coeffs % self.p)
        return Fq(self, self.coeffs_code(coeffs))

    def from_code(self, code: int) -> Fq:
        if not 0 <= code < self.q:
            raise FieldError(f"code {code} out of range")
        return Fq(self, code)

    def elements(self):
        return (Fq(self, c) for c in range(self.q))

    def mult_matrix(self, code: int) -> np.ndarray:
        """Multiplication by the element as an F_p-linear map on F_q,
        columns indexed by the basis 1, x, ..., x^{f-1}."""
        f = self.f
        out = np.zeros((f, f), dtype=np.int64)
        for j in range(f):
            col = self.code_coeffs(self.mul_code(code, self._pp[j]))
            out[:, j] = col
        return out

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


def make_field(p: int, f: int, max_q: int = DEFAULT_MAX_Q) -> FieldCtx:
    """Build the F_{p^f} context; rejects p = 2 and oversized q."""
    return FieldCtx(p, f, max_q=max_q)


def frobenius(a: Fq, k: int = 1) -> Fq:
    """a^(p^k); a field automorphism, the identity when k = f."""
    return Fq(a.field, a.field.frob_code(a.code, k))


def dlog(a: Fq) -> int:
    """Exponent e with generator^e = a, as an integer mod q-1."""
    return a.field.dlog_code(a.code)
