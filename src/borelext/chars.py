"""Characters of the diagonal torus of GL_n(F_q) as exponent vectors mod
q-1, with simple roots, Weyl twists, Frobenius twists and the twist-matching
predicates used to predict Ext non-vanishing.

A character chi with exponents (a_1, ..., a_n) sends diag(t_1, ..., t_n) to
the product of t_i^{a_i}.  All lattice operations are exact arithmetic on
exponents; evaluation goes through the field's discrete-log table and
returns the value's code.  The Weyl twist convention is chi^w(t) = chi(w t
w^{-1}).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .field import is_prime


def _char_p(qm1: int) -> int:
    """The prime p with qm1 + 1 = p^f."""
    q = qm1 + 1
    for d in range(2, q + 1):
        if q % d == 0:
            m = q
            while m % d == 0:
                m //= d
            if m != 1 or not is_prime(d):
                raise ValueError(f"{q} is not a prime power")
            return d
    raise ValueError(f"{q} is not a prime power")


def _ext_degree(qm1: int, p: int) -> int:
    q, f = qm1 + 1, 0
    while q > 1:
        q //= p
        f += 1
    return f


@dataclass(frozen=True)
class TorusChar:
    """Exponent vector mod q-1 of a torus character."""

    exps: tuple[int, ...]
    qm1: int

    def __post_init__(self):
        object.__setattr__(self, "exps", tuple(e % self.qm1 for e in self.exps))

    @property
    def n(self) -> int:
        return len(self.exps)

    def __mul__(self, other: "TorusChar") -> "TorusChar":
        if self.qm1 != other.qm1:
            raise ValueError(f"characters mod {self.qm1} and mod {other.qm1} do not multiply")
        return TorusChar(tuple(a + b for a, b in zip(self.exps, other.exps)), self.qm1)

    def inverse(self) -> "TorusChar":
        return TorusChar(tuple(-a for a in self.exps), self.qm1)

    def __repr__(self):
        return f"TorusChar{self.exps}"


def trivial_char(n: int, qm1: int) -> TorusChar:
    return TorusChar((0,) * n, qm1)


def all_chars(n: int, qm1: int) -> list[TorusChar]:
    """All (q-1)^n characters, in lexicographic exponent order."""
    return [TorusChar(e, qm1) for e in itertools.product(range(qm1), repeat=n)]


def simple_root(i: int, n: int, qm1: int) -> TorusChar:
    """alpha_i(t) = t_i / t_{i+1}, for 1 <= i <= n-1."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"simple root index {i} out of range for n = {n}")
    exps = [0] * n
    exps[i - 1] = 1
    exps[i] = -1
    return TorusChar(tuple(exps), qm1)


def evaluate(chi: TorusChar, t) -> int:
    """The code of chi(t) at a diagonal matrix t over the field of chi, the
    generator's power at the sum of a_i * dlog(t_i)."""
    if not t.is_diagonal():
        raise ValueError("character evaluation needs a diagonal matrix")
    fld = t.field
    if fld.q - 1 != chi.qm1:
        raise ValueError("character and matrix live over different fields")
    e = sum(a * fld.dlog_code(code) for a, code in zip(chi.exps, t.diagonal_codes()))
    return fld.pow_code(fld.generator_code, e % chi.qm1)


def weyl_twist(chi: TorusChar, w) -> TorusChar:
    """chi^w(t) = chi(w t w^{-1}); permutes exponents by w."""
    return TorusChar(tuple(chi.exps[w.perm[j] - 1] for j in range(chi.n)), chi.qm1)


def frobenius_twist(chi: TorusChar, k: int) -> TorusChar:
    """Post-composition with x -> x^{p^k}; multiplies exponents by p^k."""
    p = _char_p(chi.qm1)
    m = pow(p, k % _ext_degree(chi.qm1, p), chi.qm1)
    return TorusChar(tuple(m * a for a in chi.exps), chi.qm1)


@dataclass(frozen=True)
class TwistWitness:
    """Data certifying chi = p^k * alpha_i (after an optional Weyl twist)."""

    root_index: int
    frob_power: int
    weyl: object = None  # WeylElement or None

    def holds_for(self, chi: TorusChar) -> bool:
        alpha = simple_root(self.root_index, chi.n, chi.qm1)
        return frobenius_twist(alpha, self.frob_power) == chi

    def holds_for_pair(self, chi1: TorusChar, chi2: TorusChar) -> bool:
        target = chi2 if self.weyl is None else weyl_twist(chi2, self.weyl)
        return self.holds_for(chi1.inverse() * target)

    def __repr__(self):
        w = f", w={self.weyl.perm}" if self.weyl is not None else ""
        return f"TwistWitness(i={self.root_index}, k={self.frob_power}{w})"


def _root_twists(n: int, qm1: int) -> list[tuple[int, int, tuple[int, ...]]]:
    """(k, i, exponents of p^k * alpha_i), scanning k then i."""
    p = _char_p(qm1)
    out = []
    for k in range(_ext_degree(qm1, p)):
        m = pow(p, k, qm1)
        for i in range(1, n):
            exps = [0] * n
            exps[i - 1], exps[i] = m % qm1, -m % qm1
            out.append((k, i, tuple(exps)))
    return out


def match_simple_root_twist(chi: TorusChar) -> TwistWitness | None:
    """First (k, i) with chi = p^k * alpha_i, scanning k then i; None if no
    Frobenius twist of a simple root matches."""
    for k, i, exps in _root_twists(chi.n, chi.qm1):
        if exps == chi.exps:
            return TwistWitness(i, k)
    return None


def match_theorem1_condition(chi1: TorusChar, chi2: TorusChar, weyls) -> TwistWitness | None:
    """First (k, i, w) with chi1^{-1} * chi2^w = p^k * alpha_i, w scanned
    in the order of weyls, which must be Bruhat-length order (as
    group.weyl_elements returns it) so that the identity is tried first."""
    if chi1.qm1 != chi2.qm1:
        raise ValueError(f"characters mod {chi1.qm1} and mod {chi2.qm1} do not multiply")
    qm1 = chi1.qm1
    # the first w, in scan order, for each exponent vector of chi1^{-1} * chi2^w
    first: dict[tuple[int, ...], object] = {}
    for w in weyls:
        exps = tuple((chi2.exps[w.perm[j] - 1] - a) % qm1 for j, a in enumerate(chi1.exps))
        first.setdefault(exps, w)
    for k, i, exps in _root_twists(chi1.n, qm1):
        w = first.get(exps)
        if w is not None:
            return TwistWitness(i, k, w)
    return None


def eigencharacters(Q, field) -> list[tuple[TorusChar, int]]:
    """Characters of the torus on a module after scalar extension to F_q.

    Q is a module over an abelian group of diagonal matrices whose order is
    coprime to p.  For each of the (q-1)^n characters beta the F_q-dimension
    m_beta of the common eigenspace {v : t v = beta(t) v for all t} is
    computed; pairs with m_beta > 0 are returned in exponent order.
    """
    T = Q.group
    if T.order % field.p == 0:
        raise ValueError("group order is divisible by p; not semisimple")
    qm1 = field.q - 1
    acts = [np.asarray(a, dtype=np.int64) for a in Q.gen_action]
    out = []
    for beta in all_chars(T.n, qm1):
        m = _common_eigenspace_dim(acts, T.generators, beta, field, Q.dim)
        if m:
            out.append((beta, m))
    return out


def _common_eigenspace_dim(acts, gens, beta, field, dim) -> int:
    rows = []
    for A, t in zip(acts, gens):
        lam = evaluate(beta, t)
        for r in range(dim):
            row = [int(A[r, c]) % field.p for c in range(dim)]
            row[r] = field.sub_code(row[r], lam)
            rows.append(row)
    return linalg.fq_nullity(rows, field, dim)
