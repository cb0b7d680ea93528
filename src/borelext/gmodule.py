"""Finite-dimensional F_p[H]-modules for the matrix groups built here:
character modules F_q[chi], induced modules Ind_B^G chi, Hom modules,
restriction, and isomorphism testing of character modules.

Every verdict solves over one module kind, MonomialModule: every element
moves each block of F_q to one block and scales it by chi of a diagonal.
An induced module has a block per right coset of B\\G, over any group H of
matrices (G itself, or T and N for the restrictions the Shapiro route
reads), a character module is the one-block case, and Hom_{F_q} of two
of them is one on the pairs of their blocks.  The cosets are in Bruhat
normal form (group.BruhatCosets), which holds the action of T's and N's
generators from its search; right_coset_data gives another group's, once
per group, so no element table of G is walked to build a module.

A module has one invertible matrix over F_p per group generator (a
monomial module writes them on first read); the action of an arbitrary
element (act) is the product of the generator matrices along the element's
word in the group's BFS tree.  A cocycle solve asks a module for reads on
batches of elements: the products of their matrices with a vector or a
stack of them (apply), the signed sums of their matrices over runs of
terms (run_sums, a chunk's rows), and the vectors an element of order
prime to p fixes (invariants, the gauge).  A monomial module answers all
three from integers, with no table and no d x d matrix: the group keeps
one skeleton per block action (the block each element sends each block
to, and the logs of the diagonal it scales by), chi turns the logs into
scalars, and a Hom module reads its factors'.  run_sums scatters each
term's k f^2 nonzeros, and invariants reads the cycles of the element's
block permutation.  Any other module (trivial, det, F_p-Hom, restricted,
quotient) answers from the uint8 table of every element's action (at),
filled with matrix products along the tree on first use: apply multiplies
its rows in int64 without converting the table, run_sums adds the
matrices, and invariants reduces the image of the projector onto them.
Modules are immutable apart from those caches.
"""

from __future__ import annotations

import functools
import itertools
import weakref

import numpy as np

from . import linalg
from .chars import TorusChar
from .group import (
    BruhatCosets,
    Mat,
    MatrixGroup,
    StructureError,
    batch_mul,
    batch_normal_form,
    code_stack,
    coset_action,
    identity_mat,
    indecomposable_roots,
)


class ModuleError(ValueError):
    pass


class FpModule:
    """An F_p[H]-module given by generator action matrices.

    Its table of every element's action (act_all) is filled along the BFS
    tree with batched products of the generator matrices.  That holds for
    any module, so the subclasses that write their tables another way are
    tested against this builder."""

    def __init__(self, group: MatrixGroup, gen_action, label: str = "", dim: int | None = None,
                 fq_form: bool = False, derived: bool = False):
        self.group = group
        self.p = group.field.p
        if self.p >= 256:
            raise ModuleError("module machinery expects p < 256")
        self.label = label
        self._all: np.ndarray | None = None
        # fq_form: the F_p-basis is grouped in blocks of f on which scalar
        # multiplication by F_q acts block-diagonally and commutes with the
        # group action (true for character and induced modules)
        self.fq_form = fq_form
        if gen_action is None:  # a subclass that writes them on first read
            self.dim = dim
            return
        self.gen_action = [np.asarray(a, dtype=np.int64) % self.p for a in gen_action]
        if len(self.gen_action) != len(group.generators):
            raise ModuleError("one action matrix per group generator required")
        dims = {a.shape for a in self.gen_action}
        if len(dims) > 1 or any(a.shape[0] != a.shape[1] for a in self.gen_action):
            raise ModuleError("action matrices must be square of equal size")
        if self.gen_action:
            self.dim = self.gen_action[0].shape[0]
        elif dim is not None:
            self.dim = dim
        else:
            raise ModuleError("a module over a generator-free group needs an explicit dim")
        # derived: the generators are invertible by construction, so the
        # check is skipped: hom, F_q-hom and restriction combine checked
        # modules' maps by invertible products, a character (or the torus
        # on N'^ab) acts by nonzero field elements, chi(t) (or t_i/t_j), and
        # an induced module by nonzero scalar blocks placed along the coset
        # permutations that coset_action checks
        if not derived:
            for a in self.gen_action:
                if not linalg.is_invertible_mod(a, self.p):
                    raise ModuleError("generator action is singular")

    def act(self, elt_id: int) -> np.ndarray:
        """Action matrix of an element: the product of the generator
        matrices along its BFS word; a generator's is its stored matrix."""
        word = self.group.word(elt_id)
        if not word:
            return np.eye(self.dim, dtype=np.int64)
        m = self.gen_action[word[0]]
        for s in word[1:]:
            m = m @ self.gen_action[s] % self.p
        return m

    def act_all(self) -> np.ndarray:
        """Action of every element, shape (|H|, d, d), as uint8."""
        if self._all is None:
            self._all = self._build_all()
        return self._all

    def _build_all(self) -> np.ndarray:
        """The table filled level by level along the BFS tree with batched
        products."""
        size = self.group.order
        out = np.zeros((size, self.dim, self.dim), dtype=np.int64)
        out[self.group.identity_id] = np.eye(self.dim, dtype=np.int64)
        for s, parents, children in self.group.tree_batches:
            out[children] = linalg.mod(out[parents] @ self.gen_action[s], self.p)
        return out.astype(np.uint8)

    def at(self, ids) -> np.ndarray:
        """rho(ids[k]) for each k, shape (len(ids), d, d), as uint8; ids is
        an index array or a slice of element ids.  Once built, the table is
        read without calling act_all, whose calls then count tables, not
        batches."""
        return (self._all if self._all is not None else self.act_all())[ids]

    def apply(self, ids, v: np.ndarray) -> np.ndarray:
        """rho(ids[k]) v for each k, shape (len(ids), d), not reduced mod p,
        or (len(ids), h, d) for a stack v of h vectors.  The uint8 rows are
        multiplied in int64 without a converted copy of the table."""
        return np.einsum("kij,...j->k...i", self.at(ids), v)

    def run_sums(self, ids, signs: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """The sums of signs[t] rho(ids[t]) over each run of terms t from
        starts[r] to starts[r + 1], shape (len(starts), d, d), not reduced
        mod p."""
        return np.add.reduceat(self.at(ids) * signs[:, None, None], starts, axis=0)

    def invariants(self, powers: np.ndarray) -> np.ndarray:
        """Rows spanning the vectors that rho(x) fixes, where powers are the
        element ids of x^0, ..., x^(m-1), m prime to p: the reduced rows of
        the image of the projector m^{-1} sum_i rho(x^i)."""
        fixed = linalg.RowReducer(self.p, self.dim)
        fixed.add_rows(self.at(powers).sum(axis=0, dtype=np.int64).T)
        return fixed.rows

    def __repr__(self):
        return f"FpModule({self.label or 'module'}, dim={self.dim} over F_{self.p}, group={self.group.label})"


def trivial_module(H: MatrixGroup, dim: int = 1) -> FpModule:
    eye = np.eye(dim, dtype=np.int64)
    return FpModule(H, [eye.copy() for _ in H.generators], label="trivial", dim=dim)


def det_char_module(G: MatrixGroup, a: int) -> FpModule:
    """F_q with g acting by multiplication by det(g)^a; the characters of
    the full matrix group are exactly these determinant powers."""
    fld = G.field
    acts = []
    for g in G.generators:
        acts.append(fld.mult_matrix(fld.pow_code(g.det_code(), a)))
    return FpModule(G, acts, label=f"det^{a}", fq_form=True)


class MonomialModule(FpModule):
    """chi spread over k blocks of F_q that the elements of H permute and
    scale: Ind_B^G chi over a group H of n x n matrices on the k right
    cosets B\\G (induced_module), with k = 1 the character module F_q[chi]
    of an upper-triangular H (char_module), and Hom_{F_q} of two such
    modules on the pairs of their blocks (fq_hom_module).

    Generator s sends block i to block target[i, s] and scales it by
    chi(t), where t is the diagonal with discrete logs logs[i, s]: block
    (i, target[i, s]) of its matrix is multiplication by chi(t).  A product
    of such matrices is again one, with the targets composed and the logs
    added, because the diagonal of a product of upper-triangular matrices
    is the product of the diagonals.  So element x sends block i to P[x, i]
    and scales it by zeta^E[x, i], E = L chi, where (P, L) is the group's
    skeleton (_skeleton), which depends on (target, logs) and not on chi;
    a Hom module reads (P, E) from its two factors.  No table is kept: at
    writes the matrices at the ids asked for, apply gathers v's blocks
    along P and scales each once, run_sums scatters the nonzeros of the
    terms, and invariants reads the cycles of P.  The generator matrices
    are written on first read; h1_dim makes none.
    """

    def __init__(self, H: MatrixGroup, target: np.ndarray, logs: np.ndarray, chi: TorusChar,
                 label: str, factors: tuple[MonomialModule, MonomialModule] | None = None):
        self.target, self.logs, self.chi, self.factors = target, logs, chi, factors
        self.k = target.shape[0]
        self._scalars = H.field.power_matrices().astype(np.uint8)  # zeta^e, e < q - 1
        self._skel: tuple[np.ndarray, np.ndarray] | None = None  # P and E at every element
        if factors is not None:  # the pair (j, i) of factor blocks of each block j k1 + i
            self._pair = np.divmod(np.arange(self.k), factors[0].k)
        super().__init__(H, None, label=label, dim=self.k * H.field.f, fq_form=True)

    @functools.cached_property
    def gen_action(self) -> list[np.ndarray]:
        """The generator matrices, int64, written on first read: h1_dim
        reads none, so a solve the memory guard refuses never holds them."""
        gen_exps = self.logs.transpose(1, 0, 2) @ np.array(self.chi.exps) % (self.group.field.q - 1)
        return list(self._matrices(self.target.T, gen_exps).astype(np.int64))

    def _blocks(self, ids) -> tuple[np.ndarray, np.ndarray]:
        """P and E at ids, shapes (len(ids), k); a Hom's block (j, i) goes
        to (P2[x, j], P1[x, i]), scaled by zeta^(E2[x, j] - E1[x, i])."""
        qm1 = self.group.field.q - 1
        if self.factors is not None:
            (P1, E1), (P2, E2) = (M._blocks(ids) for M in self.factors)
            j, i = self._pair
            E = E2[:, j] - E1[:, i]
            E += qm1 * (E < 0)  # a difference of two logs, back in [0, q - 1) without a %
            return (P2 * P1.shape[1])[:, j] + P1[:, i], E
        if self._skel is None:
            P, L = _skeleton(self.group, self.target, self.logs)
            self._skel = P, L @ np.array(self.chi.exps) % qm1
        P, E = self._skel
        return P[ids], E[ids]

    def _matrices(self, P: np.ndarray, E: np.ndarray) -> np.ndarray:
        """One uint8 matrix per row x of P: block (i, P[x, i]) is
        multiplication by zeta^E[x, i]; with one block, one gather."""
        if self.k == 1:
            return self._scalars[E[:, 0]]
        (m, k), f = P.shape, self._scalars.shape[1]
        out = np.zeros((m, k, f, k, f), dtype=np.uint8)
        out[np.arange(m)[:, None], np.arange(k), :, P, :] = self._scalars[E]
        return out.reshape(m, k * f, k * f)

    def at(self, ids) -> np.ndarray:
        return self._matrices(*self._blocks(ids))

    def apply(self, ids, v: np.ndarray) -> np.ndarray:
        P, E = self._blocks(ids)
        blocks = v.reshape(-1, self.k, v.shape[-1] // self.k).take(P, axis=1)  # (h, m, k, f)
        scale = self._scalars[E]
        out = scale[..., 0] * blocks[..., :1]
        for j in range(1, blocks.shape[-1]):  # the f columns of each zeta^E
            out += scale[..., j] * blocks[..., j : j + 1]
        return out.transpose(1, 0, 2, 3).reshape(len(P), *v.shape)

    def run_sums(self, ids, signs: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """Each term's k f^2 nonzeros, sign times zeta^E[t, i] at rows of
        block i and columns of block P[t, i] of its run, summed in one
        scatter; with one block a term is one gather, summed as a table's."""
        if self.k == 1:
            return super().run_sums(ids, signs, starts)
        P, E = self._blocks(ids)
        (m, k), f = P.shape, self._scalars.shape[1]
        run = np.repeat(np.arange(len(starts)), np.diff(starts, append=m))
        rows = ((run[:, None] * k + np.arange(k))[..., None] * f + np.arange(f)) * k  # (m, k, f)
        flat = ((rows + P[:, :, None])[..., None] * f + np.arange(f)).ravel()  # (m, k, f, f)
        out = np.zeros(len(starts) * k * f * k * f, dtype=np.int64)
        np.add.at(out, flat, (self._scalars[E] * signs[:, None, None, None]).ravel())
        return out.reshape(len(starts), k * f, k * f)

    def invariants(self, powers: np.ndarray) -> np.ndarray:
        """M^x from the cycles of x's block permutation, read at x's powers:
        P[x^j, i] is the block j steps along i's cycle and E[x^j, i] the sum
        of the logs on the way.  v is fixed iff v_{P(i)} = zeta^{-E_i} v_i
        along each cycle, so a cycle gives one F_q line (f rows over F_p),
        zeta^{-E[x^j, r]} u in block P[x^j, r] for its least block r, when
        its logs sum to 0 mod q - 1, that is when E is 0 wherever x^j brings
        a block back to itself, and nothing otherwise."""
        P, E = self._blocks(powers)
        home = P == np.arange(self.k)
        lines = np.flatnonzero((P.min(axis=0) == np.arange(self.k)) & ~(home & (E != 0)).any(axis=0))
        f = self._scalars.shape[1]
        out = np.zeros((len(lines), f, self.k, f), dtype=np.int64)
        qm1 = self.group.field.q - 1
        out[np.arange(len(lines)), :, P[:, lines]] = self._scalars[-E[:, lines] % qm1].swapaxes(2, 3)
        return out.reshape(len(lines) * f, self.dim)

    def act_all(self) -> np.ndarray:
        return self.at(np.arange(self.group.order))


_SKELETONS: weakref.WeakKeyDictionary[MatrixGroup, dict] = weakref.WeakKeyDictionary()


def _skeleton(H: MatrixGroup, target: np.ndarray, logs: np.ndarray) -> tuple[np.ndarray, ...]:
    """For every element x of H and block i, the block P[x, i] that x sends
    block i to and the discrete logs L[x, i] of the diagonal it scales it
    by, shapes (|H|, k) and (|H|, k, n).

    Built along H's BFS tree from integers only: for x = y s, P[x] =
    target[P[y], s] and L[x] = L[y] + logs[P[y], s] (mod q - 1).  Kept per
    (H, target, logs) in a cache that drops H's entries with H: the entry
    holds arrays only, never the group."""
    per_group = _SKELETONS.setdefault(H, {})
    key = (target.shape, target.tobytes(), logs.tobytes())
    got = per_group.get(key)
    if got is None:
        qm1, k = H.field.q - 1, target.shape[0]
        P = np.empty((H.order, k), dtype=np.int64)
        L = np.empty((H.order, k, logs.shape[2]), dtype=np.int64)
        P[H.identity_id], L[H.identity_id] = np.arange(k), 0
        for s, parents, children in H.tree_batches:
            at = P[parents]
            P[children] = target[at, s]
            L[children] = (L[parents] + logs[at, s]) % qm1
        got = per_group[key] = (P, L)
    return got


def char_module(B: MatrixGroup, chi: TorusChar) -> MonomialModule:
    """F_q as a module over an upper-triangular group: b = t n acts by
    multiplication by chi(t), an F_p-linear map of dimension f; the
    unipotent part acts trivially.  t is the diagonal of b.  This is the
    one-block monomial module: chi induced from B to itself, with each
    generator's discrete logs read from its diagonal."""
    fld = B.field
    logs = []
    for g in B.generators:
        if not g.is_upper_triangular():
            raise StructureError("element is not upper-triangular")
        logs.append([fld.dlog_code(c) for c in g.diagonal_codes()])
    S = len(B.generators)
    return MonomialModule(B, np.zeros((1, S), dtype=np.int64),
                          np.array(logs, dtype=np.int64).reshape(1, S, B.n), chi,
                          label=f"char{chi.exps}")


def right_coset_data(cosets: BruhatCosets, H: MatrixGroup) -> tuple[np.ndarray, np.ndarray]:
    """The right action of H's generators on the cosets, as
    group.coset_action gives it: reps[i]·s = b·reps[target[i, s]], with the
    discrete logs of b's diagonal in logs[i, s], from the normal forms of
    every reps[i]·s, one batch_mul and one batch_normal_form."""
    prods = batch_mul(cosets.field, code_stack(cosets.reps, cosets.n)[:, None],
                      code_stack(H.generators, cosets.n))
    return coset_action(cosets, *batch_normal_form(cosets.field, prods))


def induced_module(cosets: BruhatCosets, H: MatrixGroup, chi: TorusChar) -> MonomialModule:
    """Ind_B^G chi over a group H of n x n matrices, on the basis (right
    coset of B\\G) x (F_p-basis of F_q), with no element table of G.

    When reps[i]·s = b·reps[j] for a generator s of H, block (i, j) of s is
    multiplication by chi(diag b).  With H = G this is Ind chi, with H = T
    or N it is Res_T or Res_N Ind chi.  The coset table, and H's action on
    it, is shared by every chi: T's and N's come with the cosets, another
    group's is computed once and kept in cosets.actions, and a chi only
    turns its discrete logs into scalars."""
    if (H.n, H.field.q) != (cosets.n, cosets.field.q):
        raise ModuleError("induction needs a group of matrices of the cosets' size and field")
    action = cosets.actions.get(H)
    if action is None:
        action = cosets.actions[H] = right_coset_data(cosets, H)
    target, logs = action
    return MonomialModule(H, target, logs, chi, label=f"induced{chi.exps}")


def hom_module(M1: FpModule, M2: FpModule) -> FpModule:
    """Hom_{F_p}(M1, M2) with g acting by phi -> rho2(g) phi rho1(g)^{-1},
    flattened row-major: kron(rho2(g), rho1(g^{-1})^T) at the generators.
    At f = 1 it is fq_hom_module's module, generator by generator."""
    if M1.group is not M2.group:
        raise ModuleError("hom requires modules over the same group")
    G = M1.group
    acts = [np.kron(M2.act(x), M1.act(G.inv_id(x)).T) for x in map(G.element_id, G.generators)]
    return FpModule(G, acts, label=f"hom({M1.label},{M2.label})", dim=M1.dim * M2.dim,
                    derived=True)


def fq_hom_module(M1: MonomialModule, M2: MonomialModule) -> MonomialModule:
    """Hom_{F_q}(M1, M2) with g acting by phi -> rho2(g) phi rho1(g)^{-1}, a
    monomial module on the pairs (j, i) of blocks, row-major: the F_q-linear
    map from block i of M1 to block j of M2 goes to the one from P1[i] to
    P2[j], scaled by chi2(t2) chi1(t1)^{-1}, so its logs are the factors'
    side by side and its character (chi2, chi1^{-1}).  Ext between
    F_q-representations is counted here; over F_p the Hom splits into f
    Frobenius-twisted summands.  A module that is not monomial raises
    ModuleError."""
    if M1.group is not M2.group:
        raise ModuleError("hom requires modules over the same group")
    if not (isinstance(M1, MonomialModule) and isinstance(M2, MonomialModule)):
        raise ModuleError("fq_hom_module needs two monomial modules")
    (k1, S), k2 = M1.target.shape, M2.k
    target = (M2.target[:, None] * k1 + M1.target[None]).reshape(k2 * k1, S)
    logs = np.concatenate(np.broadcast_arrays(M2.logs[:, None], M1.logs[None]), axis=3)
    chi = TorusChar(M2.chi.exps + M1.chi.inverse().exps, M1.chi.qm1)
    return MonomialModule(M1.group, target, logs.reshape(k2 * k1, S, -1), chi,
                          label=f"fqhom({M1.label},{M2.label})", factors=(M1, M2))


def restrict(M: FpModule, H: MatrixGroup) -> FpModule:
    """The same space as a module over a subgroup H of M's group: each
    generator of H acts by the product of M's generator matrices along its
    word in M's group."""
    if H is M.group:
        return M
    G = M.group
    if not H.is_subgroup_of(G):
        raise ModuleError("restriction target is not a subgroup")
    acts = [M.act(G.element_id(g)) for g in H.generators]
    return FpModule(H, acts, label=f"res({M.label})->{H.label}", dim=M.dim,
                    fq_form=M.fq_form, derived=True)


def char_modules_isomorphic(A: MatrixGroup, chi1: TorusChar, chi2: TorusChar):
    """Whether F_q[chi1] and F_q[chi2] are isomorphic as F_p[A]-modules,
    for an abelian group A of diagonal matrices.  Returns (flag, witness)
    where the witness is an invertible intertwiner matrix when it exists.

    The intertwiner space is solved as a linear system; an isomorphism is
    then found by explicit search through the solution span rather than
    assumed from nonvanishing.
    """
    if any(not m.is_diagonal() for m in A.generators):
        raise ModuleError("character-module comparison expects a diagonal group")
    M1 = char_module(A, chi1)
    M2 = char_module(A, chi2)
    p, d = M1.p, M1.dim
    # mu rho1(a) = rho2(a) mu, linear in the entries of mu (row-major)
    rows = []
    eye = np.eye(d, dtype=np.int64)
    for a1, a2 in zip(M1.gen_action, M2.gen_action):
        rows.append((np.kron(eye, a1.T) - np.kron(a2, eye)) % p)
    basis = linalg.nullspace_mod(np.vstack(rows), p)
    if basis.shape[0] == 0:
        return False, None
    for v in basis:
        m = v.reshape(d, d)
        if linalg.is_invertible_mod(m, p):
            return True, m
    # rare: search small combinations of the basis
    if p ** basis.shape[0] <= 100_000:
        for coeffs in itertools.product(range(p), repeat=basis.shape[0]):
            if not any(coeffs):
                continue
            m = sum(c * b for c, b in zip(coeffs, basis)) % p
            m = m.reshape(d, d)
            if linalg.is_invertible_mod(m, p):
                return True, m
        return False, None
    rng = np.random.default_rng(0)
    for _ in range(10_000):
        coeffs = rng.integers(0, p, size=basis.shape[0])
        m = (coeffs @ basis % p).reshape(d, d)
        if linalg.is_invertible_mod(m, p):
            return True, m
    return False, None


class AbelianQuotientModule(FpModule):
    """N'/[N',N'] = ⊕_{α∈Δ} U_α with the conjugation action of a diagonal
    torus, for a unipotent pattern group N' = U_Φ; keeps the quotient map
    and a section for testing.

    Δ holds the roots of Φ that are not a sum of two of its roots, in
    generator order.  The entry of a product at α ∈ Δ is the sum of the
    factors' entries, because no two roots of Φ add up to α, so reading the
    entries at Δ is a homomorphism onto ⊕ U_α whose kernel U_{Φ∖Δ} is
    [N',N'].  The basis is x^m in U_α for α ∈ Δ and m < f, and diag(t)
    acts on U_(i,j) by multiplication by t_i/t_j.
    """

    def __init__(self, nprime: MatrixGroup, torus: MatrixGroup):
        if nprime.pattern is None or nprime.pattern[1]:
            raise StructureError("the abelian quotient is built for unipotent pattern groups")
        if any(not t.is_diagonal() for t in torus.generators):
            raise StructureError("the torus acts through diagonal generators")
        fld, f = nprime.field, nprime.field.f
        self.roots = indecomposable_roots(nprime.pattern[0])
        self.nprime = nprime
        dim = f * len(self.roots)
        acts = []
        for t in torus.generators:
            d = t.diagonal_codes()
            a = np.zeros((dim, dim), dtype=np.int64)
            for k, (i, j) in enumerate(self.roots):
                a[k * f : (k + 1) * f, k * f : (k + 1) * f] = fld.mult_matrix(
                    fld.mul_code(d[i], fld.inv_code(d[j])))
            acts.append(a)
        super().__init__(torus, acts, label=f"{nprime.label}/[{nprime.label},{nprime.label}]",
                         derived=True)

    def quotient_map(self, m: Mat) -> tuple[int, ...]:
        n, fld = m.n, m.field
        return tuple(c for i, j in self.roots for c in fld.code_coeffs(m.codes[i * n + j]))

    def section(self, vec) -> Mat:
        fld, n, f = self.nprime.field, self.nprime.n, self.nprime.field.f
        ent = list(identity_mat(fld, n).codes)
        for k, (i, j) in enumerate(self.roots):
            ent[i * n + j] = fld.coeffs_code(vec[k * f : (k + 1) * f])
        return Mat(fld, n, tuple(ent))


def abelian_quotient_with_torus_action(nprime: MatrixGroup, torus: MatrixGroup) -> AbelianQuotientModule:
    """N'/[N',N'] as an F_p[T]-module via conjugation."""
    return AbelianQuotientModule(nprime, torus)
