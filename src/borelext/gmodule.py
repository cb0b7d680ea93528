"""Finite-dimensional F_p[H]-modules for the matrix groups built here:
character modules F_q[chi], induced modules Ind_B^G chi, Hom modules,
restriction, and isomorphism testing of character modules.

Character and induced modules are one kind, MonomialModule: every element
moves each block of F_q to one block and scales it by chi of a diagonal.
An induced module has a block per right coset of B\\G, over any group H of
matrices (G itself, or T and N for the restrictions the Shapiro route
reads), and a character module is the one-block case.  The cosets are in
Bruhat normal form (group.BruhatCosets), which holds the action of T's and
N's generators from its search; right_coset_data gives another group's,
once per group, so no element table of G is walked to build a module.

A module stores one invertible matrix over F_p per group generator; the
action of an arbitrary element (act) is the product of the generator
matrices along the element's word in the group's BFS tree.  A cocycle solve
asks a module for two reads on batches of elements: the matrices (at), and
their products with a vector or a stack of them (apply).  Most modules
answer both from the uint8 table of every element's action, built on first
use; apply multiplies its rows in int64 without converting the table.  A monomial module writes
its table from integers: the group keeps one skeleton per block action (the
block each element sends each block to, and the logs of the diagonal it
scales by), and each chi fills in its scalars along it.  The other modules
fill their tables with matrix products along the tree.  A Hom module
answers both reads from its two factors' tables, so its own |H| d^2 table
is built only when act_all asks for it, and then through at.  Modules are
immutable apart from the table cache.
"""

from __future__ import annotations

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
        # fq_form: the F_p-basis is grouped in blocks of f on which scalar
        # multiplication by F_q acts block-diagonally and commutes with the
        # group action (true for character and induced modules)
        self.fq_form = fq_form
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
        self.label = label
        self._all: np.ndarray | None = None

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
    cosets B\\G (induced_module), and, with k = 1, the character module
    F_q[chi] of an upper-triangular H, chi induced from H to itself
    (char_module).

    Generator s sends block i to block target[i, s] and scales it by
    chi(t), where t is the diagonal with discrete logs logs[i, s]: block
    (i, target[i, s]) of its matrix is multiplication by chi(t).  A product
    of such matrices is again one, with the targets composed and the logs
    added, because the diagonal of a product of upper-triangular matrices
    is the product of the diagonals.  So the table of every element's
    action is written from the group's skeleton (_skeleton), which depends
    on (target, logs) and not on chi: one scatter of the scalar blocks
    chi(t) along the skeleton's block permutations, with no product of
    matrices.  The skeleton is built on the first table of one of the
    group's modules, and every chi on the same blocks shares it.
    """

    def __init__(self, H: MatrixGroup, target: np.ndarray, logs: np.ndarray, chi: TorusChar,
                 label: str):
        acts = _monomial_matrices(H.field, chi, target.T, logs.transpose(1, 0, 2))
        super().__init__(H, list(acts), label=label, dim=target.shape[0] * H.field.f,
                         fq_form=True, derived=True)
        self.target, self.logs, self.chi = target, logs, chi

    def _build_all(self) -> np.ndarray:
        """The table as one scatter of chi's scalar blocks along the
        skeleton."""
        return _monomial_matrices(self.group.field, self.chi,
                                  *_skeleton(self.group, self.target, self.logs))


def _monomial_matrices(fld, chi: TorusChar, P: np.ndarray, L: np.ndarray) -> np.ndarray:
    """One matrix per row x of P, shape (len(P), d, d), as uint8: block
    (i, P[x, i]) is multiplication by chi(t), where t is the diagonal with
    discrete logs L[x, i]."""
    (m, k), f = P.shape, fld.f
    out = np.zeros((m, k, f, k, f), dtype=np.uint8)
    out[np.arange(m)[:, None], np.arange(k), :, P, :] = fld.power_matrices()[
        L @ np.asarray(chi.exps, dtype=np.int64) % (fld.q - 1)]
    return out.reshape(m, k * f, k * f)


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


class HomModule(FpModule):
    """Hom_{F_p}(M1, M2) with g acting by phi -> rho2(g) phi rho1(g)^{-1},
    flattened row-major so the action matrix is kron(rho2(g), rho1(g^{-1})^T).

    at and apply read the two factors' tables, so a cocycle solve never
    builds this module's |H| d^2 table; the generator matrices and act_all
    are at's output, at the generators and at every element."""

    def __init__(self, M1: FpModule, M2: FpModule):
        if M1.group is not M2.group:
            raise ModuleError("hom requires modules over the same group")
        G = M1.group
        self.factors = (M1, M2)
        acts = self.at(np.array([G.element_id(g) for g in G.generators], dtype=np.int64))
        super().__init__(G, list(acts), label=f"hom({M1.label},{M2.label})",
                         dim=M1.dim * M2.dim, derived=True)

    def at(self, ids) -> np.ndarray:
        """kron(rho2(x), rho1(x^{-1})^T) built only at the distinct elements
        of ids, as uint8; a product of two residues fits in uint16."""
        M1, M2 = self.factors
        uniq, back = np.unique(ids, return_inverse=True)
        a2 = M2.at(uniq).astype(np.uint16)
        a1 = M1.at(M1.group.inverse_ids()[uniq])
        kron = linalg.mod(np.einsum("gij,glk->gikjl", a2, a1), M1.p).astype(np.uint8)
        d = M1.dim * M2.dim
        return kron.reshape(len(uniq), d, d)[back]

    def apply(self, ids, v: np.ndarray) -> np.ndarray:
        """rho2(x) phi rho1(x^{-1}) for each x in ids, phi being v (or each
        vector of a stack) as a d2 x d1 matrix, flattened; no kron is built."""
        M1, M2 = self.factors
        phi = v.reshape(*v.shape[:-1], M2.dim, M1.dim)
        each = (slice(None),) + (None,) * (v.ndim - 1)  # broadcast over the stack
        out = M2.at(ids)[each] @ phi @ M1.at(M1.group.inverse_ids()[ids])[each]
        return out.reshape(len(out), *v.shape)

    def _build_all(self) -> np.ndarray:
        """The table as at's output at every element."""
        return self.at(np.arange(self.group.order))


def hom_module(M1: FpModule, M2: FpModule) -> HomModule:
    """Hom_{F_p}(M1, M2) with the conjugation action."""
    return HomModule(M1, M2)


def fq_hom_module(M1: FpModule, M2: FpModule) -> FpModule:
    """Hom_{F_q}(M1, M2) for a module M1 of one F_q-dimension and M2 in fq
    form, with the same conjugation action as hom_module restricted to the
    F_q-linear maps: M1's action is a scalar character u(g), so the module
    is M2 twisted by u(g)^{-1}.

    Extensions between F_q-representations live here: over F_p the full
    Hom splits into f Frobenius-skewed summands and Ext dimensions pick up
    a factor of f, so pairing the modules F_q-linearly is what matches the
    one-dimensional-over-F_q statements being verified.  Any other left
    module raises ModuleError.
    """
    if M1.group is not M2.group:
        raise ModuleError("hom requires modules over the same group")
    if not (M1.fq_form and M2.fq_form):
        raise ModuleError("fq_hom_module needs both modules in fq form")
    fld = M1.group.field
    f = fld.f
    if M1.dim != f:
        raise ModuleError("fq_hom_module needs a left module of one F_q-dimension")
    acts = []
    for s, a1 in enumerate(M1.gen_action):
        u = fld.coeffs_code([int(c) for c in a1[:, 0]])
        tw = _block_diag(fld.mult_matrix(fld.inv_code(u)), M2.dim // f)
        acts.append(M2.gen_action[s] @ tw % M1.p)
    return FpModule(M1.group, acts, label=f"fqhom({M1.label},{M2.label})", fq_form=True,
                    derived=True)


def _block_diag(block: np.ndarray, count: int) -> np.ndarray:
    f = block.shape[0]
    out = np.zeros((f * count, f * count), dtype=np.int64)
    for i in range(count):
        out[i * f : (i + 1) * f, i * f : (i + 1) * f] = block
    return out


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
