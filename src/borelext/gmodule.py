"""Finite-dimensional F_p[H]-modules for the matrix groups built here:
character modules F_q[chi], induced modules Ind_B^G chi (over G, or
restricted to B from the Bruhat cosets), Hom modules, restriction, fixed
points, and isomorphism testing of character modules.

A module stores one invertible matrix over F_p per group generator; the
action of an arbitrary element is resolved as a generator word along the
group's BFS tree and memoized.  The table of every element's action is built
on first use, along the tree, or for a Hom module from its two factors'
tables.  Modules are immutable apart from those idempotent caches.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import linalg
from .chars import TorusChar, evaluate, value_code
from .group import (
    BruhatCosets,
    Mat,
    MatrixGroup,
    StructureError,
    identity_mat,
    indecomposable_roots,
    tn_factor,
)


class ModuleError(ValueError):
    pass


class FpModule:
    """An F_p[H]-module given by generator action matrices."""

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
        # modules' maps by invertible products, and a character (or the
        # torus on N'^ab) acts by nonzero field elements, chi(t) (or t_i/t_j)
        if not derived:
            for a in self.gen_action:
                if not linalg.is_invertible_mod(a, self.p):
                    raise ModuleError("generator action is singular")
        self.label = label
        self._memo: dict[int, np.ndarray] = {group.identity_id: np.eye(self.dim, dtype=np.int64)}
        self._all: np.ndarray | None = None

    def act(self, elt_id: int) -> np.ndarray:
        """Action matrix of an element, resolved along the BFS tree."""
        if self._all is not None:
            return np.asarray(self._all[elt_id], dtype=np.int64)
        got = self._memo.get(elt_id)
        if got is not None:
            return got
        path = []
        i = elt_id
        while i not in self._memo:
            path.append(i)
            i = int(self.group.bfs_parent[i])
        m = self._memo[i]
        for j in reversed(path):
            m = (m @ self.gen_action[int(self.group.bfs_gen[j])]) % self.p
            self._memo[j] = m
        return self._memo[elt_id]

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

    def __repr__(self):
        return f"FpModule({self.label or 'module'}, dim={self.dim} over F_{self.p}, group={self.group.label})"


def trivial_module(H: MatrixGroup, dim: int = 1) -> FpModule:
    eye = np.eye(dim, dtype=np.int64)
    return FpModule(H, [eye.copy() for _ in H.generators], label="trivial")


def char_module(B: MatrixGroup, chi: TorusChar) -> FpModule:
    """F_q as a module over an upper-triangular group: b = t n acts by
    multiplication by chi(t), an F_p-linear map of dimension f; the
    unipotent part acts trivially.  t is the diagonal of b."""
    fld = B.field
    acts = []
    for g in B.generators:
        if not g.is_upper_triangular():
            raise StructureError("element is not upper-triangular")
        acts.append(fld.mult_matrix(value_code(chi, fld, g.diagonal_codes())))
    return FpModule(B, acts, label=f"char{chi.exps}", fq_form=True, derived=True)


def det_char_module(G: MatrixGroup, a: int) -> FpModule:
    """F_q with g acting by multiplication by det(g)^a; the characters of
    the full matrix group are exactly these determinant powers."""
    fld = G.field
    acts = []
    for g in G.generators:
        acts.append(fld.mult_matrix(fld.pow_code(g.det_code(), a)))
    return FpModule(G, acts, label=f"det^{a}", fq_form=True)


class InducedModule(FpModule):
    """Ind_B^G chi on the basis (right coset of B\\G) x (F_p-basis of F_q)."""

    def __init__(self, G: MatrixGroup, B: MatrixGroup, chi: TorusChar, coset_data=None):
        if not B.is_subgroup_of(G):
            raise ModuleError("induction needs B to be a subgroup of G")
        fld = G.field
        f = fld.f
        if coset_data is None:
            coset_data = right_coset_data(G, B)
        rep_ids, coset_of = coset_data
        self.rep_ids = rep_ids
        self.coset_of = coset_of
        k = len(rep_ids)
        d = f * k
        acts = []
        for g in G.generators:
            acts.append(self._gen_matrix(G, B, chi, g, d))
        super().__init__(G, acts, label=f"induced{chi.exps}", fq_form=True)
        self.chi = chi

    def _gen_matrix(self, G, B, chi, g, d):
        fld = G.field
        f = fld.f
        out = np.zeros((d, d), dtype=np.int64)
        for i, ri in enumerate(self.rep_ids):
            rig = G.mul_ids(ri, G.element_id(g))
            j = int(self.coset_of[rig])
            b = G.elements[rig] * G.elements[self.rep_ids[j]].inv()
            t, _ = tn_factor(b)
            block = fld.mult_matrix(evaluate(chi, t).code)
            out[i * f : (i + 1) * f, j * f : (j + 1) * f] = block
        return out


def right_coset_data(G: MatrixGroup, B: MatrixGroup):
    """Right cosets B\\G: representative ids (first seen in table order)
    and the coset index of every element."""
    coset_of = np.full(G.order, -1, dtype=np.int32)
    rep_ids = []
    b_ids = [G.element_id(m) for m in B.elements]
    for i in range(G.order):
        if coset_of[i] != -1:
            continue
        k = len(rep_ids)
        rep_ids.append(i)
        for bid in b_ids:
            coset_of[G.mul_ids(bid, i)] = k
    return rep_ids, coset_of


def induced_module(G: MatrixGroup, B: MatrixGroup, chi: TorusChar, coset_data=None) -> InducedModule:
    return InducedModule(G, B, chi, coset_data=coset_data)


class BruhatInducedModule(FpModule):
    """Res_B Ind_B^G chi over B, on the basis (Bruhat coset) x (F_p-basis of
    F_q), with no element table of G.

    The convention is InducedModule's: when reps[i]·s = b·reps[j], block
    (i, j) of generator s is multiplication by chi(diag b).  The coset table
    is shared by every chi; a chi only turns its discrete logs into scalars.
    """

    def __init__(self, cosets: BruhatCosets, chi: TorusChar):
        B = cosets.group
        fld = B.field
        f, qm1 = fld.f, fld.q - 1
        k = len(cosets.reps)
        rows = np.arange(k)
        scalars = np.stack([fld.mult_matrix(fld.pow_code(fld.generator_code, e))
                            for e in range(qm1)])
        exps = cosets.logs @ np.asarray(chi.exps, dtype=np.int64) % qm1  # (k, S)
        acts = []
        for s in range(len(B.generators)):
            out = np.zeros((k, f, k, f), dtype=np.int64)
            out[rows, :, cosets.target[:, s], :] = scalars[exps[:, s]]
            acts.append(out.reshape(k * f, k * f))
        super().__init__(B, acts, label=f"res-induced{chi.exps}", fq_form=True)
        self.chi = chi


def bruhat_induced_module(cosets: BruhatCosets, chi: TorusChar) -> BruhatInducedModule:
    """Res_B Ind_B^G chi from the Bruhat cosets of B\\G."""
    return BruhatInducedModule(cosets, chi)


class HomModule(FpModule):
    """Hom_{F_p}(M1, M2) with g acting by phi -> rho2(g) phi rho1(g)^{-1},
    flattened row-major so the action matrix is kron(rho2, rho1^{-T})."""

    def __init__(self, M1: FpModule, M2: FpModule):
        if M1.group is not M2.group:
            raise ModuleError("hom requires modules over the same group")
        G = M1.group
        acts = []
        for s, g in enumerate(G.generators):
            a2 = M2.gen_action[s]
            a1_inv = M1.act(G.inv_id(G.element_id(g)))
            acts.append(np.kron(a2, a1_inv.T) % M1.p)
        super().__init__(G, acts, label=f"hom({M1.label},{M2.label})", derived=True)
        self.factors = (M1, M2)

    def _build_all(self) -> np.ndarray:
        """kron(rho2(g), rho1(g^{-1})^T) for every g, from the factors'
        tables; a product of two residues fits in uint16."""
        M1, M2 = self.factors
        A2 = M2.act_all().astype(np.uint16)
        A1 = M1.act_all()[self.group.inverse_ids()]
        out = linalg.mod(np.einsum("gij,glk->gikjl", A2, A1), self.p)
        return out.astype(np.uint8).reshape(self.group.order, self.dim, self.dim)


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
    """The same space as a module over a subgroup H of M's group."""
    if H is M.group:
        return M
    G = M.group
    if not H.is_subgroup_of(G):
        raise ModuleError("restriction target is not a subgroup")
    acts = [M.act(G.element_id(g)) for g in H.generators]
    return FpModule(H, acts, label=f"res({M.label})->{H.label}", fq_form=M.fq_form,
                    derived=True)


def fixed_points_dim(M: FpModule) -> int:
    """dim of the simultaneous kernel of rho(s) - 1 over the generators."""
    if M.dim == 0:
        return 0
    eye = np.eye(M.dim, dtype=np.int64)
    rows = np.vstack([(a - eye) % M.p for a in M.gen_action])
    return M.dim - linalg.rank_mod(rows, M.p)


def _torus_char_module(A: MatrixGroup, chi: TorusChar) -> FpModule:
    fld = A.field
    acts = [fld.mult_matrix(evaluate(chi, g).code) for g in A.generators]
    return FpModule(A, acts, label=f"char{chi.exps}")


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
    M1 = _torus_char_module(A, chi1)
    M2 = _torus_char_module(A, chi2)
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
