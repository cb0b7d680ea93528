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
from .chars import TorusChar, evaluate
from .group import (
    BruhatCosets,
    Mat,
    MatrixGroup,
    StructureError,
    commutator_subgroup,
    identity_mat,
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
        # modules' maps by invertible products, and a character acts by a
        # nonzero field element, chi(t) for t in the torus
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
    unipotent part acts trivially."""
    fld = B.field
    acts = []
    for g in B.generators:
        t, _ = tn_factor(g)
        acts.append(fld.mult_matrix(evaluate(chi, t).code))
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
    """Hom_{F_q}(M1, M2) for modules in fq form, with the same conjugation
    action as hom_module restricted to the F_q-linear maps.

    Extensions between F_q-representations live here: over F_p the full
    Hom splits into f Frobenius-skewed summands and Ext dimensions pick up
    a factor of f, so pairing the modules F_q-linearly is what matches the
    one-dimensional-over-F_q statements being verified.  For f = 1 it has
    hom_module's action matrices: a one-dimensional M1 gives M2 twisted by
    M1's character, whose table is M2-sized, and a larger M1 gives
    hom_module itself.
    """
    if M1.group is not M2.group:
        raise ModuleError("hom requires modules over the same group")
    if not (M1.fq_form and M2.fq_form):
        raise ModuleError("fq_hom_module needs both modules in fq form")
    G = M1.group
    fld = G.field
    f = fld.f
    p = M1.p
    d1, d2 = M1.dim, M2.dim
    if d1 == f:
        # one F_q-dimension: the action is a scalar character u(g), and
        # Hom_{F_q}(M1, M2) is M2 twisted by u(g)^{-1}
        acts = []
        for s, a1 in enumerate(M1.gen_action):
            u = fld.coeffs_code([int(c) for c in a1[:, 0]])
            tw = _block_diag(fld.mult_matrix(fld.inv_code(u)), d2 // f)
            acts.append(M2.gen_action[s] @ tw % p)
        return FpModule(G, acts, label=f"fqhom({M1.label},{M2.label})", fq_form=True,
                        derived=True)
    if f == 1:
        return hom_module(M1, M2)
    mx = fld.mult_matrix(fld._pp[1])  # multiplication by x
    bx1 = _block_diag(mx, d1 // f)
    bx2 = _block_diag(mx, d2 // f)
    # phi is F_q-linear iff phi bx1 = bx2 phi; phi stored row-major (d2, d1)
    eye1 = np.eye(d1, dtype=np.int64)
    eye2 = np.eye(d2, dtype=np.int64)
    C = (np.kron(eye2, bx1.T) - np.kron(bx2, eye1)) % p
    red = linalg.RowReducer(p, d1 * d2)
    red.add_rows(C)
    P = red.nullspace()
    free = red.free_columns()
    acts = []
    for s, g in enumerate(G.generators):
        a2 = M2.gen_action[s]
        a1_inv = M1.act(G.inv_id(G.element_id(g)))
        big = np.kron(a2, a1_inv.T) % p
        # columns are images of the subspace basis, read off at free slots
        acts.append((big @ P.T)[free, :] % p)
    return FpModule(G, acts, label=f"fqhom({M1.label},{M2.label})", derived=True)


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
    """N'/[N',N'] as an F_p-vector space with the conjugation action of a
    torus; keeps the quotient map and a section for testing."""

    def __init__(self, nprime: MatrixGroup, torus: MatrixGroup):
        field, nn = nprime.field, nprime.n
        p = field.p
        # the torus must normalize N' (generator-level check suffices)
        for t in torus.generators:
            ti = t.inv()
            for g in nprime.generators:
                if (t * g) * ti not in nprime:
                    raise StructureError("torus does not normalize the unipotent part")
        comm = commutator_subgroup(nprime)
        comm_codes = set(m.codes for m in comm.elements)
        # cosets of [N',N'] in N'
        coset_of: dict[tuple, int] = {}
        reps: list[Mat] = []
        for m in nprime.elements:
            if m.codes in coset_of:
                continue
            k = len(reps)
            reps.append(m)
            for c in comm.elements:
                coset_of[(m * c).codes] = k
        count = len(reps)
        dim = 0
        while p**dim < count:
            dim += 1
        if p**dim != count:
            raise StructureError("commutator quotient is not a p-group")
        # elementary abelian checks on representatives
        ident0 = identity_mat(field, nn)
        for a in reps:
            pw = a
            for _ in range(p - 1):
                pw = pw * a
            if coset_of[pw.codes] != coset_of[ident0.codes]:
                raise StructureError("quotient has exponent larger than p")
        for a in reps:
            for b in reps:
                if coset_of[(a * b).codes] != coset_of[(b * a).codes]:
                    raise StructureError("quotient is not abelian")
        # coordinates: grow a basis, enumerating the span as it extends
        zero = (0,) * dim
        ident = identity_mat(field, nn)
        coords: dict[int, tuple[int, ...]] = {coset_of[ident.codes]: zero}
        rep_of_vec: dict[tuple[int, ...], Mat] = {zero: ident}
        basis_axes = 0
        for m in reps:
            k = coset_of[m.codes]
            if k in coords:
                continue
            e = basis_axes
            basis_axes += 1
            new_coords = dict(coords)
            new_reps = dict(rep_of_vec)
            for vec, rep in rep_of_vec.items():
                acc = rep
                for j in range(1, p):
                    acc = acc * m
                    v = list(vec)
                    v[e] = j
                    v = tuple(v)
                    new_coords[coset_of[acc.codes]] = v
                    new_reps[v] = acc
            coords = new_coords
            rep_of_vec = new_reps
            if len(coords) == count:
                break
        if len(coords) != count or basis_axes != dim:
            raise StructureError("independent coset generators do not span")
        self._coset_of = coset_of
        self._coords = coords
        self._rep_of_vec = rep_of_vec
        self.nprime = nprime
        # conjugation action of each torus generator
        acts = []
        for t in torus.generators:
            ti = t.inv()
            cols = np.zeros((dim, dim), dtype=np.int64)
            for e in range(dim):
                unit = [0] * dim
                unit[e] = 1
                rep = rep_of_vec[tuple(unit)]
                img = (t * rep) * ti
                cols[:, e] = coords[coset_of[img.codes]]
            acts.append(cols)
        super().__init__(torus, acts, label=f"{nprime.label}/[{nprime.label},{nprime.label}]")

    def quotient_map(self, m: Mat) -> tuple[int, ...]:
        return self._coords[self._coset_of[m.codes]]

    def section(self, vec) -> Mat:
        return self._rep_of_vec[tuple(int(v) % self.p for v in vec)]


def abelian_quotient_with_torus_action(nprime: MatrixGroup, torus: MatrixGroup) -> AbelianQuotientModule:
    """N'/[N',N'] as an F_p[T]-module via conjugation."""
    return AbelianQuotientModule(nprime, torus)
