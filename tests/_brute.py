"""Independent desk-scale oracles used only by the tests.

Everything here deliberately avoids the library's solvers: the H^1 oracle
sets up the full function-space linear system over all of H x H with its own
Gaussian elimination, the polynomial helpers work on plain coefficient
lists, and the subgroup references filter or close element tables with
plain matrix products instead of the root data.  Agreement between these
and the package is what the tests freeze.

Code the package no longer needs is kept here as a reference too: the
table of f over the whole group that the cocycle solver once built its edge
rows from, the explicit root extension of a Borel subgroup, the coboundary,
fixed-point and solvability checks, which now rank with gauss_rank, and
Ind_B^G chi built by walking G's element table, with the B-level Shapiro
solve on its restriction through the scalar twist that Hom_{F_q} from a
module of one F_q-dimension once was (brute_fq_hom), the twist-matching predicates that build a
TorusChar for every (k, i, w) they try, and the Bruhat coset normal form of
one matrix with the one-coset-at-a-time search that BruhatCosets once ran,
and the first-in first-out walk that built a group's BFS tree.  The
subgroup, double-coset, induced-module and H^1 references multiply
matrices with mat_mul, through q x q tables built from coefficient
vectors, not through the field's discrete logs.  Where brute_h1's |H| d
unknowns are too many, brute_h1_generators takes the values on the
generators as the unknowns, with a BFS and an elimination (np_rank) of its
own, and the tests check it against brute_h1 where both run.
"""

from __future__ import annotations

import functools
import itertools
from collections import deque

import numpy as np

from borelext.chars import (
    TwistWitness,
    _char_p,
    _ext_degree,
    evaluate,
    frobenius_twist,
    simple_root,
    weyl_twist,
)
from borelext.cohom import Cocycle, h1_dim
from borelext.field import make_field
from borelext.gmodule import FpModule, ModuleError, char_module, hom_module
from borelext.group import (
    Mat,
    StructureError,
    WeylElement,
    diag_mat,
    identity_mat,
    perm_mat,
)


def gauss_rref(rows, p):
    """(rows, pivots): the reduced row echelon form over F_p of a
    list-of-lists matrix, its zero rows dropped, and the pivot column of
    each row; pure python, no numpy."""
    M = [[v % p for v in r] for r in rows if any(v % p for v in r)]
    ncols = len(rows[0]) if len(rows) else 0
    pivots = []
    for c in range(ncols):
        rank = len(pivots)
        piv = next((i for i in range(rank, len(M)) if M[i][c]), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        inv = pow(M[rank][c], -1, p)
        M[rank] = [(v * inv) % p for v in M[rank]]
        for i in range(len(M)):
            if i != rank and M[i][c]:
                fac = M[i][c]
                M[i] = [(M[i][j] - fac * M[rank][j]) % p for j in range(ncols)]
        pivots.append(c)
    return M[: len(pivots)], pivots


def gauss_rank(rows, p):
    """Rank over F_p of a list-of-lists matrix; pure python, no numpy."""
    return len(gauss_rref(rows, p)[1])


def add_raw(field, a, b):
    """a + b in F_q, coefficient by coefficient."""
    return field.coeffs_code([x + y for x, y in zip(field.code_coeffs(a), field.code_coeffs(b))])


@functools.lru_cache(maxsize=None)
def fq_tables(p, f):
    """The q x q product and sum tables of F_q, from the product of
    coefficient vectors that field construction uses (_mul_raw) and
    add_raw, not from the field's discrete logs."""
    F = make_field(p, f)
    mul = [[F._mul_raw(a, b) for b in range(F.q)] for a in range(F.q)]
    add = [[add_raw(F, a, b) for b in range(F.q)] for a in range(F.q)]
    return mul, add


def mat_mul(x, y):
    """The product of two Mats, entry by entry through fq_tables."""
    fld, n = x.field, x.n
    mul, add = fq_tables(fld.p, fld.f)
    a, b = x.codes, y.codes
    out = []
    for i in range(0, n * n, n):
        for j in range(n):
            acc = 0
            for k in range(n):
                acc = add[acc][mul[a[i + k]][b[k * n + j]]]
            out.append(acc)
    return Mat(fld, n, tuple(out))


def mul_ids(H, i, j):
    """The id of H.elements[i] * H.elements[j], by mat_mul."""
    return H.index[mat_mul(H.elements[i], H.elements[j]).codes]


def brute_h1(H, M):
    """(dim Z^1, dim B^1, dim H^1) by solving for f : H -> M directly.

    Unknowns are all |H| * d values of f; every pair (g, h) contributes the
    constraint f(gh) - f(g) - rho(g) f(h) = 0 and f(identity) = 0 is imposed.
    Only usable for small groups.
    """
    size = H.order
    d = M.dim
    p = M.p
    rho = [[[int(x) for x in row] for row in M.act(i)] for i in range(size)]
    nun = size * d

    def var(g, i):
        return g * d + i

    rows = []
    for i in range(d):
        row = [0] * nun
        row[var(H.identity_id, i)] = 1
        rows.append(row)
    for g in range(size):
        for h in range(size):
            gh = mul_ids(H, g, h)
            for i in range(d):
                row = [0] * nun
                row[var(gh, i)] += 1
                row[var(g, i)] -= 1
                for j in range(d):
                    row[var(h, j)] -= rho[g][i][j]
                rows.append([v % p for v in row])
    z1 = nun - gauss_rank(rows, p)
    # coboundaries: the image of m -> (g m - m)_g
    cob = []
    for j in range(d):
        row = [0] * nun
        for g in range(size):
            for i in range(d):
                row[var(g, i)] = (rho[g][i][j] - (1 if i == j else 0)) % p
        cob.append(row)
    b1 = gauss_rank(cob, p) if cob else 0
    return z1, b1, z1 - b1


def np_rank(A, p):
    """Rank over F_p of an integer array, by an elimination of its own:
    rows are taken 512 at a time, reduced against the reduced echelon rows
    found so far with one product, and what is left adds pivots one row at
    a time."""
    A = np.asarray(A, dtype=np.int64) % p
    R, piv = A[:0], []
    for start in range(0, len(A), 512):
        B = A[start : start + 512]
        if piv:
            B = (B - B[:, piv] @ R) % p
        B = B[B.any(axis=1)]
        while len(B):
            c = int(np.flatnonzero(B[0])[0])
            r = B[0] * pow(int(B[0, c]), -1, p) % p
            R = np.vstack([(R - np.outer(R[:, c], r)) % p, r])
            piv.append(c)
            B = (B[1:] - np.outer(B[1:, c], r)) % p
            B = B[B.any(axis=1)]
    return len(piv)


def brute_h1_generators(H, M):
    """(dim Z^1, dim B^1, dim H^1) with the values on the generators as the
    unknowns, for groups where brute_h1's |H| d unknowns are too many.  A
    BFS of our own over mul_ids writes f(g) as a linear map of them, with
    f(g s) = f(g) + rho(g) f(s) and rho(g s) = rho(g) rho(s) on first
    visits; every pair (g, s) of an element and a generator then gives the
    rows of f(g s) - f(g) - rho(g) f(s) = 0, which cut out Z^1 because the
    generators generate.  Ranked by np_rank; dim B^1 is d - dim M^H."""
    p, d, S = M.p, M.dim, len(H.generators)
    gens = [H.index[g.codes] for g in H.generators]
    acts = [np.asarray(a, dtype=np.int64) % p for a in M.gen_action]
    e = H.identity_id
    F = {e: np.zeros((d, S * d), dtype=np.int64)}
    rho = {e: np.eye(d, dtype=np.int64)}
    queue = [e]
    for g in queue:
        for s, sid in enumerate(gens):
            gs = mul_ids(H, g, sid)
            if gs not in F:
                F[gs] = F[g].copy()
                F[gs][:, s * d : (s + 1) * d] += rho[g]
                F[gs] %= p
                rho[gs] = rho[g] @ acts[s] % p
                queue.append(gs)
    if len(F) != H.order:
        raise AssertionError("generators do not generate the group")
    rows = []
    for g in queue:
        for s, sid in enumerate(gens):
            r = F[mul_ids(H, g, sid)] - F[g]
            r[:, s * d : (s + 1) * d] -= rho[g]
            rows.append(r)
    z1 = S * d - (np_rank(np.vstack(rows), p) if rows else 0)
    b1 = d - fixed_points_dim(M)
    return z1, b1, z1 - b1


def brute_cocycle_table(H, M, gen_values):
    """f(g) for every element id, shape (|H|, d), from the generator
    values, extended as in _brute_extend."""
    f, _ = _brute_extend(H, M, gen_values)
    return np.array([f[g] for g in range(H.order)], dtype=np.int64).reshape(H.order, M.dim)


def brute_cocycle_defects(H, M, gen_values):
    """How many pairs (g, h) in H x H violate f(gh) = f(g) + rho(g) f(h),
    for f and rho extended as in brute_cocycle_table.  Zero exactly when
    gen_values define a 1-cocycle.
    """
    p, d = M.p, M.dim
    f, rho = _brute_extend(H, M, gen_values)

    def apply(A, v):
        return [sum(A[i][j] * v[j] for j in range(d)) % p for i in range(d)]

    bad = 0
    for g in range(H.order):
        for h in range(H.order):
            rhs = [(a + b) % p for a, b in zip(f[g], apply(rho[g], f[h]))]
            if f[mul_ids(H, g, h)] != rhs:
                bad += 1
    return bad


def _brute_extend(H, M, gen_values):
    """f and rho on every element id, as dicts of lists: a BFS of our own
    over mul_ids, with f(gs) = f(g) + rho(g) f(s) and rho(gs) = rho(g)
    rho(s) on first visits; the library's BFS tree, act tables and cocycle
    code are not used."""
    p = M.p
    d = M.dim
    gens = [H.index[g.codes] for g in H.generators]
    gen_rho = [[[int(x) for x in row] for row in a] for a in M.gen_action]
    gen_f = [[int(x) % p for x in v] for v in gen_values]

    def apply(A, v):
        return [sum(A[i][j] * v[j] for j in range(d)) % p for i in range(d)]

    def matmul(A, B):
        return [[sum(A[i][k] * B[k][j] for k in range(d)) % p for j in range(d)]
                for i in range(d)]

    e = H.identity_id
    f = {e: [0] * d}
    rho = {e: [[1 if i == j else 0 for j in range(d)] for i in range(d)]}
    queue = [e]
    for g in queue:
        for s, sid in enumerate(gens):
            gs = mul_ids(H, g, sid)
            if gs not in f:
                f[gs] = [(a + b) % p for a, b in zip(f[g], apply(rho[g], gen_f[s]))]
                rho[gs] = matmul(rho[g], gen_rho[s])
                queue.append(gs)
    if len(f) != H.order:
        raise AssertionError("generators do not generate the group")
    return f, rho


def poly_mul_mod(a, b, modulus, p):
    """Product of coefficient lists reduced by a monic modulus, over F_p."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    deg = len(modulus) - 1
    for k in range(len(out) - 1, deg - 1, -1):
        c = out[k]
        if c:
            out[k] = 0
            for j in range(deg):
                out[k - deg + j] = (out[k - deg + j] - c * modulus[j]) % p
    out = out[:deg]
    return out + [0] * (deg - len(out))


def poly_order(a, modulus, p, qm1):
    """Multiplicative order of a nonzero coefficient vector."""
    deg = len(modulus) - 1
    one = [1] + [0] * (deg - 1)
    acc = list(a) + [0] * (deg - len(a))
    for k in range(1, qm1 + 1):
        if k > 1:
            acc = poly_mul_mod(acc, a, modulus, p)
        if acc == one:
            return k
    raise AssertionError("element has no finite order; not invertible?")


def equivariant_hom_dim(Q_actions, chi_matrices, fdim, qdim, p):
    """dim of {psi in Hom_{F_p}(Q, F_q) : psi A_t = M_{chi(t)} psi} for all
    torus generators t; the restriction-side of the two-step computation of
    H^1(B, F_q[chi])."""
    nun = fdim * qdim  # psi entries, row-major (fdim x qdim)
    rows = []
    for A, C in zip(Q_actions, chi_matrices):
        # psi A - C psi = 0
        for r in range(fdim):
            for c in range(qdim):
                row = [0] * nun
                for k in range(qdim):
                    row[r * qdim + k] += A[k][c]
                for k in range(fdim):
                    row[k * qdim + c] -= C[r][k]
                rows.append([v % p for v in row])
    if not rows:
        return nun
    return nun - gauss_rank(rows, p)


def tn_factor(b):
    """Unique factorization b = t * n with t diagonal, n unit upper-triangular."""
    if not b.is_upper_triangular():
        raise StructureError("element is not upper-triangular")
    t = diag_mat(b.field, b.diagonal_codes())
    return t, t.inv() * b


def coset_normal_form(g):
    """The representative of the right coset B·g, and the diagonal of b in
    g = b·rep, as codes, for one matrix: the rows are reduced from the
    bottom up, each cleared at the pivot columns of the rows below it with
    the field's scalar code arithmetic, then scaled to a leading 1."""
    fld, n = g.field, g.n
    rows = [list(g.codes[i * n : (i + 1) * n]) for i in range(n)]
    pivot = [0] * n
    diag = [0] * n
    for i in range(n - 1, -1, -1):
        row = rows[i]
        for k in range(n - 1, i, -1):
            a = row[pivot[k]]
            if a:
                row = [fld.sub_code(x, fld.mul_code(a, y)) for x, y in zip(row, rows[k])]
        lead = next(j for j, x in enumerate(row) if x)
        diag[i] = row[lead]
        inv = fld.inv_code(row[lead])
        rows[i] = [fld.mul_code(inv, x) for x in row]
        pivot[i] = lead
    return tuple(c for row in rows for c in row), tuple(diag)


def one_by_one_bruhat_cosets(T, N, weyls):
    """(reps, cells, cell_logs, actions) of group.BruhatCosets from a search
    of one cell, and one coset, after the other: a queue per cell, one
    per-matrix product and coset_normal_form per (coset, generator), and
    the targets and discrete logs read per image.  reps are code tuples,
    and actions maps T and N to (target, logs)."""
    fld, n = T.field, T.n
    gens = T.generators + N.generators
    index, reps, images, cells = {}, [], [], []
    for w in weyls:
        start = len(reps)
        rep = coset_normal_form(w.rep)[0]
        index[rep] = start
        reps.append(rep)
        i = start
        while i < len(reps):
            for s in gens:
                image = coset_normal_form(Mat(fld, n, reps[i]) * s)
                images.append(image)
                if image[0] not in index:
                    index[image[0]] = len(reps)
                    reps.append(image[0])
            i += 1
        cells.append((start, len(reps)))
    S, st = len(gens), len(T.generators)
    target = np.array([index[rep] for rep, _ in images], dtype=np.int64).reshape(-1, S)
    logs = np.array([[fld.dlog_code(c) for c in diag] for _, diag in images],
                    dtype=np.int64).reshape(-1, S, n)
    cell_logs = logs[[start for start, _ in cells], :st]
    actions = {T: (target[:, :st], logs[:, :st]), N: (target[:, st:], logs[:, st:])}
    return reps, cells, cell_logs, actions


def brute_coset_data(G, B):
    """Right cosets B\\G from G's element table: representative ids (first
    seen in table order) and the coset index of every element."""
    coset_of = np.full(G.order, -1, dtype=np.int32)
    rep_ids = []
    b_ids = [G.element_id(m) for m in B.elements]
    for i in range(G.order):
        if coset_of[i] != -1:
            continue
        k = len(rep_ids)
        rep_ids.append(i)
        for bid in b_ids:
            coset_of[mul_ids(G, bid, i)] = k
    return rep_ids, coset_of


def brute_induced_module(G, B, chi, coset_data=None):
    """Ind_B^G chi over G on the basis (coset of brute_coset_data) x
    (F_p-basis of F_q): when r_i g = b r_j for a generator g, block (i, j)
    is multiplication by chi(t), t the torus part of b.  The products are
    looked up in G's table, and the generators are checked invertible."""
    fld = G.field
    f = fld.f
    rep_ids, coset_of = coset_data if coset_data is not None else brute_coset_data(G, B)
    d = f * len(rep_ids)
    acts = []
    for g in G.generators:
        out = np.zeros((d, d), dtype=np.int64)
        for i, ri in enumerate(rep_ids):
            rig = mul_ids(G, ri, G.element_id(g))
            j = int(coset_of[rig])
            t, _ = tn_factor(mat_mul(G.elements[rig], G.elements[rep_ids[j]].inv()))
            out[i * f : (i + 1) * f, j * f : (j + 1) * f] = fld.mult_matrix(evaluate(chi, t))
        acts.append(out)
    return FpModule(G, acts, label=f"brute-induced{chi.exps}", fq_form=True)


def brute_fq_hom(M1, M2):
    """Hom_{F_q}(M1, M2) for a module M1 of one F_q-dimension and M2 in fq
    form, any two FpModules over one group: M1 acts by a scalar u(g), so the
    module is M2 twisted by u(g)^{-1}, each f-block of M2's generator times
    multiplication by u^{-1}.  Any other left module raises ModuleError."""
    if M1.group is not M2.group:
        raise ModuleError("hom requires modules over the same group")
    if not (M1.fq_form and M2.fq_form):
        raise ModuleError("brute_fq_hom needs both modules in fq form")
    fld = M1.group.field
    f = fld.f
    if M1.dim != f:
        raise ModuleError("brute_fq_hom needs a left module of one F_q-dimension")
    acts = []
    for s, a1 in enumerate(M1.gen_action):
        u = fld.coeffs_code([int(c) for c in a1[:, 0]])
        tw = np.kron(np.eye(M2.dim // f, dtype=np.int64), fld.mult_matrix(fld.inv_code(u)))
        acts.append(M2.gen_action[s] @ tw % M1.p)
    return FpModule(M1.group, acts, label=f"brute-fqhom({M1.label},{M2.label})", fq_form=True,
                    derived=True)


def brute_kron_hom(M1, M2):
    """hom_module(M1, M2), the F_p-Hom, with its table written from its
    factors' tables as kron(rho2(x), rho1(x^{-1})^T) at every element, not
    filled with products along the tree: one small einsum where the tree
    needs |H| products of d x d matrices."""
    M = hom_module(M1, M2)
    H, p = M.group, M.p
    a2 = M2.act_all().astype(np.uint16)
    a1 = M1.act_all()[H.inverse_ids()]
    M._all = (np.einsum("gij,glk->gikjl", a2, a1) % p).astype(np.uint8).reshape(H.order, M.dim, M.dim)
    return M


def ext1_dim_shapiro(B, chi1, res_ind):
    """dim Ext^1_G(Ind chi1, Ind chi2) at the B level, as H^1(B,
    Hom_{F_q}(F_q[chi1], res_ind)) for res_ind = Res_B Ind chi2, any module
    in fq form: Frobenius reciprocity makes this equal to the G-level number
    while the system stays much smaller."""
    return h1_dim(B, brute_fq_hom(char_module(B, chi1), res_ind))


def brute_intersect_conjugate(B, w):
    """Codes of {m in B : w m w^{-1} in B}, by filtering B's element table."""
    wi = w.rep.inv()
    return {m.codes for m in B.elements if mat_mul(mat_mul(w.rep, m), wi).codes in B.index}


def brute_unipotent_part(H):
    """Codes of the unit-diagonal elements of H, by filtering its table."""
    return {m.codes for m in H.elements if m.has_unit_diagonal()}


def mulclose(mats):
    """Codes of the closure of a set of matrices under multiplication."""
    mats = list(mats)
    ident = identity_mat(mats[0].field, mats[0].n)
    seen = {ident.codes}
    frontier = deque([ident])
    while frontier:
        a = frontier.popleft()
        for g in mats:
            b = mat_mul(a, g)
            if b.codes not in seen:
                seen.add(b.codes)
                frontier.append(b)
    return seen


def brute_commutator_subgroup(H):
    """Codes of the closure of all commutators a b a^{-1} b^{-1} in H."""
    els = H.elements
    invs = [m.inv() for m in els]
    return mulclose({mat_mul(mat_mul(a, b), mat_mul(ai, bi))
                     for a, ai in zip(els, invs) for b, bi in zip(els, invs)})


def fifo_bfs(H):
    """(order, parent, gen, depth, batches) of H's BFS tree, by a first-in
    first-out walk of the Cayley table one element and generator at a
    time, as MatrixGroup once built it; batches group the tree edges by
    (depth, generator) as (generator, parents, children)."""
    size, S = H.cayley.shape
    parent = np.full(size, -1, dtype=np.int32)
    via = np.full(size, -1, dtype=np.int32)
    order = np.empty(size, dtype=np.int32)
    seen = np.zeros(size, dtype=bool)
    queue = deque([H.identity_id])
    seen[H.identity_id] = True
    k = 0
    while queue:
        i = queue.popleft()
        order[k] = i
        k += 1
        for s in range(S):
            j = int(H.cayley[i, s])
            if not seen[j]:
                seen[j] = True
                parent[j] = i
                via[j] = s
                queue.append(j)
    if k != size:
        raise AssertionError("generators do not generate the group")
    depth = np.zeros(size, dtype=np.int32)
    for i in order[1:]:
        depth[i] = depth[parent[i]] + 1
    batches = []
    for lv in range(1, int(depth.max(initial=0)) + 1):
        at = order[depth[order] == lv]
        for s in range(S):
            children = at[via[at] == s]
            if children.size:
                batches.append((s, parent[children], children))
    return order, parent, via, depth, batches


def word_for(G, i):
    """Generator ids multiplying to G.elements[i] along G's BFS tree."""
    out = []
    while i != G.identity_id:
        out.append(int(G.bfs_gen[i]))
        i = int(G.bfs_parent[i])
    out.reverse()
    return out


def double_cosets(G, B):
    """B-double cosets of G by a BFS of G's table under left and right
    multiplication by B's generators: one permutation representative per
    coset and the coset sizes, sorted by Bruhat length."""
    field, n = G.field, G.n
    perm_lookup = {perm_mat(field, p).codes: p
                   for p in itertools.permutations(range(1, n + 1))}
    seen = [False] * G.order
    found = []
    for start in range(G.order):
        if seen[start]:
            continue
        seen[start] = True
        coset = [start]
        for i in coset:
            m = G.elements[i]
            for g in B.generators:
                for prod in (mat_mul(g, m), mat_mul(m, g)):
                    j = G.index[prod.codes]
                    if not seen[j]:
                        seen[j] = True
                        coset.append(j)
        reps = [perm_lookup[G.elements[i].codes] for i in coset
                if G.elements[i].codes in perm_lookup]
        if len(reps) != 1:
            raise StructureError(f"double coset has {len(reps)} permutation representatives")
        found.append((WeylElement(field, reps[0]), len(coset)))
    found.sort(key=lambda t: (t[0].length, t[0].perm))
    return [w for w, _ in found], [s for _, s in found]


def brute_edge_rows(H, M, batch):
    """The rows of f(g) + rho(g) f(s) - f(g s) = 0 for each edge (g, s) of
    the batch, mod p, from a table F of every f(g) as a linear map of the
    stacked unknowns f(s'): a tree child copies its parent's map and adds
    rho(parent) in block s.  The sum t of two residues is below 2p, so
    min(t, t - p) in uint16 reduces it: t - p wraps above t exactly when
    t < p."""
    p, d = M.p, M.dim
    S = len(H.generators)
    nu = S * d
    rho = M.act_all()
    F = np.zeros((H.order, d, nu), dtype=np.uint8)
    for s, parents, children in H.tree_batches:
        blk = F[parents]
        t = np.add(blk[:, :, s * d : (s + 1) * d], rho[parents], dtype=np.uint16)
        blk[:, :, s * d : (s + 1) * d] = np.minimum(t, t - p)
        F[children] = blk
    g, s = batch[:, 0], batch[:, 1]
    unit = np.arange(d)
    rows = F[g].astype(np.int16) - F[H.cayley[g, s]]
    cols = (s * d)[:, None] + unit  # block s of each edge
    rows[np.arange(len(batch))[:, None, None], unit[None, :, None], cols[:, None, :]] += rho[g]
    return rows.reshape(-1, nu) % p


def non_tree_edges(H):
    """Every (g, s) with g s not reached from g along the BFS tree."""
    tree = {(int(H.bfs_parent[c]), int(H.bfs_gen[c])) for c in H.bfs_order[1:]}
    return np.array([(g, s) for g in range(H.order) for s in range(len(H.generators))
                     if (g, s) not in tree], dtype=np.int64).reshape(-1, 2)


def is_coboundary(H, M, c):
    """Whether f(g) = g m - m for some m, by comparing ranks: the values on
    the generators lie in the column space of the stacked rho(s) - 1."""
    if not c.is_valid():
        raise StructureError("input is not a cocycle")
    p = M.p
    eye = np.eye(M.dim, dtype=np.int64)
    A = [r for a in M.gen_action for r in ((a - eye) % p).tolist()]
    b = [int(v) % p for v in c.values.reshape(-1)]
    return gauss_rank(A, p) == gauss_rank([r + [v] for r, v in zip(A, b)], p)


def solvable_mod(A, b, p):
    """Whether A x = b has a solution over F_p, by comparing ranks."""
    A = np.asarray(A, dtype=np.int64) % p
    b = np.asarray(b, dtype=np.int64).reshape(-1, 1) % p
    return gauss_rank(A.tolist(), p) == gauss_rank(np.hstack([A, b]).tolist(), p)


def fixed_points_dim(M):
    """dim of the simultaneous kernel of rho(s) - 1 over the generators."""
    eye = np.eye(M.dim, dtype=np.int64)
    rows = [r for a in M.gen_action for r in ((a - eye) % M.p).tolist()]
    return M.dim - gauss_rank(rows, M.p)


class BorelRootHom:
    """The 2x2 upper-triangular homomorphism built from a simple root: the
    unipotent part maps through the root entry and the torus through the
    root character, realizing a non-split self-extension shape."""

    def __init__(self, B, alpha, i):
        self.B = B
        self.alpha = alpha
        self.i = i
        self.field = B.field

    def psi(self, nmat):
        """Entry (i, i+1) of a unipotent element, as an F_q code; additive
        on N, kills the commutator subgroup and the other simple roots."""
        return nmat.codes[(self.i - 1) * nmat.n + self.i]

    def __call__(self, b):
        t, nn = tn_factor(b)
        at = evaluate(self.alpha, t)
        top = self.field.mul_code(at, self.psi(nn))
        return Mat(self.field, 2, (at, top, 0, 1))

    def is_homomorphism(self):
        """phi(1) = 1 and phi(a s) = phi(a) phi(s) for every a in B and
        generator s.  As the generators generate B, induction on word length
        gives phi(a b) = phi(a) phi(b) for all pairs: if b = b' s, then
        phi(a b' s) = phi(a b') phi(s) = phi(a) phi(b') phi(s) = phi(a) phi(b)."""
        one = identity_mat(self.field, self.B.n)
        if self(one) != identity_mat(self.field, 2):
            return False
        gens = [(s, self(s)) for s in self.B.generators]
        for a in self.B.elements:
            fa = self(a)
            if any(self(a * s) != fa * fs for s, fs in gens):
                return False
        return True


def build_E_alpha(B, alpha, i):
    """The explicit extension witness for a simple root: a homomorphism
    B -> 2x2 upper-triangular matrices over F_q together with the cocycle
    b = t n -> alpha(t) psi(n) valued in F_q[alpha]."""
    n = B.n
    fld = B.field
    if simple_root(i, n, fld.q - 1) != alpha:
        raise ValueError(f"character is not the simple root at position {i}")
    hom = BorelRootHom(B, alpha, i)
    # equivariance of psi under torus conjugation, checked exhaustively
    torus_els = [m for m in B.elements if m.is_diagonal()]
    unip_els = [m for m in B.elements if m.has_unit_diagonal()]
    for t in torus_els:
        ti = t.inv()
        at_inv = evaluate(alpha, ti)
        for u in unip_els:
            conj = (ti * u) * t
            if hom.psi(conj) != fld.mul_code(at_inv, hom.psi(u)):
                raise StructureError("root functional is not torus-equivariant")
    M = char_module(B, alpha)
    vals = np.zeros((len(B.generators), M.dim), dtype=np.int64)
    for s, g in enumerate(B.generators):
        t, nn = tn_factor(g)
        code = fld.mul_code(evaluate(alpha, t), hom.psi(nn))
        vals[s] = fld.code_coeffs(code)
    c = Cocycle(B, M, vals)
    if not c.is_valid():
        raise StructureError("extension witness is not a cocycle")
    return hom, c


def brute_match_simple_root_twist(chi):
    """chars.match_simple_root_twist by building p^k * alpha_i as a TorusChar
    for every (k, i) in scan order."""
    n = chi.n
    p = _char_p(chi.qm1)
    f = _ext_degree(chi.qm1, p)
    for k in range(f):
        for i in range(1, n):
            if frobenius_twist(simple_root(i, n, chi.qm1), k) == chi:
                return TwistWitness(i, k)
    return None


def brute_match_theorem1_condition(chi1, chi2, weyls):
    """chars.match_theorem1_condition by building chi1^{-1} * chi2^w and
    p^k * alpha_i as TorusChars for every (k, i, w) in scan order."""
    n = chi1.n
    p = _char_p(chi1.qm1)
    f = _ext_degree(chi1.qm1, p)
    inv1 = chi1.inverse()
    ws = sorted(weyls, key=lambda w: (w.length, w.perm))
    for k in range(f):
        for i in range(1, n):
            target = frobenius_twist(simple_root(i, n, chi1.qm1), k)
            for w in ws:
                if inv1 * weyl_twist(chi2, w) == target:
                    return TwistWitness(i, k, w)
    return None
