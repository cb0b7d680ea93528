"""The cocycle solver against an independent full-function-space oracle,
cocycle/coboundary mechanics, the explicit root extension, and the
two-step inflation computation of H^1(B, F_q[chi])."""

import functools
import gc
import itertools
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from borelext.chars import TorusChar, all_chars, evaluate, frobenius_twist, simple_root, trivial_char
from borelext import cohom, linalg
from borelext import verify as V
from borelext import group as group_mod
from borelext.cohom import Cocycle, MemoryBudgetError, cell_multiplicities, h1_dim
from borelext.field import make_field
from borelext.gmodule import (
    FpModule,
    MonomialModule,
    abelian_quotient_with_torus_action,
    char_module,
    fq_hom_module,
    hom_module,
    induced_module,
    restrict,
    trivial_module,
)
from borelext.group import (
    BruhatCosets,
    StructureError,
    build_borel,
    build_gl,
    build_torus,
    build_unipotent,
    weyl_elements,
)
from borelext.verify import Instance, get_instance, verify_thm1

from _brute import (
    brute_cocycle_defects,
    brute_cocycle_table,
    brute_coset_data,
    brute_edge_rows,
    brute_h1,
    brute_h1_generators,
    brute_induced_module,
    brute_kron_hom,
    build_E_alpha,
    equivariant_hom_dim,
    ext1_dim_shapiro,
    gauss_rank,
    is_coboundary,
    non_tree_edges,
    np_rank,
    tn_factor,
)


@pytest.fixture(scope="module")
def F3():
    return make_field(3, 1)


@pytest.fixture(scope="module")
def F9():
    return make_field(3, 2)


def test_h1_of_cyclic_group_trivial_module(F3):
    N = build_unipotent(F3, 2)  # cyclic of order 3
    r = h1_dim(N, trivial_module(N))
    assert (r.dim_z1, r.dim_b1, r.dim_h1) == (1, 0, 1)
    assert brute_h1(N, trivial_module(N)) == (1, 0, 1)


def test_h1_borel_simple_root_is_one_dimensional(F3):
    B = build_borel(F3, 2)
    alpha = simple_root(1, 2, 2)
    M = char_module(B, alpha)
    r = h1_dim(B, M)
    assert r.dim_h1 == 1
    assert brute_h1(B, M) == (r.dim_z1, r.dim_b1, r.dim_h1)
    assert len(r.basis) == 1 and r.basis[0].is_valid()


def test_h1_borel_trivial_character_vanishes(F3):
    B = build_borel(F3, 2)
    M = char_module(B, trivial_char(2, 2))
    r = h1_dim(B, M)
    assert r.dim_h1 == 0
    assert brute_h1(B, M) == (r.dim_z1, r.dim_b1, r.dim_h1)


def test_h1_brute_agreement_on_random_modules(F3):
    # modules built from valid ingredients: sums of characters conjugated
    # by a random basis change, over the order-12 Borel
    from borelext.gmodule import FpModule
    from borelext.linalg import fq_invert, is_invertible_mod

    B = build_borel(F3, 2)
    rng = np.random.default_rng(11)
    for trial in range(6):
        chars = [all_chars(2, 2)[int(i)] for i in rng.integers(0, 4, size=2)]
        blocks = [char_module(B, c).gen_action for c in chars]
        d = len(chars)
        while True:
            P = rng.integers(0, 3, size=(d, d))
            if is_invertible_mod(P, 3):
                break
        Pi = np.array(fq_invert([tuple(int(x) for x in row) for row in P], F3), dtype=np.int64)
        acts = []
        for s in range(len(B.generators)):
            A = np.zeros((d, d), dtype=np.int64)
            for j in range(d):
                A[j, j] = blocks[j][s][0, 0]
            acts.append((P @ A @ Pi) % 3)
        M = FpModule(B, acts)
        r = h1_dim(B, M)
        assert brute_h1(B, M) == (r.dim_z1, r.dim_b1, r.dim_h1)


def test_h1_torus_killed_by_coprime_order(F3, F9):
    for fld, n in [(F3, 2), (F9, 2), (F3, 3)]:
        T = build_torus(fld, n)
        for chi in all_chars(n, fld.q - 1)[:4]:
            r = h1_dim(T, char_module(T, chi))
            assert r.dim_h1 == 0


def test_h1_dims_satisfy_z_b_identity(F9):
    B = build_borel(F9, 2)
    for chi in all_chars(2, 8)[:10]:
        r = h1_dim(B, char_module(B, chi))
        assert r.dim_z1 - r.dim_b1 == r.dim_h1 >= 0


def test_inflation_two_step_agrees_with_cocycles(F9):
    # H^1(B, F_q[chi]) equals the space of torus-equivariant maps from the
    # abelianized unipotent radical into F_q[chi]; the latter is an
    # independent small linear solve
    B = build_borel(F9, 2)
    T = build_torus(F9, 2)
    N = build_unipotent(F9, 2)
    Q = abelian_quotient_with_torus_action(N, T)
    acts = [[[int(x) for x in row] for row in a] for a in Q.gen_action]
    for chi in all_chars(2, 8):
        mats = []
        for t in T.generators:
            mats.append([[int(x) for x in row]
                         for row in F9.mult_matrix(evaluate(chi, t).code)])
        expected = equivariant_hom_dim(acts, mats, F9.f, Q.dim, 3)
        got = h1_dim(B, char_module(B, chi)).dim_h1
        assert got == expected


def test_frobenius_twist_invariance_of_h1(F9):
    B = build_borel(F9, 2)
    for chi in all_chars(2, 8):
        base = h1_dim(B, char_module(B, chi)).dim_h1
        for k in (1,):
            tw = h1_dim(B, char_module(B, frobenius_twist(chi, k))).dim_h1
            assert tw == base


def test_shift_invariance(F3):
    # Ext(chi1, chi2) = Ext(1, chi1^{-1} chi2) at the Borel level
    B = build_borel(F3, 2)
    for chi1 in all_chars(2, 2):
        for chi2 in all_chars(2, 2):
            lhs = h1_dim(B, hom_module(char_module(B, chi1), char_module(B, chi2))).dim_h1
            rhs = h1_dim(B, char_module(B, chi1.inverse() * chi2)).dim_h1
            assert lhs == rhs


def test_cocycle_propagation_and_validity(F3):
    B = build_borel(F3, 2)
    M = char_module(B, simple_root(1, 2, 2))
    r = h1_dim(B, M)
    c = r.basis[0]
    f = c.propagate()
    assert (f[B.identity_id] == 0).all()
    assert c.defect_count() == 0
    assert brute_cocycle_defects(B, M, c.values) == 0
    # a constant shift stays in Z^1: here (1,1,1) = (1,1,0) + c, a coboundary plus psi
    shifted = Cocycle(B, M, (c.values + 1) % 3)
    assert shifted.is_valid()
    assert brute_cocycle_defects(B, M, shifted.values) == 0
    assert is_coboundary(B, M, Cocycle(B, M, (shifted.values - 2 * c.values) % 3))
    bad = _break_at_torus_generator(B, c)
    assert bad.defect_count() > 0
    assert brute_cocycle_defects(B, M, bad.values) > 0


def _break_at_torus_generator(H, c):
    """c with 1 added to its value at the first diagonal generator only; this
    breaks the relations between that torus generator and the others."""
    s = next(s for s, g in enumerate(H.generators) if g.is_diagonal())
    vals = c.values.copy()
    vals[s] = (vals[s] + 1) % c.module.p
    return Cocycle(H, c.module, vals)


def test_is_coboundary(F3):
    B = build_borel(F3, 2)
    M = char_module(B, simple_root(1, 2, 2))
    zero = Cocycle(B, M, np.zeros((len(B.generators), 1), dtype=np.int64))
    assert is_coboundary(B, M, zero)
    r = h1_dim(B, M)
    assert not is_coboundary(B, M, r.basis[0])
    # a coboundary built by hand: f(g) = g m - m
    m = np.array([2], dtype=np.int64)
    vals = np.stack([(M.gen_action[s] @ m - m) % 3 for s in range(len(B.generators))])
    cob = Cocycle(B, M, vals)
    assert is_coboundary(B, M, cob)
    bad = _break_at_torus_generator(B, r.basis[0])
    assert bad.defect_count() > 0
    assert brute_cocycle_defects(B, M, bad.values) > 0
    with pytest.raises(StructureError, match="not a cocycle"):
        is_coboundary(B, M, bad)


def test_coboundaries_over_torus(F3):
    T = build_torus(F3, 2)
    M = char_module(T, simple_root(1, 2, 2))
    r = h1_dim(T, M)
    assert r.dim_h1 == 0
    m = np.array([1], dtype=np.int64)
    vals = np.stack([(M.gen_action[s] @ m - m) % 3 for s in range(len(T.generators))])
    assert is_coboundary(T, M, Cocycle(T, M, vals))


def test_build_E_alpha_gl2(F3):
    B = build_borel(F3, 2)
    alpha = simple_root(1, 2, 2)
    hom, c = build_E_alpha(B, alpha, 1)
    assert hom.is_homomorphism()  # on B x generators, which covers all |B|^2 pairs
    assert c.is_valid()
    assert not is_coboundary(B, char_module(B, alpha), c)
    # values: on the torus the cocycle vanishes, on the unipotent part not
    for s, g in enumerate(B.generators):
        t, n = tn_factor(g)
        if n.codes == tuple((1, 0, 0, 1)):
            assert (c.values[s] == 0).all()


def test_build_E_alpha_gl3_kills_commutators(F3):
    B = build_borel(F3, 3)
    alpha = simple_root(1, 3, 2)
    hom, c = build_E_alpha(B, alpha, 1)
    from borelext.group import transvection

    # entries in the commutator position do not contribute
    far = transvection(F3, 3, 1, 3, 2)
    assert hom.psi(far) == 0
    other = transvection(F3, 3, 2, 3, 1)
    assert hom.psi(other) == 0
    near = transvection(F3, 3, 1, 2, 2)
    assert hom.psi(near) == 2
    assert hom.is_homomorphism()
    assert not is_coboundary(B, char_module(B, alpha), c)


def test_build_E_alpha_f9(F9):
    B = build_borel(F9, 2)
    alpha = simple_root(1, 2, 8)
    hom, c = build_E_alpha(B, alpha, 1)
    assert c.is_valid()
    assert not is_coboundary(B, char_module(B, alpha), c)


def test_build_E_alpha_rejects_wrong_root(F3):
    B = build_borel(F3, 2)
    with pytest.raises(ValueError):
        build_E_alpha(B, trivial_char(2, 2), 1)


def _solver_cases():
    """Every character module over the Borels of GL_2(F_3) and GL_2(F_9), one
    Hom between principal series of GL_2(F_3) and Res_B Ind chi over the
    Borel of GL_2(F_3), a module of several blocks; all are gauged."""
    F3, F9 = make_field(3, 1), make_field(3, 2)
    B3, B9, G3 = build_borel(F3, 2), build_borel(F9, 2), build_gl(F3, 2)
    cosets = BruhatCosets(build_torus(F3, 2), build_unipotent(F3, 2), weyl_elements(F3, 2))
    i1 = induced_module(cosets, G3, trivial_char(2, 2))
    i2 = induced_module(cosets, G3, TorusChar((1, 1), 2))
    return ([(B3, char_module(B3, c)) for c in all_chars(2, 2)]
            + [(B9, char_module(B9, c)) for c in all_chars(2, 8)]
            + [(G3, hom_module(i1, i2)), (B3, restrict(i2, B3))])


def _non_tree_edges(H):
    return H.order * len(H.generators) - H.order + 1


def test_sampled_equals_exhaustive(monkeypatch):
    # the certified sweep (mode "sampled_verified" when a check ends it) gives
    # the same dims as a sweep that feeds every edge (mode "exhaustive")
    cases = _solver_cases()
    got = [h1_dim(H, M) for H, M in cases]
    # a chunk longer than any edge list feeds every edge before any check
    monkeypatch.setattr(cohom, "CHUNK_EDGES", 1 + max(_non_tree_edges(H) for H, _ in cases))
    for (H, M), r in zip(cases, got):
        full = h1_dim(H, M)
        assert (full.mode, full.edges_used) == ("exhaustive", _non_tree_edges(H))
        assert r.dims == full.dims
        assert len(r.basis) == r.dim_h1 and all(c.is_valid() for c in r.basis)
        if H.order == 12:
            assert r.dims == brute_h1(H, M)
    assert any(r.mode == "sampled_verified" and r.dim_h1 > 0 for r in got)
    assert got[4 + all_chars(2, 8).index(TorusChar((1, 7), 8))].dim_h1 == 2


def test_narrow_and_wide_eliminators_give_the_same_solve(monkeypatch):
    # a character module over B at GL_2(F_9) (6 unknowns, narrow by default)
    # and a Hom between principal series of GL_2(F_3) (32 unknowns, wide by
    # default), each solved with every RowReducer wide and then narrow
    F3, F9 = make_field(3, 1), make_field(3, 2)
    B9, G3 = build_borel(F9, 2), build_gl(F3, 2)
    cosets = BruhatCosets(build_torus(F3, 2), build_unipotent(F3, 2), weyl_elements(F3, 2))
    hom = hom_module(induced_module(cosets, G3, trivial_char(2, 2)),
                     induced_module(cosets, G3, TorusChar((1, 1), 2)))
    for H, M in [(B9, char_module(B9, TorusChar((1, 7), 8))), (G3, hom)]:
        runs = []
        for threshold in (0, 1 << 20):
            monkeypatch.setattr(linalg, "NARROW_COLS", threshold)
            r = h1_dim(H, M)
            runs.append((r.dims, r.mode, r.edges_used, [c.values.tolist() for c in r.basis]))
        assert runs[0] == runs[1]
        assert runs[0][0][2] > 0


@pytest.mark.parametrize("p,f,n,group", [(3, 1, 2, "G"), (5, 1, 2, "G"), (3, 2, 2, "B")],
                         ids=["G-3-1-2", "G-5-1-2", "B-3-2-2"])
def test_tree_path_edge_rows_match_the_table_reference(p, f, n, group):
    # the rows the cached edge sweep builds from the tree paths of an edge's
    # endpoints equal the rows read from the table of f over the whole group,
    # at every non-tree edge, and a chunk that starts mid-list gives the same
    # rows as the whole sweep does at its edges; the module is a Hom between
    # principal series over G and Res_B Ind chi over B
    G, B, T, N, chars, inds = _gl_setup(p, f, n)
    if group == "G":
        H, M = G, hom_module(inds[chars[1].exps], inds[chars[-1].exps])
    else:
        H, M = B, restrict(inds[chars[1].exps], B)
    sweep = cohom._edge_sweep(H)
    edges = sweep.edges
    assert sorted(map(tuple, edges)) == sorted(map(tuple, non_tree_edges(H)))
    E, d, act = len(edges), M.dim, M
    rows = sweep.rows(act, 0, E)
    assert rows.shape == (E * d, len(H.generators) * d)
    assert (rows % M.p == brute_edge_rows(H, M, edges)).all()
    a, b = E // 3, E // 3 + 7
    mid = sweep.rows(act, a, b)
    assert (mid == rows[a * d : b * d]).all()
    assert (mid % M.p == brute_edge_rows(H, M, edges[a:b])).all()
    assert cohom._edge_sweep(H) is sweep
    # gauged at s*: the reference's rows without block s*'s columns
    g = sweep.gauge
    assert g == 0
    keep = [c for c in range(rows.shape[1]) if c // d != g]
    gauged = sweep.rows(act, 0, E, g)
    assert (gauged % M.p == brute_edge_rows(H, M, edges)[:, keep]).all()
    assert (sweep.rows(act, a, b, g) == gauged[a * d : b * d]).all()


@pytest.mark.parametrize("p", [3, 5])
def test_hom_solve_reads_the_factors_and_builds_no_table(p):
    # the F_q-Hom of two induced modules is solved from its factors' blocks,
    # and after the solve no monomial module has built a table; dims, mode,
    # edges used and basis values are those of the same solve on a
    # table-backed module with the same generators, and on hom_module's
    # kron, which at f = 1 has those generators too.  At GL_2(F_5) the
    # pairs are those whose central characters agree (M^Z != 0)
    inst = get_instance(p, 1, 2)
    G = inst.G
    pairs = [(c1, c2) for c1 in inst.chars for c2 in inst.chars
             if (sum(c1.exps) - sum(c2.exps)) % (p - 1) == 0][: 12 if p == 3 else 6]
    certified = 0
    for chi1, chi2 in pairs:
        M1, M2 = (induced_module(inst.bruhat_cosets, G, c) for c in (chi1, chi2))
        M = fq_hom_module(M1, M2)
        r = h1_dim(G, M)
        assert all(m._all is None for m in (M, M1, M2))
        for other in (FpModule(G, M.gen_action, derived=True), hom_module(M1, M2)):
            other.act_all()
            ref = h1_dim(G, other)
            assert (r.dims, r.mode, r.edges_used) == (ref.dims, ref.mode, ref.edges_used)
            assert len(r.basis) == len(ref.basis)
            assert all((a.values == b.values).all() for a, b in zip(r.basis, ref.basis))
        assert all(c.is_valid() for c in r.basis)
        certified += r.mode == "sampled_verified"
    assert certified > 0


def test_no_solve_over_a_monomial_module_builds_a_table(monkeypatch):
    # thm1 on both routes, the Mackey ledger and prop4 at GL_2(F_3), and the
    # B3 pair's G-level solve at GL_2(F_9): every module they solve over is
    # monomial, and none fills a table of every element's action
    built = []
    real = FpModule._build_all

    def recorded(self):
        built.append(self)
        return real(self)

    monkeypatch.setattr(FpModule, "_build_all", recorded)
    inst = Instance(3, 1, 2)
    assert V.verify_thm1(inst) and V.mackey_all(inst) and V.verify_prop4(inst).pairs
    assert len(inst._ind) == len(inst.chars)
    f9 = Instance(3, 2, 2)
    assert f9.direct_dim(f9.char((0, 0)), f9.char((1, 7)), V.VerifyConfig(budget_mb=2048)) == 2
    assert built == []
    assert all(M._all is None for M in list(inst._ind.values()) + list(f9._ind.values()))


def test_edge_sweep_is_kept_per_group_and_dropped_with_it(F3):
    # equal groups built twice get a sweep each, and the cache does not keep
    # a dropped group alive
    B1, B2 = build_borel(F3, 2), build_borel(F3, 2)
    chi = TorusChar((1, 0), 2)
    assert h1_dim(B1, char_module(B1, chi)).dims == h1_dim(B2, char_module(B2, chi)).dims
    assert cohom._edge_sweep(B1) is not cohom._edge_sweep(B2)
    assert B1 in cohom._SWEEPS and B2 in cohom._SWEEPS
    gc.collect()  # free groups earlier tests left dead, so only B2 can fall below
    kept = len(cohom._SWEEPS)
    gone = weakref.ref(B2)
    del B2
    gc.collect()
    assert gone() is None
    assert len(cohom._SWEEPS) == kept - 1 and B1 in cohom._SWEEPS


def test_sampled_mode_label(F9):
    B = build_borel(F9, 2)
    M = char_module(B, TorusChar((1, 7), 8))
    r = h1_dim(B, M)
    assert r.mode in ("sampled_verified", "exhaustive")
    assert r.edges_used <= _non_tree_edges(B)
    assert (r.mode == "exhaustive") == (r.edges_used == _non_tree_edges(B))
    assert r.dim_h1 == 2


def test_failed_certification_keeps_feeding(monkeypatch):
    # one edge per chunk: candidates are checked long before the rank
    # settles, so some fail and the sweep must go on
    cases = _solver_cases()
    want = [h1_dim(H, M).dims for H, M in cases]
    defects = []
    real = cohom._edge_defects

    def counted(*args):
        defects.append(real(*args))
        return defects[-1]

    monkeypatch.setattr(cohom, "_edge_defects", counted)
    monkeypatch.setattr(cohom, "CHUNK_EDGES", 1)
    assert [h1_dim(H, M).dims for H, M in cases] == want
    assert any(defects)


def test_h1_with_no_or_one_non_tree_edge(F3):
    N = build_unipotent(F3, 1)  # the trivial group: no generators, no edges
    r = h1_dim(N, FpModule(N, [], dim=2))
    assert (r.dims, r.mode, r.edges_used, r.basis) == ((0, 0, 0), "exhaustive", 0, [])
    T = build_torus(F3, 1)  # cyclic of order 2 on one generator: one edge
    N = build_unipotent(F3, 2)  # cyclic of order 3 on one generator: one edge
    for H, M in [(T, trivial_module(T)), (T, char_module(T, TorusChar((1,), 2))),
                 (N, trivial_module(N))]:
        r = h1_dim(H, M)
        assert (r.mode, r.edges_used) == ("exhaustive", 1)
        assert r.dims == brute_h1(H, M)
        assert len(r.basis) == r.dim_h1 and all(c.is_valid() for c in r.basis)


def test_modules_over_a_generator_free_group(F3):
    # with no generator matrix to read the dim from, every constructor
    # passes it: trivial, restricted and Hom modules over the trivial group
    N = build_unipotent(F3, 1)
    assert N.order == 1 and not N.generators
    M = trivial_module(N, 2)
    assert M.dim == 2 and h1_dim(N, M).dims == (0, 0, 0)
    assert restrict(trivial_module(build_torus(F3, 1)), N).dim == 1
    hom = hom_module(M, M)
    assert hom.dim == 4 and (hom.act_all() == np.eye(4, dtype=np.uint8)).all()


def test_basis_cocycle_checks_copy_no_action_table():
    # propagating an H^1 basis cocycle of the N-module at GL_3(F_3) and
    # counting its defects read the uint8 table once per generator: the
    # traced peak stays below one int64 copy of the table (8 * 73,008 B).
    # The basis cocycle keeps its certificate's values, so the walk is
    # measured on a cocycle with the same generator values and none kept
    inst = get_instance(3, 1, 3)
    M = induced_module(inst.bruhat_cosets, inst.N, inst.chars[0])
    r = h1_dim(inst.N, M)
    table = M.act_all()
    assert table.dtype == np.uint8 and table.nbytes == 73_008 and r.basis
    assert r.basis[0].fvals is not None
    c = Cocycle(inst.N, M, r.basis[0].values)
    tracemalloc.start()
    try:
        c.propagate()
        assert c.defect_count() == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * table.nbytes


def test_stack_certificate_catches_one_non_cocycle_among_cocycles(F3):
    # a basis cocycle, a cocycle that differs from it by a coboundary, and a
    # broken one in one stack: the walk's defect count is the broken one's
    B = build_borel(F3, 2)
    M = char_module(B, simple_root(1, 2, 2))
    c = h1_dim(B, M).basis[0]
    shifted = Cocycle(B, M, (c.values + 1) % 3)
    bad = _break_at_torus_generator(B, c)
    assert shifted.is_valid() and bad.defect_count() > 0
    stack = np.stack([c.values, shifted.values, bad.values])
    fvals, steps = cohom._propagate(B, M, stack)
    assert fvals.shape == (B.order, 3, M.dim)
    assert cohom._edge_defects(B, M.p, fvals, steps) == bad.defect_count()
    assert cohom._edge_defects(B, M.p, fvals[:, :2], [s[:, :2] for s in steps]) == 0
    for k, cocycle in enumerate((c, shifted, bad)):
        assert (fvals[:, k] == Cocycle(B, M, cocycle.values).propagate()).all()


@pytest.mark.parametrize("which", ["borel-char", "unipotent-induced"])
def test_basis_keeps_the_values_of_its_certificate_walk(which):
    # sampled solves with h = 2 and h = 4 candidates: each basis cocycle's
    # kept values are a fresh walk of its own generator values and the
    # brute-force table, and every cocycle is valid
    fld = make_field(3, 2)
    if which == "borel-char":
        H = build_borel(fld, 2)
        M = char_module(H, TorusChar((1, 7), 8))
    else:
        H = build_unipotent(fld, 2)
        cosets = BruhatCosets(build_torus(fld, 2), H, weyl_elements(fld, 2))
        M = induced_module(cosets, H, trivial_char(2, 8))
    r = h1_dim(H, M)
    assert r.mode == "sampled_verified" and len(r.basis) in (2, 4)
    for c in r.basis:
        assert c.fvals is not None and c.fvals.shape == (H.order, M.dim)
        fresh = Cocycle(H, M, c.values)
        assert fresh.fvals is None
        assert (c.propagate() == fresh.propagate()).all()
        assert (c.fvals == brute_cocycle_table(H, M, c.values)).all()
        assert c.is_valid()


def test_thm1_at_gl3_f3_walks_the_tree_once(monkeypatch):
    # the certificate walks the N solve's 8 candidates in one stack, and
    # cell_multiplicities reads the values that walk kept
    walks = []
    real = cohom._propagate

    def counted(H, M, values):
        walks.append(len(values))
        return real(H, M, values)

    monkeypatch.setattr(cohom, "_propagate", counted)
    reports = verify_thm1(Instance(3, 1, 3))
    assert walks == [8] and reports[0].pairs


def test_h1_of_the_zero_module_assembles_nothing(F3):
    # the direct route hands h1_dim the zero module when the center fixes no
    # vector of the Hom module
    G = build_gl(F3, 2)
    M = trivial_module(G, 0)
    assert M.dim == 0 and len(G.generators) > 0
    r = h1_dim(G, M)
    assert (r.dims, r.mode, r.edges_used, r.basis) == ((0, 0, 0), "exhaustive", 0, [])
    assert M._all is None  # no action table was built


def test_solver_leaves_numpy_random_unloaded():
    code = (
        "import sys\n"
        "from borelext.chars import TorusChar, trivial_char\n"
        "from borelext.cohom import h1_dim\n"
        "from borelext.field import make_field\n"
        "from borelext.gmodule import hom_module, induced_module\n"
        "from borelext.group import (BruhatCosets, build_gl, build_torus, build_unipotent,\n"
        "                            weyl_elements)\n"
        "F = make_field(3, 1)\n"
        "G = build_gl(F, 2)\n"
        "C = BruhatCosets(build_torus(F, 2), build_unipotent(F, 2), weyl_elements(F, 2))\n"
        "M = hom_module(induced_module(C, G, trivial_char(2, 2)),\n"
        "               induced_module(C, G, TorusChar((1, 1), 2)))\n"
        "assert h1_dim(G, M).dim_h1 == 1\n"
        "assert 'numpy.random' not in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cohom.__file__).parents[1]))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_memory_budget_error(F3):
    G = build_gl(F3, 2)
    cosets = BruhatCosets(build_torus(F3, 2), build_unipotent(F3, 2), weyl_elements(F3, 2))
    i1 = induced_module(cosets, G, trivial_char(2, 2))
    M = hom_module(i1, i1)
    with pytest.raises(MemoryBudgetError, match=r"9 \|H\| d\^2 = 9\*48\*16\^2"):
        h1_dim(G, M, budget_mb=0)
    assert M._all is None  # refused before the action table is built


@functools.lru_cache(maxsize=None)
def _gl_setup(p, f, n):
    """G, B, T, N, the characters and one induced module per character, built
    from G's element table, so the checks below do not use the Bruhat cosets."""
    fld = make_field(p, f)
    G, B = build_gl(fld, n), build_borel(fld, n)
    coset_data = brute_coset_data(G, B)
    chars = all_chars(n, fld.q - 1)
    inds = {c.exps: brute_induced_module(G, B, c, coset_data) for c in chars}
    return G, B, build_torus(fld, n), build_unipotent(fld, n), chars, inds


@pytest.mark.parametrize(
    "p,f,n,direct,chi2s",
    [(3, 1, 2, True, None), (5, 1, 2, True, None), (3, 2, 2, False, [(1, 2)])],
    ids=["3-1-2", "5-1-2", "3-2-2"],
)
def test_two_path_ext_gl2_f3_all_pairs(p, f, n, direct, chi2s):
    # Ext^1_G(Ind chi1, Ind chi2) three ways: the G-level solve (only where
    # |G| is small, f = 1, over the F_p-Hom with its table written from the
    # factors'), the B-level Shapiro solve, and the N-level T-isotypic
    # route; at f = 2 one chi2 is checked against all 64 chi1.  The table
    # representatives are not in normal form, so N's action carries chi2,
    # each chi2 gets its own N solve, and its table is read as one cell
    G, B, T, N, chars, inds = _gl_setup(p, f, n)
    targets = chars if chi2s is None else [TorusChar(e, G.field.q - 1) for e in chi2s]
    seen = 0
    for c2 in targets:
        M = inds[c2.exps]
        whole = [(0, M.dim // f)]
        [iso] = cell_multiplicities(N, T, restrict(M, N), restrict(M, T), whole)
        assert len(iso) == len(chars)
        res = restrict(inds[c2.exps], B)
        for c1, got in zip(chars, iso):
            shap = ext1_dim_shapiro(B, c1, res).dim_h1
            assert got == shap
            if direct:
                assert h1_dim(G, brute_kron_hom(inds[c1.exps], inds[c2.exps])).dim_h1 == shap
            seen += got
    assert seen > 0


@pytest.mark.parametrize("p,f,n", [(3, 1, 2), (3, 2, 2)], ids=["3-1-2", "3-2-2"])
def test_isotypic_dims_sum_to_h1_over_unipotent(p, f, n):
    # T is semisimple and split over F_q, so H^1(N, M) is the sum of its
    # chi1-isotypic pieces
    G, B, T, N, chars, inds = _gl_setup(p, f, n)
    for c2 in chars:
        M = inds[c2.exps]
        total = h1_dim(N, restrict(M, N)).dim_h1
        [iso] = cell_multiplicities(N, T, restrict(M, N), restrict(M, T), [(0, M.dim // f)])
        assert iso.sum() == total > 0


@functools.lru_cache(maxsize=None)
def _bruhat_setup(p, f, n):
    """B, T, N, the characters and the Bruhat cosets of GL_n(F_q)."""
    fld = make_field(p, f)
    T, N = build_torus(fld, n), build_unipotent(fld, n)
    return (build_borel(fld, n), T, N, all_chars(n, fld.q - 1),
            BruhatCosets(T, N, weyl_elements(fld, n)))


@pytest.mark.parametrize("p,f,n", [(3, 1, 2), (5, 1, 2), (3, 2, 2), (3, 1, 3)],
                         ids=["3-1-2", "5-1-2", "3-2-2", "3-1-3"])
def test_unipotent_action_on_the_cosets_does_not_depend_on_chi(p, f, n):
    # N permutes the normal-form cosets with b in N, so chi(diag b) = 1 and
    # Res_N Ind chi is one permutation module: the fact that lets every
    # chi2 share one N solve.  Res_N of the module over B, resolved along
    # B's words, and the module over N read off the coset search agree
    B, T, N, chars, cosets = _bruhat_setup(p, f, n)
    first = restrict(induced_module(cosets, B, chars[0]), N).gen_action
    for chi in chars:
        for M in (restrict(induced_module(cosets, B, chi), N), induced_module(cosets, N, chi)):
            assert len(M.gen_action) == len(first) > 0
            assert all((a == b).all() for a, b in zip(M.gen_action, first))


def test_projection_refuses_a_torus_action_off_the_solved_space():
    # cell_multiplicities reads rho(t) from a module over T of the solved
    # dim: Ind chi over T is read, and Ind chi over B, or a T-module of
    # another dim, is refused
    B, T, N, chars, cosets = _bruhat_setup(3, 1, 3)
    MN = induced_module(cosets, N, chars[0])
    assert h1_dim(N, MN).dim_h1 > 0
    tables = cell_multiplicities(N, T, MN, induced_module(cosets, T, chars[5]), cosets.cells)
    assert [len(m) for m in tables] == [len(chars)] * len(cosets.cells)
    for other in (induced_module(cosets, B, chars[5]), char_module(T, chars[5])):
        with pytest.raises(StructureError, match="not a module over T on the solved space"):
            cell_multiplicities(N, T, MN, other, cosets.cells)


def _cell_module(cosets, H, start, stop, chi):
    """Ind chi over H on the cosets of one cell alone, from H's coset action."""
    target, logs = cosets.actions[H]
    return MonomialModule(H, target[start:stop] - start, logs[start:stop], chi, label="cell")


@pytest.mark.parametrize("p,f,n", [(3, 1, 2), (3, 2, 2), (3, 1, 3), (5, 1, 3)],
                         ids=["3-1-2", "3-2-2", "3-1-3", "5-1-3"])
def test_cell_multiplicities_sum_to_each_cells_h1(p, f, n):
    # one N solve on the whole coset space: each cell's table sums to h_w,
    # the dim of H^1(N, F_q[cell w]) solved over that cell's cosets alone,
    # the h_w sum to h, and the nonzero entries are T's eigencharacters there
    B, T, N, chars, cosets = _bruhat_setup(p, f, n)
    triv = chars[0]
    MN = induced_module(cosets, N, triv)
    tables = cell_multiplicities(N, T, MN, induced_module(cosets, T, triv), cosets.cells)
    dims = [h1_dim(N, _cell_module(cosets, N, a, b, triv)).dim_h1 for a, b in cosets.cells]
    assert [int(m.sum()) for m in tables] == dims
    assert sum(dims) == h1_dim(N, MN).dim_h1 > 0
    for (a, b), m in zip(cosets.cells, tables):
        # the cell's own solve, split by T as one cell, gives the same table
        [own] = cell_multiplicities(N, T, _cell_module(cosets, N, a, b, triv),
                                    _cell_module(cosets, T, a, b, triv), [(0, b - a)])
        assert own.tolist() == m.tolist()


def test_cell_multiplicities_refuse_cells_that_are_not_submodules():
    # splitting the cell of (1,3,2) at GL_3(F_3), whose H^1 has dim 2: N
    # moves cosets between the halves, so the part of an H^1 basis cocycle
    # on one half is not a cocycle
    B, T, N, chars, cosets = _bruhat_setup(3, 1, 3)
    MN, MT = induced_module(cosets, N, chars[0]), induced_module(cosets, T, chars[0])
    a, b = cosets.cells[1]
    assert b - a == 3 and cell_multiplicities(N, T, MN, MT, [(a, b)])[0].sum() == 2
    with pytest.raises(StructureError, match="not a cocycle"):
        cell_multiplicities(N, T, MN, MT, [(a, a + 1), (a + 1, b)])
    # two copies of Ind 1 at GL_2(F_3), each a submodule over N, which T
    # swaps: a module over T N whose copies are not T-stable
    B, T, N, chars, cosets = _bruhat_setup(3, 1, 2)
    k = len(cosets.reps)
    (tn, ln), (tt, lt) = cosets.actions[N], cosets.actions[T]
    MN = MonomialModule(N, np.vstack([tn, tn + k]), np.vstack([ln, ln]), chars[0], "two")
    MT = MonomialModule(T, np.vstack([tt + k, tt]), np.vstack([lt, lt]), chars[0], "swapped")
    h = h1_dim(N, MN).dim_h1
    assert h > 0
    assert sum(int(m.sum()) for m in cell_multiplicities(N, T, MN, MT, [(0, 2 * k)])) == h
    with pytest.raises(StructureError, match="moves a cell's H\\^1 out of it"):
        cell_multiplicities(N, T, MN, MT, [(0, k), (k, 2 * k)])


def test_ext_gl2_f5_twist_pair():
    F5 = make_field(5, 1)
    G = build_gl(F5, 2)
    B = build_borel(F5, 2)
    assert h1_dim(B, hom_module(char_module(B, trivial_char(2, 4)),
                                char_module(B, simple_root(1, 2, 4)))).dim_h1 == 1
    assert h1_dim(B, hom_module(char_module(B, TorusChar((1, 2), 4)),
                                char_module(B, TorusChar((1, 2), 4)))).dim_h1 == 0


def test_h1_representatives_match_one_by_one_extension():
    # one elimination of the coboundaries' coordinates picks the nullspace
    # vectors that extending the coboundary span one vector at a time picks,
    # and its rank is dim B^1; checked at Z^1 and at systems with part of the
    # constraints, whose nullspace is larger but still holds B^1
    from borelext.linalg import RowReducer, nullspace_mod, rank_mod

    rng = np.random.default_rng(5)
    for H, M in _solver_cases():
        p = M.p
        r = h1_dim(H, M)
        cob, _ = cohom._coboundary_rows(M)
        z1 = np.vstack([cob] + [c.values.reshape(1, -1) for c in r.basis])
        constraints = nullspace_mod(z1, p)  # rows whose nullspace is Z^1
        for keep in (constraints.shape[0], constraints.shape[0] // 2, 1):
            red = RowReducer(p, z1.shape[1])
            mix = rng.integers(0, p, size=(keep, constraints.shape[0]))
            if constraints.size:
                red.add_rows(mix @ constraints % p)
            reps, dim_b1 = cohom._h1_representatives(red, cob, p)
            quot = RowReducer(p, red.ncols)
            if cob.size:
                quot.add_rows(cob)
            want = [v for v in red.nullspace() if quot.add_rows(v[None, :])]
            assert dim_b1 == rank_mod(cob, p) == r.dim_b1
            assert len(reps) == len(want) and all((a == b).all() for a, b in zip(reps, want))


def _check_gauged_solve(H, M, want):
    # dims as the reference gives them, and a basis that vanishes at the
    # gauge, is made of cocycles and meets B^1 only in 0: no nonzero
    # combination of it is a coboundary
    r = h1_dim(H, M)
    assert (r.gauge, r.gauged) == (0, M.dim)
    assert r.dims == want
    assert len(r.basis) == r.dim_h1
    for c in r.basis:
        assert not c.values[0].any() and c.is_valid()
    for coef in itertools.product(range(M.p), repeat=r.dim_h1):
        if any(coef):
            values = sum(k * c.values for k, c in zip(coef, r.basis)) % M.p
            assert not is_coboundary(H, M, Cocycle(H, M, values))
    return r


def test_generator_reference_matches_the_function_space_reference(F3):
    # brute_h1_generators, the reference for groups too large for brute_h1,
    # agrees with brute_h1 wherever both run, and its np_rank with gauss_rank
    rng = np.random.default_rng(7)
    for _ in range(30):
        A = rng.integers(0, 3, size=(rng.integers(1, 40), rng.integers(1, 12)))
        A[rng.random(A.shape) < 0.5] = 0
        assert np_rank(A, 3) == gauss_rank(A.tolist(), 3)
    G, B, T, N, chars, inds = _gl_setup(3, 1, 2)
    cases = [(B, restrict(inds[c.exps], B)) for c in chars]
    cases += [(B, char_module(B, c)) for c in chars]
    T1 = build_torus(make_field(3, 2), 1)
    cases += [(T1, trivial_module(T1, 3)), (build_unipotent(F3, 2), trivial_module(build_unipotent(F3, 2), 2))]
    for H, M in cases:
        assert brute_h1_generators(H, M) == brute_h1(H, M)


@pytest.mark.parametrize("p,sample", [(3, None), (5, 3)], ids=["3-1-2", "5-1-2"])
def test_gauged_hom_solves_match_the_reference(p, sample):
    # every Hom between principal series of GL_2(F_3), and a seeded sample of
    # those of GL_2(F_5) whose central characters agree (M^Z != 0), are
    # gauged at diag(zeta, 1), of order q - 1
    G, B, T, N, chars, inds = _gl_setup(p, 1, 2)
    pairs = [(c1, c2) for c1 in chars for c2 in chars
             if sample is None or (sum(c1.exps) - sum(c2.exps)) % (p - 1) == 0]
    if sample:
        pairs = [pairs[i] for i in np.random.default_rng(0).choice(len(pairs), sample, replace=False)]
    assert cohom._edge_sweep(G).powers.size == p - 1
    found = 0
    for c1, c2 in pairs:
        M = hom_module(inds[c1.exps], inds[c2.exps])
        found += _check_gauged_solve(G, M, brute_h1_generators(G, M)).dim_h1
    assert found > 0


@pytest.mark.parametrize("p,f,sample", [(3, 1, None), (3, 2, 3)], ids=["3-1-2", "3-2-2"])
def test_gauged_res_b_ind_solves_match_the_reference(p, f, sample):
    # Res_B Ind chi over B, several blocks of f coordinates, gauged at the
    # first torus generator; every chi at (3,1,2), a seeded sample at (3,2,2)
    G, B, T, N, chars, inds = _gl_setup(p, f, 2)
    if sample:
        chars = [chars[i] for i in np.random.default_rng(0).choice(len(chars), sample, replace=False)]
    for c in chars:
        M = restrict(inds[c.exps], B)
        want = brute_h1(B, M) if B.order <= 12 else brute_h1_generators(B, M)
        _check_gauged_solve(B, M, want)


def test_every_unknown_gauged_away(F3):
    # one generator of order prime to p: the gauge removes every unknown,
    # so H^1 = 0, and Z^1 = B^1 still have their dims; the one non-tree
    # edge has all its terms in block s*
    F9 = make_field(3, 2)
    T1, T9 = build_torus(F3, 1), build_torus(F9, 1)
    blocks = [char_module(T9, TorusChar((e,), 8)).gen_action[0] for e in (0, 3)]
    swap = FpModule(T1, [np.array([[0, 1], [1, 0]])])
    pair = FpModule(T9, [np.block([[blocks[0], np.zeros((2, 2), dtype=np.int64)],
                                   [np.zeros((2, 2), dtype=np.int64), blocks[1]]])])
    for H, M in [(T1, trivial_module(T1, 2)), (T1, swap), (T9, pair)]:
        r = h1_dim(H, M)
        assert (r.gauge, r.gauged, r.mode, r.edges_used) == (0, M.dim, "exhaustive", 1)
        assert r.dims == brute_h1(H, M) and r.dim_h1 == 0 and not r.basis
    assert cohom._edge_sweep(T9).rows(pair, 0, 1, 0).shape == (4, 0)


def test_p_groups_are_not_gauged(F3):
    # N is a p-group, so no generator has order prime to p; B's gauge is its
    # first torus generator, also for a character module
    inst = get_instance(3, 1, 3)
    N = inst.N
    assert cohom._edge_sweep(N).gauge is None
    r = h1_dim(N, induced_module(inst.bruhat_cosets, N, trivial_char(3, 2)))
    assert (r.gauge, r.gauged) == (None, 0) and r.dim_h1 > 0
    B = build_borel(F3, 2)
    M = char_module(B, simple_root(1, 2, 2))
    r = _check_gauged_solve(B, M, brute_h1(B, M))
    assert r.dim_h1 == 1 and r.basis[0].values[1:].any()


def test_thm1_at_gl3_f3_takes_no_matrix_product_or_inverse(monkeypatch):
    # cell_multiplicities conjugates N's generators by T's by scaling entries
    calls = []
    monkeypatch.setattr(group_mod, "_mul_codes", lambda *a: calls.append("mul"))
    monkeypatch.setattr(group_mod.Mat, "inv", lambda self: calls.append("inv"))
    assert verify_thm1(Instance(3, 1, 3))[0].pairs
    assert calls == []


def test_h1_of_cyclic_group_of_order_251():
    # C_251 on a 2x2 Jordan block: the norm sum_j J^j = (J - 1)^250 vanishes,
    # so H^1 = ker(norm) / im(J - 1) has dim 2 - 1 = 1 (Brown, GTM 87, III.1).
    # The tree reaches depth 250, so an edge row sums 250 actions along the
    # tree path of its endpoint before it is reduced.
    F251 = make_field(251, 1)
    N = build_unipotent(F251, 2)
    assert N.order == 251 and len(N.generators) == 1
    r = h1_dim(N, FpModule(N, [np.array([[1, 1], [0, 1]])]))
    assert r.dims == (2, 1, 1)
    assert r.mode == "exhaustive" and r.edges_used == 1
    assert r.basis[0].is_valid()
    assert h1_dim(N, trivial_module(N)).dims == (1, 0, 1)
