"""The cocycle solver against an independent full-function-space oracle,
cocycle/coboundary mechanics, the explicit root extension, and the
two-step inflation computation of H^1(B, F_q[chi])."""

import functools
import gc
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from borelext.chars import TorusChar, all_chars, evaluate, frobenius_twist, simple_root, trivial_char
from borelext import cohom, linalg
from borelext.cohom import Cocycle, MemoryBudgetError, UnipotentH1, h1_dim
from borelext.field import make_field
from borelext.gmodule import (
    FpModule,
    abelian_quotient_with_torus_action,
    char_module,
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

from _brute import (
    brute_cocycle_defects,
    brute_coset_data,
    brute_edge_rows,
    brute_h1,
    brute_induced_module,
    build_E_alpha,
    equivariant_hom_dim,
    ext1_dim_shapiro,
    is_coboundary,
    non_tree_edges,
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
    """Every character module over the Borels of GL_2(F_3) and GL_2(F_9), and
    one Hom between principal series of GL_2(F_3)."""
    F3, F9 = make_field(3, 1), make_field(3, 2)
    B3, B9, G3 = build_borel(F3, 2), build_borel(F9, 2), build_gl(F3, 2)
    cosets = BruhatCosets(B3, weyl_elements(F3, 2))
    i1 = induced_module(cosets, G3, trivial_char(2, 2))
    i2 = induced_module(cosets, G3, TorusChar((1, 1), 2))
    return ([(B3, char_module(B3, c)) for c in all_chars(2, 2)]
            + [(B9, char_module(B9, c)) for c in all_chars(2, 8)]
            + [(G3, hom_module(i1, i2))])


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
    cosets = BruhatCosets(build_borel(F3, 2), weyl_elements(F3, 2))
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
    E, d, act = len(edges), M.dim, M.batch_action()
    rows = sweep.rows(act, 0, E)
    assert rows.shape == (E * d, len(H.generators) * d)
    assert (rows % M.p == brute_edge_rows(H, M, edges)).all()
    a, b = E // 3, E // 3 + 7
    mid = sweep.rows(act, a, b)
    assert (mid == rows[a * d : b * d]).all()
    assert (mid % M.p == brute_edge_rows(H, M, edges[a:b])).all()
    assert cohom._edge_sweep(H) is sweep


@pytest.mark.parametrize("p", [3, 5])
def test_hom_solve_reads_the_factors_and_builds_no_table(p):
    # a Hom module's solve reads its action from its factors and leaves its
    # own table unbuilt; dims, mode, edges used and basis values are those of
    # the same solve on a table-backed module with the same generators, and
    # of the Hom module's solve once its table is built.  At GL_2(F_5) the
    # pairs are those whose central characters agree (M^Z != 0)
    G, B, T, N, chars, inds = _gl_setup(p, 1, 2)
    pairs = [(c1, c2) for c1 in chars for c2 in chars
             if (sum(c1.exps) - sum(c2.exps)) % (p - 1) == 0][: 12 if p == 3 else 6]
    certified = 0
    for chi1, chi2 in pairs:
        M = hom_module(inds[chi1.exps], inds[chi2.exps])
        r = h1_dim(G, M)
        assert M._all is None
        for other in (FpModule(G, M.gen_action, derived=True), M):
            other.act_all()
            ref = h1_dim(G, other)
            assert (r.dims, r.mode, r.edges_used) == (ref.dims, ref.mode, ref.edges_used)
            assert len(r.basis) == len(ref.basis)
            assert all((a.values == b.values).all() for a, b in zip(r.basis, ref.basis))
        assert all(c.is_valid() for c in r.basis)
        certified += r.mode == "sampled_verified"
    assert certified > 0


def test_edge_sweep_is_kept_per_group_and_dropped_with_it(F3):
    # equal groups built twice get a sweep each, and the cache does not keep
    # a dropped group alive
    B1, B2 = build_borel(F3, 2), build_borel(F3, 2)
    chi = TorusChar((1, 0), 2)
    assert h1_dim(B1, char_module(B1, chi)).dims == h1_dim(B2, char_module(B2, chi)).dims
    assert cohom._edge_sweep(B1) is not cohom._edge_sweep(B2)
    assert B1 in cohom._SWEEPS and B2 in cohom._SWEEPS
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
        "from borelext.group import BruhatCosets, build_borel, build_gl, weyl_elements\n"
        "F = make_field(3, 1)\n"
        "G, B = build_gl(F, 2), build_borel(F, 2)\n"
        "C = BruhatCosets(B, weyl_elements(F, 2))\n"
        "M = hom_module(induced_module(C, G, trivial_char(2, 2)),\n"
        "               induced_module(C, G, TorusChar((1, 1), 2)))\n"
        "assert h1_dim(G, M).dim_h1 == 1\n"
        "assert 'numpy.random' not in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cohom.__file__).parents[1]))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_memory_budget_error(F3):
    G = build_gl(F3, 2)
    B = build_borel(F3, 2)
    i1 = induced_module(BruhatCosets(B, weyl_elements(F3, 2)), G, trivial_char(2, 2))
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
    # |G| is small), the B-level Shapiro solve, and the N-level T-isotypic
    # route; at f = 2 one chi2 is checked against all 64 chi1.  The table
    # representatives are not in normal form, so N's action carries chi2
    # and each chi2 gets its own N solve
    G, B, T, N, chars, inds = _gl_setup(p, f, n)
    targets = chars if chi2s is None else [TorusChar(e, G.field.q - 1) for e in chi2s]
    seen = 0
    for c2 in targets:
        iso = UnipotentH1(N, T, inds[c2.exps]).isotypic_dims(inds[c2.exps], chars)
        res = restrict(inds[c2.exps], B)
        for c1, got in zip(chars, iso):
            shap = ext1_dim_shapiro(B, c1, res).dim_h1
            assert got == shap
            if direct:
                assert h1_dim(G, hom_module(inds[c1.exps], inds[c2.exps])).dim_h1 == shap
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
        solved = UnipotentH1(N, T, M)
        assert solved.h == total
        assert sum(solved.isotypic_dims(M, chars)) == total > 0


@functools.lru_cache(maxsize=None)
def _bruhat_setup(p, f, n):
    """B, T, N, the characters and the Bruhat cosets of GL_n(F_q)."""
    fld = make_field(p, f)
    B = build_borel(fld, n)
    return (B, build_torus(fld, n), build_unipotent(fld, n), all_chars(n, fld.q - 1),
            BruhatCosets(B, weyl_elements(fld, n)))


@pytest.mark.parametrize("p,f,n", [(3, 1, 2), (5, 1, 2), (3, 2, 2), (3, 1, 3)],
                         ids=["3-1-2", "5-1-2", "3-2-2", "3-1-3"])
def test_unipotent_action_on_the_cosets_does_not_depend_on_chi(p, f, n):
    # N permutes the normal-form cosets with b in N, so chi(diag b) = 1 and
    # Res_N Ind chi is one permutation module: the fact that lets every
    # chi2 share one N solve
    B, T, N, chars, cosets = _bruhat_setup(p, f, n)
    first = restrict(induced_module(cosets, B, chars[0]), N).gen_action
    for chi in chars[1:]:
        acts = restrict(induced_module(cosets, B, chi), N).gen_action
        assert len(acts) == len(first) > 0
        assert all((a == b).all() for a, b in zip(acts, first))


def test_projection_refuses_a_module_that_differs_on_one_n_generator():
    # the guard that makes the shared N solve exact: a module over B that
    # agrees with the solved one except on one generator of N is refused
    B, T, N, chars, cosets = _bruhat_setup(3, 1, 3)
    M = induced_module(cosets, B, chars[0])
    solved = UnipotentH1(N, T, M)
    assert solved.h > 0
    other = induced_module(cosets, B, chars[5])
    assert len(solved.isotypic_dims(other, chars)) == len(chars)
    s = next(i for i, g in enumerate(B.generators) if g.codes == N.generators[0].codes)
    twist = np.eye(M.dim, dtype=np.int64)
    twist[0, 0] = M.p - 1  # -1 on the first coset's F_q-block
    acts = [a @ twist % M.p if i == s else a for i, a in enumerate(other.gen_action)]
    changed = FpModule(B, acts, fq_form=True)
    assert sum((a != b).any() for a, b in zip(restrict(changed, N).gen_action,
                                              restrict(other, N).gen_action)) == 1
    with pytest.raises(StructureError, match="acts on N differently"):
        solved.isotypic_dims(changed, chars)


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
        cob = cohom._coboundary_rows(M)
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
