"""The verification layer: one N-level solve per instance, one
T-multiplicity table per Bruhat cell and rows in chi1-major order, each
cell's part of the Shapiro array against its Mackey ledger row, the
array's cell sums against both oracle routes and its zeros at n = 1, a
predictor that takes no Weyl length, report bytes independent of the BLAS
thread count, no thread pool loaded by a run, the two oracle paths of
thm1, prop4's B-level route against the G-level solve, char_ext against the
pairwise F_q-Hom module, the shared N solve against the B-level solve at
every pair of GL_3(F_3), the principal-series oracle at GL_3(F_3) and
GL_3(F_5) without an element table of G, the direct route's reduction to
the center-fixed part against the full Hom solve, the direct and Shapiro
routes at GL_2(F_9), where the F_p-Hom would count more, the pinned bytes of the
thm1 reports at GL_2(F_5), GL_2(F_9) and GL_3(F_3), of the mackey reports
at GL_2(F_5) and GL_3(F_3) and of the prop1-4 reports, and the n = 1
instances, where N is trivial."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from borelext import cli
from borelext import verify as V
from borelext.chars import frobenius_twist, match_theorem1_condition, weyl_twist
from borelext import cohom, linalg
from borelext.cohom import H1Result, h1_dim
from borelext.gmodule import char_module, det_char_module, fq_hom_module, hom_module, induced_module
from borelext.group import WeylElement, diag_mat
from borelext.linalg import rank_mod

from _brute import brute_fq_hom


def _center_id(inst):
    """The id of gamma I in G, which generates the center Z."""
    fld = inst.field
    return inst.G.element_id(diag_mat(fld, (fld.generator_code,) * inst.n))


@pytest.mark.parametrize("pfn", [(3, 1, 2), (3, 1, 3)], ids=["3-1-2", "3-1-3"])
def test_thm1_solves_n_once_and_tabulates_each_cell_once_in_chi1_major_order(monkeypatch, pfn):
    n_solves, tabulated, torus_modules, ranks, inside = [], [], [], [], []
    inst = V.Instance(*pfn)
    real_solve, real_tabulate = cohom.h1_dim, V.cell_multiplicities
    real_induced, real_rank = V.induced_module, linalg.rank_mod

    def solve(H, M, **kw):
        if H is inst.N:
            n_solves.append(M.dim)
        return real_solve(H, M, **kw)

    def tabulate(*args, **kw):
        inside.append(True)
        try:
            tables = real_tabulate(*args, **kw)
        finally:
            inside.pop()
        tabulated.append(len(tables))
        return tables

    def induced(cosets, H, chi):
        if H is inst.T:
            torus_modules.append(chi.exps)
        return real_induced(cosets, H, chi)

    def rank(A, p):
        if inside:
            ranks.append(len(A))
        return real_rank(A, p)

    monkeypatch.setattr(cohom, "h1_dim", solve)
    monkeypatch.setattr(V, "cell_multiplicities", tabulate)
    monkeypatch.setattr(V, "induced_module", induced)
    monkeypatch.setattr(linalg, "rank_mod", rank)
    nec, _ = V.verify_thm1(inst)
    # one N solve serves the instance, one table per Bruhat cell serves every
    # pair, T acts through Ind 1 alone, and no pair takes a rank of its own:
    # at most one per (cell, character)
    assert len(n_solves) == 1
    assert tabulated == [len(inst.weyls)]
    assert torus_modules == [(0,) * inst.n]
    assert 0 < len(ranks) <= len(inst.weyls) * len(inst.chars) < len(nec.pairs)
    assert [(r.chi1, r.chi2) for r in nec.pairs] == [
        (c1.exps, c2.exps) for c1 in inst.chars for c2 in inst.chars]


@pytest.mark.parametrize("args", [(3, 1, 2), (5, 1, 2), (3, 1, 3), (3, 2, 2)], ids=str)
def test_each_bruhat_cell_gives_its_mackey_ledger_row(args):
    # cell w's part of the Shapiro dim against the ledger row at the same w,
    # dim H^1(B∩B^w, F_q[chi1^{-1} chi2^w]): char_ext solves it over B∩B^w
    # itself, sharing no code with cell_multiplicities, once per (w, beta)
    inst = V.Instance(*args)
    cfg = V.VerifyConfig()
    table = inst.shapiro_table(cfg)
    assert table.shape == (len(inst.weyls), len(inst.chars), len(inst.chars))
    ledger, rows = {}, 0
    for j, chi2 in enumerate(inst.chars):
        for k, w in enumerate(inst.weyls):
            for i, chi1 in enumerate(inst.chars):
                beta = chi1.inverse() * weyl_twist(chi2, w)
                if (w.perm, beta.exps) not in ledger:
                    ledger[w.perm, beta.exps] = inst.char_ext(w, beta, cfg)
                assert table[k, i, j] == ledger[w.perm, beta.exps]
                rows += 1
        assert inst.shapiro_dim(inst.chars[0], chi2, cfg) == table[:, 0, j].sum()
    assert rows == len(inst.weyls) * len(inst.chars) ** 2
    assert len(ledger) == len(inst.weyls) * len(inst.chars) and any(ledger.values())


@pytest.mark.parametrize("args", [(3, 1, 2), (5, 1, 2)], ids=str)
def test_shapiro_table_sums_to_the_pair_dims_of_both_routes(args):
    # the (cell, chi1, chi2) array, summed over its cells, is what
    # shapiro_dim reads and what the G-level direct solve gives, pair by pair
    inst = V.Instance(*args)
    cfg = V.VerifyConfig()
    table = inst.shapiro_table(cfg)
    C = len(inst.chars)
    assert table.shape == (len(inst.weyls), C, C)
    assert np.issubdtype(table.dtype, np.integer)
    for i, chi1 in enumerate(inst.chars):
        for j, chi2 in enumerate(inst.chars):
            dim = int(table[:, i, j].sum())
            assert dim == inst.shapiro_dim(chi1, chi2, cfg) == inst.direct_dim(chi1, chi2, cfg)
    assert table.any()


def test_shapiro_table_at_n1_is_zero_without_a_solve(monkeypatch):
    # N is trivial at n = 1, so every H^1 vanishes and nothing is solved
    calls = []
    real = cohom.h1_dim

    def solve(H, M, **kw):
        calls.append(H.label)
        return real(H, M, **kw)

    monkeypatch.setattr(cohom, "h1_dim", solve)
    inst = V.Instance(3, 1, 1)
    table = inst.shapiro_table(V.VerifyConfig())
    assert table.shape == (1, 2, 2) and not table.any()
    assert calls == []


def test_thm1_predictor_takes_no_weyl_length_once_the_weyls_are_built(monkeypatch):
    # match_theorem1_condition scans weyls in the Bruhat-length order they
    # come in; the coset search, built first here, checks each cell's size
    # against q^length once per cell
    inst = V.Instance(3, 1, 3)
    inst.weyls, inst.bruhat_cosets
    real = WeylElement.length
    calls = []

    def length(w):
        calls.append(w.perm)
        return real.fget(w)

    monkeypatch.setattr(WeylElement, "length", property(length))
    V.verify_thm1(inst)
    assert calls == []


@pytest.mark.parametrize("threads", [2, 4])
def test_thm1_report_bytes_do_not_depend_on_threads(threads):
    # the solve runs in one Python thread; the only other threads a run could
    # get are numpy's BLAS threads, which exact F_p arithmetic must not depend on
    one = V.reports_to_json(V.verify_thm1(V.Instance(3, 1, 2)))
    code = (
        "import sys\n"
        "from borelext import verify as V\n"
        "sys.stdout.write(V.reports_to_json(V.verify_thm1(V.Instance(3, 1, 2))))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(V.__file__).parents[1]),
               OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               MKL_NUM_THREADS=str(threads))
    many = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout
    assert one == many


def test_verify_run_leaves_concurrent_futures_unloaded():
    code = (
        "import os, sys\n"
        "from borelext import cli\n"
        "assert cli.main(['verify', 'thm1', '--p', '3', '--output', 'json',\n"
        "                 '--out', os.devnull]) == 0\n"
        "assert 'concurrent.futures' not in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(V.__file__).parents[1]))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_thm1_direct_and_shapiro_paths_agree():
    nec, _ = V.verify_thm1(V.Instance(3, 1, 2))
    assert nec.extras["paths"] == ["direct", "shapiro"]
    assert nec.extras["path_mismatches"] == []
    assert any(r.dim > 0 for r in nec.pairs)
    out = json.loads(V.reports_to_json([nec]))
    assert out["schema"] == 2
    assert not any("mode" in r for r in out["pairs"])


@pytest.mark.parametrize("args,reduced", [((3, 1, 2), 8), ((5, 1, 2), 192)], ids=str)
def test_direct_dim_matches_the_full_hom_solve(args, reduced, monkeypatch):
    # p is prime to |Z| = q - 1, so H^1(G, M) = H^1(G, M^Z): every pair makes
    # one h1_dim call, on the zero module exactly where z = gamma I acts on
    # the two induced factors by different scalars, and its answer is the
    # full Hom module's, solved from its factors' blocks; at f = 1 that
    # module has hom_module's kron generators.  The instance builds one zero
    # module and solves it at every such pair
    dims, zeros = [], []
    real, real_zero = V.h1_dim, V.trivial_module

    def counted(H, M, **kw):
        dims.append(M.dim)
        if not M.dim:
            assert M is inst.zero
        return real(H, M, **kw)

    monkeypatch.setattr(V, "h1_dim", counted)
    monkeypatch.setattr(V, "trivial_module", lambda *a: zeros.append(a) or real_zero(*a))
    inst = V.Instance(*args)
    cfg = V.VerifyConfig()

    def scalar(chi):
        z = inst.induced(chi).act(_center_id(inst))
        assert (z == z[0, 0] * np.eye(len(z), dtype=np.int64)).all()
        return int(z[0, 0])

    apart = 0
    for chi1 in inst.chars:
        for chi2 in inst.chars:
            got = inst.direct_dim(chi1, chi2, cfg)
            differ = scalar(chi1) != scalar(chi2)
            assert len(dims) == 1 and (dims.pop() == 0) == differ
            apart += differ
            M = fq_hom_module(inst.induced(chi1), inst.induced(chi2))
            kron = hom_module(inst.induced(chi1), inst.induced(chi2))
            assert all((a == b).all() for a, b in zip(M.gen_action, kron.gen_action))
            assert got == real(inst.G, M).dim_h1
    assert apart == reduced and zeros == [(inst.G, 0)]


@pytest.fixture(scope="module")
def gl2_f9():
    return V.Instance(3, 2, 2)


@pytest.mark.parametrize("chi1,chi2,fixed", [
    ((0, 0), (0, 1), 0),    # central characters 1 and gamma: apart
    ((1, 0), (1, 1), 0),    # gamma and gamma^2: apart
    ((0, 0), (1, 7), 200),  # both 1, so z acts trivially on Hom
    ((1, 0), (0, 1), 200),  # both gamma, outside F_3
    ((1, 0), (1, 2), 0),    # gamma and gamma^3: Frobenius conjugates, but apart
], ids=str)
def test_center_decision_matches_the_hom_kernel_at_f9(gl2_f9, chi1, chi2, fixed, monkeypatch):
    # the exponent rule, and direct_dim's choice of module by it, against
    # the kernel of rho_Hom(z) - 1 on the 200 x 200 matrix of z on
    # Hom_{F_q}(Ind chi1, Ind chi2): z acts by the F_q-scalar c2 / c1, so the
    # kernel is everything where the central characters agree and 0
    # elsewhere, also where they are Frobenius conjugates
    inst = gl2_f9
    z = _center_id(inst)
    M = fq_hom_module(inst.induced(inst.char(chi1)), inst.induced(inst.char(chi2)))
    rho = M.at(np.array([z]))[0].astype(np.int64)
    assert (rho == M.act(z)).all()
    d = len(rho)
    assert d - rank_mod((rho - np.eye(d, dtype=np.int64)) % 3, 3) == fixed
    assert ((sum(chi1) - sum(chi2)) % inst.qm1 != 0) == (fixed == 0)
    dims = []

    def recorded(H, M, **kw):
        dims.append(M.dim)
        return H1Result(0, 0, 0, "exhaustive")

    monkeypatch.setattr(V, "h1_dim", recorded)
    inst.direct_dim(inst.char(chi1), inst.char(chi2), V.VerifyConfig())
    assert dims == [0 if fixed == 0 else d]


def _b3_pairs(inst):
    """The pairs of GL_2(F_9) where Hom_{F_p} and Hom_{F_q} count Ext
    differently: over F_p the Hom is the sum over k < f of the F_q-Homs from
    the Frobenius twists chi1^{p^k}, so they differ where a twist k > 0 has
    a nonzero F_q-dim."""
    cfg = V.VerifyConfig()
    return [(c1, c2) for c1 in inst.chars for c2 in inst.chars
            if any(inst.shapiro_dim(frobenius_twist(c1, k), c2, cfg) for k in range(1, inst.f))]


def test_direct_and_shapiro_routes_agree_at_f9(gl2_f9):
    # the direct route counts F_q-linear extensions: at GL_2(F_9) its G-level
    # solve of Hom_{F_q}(Ind chi1, Ind chi2) (d = 200) gives shapiro_dim on
    # the pair (0,0) -> (1,7), on a seeded sample of 3 more of the 128 pairs
    # where the F_p count differs, and on 2 other pairs whose central
    # characters agree, at the default memory budget
    inst = gl2_f9
    cfg = V.VerifyConfig()
    b3 = _b3_pairs(inst)
    assert len(b3) == 128
    first = (inst.char((0, 0)), inst.char((1, 7)))
    assert first in b3
    rng = np.random.default_rng(26)
    pairs = [first] + [b3[i] for i in rng.choice(len(b3), 3, replace=False)]
    fixed = [(c1, c2) for c1 in inst.chars for c2 in inst.chars
             if (sum(c1.exps) - sum(c2.exps)) % inst.qm1 == 0 and (c1, c2) not in b3]
    pairs += [fixed[i] for i in rng.choice(len(fixed), 2, replace=False)]
    got = [(inst.direct_dim(c1, c2, cfg), inst.shapiro_dim(c1, c2, cfg)) for c1, c2 in pairs]
    assert got[0] == (2, 2)
    assert all(direct == shap for direct, shap in got)


@pytest.mark.parametrize("p", [3, 5])
def test_prop4_matches_the_g_level_solve(p):
    # Shapiro: Ext^1_G(det^a, Ind chi2) = Ext^1_B(det^a|_B, chi2); the report
    # takes the B-level side, the reference solves over G for every (a, chi2)
    inst = V.Instance(p, 1, 2)
    rep = V.verify_prop4(inst)
    assert len(rep.pairs) == inst.qm1 * len(inst.chars)
    for r in rep.pairs:
        M = brute_fq_hom(det_char_module(inst.G, r.chi1[0]), inst.induced(inst.char(r.chi2)))
        assert r.dim == h1_dim(inst.G, M).dim_h1
    assert any(r.dim for r in rep.pairs)


@pytest.mark.parametrize("args", [(3, 1, 2), (5, 1, 2), (3, 2, 2)], ids=str)
def test_char_ext_matches_the_pairwise_hom_reference(args):
    # Hom_{F_q}(F_q[chi1], F_q[chi2^w]) = F_q[chi1^{-1} chi2^w]: the reference
    # builds the pairwise module over B∩B^w for every (chi1, chi2, w) and
    # solves each distinct action once; char_ext solves each (w, beta) once
    inst = V.Instance(*args)
    cfg = V.VerifyConfig()
    ref, ours = {}, {}
    for w in inst.weyls:
        H = inst.bw(w)
        for chi1 in inst.chars:
            for chi2 in inst.chars:
                chi2w = weyl_twist(chi2, w)
                M = fq_hom_module(char_module(H, chi1), char_module(H, chi2w))
                key = (w.perm, b"".join(a.tobytes() for a in M.gen_action))
                if key not in ref:
                    ref[key] = h1_dim(H, M).dim_h1
                beta = chi1.inverse() * chi2w
                if (w.perm, beta.exps) not in ours:
                    ours[w.perm, beta.exps] = inst.char_ext(w, beta, cfg)
                assert ours[w.perm, beta.exps] == ref[key]
    assert len(ours) == len(ref) == len(inst.weyls) * len(inst.chars)
    assert any(ours.values())


def test_thm1_report_bytes_at_gl2_f5_are_pinned():
    # both oracle routes run here; the digest was taken when Ind chi over G
    # was built from G's element table, so a change of basis in the induced
    # modules or of the solver's path must not move a byte of the report
    out = V.reports_to_json(V.run_statement("thm1", (5, 1, 2), V.VerifyConfig()))
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "20eece7511006889dc9cf401094ccb3be1e81e2405ff8d55a78234cad0127414"


def test_thm1_report_bytes_at_gl2_f9_are_pinned():
    # the Shapiro route's per-cell multiplicity ranks are narrow systems, so
    # this pins the Python-int regime of RowReducer; the digest was taken
    # when every system went through the blocked numpy eliminator
    out = V.reports_to_json(V.run_statement("thm1", (3, 2, 2), V.VerifyConfig()))
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "7b418653b4837d3d3249bcae319a22d852088636f7e3345faf225d86b7ed2fc8"


@pytest.mark.parametrize("statement,digest", [
    ("thm1", "c1aa81dc8c82c6a4446f5da1d4e1e5b5fdf57184c2ae99792797c0bd79b0d214"),
    ("mackey", "bb252461d36cc80af91ee861767bf9eee70328111f62460b1941c0bd86824c28"),
], ids=["thm1", "mackey"])
def test_gl3_f3_shapiro_report_bytes_are_pinned(statement, digest):
    # thm1's dims and mackey's g_level_dim at GL_3(F_3) are sums over the six
    # Bruhat cells of the Shapiro tables; the digests were taken when each
    # chi2 gathered its own row of them into a per-pair dict
    out = V.reports_to_json(V.run_statement(statement, (3, 1, 3), V.VerifyConfig()))
    assert hashlib.sha256(out.encode()).hexdigest() == digest


REPORT_PINS = [
    ("prop1", (5, 1, 2), "75f40cf0fd3df0febf0eb37a9c5fd2edd53fe5c53f29d78ba30e3bcb9ed6dd1c"),
    ("prop2", (3, 1, 3), "3b1dd6071f5b2d48466ce43f7ec89c31842af57a25d55ac0d4b9e8f76d4e81f0"),
    ("prop3", (3, 2, 2), "771f799662299ffbb663a4a986ce4e62251e7dba0bdc5d37bb41dec0da24f1e4"),
    ("prop4", (3, 1, 2), "b1b2dd92b9cbdd636013803f633499343c8751a3449441a553914604e3235d79"),
    ("mackey", (5, 1, 2), "dcef802d03ad0df68df983628970aafdf80f7baf55abcda4f937d10c6e173280"),
]


@pytest.mark.parametrize("statement,args,digest", REPORT_PINS,
                         ids=[f"{st}-{'-'.join(map(str, a))}" for st, a, _ in REPORT_PINS])
def test_character_module_report_bytes_are_pinned(statement, args, digest):
    # the statements whose solves run on character modules and on Res_B Ind
    # chi; the digests were taken when every module table was filled with
    # matrix products along the BFS tree
    out = V.reports_to_json(V.run_statement(statement, args, V.VerifyConfig()))
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_gl3_oracle_dims_at_the_open_pairs():
    # the two pairs without a (w, i, k) witness; the verdict stays open, so
    # only the oracle values are pinned
    nec, _ = V.verify_thm1(V.Instance(3, 1, 3))
    dims = {(r.chi1, r.chi2): r.dim for r in nec.pairs}
    assert dims[(0, 1, 0), (1, 1, 1)] == 2
    assert dims[(1, 0, 1), (0, 0, 0)] == 2


def test_shapiro_route_never_builds_g():
    inst = V.Instance(3, 1, 3)
    V.verify_thm1(inst)
    assert "G" not in inst.__dict__


def test_instance_lists_the_groups_it_built_in_order():
    inst = V.Instance(3, 1, 2)
    assert inst.groups() == []
    V.verify_thm1(inst)
    # the Bruhat cosets read T and N; the direct route at n = 2 solves over G
    assert [g.label for g in inst.groups()] == ["T", "N", "G"]
    w = inst.weyls[-1]
    Np = inst.nprime(w)
    built = inst.groups()
    assert len(built) == 6
    assert all(g is h for g, h in zip(built, (inst.T, inst.N, inst.G, inst.B, inst.bw(w), Np)))


def test_prop1_then_prop2_enumerate_b_once():
    # bw(1) is B itself, so prop2's nprime(1) and weyl_eigen(1) at the
    # identity read the B that prop1's char_ext built, and prop2's report
    # keeps its pinned bytes
    inst = V.Instance(3, 1, 3)
    V.verify_prop1(inst)
    out = V.reports_to_json(V.verify_prop2(inst))
    assert [g for g in inst.groups() if g.order == 216] == [inst.B]
    assert inst.bw(inst.weyls[0]) is inst.B
    digest = next(d for st, args, d in REPORT_PINS if (st, args) == ("prop2", (3, 1, 3)))
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_shared_n_solve_matches_the_b_level_solve_at_gl3_f3():
    # every pair of GL_3(F_3) through the shared N solve against the B-level
    # Shapiro solve, which solves each pair on its own, over the monomial
    # Hom_{F_q}(F_q[chi1], Res_B Ind chi2)
    inst = V.Instance(3, 1, 3)
    cfg = V.VerifyConfig()
    for c2 in inst.chars:
        res = induced_module(inst.bruhat_cosets, inst.B, c2)
        for c1 in inst.chars:
            M = fq_hom_module(char_module(inst.B, c1), res)
            assert inst.shapiro_dim(c1, c2, cfg) == h1_dim(inst.B, M).dim_h1


def test_shapiro_oracle_at_gl3_f5():
    # |GL_3(F_5)| = 1,488,000 is past enumeration; the Bruhat cosets give
    # Res_N and Res_T Ind chi2 on 186 cosets, and neither G nor B is built.
    # A B2 pair: dim 1 (the Mackey ledger puts it at w = (2,1,3)) and no
    # (w, i, k) witness
    inst = V.Instance(5, 1, 3)
    chi1, chi2 = inst.char((0, 1, 0)), inst.char((1, 1, 3))
    assert inst.shapiro_dim(chi1, chi2, V.VerifyConfig()) == 1
    assert match_theorem1_condition(chi1, chi2, inst.weyls) is None
    assert "G" not in inst.__dict__ and "B" not in inst.__dict__


@pytest.mark.parametrize("command", [["ext-ps"], ["verify", "thm1"]], ids=["ext-ps", "thm1"])
def test_n1_principal_series_ext_vanishes(command, capsys):
    # N is trivial at n = 1, so H^1(B, M) = H^1(T, M) = 0
    code = cli.main(command + ["--p", "3", "--n", "1", "--output", "json"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    reports = out if isinstance(out, list) else [out]
    dims = [r["dim"] for rep in reports for r in rep["pairs"]]
    assert len(dims) >= 4 and not any(dims)
