"""The verification layer: one N-level solve per instance and one
T-projection per chi2 in chi1-major order, report bytes independent of the
BLAS thread count, no thread pool loaded by a run, the two oracle paths of
thm1, prop4's B-level route against the G-level solve, char_ext against the
pairwise F_q-Hom module, the shared N solve against the B-level solve at
every pair of GL_3(F_3), the principal-series oracle at GL_3(F_3) and
GL_3(F_5) without an element table of G, the direct route's reduction to
the center-fixed part against the full Hom solve, the pinned bytes of the
thm1 reports at GL_2(F_5) and GL_2(F_9), and the n = 1 instances, where N
is trivial."""

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
from borelext.chars import TorusChar, frobenius_twist, match_theorem1_condition, weyl_twist
from borelext import cohom
from borelext.cohom import H1Result, h1_dim
from borelext.gmodule import char_module, det_char_module, fq_hom_module, hom_module, induced_module
from borelext.group import diag_mat
from borelext.linalg import rank_mod

from _brute import ext1_dim_shapiro


def _center_id(inst):
    """The id of gamma I in G, which generates the center Z."""
    fld = inst.field
    return inst.G.element_id(diag_mat(fld, (fld.generator_code,) * inst.n))


@pytest.mark.parametrize("pfn", [(3, 1, 2), (3, 1, 3)], ids=["3-1-2", "3-1-3"])
def test_thm1_solves_n_once_and_projects_each_chi2_once_in_chi1_major_order(monkeypatch, pfn):
    n_solves, projections = [], []
    inst = V.Instance(*pfn)
    real_solve, real_project = cohom.h1_dim, V.UnipotentH1.isotypic_dims

    def solve(H, M, **kw):
        if H is inst.N:
            n_solves.append(M.dim)
        return real_solve(H, M, **kw)

    def project(self, M, chis):
        projections.append(M.chi.exps)
        return real_project(self, M, chis)

    monkeypatch.setattr(cohom, "h1_dim", solve)
    monkeypatch.setattr(V.UnipotentH1, "isotypic_dims", project)
    nec, _ = V.verify_thm1(inst)
    # one N solve serves the instance; the first chi1 of each chi2 projects
    # it onto T and fills the Shapiro cache for every chi1 of that chi2
    assert len(n_solves) == 1
    assert sorted(projections) == sorted(c.exps for c in inst.chars)
    assert [(r.chi1, r.chi2) for r in nec.pairs] == [
        (c1.exps, c2.exps) for c1 in inst.chars for c2 in inst.chars]


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
    # full Hom module's
    dims = []
    real = V.h1_dim

    def counted(H, M, **kw):
        dims.append(M.dim)
        return real(H, M, **kw)

    monkeypatch.setattr(V, "h1_dim", counted)
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
            M = hom_module(inst.induced(chi1), inst.induced(chi2))
            assert got == real(inst.G, M).dim_h1
    assert apart == reduced


@pytest.fixture(scope="module")
def gl2_f9():
    return V.Instance(3, 2, 2)


@pytest.mark.parametrize("chi1,chi2,fixed", [
    ((0, 0), (0, 1), 0),    # central characters 1 and gamma: apart
    ((1, 0), (1, 1), 0),    # gamma and gamma^2: apart
    ((0, 0), (1, 7), 400),  # both 1, so z acts trivially on Hom
    ((1, 0), (0, 1), 200),  # both gamma, outside F_3
    ((1, 0), (1, 2), 200),  # gamma and gamma^3, Frobenius conjugates
], ids=str)
def test_center_decision_matches_the_hom_kernel_at_f9(gl2_f9, chi1, chi2, fixed, monkeypatch):
    # the G-level solve does not fit at GL_2(F_9), so the exponent rule, and
    # direct_dim's choice of module by it, are checked against the kernel of
    # rho_Hom(z) - 1 on the 400 x 400 matrix
    inst = gl2_f9
    z = _center_id(inst)
    M1, M2 = inst.induced(inst.char(chi1)), inst.induced(inst.char(chi2))
    rho = np.kron(M2.act(z), M1.act(inst.G.inv_id(z)).T) % 3
    d = len(rho)
    assert d - rank_mod((rho - np.eye(d, dtype=np.int64)) % 3, 3) == fixed
    s1, s2 = (TorusChar((sum(chi),), inst.qm1) for chi in (chi1, chi2))
    assert all(frobenius_twist(s1, k) != s2 for k in range(inst.f)) == (fixed == 0)
    dims = []

    def recorded(H, M, **kw):
        dims.append(M.dim)
        return H1Result(0, 0, 0, "exhaustive")

    monkeypatch.setattr(V, "h1_dim", recorded)
    inst.direct_dim(inst.char(chi1), inst.char(chi2), V.VerifyConfig())
    assert dims == [0 if fixed == 0 else d]


@pytest.mark.parametrize("p", [3, 5])
def test_prop4_matches_the_g_level_solve(p):
    # Shapiro: Ext^1_G(det^a, Ind chi2) = Ext^1_B(det^a|_B, chi2); the report
    # takes the B-level side, the reference solves over G for every (a, chi2)
    inst = V.Instance(p, 1, 2)
    rep = V.verify_prop4(inst)
    assert len(rep.pairs) == inst.qm1 * len(inst.chars)
    for r in rep.pairs:
        M = fq_hom_module(det_char_module(inst.G, r.chi1[0]), inst.induced(inst.char(r.chi2)))
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
    # the Shapiro route's 4,096 isotypic ranks are narrow systems, so this
    # pins the Python-int regime of RowReducer; the digest was taken when
    # every system went through the blocked numpy eliminator
    out = V.reports_to_json(V.run_statement("thm1", (3, 2, 2), V.VerifyConfig()))
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "7b418653b4837d3d3249bcae319a22d852088636f7e3345faf225d86b7ed2fc8"


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


def test_shared_n_solve_matches_the_b_level_solve_at_gl3_f3():
    # every pair of GL_3(F_3) through the shared N solve against the B-level
    # Shapiro solve, which solves each pair on its own
    inst = V.Instance(3, 1, 3)
    cfg = V.VerifyConfig()
    for c2 in inst.chars:
        res = induced_module(inst.bruhat_cosets, inst.B, c2)
        for c1 in inst.chars:
            assert inst.shapiro_dim(c1, c2, cfg) == ext1_dim_shapiro(inst.B, c1, res).dim_h1


def test_shapiro_oracle_at_gl3_f5():
    # |GL_3(F_5)| = 1,488,000 is past enumeration; the Bruhat cosets give
    # Res_B Ind chi2 on 186 cosets.  A B2 pair: dim 1 (the Mackey ledger puts
    # it at w = (2,1,3)) and no (w, i, k) witness
    inst = V.Instance(5, 1, 3)
    chi1, chi2 = inst.char((0, 1, 0)), inst.char((1, 1, 3))
    assert inst.shapiro_dim(chi1, chi2, V.VerifyConfig()) == 1
    assert match_theorem1_condition(chi1, chi2, inst.weyls) is None
    assert "G" not in inst.__dict__


@pytest.mark.parametrize("command", [["ext-ps"], ["verify", "thm1"]], ids=["ext-ps", "thm1"])
def test_n1_principal_series_ext_vanishes(command, capsys):
    # N is trivial at n = 1, so H^1(B, M) = H^1(T, M) = 0
    code = cli.main(command + ["--p", "3", "--n", "1", "--output", "json"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    reports = out if isinstance(out, list) else [out]
    dims = [r["dim"] for rep in reports for r in rep["pairs"]]
    assert len(dims) >= 4 and not any(dims)
