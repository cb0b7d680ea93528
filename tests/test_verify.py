"""The verification layer: one N-level solve per chi2 in chi1-major order,
report bytes independent of the BLAS thread count, no thread pool loaded by a
run, the two oracle paths of thm1, prop4's B-level
route against the G-level solve, the principal-series oracle at GL_3(F_3)
and GL_3(F_5) without an element table of G, and the n = 1 instances, where
N is trivial."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from borelext import cli
from borelext import verify as V
from borelext.chars import match_theorem1_condition
from borelext.cohom import h1_dim
from borelext.gmodule import det_char_module, fq_hom_module


def test_thm1_solves_once_per_chi2_in_chi1_major_order(monkeypatch):
    solves = []
    real = V.h1_isotypic_dims

    def counted(N, T, M, chis, **kw):
        solves.append(M.chi.exps)
        return real(N, T, M, chis, **kw)

    monkeypatch.setattr(V, "h1_isotypic_dims", counted)
    inst = V.Instance(3, 1, 2)
    nec, _ = V.verify_thm1(inst)
    # the first chi1 fills the Shapiro cache for every chi1 of each chi2
    assert sorted(solves) == sorted(c.exps for c in inst.chars)
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


@pytest.mark.parametrize("p", [3, 5])
def test_prop4_matches_the_g_level_solve(p):
    # Shapiro: Ext^1_G(det^a, Ind chi2) = Ext^1_B(det^a|_B, chi2); the report
    # takes the B-level side, the reference solves over G for every (a, chi2)
    inst = V.Instance(p, 1, 2)
    rep = V.verify_prop4(inst)
    assert len(rep.pairs) == inst.qm1 * len(inst.chars)
    for r in rep.pairs:
        M = fq_hom_module(det_char_module(inst.G, r.chi1[0]), inst.induced(inst.char(r.chi2)))
        assert r.dim == h1_dim(inst.G, M, want_basis=False).dim_h1
    assert any(r.dim for r in rep.pairs)


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
