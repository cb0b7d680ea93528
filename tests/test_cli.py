"""The command line and the report format: removed flags and sizes below 1
are usage errors, `verify all` needs no --p while a single statement does,
CSV and JSON carry schema 2 without a solver-mode field, ExtReport.check
rejects contract-breaking rows, a failing report sets exit code 1, and
ext-ps gives the same dims on its direct and Shapiro paths and passes at
p = 3 on both."""

import json

import pytest

from borelext import cli
from borelext import verify as V
from borelext.chars import TwistWitness

BASE = ["ext-b", "--p", "3", "--n", "2"]


@pytest.mark.parametrize("flag", [["--mode", "exhaustive"], ["--seed", "1"], ["--threads", "1"]],
                         ids=["mode", "seed", "threads"])
def test_removed_flags_are_usage_errors(flag, capsys):
    assert cli.main(BASE + flag) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv,flag", [
    (["group", "--p", "3", "--n", "0"], "--n"),
    (["ext-b", "--p", "3", "--n", "0"], "--n"),
    (["mackey", "--p", "3", "--n", "-1"], "--n"),
    (["verify", "prop1", "--p", "3", "--budget-mb", "-5"], "--budget-mb"),
    (["verify", "all", "--budget-mb", "0"], "--budget-mb"),
], ids=["group-n", "ext-b-n", "mackey-n", "verify-budget", "verify-all-budget"])
def test_sizes_below_one_are_usage_errors(argv, flag, monkeypatch, capsys):
    # rejected before any group, module or solve is built
    monkeypatch.setattr(V, "run_all", lambda cfg: pytest.fail("run_all was reached"))
    monkeypatch.setattr(V, "run_statement", lambda *a: pytest.fail("run_statement was reached"))
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{flag} must be at least 1" in captured.err


def test_verify_all_needs_no_p(monkeypatch, capsys):
    monkeypatch.setattr(V, "run_all", lambda cfg: [])
    assert cli.main(["verify", "all", "--output", "json"]) == 0


def test_verify_statement_needs_p(capsys):
    assert cli.main(["verify", "prop1"]) == 2
    assert "--p" in capsys.readouterr().err


def test_csv_header_is_csv_fields(capsys):
    assert cli.main(BASE + ["--output", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ",".join(V.CSV_FIELDS)
    assert "mode" not in V.CSV_FIELDS
    assert len(lines) == 1 + 16


def test_json_schema_and_no_mode(capsys):
    assert cli.main(BASE + ["--output", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["schema"] == V.SCHEMA_VERSION == 2
    assert len(out["pairs"]) == 16
    assert not any("mode" in r for r in out["pairs"])


def test_text_has_no_mode_column(capsys):
    assert cli.main(BASE + ["--output", "text"]) == 0
    header = capsys.readouterr().out.splitlines()[2].split()
    assert header == ["chi1", "chi2", "w", "dim", "expected", "predicted", "witness"]


def _row(dim, predicted=False, witness=None, expected_dim=None):
    return V.PairRow((0, 0), (1, 0), predicted, witness, dim, expected_dim=expected_dim)


WIT = TwistWitness(1, 0)


@pytest.mark.parametrize("statement,rows,extras", [
    ("thm1_necessary", [_row(1, predicted=False, witness=None)], {}),
    ("ext-ps", [_row(1, predicted=False, witness=None)], {}),
    ("prop3", [_row(1, predicted=False)], {}),
    ("prop3", [_row(0, predicted=True, witness=WIT)], {}),
    ("prop1", [_row(0, predicted=True, witness=WIT, expected_dim=1)], {}),
    ("mackey", [_row(1), _row(0)], {"g_level_dim": 2}),
], ids=["thm1-no-witness", "ext-ps-no-witness", "prop3-unpredicted", "prop3-missed", "expected-dim", "mackey-sum"])
def test_check_rejects_contract_breaking_rows(statement, rows, extras):
    bad = V.ExtReport(3, 1, 2, statement, rows, extras=extras)
    assert not bad.check() and bad.verdict == "fail"


def test_check_passes_the_repaired_rows():
    assert V.ExtReport(3, 1, 2, "thm1_necessary", [_row(1, True, WIT)]).check()
    # the (w, i, k) condition is only necessary: a witness with dim 0 passes
    assert V.ExtReport(3, 1, 2, "ext-ps", [_row(0, True, WIT)]).check()
    assert V.ExtReport(3, 1, 2, "prop1", [_row(1, True, WIT, expected_dim=1)]).check()
    assert V.ExtReport(3, 1, 2, "mackey", [_row(1), _row(1)], extras={"g_level_dim": 2}).check()


def test_failing_report_sets_exit_code_1(monkeypatch, capsys):
    bad = V.ExtReport(3, 1, 2, "prop1", [_row(0, True, WIT, expected_dim=1)])
    monkeypatch.setattr(V, "run_statement", lambda statement, args, cfg: [bad])
    assert cli.main(["verify", "prop1", "--p", "3", "--output", "json"]) == 1
    assert json.loads(capsys.readouterr().out)["verdict"] == "fail"


def test_ext_ps_direct_and_shapiro_paths_agree(capsys):
    # cli ext-ps is the other caller of Instance.direct_dim; the exit code
    # follows the report's verdict, which takes thm1_necessary's rule, so
    # both paths pass
    dims, codes = {}, {}
    for path in ("direct", "shapiro"):
        codes[path] = cli.main(["ext-ps", "--p", "3", "--path", path, "--output", "json"])
        out = json.loads(capsys.readouterr().out)
        assert out["extras"] == {"path": path}
        dims[path] = [(r["chi1"], r["chi2"], r["dim"]) for r in out["pairs"]]
    assert len(dims["direct"]) == 16
    assert dims["direct"] == dims["shapiro"]
    assert codes == {"direct": 0, "shapiro": 0}
    assert any(d for _, _, d in dims["direct"])
