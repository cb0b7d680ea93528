"""Tests of the benchmark's own machinery: reference check, tail rank rule,
tracer install/uninstall and seeded entry order.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402


def _rows_of(ref):
    return {name: copy.deepcopy(e["rows"]) for name, e in ref["entries"].items()}


def _verdicts_of(ref):
    return {name: list(e["verdicts"]) for name, e in ref["entries"].items()}


def test_reference_matches_itself():
    ref = workloads.load_reference("small-exhaustive")
    got = workloads.compare(ref, _rows_of(ref), _verdicts_of(ref))
    assert got["rows"] == 1244
    assert got["failed"] == 0 and got["verdict_diffs"] == []


def test_mutated_dim_fails_its_row():
    ref = workloads.load_reference("gl2-direct")
    rows = _rows_of(ref)
    rows["thm1-5-1-2"][5][7] += 1
    got = workloads.compare(ref, rows, _verdicts_of(ref))
    assert got["failed"] == 1
    assert got["failed"] / got["rows"] == pytest.approx(1 / 272)


def test_missing_row_and_raised_pass_fail():
    ref = workloads.load_reference("gl3-shapiro")
    rows = _rows_of(ref)
    del rows["thm1-3-1-3"][0]
    assert workloads.compare(ref, rows, _verdicts_of(ref))["failed"] == 1
    assert workloads.compare(ref, None, None)["failed"] == 80


def test_verdict_difference_is_reported_not_failed():
    ref = workloads.load_reference("gl3-shapiro")
    verdicts = _verdicts_of(ref)
    assert verdicts["thm1-3-1-3"] == ["fail", "pass"]  # open item B2
    verdicts["thm1-3-1-3"] = ["pass", "pass"]
    got = workloads.compare(ref, _rows_of(ref), verdicts)
    assert got["failed"] == 0
    assert got["verdict_diffs"] == [("thm1-3-1-3", ["fail", "pass"], ["pass", "pass"])]


@pytest.mark.parametrize("n, pct, beyond", [
    (19, 100.0, 0),    # fewer than 10 beyond even the median: the maximum
    (20, 50.0, 10),
    (64, 75.0, 16),    # p90 has rank 58, only 6 beyond
    (512, 98.0, 10),   # p99 has rank 507, only 5 beyond
    (1288, 99.0, 12),
    (10000, 99.9, 10),
])
def test_tail_rank_rule(n, pct, beyond):
    values = [float(v) for v in range(n, 0, -1)]
    got_pct, value, got_beyond = tracer.tail_percentile(values)
    assert (got_pct, got_beyond) == (pct, beyond)
    assert value == n - beyond  # nearest rank: the value at rank n - beyond
    assert sum(v > value for v in values) == beyond


def _bindings():
    return {(name, k): v for name, mod in sys.modules.items()
            if name == "borelext" or name.startswith("borelext.")
            for k, v in vars(mod).items() if callable(v)}


def test_wrappers_restore_originals():
    import borelext.cohom as cohom
    import borelext.gmodule as gmodule
    import borelext.linalg as linalg
    import borelext.verify as verify

    before = _bindings()
    methods = {(cls, m): cls.__dict__[m] for cls, m in [
        (linalg.RowReducer, "add_rows"), (gmodule.FpModule, "act_all"),
        (verify.Instance, "shapiro_dim")]}
    tr = tracer.Tracer()
    tr.install()
    try:
        assert verify.h1_dim is cohom.h1_dim is not before[("borelext.cohom", "h1_dim")]
        linalg.rank_mod([[1, 2], [2, 4]], 3)
        assert [s[0] for s in tr.spans] == ["linalg.add_rows"]
        assert tr.spans[0][5] == (2, 1)  # rows fed, pivots found
    finally:
        tr.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    assert all(cls.__dict__[m] is orig for (cls, m), orig in methods.items())


def test_traced_rows_equal_untraced(monkeypatch):
    import borelext.verify as verify

    def rows():
        monkeypatch.setattr(verify, "_INSTANCES", {})
        reps = verify.run_statement("thm1", (3, 1, 2), verify.VerifyConfig())
        return [row for rep in reps for row in workloads.report_rows(rep)]

    plain = rows()
    tr = tracer.Tracer()
    tr.install()
    try:
        traced = tr.entry_span("thm1-3-1-2", rows)
    finally:
        tr.uninstall()
    assert traced == plain
    metrics = tracer.summarize(tr.spans)["metrics"]
    assert metrics["cohom.h1_calls"][0] == metrics["verify.shapiro_solves"][0] + 16


def test_self_times_subtract_children():
    spans = [["a", 0.0, 10.0, -1, "e", None], ["b", 1.0, 4.0, 0, "e", None],
             ["c", 2.0, 3.0, 1, "e", None]]
    assert tracer.self_times(spans) == [7.0, 2.0, 1.0]


def test_one_seed_one_entry_order():
    first = workloads.entry_order("small-exhaustive", 7)
    assert workloads.entry_order("small-exhaustive", 7) == first
    assert sorted(first) == sorted(workloads.entry_order("small-exhaustive", 8))
    assert len({tuple(workloads.entry_order("small-exhaustive", s)) for s in range(5)}) > 1


def test_benchmark_json_lists_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    summary = tracer.summarize([])
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == {**{k: u for k, (_, u) in summary["metrics"].items()},
                         "trace.overhead_s": "s"}
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "rows_per_s", "setup_s",
                                                        "peak_rss_mb"}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
