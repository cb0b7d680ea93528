"""Outside-in benchmark for `borelext.verify.run_statement`.

    python3 perfbench/run.py --workload gl3-shapiro --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; borelext is imported from ./src.
Every pass runs in a fresh interpreter (the verify caches would otherwise
turn a second pass into lookups), single-threaded with the default
`VerifyConfig`.  Each pass's rows are checked against the reference in
perfbench/reference/.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones (medians over passes); with --trace 1 an untraced
and a traced pass run back to back and the metrics are the per-layer ones.
Exit code 0 when every row matches, 1 when some row fails, 2 when the
checkout or the arguments are unusable.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 9  # extra import-only interpreters per run, for a steady setup_s
RUN_LIMIT_S = 150  # no pass starts that is expected to end after this
OUT_DIR = ROOT / ".perfbench-out"


class CheckoutError(RuntimeError):
    pass


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(extra: list[str], timeout: float) -> dict:
    """Run child.py in a fresh interpreter and parse its JSON line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    t = _now()
    cmd = [sys.executable, str(HERE / "child.py"), "--spawned", repr(t), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(timeout, 1.0))
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise RuntimeError(f"pass exited {proc.returncode}: {tail[0]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_fingerprint() -> dict:
    """The git commit when the checkout is a repository, and a hash of src/."""
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        commit = got.stdout.strip() or None
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return {"git_commit": commit, "src_sha256": h.hexdigest()[:16]}


def check_checkout(workload: str) -> dict:
    if not (ROOT / "src" / "borelext" / "__init__.py").is_file():
        raise CheckoutError(f"no borelext sources under {ROOT / 'src'}")
    try:
        return workloads.load_reference(workload)
    except FileNotFoundError as exc:
        raise CheckoutError(f"missing reference: {exc}") from None


def fmt(name: str, value, unit: str) -> str:
    return f"{name} = {value:.6g} {unit}" if isinstance(value, float) else f"{name} = {value} {unit}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        ref = check_checkout(args.workload)
    except CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    t_run = _now()
    order = workloads.entry_order(args.workload, args.seed)
    print(f"workload {args.workload} seed {args.seed}: entries {','.join(order)}")
    print(f"source {json.dumps(source_fingerprint())}")
    passes, comparisons, errors, setups = [], [], [], []
    for _ in range(SETUP_PROBES):
        try:
            setups.append(spawn(["--probe"], RUN_LIMIT_S)["setup_s"])
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            errors.append(f"setup probe: {exc}")
            break

    def one_pass(trace_out: Path | None) -> dict | None:
        extra = ["--entries", ",".join(order)]
        if trace_out is not None:
            extra += ["--trace-out", str(trace_out)]
        try:
            res = spawn(extra, RUN_LIMIT_S - (_now() - t_run))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            errors.append(str(exc))
            comparisons.append(workloads.compare(ref, None, None))
            return None
        setups.append(res["setup_s"])
        comparisons.append(workloads.compare(ref, res["rows"], res["verdicts"]))
        return res

    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        trace_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        plain = one_pass(None)
        traced = one_pass(trace_file)
        passes = [r for r in (plain, traced) if r is not None]
    else:
        t0 = _now()
        while True:
            res = one_pass(None)
            if res is None:
                break
            passes.append(res)
            elapsed = _now() - t0
            per_pass = elapsed / len(passes)
            if elapsed + per_pass > args.seconds or _now() - t_run + per_pass > RUN_LIMIT_S:
                break

    attempted = sum(c["rows"] for c in comparisons)
    failed = sum(c["failed"] for c in comparisons)
    for c in comparisons:
        for key, want, got in c["mismatches"][:10]:
            print(f"row mismatch {key}: reference dim {want}, got {got}")
        if c["extra"]:
            print(f"{c['extra']} rows not in the reference")
    for name, want, got in comparisons[0]["verdict_diffs"] if comparisons else []:
        print(f"verdict difference at {name}: reference {want}, got {got} (not counted as failed)")
    for err in errors:
        print(f"pass failed: {err}")
    print(fmt("fail_frac", failed / attempted if attempted else 1.0, "ratio"))
    if passes:
        print(f"env {json.dumps(passes[0]['env'], sort_keys=True)}")
        for name, verdicts in passes[0]["verdicts"].items():
            tally = {v: verdicts.count(v) for v in sorted(set(verdicts))}
            print(f"verdicts {name}: {tally}")

    ok = bool(passes) and not errors and failed == 0
    metrics: dict[str, dict] = {}
    if args.trace:
        if len(passes) == 2:
            summary = passes[1]["trace"]
            overhead = passes[1]["wall_s"] - passes[0]["wall_s"]
            layer = {k: tuple(v) for k, v in summary["metrics"].items()}
            layer["trace.overhead_s"] = (overhead, "s")
            for name, (value, unit) in {**layer, **summary["printed"]}.items():
                print(fmt(name, value, unit))
            print(tracer.tail_note(summary["tail"]))
            print(f"untraced wall_s = {passes[0]['wall_s']:.6g} s, spans in {trace_file}")
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    elif passes:
        rows = comparisons[0]["rows"]
        walls = [r["wall_s"] for r in passes]
        e2e = {
            "wall_s": (statistics.median(walls), "s"),
            "rows_per_s": (statistics.median(rows / w for w in walls), "1/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in passes), "MB"),
        }
        for name, (value, unit) in e2e.items():
            print(fmt(name, value, unit))
        per_pass = ", ".join(f"{r['wall_s']:.3f}/{r['cpu_s']:.3f}" for r in passes)
        print(f"passes {len(passes)}, rows per pass {rows}; wall/cpu s per pass {per_pass}; "
              f"setup samples {len(setups)}")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    print(json.dumps({"correct": ok, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
