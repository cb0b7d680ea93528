"""One benchmark pass in a fresh interpreter: run a workload's registry entries
through `borelext.verify.run_statement` with the default `VerifyConfig` and
print one JSON line with timings, rows and verdicts.

Started by run.py, never by hand:
    python3 perfbench/child.py --spawned T --probe
    python3 perfbench/child.py --spawned T --entries a,b,c [--trace-out FILE]
T is the parent's CLOCK_MONOTONIC reading just before the spawn, which the
child compares with its own reading once borelext is importable.
"""

import sys
import time

_spawned = float(sys.argv[sys.argv.index("--spawned") + 1])

import borelext  # noqa: E402
from borelext.verify import VerifyConfig, run_statement  # noqa: E402

SETUP_S = time.clock_gettime(time.CLOCK_MONOTONIC) - _spawned

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

import numpy as np  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS")


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "borelext": borelext.__version__,
    }


def run_pass(entries: list[str], tr: tracer.Tracer | None) -> dict:
    cfg = VerifyConfig()
    reports = {}
    t0, c0 = time.perf_counter(), time.process_time()
    for name in entries:
        statement, args = workloads.ENTRIES[name]
        if tr is None:
            reports[name] = run_statement(statement, args, cfg)
        else:
            reports[name] = tr.entry_span(name, run_statement, statement, args, cfg)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    rows = {name: [row for rep in reps for row in workloads.report_rows(rep)]
            for name, reps in reports.items()}
    verdicts = {name: [rep.verdict for rep in reps] for name, reps in reports.items()}
    return {"wall_s": wall, "cpu_s": cpu, "rows": rows, "verdicts": verdicts}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--entries", default="")
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args()
    out = {"setup_s": SETUP_S}
    if not args.probe:
        tr = None
        if args.trace_out:
            tr = tracer.Tracer()
            tr.install()
        try:
            out.update(run_pass(args.entries.split(","), tr))
        finally:
            if tr is not None:
                tr.uninstall()
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out["env"] = environment()
        if tr is not None:
            out["trace"] = tracer.summarize(tr.spans)
            with open(args.trace_out, "w") as fh:
                json.dump({"fields": ["name", "start", "end", "parent", "entry", "attrs"],
                           "spans": tr.spans}, fh)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
