"""Per-entry wall time of the `verify all` registry, in one process.

Runs every REGISTRY entry in order, as `verify all` does (instances are
shared between entries), and prints one line per entry: its wall time, the
statement, its arguments and how many of its reports have each verdict.
Under it, a second line lists the groups the entry enumerated, label and
order: the groups its Instance holds after the entry and did not hold
before it (G, B, T, N, B∩B^w, N'_w).  lemma1 builds its own torus of
GL_1(F_q) outside any Instance, so its line lists none.
The last lines give the total, the byte count and sha256 of the registry's
JSON (the bytes `verify all --output json` writes), and the process's peak
resident set (VmHWM, read from /proc/self/status; "n/a" where that file
does not exist).

    PYTHONPATH=src python scripts/registry_times.py
"""

from __future__ import annotations

import hashlib
import time
from collections import Counter
from pathlib import Path

from borelext import verify as V


def peak_rss_mb() -> str:
    status = Path("/proc/self/status")
    if not status.exists():
        return "n/a"
    for line in status.read_text().splitlines():
        if line.startswith("VmHWM:"):
            return f"{int(line.split()[1]) / 1024:.1f} MB"
    return "n/a"


def main() -> None:
    cfg = V.VerifyConfig()
    total = 0.0
    every = []
    for statement, args in V.REGISTRY:
        inst = None if statement == "lemma1" else V.get_instance(*args)
        before = inst.groups() if inst else []
        start = time.perf_counter()
        reports = V.run_statement(statement, args, cfg)
        took = time.perf_counter() - start
        now = inst.groups() if inst else []
        built = [g for g in now if all(g is not h for h in before)]
        total += took
        every.extend(reports)
        counts = Counter(r.verdict for r in reports)
        verdicts = ", ".join(f"{n} {v}" for v, n in sorted(counts.items()))
        print(f"{took:8.3f} s  {statement:<7} {str(args):<10} {verdicts}")
        groups = ", ".join(f"{g.label} {g.order}" for g in built) or "none"
        print(f"{'':12}enumerated: {groups}")
    print(f"{total:8.3f} s  total")
    data = V.reports_to_json(every).encode()
    print(f"report JSON: {len(data)} bytes, sha256 {hashlib.sha256(data).hexdigest()}")
    print(f"peak RSS (VmHWM): {peak_rss_mb()}")


if __name__ == "__main__":
    main()
