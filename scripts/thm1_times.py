"""Wall time, peak memory and report digest of thm1 at one instance, in one
process.

Runs `verify_thm1` at GL_n(F_{p^f}) from a cold start (no instance, group
or module cached before it) and prints the wall time of the statement, the
process's peak resident set (VmHWM, read from /proc/self/status; "n/a"
where that file does not exist), and the byte count and sha256 of the JSON
of its two reports (thm1_necessary and thm1_sufficient_w1), the bytes
`verify thm1 --output json` writes for that instance.  No benchmark
workload reaches the Bruhat scale of (5,1,3) or (7,1,3); this is the
harness for them.

    PYTHONPATH=src python scripts/thm1_times.py 5 1 3
"""

from __future__ import annotations

import hashlib
import sys
import time
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


def main(argv: list[str]) -> None:
    if len(argv) != 3:
        raise SystemExit("usage: thm1_times.py p f n")
    p, f, n = (int(a) for a in argv)
    start = time.perf_counter()
    reports = V.run_statement("thm1", (p, f, n), V.VerifyConfig())
    took = time.perf_counter() - start
    data = V.reports_to_json(reports).encode()
    print(f"thm1 ({p},{f},{n}): {took:.3f} s")
    print(f"peak RSS (VmHWM): {peak_rss_mb()}")
    print(f"report JSON: {len(data)} bytes, sha256 {hashlib.sha256(data).hexdigest()}")


if __name__ == "__main__":
    main(sys.argv[1:])
