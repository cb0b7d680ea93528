"""Order, wall time and peak memory of each group build at one instance,
one fresh process per group.

Builds G, B, T, N and every B∩B^w of GL_n(F_{p^f}), each in its own child
process, and prints one line per group: its label, its order, the wall time
of the build call (the field is made before the clock starts) and the
child's peak resident set (VmHWM, read from /proc/self/status; "n/a" where
that file does not exist).  A B∩B^w child builds no B: it hands
`intersect_conjugate` B's root data only, which is all it reads, so its
peak is its own.  No benchmark workload builds a group above 480 elements;
this is the harness for group-build time and memory at scale.

    PYTHONPATH=src python scripts/group_times.py 5 1 3
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from borelext import group
from borelext.field import make_field


def peak_rss_mb() -> str:
    status = Path("/proc/self/status")
    if not status.exists():
        return "n/a"
    for line in status.read_text().splitlines():
        if line.startswith("VmHWM:"):
            return f"{int(line.split()[1]) / 1024:.1f} MB"
    return "n/a"


def build_one(p: int, f: int, n: int, which: str) -> None:
    """Build one group, "G", "B", "T", "N" or the index of a Weyl element
    for B∩B^w, and print its line."""
    fld = make_field(p, f)
    try:
        H, took = _build(fld, n, which)
    except group.SizeBudgetError as e:
        print(f"{which:<18} not built: {e}", flush=True)
        return
    print(f"{H.label:<18} order {H.order:>9}  {took:8.3f} s  VmHWM {peak_rss_mb()}", flush=True)


def _build(fld, n: int, which: str):
    builders = {"G": group.build_gl, "B": group.build_borel, "T": group.build_torus,
                "N": group.build_unipotent}
    if which in builders:
        start = time.perf_counter()
        H = builders[which](fld, n)
    else:
        w = group.weyl_elements(fld, n)[int(which)]
        borel_roots = SimpleNamespace(field=fld, n=n, pattern=(group._positive_roots(n), True))
        start = time.perf_counter()
        H = group.intersect_conjugate(borel_roots, w)
    return H, time.perf_counter() - start


def main(argv: list[str]) -> None:
    if len(argv) == 5 and argv[0] == "--one":
        p, f, n = (int(a) for a in argv[1:4])
        build_one(p, f, n, argv[4])
        return
    if len(argv) != 3:
        raise SystemExit("usage: group_times.py p f n")
    p, f, n = (int(a) for a in argv)
    print(f"group builds at GL_{n}(F_{p ** f}), one process each")
    weyls = range(len(group.weyl_elements(make_field(p, f), n)))
    for which in ["G", "B", "T", "N"] + [str(i) for i in weyls]:
        subprocess.run([sys.executable, __file__, "--one", str(p), str(f), str(n), which],
                       check=True)


if __name__ == "__main__":
    main(sys.argv[1:])
