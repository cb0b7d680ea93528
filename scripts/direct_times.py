"""Phase times of the direct route's Hom solves at one instance, in one process.

Solves H^1(G, Hom_{F_q}(Ind chi1, Ind chi2)) for every pair whose central
characters agree (M^Z != 0, the pairs `Instance.direct_dim` hands a Hom
module to `cohom.h1_dim`) from a cold start, and splits the solves' wall
time into phases by wrapping the functions that run them:

    chunk rows        cohom._EdgeSweep.rows (the module's run_sums read)
    elimination       linalg.RowReducer.add_rows called by h1_dim itself
    invariants+cob    cohom._coboundary_rows (M^{s*} and delta on it)
    representatives   cohom._h1_representatives (its nullspace and quotient)
    certificate       cohom._propagate and cohom._edge_defects
    other             the rest of h1_dim

A call inside another phase counts in the outer one, so the quotient
elimination of _h1_representatives is a representative's time.  Module and
induced-module builds are outside the solves and not counted.  The last
lines give the total, the number of solves and of chunks fed, and the sum
of their dim H^1.  The wrapped names exist at every commit since the gauge
was added, so the same command times a parent checkout with PYTHONPATH
pointing at its src/.

    PYTHONPATH=src python scripts/direct_times.py 5 1 2
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

from borelext import cohom, linalg
from borelext import verify as V
from borelext.gmodule import fq_hom_module

PHASES = [
    ("chunk rows", cohom._EdgeSweep, "rows"),
    ("elimination", linalg.RowReducer, "add_rows"),
    ("invariants+cob", cohom, "_coboundary_rows"),
    ("representatives", cohom, "_h1_representatives"),
    ("certificate", cohom, "_propagate"),
    ("certificate", cohom, "_edge_defects"),
]


def install(spent: dict, calls: dict) -> None:
    """Wrap each phase's function; only the outermost phase call is timed."""
    active = []

    def wrap(name, fn):
        def timed(*args, **kwargs):
            if active:
                return fn(*args, **kwargs)
            active.append(name)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[name] += time.perf_counter() - start
                calls[name] += 1
                active.pop()
        return timed

    for name, owner, attr in PHASES:
        setattr(owner, attr, wrap(name, getattr(owner, attr)))


def main(argv: list[str]) -> None:
    if len(argv) != 3:
        raise SystemExit("usage: direct_times.py p f n")
    p, f, n = (int(a) for a in argv)
    inst = V.Instance(p, f, n)
    pairs = [(c1, c2) for c1 in inst.chars for c2 in inst.chars
             if (sum(c1.exps) - sum(c2.exps)) % inst.qm1 == 0]
    modules = [fq_hom_module(inst.induced(c1), inst.induced(c2)) for c1, c2 in pairs]
    spent, calls = defaultdict(float), defaultdict(int)
    install(spent, calls)
    dims = 0
    start = time.perf_counter()
    for M in modules:
        dims += cohom.h1_dim(inst.G, M).dim_h1
    total = time.perf_counter() - start
    spent["other"] = total - sum(spent.values())
    for name in [*dict.fromkeys(name for name, _, _ in PHASES), "other"]:
        share = 100 * spent[name] / total if total else 0.0
        print(f"{name:16s} {1e3 * spent[name]:9.1f} ms {share:5.1f} %  {calls[name]:6d} calls")
    print(f"total            {1e3 * total:9.1f} ms for {len(modules)} Hom solves at "
          f"GL_{n}(F_{p ** f}), {calls['chunk rows']} chunks fed, sum of dim H^1 {dims}")


if __name__ == "__main__":
    main(sys.argv[1:])
