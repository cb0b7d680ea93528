"""Workload definitions, seeded entry order, row keys and the reference check.

A workload is a fixed list of `borelext.verify.REGISTRY` entries.  The inputs
are mathematical tables, so the benchmark seed only permutes the order in which
the entries run; that order decides which entry warms the shared `Instance`
caches.  The seed is never passed to the program.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS: dict[str, list[tuple[str, tuple]]] = {
    # 64 B-level Shapiro solves at |B| = 432, d = 52, in sampled_verified mode;
    # the eliminator (RowReducer.add_rows) dominates.  Verdict `fail` (B2).
    "gl3-shapiro": [("thm1", (3, 1, 3))],
    # 256 pairs through both oracle paths; the G-level direct solves
    # (|G| = 480, d = 36) split between elimination, act_all and assembly.
    "gl2-direct": [("thm1", (5, 1, 2))],
    # Every registry entry under 2 s: about 1,300 tiny exhaustive solves,
    # f = 2 modules and the chars predictor; assembly dominates.
    "small-exhaustive": [
        ("prop1", (3, 1, 2)),
        ("prop1", (5, 1, 2)),
        ("prop1", (3, 1, 3)),
        ("prop2", (3, 1, 3)),
        ("prop3", (3, 2, 2)),
        ("lemma1", (3, 2)),
        ("lemma1", (5, 2)),
        ("thm1", (3, 1, 2)),
        ("prop4", (3, 1, 2)),
        ("mackey", (3, 1, 2)),
        ("mackey", (5, 1, 2)),
    ],
}

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def entry_name(statement: str, args: tuple) -> str:
    """`<stmt>-<p>-<f>-<n>`; lemma1 is stated over F_q^*, so n = 1."""
    p, f, n = (args[0], args[1], 1) if statement == "lemma1" else args
    return f"{statement}-{p}-{f}-{n}"


ENTRIES: dict[str, tuple[str, tuple]] = {
    entry_name(st, args): (st, args) for entries in WORKLOADS.values() for st, args in entries
}


def entry_order(workload: str, seed: int) -> list[str]:
    """The workload's entry names in the order the seed picks."""
    names = [entry_name(st, args) for st, args in WORKLOADS[workload]]
    random.Random(seed).shuffle(names)
    return names


def _code(t) -> str:
    return ";".join(map(str, t))


def report_rows(report) -> list[list]:
    """One [statement, p, f, n, chi1, chi2, w, dim] per report row.

    prop2 emits one report per Weyl element with w-free rows, so the row key
    takes w from the report when the row has none."""
    w = report.extras.get("w")
    out = []
    for r in report.pairs:
        rw = r.w if r.w is not None else w
        out.append([report.statement, report.p, report.f, report.n,
                    _code(r.chi1), _code(r.chi2), "" if rw is None else _code(rw), int(r.dim)])
    return out


def load_reference(workload: str) -> dict:
    with open(REFERENCE_DIR / f"{workload}.json") as fh:
        return json.load(fh)


def reference_rows(ref: dict) -> dict[tuple, int]:
    out = {}
    for entry in ref["entries"].values():
        for row in entry["rows"]:
            out[tuple(row[:7])] = row[7]
    return out


def compare(ref: dict, rows: dict[str, list[list]] | None,
            verdicts: dict[str, list[str]] | None) -> dict:
    """Failed reference rows and verdict differences for one pass.

    A reference row fails when the pass has no row with its key or a
    different dim; a pass that raised (rows is None) fails every row.
    Verdict differences are reported but never counted as failures."""
    want = reference_rows(ref)
    if rows is None:
        return {"rows": len(want), "failed": len(want), "mismatches": [], "extra": 0,
                "verdict_diffs": []}
    got = {tuple(r[:7]): r[7] for entry_rows in rows.values() for r in entry_rows}
    mismatches = [(k, d, got.get(k)) for k, d in want.items() if got.get(k) != d]
    extra = sum(1 for k in got if k not in want)
    diffs = []
    for name, entry in ref["entries"].items():
        have = (verdicts or {}).get(name)
        if have != entry["verdicts"]:
            diffs.append((name, entry["verdicts"], have))
    return {"rows": len(want), "failed": len(mismatches), "mismatches": mismatches,
            "extra": extra, "verdict_diffs": diffs}
