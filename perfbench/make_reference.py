"""Write perfbench/reference/<workload>.json: every oracle row's dim and every
report's verdict, per registry entry, from one untraced pass in registry order.

    python3 perfbench/make_reference.py [workload ...]

Run it only at a commit whose dims are trusted; the benchmark fails any later
commit whose rows differ from these files.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def build(workload: str) -> dict:
    entries = [workloads.entry_name(st, args) for st, args in workloads.WORKLOADS[workload]]
    res = run.spawn(["--entries", ",".join(entries)], timeout=600)
    by_entry = {name: {"verdicts": res["verdicts"][name], "rows": res["rows"][name]}
                for name in entries}
    keys = [tuple(r[:7]) for e in by_entry.values() for r in e["rows"]]
    if len(set(keys)) != len(keys):
        raise RuntimeError(f"{workload}: row keys are not unique")
    return {"workload": workload, "source": run.source_fingerprint(), "entries": by_entry}


def dumps(ref: dict) -> str:
    """JSON with one row per line, so reference changes diff row by row."""
    parts = []
    for name, entry in ref["entries"].items():
        rows = ",\n".join(json.dumps(r) for r in entry["rows"])
        parts.append(f'{json.dumps(name)}: {{"verdicts": {json.dumps(entry["verdicts"])},'
                     f'\n"rows": [\n{rows}]}}')
    head = {k: v for k, v in ref.items() if k != "entries"}
    return json.dumps(head)[:-1] + ', "entries": {\n' + ",\n".join(parts) + "}}\n"


def main(names: list[str]) -> None:
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or sorted(workloads.WORKLOADS):
        ref = build(name)
        path = workloads.REFERENCE_DIR / f"{name}.json"
        with open(path, "w") as fh:
            fh.write(dumps(ref))
        rows = sum(len(e["rows"]) for e in ref["entries"].values())
        print(f"{path.name}: {rows} rows")


if __name__ == "__main__":
    main(sys.argv[1:])
