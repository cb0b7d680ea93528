"""Which functions of `src/borelext` no command runs.

Runs `verify all` and every CLI subcommand at a small instance, in each
output format, under `sys.settrace`, and records every `src/` function
whose code is entered.  Then it prints each function that none of them
ran, with its line count, marking `PROBES` where a row of
`perfbench/tracer.py`'s PROBES list binds it (the file is parsed, not
imported or edited).  A function that is listed is code that only the
tests, the benchmark tracer or nothing at all reaches.

    PYTHONPATH=src python scripts/src_reach.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import sys
import tempfile
from pathlib import Path

from borelext import cli

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "borelext"
TRACER = ROOT / "perfbench" / "tracer.py"

# every subcommand at an instance that runs in well under a second; `verify
# all` runs the fixed registry
COMMANDS = [
    ["verify", "all"],
    ["verify", "thm1", "--p", "3"],
    ["field", "--p", "3", "--f", "2"],
    *(["group", "--p", "3", "--label", label] for label in ("G", "B", "T", "N")),
    ["chars", "--p", "3", "--f", "2"],
    ["ext-b", "--p", "3"],
    ["ext-b", "--p", "3", "--chi1", "0,0", "--chi2", "1,1"],
    ["ext-ps", "--p", "3"],
    ["ext-ps", "--p", "3", "--path", "direct"],
    ["ext-ps", "--p", "3", "--chi1", "0,0", "--chi2", "1,1", "--path", "direct"],
    ["mackey", "--p", "3"],
    ["mackey", "--p", "3", "--chi1", "0,0", "--chi2", "1,1"],
]
FORMATS = ("text", "json", "csv")


def src_functions() -> dict[tuple[str, int], tuple[str, str, int]]:
    """(file, first line of the code object) -> (module, qualname, lines)
    for every function and method defined in src/borelext, nested ones
    included; a decorated function's code starts at its first decorator."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        module = f"borelext.{path.stem}" if path.stem != "__init__" else "borelext"

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    walk(child, prefix + [child.name])
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    start = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    name = ".".join(prefix + [child.name])
                    out[(str(path), start)] = (module, name, child.end_lineno - start + 1)
                    walk(child, prefix + [child.name])
                else:
                    walk(child, prefix)

        walk(ast.parse(path.read_text()), [])
    return out


def probe_rows() -> set[tuple[str, str]]:
    """(module, attribute) of every PROBES row, read from the tracer's source."""
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "PROBES" for t in node.targets):
            return {(row.elts[0].value, row.elts[1].value) for row in node.value.elts}
    raise SystemExit(f"no PROBES list in {TRACER}")


def run_all(commands) -> set[tuple[str, int]]:
    """(file, first line) of every src/ code object entered by the commands."""
    prefix = str(SRC)
    seen: set[tuple[str, int]] = set()

    def trace(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(prefix):
            seen.add((code.co_filename, code.co_firstlineno))

    with tempfile.TemporaryDirectory() as tmp:
        for i, argv in enumerate(commands):
            for fmt in FORMATS:
                args = [*argv, "--output", fmt]
                if i == 0 and fmt == "json":
                    args += ["--out", str(Path(tmp) / "report.json")]
                sink = io.StringIO()
                sys.settrace(trace)
                try:
                    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                        cli.main(args)
                finally:
                    sys.settrace(None)
    return seen


def main() -> None:
    funcs = src_functions()
    probed = probe_rows()
    seen = run_all(COMMANDS)
    rows = [(key, *val) for key, val in funcs.items() if key not in seen]
    total = 0
    for (path, line), module, name, lines in sorted(rows):
        mark = "PROBES" if (module, name) in probed else ""
        print(f"{Path(path).name}:{line:<5} {lines:4}  {name:<40} {mark}".rstrip())
        total += lines
    print(f"{len(rows)} of {len(funcs)} functions, {total} lines, run by no command")


if __name__ == "__main__":
    main()
