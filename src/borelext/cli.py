"""Command-line interface: build fields and groups, compute Ext tables, run
the verification suites, and emit JSON/CSV/text reports.

Exit codes: 0 all checks passed (findings allowed), 1 a verification
contract failed, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import verify as V
from .chars import TorusChar, match_simple_root_twist, match_theorem1_condition, simple_root
from .cohom import MemoryBudgetError
from .field import FieldError, make_field
from .group import SizeBudgetError, build_borel, build_gl, build_torus, build_unipotent

STATEMENTS = ("prop1", "prop2", "prop3", "lemma1", "thm1", "prop4", "mackey", "all")


class UsageError(ValueError):
    pass


def _add_common(sp, p_required: bool = True):
    sp.add_argument("--p", type=int, required=p_required, help="odd prime characteristic")
    sp.add_argument("--f", type=int, default=1, help="field extension degree")
    sp.add_argument("--n", type=int, default=2, help="matrix size")
    sp.add_argument("--budget-mb", type=int, default=1024)
    sp.add_argument("--output", choices=("json", "csv", "text"), default="text")
    sp.add_argument("--out", type=str, default=None, help="write the report here")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="borelext",
        description="Ext^1 between Borel characters and principal series of "
                    "GL_n(F_q), with a brute-force cohomology oracle.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("field", help="field context: modulus, generator, tables")
    _add_common(sp)

    sp = sub.add_parser("group", help="order and generators of G, B, T or N")
    _add_common(sp)
    sp.add_argument("--label", choices=("G", "B", "T", "N"), default="G")

    sp = sub.add_parser("chars", help="torus characters and simple roots")
    _add_common(sp)

    sp = sub.add_parser("ext-b", help="Ext table between Borel characters")
    _add_common(sp)
    sp.add_argument("--chi1", type=str, default=None, help="comma-separated exponents")
    sp.add_argument("--chi2", type=str, default=None)

    sp = sub.add_parser("ext-ps", help="Ext table between principal series")
    _add_common(sp)
    sp.add_argument("--chi1", type=str, default=None)
    sp.add_argument("--chi2", type=str, default=None)
    sp.add_argument("--path", choices=("shapiro", "direct"), default="shapiro")

    sp = sub.add_parser("verify", help="run a verification statement")
    sp.add_argument("statement", choices=STATEMENTS)
    # `verify all` runs the fixed registry, so it needs no instance
    _add_common(sp, p_required=False)

    sp = sub.add_parser("mackey", help="per-Weyl-element Ext ledger")
    _add_common(sp)
    sp.add_argument("--chi1", type=str, default=None)
    sp.add_argument("--chi2", type=str, default=None)

    return ap


def _parse_char(text: str | None, n: int, qm1: int) -> TorusChar | None:
    if text is None:
        return None
    try:
        exps = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"cannot parse character exponents {text!r}")
    if len(exps) != n:
        raise UsageError(f"expected {n} exponents, got {len(exps)}")
    return TorusChar(exps, qm1)


def _check_sizes(args) -> None:
    for flag, value in (("--n", args.n), ("--budget-mb", args.budget_mb)):
        if value < 1:
            raise UsageError(f"{flag} must be at least 1, got {value}")


def _cfg(args) -> V.VerifyConfig:
    return V.VerifyConfig(budget_mb=args.budget_mb)


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report_text(reports) -> str:
    lines = []
    for rep in reports:
        head = (f"statement {rep.statement}  instance p={rep.p} f={rep.f} n={rep.n}  "
                f"verdict {rep.verdict.upper()}")
        lines.append(head)
        lines.append("-" * len(head))
        widths = None
        header = ["chi1", "chi2", "w", "dim", "expected", "predicted", "witness"]
        rows = []
        for r in rep.pairs:
            wit = ""
            if r.witness is not None:
                wtag = f",w={r.witness.weyl.perm}" if r.witness.weyl is not None else ""
                wit = f"(i={r.witness.root_index},k={r.witness.frob_power}{wtag})"
            rows.append([
                str(r.chi1), str(r.chi2), str(r.w) if r.w else "",
                str(r.dim), "" if r.expected_dim is None else str(r.expected_dim),
                "yes" if r.predicted else "no", wit,
            ])
        widths = [max(len(header[i]), *(len(row[i]) for row in rows)) if rows else len(header[i])
                  for i in range(len(header))]
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        for row in rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        for note in rep.findings:
            lines.append(f"finding: {note}")
        if rep.extras:
            keep = {k: v for k, v in rep.extras.items() if k != "path_mismatches" or v}
            if keep:
                lines.append(f"extras: {json.dumps(keep, sort_keys=True)}")
        lines.append("")
    return "\n".join(lines)


def _emit_reports(args, reports) -> int:
    if args.output == "json":
        _emit(args, V.reports_to_json(reports))
    elif args.output == "csv":
        _emit(args, V.reports_to_csv(reports))
    else:
        _emit(args, _report_text(reports))
    return 1 if any(rep.verdict == "fail" for rep in reports) else 0


def _cmd_field(args) -> int:
    fld = make_field(args.p, args.f)
    info = {
        "p": fld.p, "f": fld.f, "q": fld.q,
        "modulus": list(fld.modulus),
        "generator": list(fld.code_coeffs(fld.generator_code)),
        "generator_str": fld.poly_str(fld.generator_code),
    }
    if args.output == "json":
        _emit(args, json.dumps(info, sort_keys=True, separators=(",", ":")) + "\n")
    else:
        _emit(args, "".join(f"{k}: {v}\n" for k, v in info.items()))
    return 0


_BUILDERS = {"G": build_gl, "B": build_borel, "T": build_torus, "N": build_unipotent}


def _cmd_group(args) -> int:
    fld = make_field(args.p, args.f)
    builder = _BUILDERS[args.label]
    grp = builder(fld, args.n)
    info = grp.dump()
    if args.output == "json":
        _emit(args, json.dumps(info, sort_keys=True, separators=(",", ":")) + "\n")
    else:
        _emit(args, "".join(f"{k}: {v}\n" for k, v in info.items()))
    return 0


def _cmd_chars(args) -> int:
    fld = make_field(args.p, args.f)
    qm1 = fld.q - 1
    info = {
        "count": qm1 ** args.n,
        "qm1": qm1,
        "simple_roots": [list(simple_root(i, args.n, qm1).exps) for i in range(1, args.n)],
        "frobenius_multiplier": args.p,
    }
    if args.output == "json":
        _emit(args, json.dumps(info, sort_keys=True, separators=(",", ":")) + "\n")
    else:
        _emit(args, "".join(f"{k}: {v}\n" for k, v in info.items()))
    return 0


def _cmd_ext_b(args) -> int:
    inst = V.get_instance(args.p, args.f, args.n)
    cfg = _cfg(args)
    c1 = _parse_char(args.chi1, args.n, inst.qm1)
    c2 = _parse_char(args.chi2, args.n, inst.qm1)
    chars1 = [c1] if c1 else inst.chars
    chars2 = [c2] if c2 else inst.chars
    rows = []
    for chi1 in chars1:
        for chi2 in chars2:
            beta = chi1.inverse() * chi2
            wit = match_simple_root_twist(beta)
            rows.append(V.PairRow(chi1.exps, chi2.exps, wit is not None, wit,
                                  inst.char_ext(inst.weyls[0], beta, cfg)))
    rep = V.ExtReport(args.p, args.f, args.n, "ext-b", rows)
    return _emit_reports(args, [rep])


def _cmd_ext_ps(args) -> int:
    inst = V.get_instance(args.p, args.f, args.n)
    cfg = _cfg(args)
    c1 = _parse_char(args.chi1, args.n, inst.qm1)
    c2 = _parse_char(args.chi2, args.n, inst.qm1)
    chars1 = [c1] if c1 else inst.chars
    chars2 = [c2] if c2 else inst.chars
    dim_of = inst.direct_dim if args.path == "direct" else inst.shapiro_dim
    rows = []
    for chi1 in chars1:
        for chi2 in chars2:
            wit = match_theorem1_condition(chi1, chi2, inst.weyls)
            rows.append(V.PairRow(chi1.exps, chi2.exps, wit is not None, wit,
                                  dim_of(chi1, chi2, cfg)))
    rep = V.ExtReport(args.p, args.f, args.n, "ext-ps", rows, extras={"path": args.path})
    return _emit_reports(args, [rep])


def _cmd_verify(args) -> int:
    cfg = _cfg(args)
    if args.statement == "all":
        reports = V.run_all(cfg)
    elif args.p is None:
        raise UsageError(f"verify {args.statement} needs --p")
    else:
        if args.statement == "lemma1":
            arglist = (args.p, args.f)
        else:
            arglist = (args.p, args.f, args.n)
        reports = V.run_statement(args.statement, arglist, cfg)
    return _emit_reports(args, reports)


def _cmd_mackey(args) -> int:
    inst = V.get_instance(args.p, args.f, args.n)
    cfg = _cfg(args)
    c1 = _parse_char(args.chi1, args.n, inst.qm1)
    c2 = _parse_char(args.chi2, args.n, inst.qm1)
    if (c1 is None) != (c2 is None):
        raise UsageError("give both --chi1 and --chi2, or neither")
    if c1 is not None:
        reports = [V.mackey_ledger(inst, c1, c2, cfg)]
    else:
        reports = V.mackey_all(inst, cfg)
    return _emit_reports(args, reports)


_COMMANDS = {
    "field": _cmd_field,
    "group": _cmd_group,
    "chars": _cmd_chars,
    "ext-b": _cmd_ext_b,
    "ext-ps": _cmd_ext_ps,
    "verify": _cmd_verify,
    "mackey": _cmd_mackey,
}


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        _check_sizes(args)
        return _COMMANDS[args.command](args)
    except (UsageError, FieldError, SizeBudgetError, MemoryBudgetError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
