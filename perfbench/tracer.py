"""Spans around the public functions of each borelext layer, for the traced pass.

`Tracer.install()` replaces every binding of each probed function (the
defining module, every borelext module that imported it by name, and the
package namespace) and each probed class method with a wrapper that records
a span [name, start, end, parent, entry, attrs].  Spans stay in memory;
`summarize` turns them into the per-layer metrics and `uninstall` puts the
original objects back.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict

import numpy as np


def _batch_rows(args, kwargs, result):
    batch = np.asarray(args[1] if len(args) > 1 else kwargs["batch"])
    return (batch.shape[0] if batch.ndim == 2 else 1, int(result))


def _h1_attrs(args, kwargs, result):
    H, M = args[0], args[1]
    return (H.order, len(H.generators), M.dim, result.edges_used, result.mode)


def _act_all_before(args, kwargs):
    mod = args[0]
    return mod.group.order * mod.dim * mod.dim if mod._all is None else 0


def _group_order(args, kwargs, result):
    return result.order


# (module, attribute or Class.method, span name, after hook, before hook)
PROBES = [
    ("borelext.field", "make_field", "field.make", None, None),
    ("borelext.group", "build_gl", "group.build", _group_order, None),
    ("borelext.group", "build_borel", "group.build", _group_order, None),
    ("borelext.group", "build_torus", "group.build", _group_order, None),
    ("borelext.group", "build_unipotent", "group.build", _group_order, None),
    ("borelext.group", "intersect_conjugate", "group.build", _group_order, None),
    ("borelext.group", "unipotent_part", "group.build", _group_order, None),
    ("borelext.group", "commutator_subgroup", "group.build", _group_order, None),
    ("borelext.group", "weyl_elements", "group.build", None, None),
    ("borelext.group", "MatrixGroup.mul_ids", "group.mul_ids", None, None),
    ("borelext.gmodule", "trivial_module", "gmodule.build", None, None),
    ("borelext.gmodule", "char_module", "gmodule.build", None, None),
    ("borelext.gmodule", "det_char_module", "gmodule.build", None, None),
    ("borelext.gmodule", "induced_module", "gmodule.build", None, None),
    ("borelext.gmodule", "hom_module", "gmodule.build", None, None),
    ("borelext.gmodule", "fq_hom_module", "gmodule.build", None, None),
    ("borelext.gmodule", "restrict", "gmodule.build", None, None),
    ("borelext.gmodule", "abelian_quotient_with_torus_action", "gmodule.build", None, None),
    ("borelext.gmodule", "right_coset_data", "gmodule.coset", None, None),
    ("borelext.gmodule", "FpModule.act_all", "gmodule.act_all", None, _act_all_before),
    ("borelext.cohom", "h1_dim", "cohom.h1_dim", _h1_attrs, None),
    ("borelext.linalg", "RowReducer.add_rows", "linalg.add_rows", _batch_rows, None),
    ("borelext.linalg", "RowReducer.nullspace", "linalg.nullspace", None, None),
    ("borelext.linalg", "fq_rank", "linalg.fq", None, None),
    ("borelext.linalg", "fq_invert", "linalg.fq", None, None),
    ("borelext.chars", "match_simple_root_twist", "chars.predict", None, None),
    ("borelext.chars", "match_theorem1_condition", "chars.predict", None, None),
    ("borelext.chars", "eigencharacters", "chars.eigen", None, None),
    ("borelext.verify", "Instance.shapiro_dim", "verify.shapiro_dim", None, None),
]

ENTRY_SPAN = "verify.entry"

# nearest-rank percentiles, in tenths of a percent, tried from the top
TAIL_PERMILLE = (999, 995, 990, 980, 950, 900, 750, 500)


def tail_percentile(values, min_beyond: int = 10) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) for the highest percentile in
    TAIL_PERMILLE with at least `min_beyond` samples above its rank; the
    maximum, with none beyond, when even the median has too few."""
    vals = sorted(values)
    n = len(vals)
    for pm in TAIL_PERMILLE:
        rank = -(-pm * n // 1000)  # ceil without float rounding
        if rank >= 1 and n - rank >= min_beyond:
            return pm / 10, vals[rank - 1], n - rank
    return 100.0, (vals[-1] if vals else 0.0), 0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.entry: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, after, before):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.entry, None]
            stack.append(len(spans))
            spans.append(rec)
            pre = before(args, kwargs) if before is not None else None
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                rec[5] = after(args, kwargs, result)
            elif before is not None:
                rec[5] = pre
            return result

        return traced

    def entry_span(self, name: str, fn, *args):
        """Run one registry entry as a top-level span that its layer spans share."""
        self.entry = name
        try:
            return self._wrap(fn, ENTRY_SPAN, None, None)(*args)
        finally:
            self.entry = None

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "borelext" or k.startswith("borelext.")]
        for modname, attr, name, after, before in PROBES:
            owner = sys.modules[modname]
            if "." in attr:
                clsname, meth = attr.split(".")
                cls = getattr(owner, clsname)
                orig = cls.__dict__[meth]
                self._patches.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(orig, name, after, before))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(orig, name, after, before)
            for mod in modules:
                for key in [k for k, v in vars(mod).items() if v is orig]:
                    self._patches.append((mod, key, orig))
                    setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, orig = self._patches.pop()
            setattr(owner, key, orig)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct child spans cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def summarize(spans) -> dict:
    """Per-layer metrics, per-entry times and the h1 tail description."""
    own = self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for s, t in zip(spans, own):
        self_s[s[0]] += t
        calls[s[0]] += 1

    rows_in = pivots = 0
    h1_ms, unknowns, rows_avail, edges_avail, edges_used = [], [0], 0, 0, 0
    modes: dict[str, int] = defaultdict(int)
    elements = act_bytes = 0
    solved: set[int] = set()
    entry_s: dict[str, float] = {}
    for s in spans:
        name, attrs = s[0], s[5]
        if name == "linalg.add_rows":
            rows_in += attrs[0]
            pivots += attrs[1]
        elif name == "cohom.h1_dim":
            order, ngens, d, used, mode = attrs
            h1_ms.append((s[2] - s[1]) * 1e3)
            unknowns.append(ngens * d)
            avail = order * ngens - order + 1
            edges_avail += avail
            rows_avail += avail * d
            edges_used += used
            modes[mode] += 1
            if s[3] >= 0 and spans[s[3]][0] == "verify.shapiro_dim":
                solved.add(s[3])
        elif name == "group.build" and attrs is not None:
            elements += attrs
        elif name == "gmodule.act_all":
            act_bytes += attrs
        elif name == ENTRY_SPAN:
            entry_s[s[4]] = entry_s.get(s[4], 0.0) + s[2] - s[1]

    pct, tail_ms, beyond = tail_percentile(h1_ms)
    metrics = {
        "linalg.add_rows_s": (self_s["linalg.add_rows"], "s"),
        "linalg.add_rows_calls": (calls["linalg.add_rows"], "count"),
        "linalg.rows_in": (rows_in, "count"),
        "linalg.pivots": (pivots, "count"),
        "linalg.pivot_yield": (pivots / rows_in if rows_in else 0.0, "ratio"),
        "linalg.nullspace_s": (self_s["linalg.nullspace"], "s"),
        "linalg.fq_s": (self_s["linalg.fq"], "s"),
        "cohom.h1_calls": (len(h1_ms), "count"),
        "cohom.h1_s": (sum(h1_ms) / 1e3, "s"),
        "cohom.h1_ms_p50": (statistics.median(h1_ms) if h1_ms else 0.0, "ms"),
        "cohom.h1_ms_tail": (tail_ms, "ms"),
        "cohom.h1_tail_pct": (pct, "%"),
        "cohom.assembly_s": (self_s["cohom.h1_dim"], "s"),
        "cohom.unknowns_max": (max(unknowns), "count"),
        "cohom.rows_available": (rows_avail, "count"),
        "cohom.edges_used_ratio": (edges_used / edges_avail if edges_avail else 0.0, "ratio"),
        "cohom.mode.exhaustive": (modes["exhaustive"], "count"),
        "cohom.mode.sampled_verified": (modes["sampled_verified"], "count"),
        "gmodule.act_all_s": (self_s["gmodule.act_all"], "s"),
        "gmodule.act_all_calls": (calls["gmodule.act_all"], "count"),
        "gmodule.act_all_bytes": (act_bytes, "B"),
        "gmodule.build_s": (self_s["gmodule.build"], "s"),
        "gmodule.coset_s": (self_s["gmodule.coset"], "s"),
        "group.build_s": (self_s["group.build"], "s"),
        "group.elements": (elements, "count"),
        "group.mul_ids_calls": (calls["group.mul_ids"], "count"),
        "field.make_s": (self_s["field.make"], "s"),
        "chars.predict_s": (self_s["chars.predict"], "s"),
        "chars.predict_calls": (calls["chars.predict"], "count"),
        "chars.eigen_calls": (calls["chars.eigen"], "count"),
        "verify.shapiro_calls": (calls["verify.shapiro_dim"], "count"),
        "verify.shapiro_solves": (len(solved), "count"),
        "verify.self_s": (self_s[ENTRY_SPAN] + self_s["verify.shapiro_dim"], "s"),
        "trace.spans": (len(spans), "count"),
    }
    # Zero on workloads that never call eigencharacters, so printed but not
    # among the metrics the result line carries.
    printed = {"chars.eigen_s": (self_s["chars.eigen"], "s")}
    printed.update({f"verify.entry_s.{k}": (v, "s") for k, v in sorted(entry_s.items())})
    tail = {"pct": pct, "beyond": beyond, "samples": len(h1_ms)}
    return {"metrics": metrics, "printed": printed, "tail": tail}


def tail_note(tail: dict) -> str:
    return (f"cohom.h1_ms_tail is p{tail['pct']:g} of {tail['samples']} solves, "
            f"{tail['beyond']} beyond it")
