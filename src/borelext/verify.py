"""One verification procedure per statement: the exponent-lattice predicate
predicts where Ext vanishes, the cocycle oracle computes it, and the two are
compared pair by pair into a machine-readable report.

Statements and their contracts:
  prop1            f = 1 Borel pairs: dim = 1 iff the ratio is a simple root.
  prop2            solvable B' = T N': dims equal eigencharacter multiplicities.
  prop3            f > 1: nonvanishing iff a Frobenius twist of a simple root;
                   the dimension at the hits is reported, not asserted.
  lemma1           character-module isomorphism iff a Frobenius power relates
                   the exponents (surjective first character).
  thm1_necessary   principal series: every nonzero pair carries a (w, i, k)
                   witness.
  thm1_sufficient_w1  pairs satisfying the w = 1 twist condition are nonzero.
  prop4            Ext from a character of G into a principal series: dim = f
                   at w = 1 condition pairs, 0 where no w works; pairs where
                   only some w != 1 works are findings.  By Shapiro's lemma
                   Ext^1_G(det^a, Ind chi2) = Ext^1_B(det^a|_B, chi2), so it
                   is computed at the B level.
  mackey           per-pair ledger over w of B∩B^w contributions summing to
                   the principal-series Ext dimension.

Borel-level Ext comes from Instance.char_ext, one solve of
H^1(B∩B^w, F_q[chi1^{-1} chi2^w]) per row.

Both principal-series routes build Ind chi the same way: one induced
module (gmodule.induced_module) on one coset table, the right cosets B\\G
found cell by cell in the Bruhat decomposition with the generators of T and
N (group.BruhatCosets).  The table is built once per instance and every chi
only fills in its scalars.

Principal-series Ext comes from Instance.shapiro_dim: by Shapiro's lemma
Ext^1_G(Ind chi1, Ind chi2) = Ext^1_B(chi1, Res_B Ind chi2).  p is prime to
|T| = (q-1)^n, which always holds over F_q, so H^1(B, M) = H^1(N, M)^T, and
the route needs only Ind chi2 over N and over T, both read off the coset
table: it enumerates neither G nor B.  N permutes the cosets with trivial
scalars, so Res_N Ind chi2 is one module for every chi2, and one cocycle
solve over N per instance serves every pair.  On the Bruhat cell of w, T
acts by chi2(w t w^{-1}) times its action on Ind 1, so the solve is split
once per instance into one table per cell (cohom.cell_multiplicities), the
multiplicity of every character of T in that cell's part of H^1(N, Ind 1).
Instance.shapiro_table gathers each table at every pair by exponent
arithmetic into one (cells, chi1, chi2) array, with no rank and no module
per chi2, and a pair's dimension is the sum of its cells.  thm1 also runs
the G-level direct route where it is cheap (n = 2, f = 1), and reports
any pair where the two paths disagree.  That route solves H^1(G, M^Z) for
M = Hom_{F_q}(Ind chi1, Ind chi2), F_q-linear like the Shapiro route, and
the center Z of G: p is prime to |Z| = q - 1, so this is H^1(G, M), and
M^Z = 0, with no Hom module built, when the central characters of the two
factors differ (Instance.direct_dim).

Pairs run one after another in one thread, chi1-major, which is the row
order of every report.  The first Shapiro pair of an instance makes its N
solve and its Shapiro array, and every later pair reads its sum.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from .chars import (
    TorusChar,
    TwistWitness,
    all_chars,
    eigencharacters,
    match_simple_root_twist,
    match_theorem1_condition,
    trivial_char,
    weyl_twist,
)
from .cohom import cell_multiplicities, h1_dim
from .field import make_field
from .gmodule import (
    abelian_quotient_with_torus_action,
    char_module,
    char_modules_isomorphic,
    fq_hom_module,
    induced_module,
    trivial_module,
)
from .group import (
    BruhatCosets,
    build_borel,
    build_gl,
    build_torus,
    build_unipotent,
    intersect_conjugate,
    unipotent_part,
    weyl_elements,
)

SCHEMA_VERSION = 2


@dataclass
class VerifyConfig:
    budget_mb: int = 1024


def _h1(H, M, cfg: VerifyConfig) -> int:
    """dim H^1(H, M) from the cocycle solver, within cfg's memory budget."""
    return h1_dim(H, M, budget_mb=cfg.budget_mb).dim_h1


@dataclass
class PairRow:
    chi1: tuple[int, ...]
    chi2: tuple[int, ...]
    predicted: bool
    witness: TwistWitness | None
    dim: int
    expected_dim: int | None = None
    asserted: bool = True
    note: str = ""
    w: tuple[int, ...] | None = None  # ledger rows only

    def to_dict(self) -> dict:
        wit = None
        if self.witness is not None:
            wit = {
                "w": list(self.witness.weyl.perm) if self.witness.weyl is not None else None,
                "i": self.witness.root_index,
                "k": self.witness.frob_power,
            }
        out = {
            "chi1": list(self.chi1),
            "chi2": list(self.chi2),
            "predicted": self.predicted,
            "witness": wit,
            "dim": self.dim,
            "expected_dim": self.expected_dim,
            "asserted": self.asserted,
        }
        if self.note:
            out["note"] = self.note
        if self.w is not None:
            out["w"] = list(self.w)
        return out


@dataclass
class ExtReport:
    p: int
    f: int
    n: int
    statement: str
    pairs: list[PairRow]
    findings: list[str] = dc_field(default_factory=list)
    extras: dict = dc_field(default_factory=dict)

    @property
    def verdict(self) -> str:
        if not self.check():
            return "fail"
        return "finding" if self.findings else "pass"

    def check(self) -> bool:
        """Recompute the pass/fail half of the verdict from the rows."""
        if self.statement == "mackey":
            total = sum(r.dim for r in self.pairs)
            if total != self.extras.get("g_level_dim"):
                return False
        if self.extras.get("path_mismatches"):
            return False
        for r in self.pairs:
            if not r.asserted:
                continue
            if self.statement in ("thm1_necessary", "ext-ps"):
                if r.dim > 0 and r.witness is None:
                    return False
            elif self.statement == "thm1_sufficient_w1":
                if r.dim == 0:
                    return False
            elif self.statement == "prop3":
                if (r.dim > 0) != r.predicted:
                    return False
            elif self.statement == "mackey":
                continue
            else:
                if r.expected_dim is not None and r.dim != r.expected_dim:
                    return False
                if r.expected_dim is None and (r.dim > 0) != r.predicted:
                    return False
        return True

    def to_json_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "instance": {"p": self.p, "f": self.f, "n": self.n},
            "statement": self.statement,
            "pairs": [r.to_dict() for r in self.pairs],
            "verdict": self.verdict,
            "findings": self.findings,
            "extras": self.extras,
        }


CSV_FIELDS = [
    "schema", "p", "f", "n", "statement", "chi1", "chi2", "predicted",
    "witness_w", "witness_i", "witness_k", "dim", "expected_dim", "asserted",
    "row_w", "note", "verdict",
]


def csv_rows(reports) -> list[dict]:
    out = []
    for rep in reports:
        verdict = rep.verdict
        for r in rep.pairs:
            wit = r.witness
            out.append({
                "schema": SCHEMA_VERSION,
                "p": rep.p, "f": rep.f, "n": rep.n,
                "statement": rep.statement,
                "chi1": ";".join(map(str, r.chi1)),
                "chi2": ";".join(map(str, r.chi2)),
                "predicted": int(r.predicted),
                "witness_w": ";".join(map(str, wit.weyl.perm)) if wit and wit.weyl else "",
                "witness_i": wit.root_index if wit else "",
                "witness_k": wit.frob_power if wit else "",
                "dim": r.dim,
                "expected_dim": "" if r.expected_dim is None else r.expected_dim,
                "asserted": int(r.asserted),
                "row_w": ";".join(map(str, r.w)) if r.w else "",
                "note": r.note,
                "verdict": verdict,
            })
    return out


def reports_to_csv(reports) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    for row in csv_rows(reports):
        writer.writerow(row)
    return buf.getvalue()


def reports_to_json(reports) -> str:
    """One report as an object, several as a list, in canonical JSON."""
    payload = [r.to_json_dict() for r in reports]
    obj = payload[0] if len(payload) == 1 else payload
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


class Instance:
    """Groups, characters and module caches for one (p, f, n)."""

    def __init__(self, p: int, f: int, n: int):
        self.p, self.f, self.n = p, f, n
        self.field = make_field(p, f)
        self.qm1 = self.field.q - 1
        self._ind: dict[tuple, object] = {}
        self._bw: dict[tuple, object] = {}
        self._np: dict[tuple, object] = {}
        self._eig: dict[tuple, list] = {}
        self._shapiro: np.ndarray | None = None
        self._shapiro_dims: list[list[int]] | None = None

    @cached_property
    def G(self):
        return build_gl(self.field, self.n)

    @cached_property
    def B(self):
        return build_borel(self.field, self.n)

    @cached_property
    def T(self):
        return build_torus(self.field, self.n)

    @cached_property
    def N(self):
        return build_unipotent(self.field, self.n)

    @cached_property
    def weyls(self):
        """In Bruhat-length order, so weyls[0] is the identity."""
        return weyl_elements(self.field, self.n)

    @cached_property
    def chars(self):
        return all_chars(self.n, self.qm1)

    @cached_property
    def char_index(self):
        """The position in chars of each exponent vector."""
        return {chi.exps: i for i, chi in enumerate(self.chars)}

    @cached_property
    def bruhat_cosets(self):
        return BruhatCosets(self.T, self.N, self.weyls)

    def char(self, exps) -> TorusChar:
        return TorusChar(tuple(exps), self.qm1)

    def groups(self) -> list:
        """The groups built so far: G, B, T, N as first read, then B∩B^w and N'_w per w."""
        built = [v for k, v in vars(self).items() if k in ("G", "B", "T", "N")]
        return built + list(self._bw.values()) + list(self._np.values())

    def induced(self, chi: TorusChar):
        """Ind_B^G chi over G, for the G-level direct solve."""
        got = self._ind.get(chi.exps)
        if got is None:
            got = induced_module(self.bruhat_cosets, self.G, chi)
            self._ind[chi.exps] = got
        return got

    def bw(self, w):
        """B∩B^w, which is B itself at w = 1."""
        if w.is_identity():
            return self.B
        got = self._bw.get(w.perm)
        if got is None:
            got = intersect_conjugate(self.B, w)
            self._bw[w.perm] = got
        return got

    def nprime(self, w):
        got = self._np.get(w.perm)
        if got is None:
            got = unipotent_part(self.bw(w))
            self._np[w.perm] = got
        return got

    def weyl_eigen(self, w):
        """Eigencharacters of N'/[N',N'] for B∩B^w, cached per w."""
        got = self._eig.get(w.perm)
        if got is None:
            Q = abelian_quotient_with_torus_action(self.nprime(w), self.T)
            got = eigencharacters(Q, self.field)
            self._eig[w.perm] = got
        return got

    def char_ext(self, w, beta: TorusChar, cfg: VerifyConfig) -> int:
        """dim H^1(B∩B^w, F_q[beta]), with B itself at w = 1.

        This is dim Ext^1_{B∩B^w}(chi1, chi2), F_q-linearly, for every pair
        with chi1^{-1} chi2 = beta, because Hom_{F_q}(F_q[chi1], F_q[chi2])
        is F_q[chi1^{-1} chi2]."""
        H = self.bw(w)
        return _h1(H, char_module(H, beta), cfg)

    def direct_dim(self, chi1: TorusChar, chi2: TorusChar, cfg: VerifyConfig) -> int:
        """dim Ext^1_G(Ind chi1, Ind chi2) by a G-level solve of H^1(G, M^Z),
        M = Hom_{F_q}(Ind chi1, Ind chi2).

        p is prime to |Z| = q - 1, so H^1(G, M) = H^1(G, M^Z).  z = gamma I
        acts on Ind chi as the F_q-scalar c = gamma^{sum chi}, and on M as
        c2 / c1, so M^Z = 0 exactly when sum chi1 != sum chi2 (mod q - 1).
        Then the Hom module is never built; otherwise M itself is solved,
        which is exact.  Either way the pair makes one h1_dim call."""
        if (sum(chi1.exps) - sum(chi2.exps)) % self.qm1:
            return _h1(self.G, trivial_module(self.G, 0), cfg)
        return _h1(self.G, fq_hom_module(self.induced(chi1), self.induced(chi2)), cfg)

    def shapiro_table(self, cfg: VerifyConfig) -> np.ndarray:
        """Each Bruhat cell's part of dim Ext^1_G(Ind chi1, Ind chi2), shape
        (cells, chars, chars), indexed [w, chi1, chi2] in weyls and chars
        order.

        Res_{TN} Ind chi2 is the direct sum of its cells, and on cell w T
        acts by chi2(L_w) times its action on Ind 1, with L_w =
        cell_logs[w] (BruhatCosets checks both).  So cell w gives m_w(chi1
        chi2(L_w)^{-1}), where m_w is the cell's table of T-multiplicities on
        H^1(N, F_q[cell w]) with T acting through Ind 1.  The first call
        solves H^1(N, Res_N Ind 1) once, within cfg's budget, tabulates
        every cell (cohom.cell_multiplicities), and gathers each cell's
        table at every pair.  chi(t_i) = zeta^{e_i} for T's generator t_i,
        so chi1 chi2(L_w)^{-1} has the exponents e1 - L_w e2, whose position
        in chars is their code in base q - 1."""
        if self._shapiro is None:
            cosets, triv = self.bruhat_cosets, trivial_char(self.n, self.qm1)
            tables = cell_multiplicities(self.N, self.T, induced_module(cosets, self.N, triv),
                                         induced_module(cosets, self.T, triv), cosets.cells,
                                         budget_mb=cfg.budget_mb)
            e = np.array([chi.exps for chi in self.chars], dtype=np.int64)
            code = self.qm1 ** np.arange(self.n - 1, -1, -1)
            self._shapiro = np.stack([table[(e[:, None, :] - (e @ L.T)[None]) % self.qm1 @ code]
                                      for table, L in zip(tables, cosets.cell_logs)])
        return self._shapiro

    def shapiro_dim(self, chi1: TorusChar, chi2: TorusChar, cfg: VerifyConfig) -> int:
        """dim Ext^1_G(Ind chi1, Ind chi2) = dim H^1(N, Res_N Ind chi2)^T
        twisted by chi1, the sum over the Bruhat cells of shapiro_table,
        read from Python lists: the instance's first call builds the table."""
        if self._shapiro_dims is None:
            self._shapiro_dims = self.shapiro_table(cfg).sum(axis=0).tolist()
        return self._shapiro_dims[self.char_index[chi1.exps]][self.char_index[chi2.exps]]


_INSTANCES: dict[tuple[int, int, int], Instance] = {}


def get_instance(p: int, f: int, n: int) -> Instance:
    key = (p, f, n)
    if key not in _INSTANCES:
        _INSTANCES[key] = Instance(p, f, n)
    return _INSTANCES[key]


def verify_prop1(inst: Instance, cfg: VerifyConfig | None = None) -> ExtReport:
    """f = 1 criterion over all Borel character pairs."""
    cfg = cfg or VerifyConfig()
    if inst.f != 1:
        raise ValueError("this criterion is stated over the prime field; use prop3 for f > 1")

    def row(chi1, chi2):
        beta = chi1.inverse() * chi2
        wit = match_simple_root_twist(beta)
        return PairRow(chi1.exps, chi2.exps, wit is not None, wit,
                       inst.char_ext(inst.weyls[0], beta, cfg),
                       expected_dim=1 if wit is not None else 0)

    rows = [row(chi1, chi2) for chi1 in inst.chars for chi2 in inst.chars]
    return ExtReport(inst.p, inst.f, inst.n, "prop1", rows)


def verify_prop2(inst: Instance, cfg: VerifyConfig | None = None) -> list[ExtReport]:
    """Eigencharacter multiplicities of N'/[N',N'] against Ext over B∩B^w,
    one report per Weyl element."""
    cfg = cfg or VerifyConfig()
    if inst.f != 1:
        raise ValueError("the multiplicity criterion is verified over the prime field")
    reports = []
    for w in inst.weyls:
        eig = inst.weyl_eigen(w)
        mult = {beta.exps: m for beta, m in eig}
        rows = []
        triv = trivial_char(inst.n, inst.qm1)
        for chi in inst.chars:
            expected = mult.get(chi.exps, 0)
            rows.append(PairRow(triv.exps, chi.exps, expected > 0, None,
                                inst.char_ext(w, chi, cfg), expected_dim=expected))
        extras = {
            "w": list(w.perm),
            "eigencharacters": [[list(b.exps), m] for b, m in eig],
            "nprime_order": inst.nprime(w).order,
        }
        reports.append(ExtReport(inst.p, inst.f, inst.n, "prop2", rows, extras=extras))
    return reports


def verify_prop3(inst: Instance, cfg: VerifyConfig | None = None) -> ExtReport:
    """f > 1 criterion: nonvanishing exactly at Frobenius twists of simple
    roots; measured dimensions at the hits are findings."""
    cfg = cfg or VerifyConfig()
    if inst.f == 1:
        raise ValueError("use prop1 over the prime field")
    triv = trivial_char(inst.n, inst.qm1)

    def row(chi):
        wit = match_simple_root_twist(chi)
        return PairRow(triv.exps, chi.exps, wit is not None, wit,
                       inst.char_ext(inst.weyls[0], chi, cfg))

    rows = [row(chi) for chi in inst.chars]
    findings = [
        f"dim at chi={r.chi2} is {r.dim} (measured, not asserted)"
        for r in rows if r.dim > 0
    ]
    return ExtReport(inst.p, inst.f, inst.n, "prop3", rows, findings=findings)


def verify_lemma1(p: int, f: int, cfg: VerifyConfig | None = None) -> ExtReport:
    """Character-module isomorphism over the multiplicative group F_q^*."""
    cfg = cfg or VerifyConfig()
    fld = make_field(p, f)
    qm1 = fld.q - 1
    A = build_torus(fld, 1)
    rows = []
    for e1 in range(qm1):
        if math.gcd(e1, qm1) != 1:
            continue  # the statement assumes the first character is surjective
        chi1 = TorusChar((e1,), qm1)
        for e2 in range(qm1):
            chi2 = TorusChar((e2,), qm1)
            predicted = any(e1 == (e2 * pow(p, k, qm1)) % qm1 for k in range(f))
            iso, _mu = char_modules_isomorphic(A, chi1, chi2)
            rows.append(PairRow(chi1.exps, chi2.exps, predicted, None, int(iso),
                                expected_dim=int(predicted)))
    return ExtReport(p, f, 1, "lemma1", rows)


THM1_PATHS = {
    (3, 1, 2): ("direct", "shapiro"),
    (5, 1, 2): ("direct", "shapiro"),
    (3, 2, 2): ("shapiro",),
    (3, 1, 3): ("shapiro",),
}


def thm1_paths(inst: Instance) -> tuple[str, ...]:
    return THM1_PATHS.get((inst.p, inst.f, inst.n), ("shapiro",))


def verify_thm1(inst: Instance, cfg: VerifyConfig | None = None) -> list[ExtReport]:
    """Principal-series Ext: necessity of the twist condition, sufficiency
    of its w = 1 form, and agreement of the two oracle paths."""
    cfg = cfg or VerifyConfig()
    paths = thm1_paths(inst)
    rows_nec, rows_suf, findings, mismatches = [], [], [], []
    for chi1 in inst.chars:
        for chi2 in inst.chars:
            dim = inst.shapiro_dim(chi1, chi2, cfg)
            if "direct" in paths:
                direct = inst.direct_dim(chi1, chi2, cfg)
                if direct != dim:
                    mismatches.append({"chi1": list(chi1.exps), "chi2": list(chi2.exps),
                                       "shapiro": dim, "direct": direct})
            wit = match_theorem1_condition(chi1, chi2, inst.weyls)
            w1 = match_simple_root_twist(chi1.inverse() * chi2)
            rows_nec.append(PairRow(chi1.exps, chi2.exps, wit is not None, wit, dim))
            if w1 is not None:
                rows_suf.append(PairRow(chi1.exps, chi2.exps, True, w1, dim))
            elif wit is not None:
                findings.append(
                    f"pair {chi1.exps}->{chi2.exps}: condition holds only at w={wit.weyl.perm}, "
                    f"computed dim = {dim}"
                )
    extras = {"paths": list(paths), "path_mismatches": mismatches}
    nec = ExtReport(inst.p, inst.f, inst.n, "thm1_necessary", rows_nec, findings=findings,
                    extras=extras)
    suf = ExtReport(inst.p, inst.f, inst.n, "thm1_sufficient_w1", rows_suf,
                    extras={"paths": list(paths)})
    return [nec, suf]


def verify_prop4(inst: Instance, cfg: VerifyConfig | None = None) -> ExtReport:
    """Ext from a character of the full group into a principal series, by
    Shapiro's lemma at the B level: Ext^1_G(det^a, Ind chi2) =
    Ext^1_B(det^a|_B, chi2)."""
    cfg = cfg or VerifyConfig()
    f = inst.f

    def row(a, chi2):
        chi1_t = TorusChar((a,) * inst.n, inst.qm1)  # det^a restricted to T
        beta = chi1_t.inverse() * chi2
        dim = inst.char_ext(inst.weyls[0], beta, cfg)
        w1 = match_simple_root_twist(beta)
        anyw = match_theorem1_condition(chi1_t, chi2, inst.weyls)
        if w1 is not None:
            return PairRow(chi1_t.exps, chi2.exps, True, w1, dim, expected_dim=f)
        if anyw is None:
            return PairRow(chi1_t.exps, chi2.exps, False, None, dim, expected_dim=0)
        return PairRow(chi1_t.exps, chi2.exps, True, anyw, dim,
                       expected_dim=None, asserted=False,
                       note="condition holds only at w != 1; dim reported, not asserted")

    rows = [row(a, chi2) for a in range(inst.qm1) for chi2 in inst.chars]
    findings = [
        f"pair {r.chi1}->{r.chi2}: w != 1 condition only, computed dim = {r.dim}"
        for r in rows if not r.asserted
    ]
    return ExtReport(inst.p, inst.f, inst.n, "prop4", rows, findings=findings)


def mackey_ledger(inst: Instance, chi1: TorusChar, chi2: TorusChar,
                  cfg: VerifyConfig | None = None) -> ExtReport:
    """Per-w contributions Ext_{B∩B^w}(chi1, chi2^w) against the
    principal-series Ext dimension, with the eigencharacters of each
    N'/[N',N'] itemized."""
    cfg = cfg or VerifyConfig()
    rows = []
    for w in inst.weyls:
        eig = inst.weyl_eigen(w)
        dim = inst.char_ext(w, chi1.inverse() * weyl_twist(chi2, w), cfg)
        note = "eigenchars: " + ",".join(f"{list(b.exps)}x{m}" for b, m in eig)
        rows.append(PairRow(chi1.exps, chi2.exps, dim > 0, None, dim, note=note, w=w.perm))
    extras = {"g_level_dim": inst.shapiro_dim(chi1, chi2, cfg)}
    return ExtReport(inst.p, inst.f, inst.n, "mackey", rows, extras=extras)


def mackey_all(inst: Instance, cfg: VerifyConfig | None = None) -> list[ExtReport]:
    cfg = cfg or VerifyConfig()
    return [mackey_ledger(inst, chi1, chi2, cfg) for chi1 in inst.chars for chi2 in inst.chars]


REGISTRY: list[tuple[str, tuple]] = [
    ("prop1", (3, 1, 2)),
    ("prop1", (5, 1, 2)),
    ("prop1", (3, 1, 3)),
    ("prop2", (3, 1, 3)),
    ("prop3", (3, 2, 2)),
    ("lemma1", (3, 2)),
    ("lemma1", (5, 2)),
    ("thm1", (3, 1, 2)),
    ("thm1", (5, 1, 2)),
    ("thm1", (3, 2, 2)),
    ("thm1", (3, 1, 3)),
    ("prop4", (3, 1, 2)),
    ("prop4", (3, 2, 2)),
    ("mackey", (3, 1, 2)),
    ("mackey", (5, 1, 2)),
    ("mackey", (3, 2, 2)),
    ("mackey", (3, 1, 3)),
]


def run_statement(statement: str, args: tuple, cfg: VerifyConfig) -> list[ExtReport]:
    if statement == "prop1":
        return [verify_prop1(get_instance(*args), cfg)]
    if statement == "prop2":
        return verify_prop2(get_instance(*args), cfg)
    if statement == "prop3":
        return [verify_prop3(get_instance(*args), cfg)]
    if statement == "lemma1":
        return [verify_lemma1(args[0], args[1], cfg)]
    if statement == "thm1":
        return verify_thm1(get_instance(*args), cfg)
    if statement == "prop4":
        return [verify_prop4(get_instance(*args), cfg)]
    if statement == "mackey":
        return mackey_all(get_instance(*args), cfg)
    raise ValueError(f"unknown statement {statement!r}")


def run_all(cfg: VerifyConfig) -> list[ExtReport]:
    out = []
    for statement, args in REGISTRY:
        out.extend(run_statement(statement, args, cfg))
    return out
