"""Brute-force H^1 and Ext^1 over F_p for the explicit matrix groups.

A 1-cocycle f : H -> M is determined by its values on the generators: along
the BFS tree f extends by f(g s) = f(g) + g f(s), and every non-tree Cayley
edge imposes d linear constraints.  dim Z^1 is the nullity of that system,
dim B^1 = d - dim M^H, and H^1 is the quotient.

h1_dim feeds the non-tree edges to the eliminator in chunks, in a fixed
stride order that spreads them over the group.  An edge's rows come from
the tree paths of its two endpoints: f(x) is the sum of rho(y) f(t) over
the tree steps (y, t) from the identity to x, so no table of f over the
whole group is stored.  Which rho(y) lands in which block with which sign
depends on the group alone, so each group keeps one _EdgeSweep, in a cache
that does not keep the group alive: the ordered edges, and each chunk's
terms, walked up the tree on the first solve that feeds the chunk.  A solve
then assembles a chunk's rows from the signed sums of rho over the terms of
each (edge, block), which it asks the module for (FpModule.run_sums): a
monomial module, Hom modules included, writes each term's k f^2 nonzeros
from its block skeleton, with no d x d matrix per term.  The nullspace of
the rows fed so far always contains Z^1, and it is spanned by B^1 and the
candidate H^1 representatives, since coboundaries satisfy every edge.
After every chunk the stack of candidates is checked against every Cayley
edge in one walk of the tree (_propagate), with one product rho(x) v per
generator (FpModule.apply on the stack).  If all pass, the nullspace lies
in Z^1 as well, so it equals Z^1 and the answer is exact; an empty
candidate list passes at once, with no product.  If one fails, feeding
goes on.  A sweep that feeds every edge has the whole
system, so its answer is exact as well.  The basis cocycles keep the
values that the passing walk found, and cell_multiplicities reads them.

A solve is gauged at s*, the first generator of order m prime to p.
H^1(<s*>, M) = 0, so every cocycle is cohomologous to one in Z' = {f :
f(s*) = 0}, and Z' meets B^1 in delta(M^{s*}).  The module gives a basis
of M^{s*} (FpModule.invariants): a monomial module reads it from the
cycles of s*'s block permutation, a table module as the image of the
projector e = m^{-1} sum_{i<m} rho(s*)^i; the coboundaries delta(v)(t) =
rho(t) v - v on it are products the module applies.  So the system drops
the unknowns f(s*), H^1 = Z'/delta(M^{s*}) takes a narrow quotient step,
the dims of Z^1 and B^1 add back the d - dim M^{s*} coboundaries outside
Z', and the certificate is the argument above on Z', with the candidates
checked at f(s*) = 0, where the walk takes no product.  A p-group has no
such generator, so the N-level solve is never gauged.

Principal-series Ext by Shapiro's lemma is H^1(B, Hom_{F_q}(F_q[chi1],
Res_B Ind chi2)).  cell_multiplicities computes it at the unipotent
level: as p does not divide |T| = (q-1)^n, inflation-restriction gives
H^1(B, M) = H^1(N, M)^T, and twisting by chi1^{-1} leaves the N-action
unchanged.  So one solve of H^1(N, Res_N Ind chi2), with the action of T
and of the F_q-scalars on it as small F_p matrices, gives the dimension for
every chi1 by a nullity.  The solve is shared by every chi2 as well: N
permutes the cosets B\\G with b of unit diagonal (reps[i]·n = b·reps[j]),
so chi2(diag b) = 1 and Res_N Ind chi2 is the same permutation module for
every chi2.  Only T's action depends on chi2, and only through one scalar
per Bruhat cell: T and N keep each cell B\\BwB, and a generator t of T
scales every coset of cell w by the one diagonal w t w^{-1}, so on cell w T
acts by chi2(w t w^{-1}) times its action on Ind 1.  So
cell_multiplicities splits H^1(N, Res_N Ind 1) over the cells and
tabulates once per cell the multiplicity m_w(beta) of every character beta
of T in it, and the dimension for (chi1, chi2) is the sum over w of
m_w(chi1 chi2(w . w^{-1})^{-1}), one lookup per cell.  Both modules come
from gmodule.induced_module on the cosets of group.BruhatCosets, which
finds them cell by cell with the generators of T and N and checks the unit
diagonals, the cells and their torus diagonals, so this route enumerates
neither G nor B.  The B-level solve of H^1(B, Hom_{F_q}(F_q[chi1], Res_B
Ind chi2)) is kept in the tests, as a reference for this route, and the
Mackey ledger's solves over B∩B^w check each cell's part.

The G-level direct route uses the center the same way.  Z = <gamma I> has
order q - 1, prime to p, so H^1(G, M) = H^1(G/Z, M^Z) = H^1(G, M^Z), and Z
acts on Ind chi by the scalar chi(gamma I), so on Hom_{F_q}(Ind chi1, Ind
chi2) by the F_q-scalar chi2(gamma I) / chi1(gamma I).  So M^Z = 0 for
principal series whose central characters differ, and the caller hands
h1_dim the zero module, which it answers without assembling a system.
"""

from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import linalg
from .gmodule import FpModule, ModuleError, MonomialModule
from .group import MatrixGroup, StructureError, torus_conjugate_ids

CHUNK_EDGES = 8  # non-tree edges fed to the eliminator at a time


class MemoryBudgetError(RuntimeError):
    pass


@dataclass
class Cocycle:
    """Values of a 1-cocycle on the group generators, one row per generator,
    and, for a basis cocycle that h1_dim's certificate walked, on every
    element (fvals)."""

    group: MatrixGroup
    module: FpModule
    values: np.ndarray  # shape (S, d)
    fvals: np.ndarray | None = dc_field(default=None, repr=False)  # shape (|H|, d)

    def propagate(self) -> np.ndarray:
        """f(g) for every element, shape (|H|, d), kept or extended along the tree."""
        if self.fvals is not None:
            return self.fvals
        return _propagate(self.group, self.module, self.values[None])[0][:, 0]

    def defect_count(self) -> int:
        """How many Cayley edges violate f(gs) = f(g) + g f(s)."""
        return _edge_defects(self.group, self.module.p,
                             *_propagate(self.group, self.module, self.values[None]))

    def is_valid(self) -> bool:
        return self.defect_count() == 0


def _edge_defects(H: MatrixGroup, p: int, fvals: np.ndarray, steps: list) -> int:
    """Defective Cayley edges (g, s), f(g) + rho(g) f(s) != f(g s), summed
    over a stack of cocycles, from _propagate's values and steps; where f(s)
    is 0 in every cocycle the step is None and f(g) is compared with f(g s)."""
    bad = 0
    for s, step in enumerate(steps):  # no (|H|, h, d) temporary outlives its step
        here = fvals if step is None else linalg.mod(fvals + step, p)
        bad += int(np.count_nonzero(np.any(here != fvals[H.cayley[:, s]], axis=2)))
    return bad


@dataclass
class H1Result:
    dim_z1: int
    dim_b1: int
    dim_h1: int
    mode: str  # "sampled_verified" if a check ended the sweep, else "exhaustive"
    basis: list[Cocycle] = dc_field(default_factory=list)
    edges_used: int = 0
    gauge: int | None = None  # the generator s* with f(s*) = 0, if any
    gauged: int = 0  # the unknowns the gauge removed from the system

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.dim_z1, self.dim_b1, self.dim_h1)


def _coboundary_rows(M: FpModule, gauge=None, powers=None) -> tuple[np.ndarray, int]:
    """Rows spanning the coboundaries with f(gauge) = 0, over the other
    generators, and the dims of B^1 they leave out.  Row j is s -> (rho(s)
    - 1) v_j, read with M.apply at the generators, where v_j = e_j
    ungauged; gauged at s*, v_j runs over a basis of M^{s*}
    (M.invariants at s*'s powers), and d - dim M^{s*} dims are left out."""
    H, d = M.group, M.dim
    fixed = np.eye(d, dtype=np.int64) if gauge is None else M.invariants(powers)
    gens = np.delete(H.cayley[H.identity_id], [] if gauge is None else [gauge])
    moved = M.apply(gens, fixed) - fixed  # (S', r, d)
    return moved.transpose(1, 0, 2).reshape(len(fixed), len(gens) * d) % M.p, d - len(fixed)


def _spread_order(E: int) -> np.ndarray:
    """0..E-1 by a golden-ratio stride coprime to E, so that each prefix is
    spread over the whole edge list."""
    k = max(1, round(0.618 * E))
    while math.gcd(k, E) > 1:
        k += 1
    return np.arange(E, dtype=np.int64) * k % E


def h1_dim(H: MatrixGroup, M: FpModule, budget_mb: int = 1024) -> H1Result:
    """dim_{F_p} H^1(H, M) with cocycle witnesses, 0 at the gauge if any.

    MemoryBudgetError if a phase may hold over budget_mb MiB: a chunk's
    assembly (9 bytes a d^2 term, two int64 (edge, block) grids, and 9 |H|
    d^2 for a module that fills a table, which no MonomialModule does), or
    a certificate walk (S + 3 int64 (|H|, h, d) arrays and index arrays)."""
    if M.group is not H:
        raise StructureError("module is not over the given group")
    p, d = M.p, M.dim
    if d == 0:
        return H1Result(0, 0, 0, "exhaustive")  # no unknowns, so no system
    S = len(H.generators)
    nu = S * d
    size = H.order
    table = 0 if isinstance(M, MonomialModule) else size  # matrices a table module keeps

    def charge(need: int, what: str) -> None:
        if need > budget_mb << 20:
            raise MemoryBudgetError(f"cocycle solve may need {need} bytes for {what}; "
                                    f"budget is {budget_mb} MiB")

    sweep = _edge_sweep(H)
    e, terms = CHUNK_EDGES, sweep.terms
    charge((9 * (terms + table) + 16 * e * S) * d * d, f"a chunk's rows and the action table "
           f"((9 (terms + table) + 16 e S) d^2 = (9*({terms}+{table})+16*{e}*{S})*{d}^2)")
    n_edges = len(sweep.edges)
    gauge = sweep.gauge
    gauged = 0 if gauge is None else d

    def values(vs) -> np.ndarray:  # unknowns to generator values, f(s*) = 0
        vs = np.reshape(vs, (len(vs), -1, d))
        return vs if gauge is None else np.insert(vs, gauge, 0, axis=1)

    red = linalg.RowReducer(p, nu - gauged)
    cob, outside = _coboundary_rows(M, gauge, sweep.powers)
    used = 0
    found = None
    while used < n_edges:
        stop = min(used + CHUNK_EDGES, n_edges)
        red.add_rows(sweep.rows(M, used, stop, gauge))
        used = stop
        if used == n_edges:
            break
        cand, dim_b1 = _h1_representatives(red, cob, p)
        fvals = None
        if cand:
            h = len(cand)
            charge(((S + 3) * h + 3) * size * d * 8 + table * d * d, f"the certificate walk "
                   f"(((S + 3) h + 3) |H| d 8 = ({S + 3}*{h}+3)*{size}*{d}*8, and the table)")
            fvals, steps = _propagate(H, M, values(cand))
            if _edge_defects(H, p, fvals, steps):
                continue  # a candidate is not a cocycle; keep feeding edges
        found = cand, dim_b1, fvals
        break
    mode = "exhaustive" if used == n_edges else "sampled_verified"

    reps, dim_b1, fvals = found if found is not None else (*_h1_representatives(red, cob, p), None)
    dim_z1 = nu - gauged - red.rank + outside
    dim_b1 += outside
    dim_h1 = dim_z1 - dim_b1
    basis = [Cocycle(H, M, v, None if fvals is None else fvals[:, k])
             for k, v in enumerate(values(reps) if reps else [])]
    return H1Result(dim_z1, dim_b1, dim_h1, mode, basis, used, gauge, gauged)


class _EdgeSweep:
    """The part of the cocycle system that depends on the group alone: its
    non-tree edges (g, s) in _spread_order, and the tree-path terms of the
    rows of each chunk of them, found when a solve first feeds the chunk.

    The rows of edge (g, s) are f(g) + rho(g) f(s) - f(g s) over the
    stacked unknowns f(s').  Along the BFS tree f(x) = f(y) + rho(y) f(t)
    for x = y t, so f(x) is the sum of rho(y) in block t over the tree steps
    (y, t) from the identity to x.  The steps the paths of g and g s share,
    above their lowest common ancestor, cancel, so a term is (block,
    element, sign): +rho(g) in block s, + for each step up from g to the
    ancestor and - for each step up from g s.  The sweep holds the gauge s*
    and its powers; a gauged solve has f(s*) = 0, so terms in block s*
    vanish.  Only arrays are kept, never the group, so the cache entry keyed
    by the group does not keep it alive.
    """

    def __init__(self, H: MatrixGroup):
        size, S = H.order, len(H.generators)
        tree_edge = np.zeros((size, S), dtype=bool)
        tree_edge[H.bfs_parent[1:], H.bfs_gen[1:]] = True  # ids are BFS order
        edges = np.argwhere(~tree_edge)  # rows (g, s)
        self.edges = edges[_spread_order(len(edges))]
        self.S = S
        self._parent, self._gen, self._cayley = H.bfs_parent, H.bfs_gen, H.cayley
        self._depth = H.bfs_depth
        # at most one term per edge and per tree step on its two ends' paths
        self.terms = CHUNK_EDGES * (1 + 2 * int(H.bfs_depth.max()))
        self._chunks: dict[tuple[int, int, int | None], tuple[np.ndarray, ...]] = {}
        self.gauge = self.powers = None
        for s in range(S):
            powers = [H.identity_id]
            while (x := int(H.cayley[powers[-1], s])) != H.identity_id:
                powers.append(x)
            if len(powers) % H.field.p:
                self.gauge, self.powers = s, np.array(powers)
                break

    def rows(self, M: FpModule, start: int, stop: int, gauge: int | None = None) -> np.ndarray:
        """The d rows of each edge in edges[start:stop] over f(s), s not
        the gauge, not reduced mod p: one scatter into (edge, block) of the
        signed sums of rho(element) that M.run_sums reads."""
        key = (start, stop, gauge)
        terms = self._chunks.get(key)
        if terms is None:
            terms = self._chunks[key] = self._terms(self.edges[start:stop], gauge)
        elt, sign, starts, slots = terms
        m, S, d = stop - start, self.S - (gauge is not None), M.dim
        out = np.zeros((m * S, d, d), dtype=np.int64)
        out[slots] = M.run_sums(elt, sign, starts)
        return out.reshape(m, S, d, d).transpose(0, 2, 1, 3).reshape(m * d, S * d)

    def _terms(self, batch: np.ndarray, gauge: int | None) -> tuple[np.ndarray, ...]:
        """The batch's terms sorted by slot = edge * S + block, without
        those in block s* when gauged: their elements and signs, where each
        slot's run starts, and the slots."""
        S = self.S
        g, s = batch[:, 0], batch[:, 1]
        k = np.arange(len(batch))
        slot, elt, sign = [k * S + s], [g], [np.ones(len(k), dtype=np.int64)]
        ends = (g.copy(), self._cayley[g, s].astype(g.dtype))
        live = ends[0] != ends[1]
        while live.any():
            depth = self._depth[ends[0]], self._depth[ends[1]]
            ups = live & (depth[0] >= depth[1]), live & (depth[1] >= depth[0])
            for cur, up, sgn in zip(ends, ups, (1, -1)):
                x = cur[up]
                slot.append(k[up] * S + self._gen[x])
                elt.append(self._parent[x])
                sign.append(np.full(len(x), sgn, dtype=np.int64))
                cur[up] = self._parent[x]
            live = ends[0] != ends[1]
        slot, elt, sign = map(np.concatenate, (slot, elt, sign))
        if gauge is not None:  # slot e * S + b moves to e * (S - 1) + b - (b > s*)
            block = slot % S
            keep = block != gauge
            slot, elt, sign = (slot - slot // S - (block > gauge))[keep], elt[keep], sign[keep]
        order = np.argsort(slot, kind="stable")
        slot = slot[order]
        starts = np.flatnonzero(np.diff(slot, prepend=-1))
        return elt[order], sign[order], starts, slot[starts]


_SWEEPS: weakref.WeakKeyDictionary[MatrixGroup, _EdgeSweep] = weakref.WeakKeyDictionary()


def _edge_sweep(H: MatrixGroup) -> _EdgeSweep:
    """H's edge sweep, built on its first solve and dropped with H."""
    sweep = _SWEEPS.get(H)
    if sweep is None:
        sweep = _SWEEPS[H] = _EdgeSweep(H)
    return sweep


def cell_multiplicities(N: MatrixGroup, T: MatrixGroup, MN: FpModule, MT: FpModule, cells,
                        budget_mb: int = 1024) -> list[np.ndarray]:
    """For each cell (start, stop), a range of blocks of f coordinates
    spanning a submodule M_c over T N, the table of dim_{F_p} H^1(T N,
    Hom_{F_q}(F_q[chi], M_c)) over the characters chi of T, where the module
    M over T N is MN over N and MT over T on the same space: one cocycle
    solve of H^1(N, MN), within budget_mb, serves every cell and every chi,
    and every principal series whose restriction to N is MN.  T normalizes
    N, p does not divide |T|, and both modules are in fq form; MT over
    another group, or of another dim, is refused.

    The table is indexed by the exponents (c_t) with chi(t) = zeta^{c_t}
    for T's generators t, row-major, which is all_chars order for the
    generators of build_torus.  H^1(N, M) is the direct sum of the
    H^1(N, M_c), and the part of an H^1 basis cocycle at a cell's
    coordinates is a cocycle of M_c, so the coordinates of those parts span
    H^1(N, M_c), and their reduced rows E are a basis of it.  A_t, the
    action (t.f)(n) = t f(t^{-1} n t) on coordinate rows, maps that span to
    itself, where it is (E A_t) read at E's pivot columns.  By
    inflation-restriction and because twisting by chi^{-1} leaves the
    N-action alone, the entry for chi is the F_p-nullity of chi(t)^{-1} A_t
    - 1 stacked over the generators of T, chi(t)^{-1} acting as an
    F_q-scalar.  Cells whose parts are not cocycles, or whose span T does
    not keep, are refused.
    """
    p, fld = MN.p, N.field
    if T.order % p == 0:
        raise StructureError("inflation-restriction needs p to be prime to |T|")
    if not (MN.fq_form and MT.fq_form):
        raise ModuleError("the F_q-scalar action needs a module in fq form")
    if MT.group is not T or MT.dim != MN.dim:
        raise StructureError("the torus action is not a module over T on the solved space")
    # N is trivial at n = 1, and so is its H^1
    basis = h1_dim(N, MN, budget_mb=budget_mb).basis if N.generators else []
    if not basis:
        return [np.zeros((fld.q - 1) ** len(T.generators), dtype=np.int64) for _ in cells]
    h, S, d = len(basis), len(N.generators), MN.dim
    nu = S * d
    values = np.stack([c.values for c in basis])  # (h, S, d)
    # rows [B^1 | 0] and [basis | 1]: reducing [z | 0] for z in Z^1 leaves
    # [0 | -x], where x are z's coordinates in the basis modulo B^1
    red = linalg.RowReducer(p, nu + h)
    red.add_rows(np.hstack([_coboundary_rows(MN)[0], np.zeros((d, h), dtype=np.int64)]))
    red.add_rows(np.hstack([values.reshape(h, nu), np.eye(h, dtype=np.int64)]))

    def coords(images: np.ndarray) -> np.ndarray:
        rest = red.reduce(np.hstack([images.reshape(h, nu), np.zeros((h, h), dtype=np.int64)]))
        if rest[:, :nu].any():
            raise StructureError("the image of an H^1 basis cocycle is not a cocycle")
        return (-rest[:, nu:]) % p

    # multiplication by the field generator on values, blockwise in fq form
    gen_block = np.kron(np.eye(d // fld.f, dtype=np.int64), fld.mult_matrix(fld.generator_code))
    scalar = coords(values @ gen_block.T % p)
    fvals = [c.propagate() for c in basis]  # kept by the solve's certificate
    acts = []
    for t, rho_t in zip(T.generators, MT.gen_action):
        conj = torus_conjugate_ids(N, t)
        acts.append(coords(np.stack([f[conj] for f in fvals]) @ rho_t.T % p))

    out = []
    for start, stop in cells:
        cols = slice(start * fld.f, stop * fld.f)
        part = np.zeros_like(values)
        part[:, :, cols] = values[:, :, cols]
        span = linalg.RowReducer(p, h)
        span.add_rows(coords(part))

        def on_span(A):
            image = span.rows @ A % p
            if span.reduce(image).any():
                raise StructureError("the torus moves a cell's H^1 out of it")
            return image[:, span.pivots]

        out.append(_multiplicities([on_span(A) for A in acts], on_span(scalar), fld.q - 1, p))
    return out


def _multiplicities(acts: list[np.ndarray], scalar: np.ndarray, qm1: int, p: int) -> np.ndarray:
    """For every c in Z_{q-1}^S, S = len(acts), row-major, the F_p-nullity
    of zeta^{-c_t} A_t - 1 stacked over t, where the A_t act on coordinate
    rows and scalar is multiplication by zeta.  The A_t commute with each other
    and with scalar and are diagonalizable with eigenvalues in F_q, so the
    nullities sum to the dim: the loop stops when they reach it."""
    dim = scalar.shape[0]
    table = np.zeros(qm1 ** len(acts), dtype=np.int64)
    if dim == 0:
        return table
    powers = [np.eye(dim, dtype=np.int64)]
    for _ in range(qm1 - 1):
        powers.append(powers[-1] @ scalar % p)
    # coordinates are rows, so x is fixed iff x (zeta^{-c_t} A_t - 1) = 0 for all t
    blocks = [[(A @ powers[-c % qm1] - powers[0]).T % p for c in range(qm1)] for A in acts]
    left = dim
    for code, c in enumerate(itertools.product(range(qm1), repeat=len(acts))):
        m = dim - linalg.rank_mod(np.vstack([b[ct] for b, ct in zip(blocks, c)]), p)
        table[code] = m
        left -= m
        if not left:
            break
    return table


def _propagate(H: MatrixGroup, M: FpModule, values: np.ndarray) -> tuple[np.ndarray, list]:
    """f(g) for every element, shape (|H|, h, d), for a stack of h cocycles
    given on the generators, shape (h, S, d), in one walk of the tree; and
    the steps rho(g) f(s) the walk adds, one (|H|, h, d) array per
    generator s, not reduced mod p, or None where f(s) is 0 in every
    cocycle (the gauge), which the walk copies along."""
    steps = [M.apply(slice(None), values[:, s]) if values[:, s].any() else None
             for s in range(len(H.generators))]
    out = np.zeros((H.order, len(values), values.shape[2]), dtype=np.int64)
    for s, parents, children in H.tree_batches:
        if steps[s] is None:
            out[children] = out[parents]
        else:
            out[children] = linalg.mod(out[parents] + steps[s][parents], M.p)
    return out, steps


def _h1_representatives(red: linalg.RowReducer, cob: np.ndarray,
                        p: int) -> tuple[list[np.ndarray], int]:
    """H^1 representatives among the nullspace basis vectors, and the dim
    of the coboundaries' span, from one elimination of their coordinates.
    The coboundaries are all of B^1, or in a gauged solve delta(M^{s*}),
    whose few rows make this elimination narrow.

    Coboundaries satisfy every edge, so they lie in the nullspace, and their
    coordinates in its basis are their values at the free columns.  Basis
    vector k extends the span of the coboundaries and the vectors before it
    unless some combination of coboundaries has its last nonzero coordinate
    at k, that is, unless k is a pivot of the coordinates with their columns
    reversed.
    """
    null = red.nullspace()
    free = red.free_columns()
    k = len(free)
    coords = cob[:, free]
    if ((coords @ null - cob) % p).any():
        raise StructureError("a coboundary violates the cocycle system; inconsistent system")
    quot = linalg.RowReducer(p, k)
    if coords.size:
        quot.add_rows(coords[:, ::-1])
    last = {k - 1 - c for c in quot.pivots}
    return [null[j] for j in range(k) if j not in last], quot.rank
