"""GL_n(F_q) and its Borel-related subgroups as explicit finite matrix
groups: full element tables, Cayley edges against a fixed generator set,
and the right cosets B\\G in Bruhat normal form, which need no table of G.

B, T, N, B∩B^w, its unipotent part N'_w and the commutator subgroups are
all pattern groups T·U_Φ or U_Φ for a closed set Φ of positive roots, and
one constructor, `_pattern_group`, builds each of them from (Φ, torus): the
elements by direct enumeration, the generators from the roots of Φ that are
not a sum of two of its roots.  G alone is found by BFS closure.

Groups are immutable once built.  Elements are canonicalized as flat tuples
of F_q codes, which makes identity tests and table lookups cheap.
"""

from __future__ import annotations

import itertools
from collections import deque

import numpy as np

from . import linalg
from .field import FieldCtx, Fq

DEFAULT_GROUP_BUDGET = 20_000_000


class SizeBudgetError(RuntimeError):
    pass


class StructureError(RuntimeError):
    pass


def gl_order(q: int, n: int) -> int:
    out = 1
    for i in range(n):
        out *= q**n - q**i
    return out


class Mat:
    """An n x n matrix over F_q, entries stored row-major as codes."""

    __slots__ = ("field", "n", "codes")

    def __init__(self, field: FieldCtx, n: int, codes: tuple[int, ...]):
        self.field = field
        self.n = n
        self.codes = codes

    def __eq__(self, other):
        return isinstance(other, Mat) and self.codes == other.codes and self.n == other.n

    def __hash__(self):
        return hash(self.codes)

    def __mul__(self, other: "Mat") -> "Mat":
        return Mat(self.field, self.n, _mul_codes(self.field, self.n, self.codes, other.codes))

    def entry(self, i: int, j: int) -> Fq:
        """Entry in row i, column j (1-based)."""
        return self.field.from_code(self.codes[(i - 1) * self.n + (j - 1)])

    def diagonal_codes(self) -> tuple[int, ...]:
        n = self.n
        return tuple(self.codes[i * n + i] for i in range(n))

    def is_diagonal(self) -> bool:
        n = self.n
        return all(self.codes[i * n + j] == 0 for i in range(n) for j in range(n) if i != j)

    def is_upper_triangular(self) -> bool:
        n = self.n
        return all(self.codes[i * n + j] == 0 for i in range(n) for j in range(i))

    def has_unit_diagonal(self) -> bool:
        return all(c == 1 for c in self.diagonal_codes())

    def inv(self) -> "Mat":
        rows = [self.codes[i * self.n : (i + 1) * self.n] for i in range(self.n)]
        out = linalg.fq_invert(rows, self.field)
        if out is None:
            raise StructureError("matrix is singular")
        return Mat(self.field, self.n, tuple(c for row in out for c in row))

    def det_code(self) -> int:
        n = self.n
        rows = [self.codes[i * n : (i + 1) * n] for i in range(n)]
        _, pivots, det = linalg.fq_eliminate(rows, self.field)
        return det if len(pivots) == n else 0

    def __repr__(self):
        n, fld = self.n, self.field
        rows = [
            "[" + " ".join(fld.poly_str(self.codes[i * n + j]) for j in range(n)) + "]"
            for i in range(n)
        ]
        return "Mat(" + "; ".join(rows) + ")"


def _mul_codes(field: FieldCtx, n: int, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    mul = field._mulL
    add = field._addL
    if mul is None:
        out = []
        for i in range(n):
            for j in range(n):
                acc = 0
                for k in range(n):
                    acc = field.add_code(acc, field.mul_code(a[i * n + k], b[k * n + j]))
                out.append(acc)
        return tuple(out)
    out = []
    for i in range(n):
        arow = a[i * n : (i + 1) * n]
        for j in range(n):
            acc = 0
            for k in range(n):
                acc = add[acc][mul[arow[k]][b[k * n + j]]]
            out.append(acc)
    return tuple(out)


def identity_mat(field: FieldCtx, n: int) -> Mat:
    return Mat(field, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))


def diag_mat(field: FieldCtx, codes) -> Mat:
    n = len(codes)
    return Mat(field, n, tuple(codes[i] if i == j else 0 for i in range(n) for j in range(n)))


def transvection(field: FieldCtx, n: int, i: int, j: int, code: int) -> Mat:
    """e_{ij}(c): identity plus c in row i, column j (1-based, i != j)."""
    ent = [1 if a == b else 0 for a in range(n) for b in range(n)]
    ent[(i - 1) * n + (j - 1)] = code
    return Mat(field, n, tuple(ent))


def perm_mat(field: FieldCtx, perm: tuple[int, ...]) -> Mat:
    """Permutation matrix P with P e_j = e_{perm(j)} (1-based images)."""
    n = len(perm)
    ent = [0] * (n * n)
    for j in range(n):
        ent[(perm[j] - 1) * n + j] = 1
    return Mat(field, n, tuple(ent))


class WeylElement:
    """A permutation together with its matrix representative."""

    __slots__ = ("perm", "rep")

    def __init__(self, field: FieldCtx, perm: tuple[int, ...]):
        self.perm = tuple(perm)
        self.rep = perm_mat(field, self.perm)

    @property
    def length(self) -> int:
        p = self.perm
        return sum(1 for a in range(len(p)) for b in range(a + 1, len(p)) if p[a] > p[b])

    def is_identity(self) -> bool:
        return all(self.perm[i] == i + 1 for i in range(len(self.perm)))

    def __eq__(self, other):
        return isinstance(other, WeylElement) and self.perm == other.perm

    def __hash__(self):
        return hash(self.perm)

    def __repr__(self):
        return f"WeylElement{self.perm}"


def weyl_elements(field: FieldCtx, n: int) -> list[WeylElement]:
    """All n! Weyl representatives, sorted by Bruhat length then one-line form."""
    ws = [WeylElement(field, p) for p in itertools.permutations(range(1, n + 1))]
    ws.sort(key=lambda w: (w.length, w.perm))
    return ws


class MatrixGroup:
    """A finite matrix group with a full element table and Cayley edges.

    elements[i] is the i-th element; index maps entry tuples back to ids;
    cayley[i, s] is the id of elements[i] * generators[s].  bfs_order walks
    ids from the identity so that bfs_parent/bfs_gen give, for every
    non-identity element, a tree edge along which generator words resolve.
    """

    def __init__(self, field, n, label, elements, generators):
        self.field = field
        self.n = n
        self.label = label
        self.elements: list[Mat] = elements
        self.generators: list[Mat] = generators
        self.index: dict[tuple[int, ...], int] = {m.codes: i for i, m in enumerate(elements)}
        if len(self.index) != len(elements):
            raise StructureError("duplicate elements in table")
        size = len(elements)
        ns = len(generators)
        self.cayley = np.empty((size, ns), dtype=np.int32)
        for i, m in enumerate(elements):
            codes = m.codes
            for s, g in enumerate(generators):
                prod = _mul_codes(field, n, codes, g.codes)
                j = self.index.get(prod)
                if j is None:
                    raise StructureError("element table not closed under generators")
                self.cayley[i, s] = j
        self.identity_id = self.index[identity_mat(field, n).codes]
        self._build_bfs()
        self._inv_ids: dict[int, int] = {}
        self._inv_table: np.ndarray | None = None
        self.pattern: tuple | None = None  # (roots, torus) of a pattern group

    def _build_bfs(self):
        size = len(self.elements)
        parent = np.full(size, -1, dtype=np.int32)
        via = np.full(size, -1, dtype=np.int32)
        order = np.empty(size, dtype=np.int32)
        seen = np.zeros(size, dtype=bool)
        q = deque([self.identity_id])
        seen[self.identity_id] = True
        k = 0
        while q:
            i = q.popleft()
            order[k] = i
            k += 1
            for s in range(self.cayley.shape[1]):
                j = int(self.cayley[i, s])
                if not seen[j]:
                    seen[j] = True
                    parent[j] = i
                    via[j] = s
                    q.append(j)
        if k != size:
            raise StructureError("generators do not generate the element table")
        self.bfs_order = order
        self.bfs_parent = parent
        self.bfs_gen = via
        # tree edges grouped by (BFS level, generator) for batched propagation
        level = np.full(size, -1, dtype=np.int32)
        level[self.identity_id] = 0
        for i in order[1:]:
            level[i] = level[parent[i]] + 1
        batches = []
        for lv in range(1, int(level.max(initial=0)) + 1):
            at = order[(level[order] == lv)]
            for s in range(self.cayley.shape[1]):
                children = at[via[at] == s]
                if children.size:
                    batches.append((s, parent[children], children))
        self.tree_batches = batches

    @property
    def order(self) -> int:
        return len(self.elements)

    def element_id(self, m: Mat) -> int:
        try:
            return self.index[m.codes]
        except KeyError:
            raise StructureError("matrix is not in the group") from None

    def __contains__(self, m: Mat) -> bool:
        return m.codes in self.index

    def mul_ids(self, i: int, j: int) -> int:
        prod = _mul_codes(self.field, self.n, self.elements[i].codes, self.elements[j].codes)
        return self.index[prod]

    def inv_id(self, i: int) -> int:
        j = self._inv_ids.get(i)
        if j is None:
            j = self.index[self.elements[i].inv().codes]
            self._inv_ids[i] = j
            self._inv_ids[j] = i
        return j

    def inverse_ids(self) -> np.ndarray:
        """inv_id of every element, as an array built once."""
        if self._inv_table is None:
            self._inv_table = np.fromiter(
                (self.inv_id(i) for i in range(self.order)), np.int64, self.order)
        return self._inv_table

    def is_subgroup_of(self, other: "MatrixGroup") -> bool:
        return all(m.codes in other.index for m in self.elements)

    def dump(self) -> dict:
        return {
            "p": self.field.p,
            "f": self.field.f,
            "n": self.n,
            "label": self.label,
            "order": self.order,
            "generators": [
                [list(self.field.code_coeffs(c)) for c in g.codes] for g in self.generators
            ],
        }

    def __repr__(self):
        return f"MatrixGroup({self.label}, order={self.order}, gens={len(self.generators)})"


def build_gl(field: FieldCtx, n: int, budget: int = DEFAULT_GROUP_BUDGET) -> MatrixGroup:
    """Full GL_n(F_q) by BFS closure from transvections and one torus coord."""
    expected = gl_order(field.q, n)
    if expected > budget:
        raise SizeBudgetError(
            f"|GL_{n}(F_{field.q})| = {expected} exceeds the enumeration budget of {budget}"
        )
    gens = [transvection(field, n, i, j, 1) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    if field.q > 2:
        gens.append(diag_mat(field, (field.generator_code,) + (1,) * (n - 1)))
    elements = _bfs_elements(field, n, gens)
    if len(elements) != expected:
        raise StructureError(f"GL closure has {len(elements)} elements, expected {expected}")
    return MatrixGroup(field, n, "G", elements, gens)


def _bfs_elements(field, n, gens) -> list[Mat]:
    ident = identity_mat(field, n).codes
    seen = {ident}
    out = [ident]
    frontier = deque([ident])
    gcodes = [g.codes for g in gens]
    while frontier:
        a = frontier.popleft()
        for g in gcodes:
            b = _mul_codes(field, n, a, g)
            if b not in seen:
                seen.add(b)
                out.append(b)
                frontier.append(b)
    return [Mat(field, n, c) for c in out]


def _positive_roots(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _sums_of_two(roots) -> set[tuple[int, int]]:
    """The roots (i, k) + (k, j) = (i, j) of a set that are a sum of two of its roots."""
    rs = set(roots)
    return {(i, j) for i, j in rs if any((i, k) in rs and (k, j) in rs for k in range(i + 1, j))}


def indecomposable_roots(roots) -> list[tuple[int, int]]:
    """The roots of a set that are not a sum of two of its roots, by (j - i, i)."""
    sums = _sums_of_two(roots)
    return [(i, j) for _, i, j in sorted((j - i, i, j) for i, j in roots if (i, j) not in sums)]


def _pattern_group(field: FieldCtx, n: int, roots, torus: bool, label: str) -> MatrixGroup:
    """T·U_Φ, or U_Φ without the torus, for a closed set Φ of positive roots.

    `roots` holds the positions (i, j), 0-based with i < j, where entries
    off the diagonal may be nonzero.  The diagonal is invertible with the
    torus and 1 without it.  Elements are enumerated with the diagonal
    varying slowest, then the root entries in row-major order.  The
    generators are the n torus generators, then e_α(x^m) for each root α
    that is not a sum of two roots of Φ, ordered by (j - i, i, m): m < f
    without the torus, and m = 0 with it, because conjugation by T moves
    e_α(1) through all of U_α.  The Chevalley relation [e_ik(a), e_kj(b)] =
    e_ij(ab) gives the other roots, and MatrixGroup checks by BFS that the
    generators reach every element.
    """
    roots = tuple(sorted(roots))
    q = field.q
    size = ((q - 1) ** n if torus else 1) * q ** len(roots)
    if size > DEFAULT_GROUP_BUDGET:
        raise SizeBudgetError(
            f"|{label}| = {size} exceeds the enumeration budget of {DEFAULT_GROUP_BUDGET}")
    elements = []
    for diag in itertools.product(range(1, q), repeat=n) if torus else [(1,) * n]:
        base = list(diag_mat(field, diag).codes)
        for entries in itertools.product(range(q), repeat=len(roots)):
            ent = base[:]
            for (i, j), c in zip(roots, entries):
                ent[i * n + j] = c
            elements.append(Mat(field, n, tuple(ent)))
    gens = []
    if torus:
        for i in range(n):
            d = [1] * n
            d[i] = field.generator_code
            gens.append(diag_mat(field, tuple(d)))
    for i, j in indecomposable_roots(roots):
        for m in range(1 if torus else field.f):
            gens.append(transvection(field, n, i + 1, j + 1, field._pp[m]))
    grp = MatrixGroup(field, n, label, elements, gens)
    grp.pattern = (roots, torus)
    return grp


def build_borel(field: FieldCtx, n: int) -> MatrixGroup:
    """Invertible upper-triangular matrices."""
    return _pattern_group(field, n, _positive_roots(n), True, "B")


def build_torus(field: FieldCtx, n: int) -> MatrixGroup:
    return _pattern_group(field, n, (), True, "T")


def build_unipotent(field: FieldCtx, n: int) -> MatrixGroup:
    return _pattern_group(field, n, _positive_roots(n), False, "N")


def tn_factor(b: Mat) -> tuple[Mat, Mat]:
    """Unique factorization b = t * n with t diagonal, n unit upper-triangular."""
    if not b.is_upper_triangular():
        raise StructureError("element is not upper-triangular")
    t = diag_mat(b.field, b.diagonal_codes())
    n = t.inv() * b
    return t, n


def intersect_conjugate(B: MatrixGroup, w: WeylElement) -> MatrixGroup:
    """B ∩ w^{-1} B w: w m w^{-1} has entry m_ij at (perm(i), perm(j)), so
    the roots (i, j) of B with perm(i) < perm(j) survive, and the torus."""
    roots, torus = B.pattern
    kept = [(i, j) for i, j in roots if w.perm[i] < w.perm[j]]
    return _pattern_group(B.field, B.n, kept, torus, f"B∩B^w{w.perm}")


def unipotent_part(H: MatrixGroup) -> MatrixGroup:
    """Unit-diagonal elements of an upper-triangular pattern group."""
    roots, _ = H.pattern
    return _pattern_group(H.field, H.n, roots, False, f"U({H.label})")


def commutator_subgroup(H: MatrixGroup) -> MatrixGroup:
    """[U_Φ, U_Φ] = U_Φ' for the roots Φ' of Φ that are a sum of two of its
    roots; [T, T] is trivial.  On U_Φ the entries at the other roots add
    under multiplication, so commutators vanish there."""
    roots, torus = H.pattern
    if torus and roots:
        raise StructureError("commutator subgroups are built for unipotent groups and the torus")
    return _pattern_group(H.field, H.n, _sums_of_two(roots), False, f"[{H.label},{H.label}]")


def coset_normal_form(g: Mat) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The representative of the right coset B·g, and the diagonal of b in
    g = b·rep, as codes.

    Left multiplication by B scales a row and adds multiples of the rows
    below it.  So the rows are reduced from the bottom up: each row is
    cleared at the pivot columns of the rows below it, lowest row first,
    then scaled to a leading 1.  The result depends only on B·g, and the
    pivot values are the diagonal of b."""
    fld, n = g.field, g.n
    rows = [list(g.codes[i * n : (i + 1) * n]) for i in range(n)]
    pivot = [0] * n
    diag = [0] * n
    for i in range(n - 1, -1, -1):
        row = rows[i]
        for k in range(n - 1, i, -1):
            a = row[pivot[k]]
            if a:
                row = [fld.sub_code(x, fld.mul_code(a, y)) for x, y in zip(row, rows[k])]
        lead = next(j for j, x in enumerate(row) if x)
        diag[i] = row[lead]
        inv = fld.inv_code(row[lead])
        rows[i] = [fld.mul_code(inv, x) for x in row]
        pivot[i] = lead
    return tuple(c for row in rows for c in row), tuple(diag)


class BruhatCosets:
    """The right cosets B\\G in Bruhat normal form, with the right action of
    B's generators, built without an element table of G.

    Each Bruhat cell B\\BwB is the orbit of the permutation matrix of w
    under right multiplication by B, so the cosets are found cell by cell in
    the order of `weyls`.  For generator s and coset i, reps[i]·s =
    b·reps[target[i, s]], and logs[i, s] holds the discrete logs of b's
    diagonal.  Nothing here depends on a character.
    """

    def __init__(self, B: MatrixGroup, weyls):
        fld, n = B.field, B.n
        gens = [g.codes for g in B.generators]
        index: dict[tuple[int, ...], int] = {}
        reps: list[tuple[int, ...]] = []
        target, logs = [], []
        for w in weyls:
            start = len(reps)
            rep = coset_normal_form(w.rep)[0]
            index[rep] = start
            reps.append(rep)
            i = start
            while i < len(reps):
                for s in gens:
                    rep, diag = coset_normal_form(Mat(fld, n, _mul_codes(fld, n, reps[i], s)))
                    j = index.setdefault(rep, len(reps))
                    if j == len(reps):
                        reps.append(rep)
                    target.append(j)
                    logs.append([fld.dlog_code(c) for c in diag])
                i += 1
            if len(reps) - start != fld.q ** w.length:
                raise StructureError(f"Bruhat cell of {w.perm} has {len(reps) - start} "
                                     f"cosets, expected q^{w.length}")
        if len(reps) != gl_order(fld.q, n) // B.order:
            raise StructureError("Bruhat cells do not cover B\\G")
        self.group = B
        self.reps = [Mat(fld, n, c) for c in reps]
        self.target = np.array(target, dtype=np.int64).reshape(len(reps), len(gens))
        self.logs = np.array(logs, dtype=np.int64).reshape(len(reps), len(gens), n)
