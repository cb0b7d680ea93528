"""GL_n(F_q) and its Borel-related subgroups as explicit finite matrix
groups: full element tables, Cayley edges against a fixed generator set,
and the right cosets B\\G in Bruhat normal form, which need no table of G
or of B.

B, T, N, B∩B^w, its unipotent part N'_w and the commutator subgroups are
all pattern groups T·U_Φ or U_Φ for a closed set Φ of positive roots, and
one constructor, `_pattern_group`, builds each of them from (Φ, torus): the
elements by direct enumeration, the generators from the roots of Φ that are
not a sum of two of its roots.  G alone is found by BFS closure from
two generators.

Groups are immutable once built.  Elements are canonicalized as flat tuples
of F_q codes, which makes identity tests and table lookups cheap.  Every
F_q matrix product, of two Mats or of stacks, is one batch_mul, and coset
normal forms are batch_normal_form.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import linalg
from .field import FieldCtx

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
        a, b = (np.reshape(m.codes, (self.n, self.n)) for m in (self, other))
        return Mat(self.field, self.n, tuple(batch_mul(self.field, a, b).ravel().tolist()))

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


def batch_mul(field: FieldCtx, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over F_q for stacks of n x n code matrices, broadcast over the
    leading axes."""
    return field.sum_arrays(field.mul_array(a[..., :, k, None], b[..., None, k, :])
                            for k in range(a.shape[-1]))


def batch_normal_form(field: FieldCtx, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The representative of the right coset B·g, and the diagonal of b in
    g = b·rep, as codes, for each invertible matrix of a stack of code
    matrices, shapes (..., n, n) to (..., n, n) and (..., n).

    Left multiplication by B scales a row and adds multiples of the rows
    below it.  So the rows are reduced from the bottom up: each row is
    cleared at the pivot columns of the rows below it, lowest row first,
    then scaled to a leading 1.  The result depends only on B·g, and the
    pivot values are the diagonal of b."""
    n = g.shape[-1]
    rows = g.reshape(-1, n, n).copy()
    at = np.arange(len(rows))
    pivot = np.zeros((len(rows), n), dtype=np.int64)
    diag = np.zeros((len(rows), n), dtype=np.int64)
    minus = field.neg_code(1)
    for i in range(n - 1, -1, -1):
        row = rows[:, i]
        for k in range(n - 1, i, -1):
            a = field.mul_array(row[at, pivot[:, k]], minus)
            row = field.sum_arrays((row, field.mul_array(a[:, None], rows[:, k])))
        pivot[:, i] = (row != 0).argmax(axis=1)
        diag[:, i] = row[at, pivot[:, i]]
        if not diag[:, i].all():
            raise StructureError("matrix is singular")
        rows[:, i] = field.mul_array(field.inv_array(diag[:, i])[:, None], row)
    return rows.reshape(g.shape), diag.reshape(g.shape[:-1])


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
    non-identity element, a tree edge along which generator words resolve
    (word), and bfs_depth its distance from the identity.
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
        mats = code_stack(elements, n)
        self.cayley = np.empty((len(elements), len(generators)), dtype=np.int32)
        for s, g in enumerate(code_stack(generators, n)):
            prods = batch_mul(field, mats, g).reshape(-1, n * n).tolist()
            ids = [self.index.get(tuple(c), -1) for c in prods]
            if -1 in ids:
                raise StructureError("element table not closed under generators")
            self.cayley[:, s] = ids
        self.identity_id = self.index.get(identity_mat(field, n).codes, -1)
        if self.identity_id < 0:
            raise StructureError("element table lacks the identity")
        self._build_bfs()
        self._inv_table: np.ndarray | None = None
        self.pattern: tuple | None = None  # (roots, torus) of a pattern group

    def _build_bfs(self):
        """The BFS tree from the identity, one level at a time: the next
        level is the unseen products of the level with the generators, each
        kept where it first occurs in (element, generator) order, which is
        the order a first-in first-out walk reaches them."""
        size, S = self.cayley.shape
        parent = np.full(size, -1, dtype=np.int32)
        via = np.full(size, -1, dtype=np.int32)
        depth = np.zeros(size, dtype=np.int32)
        seen = np.zeros(size, dtype=bool)
        seen[self.identity_id] = True
        # first[e]: the first position of e among its level's products
        first = np.full(size, size * S, dtype=np.int64)
        level = np.array([self.identity_id], dtype=np.int32)
        levels, batches = [level], []
        while True:
            products = self.cayley[level].ravel()
            at = np.flatnonzero(~seen[products])
            if not at.size:
                break
            np.minimum.at(first, products[at], at)
            at = at[first[products[at]] == at]
            level = products[at]
            seen[level] = True
            parent[level], via[level] = levels[-1][at // S], at % S
            depth[level] = len(levels)
            levels.append(level)
            # tree edges grouped by (BFS depth, generator) for batched propagation
            for s in range(S):
                children = level[via[level] == s]
                if children.size:
                    batches.append((s, parent[children], children))
        self.bfs_order = np.concatenate(levels)
        if len(self.bfs_order) != size:
            raise StructureError("generators do not generate the element table")
        self.bfs_parent = parent
        self.bfs_gen = via
        self.bfs_depth = depth
        self.tree_batches = batches

    @property
    def order(self) -> int:
        return len(self.elements)

    def word(self, elt_id: int) -> list[int]:
        """The generator indices whose product, left to right, is the
        element, along the BFS tree."""
        out = []
        while elt_id != self.identity_id:
            out.append(int(self.bfs_gen[elt_id]))
            elt_id = int(self.bfs_parent[elt_id])
        return out[::-1]

    def element_id(self, m: Mat) -> int:
        try:
            return self.index[m.codes]
        except KeyError:
            raise StructureError("matrix is not in the group") from None

    def __contains__(self, m: Mat) -> bool:
        return m.codes in self.index

    def mul_ids(self, i: int, j: int) -> int:
        return self.index[(self.elements[i] * self.elements[j]).codes]

    def inv_id(self, i: int) -> int:
        return int(self.inverse_ids()[i])

    def inverse_ids(self) -> np.ndarray:
        """The id of every element's inverse, read off the Cayley table:
        right multiplication by s^{-1} undoes column s, and an element's
        inverse is the identity times the inverses of its BFS word's
        generators in reverse, walked up the tree for all elements at once."""
        if self._inv_table is None:
            size, S = self.cayley.shape
            undo = np.empty_like(self.cayley)
            undo[self.cayley, np.arange(S)] = np.arange(size, dtype=np.int32)[:, None]
            at = np.arange(size)
            out = np.full(size, self.identity_id, dtype=np.int64)
            while (live := at != self.identity_id).any():
                out[live] = undo[out[live], self.bfs_gen[at[live]]]
                at[live] = self.bfs_parent[at[live]]
            self._inv_table = out
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


def build_gl(field: FieldCtx, n: int) -> MatrixGroup:
    """Full GL_n(F_q) by BFS closure from Taylor's two generators (D. E.
    Taylor, Pairs of generators for matrix groups I, 1987): diag(ζ, 1, …, 1)
    for the field generator ζ, and the matrix with first row (−1, 0, …, 0, 1)
    and −1 on the subdiagonal.  The closure must have |GL_n(F_q)| elements,
    so a pair that fails to generate raises StructureError.  The order is
    checked against DEFAULT_GROUP_BUDGET, read at call time."""
    expected = gl_order(field.q, n)
    if expected > DEFAULT_GROUP_BUDGET:
        raise SizeBudgetError(f"|GL_{n}(F_{field.q})| = {expected} exceeds the enumeration "
                              f"budget of {DEFAULT_GROUP_BUDGET}")
    gens = [diag_mat(field, (field.generator_code,) + (1,) * (n - 1))]
    if n > 1:
        minus = field.neg_code(1)
        ent = [0] * (n * n)
        ent[0], ent[n - 1] = minus, 1
        for i in range(1, n):
            ent[i * n + i - 1] = minus
        gens.append(Mat(field, n, tuple(ent)))
    elements = _bfs_elements(field, n, gens)
    if len(elements) != expected:
        raise StructureError(f"GL closure has {len(elements)} elements, expected {expected}")
    return MatrixGroup(field, n, "G", elements, gens)


def _bfs_elements(field, n, gens) -> list[Mat]:
    """The closure of the generators from the identity in BFS order, one
    level at a time: one batch_mul of the level with every generator, and
    the new products kept in the order (element, generator) reaches them."""
    ident = identity_mat(field, n)
    seen = {ident.codes: None}
    level, gens = code_stack([ident], n), code_stack(gens, n)
    while len(level):
        prods = batch_mul(field, level[:, None], gens).reshape(-1, n, n)
        level = prods[_add_new(seen, prods)]
    return [Mat(field, n, c) for c in seen]


def _add_new(seen: dict, mats: np.ndarray) -> list[int]:
    """The positions in a stack of code matrices of those not in seen, each
    added to seen (a dict, kept in insertion order) where it first occurs."""
    new = []
    for j, c in enumerate(map(tuple, mats.reshape(-1, mats.shape[-1] ** 2).tolist())):
        if c not in seen:
            seen[c] = None
            new.append(j)
    return new


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


class BruhatCosets:
    """The right cosets B\\G in Bruhat normal form, with the right action of
    the generators of T and N, built without an element table of G or of B.

    Each Bruhat cell B\\BwB is the orbit of the permutation matrix of w
    under right multiplication by B = T·N, so the cosets are found with T's
    and N's generators, all cells at once, one BFS level (one batch_mul and
    batch_normal_form) at a time; reps holds each cell's cosets in the order
    the search reaches them, cell by cell in the order of `weyls`.  index
    maps a representative's codes to its position in reps, and cells holds
    each cell's range (start, stop) of positions.
    actions maps a group to the right action of its generators
    (coset_action): T's and N's come from the images the search computes
    anyway, and another group's is added the first time an induced module
    over it asks (gmodule.right_coset_data).  Every image under a generator
    of N is checked to be reps[i]·s = b·reps[j] with b of unit diagonal, so
    Res_N Ind chi is the same permutation module for every chi.  The images
    under T's and N's generators are checked to stay in their cell, and
    each generator t of T to scale every coset of cell w by one diagonal,
    whose discrete logs are cell_logs[w, t]: a coset of BwB is B·w·u, and
    w·u·t = (w t w^{-1})·w·(t^{-1} u t).  So Res_T Ind chi on cell w is
    chi(cell_logs[w]) times T's action on Ind 1 there, and Res_{TN} Ind chi
    is the direct sum of its cells.  Nothing here depends on a character.
    """

    def __init__(self, T: MatrixGroup, N: MatrixGroup, weyls):
        fld, n = T.field, T.n
        gens = code_stack(T.generators + N.generators, n)
        level = batch_normal_form(fld, code_stack([w.rep for w in weyls], n))[0]
        cell = np.arange(len(weyls))
        seen = dict.fromkeys(map(tuple, level.reshape(len(level), -1).tolist()))
        levels = []
        while len(level):
            image, diag = batch_normal_form(fld, batch_mul(fld, level[:, None], gens))
            levels.append((level, cell, image, diag))
            new = _add_new(seen, image)
            level, cell = image.reshape(-1, n, n)[new], np.repeat(cell, len(gens))[new]
        found, cell, images, diags = map(np.concatenate, zip(*levels))
        order = np.argsort(cell, kind="stable")
        sizes = np.bincount(cell, minlength=len(weyls)).tolist()
        for w, size in zip(weyls, sizes):
            if size != fld.q ** w.length:
                raise StructureError(f"Bruhat cell of {w.perm} has {size} cosets, "
                                     f"expected q^{w.length}")
        if len(order) != gl_order(fld.q, n) // (T.order * N.order):
            raise StructureError("Bruhat cells do not cover B\\G")
        reps = found[order].reshape(len(order), n * n).tolist()
        self.field, self.n = fld, n
        self.reps = [Mat(fld, n, tuple(c)) for c in reps]
        self.index = {tuple(c): i for i, c in enumerate(reps)}
        stops = np.cumsum(sizes).tolist()
        self.cells = list(zip([0] + stops[:-1], stops))
        target, logs = coset_action(self, images[order], diags[order])
        st = len(T.generators)
        if logs[:, st:].any():
            raise StructureError("a generator of N moves a coset by a non-unit diagonal")
        self.cell_logs = cell_torus_logs(self.cells, target, logs[:, :st])
        self.actions: dict[MatrixGroup, tuple[np.ndarray, np.ndarray]] = {
            T: (target[:, :st], logs[:, :st]), N: (target[:, st:], logs[:, st:])}


def torus_conjugate_ids(H: MatrixGroup, t: Mat) -> list[int]:
    """The ids of t^{-1} s t for H's generators s and a diagonal t that
    normalizes H, read by scaling entry (i, j) of s by t_i^{-1} t_j."""
    if not t.is_diagonal():
        raise StructureError("conjugation by scaling needs a diagonal matrix")
    fld, diag = H.field, t.diagonal_codes()
    scale = [fld.mul_code(fld.inv_code(a), b) for a in diag for b in diag]
    return [H.element_id(Mat(fld, H.n, tuple(map(fld.mul_code, s.codes, scale))))
            for s in H.generators]


def code_stack(mats, n: int) -> np.ndarray:
    """The codes of a list of n x n matrices, shape (len(mats), n, n)."""
    return np.array([m.codes for m in mats], dtype=np.int64).reshape(-1, n, n)


def coset_action(cosets: BruhatCosets, images: np.ndarray,
                 diag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The right action of S generators on the cosets, from the normal forms
    (images, diag) of reps[i]·s, shapes (k, S, n, n) and (k, S, n):
    reps[i]·s = b·reps[target[i, s]], and logs[i, s] holds the discrete
    logs of b's diagonal.  Each column of target is checked to be a
    permutation, as right multiplication by s must be."""
    k, S = images.shape[:2]
    target = np.array([cosets.index[c] for c in map(tuple, images.reshape(k * S, -1).tolist())],
                      dtype=np.int64).reshape(k, S)
    if (np.sort(target, axis=0) != np.arange(k)[:, None]).any():
        raise StructureError("a generator does not permute the cosets")
    return target, cosets.field.dlog_array(diag)


def cell_torus_logs(cells, target: np.ndarray, logs: np.ndarray) -> np.ndarray:
    """The discrete logs of the one diagonal by which each torus generator
    scales the cosets of each cell, shape (cells, S, n), from the right
    action of generators on the cosets: target over every generator, logs
    over the torus generators only.  Raises StructureError if a generator
    moves a coset to another cell, or if a torus generator scales two
    cosets of one cell by different diagonals."""
    cell_of = np.repeat(np.arange(len(cells)), [stop - start for start, stop in cells])
    if (cell_of[target] != cell_of[:, None]).any():
        raise StructureError("a generator moves a coset to another Bruhat cell")
    first = logs[[start for start, _ in cells]]
    if (logs != first[cell_of]).any():
        raise StructureError("a torus generator scales one cell's cosets by different diagonals")
    return first
