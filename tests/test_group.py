"""Group construction: orders, closure, Cayley consistency, factorization,
double cosets, coset normal forms, conjugate intersections and commutators."""

import numpy as np
import pytest

from borelext import gmodule, group
from borelext.field import make_field
from borelext.group import (
    BruhatCosets,
    Mat,
    MatrixGroup,
    SizeBudgetError,
    StructureError,
    build_borel,
    build_gl,
    build_torus,
    build_unipotent,
    batch_normal_form,
    commutator_subgroup,
    diag_mat,
    gl_order,
    identity_mat,
    intersect_conjugate,
    unipotent_part,
    weyl_elements,
)

from _brute import (
    add_raw,
    brute_commutator_subgroup,
    brute_intersect_conjugate,
    brute_unipotent_part,
    coset_normal_form,
    double_cosets,
    fifo_bfs,
    mat_mul,
    one_by_one_bruhat_cosets,
    pattern_elements,
    tn_factor,
    word_for,
)


@pytest.fixture(scope="module")
def F3():
    return make_field(3, 1)


@pytest.fixture(scope="module")
def F5():
    return make_field(5, 1)


@pytest.fixture(scope="module")
def F9():
    return make_field(3, 2)


def test_gl_orders(F3, F5, F9):
    assert build_gl(F3, 2).order == 48 == (9 - 1) * (9 - 3)
    assert build_gl(F5, 2).order == 480 == (25 - 1) * (25 - 5)
    assert build_gl(F3, 3).order == 11232 == (27 - 1) * (27 - 3) * (27 - 9)
    assert build_gl(F9, 2).order == gl_order(9, 2) == 5760


@pytest.mark.parametrize("p,f,n", [(3, 1, 2), (5, 1, 2), (7, 1, 2), (3, 2, 2), (3, 1, 3)])
def test_gl_is_generated_by_two_matrices(p, f, n):
    # Taylor's pair diag(zeta, 1, ..., 1) and the matrix with first row
    # (-1, 0, ..., 0, 1) and -1 on the subdiagonal closes to all of GL_n(F_q)
    fld = make_field(p, f)
    G = build_gl(fld, n)
    assert len(G.generators) == 2
    assert G.order == gl_order(fld.q, n)
    zeta, minus = fld.generator_code, fld.neg_code(1)
    assert G.generators[0].diagonal_codes() == (zeta,) + (1,) * (n - 1)
    assert G.generators[0].is_diagonal()
    second = G.generators[1]
    assert [second.codes[j] for j in range(n)] == [minus] + [0] * (n - 2) + [1]
    assert all(second.codes[i * n + j] == (minus if j == i - 1 else 0)
               for i in range(1, n) for j in range(n))


def test_subgroup_orders(F3, F9):
    assert build_borel(F3, 2).order == 12
    assert build_torus(F3, 2).order == 4
    assert build_unipotent(F3, 2).order == 3
    assert build_borel(F9, 2).order == 576
    assert build_borel(F3, 3).order == 216


def test_budget_error(F3, monkeypatch):
    with pytest.raises(SizeBudgetError):
        build_gl(F3, 6)  # |GL_6(F_3)| is about 8.7e16
    # the budget is read at call time
    monkeypatch.setattr(group, "DEFAULT_GROUP_BUDGET", 100)
    with pytest.raises(SizeBudgetError):
        build_gl(F3, 3)


def test_closure_under_product_and_inverse(F3):
    B = build_borel(F3, 2)
    for a in B.elements:
        assert a.inv() in B
        for b in B.elements:
            assert (a * b) in B


def test_cayley_consistency(F5):
    G = build_gl(F5, 2)
    rng = np.random.default_rng(0)
    ids = rng.integers(0, G.order, size=64)
    for i in map(int, ids):
        for s, g in enumerate(G.generators):
            assert int(G.cayley[i, s]) == G.element_id(G.elements[i] * g)


def test_entrywise_product_against_field_ops(F9):
    # one multiplication recomputed entry by entry with the scalar code ops
    B = build_borel(F9, 2)
    a, b = B.elements[5], B.elements[17]
    c = a * b
    n = 2
    for i in range(n):
        for j in range(n):
            acc = 0
            for k in range(n):
                acc = F9.add_code(acc, F9.mul_code(a.codes[i * n + k], b.codes[k * n + j]))
            assert acc == c.codes[i * n + j]


@pytest.mark.parametrize("p,f,n,which", [(3, 2, 2, "B"), (5, 1, 2, "G")], ids=["B-3-2-2", "G-5-1-2"])
def test_mat_product_matches_the_table_product(p, f, n, which):
    # Mat.__mul__ (one batch_mul) against mat_mul's own q x q tables on a
    # seeded sample of pairs
    fld = make_field(p, f)
    H = build_borel(fld, n) if which == "B" else build_gl(fld, n)
    rng = np.random.default_rng(H.order)
    for i, j in rng.integers(0, H.order, (200, 2)).tolist():
        x, y = H.elements[i], H.elements[j]
        prod = x * y
        assert prod == mat_mul(x, y)
        assert all(type(c) is int for c in prod.codes)


def test_tn_factorization_unique(F3):
    B = build_borel(F3, 2)
    T = build_torus(F3, 2)
    N = build_unipotent(F3, 2)
    seen = set()
    for b in B.elements:
        t, n = tn_factor(b)
        assert t in T and n in N
        assert t * n == b
        seen.add((t.codes, n.codes))
    assert len(seen) == B.order == T.order * N.order


def test_weyl_elements_sorted_identity_first(F3):
    ws = weyl_elements(F3, 3)
    assert len(ws) == 6
    assert ws[0].is_identity()
    assert [w.length for w in ws] == sorted(w.length for w in ws)


def test_double_cosets_gl2(F3, F5):
    G3, B3 = build_gl(F3, 2), build_borel(F3, 2)
    ws, sizes = double_cosets(G3, B3)
    assert [w.perm for w in ws] == [(1, 2), (2, 1)]
    assert sizes == [12, 36]
    G5, B5 = build_gl(F5, 2), build_borel(F5, 2)
    ws5, sizes5 = double_cosets(G5, B5)
    assert sizes5 == [80, 400]
    assert sum(sizes5) == G5.order


def test_double_cosets_gl3(F3):
    G, B = build_gl(F3, 3), build_borel(F3, 3)
    ws, sizes = double_cosets(G, B)
    assert len(ws) == 6
    assert sum(sizes) == G.order
    assert len({w.perm for w in ws}) == 6


@pytest.mark.parametrize("p,f,n", [(3, 1, 3), (3, 2, 2), (5, 1, 3)])
def test_coset_normal_form_is_a_function_of_the_coset(p, f, n):
    # random invertible g: g = b rep with b upper-triangular and diag b as
    # returned, and h g has the same representative for random h in B
    fld = make_field(p, f)
    q = fld.q
    rng = np.random.default_rng(q * 10 + n)

    def rand_mat(upper):
        codes = [int(c) for c in rng.integers(0, q, n * n)]
        if upper:
            for i in range(n):
                codes[i * n : i * n + i] = [0] * i
                codes[i * n + i] = int(rng.integers(1, q))
        return Mat(fld, n, tuple(codes))

    tried = 0
    while tried < 20:
        g = rand_mat(upper=False)
        if g.det_code() == 0:
            continue
        tried += 1
        rep, diag = coset_normal_form(g)
        b = g * Mat(fld, n, rep).inv()
        assert b.is_upper_triangular() and b.diagonal_codes() == diag
        assert coset_normal_form(Mat(fld, n, rep)) == (rep, (1,) * n)
        for _ in range(5):
            assert coset_normal_form(rand_mat(upper=True) * g)[0] == rep


@pytest.mark.parametrize("p,f", [(3, 1), (3, 2)], ids=["3-1", "3-2"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_batch_normal_form_matches_one_matrix_at_a_time(p, f, n):
    # random invertible matrices, in one stack, against the per-matrix
    # reference; the identity-like permutation matrices are included
    fld = make_field(p, f)
    rng = np.random.default_rng(100 * fld.q + n)
    mats = [w.rep for w in weyl_elements(fld, n)]
    while len(mats) < 60:
        g = Mat(fld, n, tuple(int(c) for c in rng.integers(0, fld.q, n * n)))
        if g.det_code():
            mats.append(g)
    reps, diag = batch_normal_form(fld, group.code_stack(mats, n))
    assert reps.shape == (len(mats), n, n) and diag.shape == (len(mats), n)
    for g, rep, dg in zip(mats, reps.tolist(), diag.tolist()):
        assert coset_normal_form(g) == (tuple(c for row in rep for c in row), tuple(dg))


def test_batch_normal_form_refuses_a_singular_matrix(F3):
    g = group.code_stack([Mat(F3, 2, (1, 2, 2, 1))], 2)  # det 1 - 4 = 0 mod 3
    with pytest.raises(StructureError, match="singular"):
        batch_normal_form(F3, g)


@pytest.mark.parametrize("p,f", [(3, 1), (3, 2), (1031, 1), (37, 2)])
def test_batch_mul_matches_one_product_at_a_time(p, f):
    # random 3 x 3 code matrices, broadcast against one, array form against
    # the scalar code ops and against coefficient vectors, including fields
    # with q above 1024
    fld = make_field(p, f)
    rng = np.random.default_rng(fld.q)
    a = rng.integers(0, fld.q, (12, 3, 3))
    a[0] = 0
    b = rng.integers(0, fld.q, (3, 3))
    got = group.batch_mul(fld, a, b)
    assert got.shape == (12, 3, 3)
    bl = b.tolist()
    for x, y in zip(a.tolist(), got.tolist()):
        for i in range(3):
            for j in range(3):
                acc = raw = 0
                for k in range(3):
                    acc = fld.add_code(acc, fld.mul_code(x[i][k], bl[k][j]))
                    raw = add_raw(fld, raw, fld._mul_raw(x[i][k], bl[k][j]))
                assert y[i][j] == acc == raw


@pytest.mark.parametrize("p,f,n", [(3, 1, 2), (3, 2, 2), (3, 1, 3), (5, 1, 3)],
                         ids=["3-1-2", "3-2-2", "3-1-3", "5-1-3"])
def test_level_search_matches_the_one_coset_at_a_time_search(p, f, n):
    fld = make_field(p, f)
    T, N, ws = build_torus(fld, n), build_unipotent(fld, n), weyl_elements(fld, n)
    cosets = BruhatCosets(T, N, ws)
    reps, cells, cell_logs, actions = one_by_one_bruhat_cosets(T, N, ws)
    assert [r.codes for r in cosets.reps] == reps
    assert cosets.cells == cells
    assert all(type(c) is int for cell in cosets.cells for c in cell)
    for got, want in [(cosets.cell_logs, cell_logs)] + [
            (cosets.actions[H][i], actions[H][i]) for H in (T, N) for i in (0, 1)]:
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


@pytest.mark.parametrize("p,f,n", [(3, 1, 2), (3, 2, 2), (5, 1, 2)])
def test_cayley_tables_match_one_product_at_a_time(p, f, n):
    fld = make_field(p, f)
    for H in [build_torus(fld, n), build_unipotent(fld, n), build_borel(fld, n),
              build_gl(fld, n)]:
        want = [[H.index[mat_mul(m, s).codes] for s in H.generators] for m in H.elements]
        assert H.cayley.tolist() == want


def test_bruhat_cosets_reject_a_target_that_is_not_a_permutation(F3, monkeypatch):
    # the last image computed is sent to the identity coset, which its own
    # generators already reach: every cell keeps its size, so only the
    # permutation check can see the fault
    T, N = build_torus(F3, 3), build_unipotent(F3, 3)
    ws = weyl_elements(F3, 3)
    real = group.batch_normal_form
    calls = []

    def counted(fld, g):
        calls.append(g)
        return real(fld, g)

    monkeypatch.setattr(group, "batch_normal_form", counted)
    cosets = BruhatCosets(T, N, ws)
    total = len(calls)
    identity_rep = np.array(cosets.reps[0].codes).reshape(3, 3)

    def corrupted(fld, g):
        calls.append(g)
        reps, diag = real(fld, g)
        if len(calls) == 2 * total:
            reps.reshape(-1, 3, 3)[-1] = identity_rep
        return reps, diag

    monkeypatch.setattr(group, "batch_normal_form", corrupted)
    with pytest.raises(StructureError, match="permute"):
        BruhatCosets(T, N, ws)
    # G's generators go through the same check: the first image outside the
    # identity coset is sent there, and the cell sizes do not see it
    G = build_gl(F3, 3)
    assert gmodule.right_coset_data(cosets, G)[0].shape == (len(cosets.reps), len(G.generators))
    moved = []

    def corrupted_g(fld, g):
        reps, diag = real(fld, g)
        for i, rep in enumerate(reps.reshape(-1, 3, 3)):
            if not moved and (rep != identity_rep).any():
                moved.append(i)
                rep[:] = identity_rep
        return reps, diag

    monkeypatch.setattr(gmodule, "batch_normal_form", corrupted_g)
    with pytest.raises(StructureError, match="permute"):
        gmodule.right_coset_data(cosets, G)
    assert len(moved) == 1


@pytest.mark.parametrize("p,f", [(3, 1), (3, 2)], ids=["3-1", "3-2"])
def test_bruhat_cosets_reject_an_n_image_with_a_non_unit_diagonal(p, f, monkeypatch):
    # the image of the identity coset under N's first generator keeps its
    # target but gets the diagonal (zeta, 1, 1): cells and permutations are
    # unchanged, so only the unit-diagonal check on N's images can see it
    fld = make_field(p, f)
    T, N = build_torus(fld, 3), build_unipotent(fld, 3)
    ws = weyl_elements(fld, 3)
    cosets = BruhatCosets(T, N, ws)
    assert not cosets.actions[N][1].any()
    real = group.batch_normal_form
    n1 = np.array(N.generators[0].codes).reshape(3, 3)
    seen = []

    def corrupted(fld, g):
        reps, diag = real(fld, g)
        for i, (x, dg) in enumerate(zip(g.reshape(-1, 3, 3), diag.reshape(-1, 3))):
            if (x == n1).all():
                seen.append(i)
                dg[0] = fld.generator_code
        return reps, diag

    monkeypatch.setattr(group, "batch_normal_form", corrupted)
    with pytest.raises(StructureError, match="non-unit diagonal"):
        BruhatCosets(T, N, ws)
    assert len(seen) == 1


@pytest.mark.parametrize("p,f,n", [(3, 1, 2), (3, 2, 2), (3, 1, 3), (5, 1, 3)],
                         ids=["3-1-2", "3-2-2", "3-1-3", "5-1-3"])
def test_bruhat_cells_are_recorded_with_their_torus_diagonal(p, f, n):
    # cell w holds q^l(w) cosets in weyls order, and the torus generator t_i
    # scales each of them by w t_i w^{-1}, whose zeta sits at position w(i)
    fld = make_field(p, f)
    T, N, ws = build_torus(fld, n), build_unipotent(fld, n), weyl_elements(fld, n)
    cosets = BruhatCosets(T, N, ws)
    assert [stop - start for start, stop in cosets.cells] == [fld.q ** w.length for w in ws]
    assert cosets.cells[0][0] == 0 and cosets.cells[-1][1] == len(cosets.reps)
    assert all(a[1] == b[0] for a, b in zip(cosets.cells, cosets.cells[1:]))
    eye = np.eye(n, dtype=np.int64)
    for w, L in zip(ws, cosets.cell_logs):
        assert L.tolist() == eye[[i - 1 for i in w.perm]].tolist()


def test_cell_check_refuses_a_coset_moved_across_cells_or_a_varying_diagonal(F3, monkeypatch):
    T, N, ws = build_torus(F3, 3), build_unipotent(F3, 3), weyl_elements(F3, 3)
    cosets = BruhatCosets(T, N, ws)
    st = len(T.generators)
    target = np.hstack([cosets.actions[T][0], cosets.actions[N][0]])
    logs = cosets.actions[T][1]
    assert (group.cell_torus_logs(cosets.cells, target, logs) == cosets.cell_logs).all()
    # swap the images of a coset of the (1,3,2) cell and of the w0 cell under
    # N's first generator: each column stays a permutation
    a, b = cosets.cells[1][0], cosets.cells[-1][0]
    moved = target.copy()
    moved[[a, b], st] = moved[[b, a], st]
    assert (np.sort(moved, axis=0) == np.arange(len(cosets.reps))[:, None]).all()
    with pytest.raises(StructureError, match="another Bruhat cell"):
        group.cell_torus_logs(cosets.cells, moved, logs)
    # the last coset of the w0 cell scaled by another diagonal under t_1
    varied = logs.copy()
    varied[cosets.cells[-1][1] - 1, 0] = (0, 0, 0)
    with pytest.raises(StructureError, match="different diagonals"):
        group.cell_torus_logs(cosets.cells, target, varied)
    # BruhatCosets runs the check on the action its search found
    real = group.coset_action

    def corrupted(cosets, images, diag):
        tgt, lg = real(cosets, images, diag)
        lg = lg.copy()
        lg[-1, 0] = (0, 0, 0)
        return tgt, lg

    monkeypatch.setattr(group, "coset_action", corrupted)
    with pytest.raises(StructureError, match="different diagonals"):
        BruhatCosets(T, N, ws)


def test_intersect_conjugate_gl2(F3):
    B = build_borel(F3, 2)
    T = build_torus(F3, 2)
    ws = weyl_elements(F3, 2)
    assert intersect_conjugate(B, ws[0]).order == B.order
    Bw = intersect_conjugate(B, ws[1])
    assert Bw.order == T.order
    assert unipotent_part(Bw).order == 1


def test_intersect_conjugate_gl3(F3):
    B = build_borel(F3, 3)
    w12 = [w for w in weyl_elements(F3, 3) if w.perm == (2, 1, 3)][0]
    Bw = intersect_conjugate(B, w12)
    assert Bw.order == 8 * 9  # torus times the two surviving root subgroups
    assert unipotent_part(Bw).order == 9
    T = build_torus(F3, 3)
    assert all(t in Bw for t in T.elements)


def test_torus_normalizes_unipotent_intersections(F3):
    B = build_borel(F3, 3)
    T = build_torus(F3, 3)
    for w in weyl_elements(F3, 3):
        Np = unipotent_part(intersect_conjugate(B, w))
        for t in T.generators:
            ti = t.inv()
            for g in Np.generators:
                assert (t * g) * ti in Np


def test_commutator_subgroups(F3):
    N2 = build_unipotent(F3, 2)
    assert commutator_subgroup(N2).order == 1
    T = build_torus(F3, 2)
    assert commutator_subgroup(T).order == 1
    N3 = build_unipotent(F3, 3)
    C = commutator_subgroup(N3)
    assert C.order == 3
    # the center of the 3x3 unipotent group: only the far corner entry
    for m in C.elements:
        assert m.codes[1] == 0 and m.codes[5] == 0
    with pytest.raises(StructureError):  # only unipotent groups and the torus
        commutator_subgroup(build_borel(F3, 2))


def test_greedy_generators_are_small(F3, F9):
    assert len(build_borel(F3, 2).generators) == 3
    assert len(build_borel(F9, 2).generators) == 3
    assert len(build_unipotent(F9, 2).generators) == 2
    assert len(build_unipotent(F3, 3).generators) == 2


@pytest.mark.parametrize("p,f,n", [(3, 1, 3), (3, 2, 2), (5, 1, 3)])
def test_root_subgroups_match_element_filters(p, f, n):
    # the groups built from root sets have the element sets of the table
    # filters and of the commutator closure, at every Weyl element
    fld = make_field(p, f)
    B = build_borel(fld, n)
    for w in weyl_elements(fld, n):
        Bw = intersect_conjugate(B, w)
        assert {m.codes for m in Bw.elements} == brute_intersect_conjugate(B, w)
        Np = unipotent_part(Bw)
        assert {m.codes for m in Np.elements} == brute_unipotent_part(Bw)
        C = commutator_subgroup(Np)
        assert {m.codes for m in C.elements} == brute_commutator_subgroup(Np)


# generator codes of B, T and N as the greedy closure search chose them
PINNED_GENERATORS = {
    (3, 1, 2): {
        "B": [(2, 0, 0, 1), (1, 0, 0, 2), (1, 1, 0, 1)],
        "T": [(2, 0, 0, 1), (1, 0, 0, 2)],
        "N": [(1, 1, 0, 1)],
    },
    (3, 2, 2): {
        "B": [(4, 0, 0, 1), (1, 0, 0, 4), (1, 1, 0, 1)],
        "T": [(4, 0, 0, 1), (1, 0, 0, 4)],
        "N": [(1, 1, 0, 1), (1, 3, 0, 1)],
    },
    (3, 1, 3): {
        "B": [(2, 0, 0, 0, 1, 0, 0, 0, 1), (1, 0, 0, 0, 2, 0, 0, 0, 1),
              (1, 0, 0, 0, 1, 0, 0, 0, 2), (1, 1, 0, 0, 1, 0, 0, 0, 1),
              (1, 0, 0, 0, 1, 1, 0, 0, 1)],
        "T": [(2, 0, 0, 0, 1, 0, 0, 0, 1), (1, 0, 0, 0, 2, 0, 0, 0, 1),
              (1, 0, 0, 0, 1, 0, 0, 0, 2)],
        "N": [(1, 1, 0, 0, 1, 0, 0, 0, 1), (1, 0, 0, 0, 1, 1, 0, 0, 1)],
    },
}


@pytest.mark.parametrize("p,f,n", sorted(PINNED_GENERATORS))
def test_generators_from_root_sets(p, f, n):
    fld = make_field(p, f)
    B = build_borel(fld, n)
    got = {"B": B, "T": build_torus(fld, n), "N": build_unipotent(fld, n)}
    for label, grp in got.items():
        assert [g.codes for g in grp.generators] == PINNED_GENERATORS[(p, f, n)][label]
    # B∩B^w: the torus, then e_α(1) for each α of Δ_w, the roots of Φ_w
    # that are not a sum of two roots of Φ_w
    for w in weyl_elements(fld, n):
        phi = {(i, j) for i in range(n) for j in range(i + 1, n) if w.perm[i] < w.perm[j]}
        delta = [(i, j) for i, j in phi
                 if not any((i, k) in phi and (k, j) in phi for k in range(n))]
        assert len(intersect_conjugate(B, w).generators) == n + len(delta)


def test_pattern_group_budget(F3, monkeypatch):
    # |N| = 3^10 for n = 5; the guard reads the budget at call time
    monkeypatch.setattr(group, "DEFAULT_GROUP_BUDGET", 1000)
    monkeypatch.setattr(group, "Mat", None)  # enumeration would need it
    with pytest.raises(SizeBudgetError):
        build_unipotent(F3, 5)
    with pytest.raises(SizeBudgetError):
        build_torus(make_field(37, 1), 2)


def test_group_dump_roundtrip(F3):
    B = build_borel(F3, 2)
    d = B.dump()
    assert d["order"] == 12 and d["label"] == "B"
    assert len(d["generators"]) == len(B.generators)
    first = d["generators"][0]
    assert all(isinstance(c, list) for c in first)


def test_singular_matrix_rejected(F3):
    m = Mat(F3, 2, (1, 1, 1, 1))
    with pytest.raises(StructureError):
        m.inv()
    assert m.det_code() == 0


def test_bfs_words_resolve(F5):
    G = build_gl(F5, 2)
    rng = np.random.default_rng(2)
    for i in map(int, rng.integers(0, G.order, size=20)):
        word = word_for(G, i)
        acc = G.elements[G.identity_id]
        for s in word:
            acc = acc * G.generators[s]
        assert acc.codes == G.elements[i].codes


def test_a_closure_that_misses_its_order_is_refused(F3):
    # diag(zeta, 1) alone closes to 2 elements, not the 4 of the torus of
    # GL_2(F_3); Taylor's pair closes past a claimed order of 10, and the
    # walk stops at the level that passes it
    zeta = diag_mat(F3, (F3.generator_code, 1))
    with pytest.raises(StructureError, match="do not close to 4 elements"):
        MatrixGroup(F3, 2, "T", [zeta], 4)
    with pytest.raises(StructureError, match="do not close to 10 elements"):
        MatrixGroup(F3, 2, "G", build_gl(F3, 2).generators, 10)


ARRAY_CASES = [(3, 1, 2), (3, 2, 2), (5, 1, 2), (3, 1, 3)]


@pytest.mark.parametrize("p,f,n", ARRAY_CASES, ids=["3-1-2", "3-2-2", "5-1-2", "3-1-3"])
def test_inverse_ids_match_matrix_inverses(p, f, n):
    fld = make_field(p, f)
    for H in [build_torus(fld, n), build_unipotent(fld, n), build_borel(fld, n),
              build_gl(fld, n)]:
        want = [H.index[m.inv().codes] for m in H.elements]
        got = H.inverse_ids()
        assert got.dtype == np.int64 and got.tolist() == want
        assert [H.inv_id(i) for i in range(H.order)] == want


@pytest.mark.parametrize("p,f,n", ARRAY_CASES, ids=["3-1-2", "3-2-2", "5-1-2", "3-1-3"])
def test_level_bfs_matches_the_fifo_walk(p, f, n):
    fld = make_field(p, f)
    B = build_borel(fld, n)
    groups = [build_torus(fld, n), build_unipotent(fld, n), B, build_gl(fld, n)]
    groups += [intersect_conjugate(B, w) for w in weyl_elements(fld, n)]
    for H in groups:
        order, parent, gen, depth, batches = fifo_bfs(H)
        assert order.tolist() == list(range(H.order))  # ids are the FIFO order
        pairs = [(H.bfs_parent, parent), (H.bfs_gen, gen), (H.bfs_depth, depth)]
        assert [s for s, _, _ in H.tree_batches] == [s for s, _, _ in batches]
        for (_, got_par, got_ch), (_, par, ch) in zip(H.tree_batches, batches):
            pairs += [(got_par, par), (got_ch, ch)]
        for got, want in pairs:
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


@pytest.mark.parametrize("p,f,n", [(3, 1, 2), (3, 2, 2), (3, 1, 3), (5, 1, 3)],
                         ids=["3-1-2", "3-2-2", "3-1-3", "5-1-3"])
def test_torus_conjugates_by_scaling_match_the_product(p, f, n):
    # t^{-1} s t read by scaling the entries of s equals the Mat product,
    # for every torus generator t and unipotent generator s
    fld = make_field(p, f)
    T, N = build_torus(fld, n), build_unipotent(fld, n)
    for t in T.generators:
        want = [N.element_id((t.inv() * s) * t) for s in N.generators]
        assert group.torus_conjugate_ids(N, t) == want
    with pytest.raises(StructureError):
        group.torus_conjugate_ids(N, N.generators[0])


@pytest.mark.parametrize("p,f,n", ARRAY_CASES, ids=["3-1-2", "3-2-2", "5-1-2", "3-1-3"])
def test_pattern_closures_are_the_enumerated_groups(p, f, n):
    # each pattern group is the closure of its generators: its elements are
    # the enumeration of T·U_Φ or U_Φ, the identity has id 0, and its Cayley
    # rows are the mat_mul products looked up in its index
    fld = make_field(p, f)
    B = build_borel(fld, n)
    groups = [build_torus(fld, n), build_unipotent(fld, n), B]
    for w in weyl_elements(fld, n):
        Bw = intersect_conjugate(B, w)
        Np = unipotent_part(Bw)
        groups += [Bw, Np, commutator_subgroup(Np)]
    for H in groups:
        want = pattern_elements(fld, n, *H.pattern)
        assert len(H.elements) == H.order == len(want)
        assert {m.codes for m in H.elements} == want
        assert H.identity_id == 0 and H.elements[0] == identity_mat(fld, n)
        assert H.cayley.tolist() == [[H.index[mat_mul(m, s).codes] for s in H.generators]
                                     for m in H.elements]
