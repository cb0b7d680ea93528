"""Modules: character/induced/hom constructions, restriction, fixed points,
isomorphism testing, the abelianized unipotent quotient, and Res_B Ind chi
built from the Bruhat cosets against the restriction of Ind_B^G chi."""

import numpy as np
import pytest

from borelext.chars import (
    TorusChar,
    all_chars,
    evaluate,
    frobenius_twist,
    simple_root,
    trivial_char,
)
from borelext.field import make_field
from borelext.gmodule import (
    FpModule,
    ModuleError,
    abelian_quotient_with_torus_action,
    bruhat_induced_module,
    char_module,
    char_modules_isomorphic,
    det_char_module,
    fixed_points_dim,
    fq_hom_module,
    hom_module,
    induced_module,
    restrict,
    right_coset_data,
    trivial_module,
)
from borelext.group import (
    build_borel,
    build_gl,
    build_torus,
    build_unipotent,
    intersect_conjugate,
    tn_factor,
    weyl_elements,
)
from borelext.verify import get_instance

from _brute import brute_commutator_subgroup


@pytest.fixture(scope="module")
def F3():
    return make_field(3, 1)


@pytest.fixture(scope="module")
def F9():
    return make_field(3, 2)


@pytest.fixture(scope="module")
def gl2_f3(F3):
    return build_gl(F3, 2), build_borel(F3, 2)


def _check_homomorphism_everywhere(M):
    H = M.group
    rho = [M.act(i) for i in range(H.order)]
    for g in range(H.order):
        for s in range(len(H.generators)):
            gs = int(H.cayley[g, s])
            assert ((rho[g] @ M.gen_action[s]) % M.p == rho[gs]).all()


def test_char_module_basics(F3, gl2_f3):
    _, B = gl2_f3
    alpha = simple_root(1, 2, 2)
    M = char_module(B, alpha)
    assert M.dim == 1
    _check_homomorphism_everywhere(M)
    # diag(2,1) acts by 2, the unipotent part trivially
    from borelext.group import diag_mat, transvection

    t_id = B.element_id(diag_mat(F3, (2, 1)))
    assert M.act(t_id)[0, 0] == 2
    n_id = B.element_id(transvection(F3, 2, 1, 2, 1))
    assert M.act(n_id)[0, 0] == 1


def test_char_module_f9_multiplication_matrix(F9):
    B = build_borel(F9, 2)
    chi = TorusChar((1, 0), 8)
    M = char_module(B, chi)
    assert M.dim == 2
    from borelext.group import diag_mat

    t = diag_mat(F9, (F9.generator_code, 1))  # diag(x+1, 1)
    a = M.act(B.element_id(t))
    assert a[:, 0].tolist() == [1, 1] and a[:, 1].tolist() == [2, 1]
    _check_homomorphism_everywhere(M)


def test_trivial_char_module_identity_action(F9):
    B = build_borel(F9, 2)
    M = char_module(B, trivial_char(2, 8))
    for a in M.gen_action:
        assert (a == np.eye(2, dtype=np.int64)).all()


def test_induced_module_dims(F3, F9, gl2_f3):
    G, B = gl2_f3
    ind = induced_module(G, B, trivial_char(2, 2))
    assert ind.dim == 4  # [G:B] = 48/12
    G9, B9 = build_gl(F9, 2), build_borel(F9, 2)
    ind9 = induced_module(G9, B9, trivial_char(2, 8))
    assert ind9.dim == 20  # f [G:B] = 2 * 10
    _check_homomorphism_everywhere(ind)


def test_induced_trivial_has_constant_fixed_vector(gl2_f3):
    G, B = gl2_f3
    ind = induced_module(G, B, trivial_char(2, 2))
    assert fixed_points_dim(ind) >= 1
    ones = np.ones(ind.dim, dtype=np.int64)
    for a in ind.gen_action:
        assert ((a @ ones) % 3 == ones).all()


def test_induced_action_is_generalized_permutation(gl2_f3):
    G, B = gl2_f3
    chi = TorusChar((1, 0), 2)
    ind = induced_module(G, B, chi)
    k = ind.dim
    for a in ind.gen_action:
        # exactly one nonzero entry per row and per column
        assert (np.count_nonzero(a, axis=0) == 1).all()
        assert (np.count_nonzero(a, axis=1) == 1).all()
        assert k == a.shape[0]


def test_hom_module_action(gl2_f3):
    G, B = gl2_f3
    chi1, chi2 = TorusChar((1, 0), 2), TorusChar((0, 1), 2)
    M = hom_module(char_module(B, chi1), char_module(B, chi2))
    assert M.dim == 1
    _check_homomorphism_everywhere(M)
    # the action is by chi1^{-1} chi2
    from borelext.chars import evaluate
    from borelext.group import tn_factor

    ratio = chi1.inverse() * chi2
    for s, g in enumerate(B.generators):
        t, _ = tn_factor(g)
        assert M.gen_action[s][0, 0] == evaluate(ratio, t).code


def test_endomorphisms_of_induced(gl2_f3):
    # trivial character: two-dimensional endomorphism algebra; a regular
    # character: one-dimensional (computed by direct linear solve)
    G, B = gl2_f3
    ind0 = induced_module(G, B, trivial_char(2, 2))
    assert fixed_points_dim(hom_module(ind0, ind0)) == 2
    ind10 = induced_module(G, B, TorusChar((1, 0), 2))
    assert fixed_points_dim(hom_module(ind10, ind10)) == 1


def test_fixed_points(F3, gl2_f3):
    _, B = gl2_f3
    assert fixed_points_dim(trivial_module(B, 5)) == 5
    alpha = simple_root(1, 2, 2)
    assert fixed_points_dim(char_module(B, alpha)) == 0
    M = hom_module(char_module(B, trivial_char(2, 2)), char_module(B, alpha))
    assert fixed_points_dim(M) == 0


def test_restrict(F3, gl2_f3):
    G, B = gl2_f3
    chi = TorusChar((1, 1), 2)
    ind = induced_module(G, B, chi)
    res = restrict(ind, B)
    assert res.dim == ind.dim
    assert restrict(ind, G) is ind
    _check_homomorphism_everywhere(res)
    # restriction keeps the underlying action of B-elements
    for g in B.generators:
        got = res.gen_action[B.generators.index(g)]
        assert (got == ind.act(G.element_id(g))).all()


def test_restrict_dim_matches_bruhat_count(F3, gl2_f3):
    G, B = gl2_f3
    ws = weyl_elements(F3, 2)
    total = 0
    for w in ws:
        Bw = intersect_conjugate(B, w)
        total += B.order // Bw.order
    ind = induced_module(G, B, trivial_char(2, 2))
    assert restrict(ind, B).dim == total * F3.f


def test_char_modules_isomorphic_frobenius(F9):
    A = build_torus(F9, 1)
    chi1 = TorusChar((1,), 8)
    ok, mu = char_modules_isomorphic(A, chi1, TorusChar((3,), 8))
    assert ok and mu is not None
    ok2, _ = char_modules_isomorphic(A, chi1, TorusChar((2,), 8))
    assert not ok2
    ok3, mu3 = char_modules_isomorphic(A, chi1, chi1)
    assert ok3


def test_char_modules_isomorphism_witness_is_field_automorphism(F9):
    # a surjective character: the normalized intertwiner must respect both
    # structures of F_q, hence is a Frobenius power
    A = build_torus(F9, 1)
    chi1, chi2 = TorusChar((1,), 8), TorusChar((3,), 8)
    ok, mu = char_modules_isomorphic(A, chi1, chi2)
    assert ok
    # normalize mu(1) = 1
    one = np.zeros(2, dtype=np.int64)
    one[0] = 1
    img = (mu @ one) % 3
    u = F9.coeffs_code([int(c) for c in img])
    scale = F9.mult_matrix(F9.inv_code(u))
    mun = (scale @ mu) % 3

    def apply(code):
        vec = np.array(F9.code_coeffs(code), dtype=np.int64)
        return F9.coeffs_code([int(c) for c in (mun @ vec) % 3])

    assert apply(1) == 1
    for a in range(9):
        for b in range(9):
            assert apply(F9.mul_code(a, b)) == F9.mul_code(apply(a), apply(b))
            assert apply(F9.add_code(a, b)) == F9.add_code(apply(a), apply(b))


def test_char_modules_isomorphic_forward_all_twists(F9):
    A = build_torus(F9, 1)
    for chi in all_chars(1, 8):
        for k in range(2):
            ok, _ = char_modules_isomorphic(A, chi, frobenius_twist(chi, k))
            assert ok


def test_abelian_quotient_gl3(F3):
    T = build_torus(F3, 3)
    N = build_unipotent(F3, 3)
    Q = abelian_quotient_with_torus_action(N, T)
    assert Q.dim == 2
    _check_homomorphism_everywhere(Q)
    # quotient map is a homomorphism onto F_p^2 and the section splits it
    for a in N.elements:
        for b in N.elements:
            va = np.array(Q.quotient_map(a))
            vb = np.array(Q.quotient_map(b))
            assert Q.quotient_map(a * b) == tuple((va + vb) % 3)
    for vec in [(0, 0), (1, 0), (2, 1)]:
        assert Q.quotient_map(Q.section(vec)) == vec


@pytest.mark.parametrize("args", [(3, 1, 3), (3, 2, 2), (5, 1, 2)], ids=str)
def test_root_data_quotient_against_brute_commutators(args):
    # at every w: the entries at the roots that are not a sum of two roots
    # give a surjective homomorphism N'_w -> F_p^dim whose kernel is the
    # brute-force commutator closure, and it intertwines conjugation by each
    # torus generator with the module's action
    inst = get_instance(*args)
    p = inst.p
    T = inst.T
    for w in inst.weyls:
        Np = inst.nprime(w)
        Q = abelian_quotient_with_torus_action(Np, T)
        image = {m.codes: np.array(Q.quotient_map(m)) for m in Np.elements}
        assert len({tuple(v) for v in image.values()}) == p ** Q.dim
        for a in Np.elements:
            for b in Np.elements:
                assert ((image[(a * b).codes] - image[a.codes] - image[b.codes]) % p == 0).all()
        kernel = {c for c, v in image.items() if not v.any()}
        assert kernel == brute_commutator_subgroup(Np)
        for t, A in zip(T.generators, Q.gen_action):
            ti = t.inv()
            for m in Np.elements:
                assert (image[(t * m * ti).codes] == A @ image[m.codes] % p).all()
        for v in image.values():
            assert (np.array(Q.quotient_map(Q.section(v))) == v).all()


def test_det_char_module(gl2_f3):
    G, _ = gl2_f3
    M = det_char_module(G, 1)
    _check_homomorphism_everywhere(M)
    assert M.dim == 1
    assert fixed_points_dim(det_char_module(G, 0)) == 1


def test_fq_hom_module_of_chars_is_ratio_char(F9):
    B = build_borel(F9, 2)
    chi1, chi2 = TorusChar((1, 2), 8), TorusChar((3, 7), 8)
    M = fq_hom_module(char_module(B, chi1), char_module(B, chi2))
    expected = char_module(B, chi1.inverse() * chi2)
    assert M.dim == expected.dim == 2
    for a, b in zip(M.gen_action, expected.gen_action):
        assert (a == b).all()


def test_fq_hom_module_general_vs_twist_path(F9):
    # the scalar-twist path is the only one: a left module of one
    # F_q-dimension gives a module, a larger one is refused
    G, B = build_gl(F9, 2), build_borel(F9, 2)
    chi = TorusChar((1, 7), 8)
    ind = induced_module(G, B, chi)
    M1 = char_module(B, TorusChar((2, 5), 8))
    fast = fq_hom_module(M1, restrict(ind, B))
    assert fast.dim == ind.dim and fast.fq_form
    _check_homomorphism_everywhere(fast)
    big = FpModule(B, [np.kron(np.eye(2, dtype=np.int64), a) for a in M1.gen_action],
                   fq_form=True)
    with pytest.raises(ModuleError, match="one F_q-dimension"):
        fq_hom_module(big, restrict(ind, B))


def test_fq_hom_requires_fq_form(gl2_f3):
    _, B = gl2_f3
    M = trivial_module(B, 2)
    with pytest.raises(ModuleError):
        fq_hom_module(M, M)


def test_module_errors(F3, gl2_f3):
    G, B = gl2_f3
    with pytest.raises(ModuleError):
        hom_module(char_module(B, trivial_char(2, 2)), det_char_module(G, 0))
    other = build_borel(make_field(5, 1), 2)
    with pytest.raises(ModuleError):
        restrict(det_char_module(G, 0), other)


def test_coset_data_partition(gl2_f3):
    G, B = gl2_f3
    reps, coset_of = right_coset_data(G, B)
    assert len(reps) == G.order // B.order
    import collections

    counts = collections.Counter(int(c) for c in coset_of)
    assert all(v == B.order for v in counts.values())


@pytest.mark.parametrize("p", [3, 5])
def test_hom_table_from_factors_equals_tree_table(p):
    # GL_2(F_p): the kron-built table of a Hom module against the table a
    # hand-built module with the same generators fills along the BFS tree
    from borelext.linalg import is_invertible_mod

    fld = make_field(p, 1)
    G, B = build_gl(fld, 2), build_borel(fld, 2)
    chars = all_chars(2, p - 1)
    coset = right_coset_data(G, B)
    ind1, ind2 = (induced_module(G, B, chars[k], coset) for k in (1, len(chars) - 2))
    det1, det2 = det_char_module(G, 1), det_char_module(G, p - 2)
    for M1, M2 in [(ind1, ind2), (ind2, ind2), (det1, ind1), (det1, det2)]:
        H = hom_module(M1, M2)
        assert H._all is None  # built lazily, on first use
        # derived modules skip the constructor's check; their generators
        # are invertible all the same
        assert all(is_invertible_mod(a, p) for a in H.gen_action)
        ref = FpModule(G, H.gen_action)
        table = H.act_all()
        assert table.dtype == np.uint8 and table.shape == (G.order, H.dim, H.dim)
        assert (table == ref.act_all()).all()
    derived = [restrict(ind1, B), fq_hom_module(char_module(B, chars[1]), restrict(ind2, B))]
    derived += [char_module(B, chi) for chi in chars]
    for M in derived:
        assert all(is_invertible_mod(a, p) for a in M.gen_action)
    singular = [np.eye(2, dtype=np.int64) for _ in G.generators]
    singular[0] = np.array([[1, 1], [1, 1]])
    with pytest.raises(ModuleError, match="singular"):
        FpModule(G, singular)


@pytest.mark.parametrize("args", [(3, 1, 2), (5, 1, 2), (3, 2, 2), (3, 1, 3)], ids=str)
def test_bruhat_module_is_the_restricted_induced_module(args):
    # the two modules differ by a monomial change of basis P: the Bruhat
    # representative r of a coset goes to the enumerated representative r0
    # of the same coset, scaled by chi(t) where r = b r0 and t is b's torus part
    inst = get_instance(*args)
    G, B, fld, p, f = inst.G, inst.B, inst.field, inst.p, inst.f
    cosets = inst.bruhat_cosets
    rep_ids, coset_of = inst.coset_data
    assert len(cosets.reps) == len(rep_ids) == G.order // B.order
    old_of = [int(coset_of[G.element_id(r)]) for r in cosets.reps]
    assert sorted(old_of) == list(range(len(rep_ids)))
    tori = [tn_factor(r * G.elements[rep_ids[k]].inv())[0] for r, k in zip(cosets.reps, old_of)]
    for chi in inst.chars:
        new = bruhat_induced_module(cosets, chi)
        assert new.group is B and new.fq_form and new.chi == chi
        old = restrict(inst.induced(chi), B)
        P = np.zeros((new.dim, new.dim), dtype=np.int64)
        for i, (k, t) in enumerate(zip(old_of, tori)):
            P[i * f : (i + 1) * f, k * f : (k + 1) * f] = fld.mult_matrix(evaluate(chi, t).code)
        for a_old, a_new in zip(old.gen_action, new.gen_action):
            assert not ((P @ a_old - a_new @ P) % p).any()
