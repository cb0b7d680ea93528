"""Modules: character/induced/hom constructions, restriction, fixed points,
isomorphism testing, the abelianized unipotent quotient, Ind_B^G chi built
from the Bruhat cosets, over G and over B, against the build that walks G's
element table, and the reads (at, apply) that character, induced and
F_q-Hom modules answer from their group's skeleton, with no table, against
the tables of products along the BFS tree, with the skeleton cache's
laziness and lifetime.  The F_q-Hom is checked against the F_p-Hom's kron
at f = 1, against the scalar twist of the reference at one block, and
against the conjugation of F_q-linear maps at f = 2."""

import gc
import weakref

import numpy as np
import pytest

from borelext import gmodule
from borelext import verify as V

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
    char_module,
    char_modules_isomorphic,
    det_char_module,
    fq_hom_module,
    hom_module,
    induced_module,
    restrict,
    trivial_module,
)
from borelext.group import (
    BruhatCosets,
    build_borel,
    build_gl,
    build_torus,
    build_unipotent,
    intersect_conjugate,
    weyl_elements,
)
from borelext.verify import get_instance

from _brute import (
    brute_coset_data,
    brute_commutator_subgroup,
    brute_fq_hom,
    brute_kron_hom,
    brute_induced_module,
    fixed_points_dim,
    tn_factor,
    word_for,
)


@pytest.fixture(scope="module")
def F3():
    return make_field(3, 1)


@pytest.fixture(scope="module")
def F9():
    return make_field(3, 2)


@pytest.fixture(scope="module")
def gl2_f3(F3):
    return build_gl(F3, 2), build_borel(F3, 2)


def _cosets(fld, n):
    """The Bruhat cosets B\\G of GL_n(F_q), searched with T's and N's generators."""
    return BruhatCosets(build_torus(fld, n), build_unipotent(fld, n), weyl_elements(fld, n))


def _induced(G, chi):
    """Ind_B^G chi over G from the Bruhat cosets."""
    return induced_module(_cosets(G.field, G.n), G, chi)


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
    ind = _induced(G, trivial_char(2, 2))
    assert ind.dim == 4  # [G:B] = 48/12
    G9 = build_gl(F9, 2)
    ind9 = _induced(G9, trivial_char(2, 8))
    assert ind9.dim == 20  # f [G:B] = 2 * 10
    _check_homomorphism_everywhere(ind)


def test_induced_trivial_has_constant_fixed_vector(gl2_f3):
    G, B = gl2_f3
    ind = _induced(G, trivial_char(2, 2))
    assert fixed_points_dim(ind) >= 1
    ones = np.ones(ind.dim, dtype=np.int64)
    for a in ind.gen_action:
        assert ((a @ ones) % 3 == ones).all()


def test_induced_action_is_generalized_permutation(gl2_f3):
    G, B = gl2_f3
    chi = TorusChar((1, 0), 2)
    ind = _induced(G, chi)
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
    ratio = chi1.inverse() * chi2
    for s, g in enumerate(B.generators):
        t, _ = tn_factor(g)
        assert M.gen_action[s][0, 0] == evaluate(ratio, t).code


def test_hom_module_act_from_its_factors(gl2_f3):
    # both Hom modules act at every element by kron(rho2(g), rho1(g^{-1})^T)
    # of their factors at f = 1: the F_p-Hom along its generator words, and
    # the F_q-Hom from its factors' blocks, with no table
    G, B = gl2_f3
    M1, M2 = _induced(G, TorusChar((1, 0), 2)), _induced(G, TorusChar((0, 1), 2))
    want = [np.kron(M2.act(g), M1.act(G.inv_id(g)).T) % 3 for g in range(G.order)]
    M = hom_module(M1, M2)
    assert all((M.act(g) == a).all() for g, a in enumerate(want))
    fq = fq_hom_module(M1, M2)
    assert (fq.at(np.arange(G.order)) == np.array(want)).all()
    assert all(m._all is None for m in (fq, M1, M2))


@pytest.mark.parametrize("args,group", [((3, 1, 3), "B"), ((5, 1, 2), "G")], ids=str)
def test_generator_action_is_its_stored_matrix(args, group):
    # a generator's action is its stored matrix, not a product
    # with the identity, and every longer tree path is still the product of
    # its generator word
    inst = get_instance(*args)
    H = inst.B if group == "B" else inst.G
    chi = inst.chars[1]
    mods = [induced_module(inst.bruhat_cosets, H, chi)]
    if group == "B":
        mods.append(char_module(H, chi))
    for M in mods:
        for s, g in enumerate(H.generators):
            a = M.act(H.element_id(g))
            assert a is M.gen_action[s]
        for i in range(H.order):
            want = np.eye(M.dim, dtype=np.int64)
            for s in word_for(H, i):
                want = want @ M.gen_action[s] % M.p
            assert (M.act(i) == want).all()


def _hom_pairs(p):
    """Every pair of characters at GL_2(F_3); at GL_2(F_5) the first three
    pairs whose central characters agree (M^Z != 0) and three whose do not."""
    chars = all_chars(2, p - 1)
    pairs = [(c1, c2) for c1 in chars for c2 in chars]
    if p == 3:
        return pairs
    fixed = [(c1, c2) for c1, c2 in pairs if sum(c1.exps) % 4 == sum(c2.exps) % 4]
    free = [(c1, c2) for c1, c2 in pairs if sum(c1.exps) % 4 != sum(c2.exps) % 4]
    return fixed[1:4] + free[:3]


@pytest.mark.parametrize("p", [3, 5])
def test_hom_batch_reader_equals_the_tree_table(p):
    # the F_q-Hom of two induced modules at f = 1 reads at and apply from
    # its factors' blocks; against the table a module with the same
    # generators fills along the BFS tree: at() on shuffled ids with
    # repeats that cover every element, and apply() against the table times
    # random vectors.  Its generators are kron(rho2(s), rho1(s^{-1})^T) of
    # the factors' tables, hom_module's, and no module builds a table
    fld = make_field(p, 1)
    G = build_gl(fld, 2)
    cosets = _cosets(fld, 2)
    ind = {chi: induced_module(cosets, G, chi) for chi in all_chars(2, p - 1)}
    rng = np.random.default_rng(p)
    ids = np.concatenate([rng.permutation(G.order), rng.integers(0, G.order, G.order // 2)])
    for chi1, chi2 in _hom_pairs(p):
        M = fq_hom_module(ind[chi1], ind[chi2])
        rho1, rho2 = (FpModule._build_all(ind[chi]).astype(np.int64) for chi in (chi1, chi2))
        kron = hom_module(ind[chi1], ind[chi2])
        for s, g in enumerate(G.generators):
            x = G.element_id(g)
            assert (M.gen_action[s] == np.kron(rho2[x], rho1[G.inv_id(x)].T) % p).all()
            assert (M.gen_action[s] == kron.gen_action[s]).all()
        table = FpModule(G, M.gen_action).act_all()
        got = M.at(ids)
        assert got.dtype == np.uint8 and (got == table[ids]).all()
        vs = rng.integers(0, p, size=(2, M.dim))
        for v in vs:
            want = np.einsum("kij,j->ki", table.astype(np.int64), v) % p
            assert M.apply(ids, v).shape == (len(ids), M.dim)
            assert (M.apply(ids, v) % p == want[ids]).all()
            assert (M.apply(slice(None), v) % p == want).all()
        # a stack of vectors gives each one's products, stacked on axis 1
        stacked = M.apply(ids, vs)
        assert stacked.shape == (len(ids), len(vs), M.dim)
        assert all((stacked[:, j] == M.apply(ids, v)).all() for j, v in enumerate(vs))
        assert all(m._all is None for m in (M, ind[chi1], ind[chi2]))


def test_table_batch_reader_equals_the_table(gl2_f3):
    # at and apply read the module's action table
    G, B = gl2_f3
    rng = np.random.default_rng(0)
    for M in (char_module(B, TorusChar((1, 0), 2)), _induced(G, TorusChar((0, 1), 2))):
        table = M.act_all()
        ids = rng.integers(0, M.group.order, 2 * M.group.order)
        act = M
        assert (act.at(ids) == table[ids]).all()
        v = rng.integers(0, M.p, M.dim)
        want = table.astype(np.int64) @ v
        assert act.apply(ids, v).shape == (len(ids), M.dim)
        assert (act.apply(ids, v) == want[ids]).all()
        assert (act.apply(slice(None), v) == want).all()
        # a stack of vectors gives each one's products, stacked on axis 1
        vs = rng.integers(0, M.p, (3, M.dim))
        stacked = act.apply(ids, vs)
        assert stacked.shape == (len(ids), len(vs), M.dim)
        assert all((stacked[:, j] == table.astype(np.int64)[ids] @ v).all()
                   for j, v in enumerate(vs))


def test_endomorphisms_of_induced(gl2_f3):
    # trivial character: two-dimensional endomorphism algebra; a regular
    # character: one-dimensional (computed by direct linear solve)
    G, B = gl2_f3
    ind0 = _induced(G, trivial_char(2, 2))
    assert fixed_points_dim(hom_module(ind0, ind0)) == 2
    ind10 = _induced(G, TorusChar((1, 0), 2))
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
    ind = _induced(G, chi)
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
    ind = _induced(G, trivial_char(2, 2))
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
    # a left module of one F_q-dimension: the monomial Hom is the scalar
    # twist of the reference, which works on plain modules, and refuses a
    # larger left module; the monomial Hom refuses any module that is not
    # monomial, restricted or hand-built
    G, B = build_gl(F9, 2), build_borel(F9, 2)
    chi = TorusChar((1, 7), 8)
    ind = _induced(G, chi)
    M1 = char_module(B, TorusChar((2, 5), 8))
    fast = fq_hom_module(M1, induced_module(_cosets(F9, 2), B, chi))
    twist = brute_fq_hom(M1, restrict(ind, B))
    assert fast.dim == twist.dim == ind.dim and fast.fq_form and fast.k == ind.k
    assert all((a == b).all() for a, b in zip(fast.gen_action, twist.gen_action))
    _check_homomorphism_everywhere(fast)
    big = FpModule(B, [np.kron(np.eye(2, dtype=np.int64), a) for a in M1.gen_action],
                   fq_form=True)
    with pytest.raises(ModuleError, match="one F_q-dimension"):
        brute_fq_hom(big, restrict(ind, B))
    for left, right in [(big, fast), (M1, restrict(ind, B))]:
        with pytest.raises(ModuleError, match="two monomial modules"):
            fq_hom_module(left, right)


@pytest.mark.parametrize("args", [(3, 1, 2), (3, 2, 2), (3, 1, 3), (5, 1, 2)], ids=str)
def test_fq_hom_of_a_character_equals_the_scalar_twist(args):
    # Hom_{F_q}(F_q[chi1], Res_B Ind chi2) as a monomial module on 1 x k
    # blocks against the reference's twist of Ind chi2 by chi1^{-1},
    # generator by generator, on a seeded sample of pairs and the pair of
    # trivial characters
    inst = get_instance(*args)
    chars, rng = inst.chars, np.random.default_rng(sum(args))
    pairs = [(chars[0], chars[0])] + [(chars[i], chars[j]) for i, j in
                                      rng.integers(0, len(chars), size=(6, 2))]
    for chi1, chi2 in pairs:
        left = char_module(inst.B, chi1)
        right = induced_module(inst.bruhat_cosets, inst.B, chi2)
        M = fq_hom_module(left, right)
        ref = brute_fq_hom(left, right)
        assert (M.dim, M.k) == (ref.dim, right.k)
        assert all((a == b).all() for a, b in zip(M.gen_action, ref.gen_action))


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
    reps, coset_of = brute_coset_data(G, B)
    assert len(reps) == G.order // B.order
    import collections

    counts = collections.Counter(int(c) for c in coset_of)
    assert all(v == B.order for v in counts.values())


@pytest.mark.parametrize("p", [3, 5])
def test_hom_table_from_factors_equals_tree_table(p):
    # GL_2(F_p): the table of an F_p-Hom module, the reference's kron of its
    # factors' tables, and the F_q-Hom of the same induced factors, written
    # from their blocks, against the table a hand-built module with the
    # same generators fills along the BFS tree
    from borelext.linalg import is_invertible_mod

    fld = make_field(p, 1)
    G, B = build_gl(fld, 2), build_borel(fld, 2)
    chars = all_chars(2, p - 1)
    cosets = _cosets(fld, 2)
    ind1, ind2 = (induced_module(cosets, G, chars[k]) for k in (1, len(chars) - 2))
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
        assert (brute_kron_hom(M1, M2).act_all() == table).all()
        if M1 is not det1:
            assert (fq_hom_module(M1, M2).act_all() == table).all()
    derived = [ind1, ind2, restrict(ind1, B), fq_hom_module(ind1, ind2),
               fq_hom_module(char_module(B, chars[1]), induced_module(cosets, B, chars[-2])),
               brute_fq_hom(char_module(B, chars[1]), restrict(ind2, B))]
    derived += [char_module(B, chi) for chi in chars]
    for M in derived:
        assert all(is_invertible_mod(a, p) for a in M.gen_action)
    singular = [np.eye(2, dtype=np.int64) for _ in G.generators]
    singular[0] = np.array([[1, 1], [1, 1]])
    with pytest.raises(ModuleError, match="singular"):
        FpModule(G, singular)


def _coset_change_of_basis(inst, chi, coset_data=None):
    """P with P · (brute Ind chi)(g) = (Bruhat Ind chi)(g) · P: the Bruhat
    representative r of a coset goes to the enumerated representative r0
    of the same coset, scaled by chi(t) where r = b r0 and t is b's torus
    part.  Returns P and the brute module."""
    G, B, fld, f = inst.G, inst.B, inst.field, inst.f
    rep_ids, coset_of = coset_data or brute_coset_data(G, B)
    old_of = [int(coset_of[G.element_id(r)]) for r in inst.bruhat_cosets.reps]
    old = brute_induced_module(G, B, chi, (rep_ids, coset_of))
    P = np.zeros((old.dim, old.dim), dtype=np.int64)
    for i, (r, k) in enumerate(zip(inst.bruhat_cosets.reps, old_of)):
        t = tn_factor(r * G.elements[rep_ids[k]].inv())[0]
        P[i * f : (i + 1) * f, k * f : (k + 1) * f] = fld.mult_matrix(evaluate(chi, t).code)
    return P, old


@pytest.mark.parametrize("args", [(3, 1, 2), (5, 1, 2), (3, 2, 2), (3, 1, 3)], ids=str)
def test_bruhat_module_is_the_restricted_induced_module(args):
    # the modules from the Bruhat cosets, over B and over G, differ from the
    # build that walks G's table by a monomial change of basis P
    inst = get_instance(*args)
    G, B, p = inst.G, inst.B, inst.p
    cosets = inst.bruhat_cosets
    rep_ids, coset_of = coset_data = brute_coset_data(G, B)
    assert len(cosets.reps) == len(rep_ids) == G.order // B.order
    old_of = [int(coset_of[G.element_id(r)]) for r in cosets.reps]
    assert sorted(old_of) == list(range(len(rep_ids)))
    for chi in inst.chars:
        new_b, new_g = induced_module(cosets, B, chi), inst.induced(chi)
        assert new_b.group is B and new_b.fq_form and new_b.chi == chi
        assert new_g.group is G and new_g.fq_form and new_g.chi == chi
        P, old = _coset_change_of_basis(inst, chi, coset_data)
        for old_m, new_m in ((restrict(old, B), new_b), (old, new_g)):
            for a_old, a_new in zip(old_m.gen_action, new_m.gen_action):
                assert not ((P @ a_old - a_new @ P) % p).any()


def _assert_table_is_the_tree_table(M, cold, rng):
    """M's table, act, at and apply against the table FpModule fills along
    the BFS tree with products; cold is the same module with no table, whose
    act multiplies generator words."""
    ref = FpModule._build_all(M)
    ids = np.concatenate([rng.permutation(M.group.order),
                          rng.integers(0, M.group.order, M.group.order // 2 + 1)])
    assert all((cold.act(x) == ref[x]).all() for x in rng.permutation(M.group.order)[:64])
    table = M.act_all()
    assert table.dtype == ref.dtype == np.uint8 and table.shape == ref.shape
    assert table.tobytes() == ref.tobytes()
    act = M
    got = act.at(ids)
    assert got.dtype == np.uint8 and (got == ref[ids]).all()
    v = rng.integers(0, M.p, M.dim)
    want = ref.astype(np.int64) @ v
    assert (act.apply(ids, v) == want[ids]).all()
    assert (act.apply(slice(None), v) == want).all()
    return table


def _monomial_case(kind):
    """A monomial module of the named kind, a fresh one per call."""
    if kind == "char-B-f2":
        inst = get_instance(3, 2, 2)
        return char_module(inst.B, inst.char((1, 7)))
    if kind.startswith("ind-"):
        inst = get_instance(*((5, 1, 2) if kind == "ind-G-f1" else (3, 2, 2)))
        H = {"G": inst.G, "T": inst.T, "N": inst.N}[kind[4]]
        return induced_module(inst.bruhat_cosets, H, inst.char((2, 1)))
    inst = get_instance(5, 1, 2)  # hom-G-f1
    return fq_hom_module(*(induced_module(inst.bruhat_cosets, inst.G, inst.char(e))
                           for e in ((1, 2), (3, 0))))


@pytest.mark.parametrize("kind", ["char-B-f2", "ind-G-f1", "ind-G-f2", "ind-T-f2", "ind-N-f2",
                                  "hom-G-f1"])
def test_monomial_reader_equals_the_tree_table(kind):
    # at and apply, read from the skeleton (and for a Hom from its factors'),
    # against the table of products FpModule fills along the BFS tree: at
    # and apply on shuffled ids with repeats that cover every element and
    # on every element, one vector and a stack of three; no table is built.
    # The Hom at f = 1 is also hom_module's kron, element by element
    M, rng = _monomial_case(kind), np.random.default_rng(len(kind))
    H = M.group
    ref = FpModule._build_all(M)
    if kind == "hom-G-f1":
        M1, M2 = M.factors
        assert ref.tobytes() == FpModule._build_all(hom_module(M1, M2)).tobytes()
    ids = np.concatenate([rng.permutation(H.order), rng.integers(0, H.order, H.order // 2 + 1)])
    got = M.at(ids)
    assert got.dtype == np.uint8 and (got == ref[ids]).all()
    assert M.act_all().tobytes() == ref.tobytes()
    ref = ref.astype(np.int64)
    v, vs = rng.integers(0, M.p, M.dim), rng.integers(0, M.p, (3, M.dim))
    for sel in (ids, slice(None)):
        assert (M.apply(sel, v) == ref[sel] @ v).all()
        stacked = M.apply(sel, vs)
        assert stacked.shape == (len(ref[sel]), 3, M.dim)
        assert (stacked == np.einsum("kij,hj->khi", ref[sel], vs)).all()
    assert all(m._all is None for m in (M,) + (M.factors or ()))


def test_fq_hom_at_f2_conjugates_the_f_q_linear_maps():
    # Hom_{F_q}(Ind chi1, Ind chi2) over GL_2(F_9), d = 200, with no table
    # of its own: its coordinates are the F_q entries phi[j, i] of a map
    # from block i to block j, so x acts by phi -> rho2(x) phi rho1(x^{-1})
    # on the F_p matrix of phi, whose block (j, i) is multiplication by
    # phi[j, i], read back from the first column of each block.  at and
    # apply against that conjugation by the factors' tree tables, on a B3
    # pair (both central characters 1)
    inst = get_instance(3, 2, 2)
    fld, G, p = inst.field, inst.G, inst.p
    M1, M2 = inst.induced(inst.char((0, 0))), inst.induced(inst.char((1, 7)))
    M = fq_hom_module(M1, M2)
    (k1, k2), f = (M1.k, M2.k), fld.f
    assert (M.k, M.dim) == (k1 * k2, 200)
    rho1, rho2 = (FpModule._build_all(m).astype(np.int64) for m in (M1, M2))
    basis = np.stack([fld.mult_matrix(fld.coeffs_code(e)) for e in np.eye(f, dtype=int).tolist()])

    def conj(x, vs):  # vs: (h, d) coordinates; the images at each x, (len(x), h, d)
        phi = np.einsum("hjit,tab->hjaib", vs.reshape(-1, k2, k1, f), basis)
        phi = phi.reshape(len(vs), k2 * f, k1 * f)
        out = rho2[x][:, None] @ phi[None] @ rho1[G.inverse_ids()[x]][:, None] % p
        out = out.reshape(len(x), len(vs), k2, f, k1, f)[..., 0]
        return out.transpose(0, 1, 2, 4, 3).reshape(len(x), len(vs), -1)

    rng = np.random.default_rng(9)
    ids = np.concatenate([rng.permutation(G.order)[:200], rng.integers(0, G.order, 100)])
    vs = rng.integers(0, p, (3, M.dim))
    for sel in (ids, np.arange(G.order)):
        want = conj(sel, vs)
        assert (M.apply(sel, vs[0]) % p == want[:, 0]).all()
        assert (M.apply(sel, vs) % p == want).all()
    few = ids[:12]
    assert (M.at(few).astype(np.int64).transpose(0, 2, 1) == conj(few, np.eye(M.dim, dtype=np.int64))).all()
    assert all(m._all is None for m in (M, M1, M2))


@pytest.mark.parametrize("args", [(3, 1, 2), (5, 1, 2), (3, 2, 2), (3, 1, 3)], ids=str)
def test_character_module_tables_equal_the_tree_tables(args):
    # over B, T and every B∩B^w: the table written from the skeleton, byte
    # for byte, against the products along the tree and against chi of each
    # element's diagonal; restriction from B gives the same bytes
    inst = get_instance(*args)
    fld, rng = inst.field, np.random.default_rng(sum(args))
    groups = [inst.B, inst.T] + [inst.bw(w) for w in inst.weyls[1:]]
    for chi in (inst.chars[1], inst.chars[-1]):
        for H in groups:
            table = _assert_table_is_the_tree_table(char_module(H, chi), char_module(H, chi), rng)
            for x, m in enumerate(H.elements):
                code = fld.pow_code(fld.generator_code, int(np.dot(
                    chi.exps, [fld.dlog_code(c) for c in m.diagonal_codes()])) % inst.qm1)
                assert (table[x] == fld.mult_matrix(code)).all()
            if H is not inst.B:
                res = restrict(char_module(inst.B, chi), H)
                assert res.label.startswith("res(") and res.fq_form
                assert all((a == b).all() for a, b in zip(res.gen_action,
                                                          char_module(H, chi).gen_action))
                assert res.act_all().tobytes() == table.tobytes()


@pytest.mark.parametrize("args", [(3, 1, 2), (5, 1, 2), (3, 2, 2), (3, 1, 3)], ids=str)
def test_induced_module_tables_equal_the_tree_tables(args):
    # Ind chi over G (n = 2), B and N, and restrictions from G to B and from
    # B to N, against the products along the tree; the G- and B-level tables
    # also against the module built from G's element table, through the
    # monomial change of basis between the two coset enumerations
    inst = get_instance(*args)
    cosets, p, rng = inst.bruhat_cosets, inst.p, np.random.default_rng(sum(args))
    chi = inst.chars[len(inst.chars) // 2 + 1]
    P, old = _coset_change_of_basis(inst, chi)
    on_b = induced_module(cosets, inst.B, chi)
    tables = {"B": _assert_table_is_the_tree_table(on_b, induced_module(cosets, inst.B, chi), rng)}
    old_b = restrict(old, inst.B).act_all().astype(np.int64)
    assert not ((P @ old_b - tables["B"].astype(np.int64) @ P) % p).any()
    res_n = restrict(on_b, inst.N)
    tables["N"] = _assert_table_is_the_tree_table(
        induced_module(cosets, inst.N, chi), induced_module(cosets, inst.N, chi), rng)
    cold_b = induced_module(cosets, inst.B, chi)
    assert all((a == cold_b.act(inst.B.element_id(g))).all()
               for a, g in zip(res_n.gen_action, inst.N.generators))
    assert _assert_table_is_the_tree_table(res_n, restrict(on_b, inst.N), rng).tobytes() \
        == tables["N"].tobytes()
    if inst.n == 2:
        on_g = inst.induced(chi)
        table = _assert_table_is_the_tree_table(on_g, induced_module(cosets, inst.G, chi), rng)
        old_g = old.act_all().astype(np.int64)
        assert not ((P @ old_g - table.astype(np.int64) @ P) % p).any()
        assert restrict(on_g, inst.B).act_all().tobytes() == tables["B"].tobytes()


def test_skeleton_is_built_on_the_first_table_and_shared_by_every_chi(F9):
    B = build_borel(F9, 2)
    mods = [char_module(B, chi) for chi in all_chars(2, 8)[:4]]
    assert B not in gmodule._SKELETONS  # a module alone builds no skeleton
    first = mods[0].act_all()
    assert len(gmodule._SKELETONS[B]) == 1
    for M in mods[1:]:
        M.act_all()
    assert len(gmodule._SKELETONS[B]) == 1
    assert first.tobytes() == FpModule._build_all(mods[0]).tobytes()


def test_skeleton_cache_drops_a_group_no_longer_referenced(F3):
    B1, B2 = build_borel(F3, 2), build_borel(F3, 2)
    chi = TorusChar((1, 0), 2)
    assert (char_module(B1, chi).act_all() == char_module(B2, chi).act_all()).all()
    assert B1 in gmodule._SKELETONS and B2 in gmodule._SKELETONS
    gc.collect()  # free groups earlier tests left dead, so only B2 can fall below
    kept = len(gmodule._SKELETONS)
    gone = weakref.ref(B2)
    del B2
    gc.collect()
    assert gone() is None
    assert len(gmodule._SKELETONS) == kept - 1 and B1 in gmodule._SKELETONS


def test_shapiro_route_builds_no_skeleton_of_b():
    # the route reads Ind chi2 over N and over T off the coset table, so B
    # is never built; the one per-element table is the N-module's, so N gets
    # a skeleton
    for args in ((3, 1, 3), (5, 1, 2)):
        inst = V.Instance(*args)
        V.verify_thm1(inst)
        assert "B" not in vars(inst)
        assert inst.N in gmodule._SKELETONS
