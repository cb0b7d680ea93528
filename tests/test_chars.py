"""Character lattice: evaluation, twists, matching, eigencharacters."""

import pytest

from borelext.chars import (
    TorusChar,
    all_chars,
    eigencharacters,
    evaluate,
    frobenius_twist,
    match_simple_root_twist,
    match_theorem1_condition,
    simple_root,
    trivial_char,
    weyl_twist,
)
from borelext.field import make_field
from borelext.gmodule import abelian_quotient_with_torus_action
from borelext.group import build_torus, build_unipotent, diag_mat, weyl_elements

from _brute import brute_match_simple_root_twist, brute_match_theorem1_condition


def test_simple_roots():
    assert simple_root(1, 2, 2).exps == (1, 1)
    assert simple_root(1, 2, 4).exps == (1, 3)
    assert simple_root(2, 3, 2).exps == (0, 1, 1)
    with pytest.raises(ValueError):
        simple_root(2, 2, 4)


def test_product_of_characters_mod_different_q_is_rejected():
    assert (TorusChar((1, 2), 4) * TorusChar((3, 3), 4)).exps == (0, 1)
    with pytest.raises(ValueError):
        TorusChar((1, 2), 4) * TorusChar((1, 2), 8)


def test_evaluate_examples():
    F3 = make_field(3, 1)
    t = diag_mat(F3, (2, 2))
    assert evaluate(TorusChar((1, 1), 2), t) == 1  # 4 mod 3
    assert evaluate(trivial_char(2, 2), t) == 1
    F9 = make_field(3, 2)
    g = F9.generator_code
    t9 = diag_mat(F9, (g, g))
    assert evaluate(TorusChar((1, 7), 8), t9) == 1  # (x+1)^8 = 1
    assert evaluate(TorusChar((1, 0), 8), t9) == g
    assert isinstance(evaluate(TorusChar((1, 0), 8), t9), int)


def test_evaluate_rejects_nondiagonal():
    F3 = make_field(3, 1)
    from borelext.group import transvection

    with pytest.raises(ValueError):
        evaluate(trivial_char(2, 2), transvection(F3, 2, 1, 2, 1))


def test_evaluate_rejects_a_character_over_another_field():
    # F_9's characters are exponents mod 8, and a diagonal matrix over F_3
    # has values in a field with q - 1 = 2; likewise F_5's (mod 4) over F_9
    t = diag_mat(make_field(3, 1), (2, 1))
    with pytest.raises(ValueError, match="different fields"):
        evaluate(TorusChar((1, 0), 8), t)
    with pytest.raises(ValueError, match="different fields"):
        evaluate(TorusChar((1, 0), 4), diag_mat(make_field(3, 2), (1, 1)))


def test_evaluate_is_homomorphism_on_torus():
    F5 = make_field(5, 1)
    T = build_torus(F5, 2)
    for chi in all_chars(2, 4):
        for a in T.elements:
            for b in T.elements:
                assert evaluate(chi, a * b) == F5.mul_code(evaluate(chi, a), evaluate(chi, b))


def test_simple_root_matches_conjugation_action():
    # t e(c) t^{-1} scales the root space by exactly alpha(t)
    F5 = make_field(5, 1)
    T = build_torus(F5, 2)
    N = build_unipotent(F5, 2)
    alpha = simple_root(1, 2, 4)
    for t in T.elements:
        ti = t.inv()
        lam = evaluate(alpha, t)
        for u in N.elements:
            conj = (t * u) * ti
            assert conj.codes[1] == F5.mul_code(lam, u.codes[1])


def test_frobenius_twist():
    chi = TorusChar((1, 7), 8)
    assert frobenius_twist(chi, 0) == chi
    assert frobenius_twist(chi, 1).exps == (3, 5)
    assert frobenius_twist(frobenius_twist(chi, 1), 1) == chi


def test_weyl_twist_convention():
    # chi^w(t) = chi(w t w^{-1}), checked against evaluation
    F5 = make_field(5, 1)
    T = build_torus(F5, 2)
    ws = weyl_elements(F5, 2)
    swap = ws[1]
    assert weyl_twist(TorusChar((1, 2), 4), swap).exps == (2, 1)
    for chi in all_chars(2, 4):
        tw = weyl_twist(chi, swap)
        for t in T.elements:
            conj = (swap.rep * t) * swap.rep.inv()
            assert evaluate(tw, t) == evaluate(chi, conj)


def test_match_simple_root_twist():
    assert match_simple_root_twist(TorusChar((1, 1), 2)).root_index == 1
    assert match_simple_root_twist(trivial_char(2, 2)) is None
    w = match_simple_root_twist(TorusChar((3, 5), 8))
    assert (w.root_index, w.frob_power) == (1, 1)
    assert w.holds_for(TorusChar((3, 5), 8))


def test_match_round_trip():
    for (n, qm1, f) in [(2, 2, 1), (3, 2, 1), (2, 8, 2)]:
        for i in range(1, n):
            for k in range(f):
                chi = frobenius_twist(simple_root(i, n, qm1), k)
                got = match_simple_root_twist(chi)
                assert got is not None
                assert frobenius_twist(simple_root(got.root_index, n, qm1), got.frob_power) == chi


def test_match_theorem1_condition():
    F3 = make_field(3, 1)
    ws = weyl_elements(F3, 2)
    got = match_theorem1_condition(TorusChar((0, 0), 2), TorusChar((1, 1), 2), ws)
    assert got is not None and got.weyl.is_identity() and (got.root_index, got.frob_power) == (1, 0)
    F5 = make_field(5, 1)
    ws5 = weyl_elements(F5, 2)
    got5 = match_theorem1_condition(TorusChar((0, 0), 4), TorusChar((3, 1), 4), ws5)
    assert got5 is not None and got5.weyl.perm == (2, 1)
    assert got5.holds_for_pair(TorusChar((0, 0), 4), TorusChar((3, 1), 4))
    # equal regular characters never differ by a root
    assert match_theorem1_condition(TorusChar((1, 0), 4), TorusChar((1, 0), 4), ws5) is None


@pytest.mark.parametrize("p,f,n", [(3, 1, 3), (5, 1, 2), (3, 2, 2)],
                         ids=["3-1-3", "5-1-2", "3-2-2"])
def test_matchers_agree_with_the_torus_char_scan(p, f, n):
    # the exponent-tuple matchers return the same first witness, Weyl
    # element included, as the scans that build a TorusChar per (k, i, w)
    fld = make_field(p, f)
    ws = weyl_elements(fld, n)
    chars = all_chars(n, fld.q - 1)
    hits = 0
    for chi1 in chars:
        assert match_simple_root_twist(chi1) == brute_match_simple_root_twist(chi1)
        for chi2 in chars:
            got = match_theorem1_condition(chi1, chi2, ws)
            want = brute_match_theorem1_condition(chi1, chi2, ws)
            assert got == want
            if got is not None:
                assert got.weyl is want.weyl
                hits += 1
    assert 0 < hits < len(chars) ** 2


def test_eigencharacters_gl2():
    F3 = make_field(3, 1)
    T = build_torus(F3, 2)
    N = build_unipotent(F3, 2)
    Q = abelian_quotient_with_torus_action(N, T)
    assert [(b.exps, m) for b, m in eigencharacters(Q, F3)] == [((1, 1), 1)]


def test_eigencharacters_gl2_f9_frobenius_orbit():
    F9 = make_field(3, 2)
    T = build_torus(F9, 2)
    N = build_unipotent(F9, 2)
    Q = abelian_quotient_with_torus_action(N, T)
    assert Q.dim == 2
    got = eigencharacters(Q, F9)
    assert [(b.exps, m) for b, m in got] == [((1, 7), 1), ((3, 5), 1)]
    assert sum(m for _, m in got) == Q.dim


def test_eigencharacters_gl3():
    F3 = make_field(3, 1)
    T = build_torus(F3, 3)
    N = build_unipotent(F3, 3)
    Q = abelian_quotient_with_torus_action(N, T)
    assert Q.dim == 2
    got = {b.exps: m for b, m in eigencharacters(Q, F3)}
    assert got == {(1, 1, 0): 1, (0, 1, 1): 1}


def test_eigencharacters_trivial_module():
    from borelext.gmodule import trivial_module

    F3 = make_field(3, 1)
    T = build_torus(F3, 2)
    M = trivial_module(T, 3)
    got = eigencharacters(M, F3)
    assert got == [(trivial_char(2, 2), 3)]


def test_eigencharacters_rejects_bad_order():
    from borelext.gmodule import trivial_module

    F3 = make_field(3, 1)
    N = build_unipotent(F3, 2)  # order 3 = p, not semisimple
    with pytest.raises(ValueError):
        eigencharacters(trivial_module(N), F3)
