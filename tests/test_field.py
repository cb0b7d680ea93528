"""Field arithmetic on codes: construction choices, discrete logs and
digit sums against coefficient vectors, Frobenius, dlog."""

import itertools

import numpy as np
import pytest

from borelext import field
from borelext.field import FieldCtx, FieldError, make_field

from _brute import add_raw, poly_mul_mod, poly_order


def test_rejects_even_characteristic():
    with pytest.raises(FieldError):
        make_field(2, 1)


def test_rejects_composite_p():
    with pytest.raises(FieldError):
        make_field(9, 1)


def test_rejects_oversized_q(monkeypatch):
    with pytest.raises(FieldError, match="exceeds the table cap"):
        make_field(3, 11)  # 3^11 = 177,147 > DEFAULT_MAX_Q
    # the cap is read at call time
    monkeypatch.setattr(field, "DEFAULT_MAX_Q", 8)
    with pytest.raises(FieldError, match="exceeds the table cap 8"):
        make_field(3, 2)


def test_prime_field_degenerate_modulus():
    F3 = make_field(3, 1)
    assert F3.modulus == (0, 1)
    assert F3.generator_code == 2


def test_f5_generator_is_two():
    F5 = make_field(5, 1)
    assert F5.generator_code == 2
    assert F5.pow_code(2, 4) == 1
    assert poly_order([2], F5.modulus, 5, 4) == 4


def test_f9_modulus_and_generator():
    # x^2 + 1 is irreducible over F_3 (-1 is not a square), and no smaller
    # monic tail works; the first element of full order is 1 + x
    F9 = make_field(3, 2)
    assert F9.modulus == (1, 0, 1)
    assert F9.code_coeffs(F9.generator_code) == (1, 1)
    assert poly_order([1, 1], [1, 0, 1], 3, 8) == 8
    # lexicographically earlier candidates all have smaller order
    for coeffs in [(0, 1), (0, 2), (1, 0)]:
        assert poly_order(list(coeffs), [1, 0, 1], 3, 8) < 8


def test_f25_modulus_and_generator():
    # x^2 + 1 is reducible over F_5 (2^2 = -1), so the first irreducible
    # tail is x^2 + x + 1
    F25 = make_field(5, 2)
    assert F25.modulus == (1, 1, 1)
    assert poly_order(list(F25.code_coeffs(F25.generator_code)), [1, 1, 1], 5, 24) == 24


def test_f9_squaring_example():
    F9 = make_field(3, 2)
    a = F9.coeffs_code((1, 1))
    assert F9.code_coeffs(F9.mul_code(a, a)) == (0, 2)  # (x+1)^2 = 2x mod x^2+1


def test_mul_matches_naive_polynomials():
    F9 = make_field(3, 2)
    for a in range(9):
        for b in range(9):
            got = F9.code_coeffs(F9.mul_code(a, b))
            want = tuple(poly_mul_mod(list(F9.code_coeffs(a)), list(F9.code_coeffs(b)),
                                      list(F9.modulus), 3))
            assert got == want


def test_field_axioms_exhaustive_small():
    for (p, f) in [(3, 1), (3, 2), (5, 1)]:
        F = make_field(p, f)
        els = list(range(F.q))
        for a in els:
            for b in els:
                assert F.mul_code(a, b) == F.mul_code(b, a)
                assert F.add_code(a, b) == F.add_code(b, a)
        for a in els:
            for b in els:
                for c in els[: min(F.q, 9)]:
                    left = F.mul_code(a, F.add_code(b, c))
                    right = F.add_code(F.mul_code(a, b), F.mul_code(a, c))
                    assert left == right
                    assert F.mul_code(F.mul_code(a, b), c) == F.mul_code(a, F.mul_code(b, c))


def test_inverses():
    F9 = make_field(3, 2)
    for a in range(1, 9):
        assert F9.mul_code(a, F9.inv_code(a)) == 1
    with pytest.raises(FieldError):
        F9.inv_code(0)


def test_frobenius_is_additive_multiplicative_automorphism():
    # Frobenius is a -> a^3 on codes; it has order 2 on F_9
    F9 = make_field(3, 2)

    def frob(a):
        return F9.pow_code(a, 3)

    x = F9.coeffs_code((0, 1))
    assert F9.code_coeffs(frob(x)) == (0, 2)  # x^3 = 2x mod x^2+1
    for a in range(F9.q):
        assert F9.pow_code(a, 1) == a
        assert frob(frob(a)) == a
        for b in range(F9.q):
            assert frob(F9.mul_code(a, b)) == F9.mul_code(frob(a), frob(b))
            assert frob(F9.add_code(a, b)) == F9.add_code(frob(a), frob(b))


def test_dlog_roundtrip_and_examples():
    F9 = make_field(3, 2)
    assert F9.dlog_code(1) == 0
    assert F9.dlog_code(F9.coeffs_code((2, 0))) == 4
    for e in range(8):
        a = F9.pow_code(F9.generator_code, e)
        assert F9.dlog_code(a) == e
    with pytest.raises(FieldError):
        F9.dlog_code(0)
    F5 = make_field(5, 1)
    assert F5.dlog_code(F5.coeffs_code((4,))) == 2


def test_dlog_is_bijection():
    for (p, f) in [(3, 2), (5, 2), (7, 1)]:
        F = make_field(p, f)
        seen = {F.dlog_code(a) for a in range(1, F.q)}
        assert seen == set(range(F.q - 1))


def test_modulus_is_lex_smallest_irreducible():
    F27 = make_field(3, 3)
    # check minimality independently: every lex-earlier monic cubic has a factor
    tails = list(itertools.product(range(3), repeat=3))
    idx = tails.index(F27.modulus[:-1])
    for tail in tails[:idx]:
        poly = list(tail) + [1]
        has_root = any(
            sum(c * pow(a, i, 3) for i, c in enumerate(poly)) % 3 == 0 for a in range(3)
        )
        assert has_root  # degree 3: reducible iff it has a root


def test_mult_matrix_columns():
    F9 = make_field(3, 2)
    m = F9.mult_matrix(F9.coeffs_code((1, 1)))  # multiplication by x+1
    # (x+1)*1 = 1+x, (x+1)*x = x^2+x = 2+x
    assert m[:, 0].tolist() == [1, 1]
    assert m[:, 1].tolist() == [2, 1]


def test_pow_negative_exponent():
    F9 = make_field(3, 2)
    a = F9.coeffs_code((1, 2))
    assert F9.mul_code(F9.pow_code(a, -1), a) == 1
    assert F9.pow_code(a, 0) == 1


@pytest.mark.parametrize("p,f", [(3, 1), (3, 2), (5, 2), (7, 1)])
def test_log_and_power_arrays_multiply_every_pair(p, f):
    # the gather that every product reads, with 0 at log 2(q - 1), against
    # the product of coefficient vectors that field construction uses
    F = make_field(p, f)
    for a, b in itertools.product(range(F.q), repeat=2):
        assert F._pow0[F._log0[a] + F._log0[b]] == F.mul_code(a, b) == F._mul_raw(a, b)
    grid = np.arange(F.q)
    want = [[F._mul_raw(a, b) for b in range(F.q)] for a in range(F.q)]
    assert F.mul_array(grid[:, None], grid).tolist() == want
    assert [F._mul_raw(a, b) for a, b in zip(range(1, F.q), F.inv_array(grid[1:]).tolist())] \
        == [1] * (F.q - 1)


@pytest.mark.parametrize("p,f", [(3, 1), (3, 2), (5, 2), (3, 3)])
def test_digit_sums_add_every_pair(p, f):
    F = make_field(p, f)
    want = [[add_raw(F, a, b) for b in range(F.q)] for a in range(F.q)]
    assert [[F.add_code(a, b) for b in range(F.q)] for a in range(F.q)] == want
    grid = np.arange(F.q)
    assert F.sum_arrays((grid[:, None], grid)).tolist() == want
    for a, b in itertools.product(range(F.q), repeat=2):
        assert add_raw(F, F.sub_code(a, b), b) == a
    assert all(add_raw(F, a, F.neg_code(a)) == 0 for a in range(F.q))
    assert all(F._mul_raw(a, F.inv_code(a)) == 1 for a in range(1, F.q))


@pytest.mark.parametrize("p,f", [(31, 2), (1031, 1), (37, 2)])
def test_arithmetic_on_a_sample_around_q_1024(p, f):
    # q = 961, 1031 and 1369: a seeded sample of pairs, scalar and array
    # forms against coefficient vectors, with 0 in the sample
    F = make_field(p, f)
    rng = np.random.default_rng(F.q)
    a, b = rng.integers(0, F.q, (2, 500))
    a[0] = b[1] = 0
    prods = [F._mul_raw(x, y) for x, y in zip(a.tolist(), b.tolist())]
    sums = [add_raw(F, x, y) for x, y in zip(a.tolist(), b.tolist())]
    assert [F.mul_code(x, y) for x, y in zip(a.tolist(), b.tolist())] == prods
    assert [F.add_code(x, y) for x, y in zip(a.tolist(), b.tolist())] == sums
    assert F.mul_array(a, b).tolist() == prods
    assert F.sum_arrays((a, b)).tolist() == sums
    dot = 0
    for x in prods:
        dot = add_raw(F, dot, x)
    assert F.sum_arrays(iter(np.array(prods)[:, None])).tolist() == [dot]


def test_field_construction_multiplies_fewer_than_2q_coefficient_vectors(monkeypatch):
    # the generator search and its powers, and nothing q x q
    calls = []
    raw = FieldCtx._mul_raw

    def counted(self, a, b):
        calls.append(None)
        return raw(self, a, b)

    monkeypatch.setattr(FieldCtx, "_mul_raw", counted)
    F = make_field(31, 2)
    assert len(calls) < 2 * F.q
