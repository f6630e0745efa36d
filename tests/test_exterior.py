import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import rand_form, rand_invertible, rand_vector
from forms6 import linalg
from forms6.exterior import (Form, GradeError, LinearMap6, _clear_denominators,
                             _exact_div, basis, basis_matrix, eval_form, interior,
                             mask_from_axes, pullback, vector_of_five_form,
                             wedge)


def perm_sign(perm):
    # independent sign oracle: count inversions of the concatenated axes
    inv = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
              if perm[i] > perm[j])
    return -1 if inv % 2 else 1


def test_wedge_basis_case():
    assert wedge(basis(1), basis(2)) == basis(1, 2)


def test_wedge_sign_oracle():
    # e56 ^ e123 carries the parity of (5,6,1,2,3)
    w = wedge(basis(5, 6), basis(1, 2, 3))
    assert w == basis(1, 2, 3, 5, 6) * perm_sign((5, 6, 1, 2, 3))
    # and exhaustively for all disjoint basis pairs of grades (2,3)
    for a in itertools.combinations(range(1, 7), 2):
        for b in itertools.combinations(range(1, 7), 3):
            if set(a) & set(b):
                assert not wedge(basis(*a), basis(*b)).coeffs
            else:
                got = wedge(basis(*a), basis(*b))
                expect = basis(*sorted(a + b)) * perm_sign(a + b)
                assert got == expect


def test_odd_self_wedge_vanishes(rng):
    for _ in range(20):
        phi = rand_form(rng, 3)
        assert not wedge(phi, phi).coeffs


def test_wedge_graded_commutative_associative(rng):
    for _ in range(1000):
        ga = rng.randint(0, 3)
        gb = rng.randint(0, 3)
        a, b = rand_form(rng, ga, 0.5), rand_form(rng, gb, 0.5)
        if ga + gb <= 6:
            sign = -1 if (ga * gb) % 2 else 1
            assert wedge(a, b) == wedge(b, a) * sign
        gc = rng.randint(0, 6 - min(6, ga + gb))
        if ga + gb + gc <= 6:
            c = rand_form(rng, gc, 0.5)
            assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def test_wedge_grade_overflow_is_error():
    with pytest.raises(GradeError):
        wedge(basis(1, 2, 3, 4), basis(3, 4, 5))


def test_interior_examples():
    e1 = (1, 0, 0, 0, 0, 0)
    e2 = (0, 1, 0, 0, 0, 0)
    assert interior(e1, basis(1, 2, 3)) == basis(2, 3)
    assert interior(e2, basis(1, 2, 3)) == -basis(1, 3)


def test_interior_of_volume_by_expansion():
    # omega^3/3! expands to e123456; contracting with e1 leaves e23456
    omega = basis(1, 2) + basis(3, 4) + basis(5, 6)
    w3 = wedge(wedge(omega, omega), omega)
    vol = w3.map_coeffs(lambda c: Fraction(c, 6))
    assert vol == basis(1, 2, 3, 4, 5, 6)
    e1 = (1, 0, 0, 0, 0, 0)
    assert interior(e1, vol) == basis(2, 3, 4, 5, 6)


def test_interior_grade_zero_is_error():
    with pytest.raises(GradeError):
        interior((1, 0, 0, 0, 0, 0), Form(0, {0: 1}))


def test_interior_antiderivation(rng):
    for _ in range(50):
        ga = rng.randint(1, 3)
        gb = rng.randint(1, 6 - ga)
        a, b = rand_form(rng, ga, 0.5), rand_form(rng, gb, 0.5)
        v = rand_vector(rng)
        lhs = interior(v, wedge(a, b))
        sign = -1 if ga % 2 else 1
        rhs = wedge(interior(v, a), b) + wedge(a, interior(v, b)) * sign
        assert lhs == rhs


def test_interior_anticommutes(rng):
    for _ in range(50):
        a = rand_form(rng, rng.randint(2, 5), 0.5)
        v, w = rand_vector(rng), rand_vector(rng)
        assert interior(v, interior(w, a)) == -interior(w, interior(v, a))


def test_basis_matrix_is_the_matrix_of_a_linear_op(rng):
    # M v is the coefficient vector of op(a) for a with coefficients v, and
    # the output masks may be any list, in any order
    def masks(grade):
        return [m for m in range(64) if m.bit_count() == grade]
    for _ in range(10):
        g = rng.randint(1, 5)
        v, b = rand_vector(rng), rand_form(rng, rng.randint(0, 6 - g), 0.5)
        for op, grade_out in ((lambda f: interior(v, f), g - 1),
                              (lambda f: wedge(b, f), g + b.grade)):
            a = rand_form(rng, g, 0.5)
            m_in, m_out = masks(g), masks(grade_out)[::-1]
            M = basis_matrix(op, m_in, m_out)
            x = [a.coeffs.get(m, 0) for m in m_in]
            assert [sum(r * y for r, y in zip(row, x)) for row in M] \
                == [op(a).coeffs.get(q, 0) for q in m_out]


def test_pullback_identity_and_diagonal(rng):
    phi = rand_form(rng, 3)
    assert pullback(LinearMap6.diagonal([1] * 6), phi) == phi
    g = LinearMap6.diagonal([2, 1, 1, 1, 1, 1])
    assert pullback(g, basis(1, 2, 3)) == basis(1, 2, 3) * 2


def test_pullback_functorial_and_homomorphism(rng):
    for _ in range(10):
        g, h = rand_invertible(rng), rand_invertible(rng)
        a = rand_form(rng, 2, 0.5)
        b = rand_form(rng, 1)
        # (g.h)* = h* after g*
        assert pullback(g.compose(h), a) == pullback(h, pullback(g, a))
        assert pullback(g, wedge(a, b)) == wedge(pullback(g, a), pullback(g, b))


def test_pullback_round_trip(rng):
    for _ in range(10):
        g = rand_invertible(rng)
        a = rand_form(rng, 3, 0.5)
        assert pullback(LinearMap6(linalg.inverse(g.rows)), pullback(g, a)) == a


def test_pullback_matches_evaluation(rng):
    g = rand_invertible(rng)
    a = rand_form(rng, 2, 0.5)
    for _ in range(5):
        v, w = rand_vector(rng), rand_vector(rng)
        gv, gw = (tuple(sum(x * y for x, y in zip(r, u)) for r in g.rows) for u in (v, w))
        assert eval_form(pullback(g, a), v, w) == eval_form(a, gv, gw)


def test_vector_of_five_form():
    vol = basis(1, 2, 3, 4, 5, 6)
    e1 = (1, 0, 0, 0, 0, 0)
    assert vector_of_five_form(interior(e1, vol), vol) == (1, 0, 0, 0, 0, 0)
    assert vector_of_five_form(Form.zero(5), vol) == (0, 0, 0, 0, 0, 0)
    e4 = (0, 0, 0, 1, 0, 0)
    e6 = (0, 0, 0, 0, 0, 1)
    beta = interior(e4, vol) * 3 - interior(e6, vol)
    assert vector_of_five_form(beta, vol) == (0, 0, 0, 3, 0, -1)


def test_vector_of_five_form_round_trip(rng):
    vol = basis(1, 2, 3, 4, 5, 6) * Fraction(3, 2)
    for _ in range(20):
        u = rand_vector(rng)
        assert vector_of_five_form(interior(u, vol), vol) == u


def test_vector_of_five_form_zero_volume_is_error():
    with pytest.raises(ValueError):
        vector_of_five_form(Form.zero(5), Form.zero(6))


def test_form_validation():
    with pytest.raises(ValueError):
        Form(2, {mask_from_axes((1, 2, 3)): 1})
    with pytest.raises(GradeError):
        Form(7, {})
    f = Form(2, {mask_from_axes((1, 2)): 0})
    assert not f.coeffs
    with pytest.raises(ValueError):
        mask_from_axes((2, 1))
    with pytest.raises(ValueError):
        mask_from_axes((0, 1))


def test_public_constructor_keeps_its_checks():
    # the kernel operations build their results unchecked; the public
    # constructor still refuses a wrong-grade mask and a grade outside 0..6
    with pytest.raises(ValueError, match="has grade 3"):
        Form(2, {mask_from_axes((1, 2)): 1, mask_from_axes((1, 2, 3)): 1})
    for grade in (-1, 7):
        with pytest.raises(GradeError):
            Form(grade, {})
    a, b = basis(1, 2) + basis(3, 4) * Fraction(1, 2), basis(5, 6) - basis(1, 3)
    products = (a + b, -a, a * 3, a / 2, a.map_coeffs(abs), wedge(a, b),
                interior((1, 0, 2, 0, 0, 0), a), pullback([[1] * 6] * 6, a))
    for f in products:
        assert Form(f.grade, f.coeffs) == f
    assert not (a + -a).coeffs and not (a * 0).coeffs and not wedge(a, a - a).coeffs


def test_mixed_grade_addition_rejected():
    with pytest.raises(GradeError):
        basis(1, 2) + basis(1, 2, 3)


exact_scalars = st.one_of(st.integers(-10 ** 6, 10 ** 6),
                          st.fractions(min_value=-50, max_value=50, max_denominator=12))


@settings(max_examples=100, deadline=None)
@given(st.lists(exact_scalars, max_size=8))
def test_clear_denominators_scales_by_the_least_common_denominator(xs):
    D, ints = _clear_denominators(iter(xs))
    assert all(type(n) is int for n in ints)
    assert ints == [D * x for x in xs]
    # no proper divisor of D clears every x
    for p in range(2, D + 1):
        if D % p == 0:
            assert any(((D // p) * x).denominator != 1 for x in xs)


@settings(max_examples=100, deadline=None)
@given(st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 6, 10 ** 6).filter(bool),
       st.integers(1, 12))
def test_exact_div_keeps_exact_quotients_exact(a, b, d):
    q = _exact_div(a, b)
    assert type(q) is Fraction and q * b == a
    q = _exact_div(Fraction(a, d), b)
    assert type(q) is Fraction and q * b * d == a
    for x, y in ((float(a), b), (a, float(b)), (Fraction(a, d), float(b)),
                 (float(a), Fraction(b, d))):
        q = _exact_div(x, y)
        assert type(q) is float and q == x / y
