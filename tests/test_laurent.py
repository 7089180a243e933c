import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from charvar.errors import GenericNotEvaluable, VariableCountMismatch
from charvar.laurent import (GENERIC, Character, LaurentPolynomial,
                             pullback_character)
from conftest import monic_univariate, substitute_exponents


def t(i, nvars=2, power=1):
    return LaurentPolynomial.variable(i, nvars, power)


def const(c, nvars=2):
    return LaurentPolynomial.constant(nvars, c)


def test_difference_of_squares():
    one = LaurentPolynomial.one(1)
    x = LaurentPolynomial.variable(0, 1)
    assert (x - one) * (x + one) == x * x - one


def test_additive_identity():
    p = t(0) * t(1, power=-1) - const(3)
    assert p + LaurentPolynomial.zero(2) == p


def test_unit_inverse_multiplies_to_one():
    x = LaurentPolynomial.variable(0, 1)
    xinv = LaurentPolynomial.variable(0, 1, power=-1)
    assert (x * xinv).is_one()


def test_variable_count_mismatch():
    with pytest.raises(VariableCountMismatch):
        t(0, nvars=2) * LaurentPolynomial.one(3)


def test_evaluate_examples():
    p = t(0) * t(1, power=-1) - const(1)
    assert p.evaluate(Character((2, Fraction(1, 2)))) == 3
    # any polynomial at the all-ones character sums its coefficients
    q = const(5) + t(0, power=-2) * t(1).scale(7)
    assert q.evaluate(Character.trivial(2)) == 12
    x = LaurentPolynomial.variable(0, 1)
    assert (x - LaurentPolynomial.one(1)).evaluate(Character((1,))) == 0


def test_float_coefficients_are_refused():
    # a float would silently become the nearest binary fraction
    with pytest.raises(TypeError):
        LaurentPolynomial(1, {(0,): 0.1})
    with pytest.raises(TypeError):
        const(0.5)
    with pytest.raises(TypeError):
        t(0).scale(0.5)


def test_generic_not_evaluable():
    with pytest.raises(GenericNotEvaluable):
        t(0).evaluate(GENERIC)


def test_character_rejects_zero_coordinate():
    with pytest.raises(ValueError):
        Character((1, 0))


def test_canonical_text_form():
    p = LaurentPolynomial(2, {(2, -1): Fraction(3), (0, 0): Fraction(-1)})
    assert p.to_text() == "3*t1^2*t2^-1 - 1"
    assert LaurentPolynomial.zero(2).to_text() == "0"
    assert const(1).to_text() == "1"
    x = LaurentPolynomial.variable(0, 1)
    assert (x - LaurentPolynomial.one(1)).to_text() == "t1 - 1"
    assert (LaurentPolynomial.one(1) - x).to_text() == "-t1 + 1"


def test_unit_normal():
    p = LaurentPolynomial(1, {(3,): Fraction(-2), (1,): Fraction(2)})
    n = p.unit_normal()
    assert n.to_text() == "t1^2 - 1"
    assert monic_univariate(p).to_text() == "t1^2 - 1"


simple_polys = st.builds(
    lambda terms: LaurentPolynomial(2, {e: Fraction(c) for e, c in terms}),
    st.lists(st.tuples(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
        st.integers(-4, 4)), max_size=6))


@given(simple_polys, simple_polys, simple_polys)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert (p - p).is_zero()


def test_mul_degree_span_bound():
    rng = random.Random(3)
    for _ in range(200):
        p = _random_poly(rng)
        q = _random_poly(rng)
        prod = p * q
        if prod.is_zero():
            continue
        for v in range(2):
            assert prod.degree_span(v) <= p.degree_span(v) + q.degree_span(v)


def _random_poly(rng):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        e = (rng.randint(-3, 3), rng.randint(-3, 3))
        terms[e] = Fraction(rng.randint(-5, 5))
    return LaurentPolynomial(2, terms)


def test_exact_divide():
    x = LaurentPolynomial.variable(0, 1)
    one = LaurentPolynomial.one(1)
    f = (x - one) * (x + one)
    assert f.exact_divide(x - one) == x + one
    assert f.exact_divide(x.scale(2)) == (x - one) * (x + one) * \
        LaurentPolynomial(1, {(-1,): Fraction(1, 2)})
    assert (x - one).exact_divide(x + one) is None


def test_exact_divide_random_products():
    rng = random.Random(17)
    for _ in range(150):
        p = _random_poly(rng)
        q = _random_poly(rng)
        if p.is_zero() or q.is_zero():
            continue
        prod = p * q
        got = prod.exact_divide(q)
        assert got == p


def test_substitute_exponents_is_ring_map():
    rng = random.Random(9)
    mat = [[1, 1]]  # both variables to the same new variable
    for _ in range(100):
        p = _random_poly(rng)
        q = _random_poly(rng)
        assert substitute_exponents(p * q, mat) == \
            substitute_exponents(p, mat) * substitute_exponents(q, mat)
        assert substitute_exponents(p + q, mat) == \
            substitute_exponents(p, mat) + substitute_exponents(q, mat)


def test_pullback_character_matches_substitution():
    rng = random.Random(31)
    nubar = [[1, -2], [0, 3]]
    rho = Character((2, Fraction(3, 2)))
    pulled = pullback_character(nubar, rho, 2)
    for _ in range(50):
        p = _random_poly(rng)
        assert p.evaluate(pulled) == substitute_exponents(p, nubar).evaluate(rho)


def is_canonical(value):
    return type(value) is int or (type(value) is Fraction and value.denominator != 1)


integer_characters = st.tuples(
    st.integers(-5, 5).filter(bool), st.integers(-5, 5).filter(bool))


@given(simple_polys, integer_characters)
def test_integer_characters_never_evaluate_to_float(p, coords):
    # int ** negative is a float; negative powers go through Fraction
    rho = Character(coords)
    assert all(type(x) is int for x in rho.coords)
    value = p.evaluate(rho)
    assert is_canonical(value)
    assert value == sum(c * Fraction(coords[0]) ** e0 * Fraction(coords[1]) ** e1
                        for (e0, e1), c in p.terms.items())
    pulled = pullback_character([[1, -2], [-1, 3]], rho, 2)
    assert all(is_canonical(x) for x in pulled.coords)


def test_character_coordinates_are_canonical():
    rho = Character((Fraction(4, 2), Fraction(1, 3), -1))
    assert rho.coords == (2, Fraction(1, 3), -1)
    assert [type(x) for x in rho.coords] == [int, Fraction, int]
    assert Character.trivial(3).coords == (1, 1, 1)
    assert rho.describe() == ["2", "1/3", "-1"]
    with pytest.raises(TypeError):
        Character((0.5,))
