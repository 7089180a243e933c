import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from charvar.errors import GenericNotEvaluable, VariableCountMismatch
from charvar.laurent import (GENERIC, Character, LaurentPolynomial, _make,
                             pullback_character)
from conftest import monic_univariate, substitute_exponents


def t(i, nvars=2, power=1):
    return LaurentPolynomial(nvars, {tuple(power * (j == i) for j in range(nvars)): 1})


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
    xinv = LaurentPolynomial(1, {(-1,): 1})
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


def unit_normal_oracle(p):
    """``unit_normal`` as it stood before it became ``strip_row_units`` on
    a one-entry row: shift by the monomial floor, divide by the content
    (gcd of numerators over lcm of denominators), leading coefficient
    positive."""
    if not p.terms:
        return p
    num, den = 0, 1
    for c in p.terms.values():
        num = gcd(num, abs(c.numerator))
        den = den * c.denominator // gcd(den, c.denominator)
    c = Fraction(num, den)
    shifted = p.shift(tuple(-x for x in p.monomial_floor()))
    if shifted.leading()[1] < 0:
        c = -c
    return shifted.scale(1 / c)


coefficients = st.one_of(st.integers(-30, 30),
                         st.fractions(min_value=-30, max_value=30, max_denominator=12))


@st.composite
def polys_in_up_to_three_variables(draw):
    nvars = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(-4, 4)] * nvars)
    terms = draw(st.dictionaries(exps, coefficients, max_size=6))
    return LaurentPolynomial(nvars, terms)


@given(polys_in_up_to_three_variables(), st.integers(-6, 6))
def test_unit_normal_matches_the_content_and_floor_oracle(p, k):
    for q in (p, p.scale(k), LaurentPolynomial.zero(p.nvars)):
        got = q.unit_normal()
        assert got == unit_normal_oracle(q)
        assert all(c.__class__ is int or c.denominator > 1 for c in got.terms.values())


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


@given(simple_polys, simple_polys)
def test_hash_is_kept_and_equal_polynomials_hash_equal(p, q):
    total = p + q
    terms = dict(total.terms)
    equal = [total, q + p, LaurentPolynomial(2, terms), _make(2, dict(terms)),
             LaurentPolynomial(2, dict(reversed(terms.items()))),
             total.scale(Fraction(2, 3)) * LaurentPolynomial.constant(2, Fraction(3, 2))]
    assert all(x == total for x in equal)
    assert len({hash(x) for x in equal}) == 1
    fresh = hash((total.nvars, frozenset(total.terms.items())))
    assert total._hash == fresh == hash(total)


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
    # x*y + 1 by x + y: x*y cancels to 1 - y^2, whose terms are no
    # multiples of the leading term x
    assert (t(0) * t(1) + const(1)).divide(t(0) + t(1)) == (t(1), const(1) - t(1, power=2))
    assert (t(0) * t(1) + t(1, power=2)).divide(t(0) - const(1)) == (t(1), t(1, power=2) + t(1))
    assert (t(0) * t(1) + t(1, power=2)).exact_divide(t(0) - const(1)) is None


def test_exact_divide_random_products():
    rng = random.Random(17)
    inexact = 0
    for _ in range(150):
        p = _random_poly(rng)
        q = _random_poly(rng)
        if p.is_zero() or q.is_zero():
            continue
        prod = p * q
        got = prod.exact_divide(q)
        assert got == p
        # division with remainder: p * q + p by q, and p by q, are exact
        # only when q divides p
        for f in (prod + p, p):
            quo, rem = f.divide(q)
            assert quo * q + rem == f
            assert (f.exact_divide(q) is None) == bool(rem)
            inexact += bool(rem)
            # no term of rem, above f's floor, is a multiple of the
            # divisor's leading term above its floor
            lead = tuple(a - b for a, b in zip(q.leading()[0], q.monomial_floor()))
            for e in rem.terms:
                above = tuple(a - b for a, b in zip(e, f.monomial_floor()))
                assert any(x < y for x, y in zip(above, lead))
    assert inexact > 50


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
    pulled = pullback_character(nubar, rho)
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
    pulled = pullback_character([[1, -2], [-1, 3]], rho)
    assert all(is_canonical(x) for x in pulled.coords)


def test_character_coordinates_are_canonical():
    rho = Character((Fraction(4, 2), Fraction(1, 3), -1))
    assert rho.coords == (2, Fraction(1, 3), -1)
    assert [type(x) for x in rho.coords] == [int, Fraction, int]
    assert Character.trivial(3).coords == (1, 1, 1)
    assert rho.describe() == ["2", "1/3", "-1"]
    with pytest.raises(TypeError):
        Character((0.5,))
