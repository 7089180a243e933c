import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from sympy import QQ, Matrix, Poly, symbols
from sympy.matrices.normalforms import invariant_factors

from charvar.errors import InternalInconsistency, TooManyMinors, VariableCountMismatch
from charvar.laurent import GENERIC, Character, LaurentPolynomial
from charvar.lmatrix import (LaurentMatrix, _invariant_factors, generic_rank, minors,
                             rank_at, smith_univariate, univariate_divmod)
import chain_oracle
from chain_oracle import expand
from conftest import (entrywise_product, laurent_matrix, monic_univariate,
                      substitute_exponents, zero_matrix)


def x(power=1):
    return LaurentPolynomial(1, {(power,): 1})


def one1():
    return LaurentPolynomial.one(1)


def torus_alexander():
    one = LaurentPolynomial.one(2)
    t1 = LaurentPolynomial.variable(0, 2)
    t2 = LaurentPolynomial.variable(1, 2)
    return laurent_matrix(2, [[one - t2, t1 - one]])


def test_rank_at_examples():
    m = laurent_matrix(1, [[x() - one1()]])
    assert rank_at(m, GENERIC) == 1
    assert rank_at(m, Character((1,))) == 0

    assert rank_at(torus_alexander(), GENERIC) == 1

    z = zero_matrix(2, 2, 3)
    assert rank_at(z, GENERIC) == 0
    assert rank_at(z, Character((2, 3))) == 0


def test_semicontinuity_and_generic_attainment():
    rng = random.Random(41)
    hits = 0
    total = 0
    for _ in range(120):
        m = _random_matrix(rng, nvars=2)
        g = rank_at(m, GENERIC)
        rho = Character((rng.choice([x for x in range(-9, 10) if x]),
                         rng.choice([x for x in range(-9, 10) if x])))
        r = rank_at(m, rho)
        assert r <= g
        total += 1
        hits += r == g
    # equality holds off a proper closed set, so nearly always in a big box
    assert hits / total > 0.9


def test_generic_rank_cross_checked_by_minors():
    rng = random.Random(13)
    for _ in range(80):
        m = _random_matrix(rng, nvars=2, max_dim=3)
        g = generic_rank(m)
        largest = 0
        for k in range(1, min(m.rows, m.cols) + 1):
            if any(not d.is_zero() for d in minors(m, k)):
                largest = k
        assert g == largest


def test_generic_rank_fails_loudly_on_an_inexact_bareiss_step(monkeypatch):
    one = LaurentPolynomial.one(2)
    t1 = LaurentPolynomial.variable(0, 2)
    t2 = LaurentPolynomial.variable(1, 2)
    m = laurent_matrix(2, [[t1 - one, t2 - one, one],
                           [t2 - one, t1 + one, t1],
                           [t1 + t2, one, t2 - one]])
    assert generic_rank(m) == 3
    # a Bareiss quotient is exact by Sylvester's identity, so an inexact
    # one is a fault, never a step to skip
    monkeypatch.setattr(LaurentPolynomial, "exact_divide", lambda self, other: None)
    with pytest.raises(InternalInconsistency):
        generic_rank(m)


def _random_matrix(rng, nvars, max_dim=4):
    rows = rng.randint(1, max_dim)
    cols = rng.randint(1, max_dim)
    ents = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            terms = {}
            for _ in range(rng.randint(0, 2)):
                e = tuple(rng.randint(-2, 2) for _ in range(nvars))
                terms[e] = Fraction(rng.randint(-3, 3))
            row.append(LaurentPolynomial(nvars, terms))
        ents.append(row)
    return laurent_matrix(nvars, ents)


def test_matmul_matches_entrywise_product():
    # the product skips zero entries; compare it with the plain triple sum
    rng = random.Random(71)
    for _ in range(40):
        nvars = rng.randint(1, 3)
        a = _random_sparse_matrix(rng, nvars, rng.randint(1, 6), rng.randint(1, 6))
        b = _random_sparse_matrix(rng, nvars, a.cols, rng.randint(1, 6))
        assert a @ b == entrywise_product(a, b)
    # a variable-count mismatch is refused even when every product is zero
    one_var = laurent_matrix(1, [[x(), LaurentPolynomial.zero(1)]])
    two_vars = zero_matrix(2, 2, 3)
    with pytest.raises(VariableCountMismatch):
        one_var @ two_vars
    with pytest.raises(VariableCountMismatch):
        zero_matrix(2, 1, 2) @ laurent_matrix(1, [[x()], [x()]])


def _random_sparse_matrix(rng, nvars, rows, cols):
    zero = LaurentPolynomial.zero(nvars)
    ents = [[zero] * cols for _ in range(rows)]
    for _ in range(rng.randint(0, rows * cols // 2 + 1)):
        terms = {tuple(rng.randint(-2, 2) for _ in range(nvars)):
                 Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                 for _ in range(rng.randint(1, 3))}
        ents[rng.randrange(rows)][rng.randrange(cols)] = LaurentPolynomial(nvars, terms)
    return laurent_matrix(nvars, ents)


def test_minors_examples():
    alex = torus_alexander()
    texts = sorted(p.to_text() for p in minors(alex, 1))
    assert texts == ["-t2 + 1", "t1 - 1"]

    t = LaurentPolynomial.variable(0, 1)
    z = LaurentPolynomial.zero(1)
    diag = laurent_matrix(1, [[t, z], [z, t]])
    (m2,) = minors(diag, 2)
    assert m2 == t * t

    assert [p.to_text() for p in minors(diag, 0)] == ["1"]


def test_minors_shape_and_ceiling():
    m = zero_matrix(1, 4, 4)
    with pytest.raises(ValueError):
        minors(m, 5)
    big = zero_matrix(1, 10, 10)
    with pytest.raises(TooManyMinors):
        minors(big, 5, ceiling=10)


def test_univariate_divmod():
    f = (x() - one1()) * (x() + one1()) * x(3)
    q, r = univariate_divmod(f, x() - one1())
    assert r.is_zero()
    assert q == (x() + one1()) * x(3)
    g = x(2) - x() - one1()
    d = x() - one1().scale(3)
    q, r = univariate_divmod(g, d)
    assert q * d + r == g
    assert r.is_zero() or r.degree_span(0) < d.degree_span(0)


def test_smith_univariate_single_entry():
    m = laurent_matrix(1, [[x() - one1()]])
    s = smith_univariate(m)
    assert [(f.to_text(), k) for f, k in s.torsion] == [("t1 - 1", 1)]
    assert m.cols - s.rank == 0


def test_smith_univariate_zero_matrix():
    m = zero_matrix(1, 1, 2)
    s = smith_univariate(m)
    assert s.torsion == ()
    assert m.cols - s.rank == 2


def test_smith_univariate_gcd_row():
    # gcd(t - 1, t^2 - 1) = t - 1 by one Euclidean step
    m = laurent_matrix(1, [[x() - one1(), x(2) - one1()]])
    s = smith_univariate(m)
    assert [(f.to_text(), k) for f, k in s.torsion] == [("t1 - 1", 1)]
    assert m.cols - s.rank == 1


def test_smith_univariate_factors_form_a_monic_chain_of_generic_rank():
    rng = random.Random(29)
    for _ in range(60):
        m = _random_matrix(rng, nvars=1, max_dim=4)
        s = smith_univariate(m)
        fs = [f for f, _ in s.torsion]
        # a divisibility chain of distinct orders, each run nonempty
        for i in range(len(fs) - 1):
            q, r = univariate_divmod(fs[i + 1], fs[i])
            assert r.is_zero() and fs[i + 1] != fs[i]
        assert all(k > 0 for _, k in s.torsion)
        # normalization: monic with nonzero constant term, never a unit
        for f in fs:
            lo, _ = f.exponent_range(0)
            assert lo == 0
            assert f.leading()[1] == 1
            assert not f.is_unit()
        assert len(expand(s.torsion)) <= s.rank == generic_rank(m)


def test_smith_product_of_factors_matches_minor_gcd():
    rng = random.Random(37)
    for _ in range(40):
        m = _random_matrix(rng, nvars=1, max_dim=3)
        s = smith_univariate(m)
        k = s.rank
        if k == 0:
            continue
        product = LaurentPolynomial.one(1)
        for f in expand(s.torsion):
            product = product * f
        gcd = LaurentPolynomial.zero(1)
        for d in minors(m, k):
            gcd = _poly_gcd(gcd, d)
        assert monic_univariate(gcd) == monic_univariate(product)


def _poly_gcd(a, b):
    while not b.is_zero():
        _, r = univariate_divmod(a, b)
        a, b = b, r
    return a


def test_smith_univariate_matches_sympy():
    t = symbols("t")
    rng = random.Random(53)
    for _ in range(100):
        m = _random_matrix(rng, nvars=1, max_dim=4)
        # entries have exponents >= -2; multiplying by the unit t^2 moves
        # them into Q[t] and leaves the Laurent invariant factors alone
        grid = Matrix(m.rows, m.cols, lambda i, j: sum(
            (c.numerator * t ** (e + 2) / c.denominator
             for (e,), c in m.entries[i][j].terms.items()), 0))
        expected = []
        nonzero = [f for f in invariant_factors(grid, domain=QQ[t]) if f != 0]
        for f in nonzero:
            # over Q[t, t^-1] powers of t are units: strip them, make monic
            coeffs = Poly(f, t).all_coeffs()[::-1]
            low = next(k for k, c in enumerate(coeffs) if c)
            coeffs = coeffs[low:]
            if len(coeffs) == 1:  # a unit: no torsion
                continue
            expected.append([Fraction(int(c.p), int(c.q)) / Fraction(
                int(coeffs[-1].p), int(coeffs[-1].q)) for c in coeffs])
        s = smith_univariate(m)
        got = [[f.terms.get((k,), Fraction(0)) for k in range(f.degree_span(0) + 1)]
               for f in expand(s.torsion)]
        assert got == expected
        assert s.rank == len(nonzero)


def chain_bases():
    """t - 1, t + 1, t - 2, t - 1/2 and t^2 - t + 1: monic, nonzero constant
    term, pairwise coprime."""
    t = x()
    return [t - one1(), t + one1(), t - one1().scale(2), t - one1().scale(Fraction(1, 2)),
            x(2) - t + one1()]


@st.composite
def order_runs(draw):
    """Runs (order, multiplicity): each order a product of the chain bases,
    each to a power 0-2 (all 0 is the unit 1), each multiplicity 0-50;
    orders may repeat across runs."""
    runs = []
    for powers in draw(st.lists(st.lists(st.integers(0, 2), min_size=5, max_size=5),
                                max_size=6)):
        order = one1()
        for base, power in zip(chain_bases(), powers):
            for _ in range(power):
                order = order * base
        runs.append((order, draw(st.integers(0, 50))))
    return runs


@settings(max_examples=60, deadline=None)
@given(order_runs())
def test_the_run_chain_matches_the_per_summand_chain(runs):
    got = _invariant_factors(runs)
    assert expand(got) == list(chain_oracle.invariant_factors(expand(runs)))
    assert all(k > 0 for _, k in got)
    assert all(a != b for (a, _), (b, _) in zip(got, got[1:]))


# -- sparse rows against the dense grid, cell by cell -------------------------


@st.composite
def grids(draw):
    """A random grid in 0-3 variables, mostly zero cells, with Fraction
    coefficients and negative exponents: (nvars, rows, cols, grid)."""
    nvars = draw(st.integers(0, 3))
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    zero = LaurentPolynomial.zero(nvars)
    polynomial = st.dictionaries(
        st.tuples(*[st.integers(-3, 3)] * nvars),
        st.fractions(min_value=-3, max_value=3, max_denominator=3),
        max_size=3).map(lambda terms: LaurentPolynomial(nvars, terms))
    cell = st.one_of(st.just(zero), polynomial)
    return nvars, rows, cols, [[draw(cell) for _ in range(cols)] for _ in range(rows)]


def _nonzero_cells(matrix):
    return all(p.terms for row in matrix.sparse_rows for p in row.values())


@settings(max_examples=150, deadline=None)
@given(grids())
def test_sparse_and_grid_forms_are_one_matrix(case):
    nvars, rows, cols, grid = case
    m = LaurentMatrix(nvars, rows, cols, grid)
    # the same cells, given sparse and in reverse column order
    sparse = LaurentMatrix._from_rows(nvars, rows, cols, [
        {j: p for j, p in reversed(list(enumerate(row))) if p.terms} for row in grid])
    assert m == sparse and hash(m) == hash(sparse)
    assert _nonzero_cells(m)
    assert m.entries == tuple(map(tuple, grid))
    assert m.transpose().entries == tuple(tuple(grid[i][j] for i in range(rows))
                                          for j in range(cols))
    assert m.transpose().transpose() == m


@settings(max_examples=150, deadline=None)
@given(grids(), st.data())
def test_evaluation_agrees_with_every_cell(case, data):
    nvars, rows, cols, grid = case
    m = LaurentMatrix(nvars, rows, cols, grid)
    coords = data.draw(st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=3)
                                .filter(bool), min_size=nvars, max_size=nvars))
    rho = Character(coords)
    assert m.evaluate(rho) == [[p.evaluate(rho) for p in row] for row in grid]
    prime = data.draw(st.sampled_from((2, 3, 101)))
    point = data.draw(st.lists(st.integers(-20, 20).filter(lambda x: x % prime),
                               min_size=nvars, max_size=nvars))
    got = m.evaluate_mod(point, prime)
    if any(c.denominator % prime == 0 for row in grid for p in row
           for c in map(Fraction, p.terms.values())):
        assert got is None
    else:
        exact = [[Fraction(p.evaluate(Character(point))) for p in row] for row in grid]
        reduced = [[x.numerator * pow(x.denominator, -1, prime) % prime for x in row]
                   for row in exact]
        assert got == [{j: x for j, x in enumerate(row) if x} for row in reduced]


@settings(max_examples=150, deadline=None)
@given(grids(), st.data())
def test_substitution_agrees_with_every_cell(case, data):
    nvars, rows, cols, grid = case
    m = LaurentMatrix(nvars, rows, cols, grid)
    new_vars = data.draw(st.integers(0, 3))
    matrix = data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=nvars, max_size=nvars),
                                min_size=new_vars, max_size=new_vars))
    pushed = m.substitute_exponents(matrix)
    assert pushed.entries == tuple(tuple(substitute_exponents(p, matrix) for p in row)
                                   for row in grid)
    assert pushed.nvars == new_vars and _nonzero_cells(pushed)


def test_a_cell_that_cancels_under_substitution_is_not_stored():
    t1, t2 = LaurentPolynomial.variable(0, 2), LaurentPolynomial.variable(1, 2)
    pushed = laurent_matrix(2, [[t1 - t2, t1]]).substitute_exponents([[1, 1]])
    assert pushed.sparse_rows == ({1: x()},)
    assert pushed.entries == ((LaurentPolynomial.zero(1), x()),)
