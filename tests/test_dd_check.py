"""The d o d = 0 check of ``TwistedComplex`` against the entrywise triple
sum of ``conftest.entrywise_product``: it raises exactly when a composite
is nonzero and names the first such degree pair, it catches every
single-cell change to a real complex, and building a product never forms
a matrix product nor a full composite of a fold."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import charvar.complexes
from charvar.complexes import TwistedComplex
from charvar.constructions import (build_model, cycle_graph, direct_product,
                                   free_group, raag_chain_model, surface_group)
from charvar.errors import InternalInconsistency
from charvar.laurent import LaurentPolynomial
from charvar.lmatrix import LaurentMatrix
from charvar.parser import parse_presentation
from conftest import entrywise_product, laurent_matrix, scaled


def oracle_verdict(differentials):
    """The message the check must raise, from the triple sum, or None when
    every composite is zero."""
    for j in range(1, len(differentials)):
        product = entrywise_product(differentials[j - 1], differentials[j])
        if any(p.terms for row in product.entries for p in row):
            return f"d_{j} o d_{j + 1} is nonzero"
    return None


def check_verdict(nvars, ranks, differentials):
    try:
        TwistedComplex(nvars, tuple(ranks), tuple(differentials))
    except InternalInconsistency as exc:
        return str(exc)
    return None


def koszul(nvars, xs):
    """The differentials of the Koszul complex on xs: degree k is free on
    the k-subsets of the indices, and e_S maps to the alternating sum of
    x_v e_(S - v); every composite vanishes over any commutative ring."""
    subsets = [list(combinations(range(len(xs)), k)) for k in range(len(xs) + 1)]
    zero = LaurentPolynomial.zero(nvars)
    diffs = []
    for k in range(1, len(subsets)):
        index = {s: i for i, s in enumerate(subsets[k - 1])}
        grid = [[zero] * len(subsets[k]) for _ in subsets[k - 1]]
        for col, s in enumerate(subsets[k]):
            for pos, v in enumerate(s):
                grid[index[s[:pos] + s[pos + 1:]]][col] = -xs[v] if pos % 2 else xs[v]
        diffs.append(LaurentMatrix(nvars, len(subsets[k - 1]), len(subsets[k]), grid))
    return [len(s) for s in subsets], diffs


# the torsion presentation complex: Fox entries with negative exponents,
# rescaled to Fraction coefficients (scaling by constants keeps d o d = 0)
TORSION = build_model(parse_presentation(
    "gens a,b,c; rel a^3 b^-3 c^6; rel [b,c];")).complex
TORSION_SCALED = scaled(TORSION, (Fraction(3, 2), Fraction(-1, 3)))


def polynomials(nvars):
    return st.dictionaries(
        st.tuples(*[st.integers(-3, 3)] * nvars),
        st.fractions(min_value=-3, max_value=3, max_denominator=3),
        max_size=3).map(lambda terms: LaurentPolynomial(nvars, terms))


@st.composite
def koszul_complexes(draw):
    """A Koszul complex on up to three random polynomials in 0-3 variables,
    with a zero-rank degree appended at either end or not, and with one
    cell of one differential changed or not."""
    nvars = draw(st.integers(0, 3))
    xs = draw(st.lists(polynomials(nvars), max_size=3))
    ranks, diffs = koszul(nvars, xs)
    if draw(st.booleans()):
        diffs.append(LaurentMatrix(nvars, ranks[-1], 0, [[] for _ in range(ranks[-1])]))
        ranks.append(0)
    if draw(st.booleans()):
        diffs.insert(0, LaurentMatrix(nvars, 0, ranks[0], []))
        ranks.insert(0, 0)
    return nvars, ranks, maybe_change_one_cell(draw, nvars, diffs)


@st.composite
def torsion_complexes(draw):
    """The torsion presentation complex in Fraction coefficients, with one
    cell of one differential changed or not."""
    cx = TORSION_SCALED
    return cx.nvars, cx.ranks, maybe_change_one_cell(draw, cx.nvars, cx.differentials)


def maybe_change_one_cell(draw, nvars, diffs):
    diffs = list(diffs)
    cells = [(m, r, c) for m, d in enumerate(diffs)
             for r in range(d.rows) for c in range(d.cols)]
    if cells and draw(st.booleans()):
        m, r, c = draw(st.sampled_from(cells))
        grid = [list(row) for row in diffs[m].entries]
        grid[r][c] = grid[r][c] + draw(polynomials(nvars))
        diffs[m] = LaurentMatrix(nvars, diffs[m].rows, diffs[m].cols, grid)
    return diffs


@st.composite
def random_chains(draw):
    """Random sparse differentials of random shapes, zero ranks included;
    the composites are mostly nonzero, and zero where a rank is 0."""
    nvars = draw(st.integers(0, 2))
    ranks = draw(st.lists(st.integers(0, 3), min_size=2, max_size=4))
    zero = LaurentPolynomial.zero(nvars)
    entries = st.one_of(st.just(zero), polynomials(nvars))
    diffs = [LaurentMatrix(nvars, r, c, [[draw(entries) for _ in range(c)] for _ in range(r)])
             for r, c in zip(ranks, ranks[1:])]
    return nvars, ranks, diffs


@settings(max_examples=150, deadline=None)
@given(st.one_of(koszul_complexes(), torsion_complexes(), random_chains()))
def test_check_agrees_with_the_triple_sum(case):
    nvars, ranks, diffs = case
    assert check_verdict(nvars, ranks, diffs) == oracle_verdict(diffs)
    for a, b in zip(diffs, diffs[1:]):
        assert a @ b == entrywise_product(a, b)


@pytest.mark.parametrize("cx", [TORSION, TORSION_SCALED])
def test_torsion_complex_passes_and_one_changed_cell_fails(cx):
    terms = [t for d in cx.differentials for row in d.entries for p in row
             for t in p.terms.items()]
    assert any(x < 0 for e, _ in terms for x in e)
    assert check_verdict(cx.nvars, cx.ranks, cx.differentials) is None
    # d_2 rescaled, plus a Fraction constant in its cell (row, 0), where
    # entry row of d_1 is nonzero
    row = next(i for i, p in enumerate(cx.differentials[0].entries[0]) if p.terms)
    bent = list(scaled(cx, (1, Fraction(1, 7))).differentials)
    grid = [list(entries) for entries in bent[1].entries]
    grid[row][0] = grid[row][0] + LaurentPolynomial.constant(cx.nvars, Fraction(5, 3))
    bent[1] = LaurentMatrix(cx.nvars, bent[1].rows, bent[1].cols, grid)
    assert oracle_verdict(bent) == "d_1 o d_2 is nonzero"
    assert check_verdict(cx.nvars, cx.ranks, bent) == "d_1 o d_2 is nonzero"


def test_no_variables_and_zero_ranks():
    def c(value):
        return LaurentPolynomial.constant(0, value)

    d1 = laurent_matrix(0, [[c(1), c(Fraction(1, 2))]])
    d2 = laurent_matrix(0, [[c(1)], [c(-2)]])
    assert check_verdict(0, (1, 2, 1), (d1, d2)) is None
    d2_bent = laurent_matrix(0, [[c(1)], [c(2)]])
    assert check_verdict(0, (1, 2, 1), (d1, d2_bent)) == "d_1 o d_2 is nonzero"
    # a zero rank in the middle, at the start, at the end
    for nvars in (0, 2):
        one = LaurentPolynomial.one(nvars)
        for ranks in ((2, 0, 3), (0, 2, 1), (1, 2, 0), (0, 0, 0)):
            diffs = [LaurentMatrix(nvars, r, c, [[one] * c for _ in range(r)])
                     for r, c in zip(ranks, ranks[1:])]
            assert check_verdict(nvars, ranks, diffs) is None


def test_a_sum_that_an_undoubled_radix_would_alias_is_nonzero():
    # the exponents (1, 0), (0, 0), (0, 1) span the box [0, 1]^2.  With the
    # radix hi - lo + 1 = 2 per variable, t_0^2 and t_1 both pack to 2
    # (2 * 1 + 0 * 2 = 0 * 1 + 1 * 2) and t_0^2 - t_1 would read as zero;
    # the doubled width 3 keeps them apart (2 and 3)
    t0 = LaurentPolynomial.variable(0, 2)
    t1 = LaurentPolynomial.variable(1, 2)
    one = LaurentPolynomial.one(2)
    d1 = laurent_matrix(2, [[t0, one]])
    d2 = laurent_matrix(2, [[t0], [-t1]])
    assert (d1 @ d2).entries == ((t0 * t0 - t1,),)
    assert check_verdict(2, (1, 2, 1), (d1, d2)) == "d_1 o d_2 is nonzero"


def test_cells_of_one_row_stay_apart():
    # the same monomial in two cells of one row, with opposite signs: the
    # column in the key keeps them from cancelling
    one = LaurentPolynomial.one(1)
    zero = LaurentPolynomial.zero(1)
    d1 = laurent_matrix(1, [[one, one]])
    d2 = laurent_matrix(1, [[one, zero], [zero, -one]])
    assert (d1 @ d2).entries == ((one, -one),)
    assert check_verdict(1, (1, 2, 2), (d1, d2)) == "d_1 o d_2 is nonzero"


def single_cell_changes(cx):
    """Every complex that differs from cx in one cell of one differential:
    that cell plus a monomial, or that cell negated when it is nonzero."""
    added = LaurentPolynomial(cx.nvars, {(1,) * cx.nvars: Fraction(2, 3)})
    for m, d in enumerate(cx.differentials):
        for r in range(d.rows):
            for c in range(d.cols):
                cell = d.entries[r][c]
                for new in [cell + added] + ([-cell] if cell.terms else []):
                    grid = [list(row) for row in d.entries]
                    grid[r][c] = new
                    diffs = list(cx.differentials)
                    diffs[m] = LaurentMatrix(cx.nvars, d.rows, d.cols, grid)
                    yield (m, r, c), diffs


MUTATED = {
    "S_1 x S_1": build_model(direct_product([surface_group(1)] * 2)).complex,
    "S_2 x F_1": build_model(direct_product([surface_group(2), free_group(1)])).complex,
    "cycle:5 cube complex": raag_chain_model(cycle_graph(5)),
    "TORSION": TORSION,
}


@pytest.mark.parametrize("name", MUTATED)
def test_every_single_cell_change_is_caught_at_its_degree_pair(name):
    cx = MUTATED[name]
    assert check_verdict(cx.nvars, cx.ranks, cx.differentials) is None
    count = 0
    for where, diffs in single_cell_changes(cx):
        expected = oracle_verdict(diffs)
        assert expected is not None, where
        assert check_verdict(cx.nvars, cx.ranks, diffs) == expected, where
        count += 1
    assert count > sum(d.rows * d.cols for d in cx.differentials)


def test_building_a_product_forms_no_matrix_product(monkeypatch):
    calls = []
    real = LaurentMatrix.__matmul__

    def counted(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(LaurentMatrix, "__matmul__", counted)
    build_model(direct_product([surface_group(2)] * 3))
    assert calls == []
    # the counter sees a product when one is formed
    one = laurent_matrix(1, [[LaurentPolynomial.one(1)]])
    one @ one
    assert len(calls) == 1



def test_s2_cubed_folds_reach_no_full_composite_pass(monkeypatch):
    # each fold of a product is proven by its Koszul structure, at one
    # comparison per nonzero cell; the full-composite pass on the 216-cell
    # fold alone made 10,944 term products
    building, reached = [], []
    prove = TwistedComplex.__post_init__
    products = charvar.complexes.packed_row_products

    def tracked(cx, factors):
        building.append(cx)
        prove(cx, factors)
        building.pop()

    def recorded(left, right, span):
        reached.append(sum(building[-1].ranks))
        return products(left, right, span)

    monkeypatch.setattr(TwistedComplex, "__post_init__", tracked)
    monkeypatch.setattr(charvar.complexes, "packed_row_products", recorded)
    cx = build_model(direct_product([surface_group(2)] * 3)).complex
    assert sum(cx.ranks) == 216
    # the factors' own proofs still run, on 6 cells each
    assert reached and max(reached) == 6
