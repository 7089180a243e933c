"""The shipped sparse ranks against the dense Bareiss oracle, directly and
through their callers; windows against the literal sympy window oracle."""

import random
from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings, strategies as st

import rank_oracle
import window_oracle
from charvar.complexes import TwistedComplex, window_homology
from charvar.constructions import (Graph, complete_graph, cycle_graph,
                                   direct_product, flag_complex, free_group,
                                   octahedron_graph, reduced_homology,
                                   surface_group)
from charvar.intlinalg import integer_rank, rational_rank, reduce_row
from charvar.laurent import LaurentPolynomial
from charvar.lmatrix import LaurentMatrix
from test_windows import bb_f2xf2, univariate_model


def matrices(entries, max_rows=10, max_cols=10):
    """Matrices of any shape up to the bounds, zero rows or zero columns
    included; a matrix with no rows is the empty list."""
    return st.tuples(st.integers(0, max_rows), st.integers(0, max_cols)).flatmap(
        lambda shape: st.lists(
            st.lists(entries, min_size=shape[1], max_size=shape[1]),
            min_size=shape[0], max_size=shape[0]))


sparse_signs = st.sampled_from((0,) * 18 + (1, -1))
dense_small = st.integers(-50, 50)
huge = st.one_of(st.integers(-3, 3),
                 st.integers(2 ** 70 - 4, 2 ** 70 + 4),
                 st.integers(-2 ** 70 - 4, -2 ** 70 + 4))


@st.composite
def deficient(draw):
    """Rows that are integer combinations of at most ``k`` base rows, so
    the rank is at most k."""
    cols = draw(st.integers(1, 10))
    k = draw(st.integers(0, 4))
    base = draw(st.lists(st.lists(st.integers(-9, 9), min_size=cols, max_size=cols),
                         min_size=k, max_size=k))
    combos = draw(st.lists(st.lists(st.integers(-3, 3), min_size=k, max_size=k),
                           min_size=k, max_size=12))
    grid = [[sum(c * b[j] for c, b in zip(combo, base)) for j in range(cols)]
            for combo in combos]
    return k, grid


def assert_ranks_agree(grid):
    expected = rank_oracle.integer_rank(grid)
    assert integer_rank(grid) == expected
    assert rational_rank(grid) == expected


@settings(max_examples=150, deadline=None)
@given(matrices(sparse_signs, 14, 14))
def test_sparse_sign_matrices(grid):
    assert_ranks_agree(grid)


@settings(max_examples=100, deadline=None)
@given(matrices(dense_small))
def test_dense_matrices(grid):
    assert_ranks_agree(grid)


@settings(max_examples=100, deadline=None)
@given(deficient())
def test_rank_deficient_matrices(case):
    k, grid = case
    assert_ranks_agree(grid)
    assert integer_rank(grid) <= k


@settings(max_examples=100, deadline=None)
@given(matrices(huge, 8, 8))
def test_entries_near_two_to_the_seventy(grid):
    assert_ranks_agree(grid)


rational_entries = st.one_of(
    st.integers(-6, 6),
    st.integers(-6, 6).map(lambda n: Fraction(n, 1)),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6)))


@settings(max_examples=150, deadline=None)
@given(matrices(rational_entries, 8, 8))
def test_rational_rank_with_integral_fractions(grid):
    assert rational_rank(grid) == rank_oracle.rational_rank(grid)


@settings(max_examples=100, deadline=None)
@given(deficient(), st.lists(st.integers(1, 12), min_size=12, max_size=12))
def test_rational_rank_deficient(case, divisors):
    # row i divided by divisors[i]: each row keeps its direction, and its
    # entries are Fractions, integral ones included, of mixed denominators
    k, grid = case
    scaled = [[Fraction(x, d) for x in row] for row, d in zip(grid, divisors)]
    assert rational_rank(scaled) == rank_oracle.rational_rank(scaled) == \
        rank_oracle.integer_rank(grid)


@settings(max_examples=150, deadline=None)
@given(matrices(st.sampled_from((0,) * 6 + (1, -1, 2, -3, 5)), 14, 10),
       st.randoms(use_true_random=False), st.lists(st.integers(1, 4), min_size=14))
def test_growing_echelon_rank_after_every_chunk(grid, rng, chunks):
    # the rows in a random order and the columns under random keys, fed to
    # one echelon a chunk at a time, as the windows feed new cells per radius
    order = list(range(len(grid)))
    rng.shuffle(order)
    keys = rng.sample(range(1000), len(grid[0]) if grid else 0)
    pivots: dict = {}
    fed = []
    for size in chunks:
        batch, order = order[:size], order[size:]
        for i in batch:
            before = rank_oracle.integer_rank([grid[f] for f in fed])
            fed.append(i)
            grew = reduce_row(pivots, {keys[j]: x for j, x in enumerate(grid[i]) if x})
            assert grew == (rank_oracle.integer_rank([grid[f] for f in fed]) > before)
        assert len(pivots) == rank_oracle.integer_rank([grid[f] for f in fed])
        if not order:
            break
    assert len(pivots) == rank_oracle.integer_rank(grid)


def test_rows_of_integral_fractions_pass_as_numerators():
    grid = [[Fraction(2, 1), Fraction(4, 1)], [1, 2], [Fraction(3), Fraction(1, 2)]]
    assert rational_rank(grid) == rank_oracle.rational_rank(grid) == 2


def test_empty_shapes():
    for grid in ([], [[]], [[], [], []], [[0, 0, 0]], [[0], [0]]):
        assert integer_rank(grid) == rational_rank(grid) == 0 == \
            rank_oracle.integer_rank(grid)


def test_window_shaped_matrices():
    # banded, about 2% nonzero with entries +-1, like the window matrices
    rng = random.Random(5)
    for rows, cols in ((60, 80), (120, 90), (150, 200)):
        grid = [[0] * cols for _ in range(rows)]
        for i in range(rows):
            for _ in range(max(1, cols // 50)):
                j = min(cols - 1, max(0, i * cols // rows + rng.randint(-6, 6)))
                grid[i][j] = rng.choice((1, -1))
        assert_ranks_agree(grid)


# -- the callers under the oracle --------------------------------------------


def halved(make, degree):
    """The complex of ``make`` with d_degree scaled by 1/2: d o d = 0
    still holds, the entries become Fractions, and no rank changes."""
    def build():
        cx = make()
        diffs = list(cx.differentials)
        d = diffs[degree - 1]
        diffs[degree - 1] = LaurentMatrix(
            d.nvars, d.rows, d.cols,
            [[p.scale(Fraction(1, 2)) for p in row] for row in d.entries])
        return TwistedComplex(cx.nvars, cx.ranks, tuple(diffs))
    return build


def proportional_columns():
    # d_1 = [[1, 2t], [1/2, t]]: the column of cell (1, v) is twice that of
    # cell (0, v + 1), which clearing each entry's denominator on its own
    # would lose
    t = LaurentPolynomial.variable(0, 1)
    one, half = LaurentPolynomial.one(1), LaurentPolynomial.constant(1, Fraction(1, 2))
    return TwistedComplex(1, (2, 2), (LaurentMatrix(1, 2, 2, [[one, t.scale(2)],
                                                               [half, t]]),))


def kernel_workload_s2_cubed():
    # the map onto Z of the benchmark's kernel workload, one block per factor
    nu = (1, 1, 0, 1, 1, -1, 0, -1, 0, 1, 1, 1)
    return univariate_model(direct_product([surface_group(2)] * 3),
                            [(x,) for x in nu])


def s2_times_s2_onto_z2():
    # the pencil map: the first two generators of each factor onto Z^2
    return univariate_model(direct_product([surface_group(2)] * 2),
                            [(1, 0), (0, 1), (0, 0), (0, 0)] * 2)


def genus_2_onto_z2():
    return univariate_model(surface_group(2), [(1, 0), (0, 1), (0, 0), (0, 0)])


WINDOW_CASES = [
    (bb_f2xf2, 6),
    (lambda: univariate_model(surface_group(1), [(1,), (0,)]), 6),
    (lambda: univariate_model(surface_group(2), [(1,), (0,), (0,), (0,)]), 6),
    (lambda: univariate_model(free_group(2), [(1,), (1,)]), 6),
    (genus_2_onto_z2, 4),
    (kernel_workload_s2_cubed, 5),
    (s2_times_s2_onto_z2, 3),
    (halved(bb_f2xf2, 2), 6),
    (halved(genus_2_onto_z2, 1), 4),
    (proportional_columns, 4),
]


def test_window_homology_under_the_oracle():
    # the shipped windows grow one sparse echelon per degree across the
    # radii; the oracle recomputes every radius from scratch on dense grids
    for make, radius in WINDOW_CASES:
        cx = make()
        assert window_homology(cx, radius) == window_oracle.window_homology(cx, radius)


def test_reduced_homology_under_the_oracle():
    # the shipped boundaries are sparse rows in one echelon per degree; the
    # oracle fills each boundary matrix in and ranks it by Bareiss
    rng = random.Random(11)
    graphs = [octahedron_graph(), cycle_graph(5), complete_graph(4)] + [
        Graph.from_edges(8, [e for e in combinations(range(8), 2)
                             if rng.random() < 0.5]) for _ in range(6)]
    shipped = [reduced_homology(flag_complex(g)) for g in graphs]
    assert shipped == [rank_oracle.reduced_homology(flag_complex(g)) for g in graphs]
    assert shipped[:3] == [(0, 0, 1), (0, 1), (0, 0, 0, 0)]
