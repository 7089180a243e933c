import random
from fractions import Fraction
from math import gcd

from sympy import ZZ, Matrix
from sympy.matrices.normalforms import smith_normal_form as sympy_smith

from charvar.intlinalg import (integer_rank, mat_mul, rational_rank,
                               reduce_row, smith_normal_form)


def test_mat_mul_is_the_dense_product():
    rng = random.Random(14)
    shapes = [(0, 0, 0), (0, 3, 2), (2, 0, 3), (3, 2, 0), (1, 1, 1)]
    shapes += [tuple(rng.randint(1, 7) for _ in range(3)) for _ in range(80)]
    for rows, inner, cols in shapes:
        density = rng.choice((0.0, 0.15, 0.5, 1.0))
        a, b = ([[rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(c)]
                 for _ in range(r)] for r, c in ((rows, inner), (inner, cols)))
        width = len(b[0]) if b else 0
        dense = [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(width)]
                 for i in range(rows)]
        assert mat_mul(a, b) == dense


def test_integer_rank_small():
    assert integer_rank([[1, 2], [2, 4]]) == 1
    assert integer_rank([[1, 0], [0, 1]]) == 2
    assert integer_rank([[0, 0], [0, 0]]) == 0
    assert integer_rank([]) == 0


def test_rational_rank_clears_denominators():
    grid = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(2)]]
    assert rational_rank(grid) == 2
    assert rational_rank([[Fraction(1, 2), Fraction(1)],
                          [Fraction(1), Fraction(2)]]) == 1


def test_smith_form_reconstruction():
    rng = random.Random(7)
    for _ in range(60):
        rows = rng.randint(0, 4)
        cols = rng.randint(0, 4)
        a = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        d, u, uinv = smith_normal_form(a)
        diag = [d[i][i] for i in range(min(rows, cols))]
        assert_row_transform(a, u, uinv, diag)
        # divisibility chain and zero off-diagonal
        for i in range(len(diag) - 1):
            if diag[i + 1]:
                assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert d[i][j] == 0
        assert sum(1 for x in diag if x) == integer_rank(a)


def assert_row_transform(a, u, uinv, diag):
    """U is unimodular and U*A = D*W for the diagonal D and an integer W
    whose first rank rows extend to a basis of Z^cols: what a Smith form's
    row transform gives, whatever its column transform was."""
    rows = len(a)
    assert mat_mul(u, uinv) == [[int(i == j) for j in range(rows)] for i in range(rows)]
    ua = mat_mul(u, a) if rows else []
    rank = sum(1 for x in diag if x)
    assert all(x == 0 for row in ua[rank:] for x in row)
    quotients = []
    for i in range(rank):
        assert all(x % diag[i] == 0 for x in ua[i])
        quotients.append([x // diag[i] for x in ua[i]])
    if rank:
        w = sympy_smith(Matrix(quotients), domain=ZZ)
        assert all(abs(int(w[i, i])) == 1 for i in range(rank))


def test_smith_known_values():
    d, *_ = smith_normal_form([[2, 4], [4, 8]])
    assert d[0][0] == 2 and d[1][1] == 0
    d, *_ = smith_normal_form([[1, 0], [0, 6], [0, 0]])
    assert (d[0][0], d[1][1]) == (1, 6)


def test_smith_diagonal_matches_sympy():
    rng = random.Random(11)
    for _ in range(150):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        a = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        d, *_ = smith_normal_form(a)
        oracle = sympy_smith(Matrix(a), domain=ZZ)
        # invariant factors are unique up to sign
        assert [d[i][i] for i in range(min(rows, cols))] == \
            [abs(int(oracle[i, i])) for i in range(min(rows, cols))]


def test_reduce_row_on_non_unit_entries_stores_primitive_pivots():
    # entries with non-unit leads take the scaled step, units and divisors
    # of the row's lead the unscaled one; either way the echelon's size is
    # the rank over Q, and each stored pivot row has content one
    rng = random.Random(23)
    for _ in range(300):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        base = [[rng.choice((0, 0, 1, -1, 2, -3, 4, 6, -9, 12)) for _ in range(cols)]
                for _ in range(rng.randint(1, rows))]
        # integer combinations of the base rows, so many are dependent
        grid = [[sum(c * b[j] for c, b in zip(combo, base)) for j in range(cols)]
                for combo in ([rng.randint(-3, 3) for _ in base] for _ in range(rows))]
        pivots = {}
        grew = [reduce_row(pivots, {j: x for j, x in enumerate(row) if x}) for row in grid]
        assert len(pivots) == sum(grew) == Matrix(grid).rank()
        for lead, row in pivots.items():
            assert lead == min(row) and 0 not in row.values()
            assert gcd(*row.values()) == 1, row
