import random
from fractions import Fraction

from sympy import ZZ, Matrix
from sympy.matrices.normalforms import smith_normal_form as sympy_smith

from charvar.intlinalg import (integer_rank, mat_mul, rational_rank,
                               smith_normal_form)


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
        d, u, v, uinv, vinv = smith_normal_form(a)
        assert mat_mul(mat_mul(u, a), v) == d
        assert mat_mul(mat_mul(uinv, d), vinv) == a
        diag = [d[i][i] for i in range(min(rows, cols))]
        # divisibility chain and zero off-diagonal
        for i in range(len(diag) - 1):
            if diag[i + 1]:
                assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert d[i][j] == 0
        assert sum(1 for x in diag if x) == integer_rank(a)


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
