import random
from fractions import Fraction

from charvar.laurent import LaurentPolynomial
from charvar.lmatrix import LaurentMatrix
from charvar.words import Word


def random_word(rng: random.Random, ngens: int, max_len: int) -> Word:
    letters = []
    for _ in range(rng.randint(0, max_len)):
        letters.append((rng.randrange(ngens), rng.choice((1, -1))))
    return Word(letters)


def laurent_matrix(nvars: int, rows) -> LaurentMatrix:
    """The matrix with the given rows of Laurent polynomials."""
    rows = [list(r) for r in rows]
    return LaurentMatrix(nvars, len(rows), len(rows[0]) if rows else 0, rows)


def zero_matrix(nvars: int, rows: int, cols: int) -> LaurentMatrix:
    return laurent_matrix(nvars, [[LaurentPolynomial.zero(nvars)] * cols
                                  for _ in range(rows)])


def monic_univariate(p: LaurentPolynomial) -> LaurentPolynomial:
    """For one variable: the monic polynomial with nonzero constant term
    that generates the same ideal as p."""
    if not p.terms:
        return p
    lo, _ = p.exponent_range(0)
    shifted = p.shift((-lo,))
    _, lead = shifted.leading()
    return shifted.scale(Fraction(1, lead))
