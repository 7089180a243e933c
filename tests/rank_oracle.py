"""Reference ranks by dense fraction-free Bareiss elimination.

The shipped ``charvar.intlinalg.integer_rank`` reduces sparse rows against
primitive pivot rows.  This module keeps the textbook dense route: below
each pivot every remaining row is rewritten across every remaining column
and divided exactly by the previous pivot, so the tests can compare the
two ranks on any matrix.
"""

from fractions import Fraction


def integer_rank(matrix) -> int:
    """Rank over Q of a matrix of integers, by Bareiss elimination."""
    m = [list(row) for row in matrix]
    rows, cols = len(m), len(m[0]) if m else 0
    rank = 0
    prev = 1
    for col in range(cols):
        pivot_row = None
        for r in range(rank, rows):
            if m[r][col]:
                if pivot_row is None or abs(m[r][col]) < abs(m[pivot_row][col]):
                    pivot_row = r
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        pivot = m[rank][col]
        top = m[rank]
        for r in range(rank + 1, rows):
            factor = m[r][col]
            row = m[r]
            for j in range(col, cols):
                row[j] = (row[j] * pivot - factor * top[j]) // prev
        prev = pivot
        rank += 1
        if rank == min(rows, cols):
            break
    return rank


def rational_rank(matrix) -> int:
    """Rank over Q of a matrix of ints and Fractions: each row is scaled
    by the product of its denominators, then eliminated by Bareiss."""
    cleared = []
    for row in matrix:
        scale = 1
        for x in row:
            scale *= Fraction(x).denominator
        scaled = [Fraction(x) * scale for x in row]
        assert all(x.denominator == 1 for x in scaled)
        cleared.append([int(x) for x in scaled])
    return integer_rank(cleared)
