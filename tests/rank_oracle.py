"""Reference ranks by dense fraction-free Bareiss elimination.

The shipped ``charvar.intlinalg.integer_rank`` reduces sparse rows against
primitive pivot rows.  This module keeps the textbook dense route: below
each pivot every remaining row is rewritten across every remaining column
and divided exactly by the previous pivot, so the tests can compare the
two ranks on any matrix.

``reduced_homology`` is the reference for the shipped flag-complex
homology, which reduces each simplex's boundary as a sparse row: here each
boundary matrix is filled in as a dense grid and ranked by Bareiss.
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
        if any(x.denominator != 1 for x in scaled):
            raise AssertionError(f"row {row} kept a denominator after scaling")
        cleared.append([int(x) for x in scaled])
    return integer_rank(cleared)


def reduced_homology(complex_) -> tuple[int, ...]:
    """Reduced rational Betti numbers from dense boundary matrices, with
    the empty simplex providing the augmentation."""
    by_dim = complex_.simplices()
    if not by_dim:
        return ()
    index = [{s: i for i, s in enumerate(group)} for group in by_dim]
    ranks = [0] * (len(by_dim) + 1)
    ranks[0] = 1 if by_dim[0] else 0
    for d in range(1, len(by_dim)):
        grid = [[0] * len(by_dim[d]) for _ in by_dim[d - 1]]
        for j, simplex in enumerate(by_dim[d]):
            for i in range(len(simplex)):
                face = simplex[:i] + simplex[i + 1:]
                grid[index[d - 1][face]][j] = -1 if i % 2 else 1
        ranks[d] = integer_rank(grid)
    return tuple(len(by_dim[d]) - ranks[d] - ranks[d + 1]
                 for d in range(len(by_dim)))
