"""Reference ranks by dense fraction-free Bareiss elimination.

The shipped ``charvar.intlinalg.integer_rank`` reduces sparse rows against
primitive pivot rows.  This module keeps the textbook dense route: below
each pivot every remaining row is rewritten across every remaining column
and divided exactly by the previous pivot, so the tests can compare the
two ranks on any matrix.

``window_homology`` is the reference for the shipped windows, which grow
one sparse echelon per degree across the radii: here every radius is
computed from scratch, its kept cells found by set membership and each
restricted differential ranked as a dense grid.

``reduced_homology`` is the reference for the shipped flag-complex
homology, which reduces each simplex's boundary as a sparse row: here each
boundary matrix is filled in as a dense grid and ranked by Bareiss.
"""

from fractions import Fraction
from itertools import product as iproduct
from operator import add

from charvar.complexes import WindowReport


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


def window_homology(complex_, radius) -> WindowReport:
    """Homology of the windows {0..k}^m, k = 1..radius, each from scratch:
    a cell is kept when its whole boundary is kept one degree down."""
    columns = [[[(r, e, c) for r in range(d.rows)
                 for e, c in d.entries[r][i].terms.items()]
                for i in range(d.cols)] for d in complex_.differentials]
    per_degree = [[] for _ in complex_.ranks]
    for k in range(1, radius + 1):
        for j, dim in enumerate(_window_dims(complex_, columns, k)):
            per_degree[j].append(dim)
    return WindowReport(tuple(range(1, radius + 1)),
                        tuple(tuple(seq) for seq in per_degree))


def _window_dims(complex_, columns, k):
    box = [tuple(v) for v in iproduct(range(k + 1), repeat=complex_.nvars)]
    kept = [{(i, v) for i in range(complex_.ranks[0]) for v in box}]
    for j in range(1, complex_.top + 1):
        prev = kept[j - 1]
        kept.append({(i, v) for i, terms in enumerate(columns[j - 1])
                     for v in box
                     if all((r, tuple(map(add, v, e))) in prev
                            for r, e, _c in terms)})
    ranks = [0] * (complex_.top + 2)
    for j in range(1, complex_.top + 1):
        ranks[j] = _window_rank(columns[j - 1], kept[j], kept[j - 1])
    return [len(kept[j]) - ranks[j] - ranks[j + 1]
            for j in range(complex_.top + 1)]


def _window_rank(columns, cols, rows):
    """Rank of d_j restricted to the kept cells ``cols`` and ``rows``."""
    if not cols or not rows:
        return 0
    row_index = {cell: idx for idx, cell in enumerate(sorted(rows))}
    grid = [[0] * len(cols) for _ in range(len(row_index))]
    for cidx, (i, v) in enumerate(sorted(cols)):
        for r, e, coeff in columns[i]:
            grid[row_index[(r, tuple(map(add, v, e)))]][cidx] += coeff
    return rational_rank(grid)


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
