"""Exact integer and rational linear algebra: rank over Q by sparse
fraction-free row reduction (``reduce_row``, one step that the windows of
``complexes`` share: a pivot whose lead divides the row's is subtracted
unscaled, and content is divided out only of a scaled row or a new pivot),
rank mod a prime, and the integer Smith normal form.

The Smith form records the row transforms U and U^-1, whose U fixes the
H_1 coordinates, and no column transform.  The Smith form over
Q[t, t^-1] is a separate elimination in ``lmatrix``.
"""

from __future__ import annotations

from itertools import compress
from math import gcd, lcm
from operator import attrgetter

_numerator = attrgetter("numerator")
_denominator = attrgetter("denominator")


def mat_mul(a, b):
    """The product a b, walking only the nonzero entries of b."""
    cols = len(b[0]) if b else 0
    nonzero = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for ai in a:
        oi = [0] * cols
        for x, bk in zip(ai, nonzero):
            if x:
                for j, y in bk:
                    oi[j] += x * y
        out.append(oi)
    return out


def integer_rank(matrix) -> int:
    """Rank over Q of a matrix of integers: its nonzero entries, row by
    row, reduced into one echelon by ``reduce_row``."""
    pivots: dict[int, dict[int, int]] = {}
    full = min(len(matrix), len(matrix[0]) if matrix else 0)
    for dense in matrix:
        if len(pivots) == full:
            break
        reduce_row(pivots, dict(compress(enumerate(dense), dense)))
    return len(pivots)


def reduce_row(pivots: dict, row: dict) -> bool:
    """Reduce the sparse integer row {key: nonzero x}, keys of any total
    order, into the echelon ``pivots`` (leading key -> primitive row);
    return whether it became a pivot row.  ``row`` is consumed.

    Fraction-free elimination, in the pattern of ``modular_rank``: while a
    pivot row leads where the row does, a and b the leading entries, row <-
    row - (b/a)*pivot when a divides b, as a unit a does, with no gcd and
    no scaling; else row <- (a/g)*row - (b/g)*pivot, g = gcd(a, b), and the
    scaled row is divided by its content, as is a row stored as a pivot.
    Each step is invertible over Q, so the echelon's size is the rank of
    the rows fed to it, in any order and any number of calls; primitive
    rows grow their entries only as far as their lines need.
    """
    while row:
        lead = min(row)
        pivot = pivots.get(lead)
        if pivot is None:
            pivots[lead] = _primitive(row)
            return True
        a, b = pivot[lead], row[lead]
        g = gcd(a, b) if b % a else a
        a, b = a // g, b // g
        if a != 1:
            row = {j: x * a for j, x in row.items()}
        for j, x in pivot.items():
            y = row.get(j, 0) - b * x
            if y:
                row[j] = y
            else:
                del row[j]
        if a != 1 and row:
            row = _primitive(row)
    return False


def _primitive(row: dict) -> dict:
    """The nonzero integer row divided by its content."""
    content = gcd(*row.values())
    return row if content == 1 else {j: x // content for j, x in row.items()}


def rational_rank(matrix) -> int:
    """Rank of a matrix of rationals (ints and Fractions), by clearing
    denominators per row."""
    return integer_rank([clear_denominators(row) for row in matrix])


def clear_denominators(values) -> list[int]:
    """Rationals scaled by the lcm of their denominators, as ints; a
    nonzero scaling leaves a vector's line unchanged.  Integral values,
    ``Fraction(2, 1)`` included, pass as their numerators."""
    denom = lcm(*map(_denominator, values))
    if denom == 1:
        return list(map(_numerator, values))
    return [x.numerator * (denom // x.denominator) for x in values]


def modular_rank(rows, cols: int, p: int) -> int:
    """Rank over the prime field F_p of a matrix of integers with ``cols``
    columns, given as sparse rows {column: value}.

    Gaussian elimination: each row is reduced by the pivot rows found so
    far, leading column first, and becomes a new pivot row if anything is
    left of it.
    """
    pivots: dict[int, dict[int, int]] = {}  # leading column -> monic row
    full = min(len(rows), cols)
    for given in rows:
        row = {j: x % p for j, x in given.items() if x % p}
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                inverse = pow(row[lead], -1, p)
                pivots[lead] = {j: x * inverse % p for j, x in row.items()}
                break
            factor = row[lead]
            for j, x in pivot.items():
                y = (row.get(j, 0) - factor * x) % p
                if y:
                    row[j] = y
                else:
                    del row[j]
        if len(pivots) == full:
            break
    return len(pivots)


def smith_normal_form(matrix):
    """Integer Smith normal form with its row transforms.

    Returns (D, U, Uinv): D is U*A after column operations, diagonal with
    nonnegative entries forming a divisibility chain, and Uinv = U^-1.
    Column operations act on the working grid alone.

    Step order: the smallest nonzero entry of the remaining block becomes
    the pivot (row-major ties), rows then columns are cleared by Euclidean
    steps, and an entry the pivot does not divide has its row added to the
    pivot row before a new pivot search.  U fixes the H_1 coordinates that
    every printed character is written in, so this order must not change.
    """
    m = [list(row) for row in matrix]
    rows = len(m)
    cols = len(m[0]) if m else 0

    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    uinv = [list(r) for r in u]

    # row operations act on the rows of m and u, and inversely on the
    # columns of uinv
    def row_add(dst, src, k):
        # row_dst += k * row_src
        for grid in (m, u):
            grid[dst] = [a + k * b if b else a for a, b in zip(grid[dst], grid[src])]
        for r in uinv:
            r[src] = r[src] - k * r[dst]

    def row_swap(i, j):
        for grid in (m, u):
            grid[i], grid[j] = grid[j], grid[i]
        for r in uinv:
            r[i], r[j] = r[j], r[i]

    def col_add(dst, src, k):
        # col_dst += k * col_src
        for r in m:
            if r[src]:
                r[dst] = r[dst] + k * r[src]

    def col_swap(i, j):
        for r in m:
            r[i], r[j] = r[j], r[i]

    def normalise_pivot(s):
        # a negative pivot's row is negated, and so is its column of uinv
        if m[s][s] < 0:
            for grid in (m, u):
                grid[s] = [-a for a in grid[s]]
            for r in uinv:
                r[s] = -r[s]

    def find_pivot(s):
        best = best_size = None
        for i in range(s, rows):
            for j in range(s, cols):
                if m[i][j]:
                    size = abs(m[i][j])
                    if best is None or size < best_size:
                        best, best_size = (i, j), size
        return best

    s = 0
    while s < min(rows, cols):
        pos = find_pivot(s)
        if pos is None:
            break
        if pos[0] != s:
            row_swap(s, pos[0])
        if pos[1] != s:
            col_swap(s, pos[1])
        normalise_pivot(s)
        # clear the edging below and to the right of the pivot
        dirty = True
        while dirty:
            dirty = False
            for i in range(s + 1, rows):
                if m[i][s]:
                    row_add(i, s, -(m[i][s] // m[s][s]))
                    if m[i][s]:
                        row_swap(s, i)
                        normalise_pivot(s)
                        dirty = True
            for j in range(s + 1, cols):
                if m[s][j]:
                    col_add(j, s, -(m[s][j] // m[s][s]))
                    if m[s][j]:
                        col_swap(s, j)
                        normalise_pivot(s)
                        dirty = True
        # force divisibility of the remaining block by the pivot
        offender = next((i for i in range(s + 1, rows) for j in range(s + 1, cols)
                         if m[i][j] and m[i][j] % m[s][s]), None)
        if offender is not None:
            row_add(s, offender, 1)
            continue
        s += 1

    return m, u, uinv
