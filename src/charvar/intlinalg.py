"""Exact integer and rational linear algebra: rank over Q by sparse
fraction-free row reduction (``reduce_row``, one step that the windows of
``complexes`` share), rank mod a prime, and Smith form.

Matrices are plain lists of lists.  One Smith elimination serves every
Euclidean domain this package uses, described by an ``EuclideanRing``: the
integers here, and Q[t, t^-1] in ``lmatrix``.  It records the four
transformation matrices U, V, U^-1, V^-1 only when asked; the integer
Smith normal form asks, so U*A*V = D and A = Uinv*D*Vinv hold exactly
over Z.
"""

from __future__ import annotations

from itertools import compress
from math import gcd, lcm
from operator import attrgetter
from typing import Callable, NamedTuple

_numerator = attrgetter("numerator")
_denominator = attrgetter("denominator")


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        for k in range(inner):
            x = ai[k]
            if x:
                bk = b[k]
                oi = out[i]
                for j in range(cols):
                    oi[j] += x * bk[j]
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
    pivot row leads where the row does, row <- (a/g)*row - (b/g)*pivot, a
    and b the leading entries and g = gcd(a, b), and the row is divided by
    its content.  Each step is invertible over Q, so the echelon's size is
    the rank of the rows fed to it, in any order and any number of calls;
    primitive rows grow their entries only as far as their lines need.
    """
    while row:
        content = gcd(*row.values())
        if content != 1:
            row = {j: x // content for j, x in row.items()}
        lead = min(row)
        pivot = pivots.get(lead)
        if pivot is None:
            pivots[lead] = row
            return True
        a, b = pivot[lead], row[lead]
        g = gcd(a, b)
        a, b = a // g, b // g
        if a != 1:
            row = {j: x * a for j, x in row.items()}
        for j, x in pivot.items():
            y = row.get(j, 0) - b * x
            if y:
                row[j] = y
            else:
                del row[j]
    return False


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


class EuclideanRing(NamedTuple):
    """What the Smith elimination needs to know about a Euclidean domain.

    ``divmod(a, b)`` returns (q, r) with a = q*b + r and r zero or of
    smaller ``size`` than b.  ``normalise(a)`` returns a pair (unit, its
    inverse) taking a nonzero a to its canonical associate a*unit, or None
    when a is canonical already.  Zero elements must be falsy.
    """

    zero: object
    one: object
    divmod: Callable
    size: Callable
    normalise: Callable


INTEGERS = EuclideanRing(0, 1, divmod, abs,
                         lambda a: (-1, -1) if a < 0 else None)


def smith_normal_form(matrix):
    """Integer Smith normal form with full transform bookkeeping.

    Returns (D, U, V, Uinv, Vinv) with U*A*V = D, A = Uinv*D*Vinv, D diagonal
    with nonnegative entries forming a divisibility chain.
    """
    return _smith_form(matrix, INTEGERS, transforms=True)


def _smith_form(matrix, ring: EuclideanRing, transforms: bool):
    """Diagonalize over a Euclidean domain by elementary row and column
    operations.  Returns (D, U, V, Uinv, Vinv); the last four are None
    unless ``transforms``, and then U*A*V = D and A = Uinv*D*Vinv.  The
    nonzero diagonal entries of D are canonical (see ``normalise``) and
    each divides the next.

    Step order: the smallest nonzero entry of the remaining block becomes
    the pivot (row-major ties), rows then columns are cleared by Euclidean
    steps, and an entry the pivot does not divide has its row added to the
    pivot row before a new pivot search.  The integer U fixes the H_1
    coordinates that every printed character is written in, so this order
    must not change.
    """
    m = [list(row) for row in matrix]
    rows = len(m)
    cols = len(m[0]) if m else 0
    zero, one = ring.zero, ring.one

    def identity(n):
        return [[one if i == j else zero for j in range(n)] for i in range(n)]

    u = uinv = v = vinv = None
    if transforms:
        u, uinv, v, vinv = identity(rows), identity(rows), identity(cols), identity(cols)
    # row operations act on the rows of m and u, and inversely on the
    # columns of uinv; column operations likewise on v and vinv
    row_grids = (m, u) if transforms else (m,)
    col_grids = (m, v) if transforms else (m,)

    def row_add(dst, src, k):
        # row_dst += k * row_src
        for grid in row_grids:
            grid[dst] = [a + k * b if b else a for a, b in zip(grid[dst], grid[src])]
        if transforms:
            for r in uinv:
                r[src] = r[src] - k * r[dst]

    def row_swap(i, j):
        for grid in row_grids:
            grid[i], grid[j] = grid[j], grid[i]
        if transforms:
            for r in uinv:
                r[i], r[j] = r[j], r[i]

    def col_add(dst, src, k):
        # col_dst += k * col_src
        for grid in col_grids:
            for r in grid:
                if r[src]:
                    r[dst] = r[dst] + k * r[src]
        if transforms:
            vinv[src] = [a - k * b if b else a for a, b in zip(vinv[src], vinv[dst])]

    def col_swap(i, j):
        for grid in col_grids:
            for r in grid:
                r[i], r[j] = r[j], r[i]
        if transforms:
            vinv[i], vinv[j] = vinv[j], vinv[i]

    def normalise_pivot(s):
        # multiply row s by the unit that makes the pivot canonical
        units = ring.normalise(m[s][s])
        if units is None:
            return
        unit, inverse = units
        for grid in row_grids:
            grid[s] = [a * unit for a in grid[s]]
        if transforms:
            for r in uinv:
                r[s] = r[s] * inverse

    def find_pivot(s):
        best = best_size = None
        for i in range(s, rows):
            for j in range(s, cols):
                if m[i][j]:
                    size = ring.size(m[i][j])
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
                    q, _ = ring.divmod(m[i][s], m[s][s])
                    row_add(i, s, -q)
                    if m[i][s]:
                        row_swap(s, i)
                        normalise_pivot(s)
                        dirty = True
            for j in range(s + 1, cols):
                if m[s][j]:
                    q, _ = ring.divmod(m[s][j], m[s][s])
                    col_add(j, s, -q)
                    if m[s][j]:
                        col_swap(s, j)
                        normalise_pivot(s)
                        dirty = True
        # force divisibility of the remaining block by the pivot
        offender = next((i for i in range(s + 1, rows) for j in range(s + 1, cols)
                         if m[i][j] and ring.divmod(m[i][j], m[s][s])[1]), None)
        if offender is not None:
            row_add(s, offender, one)
            continue
        s += 1

    return m, u, v, uinv, vinv
