"""Reference windows of the Z^m-cover, built literally from the kept-cell
definition and ranked by sympy.

The shipped ``charvar.complexes.window_homology`` reads which radius keeps
a cell from per-column closure bounds and grows one sparse echelon per
degree across the radii.  Here every radius k is computed from scratch:
the cells (i, v), v in the box {0..k}^m, are kept degree by degree, a cell
when every cell of its boundary is kept one degree down, and each
differential restricted to the kept cells is filled in as a dense matrix
over QQ and ranked by sympy's ``DomainMatrix``, so no rank comes from the
package's own elimination.
"""

from itertools import product as iproduct
from operator import add

from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from charvar.complexes import WindowReport


def window_homology(complex_, radius) -> WindowReport:
    """Homology of the windows {0..k}^m, k = 1..radius, each from scratch."""
    per_degree = [[] for _ in complex_.ranks]
    for kept, ranks in window_counts(complex_, radius):
        for j, seq in enumerate(per_degree):
            seq.append(kept[j] - ranks[j] - ranks[j + 1])
    return WindowReport(tuple(range(1, radius + 1)),
                        tuple(tuple(seq) for seq in per_degree))


def window_counts(complex_, radius) -> list[tuple[list[int], list[int]]]:
    """Per radius k = 1..radius, the number of kept cells in each degree and
    the rank of each d_j on the window, j = 0..top + 1 (d_0 = d_(top+1) = 0)."""
    # column i of d_j as its boundary terms (row r, exponent e, coefficient)
    columns = [[[(r, e, c) for r in range(d.rows) for e, c in d.entries[r][i].terms.items()]
                for i in range(d.cols)] for d in complex_.differentials]
    counts = []
    for k in range(1, radius + 1):
        box = [tuple(v) for v in iproduct(range(k + 1), repeat=complex_.nvars)]
        kept = [[(i, v) for i in range(complex_.ranks[0]) for v in box]]
        for cols in columns:
            below = set(kept[-1])
            kept.append([(i, v) for i, terms in enumerate(cols) for v in box
                         if all((r, tuple(map(add, v, e))) in below for r, e, _c in terms)])
        ranks = [0] * (complex_.top + 2)
        for j, cols in enumerate(columns, start=1):
            ranks[j] = _rank(cols, kept[j], kept[j - 1])
        counts.append(([len(cells) for cells in kept], ranks))
    return counts


def _rank(columns, cells, rows) -> int:
    """Rank over Q of d_j restricted to the kept ``cells`` and ``rows``."""
    if not cells or not rows:
        return 0
    index = {cell: n for n, cell in enumerate(rows)}
    grid = [[QQ(0)] * len(cells) for _ in rows]
    for n, (i, v) in enumerate(cells):
        for r, e, c in columns[i]:
            grid[index[r, tuple(map(add, v, e))]][n] += QQ(c.numerator, c.denominator)
    return DomainMatrix(grid, (len(rows), len(cells)), QQ).rank()
