"""Reference tensor product of twisted chain complexes.

The shipped route pushes each factor into the joint ring with
``TwistedComplex.specialize`` through its block of the identity, and the one
``charvar.complexes.tensor_complex`` assigns each tensor cell its one entry
from the factors' sparse columns.  This module keeps the textbook route: lift
every cell through the same identity blocks by the polynomial substitution of
``conftest``, then fill a dense grid, every cell the sum of the contributions
of d_A (x) 1 and (-1)^p 1 (x) d_B, so the tests can compare the two cell by
cell.
"""

from itertools import product as iproduct

from charvar.complexes import TwistedComplex
from charvar.laurent import LaurentPolynomial
from charvar.lmatrix import LaurentMatrix
from conftest import substitute_exponents


def tensor_complex(a: TwistedComplex, b: TwistedComplex) -> TwistedComplex:
    ma, mb = a.nvars, b.nvars
    m = ma + mb
    lift_a = [[1 if i == j else 0 for j in range(ma)] for i in range(ma)] + \
             [[0] * ma for _ in range(mb)]
    lift_b = [[0] * mb for _ in range(ma)] + \
             [[1 if i == j else 0 for j in range(mb)] for i in range(mb)]
    da = [_lifted(d, lift_a) for d in a.differentials]
    db = [_lifted(d, lift_b) for d in b.differentials]

    top = a.top + b.top
    ranks = []
    offsets = []
    for k in range(top + 1):
        off = {}
        total = 0
        for p in range(max(0, k - b.top), min(a.top, k) + 1):
            off[p] = total
            total += a.ranks[p] * b.ranks[k - p]
        offsets.append(off)
        ranks.append(total)

    zero = LaurentPolynomial.zero(m)
    diffs = []
    for k in range(1, top + 1):
        grid = [[zero] * ranks[k] for _ in range(ranks[k - 1])]
        for p, col_off in offsets[k].items():
            q = k - p
            for i, j in iproduct(range(a.ranks[p]), range(b.ranks[q])):
                col = col_off + i * b.ranks[q] + j
                if p >= 1 and (p - 1) in offsets[k - 1]:
                    row_off = offsets[k - 1][p - 1]
                    for i2 in range(a.ranks[p - 1]):
                        row = row_off + i2 * b.ranks[q] + j
                        grid[row][col] = grid[row][col] + da[p - 1].entries[i2][i]
                if q >= 1 and p in offsets[k - 1]:
                    row_off = offsets[k - 1][p]
                    for j2 in range(b.ranks[q - 1]):
                        entry = db[q - 1].entries[j2][j]
                        row = row_off + i * b.ranks[q - 1] + j2
                        grid[row][col] = grid[row][col] + (-entry if p % 2 else entry)
        diffs.append(LaurentMatrix(m, ranks[k - 1], ranks[k], grid))

    while ranks and ranks[-1] == 0:
        ranks.pop()
        if diffs:
            diffs.pop()
    return TwistedComplex(m, tuple(ranks), tuple(diffs))


def _lifted(d: LaurentMatrix, lift) -> LaurentMatrix:
    """d pushed through the ring map of ``lift``, cell by cell."""
    return LaurentMatrix(len(lift), d.rows, d.cols,
                         [[substitute_exponents(p, lift) for p in row]
                          for row in d.entries])
