"""Matrices over the Laurent polynomial ring: rank, minors, Smith form.

A ``LaurentMatrix`` stores only its nonzero cells, which is all that
products, transposes, evaluation, ring maps and the d o d = 0 check read;
generic rank, Smith form and minors build a dense grid from them.

Rank at a rational character evaluates first and eliminates over Q
(``intlinalg.rational_rank``, a sparse fraction-free row reduction).  Rank
at the generic point eliminates over the fraction field with
Laurent-polynomial pivots: cross-multiplication, exact division by the
previous pivot to control entry growth, and unit-content stripping by
``laurent.strip_row_units`` (rational content and monomial factors are
units here, so stripping preserves exact divisibility up to units).
One division serves the ring: ``LaurentPolynomial.divide``, by lex leading
terms, is the exact step of generic rank (``exact_divide``) and Euclid's
step over Q[t, t^-1] (``univariate_divmod``).
``evaluate_mod`` reduces a matrix mod a prime at a point of the torus over
F_p, which gives the ranks mod p of the modular sandwich.

Over the univariate ring Q[t, t^-1], ``smith_univariate`` eliminates to a
diagonal by unit scalings and leading-term steps on primitive rows in
Z[t, t^-1], so no coefficient leaves the integers or swells (the
primitive remainders of W. S. Brown, J. ACM 18, 1971).  Torsion over this
ring is carried as runs, (order, multiplicity) pairs ascending in
divisibility, so work scales with the distinct orders, not the summands.
``_invariant_factors`` turns runs of cyclic summands into the chain's
runs, and is the one assembly of every chain over this ring: the Smith
diagonal, counted, and the Kunneth fold of ``GroupModel.kernel_homology``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, gcd
from operator import mul

from .errors import InternalInconsistency, NotUnivariate, TooManyMinors, VariableCountMismatch
from .intlinalg import rational_rank
from .laurent import Character, LaurentPolynomial, _make, strip_row_units

DEFAULT_MINOR_CEILING = 20000


class LaurentMatrix:
    """A rows x cols matrix over the Laurent ring in ``nvars`` variables,
    never mutated once built, stored as sparse rows: ``sparse_rows[i]``
    maps column j to entry (i, j) for exactly the nonzero entries of row i,
    so no zero cell is stored.  The constructor checks a dense grid and
    converts it once; ``_from_rows`` trusts the sparse rows it is given.
    ``entries`` is a read-only dense view, built on its first read."""

    __slots__ = ("nvars", "rows", "cols", "sparse_rows", "_entries")

    def __init__(self, nvars: int, rows: int, cols: int, entries):
        grid = [tuple(row) for row in entries]
        if len(grid) != rows or any(len(r) != cols for r in grid):
            raise ValueError("entry grid does not match the declared shape")
        for row in grid:
            for p in row:
                if p.nvars != nvars:
                    raise VariableCountMismatch(
                        f"entry with {p.nvars} variables in a {nvars}-variable matrix")
        self.nvars, self.rows, self.cols, self._entries = nvars, rows, cols, None
        self.sparse_rows = tuple({j: p for j, p in enumerate(row) if p.terms} for row in grid)

    @classmethod
    def _from_rows(cls, nvars: int, rows: int, cols: int, sparse_rows) -> "LaurentMatrix":
        """The matrix with these sparse rows, {column: nonzero entry}, unchecked."""
        matrix = cls.__new__(cls)
        matrix.nvars, matrix.rows, matrix.cols, matrix._entries = nvars, rows, cols, None
        matrix.sparse_rows = tuple(sparse_rows)
        return matrix

    @property
    def entries(self) -> tuple[tuple[LaurentPolynomial, ...], ...]:
        if self._entries is None:
            self._entries = tuple(map(tuple, _dense_rows(self)))
        return self._entries

    def transpose(self) -> "LaurentMatrix":
        out: list[dict] = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.sparse_rows):
            for j, p in row.items():
                out[j][i] = p
        return LaurentMatrix._from_rows(self.nvars, self.cols, self.rows, out)

    def __matmul__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        """The exact product over the Laurent ring: the accumulation of
        ``packed_row_products`` on the two matrices, each key decoded back
        into a column and an exponent vector."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        if self.nvars != other.nvars:
            raise VariableCountMismatch(f"{self.nvars} vs {other.nvars} variables")
        nvars = self.nvars
        box, (left, right) = packed_rows(nvars, (self, other))
        out = []
        for sums in packed_row_products(left, right, box.span):
            cells: dict[int, dict] = {}
            for key, c in sums.items():
                if c:
                    j, packed = divmod(key, box.span)
                    cells.setdefault(j, {})[box.unpack_sum(packed)] = c
            out.append({j: _make(nvars, terms) for j, terms in cells.items()})
        return LaurentMatrix._from_rows(nvars, self.rows, other.cols, out)

    def substitute_exponents(self, matrix) -> "LaurentMatrix":
        """Apply the ring map t^e -> s^(M e) to every entry.  Each distinct
        exponent vector is mapped once; terms may merge or cancel, and an
        entry that cancels to zero is dropped."""
        nvars = len(matrix)
        images: dict[tuple[int, ...], tuple[int, ...]] = {}
        out: list[dict] = []
        for row in self.sparse_rows:
            out.append({})
            for j, p in row.items():
                terms: dict = {}
                for e, c in p.terms.items():
                    if e not in images:
                        images[e] = tuple([sum(map(mul, m_row, e)) for m_row in matrix])
                    terms[images[e]] = terms.get(images[e], 0) + c
                if any(terms.values()):
                    out[-1][j] = _make(nvars, {e: c for e, c in terms.items() if c})
        return LaurentMatrix._from_rows(nvars, self.rows, self.cols, out)

    def evaluate(self, character: Character) -> list[list[int | Fraction]]:
        """The entries at a rational character, as ints and Fractions."""
        out = []
        for row in self.sparse_rows:
            values = [0] * self.cols
            for j, p in row.items():
                values[j] = p.evaluate(character)
            out.append(values)
        return out

    def evaluate_mod(self, point, prime: int) -> list[dict[int, int]] | None:
        """The rows reduced mod ``prime`` at a point of (F_p^*)^n, as sparse
        rows {column: value} of their nonzero values in [1, prime), or None
        when the prime divides a coefficient's denominator: reduction mod p
        is a ring map only on the others."""
        if len(point) != self.nvars:
            raise VariableCountMismatch(
                f"point has {len(point)} coordinates, matrix {self.nvars}")
        if any(x % prime == 0 for x in point):
            raise ValueError("point coordinates must be nonzero mod the prime")
        out = []
        for row in self.sparse_rows:
            values = {}
            for j, p in row.items():
                total = 0
                for exps, coeff in p.terms.items():
                    if coeff.__class__ is not int:
                        if coeff.denominator % prime == 0:
                            return None
                        coeff = coeff.numerator * pow(coeff.denominator, -1, prime)
                    for x, e in zip(point, exps):
                        if e:
                            coeff = coeff * pow(x, e, prime) % prime
                    total += coeff
                total %= prime
                if total:
                    values[j] = total
            out.append(values)
        return out

    def __eq__(self, other) -> bool:
        return (isinstance(other, LaurentMatrix)
                and (self.nvars, self.rows, self.cols) == (other.nvars, other.rows, other.cols)
                and self.sparse_rows == other.sparse_rows)

    def __hash__(self):
        return hash((self.nvars, self.rows, self.cols,
                     tuple(frozenset(row.items()) for row in self.sparse_rows)))

    def to_text_rows(self) -> list[list[str]]:
        return [[p.to_text() for p in row] for row in self.entries]

    def __repr__(self) -> str:
        return f"LaurentMatrix({self.rows}x{self.cols}, {self.nvars} vars)"


def _dense_rows(matrix: LaurentMatrix) -> list[list[LaurentPolynomial]]:
    """The dense grid of ``matrix`` as fresh lists, every zero cell one
    shared zero."""
    zero = LaurentPolynomial.zero(matrix.nvars)
    return [[row.get(j, zero) for j in range(matrix.cols)] for row in matrix.sparse_rows]


# -- exact sparse products on packed exponents ---------------------------------


class ExponentBox:
    """Exponent vectors packed into ints, injectively on sums of two.

    Every exponent vector e the box was made for has lo_i <= e_i <= hi_i.
    Variable i gets the width w_i = 2 (hi_i - lo_i) + 1 and the weight
    W_i = w_0 ... w_(i-1), and e packs to sum_i (e_i - lo_i) W_i.  The
    packed sum of two such vectors e, e' has the digit e_i + e'_i - 2 lo_i,
    which lies in [0, w_i), at weight W_i: it is a mixed-radix numeral, so
    two sums pack alike exactly when they are equal, and every packed sum
    lies in [0, span) with span = w_0 ... w_(m-1).  Python ints are
    unbounded, so a large span never overflows."""

    __slots__ = ("lo", "widths", "weights", "span")

    def __init__(self, nvars: int, exponents):
        if exponents:
            lo = tuple(map(min, zip(*exponents)))
            hi = tuple(map(max, zip(*exponents)))
        else:
            lo = hi = (0,) * nvars
        self.lo = lo
        self.widths = tuple(2 * (h - low) + 1 for low, h in zip(lo, hi))
        weights = []
        span = 1
        for w in self.widths:
            weights.append(span)
            span *= w
        self.weights = tuple(weights)
        self.span = span

    def pack(self, exponents) -> int:
        return sum((e - low) * w for e, low, w in zip(exponents, self.lo, self.weights))

    def unpack_sum(self, packed: int) -> tuple[int, ...]:
        """The exponent vector e + e' of a packed sum of two packed vectors."""
        out = []
        for low, w in zip(self.lo, self.widths):
            packed, digit = divmod(packed, w)
            out.append(digit + 2 * low)
        return tuple(out)


def packed_rows(nvars: int, matrices):
    """One ``ExponentBox`` for all the exponents of ``matrices``, and each
    matrix as packed sparse rows: row i is the list of (k, [(packed
    exponent, coefficient), ...]) over the nonzero entries a_ik."""
    exponents: set = set()
    for m in matrices:
        for row in m.sparse_rows:
            for p in row.values():
                exponents.update(p.terms)
    box = ExponentBox(nvars, exponents)
    code = {e: box.pack(e) for e in exponents}
    return box, [[[(k, [(code[e], c) for e, c in p.terms.items()]) for k, p in row.items()]
                  for row in m.sparse_rows] for m in matrices]


def packed_row_products(left, right, span: int):
    """The rows of the product of two matrices in the sparse rows of
    ``packed_rows`` (one box for both), one at a time: for each row i of
    ``left``, the map {j * span + packed sum: coefficient} that sums every
    term product a_ik b_kj.  By the box, each value is exactly the
    coefficient of one monomial in cell (i, j); keys whose products cancel
    stay, with value zero."""
    # row k of the right factor flattened: its column folds into the key
    flat = [[(j * span + e, c) for j, terms in row for e, c in terms] for row in right]
    for row in left:
        sums: dict[int, int | Fraction] = {}
        get = sums.get
        for k, a_terms in row:
            b_terms = flat[k]
            for ea, ca in a_terms:
                for eb, cb in b_terms:
                    key = ea + eb
                    sums[key] = get(key, 0) + ca * cb
        yield sums


def rank_at(matrix: LaurentMatrix, character: Character) -> int:
    """Rank of the evaluated matrix at a rational character, or the rank
    over the fraction field at the generic point.  The generic rank bounds
    every pointwise rank from above and is attained on a nonempty Zariski
    open set.

    A lone matrix at the generic point is always eliminated symbolically.
    The differentials of a complex get their generic ranks from
    ``complexes.generic_ranks``, which pins most of them by the modular
    sandwich (ranks mod a prime at one point, bounded above through
    d o d = 0) and comes here only for a rank that sandwich leaves open."""
    if character.is_generic:
        return generic_rank(matrix)
    return rational_rank(matrix.evaluate(character))


def generic_rank(matrix: LaurentMatrix) -> int:
    rows = _dense_rows(matrix)
    nr, nc = matrix.rows, matrix.cols
    if nr == 0 or nc == 0:
        return 0
    one = LaurentPolynomial.one(matrix.nvars)
    prev = one
    rank = 0
    for col in range(nc):
        pivot = None
        for r in range(rank, nr):
            p = rows[r][col]
            if p.terms and (pivot is None or len(p.terms) < len(rows[pivot][col].terms)):
                pivot = r
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        p = rows[rank][col]
        top = rows[rank]
        for r in range(rank + 1, nr):
            f = rows[r][col]
            new_row = [rows[r][j] * p - f * top[j] for j in range(nc)]
            if not prev.is_one():
                # exact by Sylvester's identity: rows are only ever divided by units
                new_row = [q.exact_divide(prev) for q in new_row]
                if None in new_row:
                    raise InternalInconsistency("inexact Bareiss step in generic_rank")
            rows[r] = strip_row_units(new_row)
        prev = p
        rank += 1
        if rank == min(nr, nc):
            break
    return rank


def check_minor_count(rows: int, cols: int, k: int, ceiling: int) -> None:
    """Refuse the k x k minors of a rows x cols matrix before any of their
    work, the matrix's own assembly included: there are
    C(rows, k) * C(cols, k) of them."""
    count = comb(rows, k) * comb(cols, k)
    if count > ceiling:
        raise TooManyMinors(count, ceiling)


def minors(matrix: LaurentMatrix, k: int,
           ceiling: int = DEFAULT_MINOR_CEILING) -> list[LaurentPolynomial]:
    """All k x k minors as exact determinants.  k = 0 gives [1] (the empty
    determinant).  Raises TooManyMinors when the combinatorial count
    exceeds the ceiling."""
    if k < 0:
        raise ValueError("minor size must be >= 0")
    if k == 0:
        return [LaurentPolynomial.one(matrix.nvars)]
    if k > min(matrix.rows, matrix.cols):
        raise ValueError(f"no {k}x{k} minors in a {matrix.rows}x{matrix.cols} matrix")
    check_minor_count(matrix.rows, matrix.cols, k, ceiling)
    entries = matrix.entries
    out = []
    for row_idx in combinations(range(matrix.rows), k):
        for col_idx in combinations(range(matrix.cols), k):
            sub = [[entries[i][j] for j in col_idx] for i in row_idx]
            out.append(determinant(sub, matrix.nvars))
    return out


def determinant(entries, nvars: int) -> LaurentPolynomial:
    """Exact determinant by Laplace expansion with subset memoization."""
    k = len(entries)
    if k == 0:
        return LaurentPolynomial.one(nvars)
    zero = LaurentPolynomial.zero(nvars)
    prev = {(): LaurentPolynomial.one(nvars)}
    for i in range(k):
        cur: dict[tuple[int, ...], LaurentPolynomial] = {}
        for used, val in prev.items():
            if val.is_zero():
                continue
            position = 0
            for j in range(k):
                if position < len(used) and used[position] == j:
                    position += 1
                    continue
                entry = entries[i][j]
                if not entry.terms:
                    continue
                new_used = tuple(sorted(used + (j,)))
                sign = -1 if (i + new_used.index(j)) % 2 else 1
                term = val * entry
                if sign < 0:
                    term = -term
                cur[new_used] = cur.get(new_used, zero) + term
        prev = cur
    full = tuple(range(k))
    return prev.get(full, zero)


# -- univariate polynomial division and Smith normal form -------------------


def univariate_divmod(f: LaurentPolynomial, g: LaurentPolynomial):
    """Quotient and remainder with span(remainder) < span(divisor), after
    stripping unit monomials (``LaurentPolynomial.divide``).  Both inputs
    univariate, g nonzero."""
    return f.divide(g)


def _monic(p: LaurentPolynomial) -> LaurentPolynomial:
    """The associate of nonzero p, by a unit c*t^e, that is monic with
    nonzero constant term."""
    lo, hi = p.exponent_range(0)
    lead = p.terms[(hi,)]
    if lo == 0 and lead == 1:
        return p
    return p * LaurentPolynomial(1, {(-lo,): Fraction(1, lead)})


def univariate_gcd(f: LaurentPolynomial, g: LaurentPolynomial) -> LaurentPolynomial:
    """The monic generator with nonzero constant term of the ideal (f, g),
    or zero when f = g = 0, by Euclid's algorithm on ``univariate_divmod``."""
    while g:
        f, g = g, univariate_divmod(f, g)[1]
    return _monic(f) if f else f


Torsion = tuple[tuple[LaurentPolynomial, int], ...]


def _invariant_factors(runs) -> Torsion:
    """The invariant factors of the sum of k copies of Lambda/(x) over the
    runs (x, k), each x monic with nonzero constant term: the runs of an
    ascending divisibility chain without units, one per distinct order.

    Each run enters from the top.  It passes below every run whose order x
    divides, and settles right above a run whose order divides x.  Where it
    meets a run (d, c) of neither kind, the swap Lambda/(d) (+) Lambda/(x) =
    Lambda/(lcm) (+) Lambda/(gcd) applies to m = min(c, k) copies at once:
    m copies of the lcm take the place of m copies of d, and m copies of
    the gcd and the k - m copies of x left over go back on the pending
    stack.  The chain is unique, so the order in which runs enter is free."""
    chain: list[list] = []
    pending = list(runs)
    while pending:
        x, k = pending.pop()
        if not k or x.is_unit():
            continue
        j = len(chain)
        while j:
            d, c = chain[j - 1]
            if x == d:
                chain[j - 1][1] += k
                break
            g = univariate_gcd(d, x)
            if g == x:  # x divides d: it passes below every copy
                j -= 1
                continue
            if g == d:  # d divides x: x enters right above d
                chain.insert(j, [x, k])
                break
            m = min(c, k)
            lcm = univariate_divmod(d * x, g)[0]
            if j < len(chain) and chain[j][0] == lcm:
                chain[j][1] += m
            else:
                chain.insert(j, [lcm, m])
            if c == m:
                del chain[j - 1]
            else:
                chain[j - 1][1] = c - m
            pending += [(g, m), (x, k - m)]
            break
        else:
            chain.insert(0, [x, k])
    return tuple(map(tuple, chain))


@dataclass(frozen=True)
class SmithFormUnivariate:
    """The rank and the non-unit invariant factors of a matrix over
    Q[t, t^-1].

    The matrix is read as a module presentation: ``cols`` generators subject
    to ``rows`` relations, so the cokernel is Lambda^(cols - rank) plus k
    torsion summands Lambda/(f) per run (f, k) of ``torsion``.  The orders
    are distinct, monic with nonzero constant term and ascend in
    divisibility; ``_invariant_factors`` assembles them from the counted
    diagonal the elimination stops at.
    """

    rank: int
    torsion: Torsion


def smith_univariate(matrix: LaurentMatrix) -> SmithFormUnivariate:
    """Diagonalise by steps that keep every coefficient an integer, then
    make the diagonal monic and assemble the chain.  Every row is made
    primitive first, so entries lie in Z[t, t^-1]: the pivot is the entry
    of least (span, coefficient bits) in the remaining block, and each
    entry below it loses its leading term to ``_reduce_lead`` until it is
    zero or of smaller span, when a new pivot is chosen.  The entries
    right of the pivot are cleared as those below it in the transpose,
    which has the same invariant factors."""
    if matrix.nvars != 1:
        raise NotUnivariate(f"matrix has {matrix.nvars} variables")
    grid = [strip_row_units(row) for row in _dense_rows(matrix)]
    diagonal = []
    while block := [(_size(p), i, j) for i, row in enumerate(grid)
                    for j, p in enumerate(row) if p.terms]:
        _, i, j = min(block)
        grid[0], grid[i] = grid[i], grid[0]
        for row in grid:
            row[0], row[j] = row[j], row[0]
        if not _clear_below(grid):
            continue
        if any(grid[0][1:]):
            grid = [list(col) for col in zip(*grid)]
            if not _clear_below(grid):
                continue
        diagonal.append(_monic(grid[0][0]))
        grid = [row[1:] for row in grid[1:]]
    return SmithFormUnivariate(len(diagonal),
                               _invariant_factors(Counter(diagonal).items()))


def _size(p: LaurentPolynomial) -> tuple[int, int]:
    """The span and coefficient bits of a nonzero p in Z[t, t^-1]."""
    return max(p.terms)[0] - min(p.terms)[0], max(map(abs, p.terms.values())).bit_length()


def _clear_below(grid) -> bool:
    """Reduce each entry below the pivot grid[0][0] by ``_reduce_lead``;
    False at the first that is left nonzero, of smaller span."""
    span = grid[0][0].degree_span(0)
    for i in range(1, len(grid)):
        while grid[i][0] and grid[i][0].degree_span(0) >= span:
            grid[i] = _reduce_lead(grid[i], grid[0])
        if grid[i][0]:
            return False
    return True


def _reduce_lead(row, pivot_row):
    """(a/g)*row - (b/g)*t^k*pivot_row for rows of integral entries, with
    a*t^h and b*t^(h+k) the leading terms of pivot_row[0] and row[0] and
    g = gcd(a, b), made primitive: row[0] loses its leading term, and the
    step is invertible over Q[t, t^-1]."""
    (h,), a = pivot_row[0].leading()
    (hk,), b = row[0].leading()
    g = gcd(a, b)
    a, b, shift = a // g, b // g, (hk - h,)
    if a != 1:
        row = [x.scale(a) for x in row]
    return strip_row_units([x - y.shift(shift).scale(b) if y.terms else x
                             for x, y in zip(row, pivot_row)])
