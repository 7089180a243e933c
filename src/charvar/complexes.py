"""Finite free chain complexes over the Laurent ring and their homology.

A TwistedComplex stores free ranks c_0..c_top and one sparse matrix per
degree pair (j, j-1); consecutive differentials compose to zero exactly
over the ring, and this is proven at construction, in one of two ways.
A complex built by ``tensor_complex`` is proven by its Koszul structure:
every nonzero cell is an entry of a factor map, with one sign per block,
and the signs anticommute around every square of blocks, so with both
factors proven the composite vanishes block by block; this costs at most
one comparison per nonzero cell.  Every other complex is proven by one
sparse pass over its whole composites on packed exponents
(``lmatrix.ExponentBox``), which never builds a product matrix.
Evaluating at a character gives twisted Betti numbers; for one variable
the ring is a PID and the full module structure of the homology (free
rank plus torsion) is computed by Smith normal form, which is exactly
the rational homology of the kernel of the corresponding map onto Z.  A
product's shape, twisted Betti numbers and kernel homology come from its
factors' (``GroupModel.ranks``, ``betti`` and ``kernel_homology``).
``tensor_complex`` builds a tensor product from nonzero cells alone,
over the ring both factors share; a product's complex is its factors
pushed into one ring and tensored (``GroupModel.pushed``).
Windows eliminate one degree at a time, from the top down, and never
reduce a row that the degree above already accounts for (clearing).
"""

from __future__ import annotations

import random
from dataclasses import InitVar, dataclass
from itertools import product as iproduct
from operator import add, mul

from .errors import InternalInconsistency, NotUnivariate, WindowTooLarge
from .fox import alexander_matrix, quotient_images
from .intlinalg import clear_denominators, modular_rank, reduce_row
from .laurent import GENERIC, Character, LaurentPolynomial, _make
from .lmatrix import (LaurentMatrix, Torsion, packed_row_products, packed_rows, rank_at,
                      smith_univariate)
from .presentations import AbelianData, Presentation

DEFAULT_WINDOW_CEILING = 200_000


@dataclass(frozen=True)
class TwistedComplex:
    """ranks[j] is the free rank in degree j; differentials[j-1] maps
    degree j to degree j-1 and has shape ranks[j-1] x ranks[j].

    Construction proves d_j o d_(j+1) = 0 for every j, exactly, or raises
    ``InternalInconsistency``, by one of two proofs.

    The full-composite pass, for a complex built without ``factors``: one
    ``ExponentBox`` covers every exponent of every differential, with
    lo_i <= e_i <= hi_i; variable i has width w_i = 2 (hi_i - lo_i) + 1, so
    the packed sum of two exponent vectors has every digit in [0, w_i) and
    determines the sum.  Each differential becomes sparse rows of packed
    terms once, and for each row i of d_j every term product of a_ik b_kl
    is summed under the key l * span + packed sum.  Two term products
    share a key exactly when they have the same column l and the same
    monomial, so the sums are the coefficients of the cells of row i of
    d_j o d_(j+1), every one of them: the check is a proof, not a sample.

    The Koszul-structure proof, for a complex built with ``factors`` (A, B)
    that claims to be their tensor product (``tensor_complex``).  Degree k
    is the sum of the blocks A_p (x) B_q, p + q = k, in increasing p, the
    basis e_i (x) f_j of a block at i * rank B_q + j; the offsets are
    recomputed here from the factors' ranks.  The proof reads every
    nonzero entry of every d_A and d_B at each cell of its block (p, q) ->
    (p - 1, q) or (p, q) -> (p, q - 1), which must equal it (``==``) or
    sum with it to zero, one sign per block, and counts these cells
    against the nonzero cells of each differential, so no other cell is
    nonzero.  Then each block is s d_A (x) 1 or s' 1 (x) d_B, and D o D
    has three kinds of components: s s' (d_A o d_A) (x) 1 and s s'
    1 (x) (d_B o d_B), which vanish as the factors are proven, and from
    (p, q) to (p - 1, q - 1) the sum of the two paths around a square,
    (s_1 s_2 + s_3 s_4) d_A (x) d_B, which vanishes exactly when the two
    signs anticommute or one of the two factor maps is zero, that is, one
    of the square's four blocks has no nonzero cell.  A ``TwistedComplex``
    factor was proven when it was built; any other factor is first built
    into one, which proves it by the full-composite pass.  No polynomial
    is multiplied, and the proof costs at most one comparison per nonzero
    cell: a cell that is the very object just compared is not compared
    again."""

    nvars: int
    ranks: tuple[int, ...]
    differentials: tuple[LaurentMatrix, ...]
    factors: InitVar[tuple | None] = None

    def __post_init__(self, factors):
        if len(self.differentials) != max(len(self.ranks) - 1, 0):
            raise ValueError("need one differential per consecutive degree pair")
        for j, d in enumerate(self.differentials, start=1):
            if d.nvars != self.nvars:
                raise ValueError("differential variable count mismatch")
            if (d.rows, d.cols) != (self.ranks[j - 1], self.ranks[j]):
                raise ValueError(f"differential {j} has shape {d.rows}x{d.cols}, "
                                 f"expected {self.ranks[j - 1]}x{self.ranks[j]}")
        if factors is not None:
            self._prove_tensor(*(f if isinstance(f, TwistedComplex) else TwistedComplex(
                f.nvars, tuple(f.ranks), tuple(f.differentials)) for f in factors))
            return
        box, rows = packed_rows(self.nvars, self.differentials)
        for j in range(1, len(rows)):
            for sums in packed_row_products(rows[j - 1], rows[j], box.span):
                if any(sums.values()):
                    raise InternalInconsistency(f"d_{j} o d_{j + 1} is nonzero")

    def _prove_tensor(self, a: "TwistedComplex", b: "TwistedComplex") -> None:
        """The Koszul-structure proof of d o d = 0 over proven factors; a
        cell of d_k off the structure is reported as d_(k-1) o d_k."""
        def nonzero(k):
            j = max(k - 1, 1)
            return InternalInconsistency(f"d_{j} o d_{j + 1} is nonzero")

        offsets, ranks = _tensor_blocks(a, b)
        n = len(self.ranks)
        if ranks[:n] != list(self.ranks) or any(ranks[n:]):
            raise InternalInconsistency(
                f"ranks {list(self.ranks)} are not the tensor ranks {ranks}")
        zero = LaurentPolynomial.zero(self.nvars)
        signs: dict[tuple, int] = {}
        for k, d in enumerate(self.differentials, start=1):
            rows, seen = d.sparse_rows, 0
            for p, col_off in offsets[k].items():
                q = k - p
                # (key, factor map, row offset, stride, (row step, col step), count):
                # the cell of entry (r, c) at step t is row_off + r * stride
                # + t * row step, col_off + c * stride + t * col step
                blocks = []
                if p:
                    blocks.append((("A", p, q), a.differentials[p - 1], offsets[k - 1][p - 1],
                                   b.ranks[q], (1, 1), b.ranks[q]))
                if q:
                    blocks.append((("B", p, q), b.differentials[q - 1], offsets[k - 1][p],
                                   1, (b.ranks[q - 1], b.ranks[q]), a.ranks[p]))
                for key, factor_map, row_off, stride, (dr, dc), count in blocks:
                    for r, row in enumerate(factor_map.sparse_rows):
                        seen += count * len(row)
                        for c, entry in row.items():
                            i, j, known = row_off + r * stride, col_off + c * stride, None
                            for t in range(count):
                                cell = rows[i + t * dr].get(j + t * dc, zero)
                                if cell is known:  # the same object, so the same sign
                                    continue
                                known = cell
                                sign = (1 if cell is entry or cell == entry
                                        else -1 if not (cell + entry).terms else 0)
                                if signs.setdefault(key, sign) != sign or not sign:
                                    raise nonzero(k)
            if seen != sum(map(len, rows)):
                raise nonzero(k)
        for _, p, q in signs:
            square = [signs.get(key) for key in
                      (("A", p, q), ("B", p - 1, q), ("B", p, q), ("A", p, q - 1))]
            if None not in square and square[0] * square[1] + square[2] * square[3]:
                raise nonzero(p + q)

    @property
    def top(self) -> int:
        return len(self.ranks) - 1

    def specialize(self, matrix) -> "TwistedComplex":
        """Push through the ring map t^e -> s^(M e); a ring homomorphism,
        so composition-zero survives exactly."""
        return TwistedComplex(
            len(matrix), self.ranks,
            tuple(d.substitute_exponents(matrix) for d in self.differentials))


@dataclass(frozen=True)
class BettiProfile:
    """Twisted Betti numbers of one complex at one character, with the
    route that decided the generic ranks at the generic point (None at a
    rational character)."""

    betti: tuple[int, ...]
    route: dict | None = None

    def alternating_sum(self) -> int:
        return sum((-1) ** j * b for j, b in enumerate(self.betti))


@dataclass(frozen=True)
class KernelDegreeEntry:
    """H_degree as a module over Lambda = Q[t, t^-1]: Lambda^free_rank plus
    k copies of Lambda/(f) per run (f, k) of ``torsion``, the runs of its
    invariant factors (``lmatrix._invariant_factors``).  The JSON lists
    each factor once per copy, as ``torsion_factors``."""

    degree: int
    free_rank: int
    torsion: Torsion

    @property
    def torsion_dimension(self) -> int:
        """The Q-dimension of the torsion part, sum of the factors' spans."""
        return sum(k * f.degree_span(0) for f, k in self.torsion)

    @property
    def infinite_dimensional(self) -> bool:
        return self.free_rank > 0


@dataclass(frozen=True)
class KernelHomologyReport:
    """Per-degree Lambda-module structure of H_*(complex); in one variable
    this is the homology of the kernel subgroup, degree by degree."""

    entries: tuple[KernelDegreeEntry, ...]

    def to_json_dict(self) -> dict:
        return {
            "degrees": [
                {
                    "degree": e.degree,
                    "free_rank": e.free_rank,
                    "torsion_factors": [text for f, k in e.torsion
                                        for text in [f.to_text()] * k],
                    "torsion_dimension": e.torsion_dimension,
                    "verdict": ("infinite-dimensional" if e.infinite_dimensional
                                else "finite-dimensional"),
                }
                for e in self.entries
            ]
        }


def presentation_complex(presentation: Presentation, q: AbelianData) -> TwistedComplex:
    """The chain complex of the presentation 2-complex with coefficients
    twisted through q's projection onto Z^m: Lambda^s -> Lambda^n -> Lambda.

    The degree-two map is the transposed Alexander matrix, the degree-one
    map is the row (t^q(x_i) - 1)_i; their composite vanishes by the
    fundamental identity of the calculus.  The d o d = 0 check in
    ``TwistedComplex.__post_init__`` is that identity pushed to Lambda on
    every relator, so building this complex checks the Alexander rows.
    """
    images = quotient_images(q, presentation.ngens)
    m = len(images[0]) if images else 0
    n = presentation.ngens
    # t^q(x_i) - 1, and no cell where q(x_i) = 0
    zero = (0,) * m
    d1 = LaurentMatrix._from_rows(m, 1, n, [
        {i: _make(m, {image: 1, zero: -1}) for i, image in enumerate(images) if any(image)}])
    alex = alexander_matrix(presentation, q)
    d2 = alex.transpose()
    return TwistedComplex(m, (1, n, len(presentation.relators)), (d1, d2))


def _tensor_blocks(a, b) -> tuple[list[dict[int, int]], list[int]]:
    """The block table of A (x) B: per degree k, the offset of each block
    A_p (x) B_(k-p) in increasing p, and the rank."""
    offsets, ranks = [], []
    for k in range(a.top + b.top + 1):
        offsets.append({})
        ranks.append(0)
        for p in range(max(0, k - b.top), min(a.top, k) + 1):
            offsets[k][p] = ranks[k]
            ranks[k] += a.ranks[p] * b.ranks[k - p]
    return offsets, ranks


def tensor_complex(a: TwistedComplex, b: TwistedComplex) -> TwistedComplex:
    """Chain-level tensor product over the ring both factors live in.
    Signs follow d(x (x) y) = dx (x) y + (-1)^|x| x (x) dy.  A cell of a
    tensor differential receives at most one entry: a d_A entry when the
    degree of the A-part drops, a d_B entry when it stays, so each
    differential is built as sparse rows straight from the factors' sparse
    columns and no zero cell is visited.  Trailing zero degrees are
    trimmed.  Factors in different rings are first pushed into a shared
    one (``TwistedComplex.specialize``), as ``GroupModel.pushed`` does.
    The result carries its two factors into its construction, which
    proves d o d = 0 by the Koszul structure (``TwistedComplex``)."""
    if a.nvars != b.nvars:
        raise ValueError(f"factors live in {a.nvars} and {b.nvars} variables")
    m = a.nvars
    da = [d.transpose().sparse_rows for d in a.differentials]
    db = [d.transpose().sparse_rows for d in b.differentials]
    # the d_B entries with the sign (-1)^p, by the parity of p
    db_signed = (db, [[{r: -e for r, e in col.items()} for col in d] for d in db])

    offsets, ranks = _tensor_blocks(a, b)
    diffs = []
    for k in range(1, a.top + b.top + 1):
        rows: list[dict] = [{} for _ in range(ranks[k - 1])]
        for p, col_off in offsets[k].items():
            q = k - p
            for i, j in iproduct(range(a.ranks[p]), range(b.ranks[q])):
                col = col_off + i * b.ranks[q] + j
                if p >= 1 and (p - 1) in offsets[k - 1]:
                    row_off = offsets[k - 1][p - 1]
                    for i2, entry in da[p - 1][i].items():
                        rows[row_off + i2 * b.ranks[q] + j][col] = entry
                if q >= 1 and p in offsets[k - 1]:
                    row_off = offsets[k - 1][p] + i * b.ranks[q - 1]
                    for j2, entry in db_signed[p % 2][q - 1][j].items():
                        rows[row_off + j2][col] = entry
        diffs.append(LaurentMatrix._from_rows(m, ranks[k - 1], ranks[k], rows))

    while ranks and ranks[-1] == 0:
        ranks.pop()
        if diffs:
            diffs.pop()
    return TwistedComplex(m, tuple(ranks), tuple(diffs), (a, b))


SANDWICH_PRIME = 2 ** 31 - 1


def sandwich_points(nvars: int) -> list[tuple[int, ...]]:
    """The two points of (F_p^*)^nvars the modular sandwich tries, drawn
    from a fixed seed so that every report is reproducible."""
    rng = random.Random(0)
    return [tuple(rng.randrange(2, SANDWICH_PRIME - 1) for _ in range(nvars))
            for _ in range(2)]


def generic_ranks(complex_: TwistedComplex,
                  degrees=None) -> tuple[tuple[int | None, ...], dict]:
    """Generic rank of d_j for every j in ``degrees`` (default 1..top), by
    the modular sandwich, with exact symbolic elimination as the fallback.
    Returns (ranks, route): ranks[j] is the rank of d_j, None where it was
    not asked for, and 0 for j = 0 and j = top + 1.

    With p = SANDWICH_PRIME, a a point of (F_p^*)^n and r_j the rank of
    d_j mod p at a (0 if p divides a coefficient denominator of d_j), the
    generic rank R_j satisfies r_j <= R_j, since a minor nonzero mod p at a
    is a nonzero Laurent polynomial, and R_j <= min(c_(j-1) - r_(j-1),
    c_j - r_(j+1)), since d o d = 0 over the ring (checked at
    construction); r_0 = r_(top+1) = 0.  When the bounds meet, R_j = r_j
    exactly, for every prime and every point: a proof, not a sample.  The
    points of ``sandwich_points`` are tried in turn, r_j being the largest
    rank seen so far, until every asked rank is pinned; a rank still open
    after that is computed by ``rank_at(d_j, GENERIC)``.

    The route names the deciding route ("modular-sandwich", or "symbolic"
    when some asked rank fell back) and records the prime, the points
    tried, the ranks mod p at each (entry j-1 for d_j, None where not
    computed) and the degrees that fell back.
    """
    top = complex_.top
    wanted = sorted(set(range(1, top + 1) if degrees is None else degrees))
    if any(j < 1 or j > top for j in wanted):
        raise ValueError(f"differential degrees {wanted} outside 1..{top}")
    # a bound on R_j reads the ranks of d_(j-1) and d_(j+1) too
    involved = sorted({i for j in wanted for i in (j - 1, j, j + 1)
                       if 1 <= i <= top})
    lower = [0] * (top + 2)
    tried, modular = [], []
    pinned: dict[int, int] = {}
    for point in sandwich_points(complex_.nvars):
        at_point: list[int | None] = [None] * top
        for j in involved:
            d = complex_.differentials[j - 1]
            rows = d.evaluate_mod(point, SANDWICH_PRIME)
            if rows is not None:
                at_point[j - 1] = modular_rank(rows, d.cols, SANDWICH_PRIME)
                lower[j] = max(lower[j], at_point[j - 1])
        tried.append(list(point))
        modular.append(at_point)
        pinned = {j: lower[j] for j in wanted
                  if lower[j] == min(complex_.ranks[j - 1] - lower[j - 1],
                                     complex_.ranks[j] - lower[j + 1])}
        if len(pinned) == len(wanted):
            break
    ranks: list[int | None] = [None] * (top + 2)
    ranks[0] = ranks[top + 1] = 0
    fallback = [j for j in wanted if j not in pinned]
    for j in wanted:
        ranks[j] = pinned[j] if j in pinned else rank_at(
            complex_.differentials[j - 1], GENERIC)
    route = {"name": "symbolic" if fallback else "modular-sandwich",
             "prime": SANDWICH_PRIME, "points": tried,
             "modular_ranks": modular, "fallback_degrees": fallback}
    return tuple(ranks), route


def twisted_betti(complex_: TwistedComplex, character: Character) -> BettiProfile:
    """b_j = c_j - rank d_j - rank d_(j+1), exactly.  At the generic point
    the ranks come from ``generic_ranks`` (the modular sandwich, with
    symbolic elimination only for a rank it leaves open), and this gives
    the generic Betti numbers, attained off a proper closed subvariety of
    the character torus; the profile carries the route."""
    top = complex_.top
    route = None
    if character.is_generic:
        ranks, route = generic_ranks(complex_)
    else:
        ranks = [0] * (top + 2)
        for j in range(1, top + 1):
            ranks[j] = rank_at(complex_.differentials[j - 1], character)
    betti = tuple(complex_.ranks[j] - ranks[j] - ranks[j + 1] for j in range(top + 1))
    # a homology dimension is never negative; the Euler identity would be no
    # check, since the ranks cancel from the alternating sum whatever they are
    if any(b < 0 for b in betti):
        raise InternalInconsistency(
            f"Betti numbers {list(betti)} include a negative dimension")
    return BettiProfile(betti, route)


def kernel_homology_univariate(complex_: TwistedComplex) -> KernelHomologyReport:
    """Over the PID Q[t, t^-1]: homology is Lambda^(c_j - r_j - r_(j+1))
    plus one torsion summand per nontrivial invariant factor of d_(j+1).
    The homology is infinite-dimensional over Q exactly when the free rank
    is positive."""
    if complex_.nvars != 1:
        raise NotUnivariate(f"complex has {complex_.nvars} variables")
    smiths = [smith_univariate(d) for d in complex_.differentials]
    entries = []
    for j in range(complex_.top + 1):
        r_j = smiths[j - 1].rank if j >= 1 else 0
        r_next = smiths[j].rank if j < complex_.top else 0
        entries.append(KernelDegreeEntry(
            degree=j,
            free_rank=complex_.ranks[j] - r_j - r_next,
            torsion=smiths[j].torsion if j < complex_.top else (),
        ))
    return KernelHomologyReport(tuple(entries))


@dataclass(frozen=True)
class WindowReport:
    """Rational homology dimensions of finite windows of the Z^m-cover."""

    radii: tuple[int, ...]
    dimensions: tuple[tuple[int, ...], ...]  # per degree, one value per radius

    def to_json_dict(self) -> dict:
        return {"radii": list(self.radii),
                "dimensions": {str(j): list(seq)
                               for j, seq in enumerate(self.dimensions)}}


def check_window_size(total_rank: int, nvars: int, radius: int, ceiling: int) -> None:
    """Refuse a window before any of its work: windows up to ``radius`` of
    the Z^nvars-cover of a complex whose chain ranks sum to ``total_rank``
    have total_rank * (radius + 1)^nvars cells.  A product's chain ranks
    come from its factors (``GroupModel.ranks``), not from its tensor model,
    which only the spot checks of a full verdict read, so its window is
    checked before any complex is pushed or tensored."""
    if nvars not in (1, 2):
        raise ValueError("windows are supported for 1 or 2 variables")
    if radius < 1:
        raise ValueError("radius must be >= 1")
    total = total_rank * (radius + 1) ** nvars
    if total > ceiling:
        raise WindowTooLarge(total, ceiling)


def _window_plan(lo, hi, side, weights, lift):
    """The translates v in {0..side - 1}^m of a cell with closure bounds
    (lo, hi), kept ones only, as (entry radius, key of the cell at v plus
    its index, key its boundary row adds its offsets to, class v - v_(m-1)),
    with the set of classes (``window_homology``)."""
    translates, classes = [], set()
    for v in iproduct(*[range(-x, side - y) for x, y in zip(lo, hi)]):
        top = max(map(add, v, hi))
        cls = tuple([x - v[-1] for x in v])
        classes.add(cls)
        packed = sum(map(mul, v, weights))
        translates.append((max(1, top), -(packed + lift * top), -(packed + lift * v[-1]), cls))
    return translates, classes


def window_homology(complex_: TwistedComplex, radius: int,
                    ceiling: int = DEFAULT_WINDOW_CEILING) -> WindowReport:
    """Homology of the subcomplexes spanned by the lattice translates in
    the boxes {0..k}^m for k = 1..radius.

    A cell is kept when its entire boundary lies among kept cells one
    degree down, so each window is a genuine subcomplex and the reported
    dimensions are honest.  In one variable one translate enters per
    radius step, so in degree j the increments stabilize at the
    Lambda-free-rank of H_j.  In two variables the box {0..k}^2 gains
    2k + 1 translates per step and the increments need not stabilize (F_2
    with nu = 1,0;0,1 has H_1 of dimension k^2), so such windows show
    growth only.

    A product's window complex is ``GroupModel.pushed``: its factors, each
    pushed through its block of the map, tensored over the window's own
    ring, so no window builds the product's complex in its own variables.

    The windows are nested and a kept cell's boundary does not depend on k,
    so each cell is visited once, at its entry radius, the least radius
    keeping it.  Column i has closure bounds lo_i <= 0 <= hi_i, per
    coordinate the least and greatest offset its boundary reaches,
    recursively, (0, 0) in degree 0: translate v of cell i is kept at
    radius k exactly when v + lo_i >= 0 and its entry radius max(1,
    max_t (v_t + hi_i,t)) is at most k.  So each column enumerates only
    its kept translates, and their boundary cells lie in {0..radius}^m.

    Keys, entry radius first: with width the largest chain rank and
    s = radius + 1, cell (r, w) of a degree has the key -(r + width * (w_0
    + s w_1 + s^m max_t (w_t + hi_r,t))).  Distinct cells have distinct
    keys, and a cell that enters later has a smaller one.  The row of the
    translate v of a column is a key of v plus one offset per term, and
    the offsets depend on v only through its class v - v_(m-1), which is 0
    in one variable, so each degree packs its offsets once per class.

    Top-down elimination with clearing, or the twist (Chen and Kerber,
    "Persistent homology computation with a twist", EuroCG 2011; Bauer,
    Kerber and Reininghaus, "Clear and compress: computing persistent
    homology in chunks", 2014).  The degrees are eliminated from the top
    down to 0, each radius by radius into one echelon
    (``intlinalg.reduce_row``; the degree's denominators are cleared by one
    common scale, which moves no row off its line), whose size after
    radius k is the rank of d_j on window k.  A row of d_(j+1) that
    becomes a pivot leads at its least key, at a cell sigma of greatest
    entry radius among the cells of the reduced row z; the row of sigma in
    d_j is then counted as kept and never reduced.  The proof: z is a
    boundary, so d_j z = 0, and each cell of z enters no later than sigma.
    At radius k the z of the kept leads lie in the window and are
    triangular on their leads, which are distinct, so the kept cells are
    their span, which d_j kills, plus the kept cells that lead nothing,
    and d_j has the same rank on the window without the leads' rows.  So
    a window of radius k reduces kept_j - rank d_(j+1) rows in degree j
    (fewer by an earlier radius, where a later pivot may lead at a cell
    already kept).  A key that puts the translate before the entry radius
    breaks the proof, as a lead may enter before another cell of its row,
    and gives wrong dimensions (``tests/test_windows.py``).  S_2^3 under
    the ``kernel`` map of the benchmark at radius 5 reduces 448 of its 756
    kept rows, in 445 steps; S_2^4 under ``ones`` at radius 6 reduces
    2,288 of 3,889 rows, in 5,257 steps, against 13,936 when every row is
    reduced.
    """
    m = complex_.nvars
    check_window_size(sum(complex_.ranks), m, radius, ceiling)
    side, width, coords = radius + 1, max(complex_.ranks), range(m)
    weights = [width * side ** t for t in coords]
    lift = width * side ** m
    plans = {}  # (lo, hi) -> _window_plan(lo, hi, ...)
    # batches[j][k]: (key of the cell, row key, row offsets, coefficients)
    # for each translate of a cell of degree j entering at radius k
    batches = [[[] for _ in range(side)] for _ in complex_.ranks]
    lows = highs = [()] * m  # the closure bounds one degree down, per coordinate
    for j, cols in enumerate([[{}] * complex_.ranks[0]] + [
            d.transpose().sparse_rows for d in complex_.differentials]):
        # the terms (row r, exponent e, coefficient) of every column, in
        # column order; column i's run from starts[i] to starts[i + 1]
        rs, es, cs, starts = [], [], [], [0]
        for col in cols:
            for r, p in col.items():
                rs += [r] * len(p.terms)
                es += p.terms
                cs += p.terms.values()
            starts.append(len(rs))
        spans = list(zip(starts, starts[1:]))
        exps = [[e[t] for e in es] for t in coords]
        # per coordinate and term, e_t + lo_r,t and e_t + hi_r,t
        near = [list(map(add, exps[t], map(lows[t].__getitem__, rs))) for t in coords]
        reach = [list(map(add, exps[t], map(highs[t].__getitem__, rs))) for t in coords]
        lows = [[min([0, *xs[a:b]]) for a, b in spans] for xs in near]
        highs = [[max([0, *xs[a:b]]) for a, b in spans] for xs in reach]
        col_plans = [plans.get(key)
                     or plans.setdefault(key, _window_plan(*key, side, weights, lift))
                     for key in zip(zip(*lows), zip(*highs))]
        packed = {e: sum(map(mul, e, weights)) for e in set(es)}
        shifts = list(map(add, rs, map(packed.__getitem__, es)))
        offsets = {}  # per class, each column's offsets
        for cls in set().union(*(classes for _translates, classes in col_plans)):
            tops = reach[-1]  # max_t (cls_t + e_t + hi_r,t), as cls_(m-1) = 0
            for c, xs in zip(cls, reach[:-1]):
                tops = list(map(max, tops, map(c.__add__, xs)))
            flat = [-(s + lift * x) for s, x in zip(shifts, tops)]
            offsets[cls] = [flat[a:b] for a, b in spans]
        coefs = clear_denominators(cs)
        coefs = [coefs[a:b] for a, b in spans]
        for i, (translates, _classes) in enumerate(col_plans):
            for k, own, base, cls in translates:
                batches[j][k].append((own - i, base, offsets[cls][i], coefs[i]))
    per_degree = [()] * len(batches)
    leads, above = {}, [0] * radius  # the echelon of d_(j+1) and its size per radius
    for j in reversed(range(len(batches))):
        pivots, kept, ranks, seq = {}, 0, [], []
        for k in range(1, side):
            kept += len(batches[j][k])
            for own, base, offs, coefs in batches[j][k]:
                if own not in leads:
                    reduce_row(pivots, dict(zip(map(base.__add__, offs), coefs)))
            ranks.append(len(pivots))
            seq.append(kept - ranks[-1] - above[k - 1])
        per_degree[j], leads, above = tuple(seq), pivots, ranks
    return WindowReport(tuple(range(1, side)), tuple(per_degree))
