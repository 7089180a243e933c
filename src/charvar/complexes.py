"""Finite free chain complexes over the Laurent ring and their homology.

A TwistedComplex stores free ranks c_0..c_top and one sparse matrix per
degree pair (j, j-1); consecutive differentials compose to zero exactly
over the ring, and this is checked at construction by one sparse pass over
the whole complex on packed exponents (``lmatrix.ExponentBox``), which
never builds a product matrix.  Evaluating at a character gives
twisted Betti numbers; for one variable the ring is a PID and the full
module structure of the homology (free rank plus torsion) is computed by
Smith normal form, which is exactly the rational homology of the kernel of
the corresponding map onto Z.  A product's twisted Betti numbers, generic
ones included, and its kernel homology are assembled from its factors' by
``GroupModel.betti`` and ``GroupModel.kernel_homology``; its tensor
complex, built from nonzero cells alone, serves only windows, which grow
one echelon per degree.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product as iproduct

from .errors import InternalInconsistency, NotUnivariate, WindowTooLarge
from .fox import alexander_matrix, quotient_images
from .intlinalg import clear_denominators, modular_rank, reduce_row
from .laurent import GENERIC, Character, LaurentPolynomial, _make
from .lmatrix import (ExponentBox, LaurentMatrix, packed_row_products, packed_rows,
                      rank_at, smith_univariate)
from .presentations import Presentation

DEFAULT_WINDOW_CEILING = 200_000


@dataclass(frozen=True)
class TwistedComplex:
    """ranks[j] is the free rank in degree j; differentials[j-1] maps
    degree j to degree j-1 and has shape ranks[j-1] x ranks[j].

    Construction proves d_j o d_(j+1) = 0 for every j, exactly, or raises
    ``InternalInconsistency``.  One ``ExponentBox`` covers every exponent
    of every differential, with lo_i <= e_i <= hi_i; variable i has width
    w_i = 2 (hi_i - lo_i) + 1, so the packed sum of two exponent vectors
    has every digit in [0, w_i) and determines the sum.  Each differential
    becomes sparse rows of packed terms once, and for each row i of d_j
    every term product of a_ik b_kl is summed under the key l * span +
    packed sum.  Two term products share a key exactly when they have the
    same column l and the same monomial, so the sums are the coefficients
    of the cells of row i of d_j o d_(j+1), every one of them: the check is
    a proof, not a sample."""

    nvars: int
    ranks: tuple[int, ...]
    differentials: tuple[LaurentMatrix, ...]

    def __post_init__(self):
        if len(self.differentials) != max(len(self.ranks) - 1, 0):
            raise ValueError("need one differential per consecutive degree pair")
        for j, d in enumerate(self.differentials, start=1):
            if d.nvars != self.nvars:
                raise ValueError("differential variable count mismatch")
            if (d.rows, d.cols) != (self.ranks[j - 1], self.ranks[j]):
                raise ValueError(f"differential {j} has shape {d.rows}x{d.cols}, "
                                 f"expected {self.ranks[j - 1]}x{self.ranks[j]}")
        box, rows = packed_rows(self.nvars, self.differentials)
        for j in range(1, len(rows)):
            for sums in packed_row_products(rows[j - 1], rows[j], box.span):
                if any(sums.values()):
                    raise InternalInconsistency(f"d_{j} o d_{j + 1} is nonzero")

    @property
    def top(self) -> int:
        return len(self.ranks) - 1

    def specialize(self, matrix) -> "TwistedComplex":
        """Push through the ring map t^e -> s^(M e); a ring homomorphism,
        so composition-zero survives exactly."""
        return TwistedComplex(
            len(matrix), self.ranks,
            tuple(d.substitute_exponents(matrix) for d in self.differentials))

    def to_json_dict(self) -> dict:
        return {
            "variables": self.nvars,
            "ranks": list(self.ranks),
            "differentials": [d.to_text_rows() for d in self.differentials],
        }


@dataclass(frozen=True)
class BettiProfile:
    """Twisted Betti numbers of one complex at one character, with the
    route that decided the generic ranks at the generic point (None at a
    rational character)."""

    betti: tuple[int, ...]
    character: Character
    route: dict | None = None

    def alternating_sum(self) -> int:
        return sum((-1) ** j * b for j, b in enumerate(self.betti))


@dataclass(frozen=True)
class KernelDegreeEntry:
    degree: int
    free_rank: int
    torsion_factors: tuple[LaurentPolynomial, ...]
    torsion_dimension: int

    @property
    def infinite_dimensional(self) -> bool:
        return self.free_rank > 0


@dataclass(frozen=True)
class KernelHomologyReport:
    """Per-degree Lambda-module structure of H_*(complex); in one variable
    this is the homology of the kernel subgroup, degree by degree."""

    entries: tuple[KernelDegreeEntry, ...]

    def degree(self, j: int) -> KernelDegreeEntry:
        return self.entries[j]

    def to_json_dict(self) -> dict:
        return {
            "degrees": [
                {
                    "degree": e.degree,
                    "free_rank": e.free_rank,
                    "torsion_factors": [f.to_text() for f in e.torsion_factors],
                    "torsion_dimension": e.torsion_dimension,
                    "verdict": ("infinite-dimensional" if e.infinite_dimensional
                                else "finite-dimensional"),
                }
                for e in self.entries
            ]
        }


def presentation_complex(presentation: Presentation, q) -> TwistedComplex:
    """The chain complex of the presentation 2-complex with coefficients
    twisted through the quotient q: Lambda^s -> Lambda^n -> Lambda.

    The degree-two map is the transposed Alexander matrix, the degree-one
    map is the row (t^q(x_i) - 1)_i; their composite vanishes by the
    fundamental identity of the calculus.  The d o d = 0 check in
    ``TwistedComplex.__post_init__`` is that identity pushed to Lambda on
    every relator, so building this complex checks the Alexander rows.
    """
    images = quotient_images(q, presentation.ngens)
    m = len(images[0]) if images else 0
    n = presentation.ngens
    d1 = LaurentMatrix(m, 1, n, [[
        LaurentPolynomial.monomial(images[i]) - LaurentPolynomial.one(m)
        for i in range(n)]])
    alex = alexander_matrix(presentation, q)
    d2 = alex.transpose()
    return TwistedComplex(m, (1, n, len(presentation.relators)), (d1, d2))


def tensor_complex(a: TwistedComplex, b: TwistedComplex) -> TwistedComplex:
    """Chain-level tensor product over the joint ring; variables of the two
    factors concatenate, so an entry of a factor lifts by padding its
    exponent vectors with zeros for the other factor's variables.  Signs
    follow d(x (x) y) = dx (x) y + (-1)^|x| x (x) dy.  A cell of a tensor
    differential receives at most one entry: a d_A entry when the degree
    of the A-part drops, a d_B entry when it stays, so each differential is
    built as sparse rows straight from the factors' sparse columns and no
    zero cell is visited.  Trailing zero degrees are trimmed."""
    ma, mb = a.nvars, b.nvars
    m = ma + mb
    da = [_pad_entries(d, (), (0,) * mb, m) for d in a.differentials]
    db = [_pad_entries(d, (0,) * ma, (), m) for d in b.differentials]
    # the d_B entries with the sign (-1)^p, by the parity of p
    db_signed = (db, [[{r: -e for r, e in col.items()} for col in d] for d in db])

    top = a.top + b.top
    ranks = []
    offsets: list[dict[int, int]] = []
    for k in range(top + 1):
        off: dict[int, int] = {}
        total = 0
        for p in range(max(0, k - b.top), min(a.top, k) + 1):
            off[p] = total
            total += a.ranks[p] * b.ranks[k - p]
        offsets.append(off)
        ranks.append(total)

    diffs = []
    for k in range(1, top + 1):
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
    return TwistedComplex(m, tuple(ranks), tuple(diffs))


def _pad_entries(d: LaurentMatrix, left: tuple, right: tuple,
                 nvars: int) -> list[dict[int, LaurentPolynomial]]:
    """The sparse columns of d, {row: entry}, each entry lifted to ``nvars``
    variables by the exponent vectors left + e + right; the lift is
    injective on exponents, so no terms merge."""
    return [{r: _make(nvars, {left + e + right: c for e, c in p.terms.items()})
             for r, p in col.items()} for col in d.transpose().sparse_rows]


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
    return BettiProfile(betti, character, route)


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
        torsion = smiths[j].nontrivial_factors() if j < complex_.top else ()
        entries.append(KernelDegreeEntry(
            degree=j,
            free_rank=complex_.ranks[j] - r_j - r_next,
            torsion_factors=torsion,
            torsion_dimension=sum(f.degree_span(0) for f in torsion),
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

    The windows are nested and a kept cell's boundary does not depend on k,
    so each cell is visited once, for the least radius keeping it, and each
    degree grows one echelon (``intlinalg.reduce_row``) by the boundaries,
    denominators cleared, of the cells each radius adds; its size is the
    rank of d_j on the window.  Cell (i, v) is the int i + width * (packed
    v + packed 0) in an ``ExponentBox`` of the exponents and box corners, so
    boundary cell (r, v + e) is (0, v) plus an offset of the term, and is
    no kept cell when v + e leaves the box.
    """
    m = complex_.nvars
    if m not in (1, 2):
        raise ValueError("windows are supported for 1 or 2 variables")
    if radius < 1:
        raise ValueError("radius must be >= 1")
    total = sum(complex_.ranks) * (radius + 1) ** m
    if total > ceiling:
        raise WindowTooLarge(total, ceiling)
    raw = [[[(r, e, c) for r, p in col.items() for e, c in p.terms.items()]
            for col in d.transpose().sparse_rows] for d in complex_.differentials]
    box = ExponentBox(m, {e for cols in raw for col in cols for _r, e, _c in col}
                      | {(0,) * m, (radius,) * m})
    width, zero, never = max(complex_.ranks), box.pack((0,) * m), radius + 1
    # each column of d_j as (key offset, coefficient) terms, degree 0's empty
    columns = [[()] * complex_.ranks[0]] + [
        [list(zip([width * (box.pack(e) - zero) + r for r, e, _c in col],
                  clear_denominators([c for _r, _e, c in col]))) for col in cols]
        for cols in raw]
    translates = [(v, width * (box.pack(v) + zero))
                  for v in iproduct(range(radius + 1), repeat=m)]
    batches = [[[] for _ in range(never + 1)] for _ in columns]
    enters: dict[int, int] = {}
    for j, cols in enumerate(columns):
        below, enters = enters, {}
        for i, terms in enumerate(cols):
            for v, key in translates:
                k = max(1, *v, *(below.get(key + off, never) for off, _c in terms))
                enters[key + i] = k
                batches[j][k].append((key, terms))
    kept = [0] * len(columns)
    pivots: list[dict] = [{} for _ in columns]  # the echelon of d_j at j
    per_degree = [[] for _ in columns]
    for k in range(1, radius + 1):
        for j, batch in enumerate(batches):
            kept[j] += len(batch[k])
            for key, terms in batch[k]:
                reduce_row(pivots[j], {key + off: c for off, c in terms})
        ranks = [len(p) for p in pivots] + [0]
        for j, seq in enumerate(per_degree):
            seq.append(kept[j] - ranks[j] - ranks[j + 1])
    return WindowReport(tuple(range(1, radius + 1)),
                        tuple(tuple(seq) for seq in per_degree))
