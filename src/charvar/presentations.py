"""Finite group presentations, abelianizations, and maps onto Z^m."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import prod
from typing import TYPE_CHECKING

from .errors import NotSurjective, RelatorNotKilled, ZeroMap
from .intlinalg import mat_mul, smith_normal_form
from .words import Word

if TYPE_CHECKING:
    from .constructions import Graph


@dataclass(frozen=True)
class Presentation:
    """A finite presentation <generators | relators> and what the catalog
    asserts of its group: ``name``, ``aspherical`` (its chain model computes
    group homology in every degree), a direct product's ``factors`` in
    order, and a right-angled Artin group's ``graph``.  Only the
    constructors set these facts, never the parser.

    ``stored_relators`` are the words given; ``relators`` is every relator.
    The two agree but on a direct product, which stores its factors'
    relators, shifted and in order, and derives the commutators of two
    factors' generators from ``factors`` on the first read of ``relators``.
    ``==`` and ``hash`` read only the stored fields, which determine the
    commutators."""

    generators: tuple[str, ...]
    stored_relators: tuple[Word, ...]
    name: str | None = None
    aspherical: bool = False
    factors: tuple[Presentation, ...] = ()
    graph: Graph | None = None

    def __post_init__(self):
        if len(set(self.generators)) != len(self.generators):
            raise ValueError("generator names must be distinct")
        n = len(self.generators)
        # a derived commutator is in range by construction
        for r in self.stored_relators:
            if r.max_generator() >= n:
                raise ValueError("relator uses an undeclared generator")

    @cached_property
    def relators(self) -> tuple[Word, ...]:
        """The stored relators, then on a direct product [x, y] = x y x^-1 y^-1
        for each pair of factors in order, x running over the first one's
        generators and, inside, y over the second one's."""
        if not self.factors:
            return self.stored_relators
        spans, left = [], 0
        for f in self.factors:
            spans.append(range(left, left + f.ngens))
            left += f.ngens
        # [x, y] of distinct generators is already reduced
        return self.stored_relators + tuple(
            Word(((x, 1), (y, 1), (x, -1), (y, -1)))
            for xs, ys in combinations(spans, 2) for x in xs for y in ys)

    @property
    def nrelators(self) -> int:
        """``len(relators)``, without deriving a commutator: the stored
        ones and n_i * n_j for each pair of factors, of n_i and n_j
        generators."""
        sizes = [f.ngens for f in self.factors]
        return len(self.stored_relators) + (sum(sizes) ** 2 - sum(n * n for n in sizes)) // 2

    @property
    def ngens(self) -> int:
        return len(self.generators)

    def exponent_matrix(self) -> list[list[int]]:
        """Relators x generators matrix of total exponents."""
        return [list(r.exponent_vector(self.ngens)) for r in self.relators]

    @property
    def label(self) -> str:
        """The catalog name, else the presentation written out."""
        return self.name or self.describe()

    def describe(self) -> str:
        gens = ", ".join(self.generators)
        rels = "; ".join(r.to_text(self.generators) for r in self.relators)
        return f"<{gens} | {rels}>" if rels else f"<{gens} | >"


@dataclass(frozen=True)
class AbelianData:
    """H_1 of a presentation: free rank, torsion chain, and the projection
    Z^n -> Z^m onto the free part together with an integer section of it."""

    torsion_free_rank: int
    torsion_invariants: tuple[int, ...]
    projection: tuple[tuple[int, ...], ...]  # m x n
    section: tuple[tuple[int, ...], ...]  # n x m, projection @ section = I


@dataclass(frozen=True)
class EpimorphismToZm:
    """A map G -> Z^m recorded by generator images, unchecked: each query
    entry point (certify, probe, kernel, oracle) first validates it as a
    surjection by ``validate_epimorphism``."""

    target_rank: int
    images: tuple[tuple[int, ...], ...]  # one vector in Z^m per generator

    def of_word(self, w: Word) -> tuple[int, ...]:
        out = [0] * self.target_rank
        for g, e in w.syllables:
            img = self.images[g]
            for l in range(self.target_rank):
                out[l] += e * img[l]
        return tuple(out)

    def is_zero(self) -> bool:
        return all(all(x == 0 for x in img) for img in self.images)


def abelianize(presentation: Presentation) -> AbelianData:
    """Smith normal form of the relator exponent lattice."""
    n = presentation.ngens
    exponents = presentation.exponent_matrix()
    # columns of A are the relator exponent vectors; n x 0 without relators
    a = [[row[i] for row in exponents] for i in range(n)]
    d, u, uinv = smith_normal_form(a)
    diag = [d[i][i] for i in range(min(n, len(exponents)))]
    k = sum(1 for x in diag if x)
    torsion = tuple(x for x in diag if x > 1)
    projection = tuple(tuple(u[i]) for i in range(k, n))
    section = tuple(tuple(uinv[i][k:n]) for i in range(n))
    return AbelianData(n - k, torsion, projection, section)


def validate_epimorphism(presentation: Presentation, images) -> EpimorphismToZm:
    """Check that generator images define a genuine surjection G -> Z^m.

    Every relator must map to zero.  Only the stored relators are read: on
    a direct product these are its factors' relators, listed first in
    ``relators``, and the derived commutators map to zero under any map to
    an abelian group.  Raises RelatorNotKilled, with the relator's index in
    ``presentation.relators``, ZeroMap, or NotSurjective, whose message
    gives the rank, or the index, of the image lattice from its Smith form.
    """
    images = tuple(tuple(v) for v in images)
    if len(images) != presentation.ngens:
        raise ValueError("need one image vector per generator")
    if not images:
        raise ZeroMap("the group has no generators, so every map is zero")
    ranks = {len(v) for v in images}
    if len(ranks) != 1:
        raise ValueError("image vectors have mixed lengths")
    m = ranks.pop()
    if m < 1:
        raise ValueError("target rank must be >= 1")
    nu = EpimorphismToZm(m, images)
    if nu.is_zero():
        raise ZeroMap("every generator maps to zero")
    for idx, r in enumerate(presentation.stored_relators):
        if any(nu.of_word(r)):
            raise RelatorNotKilled(idx)
    # image lattice: columns are the generator images
    lattice = [[images[i][l] for i in range(presentation.ngens)] for l in range(m)]
    d, _, _ = smith_normal_form(lattice)
    diag = [d[i][i] for i in range(min(m, presentation.ngens))]
    if len(diag) < m or 0 in diag:
        raise NotSurjective(f"images span a rank-{sum(1 for x in diag if x)} "
                            f"sublattice of Z^{m}")
    if any(x != 1 for x in diag):
        raise NotSurjective(f"images span a finite-index proper sublattice "
                            f"of Z^{m} (index {prod(diag)})")
    return nu


def induced_on_free_part(nu: EpimorphismToZm, abelian: AbelianData):
    """The integer matrix nubar with nubar o projection = images.

    Exists and is unique because Z^m is torsion-free, so nu factors through
    the free part of H_1.  Returned as a target_rank x torsion_free_rank
    matrix of ints.
    """
    n = len(abelian.section)
    images = [[nu.images[i][l] for i in range(n)] for l in range(nu.target_rank)]
    section = [list(r) for r in abelian.section]
    nubar = mat_mul(images, section)
    check = mat_mul(nubar, [list(r) for r in abelian.projection])
    if check != images:
        raise ValueError("map does not factor through the free part of H_1")
    return nubar
