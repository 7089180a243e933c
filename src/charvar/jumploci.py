"""Ideals of the homology jump loci and fullness decisions.

The depth-t locus in degree one is, away from the trivial character, the
zero set of the (n - t)-minors of the Alexander matrix.  Fullness of a
locus is decided by the exact generic Betti number, never by sampling
alone: the locus is closed, so it fills the torus exactly when the generic
Betti number already jumps, and the verdict holds in both directions.
On a model without factors, generic ranks come from the modular sandwich
of ``complexes.generic_ranks``: ranks mod a prime at one point bound each
generic rank from below, d o d = 0 bounds it from above through the
neighbouring ranks, and a rank the two bounds do not pin is computed by
exact symbolic elimination.  On a product, the generic Betti numbers are
the convolution of the factors' (Kunneth over the field of rational
functions, ``GroupModel.betti``), each factor decided by its own sandwich,
so no verdict ranks the product's tensor complex.  The route is recorded
in the witness.  The trivial character and the order-2 character are
checked explicitly in every verdict, their Betti numbers convolved from
the factors' on a product.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# perfbench's tracer test reads twisted_betti from this module
from .complexes import generic_ranks, twisted_betti
from .constructions import GroupModel
from .errors import InternalInconsistency, UnsupportedDegree
from .fox import alexander_matrix
from .laurent import GENERIC, Character, LaurentPolynomial
from .lmatrix import DEFAULT_MINOR_CEILING, minors
from .sampling import sample_character

# seeded characters at which a full product verdict spot-checks b_r
SPOT_SAMPLES = 3


@dataclass(frozen=True)
class V1Ideal:
    generators: tuple[LaurentPolynomial, ...]
    minor_size: int
    zero_ideal: bool
    unit_ideal: bool
    trivial_character_b1: int
    by_shape: bool

    def to_json_dict(self) -> dict:
        return {
            "generators": [g.to_text() for g in self.generators],
            "minor_size": self.minor_size,
            "zero_ideal": self.zero_ideal,
            "unit_ideal": self.unit_ideal,
            "trivial_character_b1": self.trivial_character_b1,
            "zero_ideal_by_shape": self.by_shape,
        }


def v1_ideal(model: GroupModel, depth: int = 1,
             ceiling: int = DEFAULT_MINOR_CEILING) -> V1Ideal:
    """Generators of the determinantal ideal cutting out the depth-t locus
    in degree one, away from the trivial character.

    Size-(n-t) minors of the Alexander matrix vanish exactly where the
    matrix rank drops to n-1-t, i.e. where b_1 >= t for a nontrivial
    character.  At the trivial character b_1 is the free rank of H_1,
    reported separately.  When n - t exceeds the matrix dimensions there
    are no minors and the ideal is zero (locus is everything); when
    n - t <= 0 no character can jump that far and the ideal is the unit
    ideal.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    alex = alexander_matrix(model.presentation, model.abelian)
    n = model.presentation.ngens
    k = n - depth
    trivial_b1 = model.abelian.torsion_free_rank
    if k <= 0:
        return V1Ideal((LaurentPolynomial.one(alex.nvars),), k,
                       zero_ideal=False, unit_ideal=True,
                       trivial_character_b1=trivial_b1, by_shape=True)
    if k > min(alex.rows, alex.cols):
        return V1Ideal((), k, zero_ideal=True, unit_ideal=False,
                       trivial_character_b1=trivial_b1, by_shape=True)
    gens = []
    seen = set()
    for g in minors(alex, k, ceiling):
        if g.is_zero():
            continue
        normal = g.unit_normal()
        if normal not in seen:
            seen.add(normal)
            gens.append(normal)
    gens.sort(key=lambda p: p.to_text())
    return V1Ideal(tuple(gens), k, zero_ideal=not gens, unit_ideal=False,
                   trivial_character_b1=trivial_b1, by_shape=False)


@dataclass(frozen=True)
class FullnessVerdict:
    """Outcome of a fullness decision.

    "full" and "not_full" are definite, both read off the exact generic
    Betti number; "not_concluded" is left only for a degree above the top
    of the chain model, where the model says nothing.
    """

    is_full: bool
    status: str  # "full" | "not_full" | "not_concluded"
    method: str | None
    witness: dict = field(default_factory=dict)
    reason: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "is_full": self.is_full,
            "status": self.status,
            "method": self.method,
            "witness": self.witness,
            "reason": self.reason,
        }


def generic_betti_in_degree(model: GroupModel, degree: int) -> tuple[int, dict]:
    """b_degree at the generic point, with the route record that decided
    it.  On a product it is read from ``GroupModel.betti(GENERIC)``, the
    convolution of the factors' generic profiles, and the route is the
    "kunneth" record of the factors' routes.  Otherwise only the two
    adjacent ranks are asked of ``generic_ranks``, so a rank the modular
    sandwich leaves open elsewhere never reaches symbolic elimination."""
    complex_ = model.complex
    if model.factors:
        profile = model.betti(GENERIC)
        return profile.betti[degree], profile.route
    adjacent = [j for j in (degree, degree + 1) if 1 <= j <= complex_.top]
    ranks, route = generic_ranks(complex_, adjacent)
    return complex_.ranks[degree] - ranks[degree] - ranks[degree + 1], route


def _special_point_checks(model: GroupModel, degree: int) -> list[dict]:
    """Betti numbers in the target degree at the trivial character and the
    order-2 character with every coordinate -1."""
    nvars = model.complex.nvars
    points = [("trivial", Character.trivial(nvars))]
    if nvars:
        points.append(("order2-all-minus", Character((-1,) * nvars)))
    out = []
    for label, rho in points:
        betti = model.betti(rho).betti
        out.append({"point": label,
                    "character": rho.describe(),
                    "betti": list(betti),
                    "b_degree": betti[degree] if degree <= len(betti) - 1 else 0})
    return out


def _require_jumps(points: list[dict], key: str, why: str) -> None:
    """Raise unless every checked point has Betti number ``key`` >= 1.  A
    full locus contains every character, so a point without a jump means
    the computation that declared fullness is wrong."""
    for p in points:
        if p[key] < 1:
            raise InternalInconsistency(
                f"{why}, but {key} = {p[key]} at the character {p['character']}")


def generic_rank_verdict(model: GroupModel, r: int) -> FullnessVerdict:
    """Does the degree-r depth-one locus fill the whole torus?  Decided by
    the exact generic b_r (``generic_betti_in_degree``): every rank only
    drops on closed sets, so b_r is minimized at the generic point and the
    generic value settles the question in both directions.  Degrees r >= 2
    need an aspherical model, whose every degree is group homology."""
    if r < 1:
        raise ValueError("degree r must be >= 1")
    if r >= 2 and not model.aspherical:
        raise UnsupportedDegree(
            "degree >= 2 fullness needs an aspherical chain model; "
            "only catalog groups carry that certainty")
    if r > model.complex.top:
        return FullnessVerdict(
            False, "not_concluded", "generic-rank",
            reason=f"chain model stops in degree {model.complex.top} < r={r}")
    generic_b, route = generic_betti_in_degree(model, r)
    specials = _special_point_checks(model, r)
    witness = {f"generic_b{r}": generic_b, "special_points": specials,
               "route": route}
    if generic_b >= 1:
        _require_jumps(specials, "b_degree", f"generic b_{r} = {generic_b}")
        return FullnessVerdict(True, "full", "generic-rank", witness=witness)
    return FullnessVerdict(False, "not_full", "generic-rank", witness=witness,
                           reason=f"generic b_{r} = 0, so the locus misses a "
                                  f"nonempty open set")


def is_full_v1(model: GroupModel) -> FullnessVerdict:
    """Does the degree-one depth-one locus fill the whole torus?  The
    generic-rank verdict in degree one, for catalog and user groups
    alike."""
    return generic_rank_verdict(model, 1)


def is_full_vr_product(model: GroupModel, r: int, seed: int = 0) -> FullnessVerdict:
    """The generic-rank verdict in degree r on a product, for any r and any
    factors.  A full verdict also records b_r at ``SPOT_SAMPLES`` seeded
    characters, each profile convolved from the factors' by
    ``GroupModel.betti``."""
    verdict = generic_rank_verdict(model, r)
    if not verdict.is_full:
        return verdict
    # the spot checks decide nothing, since the generic b_r already has;
    # they stay because perfbench's pencil check reads them
    rng = random.Random(seed)
    samples = []
    for _ in range(SPOT_SAMPLES):
        rho = sample_character(rng, model.complex.nvars, box=3)
        betti = model.betti(rho).betti
        samples.append({"character": rho.describe(),
                        "betti": list(betti), "b_r": betti[r]})
    _require_jumps(samples, "b_r",
                   f"generic b_{r} = {verdict.witness[f'generic_b{r}']}")
    return FullnessVerdict(True, "full", "generic-rank", witness={
        **verdict.witness, "spot_checks": samples, "seed": seed})
