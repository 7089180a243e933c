"""Ideals of the homology jump loci and fullness decisions.

The depth-t locus in degree one is, away from the trivial character, the
zero set of the (n - t)-minors of the Alexander matrix.  Fullness of a
locus is decided by the exact generic Betti number, never by sampling
alone: the locus is closed, so it fills the torus exactly when the generic
Betti number already jumps: "full" when the generic b_r is >= 1, else
"not_full".  A chain model (aspherical, by ``check_degree``) has no cells
above its top, so b_r = 0 there at every character.
On a model without factors, generic ranks come from the modular sandwich
of ``complexes.generic_ranks``: ranks mod a prime at one point bound each
generic rank from below, d o d = 0 bounds it from above through the
neighbouring ranks, and a rank the two bounds do not pin is computed by
exact symbolic elimination.  On a product, the generic Betti numbers are
the convolution of the factors' (Kunneth over the field of rational
functions, ``GroupModel.betti``), each factor decided by its own sandwich,
and its shape comes from the factors too, so no verdict reads the
product's tensor complex; only the spot checks of a full verdict build it.
The route is recorded in the witness.  The trivial character and the
order-2 character are checked explicitly in every verdict at or below the
top, their Betti numbers convolved from the factors' on a product.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import reduce

# perfbench's tracer test reads twisted_betti from this module
from .complexes import generic_ranks, twisted_betti
from .constructions import GroupModel
from .errors import InternalInconsistency, UnsupportedDegree
from .fox import alexander_matrix
from .laurent import GENERIC, Character, LaurentPolynomial
from .lmatrix import DEFAULT_MINOR_CEILING, check_minor_count, minors, univariate_gcd
from .sampling import sample_character

# seeded characters at which a full product verdict spot-checks b_r
SPOT_SAMPLES = 3


@dataclass(frozen=True)
class V1Ideal:
    generators: tuple[LaurentPolynomial, ...]
    minor_size: int
    trivial_character_b1: int
    by_shape: bool

    def to_json_dict(self) -> dict:
        gens = self.generators
        return {
            "generators": [g.to_text() for g in gens],
            "minor_size": self.minor_size,
            "zero_ideal": not gens,
            # a unit generator proves the unit ideal; false proves nothing,
            # but in one variable (Q[t, t^-1] is a PID) the gcd decides
            "unit_ideal": (reduce(univariate_gcd, gens).is_unit() if gens and
                           gens[0].nvars == 1 else any(g.is_unit() for g in gens)),
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
    ideal.  The minor count is checked against ``ceiling`` from the
    relator count alone, so a product too large for its minors never
    derives its commutators; only the Alexander matrix reads them.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    n = model.presentation.ngens
    rows = model.presentation.nrelators
    k = n - depth
    trivial_b1 = model.abelian.torsion_free_rank
    if k <= 0:
        return V1Ideal((LaurentPolynomial.one(trivial_b1),), k, trivial_b1, by_shape=True)
    if k > min(rows, n):
        return V1Ideal((), k, trivial_b1, by_shape=True)
    check_minor_count(rows, n, k, ceiling)
    gens = []
    seen = set()
    for g in minors(alexander_matrix(model.presentation, model.abelian), k, ceiling):
        if g.is_zero():
            continue
        normal = g.unit_normal()
        if normal not in seen:
            seen.add(normal)
            gens.append(normal)
    gens.sort(key=lambda p: p.to_text())
    return V1Ideal(tuple(gens), k, trivial_b1, by_shape=False)


@dataclass(frozen=True)
class FullnessVerdict:
    """The degree r asked, the exact generic b_r and the record that
    decided and checked it (route, special points, spot checks).  The
    locus is full exactly when the generic b_r is >= 1, and otherwise
    misses a nonempty open set: both answers are definite."""

    degree: int
    generic_b: int
    record: dict

    @property
    def is_full(self) -> bool:
        return self.generic_b >= 1

    @property
    def status(self) -> str:
        return "full" if self.is_full else "not_full"

    @property
    def witness(self) -> dict:
        return {f"generic_b{self.degree}": self.generic_b, **self.record}

    def to_json_dict(self) -> dict:
        return {
            "is_full": self.is_full,
            "status": self.status,
            "method": "generic-rank",
            "witness": self.witness,
            "reason": None if self.is_full else f"generic b_{self.degree} = 0, so "
                                                "the locus misses a nonempty open set",
        }


def generic_betti_in_degree(model: GroupModel, degree: int) -> tuple[int, dict]:
    """b_degree at the generic point, with the route record that decided
    it.  On a product it is read from ``GroupModel.betti(GENERIC)``, the
    convolution of the factors' generic profiles, and the route is the
    "kunneth" record of the factors' routes.  Otherwise only the two
    adjacent ranks are asked of ``generic_ranks``, so a rank the modular
    sandwich leaves open elsewhere never reaches symbolic elimination."""
    if model.factors:
        profile = model.betti(GENERIC)
        return profile.betti[degree], profile.route
    complex_ = model.complex
    adjacent = [j for j in (degree, degree + 1) if 1 <= j <= complex_.top]
    ranks, route = generic_ranks(complex_, adjacent)
    return complex_.ranks[degree] - ranks[degree] - ranks[degree + 1], route


def _special_point_checks(model: GroupModel, degree: int) -> list[dict]:
    """Betti numbers in the target degree at the trivial character and the
    order-2 character with every coordinate -1."""
    nvars = model.nvars
    points = [("trivial", Character.trivial(nvars))]
    if nvars:
        points.append(("order2-all-minus", Character((-1,) * nvars)))
    out = []
    for label, rho in points:
        betti = model.betti(rho).betti
        out.append({"point": label,
                    "character": rho.describe(),
                    "betti": list(betti),
                    "b_degree": betti[degree]})
    return out


def _require_jumps(points: list[dict], key: str, why: str) -> None:
    """Raise unless every checked point has Betti number ``key`` >= 1.  A
    full locus contains every character, so a point without a jump means
    the computation that declared fullness is wrong."""
    for p in points:
        if p[key] < 1:
            raise InternalInconsistency(
                f"{why}, but {key} = {p[key]} at the character {p['character']}")


def check_degree(r: int, aspherical: bool) -> None:
    """The one rule on the degree r of a question about group homology,
    read by ``generic_rank_verdict``, ``certify.certify_non_fp`` and
    ``certify.generic_vanishing_probe``: r >= 1, and r >= 2 only on an
    aspherical model, whose every degree is group homology; a presentation
    2-complex gives group homology only in degrees <= 1.  A degree above
    the top passes: the model has no cells there, so b_r = 0."""
    if r < 1:
        raise ValueError("degree r must be >= 1")
    if r >= 2 and not aspherical:
        raise UnsupportedDegree(
            "degree >= 2 needs an aspherical chain model; "
            "only catalog groups carry that certainty")


def group_homology_scope(aspherical: bool) -> str:
    """The rule of ``check_degree`` in words, printed as betti's ``scope``
    and kernel's ``degree2_scope``."""
    if aspherical:
        return "all degrees are group homology (aspherical model)"
    return ("degrees <= 1 are group homology; degree 2 is homology of the "
            "presentation 2-complex")


def generic_rank_verdict(model: GroupModel, r: int) -> FullnessVerdict:
    """Does the degree-r depth-one locus fill the whole torus?  Decided by
    the exact generic b_r (``generic_betti_in_degree``): every rank only
    drops on closed sets, so b_r is minimized at the generic point and the
    generic value settles the question in both directions; above the chain
    model's top it is 0 with no computation.  The degree must pass
    ``check_degree``."""
    check_degree(r, model.aspherical)
    if r > model.top:
        return FullnessVerdict(r, 0, {"chain_top": model.top})
    generic_b, route = generic_betti_in_degree(model, r)
    specials = _special_point_checks(model, r)
    if generic_b >= 1:
        _require_jumps(specials, "b_degree", f"generic b_{r} = {generic_b}")
    return FullnessVerdict(r, generic_b, {"special_points": specials, "route": route})


def is_full_v1(model: GroupModel) -> FullnessVerdict:
    """Does the degree-one depth-one locus fill the whole torus?  The
    generic-rank verdict in degree one, for catalog and user groups alike."""
    return generic_rank_verdict(model, 1)


def is_full_vr_product(model: GroupModel, r: int, seed: int = 0) -> FullnessVerdict:
    """The generic-rank verdict in degree r, for any r and any model: the
    one entry of ``certify`` and ``jumploci --r``.  On a product a full
    verdict also records b_r at ``SPOT_SAMPLES`` seeded characters, each
    profile convolved from the factors' by ``GroupModel.betti``; any other
    model gets the plain ``generic_rank_verdict``."""
    verdict = generic_rank_verdict(model, r)
    if not verdict.is_full or not model.factors:
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
    _require_jumps(samples, "b_r", f"generic b_{r} = {verdict.generic_b}")
    return FullnessVerdict(r, verdict.generic_b, {
        **verdict.record, "spot_checks": samples, "seed": seed})
