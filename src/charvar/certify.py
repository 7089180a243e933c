"""Non-finiteness certificates for kernels of maps onto Z^m.

The criterion is one-directional: when the degree-r depth-one jump locus
fills the whole character torus and the map to Z^m is nontrivial, the
kernel has infinite-dimensional rational homology in some degree <= r, is
not of type FP_r, and (finiteness properties being invariants of
commensurability up to finite kernels) is not commensurable to any FP_r
group.  Nothing is ever concluded in the other direction.

Certificates name the principles they rest on as self-contained
mathematical statements so the chain of reasoning is auditable from the
certificate alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import __version__
# perfbench's tracer test reads twisted_betti from this module
from .complexes import KernelHomologyReport, twisted_betti
from .constructions import build_model, model_along
from .errors import NotUnivariate
from .jumploci import (FullnessVerdict, check_degree, group_homology_scope,
                       is_full_vr_product)
from .presentations import EpimorphismToZm, Presentation, validate_epimorphism
from .sampling import BOX_SCHEDULE, box_for_trial, sample_character

CONCLUSION_HOMOLOGY = "H_leq_r_infinite"
CONCLUSION_NOT_FP = "not_FP_r"
CONCLUSION_NOT_COMMENSURABLE = "not_commensurable_FP_r"
CONCLUSIONS = (CONCLUSION_HOMOLOGY, CONCLUSION_NOT_FP, CONCLUSION_NOT_COMMENSURABLE)

CITATIONS = (
    {
        "id": "full-locus-kills-finiteness",
        "statement": "if the degree-r depth-1 homology jump locus of G fills "
                     "the whole character torus and nu: G -> Z^m is a "
                     "nontrivial homomorphism, then the kernel of nu has "
                     "infinite-dimensional rational homology in degrees <= r",
        "supports": [CONCLUSION_HOMOLOGY, CONCLUSION_NOT_FP],
    },
    {
        "id": "fp-needs-finite-homology",
        "statement": "a group of type FP_r has finitely generated homology "
                     "in every degree <= r",
        "supports": [CONCLUSION_NOT_FP],
    },
    {
        "id": "fp-commensurability-invariance",
        "statement": "type FP_n passes to and from finite-index subgroups and "
                     "through quotients by FP_infinity kernels, so it is "
                     "invariant under commensurability up to finite kernels",
        "supports": [CONCLUSION_NOT_COMMENSURABLE],
    },
    {
        "id": "product-locus-fullness",
        "statement": "by the Kunneth formula over a field K, the twisted "
                     "Betti numbers of G_1 x ... x G_k at a character are "
                     "the convolution of the factors' at its restrictions; "
                     "over the field of rational functions this makes the "
                     "generic b_r of the product the sum over i_1 + ... + "
                     "i_k = r of the products of the factors' generic "
                     "b_(i_j)",
        "supports": ["fullness"],
    },
    {
        "id": "generic-rank-openness",
        "statement": "ranks of Laurent-matrix evaluations drop only on a "
                     "proper closed subvariety, so twisted Betti numbers are "
                     "minimized at the generic point and a generic jump "
                     "forces a jump at every character",
        "supports": ["fullness"],
    },
    {
        "id": "modular-rank-sandwich",
        "statement": "let d_j be the differentials of a complex of Laurent "
                     "matrices with d_(j-1) d_j = 0, c_j the free ranks, p a "
                     "prime dividing no coefficient denominator, a a point of "
                     "(F_p^*)^n and r_j the rank of d_j(a) over F_p; then "
                     "r_j <= generic rank of d_j <= min(c_(j-1) - r_(j-1), "
                     "c_j - r_(j+1)), so the generic rank equals r_j when "
                     "the two bounds meet",
        "supports": ["fullness"],
    },
)


@dataclass(frozen=True)
class Certificate:
    group: str
    nu: EpimorphismToZm
    fullness: FullnessVerdict
    seed: int

    @property
    def status(self) -> str:
        return "certified" if self.fullness.is_full else "not-established"

    @property
    def conclusions(self) -> tuple[str, ...]:
        return CONCLUSIONS if self.fullness.is_full else ()

    def to_json_dict(self) -> dict:
        fullness = self.fullness.to_json_dict()
        r = self.fullness.degree
        return {
            "group": self.group,
            "nu": {"target_rank": self.nu.target_rank,
                   "images": [list(v) for v in self.nu.images]},
            "r": r,
            "status": self.status,
            "conclusions": list(self.conclusions),
            "evidence": {"fullness": fullness},
            "citations": [dict(c) for c in CITATIONS],
            "failed_hypothesis": None if self.fullness.is_full else (
                f"V^{r}_1 = T not established: {fullness['reason']}"),
            "seed": self.seed,
            "tool_version": __version__,
        }


def certify_non_fp(presentation: Presentation, nu: EpimorphismToZm, r: int,
                   seed: int = 0) -> Certificate:
    """Run the full pipeline: validate nu (a zero map raises ``ZeroMap``),
    decide fullness of the degree-r locus by the exact generic b_r
    (``is_full_vr_product``), and emit the certificate.

    The certificate is "not-established", with no conclusions, when the
    locus is not full.  Never claims the kernel IS of type FP_r.
    """
    nu = validate_epimorphism(presentation, nu.images)
    check_degree(r, presentation.aspherical)
    verdict = is_full_vr_product(build_model(presentation), r, seed=seed)
    return Certificate(presentation.label, nu, verdict, seed)


@dataclass(frozen=True)
class ProbeReport:
    """Sampled twisted Betti profiles at characters pulled back through nu.

    Under the certificate's hypotheses no pullback character can have an
    all-zero profile in degrees <= r; conversely, if the kernel had
    finite-dimensional homology through degree r, almost every sample
    would vanish.  ``vanishing_count`` counts all-zero profiles.
    """

    degree: int
    samples: tuple[dict, ...]
    seed: int

    @property
    def vanishing_count(self) -> int:
        return sum(not any(s["betti"]) for s in self.samples)

    def to_json_dict(self) -> dict:
        return {
            "trials": len(self.samples),
            "r": self.degree,
            "vanishing_count": self.vanishing_count,
            "samples": [{**s, "vanishing": not any(s["betti"])} for s in self.samples],
            "seed": self.seed,
            "box_schedule": BOX_SCHEDULE,
        }


def generic_vanishing_probe(presentation: Presentation, nu: EpimorphismToZm,
                            r: int, trials: int = 100, seed: int = 0) -> ProbeReport:
    """Sample rational characters of the target torus on the schedule of
    ``sampling``, pull back through nu, and record the twisted Betti
    numbers in degrees <= r, from ``GroupModel.pullback_betti`` (on a
    product, block by distinct factor block; a character or power a model
    has met costs no work).  Deterministic under a fixed seed.  The
    degree obeys ``jumploci.check_degree``: a sample's b_r for r >= 2 on a
    presentation 2-complex is not group homology, so it is refused; above
    the model's top every b_j is 0, as the model has no cells there."""
    nu, model, nubar = model_along(presentation, nu.images)
    check_degree(r, presentation.aspherical)
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = random.Random(seed)
    samples = []
    for trial in range(trials):
        rho = sample_character(rng, nu.target_rank, box_for_trial(trial))
        betti = model.pullback_betti(nubar, rho)
        samples.append({"rho": rho.describe(),
                        "betti": list(betti[:r + 1]) + [0] * (r - model.top)})
    return ProbeReport(r, tuple(samples), seed)


@dataclass(frozen=True)
class KernelReport:
    """Exact rational homology of the kernel of a map onto Z, as a module
    over Q[t, t^-1], through the degree asked, with the scope in which it
    is group homology."""

    homology: KernelHomologyReport
    aspherical: bool

    def to_json_dict(self) -> dict:
        out = self.homology.to_json_dict()
        out["degree2_scope"] = group_homology_scope(self.aspherical)
        return out


def kernel_report_univariate(presentation: Presentation, nu: EpimorphismToZm,
                             top_degree: int = 2) -> KernelReport:
    """Per-degree structure of the kernel's rational homology as a module
    over Q[t, t^-1], by ``GroupModel.kernel_homology``; exact verdicts, no
    sampling."""
    nu, model, nubar = model_along(presentation, nu.images)
    if top_degree < 0:
        raise ValueError("top degree must be >= 0")
    if nu.target_rank != 1:
        raise NotUnivariate("exact kernel homology needs a map onto Z")
    entries = model.kernel_homology(nubar).entries[:top_degree + 1]
    return KernelReport(KernelHomologyReport(entries), model.aspherical)
