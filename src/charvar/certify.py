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
from .constructions import build_model
from .errors import NotUnivariate, TrivialNu, UnsupportedDegree, ZeroMap
from .jumploci import generic_rank_verdict, is_full_vr_product
from .laurent import pullback_character
from .presentations import (EpimorphismToZm, Presentation, induced_on_free_part,
                            validate_epimorphism)
from .sampling import box_for_trial, sample_character

CONCLUSION_HOMOLOGY = "H_leq_r_infinite"
CONCLUSION_NOT_FP = "not_FP_r"
CONCLUSION_NOT_COMMENSURABLE = "not_commensurable_FP_r"

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
    nu_images: tuple[tuple[int, ...], ...]
    nu_target_rank: int
    degree: int
    status: str  # "certified" | "not-established"
    conclusions: tuple[str, ...]
    evidence: dict
    citations: tuple[dict, ...]
    seed: int
    failed_hypothesis: str | None = None
    tool_version: str = __version__

    def to_json_dict(self) -> dict:
        return {
            "group": self.group,
            "nu": {"target_rank": self.nu_target_rank,
                   "images": [list(v) for v in self.nu_images]},
            "r": self.degree,
            "status": self.status,
            "conclusions": list(self.conclusions),
            "evidence": self.evidence,
            "citations": [dict(c) for c in self.citations],
            "failed_hypothesis": self.failed_hypothesis,
            "seed": self.seed,
            "tool_version": self.tool_version,
        }


def certify_non_fp(presentation: Presentation, nu: EpimorphismToZm, r: int,
                   seed: int = 0) -> Certificate:
    """Run the full pipeline: validate nu, decide fullness of the degree-r
    locus by the exact generic b_r (``is_full_vr_product`` on a product,
    ``generic_rank_verdict`` otherwise), and emit the certificate.

    Returns a "not-established" certificate with no conclusions when
    fullness cannot be established.  Never claims the kernel IS of type
    FP_r.
    """
    if r < 1:
        raise ValueError("degree r must be >= 1")
    try:
        nu = validate_epimorphism(presentation, nu.images)
    except ZeroMap as exc:
        raise TrivialNu("the map to Z^m is trivial") from exc
    model = build_model(presentation)
    verdict = (is_full_vr_product(model, r, seed=seed) if model.factors
               else generic_rank_verdict(model, r))
    group_name = presentation.tags.get("name", presentation.describe())
    if verdict.is_full:
        return Certificate(
            group=group_name,
            nu_images=nu.images, nu_target_rank=nu.target_rank, degree=r,
            status="certified",
            conclusions=(CONCLUSION_HOMOLOGY, CONCLUSION_NOT_FP,
                         CONCLUSION_NOT_COMMENSURABLE),
            evidence={"fullness": verdict.to_json_dict()},
            citations=CITATIONS, seed=seed)
    return Certificate(
        group=group_name,
        nu_images=nu.images, nu_target_rank=nu.target_rank, degree=r,
        status="not-established", conclusions=(),
        evidence={"fullness": verdict.to_json_dict()},
        citations=CITATIONS, seed=seed,
        failed_hypothesis=f"V^{r}_1 = T not established: "
                          f"{verdict.reason or verdict.status}")


@dataclass(frozen=True)
class ProbeReport:
    """Sampled twisted Betti profiles at characters pulled back through nu.

    Under the certificate's hypotheses no pullback character can have an
    all-zero profile in degrees <= r; conversely, if the kernel had
    finite-dimensional homology through degree r, almost every sample
    would vanish.  ``vanishing_count`` counts all-zero profiles.
    """

    trials: int
    degree: int
    vanishing_count: int
    samples: tuple[dict, ...]
    seed: int
    box_schedule: str

    def to_json_dict(self) -> dict:
        return {
            "trials": self.trials,
            "r": self.degree,
            "vanishing_count": self.vanishing_count,
            "samples": list(self.samples),
            "seed": self.seed,
            "box_schedule": self.box_schedule,
        }


def generic_vanishing_probe(presentation: Presentation, nu: EpimorphismToZm,
                            r: int, trials: int = 100, seed: int = 0) -> ProbeReport:
    """Sample rational characters of the target torus, pull back through
    nu, and record the twisted Betti numbers in degrees <= r, from
    ``GroupModel.betti`` (on a product, convolved from the factors').  The
    trivial character is never sampled; boxes start at {-2..2} and double
    every batch of 16 trials.  Deterministic under a fixed seed."""
    if r < 1:
        raise ValueError("degree r must be >= 1")
    if trials < 1:
        raise ValueError("need at least one trial")
    nu = validate_epimorphism(presentation, nu.images)
    model = build_model(presentation)
    if r > model.complex.top:
        raise UnsupportedDegree(f"degree r={r} outside the chain model "
                                f"(top {model.complex.top})")
    nubar = induced_on_free_part(nu, model.abelian)
    rng = random.Random(seed)
    samples = []
    vanishing = 0
    for trial in range(trials):
        rho = sample_character(rng, nu.target_rank, box_for_trial(trial))
        pulled = pullback_character(nubar, rho, model.complex.nvars)
        betti = model.betti(pulled).betti[:r + 1]
        is_zero = all(b == 0 for b in betti)
        vanishing += is_zero
        samples.append({"rho": rho.describe(), "betti": list(betti),
                        "vanishing": is_zero})
    return ProbeReport(trials=trials, degree=r, vanishing_count=vanishing,
                       samples=tuple(samples), seed=seed,
                       box_schedule="coordinates in {-B..B}\\{0}, B=2 "
                                    "doubling every 16 trials")


@dataclass(frozen=True)
class KernelReport:
    """Exact rational homology of the kernel of a map onto Z, as a module
    over Q[t, t^-1], through ``top_degree``, with the scope in which it is
    group homology."""

    homology: KernelHomologyReport
    top_degree: int
    degree2_scope: str

    def to_json_dict(self) -> dict:
        out = self.homology.to_json_dict()
        out["degrees"] = out["degrees"][:self.top_degree + 1]
        out["degree2_scope"] = self.degree2_scope
        return out


def kernel_report_univariate(presentation: Presentation, nu: EpimorphismToZm,
                             top_degree: int = 2) -> KernelReport:
    """Per-degree structure of the kernel's rational homology as a module
    over Q[t, t^-1], by ``GroupModel.kernel_homology``; exact verdicts, no
    sampling."""
    if top_degree < 0:
        raise ValueError("top degree must be >= 0")
    nu = validate_epimorphism(presentation, nu.images)
    if nu.target_rank != 1:
        raise NotUnivariate("exact kernel homology needs a map onto Z")
    model = build_model(presentation)
    nubar = induced_on_free_part(nu, model.abelian)
    homology = model.kernel_homology(nubar)
    scope = ("group homology in every degree (aspherical model)"
             if model.aspherical else
             "group homology in degrees <= 1; degree 2 is homology of the "
             "presentation 2-complex")
    return KernelReport(homology=homology,
                        top_degree=min(top_degree, model.complex.top),
                        degree2_scope=scope)
