"""Workload plans: seeded CLI argv and the invariant each answer must meet.

A plan sends rounds of queries of two kinds with fixed sizes.  The seed varies only
the inputs the mathematics leaves free (character seeds, the map nu), so
every seed asks the same questions of the same size.  Every answer is
checked against a mathematical invariant, never against a stored output of
the same code.

This module imports nothing from charvar, so the set-up measurement can
time ``import charvar`` and argv generation separately.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import gcd

WORKLOADS = ("pencil", "generic", "kernel")

# The query kinds of each workload, in the order a round runs them; the
# first kind is reported as query1_s_p50 and the second as query2_s_p50.
# A kernel round runs the window twice: one window takes twice as long as
# one kernel query and its time is noisier, so the extra sample brings the
# two medians to a similar spread.
ROUNDS = {
    "pencil": ("certify", "probe"),
    "generic": ("certify", "jumploci"),
    "kernel": ("kernel", "window", "window"),
}
KINDS = {name: tuple(dict.fromkeys(kinds)) for name, kinds in ROUNDS.items()}

# Full sizes and the tiny sizes of the smoke mode the tests use.
SIZES = {
    False: {"pencil_genus": (2, 2, 2), "probe_trials": 32,
            "generic_genus": (2, 2), "jumploci_genus": (2, 3),
            "kernel_genus": (2, 2, 2), "top_degree": 6, "radius": 5},
    True: {"pencil_genus": (2, 2), "probe_trials": 4,
           "generic_genus": (2, 2), "jumploci_genus": (1, 1),
           "kernel_genus": (2, 2), "top_degree": 4, "radius": 4},
}

# The kernel workload's map onto Z, one block per factor.  The seed picks
# its sign: nu and -nu have the same kernel, so both give the same answers
# and mirror-image work (t and 1/t exchange).  Orders of the blocks give
# isomorphic kernels too, but change the Smith form's pivot order and
# with it the cost by a quarter, so they are not varied.
KERNEL_BLOCKS = ((1, 1, 0, 1), (1, -1, 0, -1), (0, 1, 1, 1))


class CheckFailed(Exception):
    """An answer that breaks the invariant its query must meet."""


@dataclass
class Plan:
    workload: str
    sizes: dict
    rng: random.Random
    kernel_nu: str | None = None
    # answers of earlier queries in the current round, read by later checks
    round_state: dict = field(default_factory=dict)

    @property
    def kinds(self) -> tuple[str, str]:
        return KINDS[self.workload]

    def next_round(self) -> list[tuple[str, list[str]]]:
        """The argv of the next round of queries, in order."""
        self.round_state = {}
        s = self.sizes
        if self.workload == "pencil":
            genus = _genus(s["pencil_genus"])
            r = str(len(s["pencil_genus"]))
            qseed = str(self.rng.randrange(2 ** 31))
            group = ["--preset", "product-surface", "--genus", genus, "--r", r]
            return [
                ("certify", ["certify", *group, "--seed", qseed, "--json"]),
                ("probe", ["probe", *group, "--trials", str(s["probe_trials"]),
                           "--seed", qseed, "--json"]),
            ]
        if self.workload == "generic":
            genus = s["generic_genus"]
            nu = surjection_onto_z2(self.rng, 2 * sum(genus))
            return [
                ("certify", ["certify", "--preset", "product-surface",
                             "--genus", _genus(genus), "--r", str(len(genus)),
                             "--strategy", "generic-rank", f"--nu={nu}",
                             "--json"]),
                ("jumploci", ["jumploci", "--preset", "product-surface",
                              "--genus", _genus(s["jumploci_genus"]),
                              "--json"]),
            ]
        group = ["--preset", "product-surface",
                 "--genus", _genus(s["kernel_genus"]), f"--nu={self.kernel_nu}"]
        argv = {
            "kernel": ["kernel", *group, "--top-degree", str(s["top_degree"]),
                       "--json"],
            "window": ["window", *group, "--radius", str(s["radius"]), "--json"],
        }
        return [(kind, argv[kind]) for kind in ROUNDS["kernel"]]

    def check(self, kind: str, code: int, envelope: dict) -> None:
        """Raise CheckFailed unless the answer meets its invariant."""
        if code != 0 or envelope.get("status") != "ok":
            raise CheckFailed(f"{kind}: exit code {code}, status "
                              f"{envelope.get('status')!r}")
        result = envelope["result"]
        _CHECKS[(self.workload, kind)](self, result)
        self.round_state[kind] = result


def make_plan(workload: str, seed: int, smoke: bool = False) -> Plan:
    if workload not in ROUNDS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    sizes = SIZES[smoke]
    plan = Plan(workload, sizes, rng)
    if workload == "kernel":
        sign = rng.choice((1, -1))
        blocks = KERNEL_BLOCKS[:len(sizes["kernel_genus"])]
        plan.kernel_nu = ";".join(str(sign * x) for b in blocks for x in b)
    return plan


def surjection_onto_z2(rng: random.Random, ngens: int) -> str:
    """Rows in {-1, 0, 1}^2, one per generator, whose 2x2 minors have gcd
    one, so the map onto Z^2 is surjective."""
    while True:
        rows = [(rng.choice((-1, 0, 1)), rng.choice((-1, 0, 1)))
                for _ in range(ngens)]
        g = 0
        for i in range(ngens):
            for j in range(i + 1, ngens):
                g = gcd(g, rows[i][0] * rows[j][1] - rows[i][1] * rows[j][0])
        if g == 1:
            return ";".join(f"{a},{b}" for a, b in rows)


def surface_product_euler(genus) -> int:
    out = 1
    for g in genus:
        out *= 2 - 2 * g
    return out


def _genus(genus) -> str:
    return ",".join(str(g) for g in genus)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# -- invariants -----------------------------------------------------------------


def _check_pencil_certify(plan: Plan, result: dict) -> None:
    # A product of r curve groups of genus >= 2 has a full degree-r locus:
    # b_r >= 1 at every character, so every sampled point must jump.
    r = len(plan.sizes["pencil_genus"])
    _require(result["status"] == "certified", "certify: not certified")
    _require("not_FP_r" in result["conclusions"], "certify: no not_FP_r")
    witness = result["evidence"]["fullness"]["witness"]
    spots = witness["spot_checks"]
    specials = witness["special_points"]
    _require(bool(spots) and all(s["b_r"] >= 1 and s["betti"][r] >= 1
                                 for s in spots),
             "certify: a spot check has b_r = 0")
    _require(len(specials) == 2 and all(p["b_degree"] >= 1 for p in specials),
             "certify: a special point has b_r = 0")


def _check_pencil_probe(plan: Plan, result: dict) -> None:
    r = len(plan.sizes["pencil_genus"])
    samples = result["samples"]
    _require(len(samples) == plan.sizes["probe_trials"], "probe: sample count")
    _require(result["vanishing_count"] == 0, "probe: a vanishing sample")
    _require(all(s["betti"][r] >= 1 for s in samples),
             "probe: a sample has b_r = 0")


def _check_generic_certify(plan: Plan, result: dict) -> None:
    # The generic profile of a product of curves is concentrated in the
    # top degree, where it equals the Euler characteristic.
    genus = plan.sizes["generic_genus"]
    r = len(genus)
    expected = surface_product_euler(genus) * (-1) ** r
    witness = result["evidence"]["fullness"]["witness"]
    _require(result["status"] == "certified", "certify: not certified")
    _require(witness.get(f"generic_b{r}") == expected,
             f"certify: generic b_{r} is not {expected}")


def _check_generic_jumploci(plan: Plan, result: dict) -> None:
    # Generic b_1 of a product of two groups with vanishing generic b_0
    # is zero by Kuenneth, so V^1_1 is not the whole torus.
    verdict = result["fullness_v1"]
    _require(verdict["status"] == "not_full", "jumploci: not not_full")
    _require(verdict["witness"].get("generic_b1") == 0,
             "jumploci: generic b_1 is not 0")


def _check_kernel(plan: Plan, result: dict) -> None:
    genus = plan.sizes["kernel_genus"]
    r = len(genus)
    degrees = result["degrees"]
    _require(len(degrees) == 2 * r + 1, "kernel: missing degrees")
    euler = sum((-1) ** d["degree"] * d["free_rank"] for d in degrees)
    _require(euler == surface_product_euler(genus),
             f"kernel: alternating free rank {euler}")
    _require(degrees[r]["verdict"] == "infinite-dimensional",
             f"kernel: degree {r} is finite-dimensional")


def _check_window(plan: Plan, result: dict) -> None:
    # One translate enters per radius step, so once the degree-r
    # increments stabilize they equal the free rank of H_r over Q[t^+-1],
    # which the kernel query computed by the Smith form route.
    r = len(plan.sizes["kernel_genus"])
    kernel = plan.round_state.get("kernel")
    _require(kernel is not None, "window: no kernel answer to compare")
    dims = result["dimensions"][str(r)]
    steps = [b - a for a, b in zip(dims, dims[1:])]
    _require(len(steps) >= 2 and steps[-1] == steps[-2],
             f"window: degree-{r} increments {steps} have not stabilized")
    _require(steps[-1] == kernel["degrees"][r]["free_rank"],
             f"window: increment {steps[-1]} differs from the free rank")


_CHECKS = {
    ("pencil", "certify"): _check_pencil_certify,
    ("pencil", "probe"): _check_pencil_probe,
    ("generic", "certify"): _check_generic_certify,
    ("generic", "jumploci"): _check_generic_jumploci,
    ("kernel", "kernel"): _check_kernel,
    ("kernel", "window"): _check_window,
}
