"""Machine-speed calibration and reference seconds.

The speed of the machines this benchmark runs on drifts within one process,
by up to a factor of two, while the ratio of a query's wall time to an
adjacent run of a fixed arithmetic loop stays steadier.  Every timing the
benchmark reports is therefore scaled to reference seconds:

    reference seconds = wall seconds * REFERENCE / (adjacent loop seconds)

where REFERENCE is the loop time recorded in ``reference.json`` and the
adjacent loop time is the mean of the loops run just before and just after
the interval.  The loop imports nothing from charvar.  It has two parts of
about equal length, because the drift does not slow all work alike:

- products of sparse two-variable polynomials stored as dicts of
  Fractions, like the Smith form and generic rank;
- fraction-free elimination on a sparse 85 x 85 matrix of small integers
  whose entries grow as it runs, like the window and probe ranks.
"""

from __future__ import annotations

import gc
import json
import random
import time
from fractions import Fraction
from pathlib import Path

REFERENCE_FILE = Path(__file__).with_name("reference.json")
LOOP = {"poly_rounds": 15, "matrix_size": 85}


def load_reference() -> dict:
    with open(REFERENCE_FILE, "r", encoding="utf-8") as fh:
        reference = json.load(fh)
    if reference["loop"] != LOOP:
        raise ValueError(f"{REFERENCE_FILE.name} was measured with loop "
                         f"{reference['loop']}, the loop is {LOOP}")
    return reference


def _polynomial_products(rounds: int) -> int:
    rng = random.Random(7)
    poly = {}
    for _ in range(40):
        poly[(rng.randrange(-3, 4), rng.randrange(-3, 4))] = \
            Fraction(rng.randrange(1, 9), rng.randrange(1, 5))
    checksum = 0
    for _ in range(rounds):
        out: dict = {}
        for (a, b), c in poly.items():
            for (x, y), d in poly.items():
                key = (a + x, b + y)
                value = out.get(key, 0) + c * d
                if value:
                    out[key] = value
                else:
                    out.pop(key, None)
        checksum += len(out)
    return checksum


def _elimination(n: int) -> int:
    rng = random.Random(3)
    m = [[rng.choice((-1, 0, 0, 0, 1)) for _ in range(n)] for _ in range(n)]
    rank = 0
    prev = 1
    for col in range(n):
        pivot = next((r for r in range(rank, n) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        p = m[rank][col]
        top = m[rank]
        for r in range(rank + 1, n):
            f = m[r][col]
            row = m[r]
            for j in range(col, n):
                row[j] = (row[j] * p - f * top[j]) // prev
        prev = p
        rank += 1
    return rank


def calibrate() -> float:
    """Wall seconds of one run of the fixed loop, after a collection."""
    gc.collect()
    start = time.perf_counter()
    _polynomial_products(LOOP["poly_rounds"])
    _elimination(LOOP["matrix_size"])
    return time.perf_counter() - start


class Scaler:
    """Scales each timed interval by the mean of the loops run just before
    and just after it.

    The loop runs once before the first interval and once after every
    interval, so consecutive intervals share the loop between them.  The
    first loops of a fresh process run fast and are discarded.
    """

    def __init__(self, reference_s: float, warmup: int = 3):
        for _ in range(warmup):
            calibrate()
        self.reference_s = reference_s
        self.last = calibrate()

    def scale(self, wall_s: float) -> tuple[float, float]:
        """Run the loop after an interval of ``wall_s`` wall seconds;
        return the interval in reference seconds and the loop time used."""
        after = calibrate()
        adjacent = (self.last + after) / 2
        self.last = after
        return wall_s * self.reference_s / adjacent, adjacent
