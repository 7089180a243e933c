"""Deterministic character sampling from growing integer boxes.

Coordinates are nonzero integers in [-B, B]; the box doubles every batch,
so any fixed proper hypersurface is escaped quickly.  The trivial
character (all coordinates 1) is never produced.  This module is the one
statement of the schedule, and ``BOX_SCHEDULE`` is the text a probe prints.
"""

from __future__ import annotations

import random

from .laurent import Character

BATCH = 16
INITIAL_BOX = 2
BOX_SCHEDULE = (f"coordinates in {{-B..B}}\\{{0}}, B={INITIAL_BOX} "
                f"doubling every {BATCH} trials")


def box_for_trial(trial: int) -> int:
    return INITIAL_BOX * (2 ** (trial // BATCH))


def sample_character(rng: random.Random, nvars: int, box: int) -> Character:
    """One nontrivial rational character with coordinates in the box.
    A torus with no coordinates has only the trivial character."""
    if nvars < 1:
        raise ValueError("a nontrivial character needs nvars >= 1")
    while True:
        coords = []
        for _ in range(nvars):
            x = 0
            while x == 0:
                x = rng.randint(-box, box)
            coords.append(x)
        if any(c != 1 for c in coords):
            return Character(coords)
