"""Seeded workload inputs: the only thing the program receives.

Both generators use their own ``random.Random`` stream keyed by the seed,
so the same seed gives the same inputs in any process.
"""

from __future__ import annotations

import random

#: serve-warm requests per kernel and pass: one for bounds, the rest for
#: its report (3:1)
ROUNDS = 4


def seeded_order(names, seed: int) -> list[str]:
    """Kernel order for one run."""
    order = list(names)
    random.Random(f"order:{seed}").shuffle(order)
    return order


def request_sequence(names, seed: int) -> list[tuple[str, str]]:
    """One pass of serve-warm requests: :data:`ROUNDS` rounds over the
    kernels in one seeded order; in each round every fourth kernel, a
    different quarter each round, asks for bounds and the rest for their
    report.  The mix is exactly 3:1 in every round, and a request repeats
    only a whole round (``len(names)`` requests) later.

    The seed sets the order only.  A shuffle of the whole pass would let it
    also set how often two identical requests are in flight together, which
    the service coalesces into one job: over twenty seeds the pairs less
    than 32 requests apart ranged from 33 to 57 per pass and throughput
    followed them (713-843 rps at 41-44 pairs, 1053-1118 at 52-57).
    """
    order = list(names)
    random.Random(f"requests:{seed}").shuffle(order)
    return [
        ("bounds" if (index + round_) % ROUNDS == 0 else "kernel", name)
        for round_ in range(ROUNDS)
        for index, name in enumerate(order)
    ]
