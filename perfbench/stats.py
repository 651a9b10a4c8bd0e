"""Small statistics used by every workload: percentiles, medians, coverage."""

from __future__ import annotations

import math
import statistics

#: a reported percentile must leave at least this many samples beyond it,
#: otherwise it is the maximum of a handful of samples, not a percentile
MIN_TAIL_SAMPLES = 10


def percentile(samples, q: float) -> float:
    """The program's nearest-rank percentile (``repro.obs``), refused when
    it would leave fewer than :data:`MIN_TAIL_SAMPLES` samples beyond it.

    Raises ``ValueError`` in that case (and on no samples), so a tail
    figure is never reported from a sample too small to hold one.
    """
    from repro.obs.metrics import percentile as nearest_rank

    n = len(samples)
    if n == 0:
        raise ValueError("no samples")
    beyond = n - max(1, min(n, math.ceil(q / 100.0 * n)))
    if beyond < MIN_TAIL_SAMPLES and q > 50:
        raise ValueError(
            f"p{q:g} of {n} samples leaves {beyond} beyond it; "
            f"need at least {MIN_TAIL_SAMPLES}"
        )
    return nearest_rank(samples, q)


def median(values) -> float:
    return statistics.median(values)


def unaccounted_fraction(wall: float, spans) -> float:
    """Share of ``wall`` that no top-level span covers.

    ``spans`` are dicts with ``start``, ``end`` and ``parent`` (``None`` for
    top-level spans).  Top-level spans of one thread never overlap, but the
    union is taken anyway so a malformed trace cannot claim more than the
    wall.
    """
    if wall <= 0:
        raise ValueError("wall must be positive")
    intervals = sorted(
        (s["start"], s["end"]) for s in spans if s.get("parent") is None
    )
    covered = 0.0
    cursor = float("-inf")
    for start, end in intervals:
        start = max(start, cursor)
        if end > start:
            covered += end - start
            cursor = end
    return max(0.0, (wall - covered) / wall)
