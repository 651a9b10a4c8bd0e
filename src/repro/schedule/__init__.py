"""Schedule synthesis and scalable I/O replay (the upper-bound half).

The analysis pipeline is constructive (paper Section 4.5): substituting
``X0`` into the tile closed forms yields the loop tiling of the maximal
subcomputation.  This package turns that tiling into something executable
and measures it:

* :mod:`repro.schedule.derive` -- a generic :class:`TiledSchedule` for any
  analyzed program, built from ``opt/tiling`` tile closed forms plus the
  iteration points recorded on the concrete CDAG (no per-kernel hand-coded
  vertex-to-point mapping);
* :mod:`repro.schedule.stream` -- flat :class:`AccessStream` encodings of a
  schedule's memory traffic, built from a CDAG, or by one chunked builder
  straight from the IR for single-statement kernels up to 10^8 accesses;
  next-use arrays come from one slab scan, memoized per stream;
* :mod:`repro.schedule.simulator` -- a streaming I/O replay simulator
  (Belady / LRU eviction over heap keys derived once from the next-use
  arrays) that reproduces :func:`repro.pebbling.greedy.greedy_pebbling_cost`
  bit-for-bit while scaling orders of magnitude further: a pure-Python
  reference loop and a compiled fast path (:mod:`repro.schedule._native`);
* :mod:`repro.schedule.tightness` -- the corpus-wide tightness audit:
  simulated I/O of the derived schedule vs. the evaluated lower bound,
  reported as a gap per kernel and fast-memory size, through one planner
  and one row builder whether the replays run serially or in a pool.
"""

from repro.schedule.derive import TiledSchedule, blocked_order, derive_schedule
from repro.schedule.simulator import SimulationResult, simulate_io
from repro.schedule.stream import (
    AccessStream,
    single_statement_stream,
    stream_from_graph,
)
from repro.schedule.tightness import (
    TightnessReport,
    TightnessRow,
    audit_corpus,
    audit_kernel,
)

__all__ = [
    "TiledSchedule",
    "derive_schedule",
    "blocked_order",
    "AccessStream",
    "stream_from_graph",
    "single_statement_stream",
    "SimulationResult",
    "simulate_io",
    "TightnessRow",
    "TightnessReport",
    "audit_kernel",
    "audit_corpus",
]
