"""Concrete-CDAG lower-bound engines and the certified max-of-bounds.

Independent lower-bound backends on the materialized
:class:`~repro.cdag.build.ConcreteCDAG`:

* ``kkt`` -- the existing symbolic (paper problem 8) bound, evaluated at
  concrete (params, S);
* ``io-floor`` -- the cold input/output floor of the concrete CDAG
  (every live input loaded once, every computed sink stored once).

An engine stays registered only while it is the strict max on some row
of the committed TIGHTNESS.md (checked by ``tests/test_bounds.py``).

Engines register through :mod:`repro.bounds.registry` (mirroring
``opt/backends``); :mod:`repro.bounds.combine` evaluates every applicable
engine at a (kernel, params, S) point and certifies their maximum, which
is what tightness gaps, ``repro bounds``, and ``POST /bounds`` report.
"""

from repro.bounds.combine import (
    CombinedBounds,
    KernelBounds,
    evaluate_bounds,
    kernel_bounds,
)
from repro.bounds.registry import (
    BoundEngine,
    BoundProblem,
    BoundResult,
    available_bound_engines,
    get_bound_engine,
    register_bound_engine,
)

# registration by import, in tie-break order: kkt wins ties
from repro.bounds import kkt, structure  # noqa: E402,F401

__all__ = [
    "BoundEngine",
    "BoundProblem",
    "BoundResult",
    "CombinedBounds",
    "KernelBounds",
    "available_bound_engines",
    "evaluate_bounds",
    "get_bound_engine",
    "kernel_bounds",
    "register_bound_engine",
]
