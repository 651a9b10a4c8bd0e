"""Memoized ConcreteCDAG construction keyed by (kernel, params).

Materializing a CDAG is the largest per-kernel step of a tightness sweep,
and the bound engines read the *same* integer index the sweep replays.
This small LRU gives both consumers one shared instance per
(kernel, sorted-params) signature instead of one rebuild per caller.

Thread-safe; hit/miss counts land on the current metrics registry as
``cdag_cache_hits_total`` / ``cdag_cache_misses_total``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.obs import current_registry

#: a handful of graphs at up to ~10^5 vertices each is the comfortable
#: per-process ceiling; sweeps iterate kernels serially per worker anyway
MAX_ENTRIES = 4

_CACHE: "OrderedDict[tuple, object]" = OrderedDict()
_LOCK = threading.Lock()


def cdag_signature(name: str, params: dict) -> tuple:
    """Stable identity of a concrete CDAG instance."""
    return (name, tuple(sorted((str(k), int(v)) for k, v in params.items())))


def cached_cdag(name: str, params: dict, *, program=None):
    """The ConcreteCDAG for ``(name, params)``, built at most once.

    ``program`` optionally supplies an already-built kernel program
    (the tightness sweep has one in hand); otherwise the kernel registry
    builds it.
    """
    key = cdag_signature(name, params)
    with _LOCK:
        cdag = _CACHE.get(key)
        if cdag is not None:
            _CACHE.move_to_end(key)
    if cdag is not None:
        current_registry().inc("cdag_cache_hits_total")
        return cdag
    current_registry().inc("cdag_cache_misses_total")
    if program is None:
        from repro.kernels import get_kernel

        program = get_kernel(name).build()
    from repro.cdag.build import build_cdag

    cdag = build_cdag(program, dict(params))
    with _LOCK:
        _CACHE[key] = cdag
        while len(_CACHE) > MAX_ENTRIES:
            _CACHE.popitem(last=False)
    return cdag


def clear_cdag_cache() -> None:
    """Drop all memoized graphs (tests; memory pressure)."""
    with _LOCK:
        _CACHE.clear()
