"""Batch execution: the full Table 2 suite through one engine.

``analyze_many`` drives any list of registered kernels:

* ``jobs == 1``: every kernel goes through **one shared engine**, so the
  in-process cache deduplicates problem (8) instances *across* kernels (the
  suite's gemm-shaped contractions all resolve to a handful of signatures);
* ``jobs > 1``: kernels are distributed over a
  :class:`~concurrent.futures.ProcessPoolExecutor` of at most
  ``os.cpu_count()`` workers; workers share solved
  problems through the on-disk cache tier when ``cache_dir`` is given.
  ``executor.map`` preserves input order, so results are deterministic and
  position-aligned with ``names`` either way.
"""

from __future__ import annotations

import tempfile
from concurrent.futures import ProcessPoolExecutor
from typing import Iterable, Sequence

from repro.engine.cache import SolveCache
from repro.engine.core import Engine
from repro.obs import attach, trace_context
from repro.util.pool import pool_workers


def _kernel_task(task: tuple):
    """Analyze one kernel in a worker process (top-level for pickling)."""
    name, cache_dir, store_path, solver, tctx = task
    from repro.analysis import analyze_kernel

    # stitch this worker's spans under the driver's trace (no-op untraced)
    with attach(tctx):
        if store_path is not None:
            # fleet mode: share solves through the sqlite store (claims
            # make concurrent workers solve each signature exactly once)
            from repro.engine.store import SharedSolveStore

            engine = Engine(
                cache=SolveCache(store=SharedSolveStore(store_path)),
                solver=solver,
            )
            return analyze_kernel(name, engine=engine)
        return analyze_kernel(name, cache_dir=cache_dir, solver=solver)


def analyze_many(
    names: Iterable[str] | None = None,
    *,
    jobs: int = 1,
    cache_dir: str | None = None,
    engine: Engine | None = None,
    solver: str | None = None,
) -> list:
    """Analyze ``names`` (default: every registered kernel); returns
    :class:`~repro.analysis.KernelResult` objects in input order."""
    from repro.analysis import analyze_kernel
    from repro.kernels import kernel_names

    if engine is not None and cache_dir is not None:
        raise ValueError("pass either engine or cache_dir, not both")
    if engine is not None and solver is not None:
        raise ValueError(
            "pass either engine or solver, not both "
            "(the engine already carries its backend)"
        )
    selected: Sequence[str] = (
        list(names) if names is not None else kernel_names()
    )
    jobs = max(1, int(jobs))
    if jobs == 1 or len(selected) <= 1:
        if engine is None:
            engine = Engine(
                cache=SolveCache(cache_dir), solver=solver or "exact"
            )
        return [analyze_kernel(name, engine=engine) for name in selected]
    store_path: str | None = None
    if engine is not None:
        # Worker processes cannot share the engine's in-memory tier; they can
        # share its disk tier (None when the engine's cache is memory-only)
        # or, for fleet engines, the sqlite solve store.
        disk = engine.cache.cache_dir
        cache_dir = str(disk) if disk is not None else None
        if engine.cache.store is not None:
            store_path = str(engine.cache.store.path)
        solver = engine.solver
    solver = solver or "exact"
    if cache_dir is not None or store_path is not None:
        return _run_parallel(selected, cache_dir, store_path, jobs, solver)
    # No persistent store requested: share solves through a batch-lifetime
    # temp directory, else every worker would re-solve the suite's repeated
    # problem shapes from scratch.
    with tempfile.TemporaryDirectory(prefix="soap-engine-cache-") as tmp:
        return _run_parallel(selected, tmp, None, jobs, solver)


def _run_parallel(
    selected: Sequence[str],
    cache_dir: str | None,
    store_path: str | None,
    jobs: int,
    solver: str,
) -> list:
    tctx = trace_context()
    tasks = [(name, cache_dir, store_path, solver, tctx) for name in selected]
    with ProcessPoolExecutor(max_workers=pool_workers(jobs, len(tasks))) as pool:
        return list(pool.map(_kernel_task, tasks))
