"""Corpus-wide tightness audit: is the lower bound attained?

For every kernel the analysis derives a lower bound *and* (Section 4.5) the
tiling that should attain it.  This module closes the sandwich empirically:
derive the blocked schedule, replay its access stream through the streaming
I/O simulator, and compare against the certified lower bound -- the max
over every registered bound engine (:mod:`repro.bounds`: the evaluated
KKT bound and the concrete CDAG's cold input/output floor):

    gap  =  simulated I/O (certified upper bound)  /  certified lower bound

A gap near 1 means the bound is tight *and* the constructive tiling is
real; the per-kernel classification (``attained`` / ``near`` / ``loose``)
summarizes it for the whole Table 2 corpus, and ``violated`` marks a gap
below 1: a certified lower bound above the cost of a legal schedule.
Small concrete instances carry constant-factor slop (leading-order
truncation, cold misses, tile rounding), so the thresholds are
deliberately generous; the trend with growing ``S`` and problem size is
the signal.

Every sweep goes through one per-kernel planner and one row builder.  The
planner (:func:`_plan_kernel`) builds the kernel's CDAG once, clamps each
requested S to the feasibility floor (skipping sizes that clamp to one
already planned), evaluates the certified bounds, derives the schedule, and
builds every distinct stream once.  The row builder (:func:`_kernel_rows`)
turns the plan plus one replay per point into rows.  Only where the
replays run differs:

* ``jobs=1`` replays in-process on the plan's stream objects, one kernel
  at a time;
* ``jobs=N`` (``repro tightness --jobs``, the ``/tightness`` service
  endpoint, ``benchmarks/bench_tightness.py``) runs two phases over one
  process pool.  Phase A fans *kernels* out: each worker plans, then
  **publishes** the streams and their next-use arrays to shared memory
  (:mod:`repro.schedule.shared_streams`).  Phase B fans the (kernel, S)
  *points* out: workers attach zero-copy read-only views (cached per
  process) and replay -- no worker ever rebuilds a stream.

``chunk_size`` bounds the replay slab so even huge streams replay in
O(chunk) extra memory; results are identical whatever its value.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.cdag.cache import cached_cdag
from repro.obs import attach, trace_context
from repro.obs import span as obs_span
from repro.schedule import shared_streams
from repro.schedule.derive import blocked_order, derive_schedule
from repro.schedule.simulator import simulate_io
from repro.schedule.stream import stream_from_graph
from repro.util.errors import SoapError
from repro.util.pool import pool_workers

#: gap thresholds for the classification buckets
ATTAINED_MAX = 2.5
NEAR_MAX = 10.0

#: default fast-memory sizes swept per kernel (clamped per-graph feasibility)
DEFAULT_S_VALUES = (8, 18)

#: vertex budget: kernels are audited on instances at most this large
#: (lenet5's fixed channel dimensions force ~90k vertices at minimum size)
DEFAULT_MAX_VERTICES = 120_000

#: default value for every size parameter, unless overridden below
DEFAULT_BASE = 8

#: per-kernel parameter overrides keeping concrete CDAGs tractable (time
#: loops short, deep nests narrow) -- audit instances, not benchmarks
PARAM_OVERRIDES: dict[str, dict[str, int]] = {
    "jacobi1d": {"T": 4},
    "jacobi2d": {"T": 4},
    "seidel2d": {"T": 4},
    "heat3d": {"T": 3, "N": 7},
    "fdtd2d": {"T": 3},
    "adi": {"T": 3},
    "doitgen": {"NR": 6, "NQ": 6, "NP": 6},
    "softmax": {"B": 2, "H": 2, "M": 8, "N": 8},
    "mlp": {"N": 4, "inp": 6, "fc1": 6, "fc2": 6, "out": 4},
    "conv": {"B": 2, "Cin": 3, "Cout": 3, "Hker": 2, "Wker": 2, "Hout": 5, "Wout": 5},
    "conv-unit-stride": {
        "B": 2, "Cin": 3, "Cout": 3, "Hker": 2, "Wker": 2, "Hout": 5, "Wout": 5,
    },
    "lenet5": {"N": 1, "C": 1, "H": 8, "W": 8},
    "bert-encoder": {"B": 1, "H": 4, "L": 6, "P": 4},
    "bert-ffn": {"B": 1, "H": 4, "L": 6, "P": 4},
    "lulesh": {"numElem": 8},
    "horizontal-diffusion": {"I": 6, "J": 6, "K": 4},
    "vertical-advection": {"I": 6, "J": 6, "K": 4},
}


def classify_gap(gap: float) -> str:
    """Bucket a gap: ``violated`` / ``attained`` / ``near`` / ``loose``.

    A gap below 1 is a soundness violation, not a tight bound: the
    certified lower bound exceeds the replayed cost of a legal schedule.
    """
    if gap < 1.0:
        return "violated"
    if gap <= ATTAINED_MAX:
        return "attained"
    if gap <= NEAR_MAX:
        return "near"
    return "loose"


def audit_params(name: str, program) -> dict[str, int]:
    """Concrete audit parameters for a kernel: base value + overrides."""
    import sympy as sp

    symbols: set[str] = set()
    for st in program.statements:
        for _, extent in st.domain.extents:
            symbols.update(s.name for s in sp.sympify(extent).free_symbols)
    params = {sym: DEFAULT_BASE for sym in sorted(symbols)}
    params.update(PARAM_OVERRIDES.get(name, {}))
    return params


@dataclass(frozen=True)
class TightnessRow:
    """One (kernel, S) audit point."""

    kernel: str
    category: str
    params: dict[str, int]
    s: int  #: fast-memory size actually used (feasibility-clamped)
    s_requested: int
    n_vertices: int
    bound_value: float  #: certified max over all evaluated bound engines
    schedule_cost: int  #: simulated I/O of the derived blocked schedule
    program_order_cost: int  #: simulated I/O of plain program order
    gap: float  #: schedule_cost / bound_value
    gap_program_order: float
    classification: str
    tiled: bool
    tile_sizes: dict[str, int] = field(default_factory=dict)
    notes: tuple[str, ...] = ()
    error: str | None = None
    #: per-engine bound values behind the certified max (nan = engine failed)
    engine_bounds: dict[str, float] = field(default_factory=dict)
    winning_engine: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def as_dict(self) -> dict:
        return {
            "kernel": self.kernel,
            "category": self.category,
            "params": dict(self.params),
            "s": self.s,
            "s_requested": self.s_requested,
            "n_vertices": self.n_vertices,
            "bound": self.bound_value,
            "schedule_cost": self.schedule_cost,
            "program_order_cost": self.program_order_cost,
            "gap": self.gap,
            "gap_program_order": self.gap_program_order,
            "classification": self.classification,
            "tiled": self.tiled,
            "tile_sizes": dict(self.tile_sizes),
            "notes": list(self.notes),
            "error": self.error,
            "engine_bounds": dict(self.engine_bounds),
            "winning_engine": self.winning_engine,
        }


@dataclass
class TightnessReport:
    """Audit outcome over a kernel selection."""

    rows: list[TightnessRow]
    s_values: tuple[int, ...]
    elapsed_seconds: float = 0.0

    @property
    def kernels(self) -> list[str]:
        seen: dict[str, None] = {}
        for row in self.rows:
            seen.setdefault(row.kernel)
        return list(seen)

    def summary(self) -> dict:
        ok = [r for r in self.rows if r.ok]
        buckets = dict.fromkeys(("attained", "near", "loose", "violated"), 0)
        best: dict[str, TightnessRow] = {}
        for row in ok:
            current = best.get(row.kernel)
            if current is None or row.gap < current.gap:
                best[row.kernel] = row
        for row in best.values():
            buckets[row.classification] += 1
        failed = [r.kernel for r in self.rows if not r.ok]
        return {
            "kernels": len(self.kernels),
            "rows": len(self.rows),
            "audited": len(best),
            "attained": buckets["attained"],
            "near": buckets["near"],
            "loose": buckets["loose"],
            "violated": buckets["violated"],
            "failed": sorted(set(failed)),
            "finite_gaps": all(
                r.gap == r.gap and r.gap != float("inf") for r in ok
            ),
        }


def _error_row(name: str, category: str, params, s: int, message: str) -> TightnessRow:
    return TightnessRow(
        kernel=name,
        category=category,
        params=dict(params or {}),
        s=s,
        s_requested=s,
        n_vertices=0,
        bound_value=float("nan"),
        schedule_cost=0,
        program_order_cost=0,
        gap=float("nan"),
        gap_program_order=float("nan"),
        classification="error",
        tiled=False,
        error=message,
    )


@functools.lru_cache(maxsize=16)
def _built_program(name: str):
    """Registered kernels build immutable IR; share one instance per name
    between the driver's audit-default resolution and the planner."""
    from repro.kernels import get_kernel

    return get_kernel(name).build()


def _certified_bounds(
    graph, name, params, s, bound, engines
) -> tuple[dict[str, float], float, str | None]:
    """Every applicable bound engine at one point: values, max, winner.

    The certified value is the gap denominator; the raw KKT value stays
    visible in the per-engine dict.
    """
    from repro.bounds import evaluate_bounds

    combined = evaluate_bounds(
        s=s,
        graph=graph,
        symbolic_bound=bound,
        params=params,
        kernel=name,
        engines=engines,
    )
    return combined.engine_values(), combined.certified, combined.winning_engine


#: key of the program-order baseline in :attr:`_KernelPlan.streams`
_BASELINE = "baseline"


@dataclass(frozen=True)
class _PlannedPoint:
    """One distinct (kernel, clamped S) point, planned but not replayed."""

    s: int
    s_requested: int
    error: str | None = None  #: planning failed: the row is an error row
    notes: tuple = ()
    bound_value: float = 0.0
    tiled: bool = False
    tile_sizes: tuple = ()
    schedule_notes: tuple = ()
    #: key of the derived-schedule stream in :attr:`_KernelPlan.streams`
    stream_key: tuple = ()
    #: per-engine bound values as (engine, value) pairs (picklable, ordered)
    engine_bounds: tuple = ()
    winning_engine: str | None = None


@dataclass
class _KernelPlan:
    """Everything one kernel's sweep needs besides the replays."""

    name: str
    category: str
    params: dict
    n_vertices: int = 0
    error: str | None = None  #: kernel-level error (CDAG build / too large)
    points: list = field(default_factory=list)
    #: streams the points replay: :data:`_BASELINE` plus one per distinct
    #: schedule -- in-process :class:`AccessStream` objects, or their
    #: shared-memory refs once published
    streams: dict = field(default_factory=dict)


def _plan_kernel(
    name, params, bound, program_bound, s_values, max_vertices, bounds_engines
) -> _KernelPlan:
    """Build one kernel's CDAG once and plan every point of its S sweep.

    Clamps each requested S to the feasibility floor (a vertex's operands
    plus itself must fit), skips sizes that clamp to one already planned,
    evaluates the certified bounds, derives the schedule, and builds each
    distinct stream once.  Analyzer errors become error points or a
    kernel-level error, never exceptions.
    """
    from repro.kernels import get_kernel

    plan = _KernelPlan(
        name=name, category=get_kernel(name).category, params=dict(params)
    )
    try:
        program = _built_program(name)
        cdag = cached_cdag(name, params, program=program)
    except SoapError as err:
        plan.error = f"CDAG build failed: {err}"
        return plan
    if cdag.n_vertices > max_vertices:
        plan.error = (
            f"instance too large: {cdag.n_vertices} > {max_vertices} vertices"
        )
        return plan
    plan.n_vertices = cdag.n_vertices
    index = cdag.index  # the audit reads the index; no networkx graph
    baseline = stream_from_graph(index)
    max_indegree = int(index.in_deg.max(initial=0))
    audited: set[int] = set()
    for s_requested in s_values:
        s = max(int(s_requested), max_indegree + 2)
        if s in audited:
            continue  # clamping collapsed two requested sizes
        audited.add(s)
        notes = ()
        if s != s_requested:
            notes = (f"S clamped to {s} (max in-degree {max_indegree})",)
        try:
            engine_bounds, bound_value, winning_engine = _certified_bounds(
                index, name, params, s, bound, bounds_engines
            )
            schedule = derive_schedule(program, program_bound, params, s)
            stream_key = (
                schedule.tiled,
                tuple(schedule.variable_order),
                tuple(sorted(schedule.tile_sizes.items())),
            )
            if stream_key not in plan.streams:
                order = blocked_order(cdag, schedule)
                plan.streams[stream_key] = stream_from_graph(index, order)
        except SoapError as err:
            plan.points.append(
                _PlannedPoint(s=s, s_requested=int(s_requested), error=str(err))
            )
            continue
        plan.streams.setdefault(_BASELINE, baseline)
        plan.points.append(
            _PlannedPoint(
                s=s,
                s_requested=int(s_requested),
                notes=notes,
                bound_value=bound_value,
                tiled=schedule.tiled,
                tile_sizes=tuple(sorted(schedule.tile_sizes.items())),
                schedule_notes=tuple(schedule.notes),
                stream_key=stream_key,
                engine_bounds=tuple(engine_bounds.items()),
                winning_engine=winning_engine,
            )
        )
    return plan


def _replay_point(schedule, baseline, s: int, chunk_size) -> tuple | str:
    """``(schedule_cost, program_order_cost)``, or the error message."""
    try:
        return (
            simulate_io(schedule, s, slab_positions=chunk_size).cost,
            simulate_io(baseline, s, slab_positions=chunk_size).cost,
        )
    except SoapError as err:
        return str(err)


def _kernel_rows(
    plan: _KernelPlan, replays: Sequence, s_values: Sequence[int]
) -> list[TightnessRow]:
    """Rows of one kernel from its plan and one replay outcome per point
    (``None`` for points whose planning failed)."""
    name, category, params = plan.name, plan.category, plan.params
    if plan.error is not None:
        return [
            _error_row(name, category, params, int(s), plan.error)
            for s in s_values
        ]
    rows: list[TightnessRow] = []
    for point, replay in zip(plan.points, replays):
        if point.error is not None or isinstance(replay, str):
            message = point.error if point.error is not None else replay
            rows.append(_error_row(name, category, params, point.s, message))
            continue
        if not point.bound_value > 0:
            rows.append(_error_row(
                name, category, params, point.s,
                f"bound evaluates to {point.bound_value}; gap undefined",
            ))
            continue
        schedule_cost, program_order_cost = replay
        gap = schedule_cost / point.bound_value
        notes = point.notes
        if gap < 1.0:
            # A lower bound above the cost of a schedule that runs: the
            # bound or the CDAG it is evaluated on is unsound here.
            notes += (
                "gap < 1: a certified lower bound exceeds the replayed cost "
                "of a legal schedule",
            )
        rows.append(TightnessRow(
            kernel=name,
            category=category,
            params=dict(params),
            s=point.s,
            s_requested=point.s_requested,
            n_vertices=plan.n_vertices,
            bound_value=point.bound_value,
            schedule_cost=schedule_cost,
            program_order_cost=program_order_cost,
            gap=gap,
            gap_program_order=program_order_cost / point.bound_value,
            classification=classify_gap(gap),
            tiled=point.tiled,
            tile_sizes=dict(point.tile_sizes),
            notes=notes + point.schedule_notes,
            engine_bounds=dict(point.engine_bounds),
            winning_engine=point.winning_engine,
        ))
    return rows


def _serial_sweep(
    kernel_specs: list[tuple],
    *,
    s_values: tuple[int, ...],
    max_vertices: int,
    chunk_size: int | None,
    bounds_engines: tuple[str, ...] | None,
) -> list[TightnessRow]:
    """Plan and replay kernel by kernel, in-process: one kernel's CDAG and
    streams are alive at a time."""
    rows: list[TightnessRow] = []
    for name, params, bound, program_bound in kernel_specs:
        with obs_span("tightness.prepare", kernel=name):
            plan = _plan_kernel(
                name, params, bound, program_bound, s_values, max_vertices,
                bounds_engines,
            )
        replays = []
        for point in plan.points:
            if point.error is not None:
                replays.append(None)
                continue
            with obs_span("tightness.replay-point", kernel=name, s=point.s):
                replays.append(_replay_point(
                    plan.streams[point.stream_key], plan.streams[_BASELINE],
                    point.s, chunk_size,
                ))
        rows.extend(_kernel_rows(plan, replays, s_values))
    return rows


def _merged_params(
    name: str, program, params: Mapping[str, int] | None
) -> dict[str, int]:
    """Audit defaults merged with caller overrides (unknown names dropped)."""
    defaults = audit_params(name, program)
    if params:
        # Overrides merge over the audit defaults; names the program does not
        # use are dropped (one global --params can serve a whole selection).
        defaults.update(
            {k: int(v) for k, v in params.items() if k in defaults}
        )
    return defaults


def audit_kernel(
    name: str,
    *,
    result=None,
    params: Mapping[str, int] | None = None,
    s_values: Sequence[int] = DEFAULT_S_VALUES,
    max_vertices: int = DEFAULT_MAX_VERTICES,
    chunk_size: int | None = None,
    bounds_engines: Sequence[str] | None = None,
) -> list[TightnessRow]:
    """Audit one kernel: one row per fast-memory size.

    ``result`` takes a precomputed :class:`~repro.analysis.KernelResult`
    (the batch driver shares one engine); otherwise the kernel is analyzed
    on the spot.  ``chunk_size`` bounds the replay slab.
    ``bounds_engines`` selects the lower-bound engines behind the
    certified gap denominator (default: all registered).
    """
    from repro.analysis import analyze_kernel

    chunk_size = _checked_chunk_size(chunk_size)
    bounds_engines = _checked_bounds_engines(bounds_engines)
    merged = _merged_params(name, _built_program(name), params)
    if result is None:
        result = analyze_kernel(name)
    return _serial_sweep(
        [(name, merged, result.bound, result.program_bound)],
        s_values=tuple(int(s) for s in s_values),
        max_vertices=int(max_vertices),
        chunk_size=chunk_size,
        bounds_engines=bounds_engines,
    )


def _checked_chunk_size(chunk_size) -> int | None:
    if chunk_size is None:
        return None
    chunk_size = int(chunk_size)
    if chunk_size < 1:
        raise ValueError(
            f"chunk size must be a positive integer (got {chunk_size})"
        )
    return chunk_size


def _checked_bounds_engines(engines) -> tuple[str, ...] | None:
    """Validate an engine selection up front (typos fail the whole sweep
    immediately, not once per point inside a worker)."""
    if engines is None:
        return None
    from repro.bounds import get_bound_engine

    engines = tuple(str(name) for name in engines)
    for name in engines:
        get_bound_engine(name)
    return engines


def audit_corpus(
    names: Sequence[str] | None = None,
    *,
    s_values: Sequence[int] = DEFAULT_S_VALUES,
    params_overrides: Mapping[str, Mapping[str, int]] | None = None,
    params: Mapping[str, int] | None = None,
    jobs: int = 1,
    cache_dir: str | None = None,
    engine=None,
    solver: str | None = None,
    max_vertices: int = DEFAULT_MAX_VERTICES,
    chunk_size: int | None = None,
    bounds_engines: Sequence[str] | None = None,
) -> TightnessReport:
    """Audit a kernel selection (default: the full Table 2 corpus).

    ``params`` overrides apply to every kernel (unused names are ignored);
    ``params_overrides`` adds per-kernel overrides on top.  ``engine``
    shares a live engine (and its solve cache) with the caller -- the
    service daemon's audit endpoint uses this.  ``jobs > 1`` parallelizes
    the analysis batch *and* the replay sweep, the latter in two phases
    over one pool: kernels plan-and-publish, then points attach-and-
    replay (see the module docstring).  ``chunk_size`` bounds the replay
    slab only, trading time for peak memory -- results are bit-identical
    whatever its value; next-use always scans slabs of 2^20 positions
    (:data:`~repro.schedule.stream.DEFAULT_CHUNK_POSITIONS`).
    ``bounds_engines`` restricts the
    lower-bound engines behind the certified gap denominator (default:
    all registered engines; ``("kkt",)`` reproduces the KKT-only audit).
    """
    import time

    from repro.engine import analyze_many
    from repro.kernels import kernel_names

    started = time.perf_counter()
    jobs = int(jobs)
    if jobs < 1:
        raise ValueError(f"jobs must be a positive integer (got {jobs})")
    chunk_size = _checked_chunk_size(chunk_size)
    bounds_engines = _checked_bounds_engines(bounds_engines)
    s_values = tuple(int(s) for s in s_values)
    selected = list(names) if names is not None else kernel_names()
    with obs_span("tightness.audit", jobs=jobs) as sweep_span:
        sweep_span.add("kernels", len(selected))
        results = analyze_many(
            selected, jobs=jobs, cache_dir=cache_dir, engine=engine,
            solver=solver,
        )
        kernel_specs: list[tuple] = []
        for name, result in zip(selected, results):
            overrides: dict[str, int] = dict(params or {})
            if params_overrides and name in params_overrides:
                overrides.update(params_overrides[name])
            merged = _merged_params(name, _built_program(name), overrides)
            kernel_specs.append(
                (name, merged, result.bound, result.program_bound)
            )
        sweep = dict(
            s_values=s_values,
            max_vertices=int(max_vertices),
            chunk_size=chunk_size,
            bounds_engines=bounds_engines,
        )
        if jobs > 1 and len(kernel_specs) * len(s_values) > 1:
            rows = _shared_sweep(kernel_specs, jobs=jobs, **sweep)
        else:
            rows = _serial_sweep(kernel_specs, **sweep)
        sweep_span.add("rows", len(rows))
        return TightnessReport(
            rows=rows,
            s_values=s_values,
            elapsed_seconds=time.perf_counter() - started,
        )


# ---------------------------------------------------------------------------
# Two-phase zero-copy parallel sweep
# ---------------------------------------------------------------------------


def _plan_and_publish(task: tuple) -> _KernelPlan:
    """Phase A, one kernel: :func:`_plan_kernel`, then publish its streams.

    Streams and their next-use arrays are built here -- once, total -- and
    the plan travels back with shared-memory refs in place of the streams;
    phase B only ever attaches.
    """
    (name, params, bound, program_bound, s_values, max_vertices,
     bounds_engines, tctx) = task
    with attach(tctx), obs_span("tightness.prepare", kernel=name):
        plan = _plan_kernel(
            name, params, bound, program_bound, s_values, max_vertices,
            bounds_engines,
        )
        param_key = tuple(sorted(params.items()))
        plan.streams = {
            key: shared_streams.publish(
                stream, shared_streams.stream_signature(name, param_key, key)
            )
            for key, stream in plan.streams.items()
        }
        return plan


def _replay_shared(task: tuple) -> tuple | str:
    """Phase B, one point: attach published streams (cached) and replay.

    No stream construction happens here, by design -- the function only
    knows segment refs, so a worker cannot rebuild even by accident.
    """
    schedule_ref, baseline_ref, s, chunk_size, kernel, tctx = task
    with attach(tctx), obs_span(
        "tightness.replay-point", kernel=kernel, s=int(s)
    ):
        try:
            return _replay_point(
                shared_streams.attach_cached(schedule_ref),
                shared_streams.attach_cached(baseline_ref),
                s, chunk_size,
            )
        except (FileNotFoundError, ValueError, OSError) as err:
            # A vanished or undersized segment (publisher died, orphan
            # sweep raced us) degrades this point to a typed error row;
            # it must never take the whole sweep down.
            return f"shared segment unavailable ({type(err).__name__}: {err})"


def _shared_sweep(
    kernel_specs: list[tuple],
    *,
    s_values: tuple[int, ...],
    jobs: int,
    max_vertices: int,
    chunk_size: int | None,
    bounds_engines: tuple[str, ...] | None,
) -> list[TightnessRow]:
    """The parallel sweep: plan-and-publish, then attach-and-replay.

    Both phases run on one process pool, order-preserving.  From the main
    thread, forked workers inherit the warm interpreter state (kernel
    registry, sympy caches); off the main thread -- the service daemon runs
    audits on a thread pool -- forking a multithreaded process can inherit
    held locks into the child and deadlock, so workers are spawned fresh
    instead (tasks and refs are plain picklable data either way).  Shared
    segments outlive the phase-A workers that created them; the driver
    unlinks every segment on the way out, success or not.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    on_main = threading.current_thread() is threading.main_thread()
    try:
        mp_context = multiprocessing.get_context("fork" if on_main else "spawn")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        mp_context = multiprocessing.get_context()
    # the points are CPU-bound, and the service endpoint forwards
    # caller-supplied jobs values: one request must not be able to spawn a
    # worker per sweep point on a large corpus
    workers = pool_workers(jobs, len(kernel_specs) * max(1, len(s_values)))
    tctx = trace_context()  # workers stitch under the driver's sweep span
    plan_tasks = [
        (name, params, bound, program_bound, s_values, max_vertices,
         bounds_engines, tctx)
        for name, params, bound, program_bound in kernel_specs
    ]
    plans: list[_KernelPlan] = []
    try:
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=mp_context
        ) as pool:
            for plan in pool.map(_plan_and_publish, plan_tasks, chunksize=1):
                plans.append(plan)
            replay_tasks = [
                (plan.streams[point.stream_key], plan.streams[_BASELINE],
                 point.s, chunk_size, plan.name, tctx)
                for plan in plans
                for point in plan.points
                if point.error is None
            ]
            replays = iter(
                pool.map(
                    _replay_shared, replay_tasks,
                    chunksize=max(1, len(s_values)),
                )
            )
        rows: list[TightnessRow] = []
        for plan in plans:
            rows.extend(_kernel_rows(
                plan,
                [None if p.error is not None else next(replays)
                 for p in plan.points],
                s_values,
            ))
        return rows
    finally:
        for plan in plans:
            for ref in plan.streams.values():
                shared_streams.unlink(ref)
