"""Traced run: in-memory spans around each layer's public entry points.

:func:`install` wraps the functions each caller on the benchmark's paths
uses -- patched in the caller's namespace, so the program's own files stay
untouched -- and records one span per call in a :class:`Recorder`.  Spans
carry the current kernel and ``S`` and, for solves, the canonical problem
signature and the solver outcome, so cold-solve time can be attributed to
individual fused problems.  :func:`layer_metrics` turns the spans into the
per-layer metrics named in ``BENCHMARK.json``; :func:`profile` into the
self/total table that ``perfbench/layer_profile.py`` prints.
"""

from __future__ import annotations

import dataclasses
import time
from contextlib import contextmanager

from perfbench.stats import median, unaccounted_fraction

#: the traced wall a run's layer spans must account for (1 - tolerance)
UNACCOUNTED_TOLERANCE = 0.10
#: slowest fused-problem solves listed in a profile
TOP_SOLVES = 10


class Recorder:
    """Spans of one process, kept in memory until the pass ends."""

    def __init__(self):
        self.spans: list[dict] = []
        self.context: dict = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "attrs": {**self.context, **attrs},
        }
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record["attrs"]
        except BaseException as err:
            record["attrs"]["error"] = type(err).__name__
            raise
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def scope(self, **context):
        """Tag every span opened inside with ``context`` (kernel, S, ...)."""
        saved = dict(self.context)
        self.context.update(context)
        try:
            yield
        finally:
            self.context = saved


def install(rec: Recorder) -> None:
    """Wrap every layer entry point on the three benchmark paths, for the
    rest of the process (a traced pass is a process of its own)."""
    import repro.cdag.build as cdag_build
    import repro.engine.core as engine_core
    import repro.kernels as kernels
    import repro.schedule.tightness as tightness
    from repro.bounds import BoundEngine
    from repro.bounds.structure import io_floor
    from repro.engine import Engine
    from repro.opt.backends import DEFAULT_BACKEND, get_backend
    from repro.schedule.stream import AccessStream
    from repro.sdg.graph import SDG

    def wrap(function, name, after=None, consume=False, scope=None):
        def wrapper(*args, **kwargs):
            context = scope(*args, **kwargs) if scope else {}
            with rec.scope(**context), rec.span(name) as attrs:
                out = function(*args, **kwargs)
                if consume:
                    out = list(out)
                if after is not None:
                    after(attrs, args, out)
                return out

        wrapper.__wrapped__ = function
        return wrapper

    # kernels: get_kernel is how every caller reaches a spec, and
    # spec.build() is the kernel-construction entry point
    original_get_kernel = kernels.get_kernel
    specs: dict = {}

    def get_kernel(name):
        spec = specs.get(name)
        if spec is None:
            base = original_get_kernel(name)
            spec = dataclasses.replace(
                base, build=wrap(base.build, "kernels.build")
            )
            specs[name] = spec
        return spec

    kernels.get_kernel = get_kernel

    def analyzed(attrs, args, out):
        attrs["cache_hits"] = out.diagnostics.cache.hits

    Engine.analyze = wrap(
        Engine.analyze, "engine.analyze", after=analyzed,
        scope=lambda self, program, **_: {"kernel": program.name},
    )
    SDG.from_program = staticmethod(wrap(SDG.from_program, "sdg.build"))

    def enumerated(attrs, args, out):
        attrs["subgraphs"] = len(out)

    engine_core.enumerate_subgraphs = wrap(
        engine_core.enumerate_subgraphs, "sdg.enumerate",
        after=enumerated, consume=True,
    )
    # unfusable subgraphs raise SolverError: the span records the error
    engine_core.fuse_statements = wrap(engine_core.fuse_statements, "sdg.fuse")

    signatures: dict[int, tuple] = {}

    def canonicalized(attrs, args, out):
        # keep the problem alive so its id cannot be reused by another
        signatures[id(out.problem)] = (out.problem, out.signature)
        attrs["signature"] = out.signature

    engine_core.canonicalize_ir = wrap(
        engine_core.canonicalize_ir, "engine.canonicalize", after=canonicalized
    )

    def solved(attrs, args, out):
        attrs["outcome"] = "exact" if out.exact else "fitted"

    def problem_signature(self, problem, **_):
        entry = signatures.get(id(problem))
        return {"signature": entry[1] if entry else None}

    # a rejected problem raises SolverError: its span carries that error
    backend_cls = type(get_backend(DEFAULT_BACKEND))
    backend_cls.solve = wrap(
        backend_cls.solve, "opt.solve", after=solved, scope=problem_signature
    )

    def built(attrs, args, out):
        attrs["vertices"] = out.n_vertices
        attrs["edges"] = out.graph.number_of_edges()

    cdag_build.build_cdag = wrap(
        cdag_build.build_cdag, "cdag.build", after=built,
        scope=lambda program, *_, **__: {"kernel": program.name},
    )

    def evaluated(attrs, args, out):
        self, problem = args
        attrs.update(
            engine=self.name, kernel=problem.kernel, s=int(problem.s),
            value=out.value if out.ok else None,
        )
        if problem.graph is not None and self.requires == "graph":
            # graph engines have computed the memoized structural facts,
            # so reading the floor here costs no extra graph pass
            attrs["floor"] = io_floor(problem.graph)

    BoundEngine.evaluate = wrap(
        BoundEngine.evaluate, "bounds.evaluate", after=evaluated
    )

    def streamed(attrs, args, out):
        attrs["accesses"] = out.n_accesses

    def replayed(attrs, args, out):
        attrs["io"] = out.cost

    tightness.derive_schedule = wrap(tightness.derive_schedule, "schedule.derive")
    tightness.blocked_order = wrap(tightness.blocked_order, "schedule.order")
    tightness.stream_from_graph = wrap(
        tightness.stream_from_graph, "schedule.stream", after=streamed
    )
    AccessStream.next_use_arrays = wrap(
        AccessStream.next_use_arrays, "schedule.next_use"
    )
    tightness.simulate_io = wrap(
        tightness.simulate_io, "schedule.replay", after=replayed,
        scope=lambda stream, s, **_: {"s": int(s)},
    )


# ---------------------------------------------------------------------------
# spans -> per-layer metrics and profile
# ---------------------------------------------------------------------------

#: every per-layer metric, in BENCHMARK.json order; absent layers read 0
LAYER_METRICS = (
    "startup.import_s",
    "kernels.build_s",
    "sdg.build_s", "sdg.enumerate_s", "sdg.subgraphs", "sdg.fuse_s",
    "sdg.fused", "sdg.fuse_failed",
    "engine.canonicalize_s", "engine.problems", "engine.distinct",
    "engine.cache_hits", "engine.combine_s",
    "opt.solve_s", "opt.solves", "opt.solve_p50_ms", "opt.solve_max_s",
    "opt.exact", "opt.fitted", "opt.negative", "opt.useful_ratio",
    "cdag.build_s", "cdag.vertices", "cdag.edges",
    "bounds.kkt_s", "bounds.spectral_s", "bounds.visit_s", "bounds.evals",
    "bounds.kkt_wins", "bounds.spectral_wins", "bounds.visit_wins",
    "bounds.floor_wins",
    "schedule.derive_s", "schedule.order_s", "schedule.stream_s",
    "schedule.accesses", "schedule.next_use_s", "schedule.replay_s",
    "schedule.io", "schedule.native",
    "service.front_ms", "service.queue_ms", "service.run_ms",
    "service.p50_ms", "service.p99_ms", "service.jobs", "service.coalesced",
    "service.report_cache_hit_ratio", "service.worker_restarts",
    "trace.overhead_ratio", "trace.unaccounted_frac",
)


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [_duration(s) for s in spans]
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= _duration(span)
    return own


def layer_metrics(spans, *, native: bool) -> dict[str, float]:
    """Per-layer metrics of one traced pass (trace.* filled by the caller)."""
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span["name"], []).append(index)

    def total(name):
        return sum(_duration(spans[i]) for i in by_name.get(name, ()))

    def count(name, predicate=lambda attrs: True):
        return sum(1 for i in by_name.get(name, ()) if predicate(spans[i]["attrs"]))

    def attr_sum(name, key):
        return sum(spans[i]["attrs"].get(key, 0) for i in by_name.get(name, ()))

    out = dict.fromkeys(LAYER_METRICS, 0.0)
    out["startup.import_s"] = total("startup.import")
    out["kernels.build_s"] = total("kernels.build")
    out["sdg.build_s"] = total("sdg.build")
    out["sdg.enumerate_s"] = total("sdg.enumerate")
    out["sdg.subgraphs"] = attr_sum("sdg.enumerate", "subgraphs")
    out["sdg.fuse_s"] = total("sdg.fuse")
    out["sdg.fuse_failed"] = count("sdg.fuse", lambda a: "error" in a)
    out["sdg.fused"] = count("sdg.fuse") - out["sdg.fuse_failed"]
    out["engine.canonicalize_s"] = total("engine.canonicalize")
    out["engine.problems"] = count("engine.canonicalize")
    out["engine.distinct"] = len({
        spans[i]["attrs"]["signature"] for i in by_name.get("engine.canonicalize", ())
    })
    out["engine.cache_hits"] = attr_sum("engine.analyze", "cache_hits")
    out["engine.combine_s"] = sum(own[i] for i in by_name.get("engine.analyze", ()))

    solves = [spans[i] for i in by_name.get("opt.solve", ())]
    if solves:
        seconds = [_duration(s) for s in solves]
        outcomes = [s["attrs"].get("outcome", "negative") for s in solves]
        out["opt.solve_s"] = sum(seconds)
        out["opt.solves"] = len(solves)
        out["opt.solve_p50_ms"] = median(seconds) * 1e3
        out["opt.solve_max_s"] = max(seconds)
        for outcome in ("exact", "fitted", "negative"):
            out[f"opt.{outcome}"] = outcomes.count(outcome)
        out["opt.useful_ratio"] = (
            (out["opt.exact"] + out["opt.fitted"]) / len(solves)
        )

    out["cdag.build_s"] = total("cdag.build")
    out["cdag.vertices"] = attr_sum("cdag.build", "vertices")
    out["cdag.edges"] = attr_sum("cdag.build", "edges")

    evaluations = [spans[i] for i in by_name.get("bounds.evaluate", ())]
    out["bounds.evals"] = len(evaluations)
    for span in evaluations:
        key = f"bounds.{span['attrs']['engine']}_s"
        if key in out:
            out[key] += _duration(span)
    for key, value in bound_wins(evaluations).items():
        out[f"bounds.{key}_wins"] = value

    out["schedule.derive_s"] = total("schedule.derive")
    out["schedule.order_s"] = total("schedule.order")
    out["schedule.stream_s"] = total("schedule.stream")
    out["schedule.accesses"] = attr_sum("schedule.stream", "accesses")
    out["schedule.next_use_s"] = total("schedule.next_use")
    out["schedule.replay_s"] = sum(own[i] for i in by_name.get("schedule.replay", ()))
    out["schedule.io"] = attr_sum("schedule.replay", "io")
    if native:
        out["schedule.native"] = count("schedule.replay")
    return out


def bound_wins(evaluations) -> dict[str, int]:
    """Per (kernel, S) point: which engine is the *unique* max, and whether
    the certified max is just the cold input/output floor."""
    points: dict[tuple, list[dict]] = {}
    for span in evaluations:
        attrs = span["attrs"]
        points.setdefault((attrs.get("kernel"), attrs["s"]), []).append(attrs)
    wins = {"kkt": 0, "spectral": 0, "visit": 0, "floor": 0}
    for results in points.values():
        values = [(a["value"], a["engine"]) for a in results if a["value"] is not None]
        if not values:
            continue
        best = max(value for value, _ in values)
        leaders = [engine for value, engine in values if value == best]
        if len(leaders) == 1 and leaders[0] in wins:
            wins[leaders[0]] += 1
        floors = {a["floor"] for a in results if "floor" in a}
        if floors and best == max(floors):
            wins["floor"] += 1
    return wins


def profile(spans, wall: float) -> dict:
    """Per-span-name calls/total/self seconds plus the slowest solves."""
    own = self_times(spans)
    layers: dict[str, dict] = {}
    for span, self_s in zip(spans, own):
        entry = layers.setdefault(
            span["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        entry["calls"] += 1
        entry["total_s"] += _duration(span)
        entry["self_s"] += self_s
    solves = sorted(
        (s for s in spans if s["name"] == "opt.solve"),
        key=_duration, reverse=True,
    )
    return {
        "wall_s": wall,
        "unaccounted_frac": unaccounted_fraction(wall, spans),
        "tolerance": UNACCOUNTED_TOLERANCE,
        "layers": layers,
        "top_solves": [
            {
                "kernel": s["attrs"].get("kernel"),
                "signature": s["attrs"].get("signature"),
                "outcome": s["attrs"].get("outcome", "negative"),
                "seconds": _duration(s),
            }
            for s in solves[:TOP_SOLVES]
        ],
    }
