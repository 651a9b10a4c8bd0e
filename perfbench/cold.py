"""The two cold workloads: table2-cold and audit-corpus.

Each measured pass is a fresh interpreter (:mod:`perfbench.child`):
sympy's process-wide cache, the engine's memory tier and the CDAG/program
memos would make a second in-process pass warm.  A run makes at least one
pass and adds passes while they fit in ``--seconds``; it reports medians.
"""

from __future__ import annotations

import os
import shutil
import sys
import time
from pathlib import Path

from perfbench.layers import layer_metrics, profile
from perfbench.procs import (
    SETUP_REPEATS, Context, Outcome, build_cached, run_child, run_process,
)
from perfbench.stats import median, unaccounted_fraction


def measured_passes(ctx: Context, step) -> list:
    """At least one pass; another only while it still fits in the budget."""
    runs = [step()]
    spent = runs[0].wall_s
    while spent + runs[-1].wall_s <= ctx.seconds:
        runs.append(step())
        spent += runs[-1].wall_s
    return runs


def check_table2(rows, expected: dict, shape_matches: dict) -> list[str]:
    """Kernels whose bound or paper-shape verdict differs from the locked
    values; a kernel missing from the rows counts too."""
    seen = {row["kernel"]: row for row in rows}
    return sorted(
        name for name in expected
        if name not in seen
        or seen[name]["ours"] != expected[name]
        or seen[name]["shape_matches"] != shape_matches[name]
    )


def failed_points(points) -> list[str]:
    """Audit points that failed: an error row, or a certified lower bound
    above the replayed cost of the point's own (legal) schedule."""
    return [
        f"{p['kernel']}@S={p['s']}" for p in points
        if p["error"] is not None or p["bound"] > p["schedule_cost"]
    ]


def table2_cold(ctx: Context) -> Outcome:
    setups = [run_child(ctx, "setup") for _ in range(SETUP_REPEATS)]
    locked = setups[0].data
    expected, shapes = locked["expected"], locked["shape_matches"]

    def step(traced=False):
        return run_child(ctx, "table2", *(["--trace"] if traced else []))

    passes, traced = _passes_and_trace(ctx, step)
    attempted = failed = 0
    mismatched: set[str] = set()
    for run in passes + traced:
        rows = run.data["rows"]
        bad = check_table2(rows, expected, shapes)
        mismatched.update(bad)
        attempted += len(expected)
        failed += len(bad)
    last = passes[-1].data["rows"]
    details = {
        "kernels": len(last),
        "exact": sum(1 for r in last if r["ratio"] == "1"),
        "shape_matches": sum(1 for r in last if r["shape_matches"]),
        "mismatched": sorted(mismatched),
        "setup_walls_s": [run.wall_s for run in setups],
    }
    if ctx.trace:
        metrics = _traced_metrics(passes[0], traced[0], native=False)
    else:
        metrics = _pass_metrics(passes, len(expected))
        metrics["setup_s"] = median([run.wall_s for run in setups])
    return Outcome(
        attempted=attempted,
        failed=failed,
        correct=not mismatched,
        metrics=metrics,
        native=locked["native"],
        details=details,
        profile=_profile(traced),
    )


def audit_corpus(ctx: Context) -> Outcome:
    solves = solve_store(ctx)
    # set-up: a copy of the filled solve cache and a fresh process that
    # loads the program and the native replay core
    setups = []
    for attempt in range(SETUP_REPEATS):
        store = ctx.path(f"solves-{attempt}")
        started = time.perf_counter()
        shutil.copytree(solves, store)
        run_child(ctx, "build")
        setups.append(time.perf_counter() - started)
    reference = [
        line for line in (ctx.root / "TIGHTNESS.md").read_text().splitlines()
        if line.startswith("|")
    ]

    def step(traced=False):
        extra = ["--cache-dir", str(store)] + (["--trace"] if traced else [])
        return run_child(ctx, "audit", *extra)

    passes, traced = _passes_and_trace(ctx, step)
    attempted = failed = 0
    correct = True
    for run in passes + traced:
        points = run.data["points"]
        attempted += len(points)
        failed += len(failed_points(points))
        correct = correct and run.data["markdown_rows"] == reference
    last = passes[-1].data
    details = {
        "points": len(last["points"]),
        "failed_points": failed_points(last["points"]),
        "rows_match_tightness_md": correct,
        "setup_walls_s": setups,
    }
    if ctx.trace:
        metrics = _traced_metrics(
            passes[0], traced[0], native=bool(last["native"].get("available"))
        )
    else:
        metrics = _pass_metrics(passes, len(last["points"]))
        metrics["setup_s"] = median(setups)
    return Outcome(
        attempted=attempted,
        failed=failed,
        correct=correct,
        metrics=metrics,
        native=last["native"],
        details=details,
        profile=_profile(traced),
    )


def solve_store(ctx: Context) -> Path:
    """The solve cache audit-corpus reads, filled once per build the way a
    user fills it, ``repro table2 --cache-dir DIR --jobs 2`` (12-15 s)."""

    def make(tmp):
        run_process(
            ctx,
            [sys.executable, "-m", "repro", "table2", "--cache-dir", str(tmp),
             "--jobs", str(min(2, os.cpu_count() or 1))],
            ctx.path("fill.log"),
        )

    return build_cached(ctx, "solves", make)


def _passes_and_trace(ctx: Context, step):
    """Untraced passes for end-to-end metrics; with ``--trace 1``, one
    untraced pass (the overhead reference) and one traced pass."""
    if not ctx.trace:
        return measured_passes(ctx, step), []
    return [step()], [step(traced=True)]


def _pass_metrics(passes, operations: int) -> dict:
    return {
        "wall_s": median([run.wall_s for run in passes]),
        "cpu_s": median([run.cpu_s for run in passes]),
        "peak_rss_mb": median([run.peak_rss_mb for run in passes]),
        "rps": median([operations / run.wall_s for run in passes]),
    }


def _traced_metrics(untraced, traced, *, native: bool) -> dict:
    spans = traced.data["spans"]
    metrics = layer_metrics(spans, native=native)
    metrics["trace.overhead_ratio"] = traced.wall_s / untraced.wall_s
    metrics["trace.unaccounted_frac"] = unaccounted_fraction(
        traced.data["inner_wall_s"], spans
    )
    return metrics


def _profile(traced) -> dict | None:
    if not traced:
        return None
    return profile(traced[0].data["spans"], traced[0].data["inner_wall_s"])
