"""One fresh-process step of a cold workload.

Run as ``python -m perfbench.child MODE --seed N --out FILE`` from the
checkout root with ``src`` on ``PYTHONPATH``; the parent (``run.py``)
times the whole process, so every pass starts with empty in-process
caches (sympy's, the solve cache's memory tier, the CDAG/program memos).
Modes:

* ``build``     -- compile the native replay core into the benchmark's
  cache before anything is timed;
* ``setup``     -- import the program and build every kernel (the
  table2-cold set-up), and report the locked Table 2 values;
* ``table2``    -- analyse every kernel serially through one engine with
  an empty solve cache, in the seeded order, as ``repro table2`` does;
* ``audit``     -- the ``repro tightness`` sweep at S in {8, 18}, serial,
  solves read from ``--cache-dir``, kernels in the seeded order;
* ``reference`` -- direct in-process ``kernel_report`` / ``kernel_bounds``
  payloads for every kernel (what the service must serve).

``--trace`` wraps each layer's entry points (:mod:`perfbench.layers`) and
writes the spans with the result.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
from contextlib import nullcontext  # noqa: E402

from perfbench.inputs import seeded_order  # noqa: E402
from perfbench.layers import Recorder, install  # noqa: E402
from perfbench.provenance import native_replay_status  # noqa: E402


def build(args, rec) -> dict:
    return {"native": native_replay_status()}


def setup(args, rec) -> dict:
    from repro.kernels import all_kernels
    from repro.kernels.expected import EXPECTED_BOUNDS, SHAPE_MATCHES
    from repro.schedule._native import native_status

    for spec in all_kernels():
        spec.build()
    return {
        "expected": EXPECTED_BOUNDS,
        "shape_matches": SHAPE_MATCHES,
        "native": native_status(),  # table2 never replays: not loaded
    }


def table2(args, rec) -> dict:
    with rec.span("startup.import") if rec else nullcontext():
        from repro.kernels import kernel_names
        from repro.reporting.table import table2_rows
    order = seeded_order(kernel_names(), args.seed)
    if rec:
        install(rec)
    rows = table2_rows(names=order)
    return {
        "rows": [
            {
                "kernel": r.kernel,
                "ours": r.ours,
                "ratio": r.ratio,
                "shape_matches": r.shape_matches,
            }
            for r in rows
        ],
    }


def audit(args, rec) -> dict:
    with rec.span("startup.import") if rec else nullcontext():
        from repro.kernels import kernel_names
        from repro.reporting.tightness import tightness_markdown
        from repro.schedule.tightness import TightnessReport, audit_corpus
    registry_order = kernel_names()
    order = seeded_order(registry_order, args.seed)
    if rec:
        install(rec)
    report = audit_corpus(order, cache_dir=args.cache_dir)
    # render in registry order, as the committed TIGHTNESS.md is
    position = {name: index for index, name in enumerate(registry_order)}
    report = TightnessReport(
        rows=sorted(report.rows, key=lambda row: position[row.kernel]),
        s_values=report.s_values,
    )
    markdown = tightness_markdown(report)
    return {
        "points": [
            {
                "kernel": r.kernel,
                "s": r.s,
                "error": r.error,
                "bound": r.bound_value,
                "schedule_cost": r.schedule_cost,
            }
            for r in report.rows
        ],
        "markdown_rows": [line for line in markdown.splitlines() if line.startswith("|")],
        "native": native_replay_status(),
    }


def reference(args, rec) -> dict:
    from repro.analysis import analyze_kernel
    from repro.bounds import kernel_bounds
    from repro.engine import Engine
    from repro.kernels import kernel_names
    from repro.reporting.serialize import bounds_report, kernel_report

    engine = Engine()
    payloads = {}
    for name in kernel_names():
        result = analyze_kernel(name, engine=engine)
        payloads[f"kernel:{name}"] = kernel_report(result)
        payloads[f"bounds:{name}"] = bounds_report(kernel_bounds(name, result=result))
    return {"payloads": payloads}


MODES = {
    "build": build,
    "setup": setup,
    "table2": table2,
    "audit": audit,
    "reference": reference,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench.child")
    parser.add_argument("mode", choices=sorted(MODES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    rec = Recorder() if args.trace else None
    out = MODES[args.mode](args, rec)
    out["inner_wall_s"] = time.perf_counter() - STARTED
    if rec:
        out["spans"] = [
            dict(span, start=span["start"] - STARTED, end=span["end"] - STARTED)
            for span in rec.spans
        ]
    with open(args.out, "w") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
