#!/usr/bin/env python3
"""Run one benchmark workload and print its result.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table2-cold --seed 1 --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` every per-layer metric, from a traced pass.  The last line
of standard output is the result object (``correct``, ``attempted``,
``failed``, ``metrics``); the line before it is the provenance stamp.
The full record -- stamp, metrics, output-check details and, for traced
runs, the per-layer profile -- is kept under ``.perfbench/results/``.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the benchmark's modules, and the program itself for serve-warm's client
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import cold, serve  # noqa: E402
from perfbench.procs import BenchError, Context  # noqa: E402
from perfbench.provenance import stamp  # noqa: E402

WORKLOADS = {
    "table2-cold": cold.table2_cold,
    "audit-corpus": cold.audit_corpus,
    "serve-warm": serve.serve_warm,
}

RESULTS = ROOT / ".perfbench" / "results"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def result_metrics(spec: dict, measured: dict, trace: bool) -> dict:
    """The metrics ``BENCHMARK.json`` names for this mode, with units; a
    metric the workload did not produce is an error, never left out."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        raise BenchError(f"workload produced no value for {', '.join(missing)}")
    return {
        m["name"]: {"value": float(measured[m["name"]]), "unit": m["unit"]}
        for m in wanted
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ctx = Context(
        root=ROOT, workload=args.workload, seed=args.seed,
        seconds=args.seconds, trace=bool(args.trace),
    )
    # this process imports the program too (serve-warm's client): it runs
    # under the same checkout-local environment as the processes it starts
    os.environ.update(ctx.env)
    try:
        outcome = WORKLOADS[args.workload](ctx)
        metrics = result_metrics(spec, outcome.metrics, ctx.trace)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        ctx.close()
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    provenance = stamp(ROOT, outcome.native)
    RESULTS.mkdir(parents=True, exist_ok=True)
    record = RESULTS / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-"
        f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json"
    )
    record.write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance,
        "result": result,
        "details": outcome.details,
        "profile": outcome.profile,
    }, indent=1))
    print(json.dumps({"provenance": provenance, "record": str(record.relative_to(ROOT))}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
