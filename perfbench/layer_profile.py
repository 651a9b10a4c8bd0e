#!/usr/bin/env python3
"""Print the per-layer profile of traced benchmark runs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table2-cold --seed 1 --seconds 10 --trace 1
    python3 perfbench/layer_profile.py                 # latest traced run per workload
    python3 perfbench/layer_profile.py RECORD.json ... # given result records

For each workload: every layer span's calls, total and self seconds and
self share of the traced wall, then the fused problems that took longest
to solve (kernel, canonical signature, outcome).  It then checks that the
layer spans account for the traced wall within the benchmark's tolerance
and exits 1 when a run's unaccounted share exceeds it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.layers import UNACCOUNTED_TOLERANCE  # noqa: E402

RESULTS = ROOT / ".perfbench" / "results"


def latest_traced() -> list[Path]:
    latest: dict[str, Path] = {}
    for path in sorted(RESULTS.glob("*-trace1-*.json")):  # names sort by time
        latest[json.loads(path.read_text())["workload"]] = path
    return [latest[name] for name in sorted(latest)]


def print_record(record: dict) -> bool:
    """Print one traced run; True when its spans cover the wall."""
    metrics = {k: v["value"] for k, v in record["result"]["metrics"].items()}
    unaccounted = metrics["trace.unaccounted_frac"]
    stamp = record["provenance"]
    print(f"== {record['workload']} (seed {record['seed']}, "
          f"commit {(stamp['commit'] or stamp['source_sha256'])[:12]}, "
          f"{stamp['cpu_count']} CPUs, {stamp['date']})")
    profile = record.get("profile")
    if profile:
        wall = profile["wall_s"]
        print(f"traced wall {wall:.3f} s, tracing overhead "
              f"x{metrics['trace.overhead_ratio']:.3f}")
        print(f"  {'layer span':22s} {'calls':>7s} {'total s':>9s} {'self s':>9s} {'self %':>7s}")
        layers = sorted(profile["layers"].items(), key=lambda kv: -kv[1]["self_s"])
        for name, entry in layers:
            print(f"  {name:22s} {entry['calls']:7d} {entry['total_s']:9.3f} "
                  f"{entry['self_s']:9.3f} {100 * entry['self_s'] / wall:6.1f}%")
        if profile["top_solves"]:
            print("  slowest fused-problem solves:")
            for solve in profile["top_solves"]:
                print(f"    {solve['seconds']:7.3f} s  {solve['kernel'] or '?':16s} "
                      f"{(solve['signature'] or '?')[:16]}  {solve['outcome']}")
    else:  # serve-warm: the layers live in the daemon; read its job records
        for name in ("front_ms", "queue_ms", "run_ms", "p50_ms", "p99_ms"):
            print(f"  service.{name:10s} {metrics['service.' + name]:9.3f} ms")
        print(f"  report cache hit ratio {metrics['service.report_cache_hit_ratio']:.3f}, "
              f"jobs {metrics['service.jobs']:.0f}, coalesced "
              f"{metrics['service.coalesced']:.0f}")
    ok = unaccounted <= UNACCOUNTED_TOLERANCE
    print(f"  unaccounted {100 * unaccounted:.1f}% of the traced wall "
          f"(tolerance {100 * UNACCOUNTED_TOLERANCE:.0f}%): {'ok' if ok else 'EXCEEDED'}\n")
    return ok


def main(argv=None) -> int:
    paths = [Path(p) for p in (sys.argv[1:] if argv is None else argv)]
    paths = paths or latest_traced()
    if not paths:
        print("no traced results; run perfbench/run.py with --trace 1 first",
              file=sys.stderr)
        return 1
    results = [print_record(json.loads(path.read_text())) for path in paths]
    return 0 if all(results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
