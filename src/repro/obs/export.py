"""JSONL trace export to Chrome/Perfetto ``trace_event`` format + validation.

``to_chrome_trace`` turns span records (see :mod:`repro.obs.spans`) into
the Trace Event JSON the Perfetto UI (https://ui.perfetto.dev) and
``chrome://tracing`` load directly: one complete ("ph": "X") event per
span with microsecond timestamps rebased to the earliest span, the
process/thread of record preserved, and CPU time, peak-RSS delta,
counters, and attributes in ``args``.

``validate_trace`` is the schema check CI runs on ``--trace`` output:
required fields with the right types, unique span ids, and -- the
property the cross-process stitching exists for -- every non-null parent
id resolvable to a span in the same trace (no orphans).

``summarize_trace`` is the per-layer profile of a trace: calls, total and
self wall time per span name (optionally split by one attribute, e.g. the
``engine`` of ``bounds.engine`` spans).
"""

from __future__ import annotations

_REQUIRED = {
    "trace": str,
    "span": str,
    "name": str,
    "start": (int, float),
    "wall": (int, float),
    "cpu": (int, float),
    "rss_peak_delta": int,
    "pid": int,
    "tid": int,
    "attrs": dict,
    "counters": dict,
}


def validate_trace(records: list[dict]) -> list[str]:
    """Return schema violations (empty list means the trace is valid)."""
    errors: list[str] = []
    if not records:
        return ["trace is empty"]
    seen: set[str] = set()
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            errors.append(f"record {i}: not an object")
            continue
        for key, types in _REQUIRED.items():
            if key not in rec:
                errors.append(f"record {i}: missing field {key!r}")
            elif not isinstance(rec[key], types) or isinstance(rec[key], bool):
                errors.append(
                    f"record {i}: field {key!r} has type "
                    f"{type(rec[key]).__name__}"
                )
        parent = rec.get("parent")
        if parent is not None and not isinstance(parent, str):
            errors.append(f"record {i}: field 'parent' has type "
                          f"{type(parent).__name__}")
        span_id = rec.get("span")
        if isinstance(span_id, str):
            if span_id in seen:
                errors.append(f"record {i}: duplicate span id {span_id}")
            seen.add(span_id)
    traces = {rec.get("trace") for rec in records if isinstance(rec, dict)}
    if len(traces) > 1:
        errors.append(f"multiple trace ids in one file: {sorted(map(str, traces))}")
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            continue
        parent = rec.get("parent")
        if isinstance(parent, str) and parent not in seen:
            errors.append(
                f"record {i}: orphaned span {rec.get('span')} "
                f"(parent {parent} not in trace)"
            )
    return errors


def to_chrome_trace(records: list[dict]) -> dict:
    """Span records -> Chrome Trace Event JSON (loads in Perfetto).

    Timestamps are rebased so the earliest span starts at t=0; durations
    come from span wall time.  Metadata events name each process so the
    driver and forked sweep workers are labeled tracks in the UI.
    """
    if not records:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    t0 = min(rec["start"] for rec in records)
    events: list[dict] = []
    pids_seen: set[int] = set()
    for rec in records:
        pid = rec["pid"]
        if pid not in pids_seen:
            pids_seen.add(pid)
            events.append({
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": f"repro pid {pid}"},
            })
        args = dict(rec["attrs"])
        args.update(rec["counters"])
        args["cpu_seconds"] = rec["cpu"]
        args["rss_peak_delta_bytes"] = rec["rss_peak_delta"]
        args["span_id"] = rec["span"]
        if rec.get("parent"):
            args["parent_span_id"] = rec["parent"]
        events.append({
            "name": rec["name"],
            "cat": "repro",
            "ph": "X",
            "ts": (rec["start"] - t0) * 1e6,
            "dur": rec["wall"] * 1e6,
            "pid": pid,
            "tid": rec["tid"],
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def summarize_trace(records: list[dict], by: str | None = None) -> list[dict]:
    """Calls, total and self wall seconds per span name, slowest self first.

    A span's self time is its wall time minus that of its direct children
    on the same thread: children in forked workers ran alongside it, not
    inside its time.  With ``by``, spans carrying that attribute are split
    per value (``"bounds.engine[engine=kkt]"``); others keep their name.
    """
    by_thread = {(rec["pid"], rec["tid"], rec["span"]): rec for rec in records}
    self_wall = {id(rec): rec["wall"] for rec in records}
    for rec in records:
        parent = by_thread.get((rec["pid"], rec["tid"], rec.get("parent")))
        if parent is not None:
            self_wall[id(parent)] -= rec["wall"]
    rows: dict[str, dict] = {}
    for rec in records:
        name = rec["name"]
        if by is not None and by in rec["attrs"]:
            name = f"{name}[{by}={rec['attrs'][by]}]"
        row = rows.setdefault(
            name, {"name": name, "calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        row["calls"] += 1
        row["total_s"] += rec["wall"]
        row["self_s"] += self_wall[id(rec)]
    return sorted(rows.values(), key=lambda row: (-row["self_s"], row["name"]))
