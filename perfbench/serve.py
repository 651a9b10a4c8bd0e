"""serve-warm: ``repro serve --workers 2`` in its own process, driven in a
closed loop over :data:`CONNECTIONS` connections by this process.

The daemon must not share the load generator's interpreter (an in-thread
``ServiceThread`` would share its GIL).  Its store must already hold every
kernel's report and bounds: a daemon on an empty store is filled once per
build (the cold path) and the filled store is copied into each run.
Set-up is booting the daemon on such a copy until every worker is alive;
it is repeated and the median reported.  The measured window then replays
the seeded request pass again and again, for at least ``--seconds`` and at
least :data:`WINDOW_SAMPLES` requests; a pass's wall time runs from the
last completion of the previous pass to its own last completion.

Every response must be ``ok`` and equal the payload the run first received
for the same request, and each of those must equal a direct in-process
``kernel_report`` / ``kernel_bounds`` result (timing fields aside).  The
direct results, like the filled store, depend only on the build, so both
are kept under ``.perfbench/`` keyed by the build.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

from perfbench.inputs import request_sequence
from perfbench.procs import (
    SETUP_REPEATS, BenchError, Context, Outcome, build_cached, run_child,
)
from perfbench.stats import MIN_TAIL_SAMPLES, median, percentile

WORKERS = 2  #: daemon worker processes (the reference box has 2 CPUs)
#: closed-loop client connections, one thread each.  Enough requests in
#: flight to keep both workers and the front-end busy: at 2 connections the
#: loop is bound by wake-up latency, which on a shared 2-vCPU host swung
#: throughput by 2x between runs (spread 0.5 over ten seeds, against 0.16
#: at 32 connections measured in the same busy period)
CONNECTIONS = 32
#: a window holds at least this many requests, so its p99 leaves
#: MIN_TAIL_SAMPLES beyond it however slow the service is
WINDOW_SAMPLES = 100 * MIN_TAIL_SAMPLES
READY_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 60.0

#: report fields that time the computation that produced them
VOLATILE = {"kernel": ("diagnostics",), "bounds": ("elapsed_seconds",)}


def serve_warm(ctx: Context) -> Outcome:
    from repro.kernels import kernel_names
    from repro.schedule._native import native_status
    from repro.service.client import ServiceClient

    native = native_status()  # the warm path never replays: not loaded
    sequence = request_sequence(kernel_names(), ctx.seed)
    distinct = sorted(set(sequence))
    direct = reference(ctx)
    store = prepared_store(ctx, distinct)
    boots: list[float] = []
    daemon = None
    try:
        for attempt in range(SETUP_REPEATS):
            if daemon is not None:
                daemon.stop()
            copy = ctx.path(f"store-{attempt}")
            shutil.copytree(store, copy)
            started = time.perf_counter()
            daemon = Daemon(ctx, copy)
            daemon.wait_ready()
            boots.append(time.perf_counter() - started)
        # every distinct report once, from the store: what later responses
        # must repeat, and what is checked against the direct results
        served = request_each(daemon.port, distinct)
        with ServiceClient(port=daemon.port, retries=0) as client:
            before = client.metrics()
            cpu_before = session_cpu_s(daemon.pid)
            window = drive(
                daemon.port, sequence, served, ctx.seconds, timings=ctx.trace
            )
            cpu_s = (session_cpu_s(daemon.pid) - cpu_before) / len(window.passes)
            rss_mb = session_peak_rss_mb(daemon.pid)
            after = client.metrics()
    finally:
        if daemon is not None:
            daemon.stop()

    mismatched = [
        f"{kind}:{name}" for (kind, name), payload in served.items()
        if normalized(kind, payload) != normalized(kind, direct[f"{kind}:{name}"])
    ]
    latencies = window.latencies
    details = {
        "requests": len(window.samples),
        "passes": len(window.passes),
        "pass_requests": len(sequence),
        "payload_mismatches": mismatched,
        "boots_s": boots,
        "served_mismatches": window.mismatched,
        "p50_ms": percentile(latencies, 50) * 1e3,
        "p99_ms": percentile(latencies, 99) * 1e3,
    }
    if ctx.trace:
        metrics = service_metrics(window, before, after)
        # the traced window differs from an untraced one only in keeping
        # the job timings every response already carries: nothing runs in
        # the daemon to trace it, so there is no overhead to measure
        metrics["trace.overhead_ratio"] = 1.0
        # connection time outside requests: the load generator's own work
        metrics["trace.unaccounted_frac"] = max(
            0.0, 1.0 - sum(latencies) / (CONNECTIONS * window.duration)
        )
    else:
        metrics = {
            "setup_s": median(boots),
            "wall_s": median(window.passes),
            "cpu_s": cpu_s,
            "peak_rss_mb": rss_mb,
            "rps": len(window.samples) / window.duration,
        }
    return Outcome(
        attempted=len(window.samples),
        failed=window.failed,
        correct=not mismatched and not window.mismatched,
        metrics=metrics,
        native=native,
        details=details,
    )


def service_metrics(window, before: dict, after: dict) -> dict:
    """service.* from the traced window: per-request job timings from each
    JobRecord, counts from ``/metrics`` deltas over the window."""
    from perfbench.layers import LAYER_METRICS

    out = dict.fromkeys(LAYER_METRICS, 0.0)
    timed = [(s.latency, *s.job) for s in window.samples if s.job is not None]
    # front = client latency outside the job's own queue + run time
    out["service.front_ms"] = median([lat - total for lat, _, _, total in timed]) * 1e3
    out["service.queue_ms"] = median([queue for _, queue, _, _ in timed]) * 1e3
    out["service.run_ms"] = median([run for _, _, run, _ in timed]) * 1e3
    latencies = window.latencies
    out["service.p50_ms"] = percentile(latencies, 50) * 1e3
    out["service.p99_ms"] = percentile(latencies, 99) * 1e3
    jobs = after["jobs"]["completed"] - before["jobs"]["completed"]
    hits = after["report_cache"]["hits"] - before["report_cache"]["hits"]
    out["service.jobs"] = jobs
    out["service.coalesced"] = (
        after["coalescing"]["coalesced_total"] - before["coalescing"]["coalesced_total"]
    )
    out["service.report_cache_hit_ratio"] = hits / jobs if jobs else 0.0
    out["service.worker_restarts"] = after["resilience"]["worker_restarts"]
    return out


# ---------------------------------------------------------------------------
# the daemon process
# ---------------------------------------------------------------------------


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Daemon:
    """``repro serve`` in its own session, so its workers can be found and
    stopped with it."""

    def __init__(self, ctx: Context, store: Path):
        self.port = free_port()
        self.log_path = ctx.path("daemon.log")
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", str(self.port),
                 "--workers", str(WORKERS), "--cache-dir", str(store)],
                cwd=ctx.root, env=ctx.env, stdin=subprocess.DEVNULL,
                stdout=log, stderr=log, start_new_session=True,
            )
        self.pid = self.proc.pid

    def wait_ready(self) -> None:
        from repro.service.client import ServiceClient

        deadline = time.monotonic() + READY_TIMEOUT_S
        with ServiceClient(port=self.port, retries=0, timeout=5) as client:
            while time.monotonic() < deadline:
                if self.proc.poll() is not None:
                    raise BenchError(f"daemon exited: {self._log_tail()}")
                try:
                    health = client.healthz()
                except OSError:
                    time.sleep(0.05)
                    continue
                if health.status == "ok" and all(
                    w.get("alive") for w in health.worker_processes
                ):
                    return
                time.sleep(0.05)
        raise BenchError(f"daemon not ready in {READY_TIMEOUT_S} s: {self._log_tail()}")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then make sure the whole session is gone."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        deadline = time.monotonic() + 10
        while session_pids(self.pid) and time.monotonic() < deadline:
            time.sleep(0.02)

    def _log_tail(self) -> str:
        return self.log_path.read_text(errors="replace")[-2000:]


def _stat_fields(pid: str) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            text = handle.read()
    except OSError:
        return None
    return text[text.rindex(")") + 2:].split()


def session_pids(sid: int) -> list[str]:
    """Live processes of session ``sid`` (the daemon and its workers)."""
    pids = []
    for pid in os.listdir("/proc"):
        if pid.isdigit():
            fields = _stat_fields(pid)
            if fields and int(fields[3]) == sid and fields[0] != "Z":
                pids.append(pid)
    return pids


def session_cpu_s(sid: int) -> float:
    ticks = os.sysconf("SC_CLK_TCK")
    total = 0
    for pid in session_pids(sid):
        fields = _stat_fields(pid)
        if fields:
            total += int(fields[11]) + int(fields[12])
    return total / ticks


def session_peak_rss_mb(sid: int) -> float:
    """Sum of each session process's peak resident set (VmHWM)."""
    total_kb = 0
    for pid in session_pids(sid):
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


# ---------------------------------------------------------------------------
# load generation
# ---------------------------------------------------------------------------


def _request(client, kind: str, name: str):
    if kind == "kernel":
        return client.kernel(name)
    return client.bounds(name)


def request_each(port: int, requests) -> dict:
    """Request every report in ``requests`` once; any failure is an error."""
    from repro.service.client import ServiceClient, ServiceError

    payloads: dict = {}
    errors: list[str] = []
    queue = list(requests)
    lock = threading.Lock()

    def work(slot: int):
        with ServiceClient(port=port, retries=0, timeout=REQUEST_TIMEOUT_S) as client:
            while True:
                with lock:
                    if not queue:
                        return
                    kind, name = queue.pop()
                try:
                    record = _request(client, kind, name)
                except (ServiceError, OSError) as err:
                    errors.append(f"{kind}:{name}: {err}")
                    continue
                if not record.ok:
                    errors.append(f"{kind}:{name}: {record.state} {record.error}")
                payloads[(kind, name)] = record.result

    _run_threads(work)
    if errors:
        raise BenchError("requests failed: " + "; ".join(errors[:5]))
    return payloads


class Sample(NamedTuple):
    """One request of a measured window."""

    index: int  #: position in the window's request stream
    latency: float  #: seconds, send to parsed response
    done: float  #: ``perf_counter`` at completion
    ok: bool
    matched: bool  #: payload equals the run's first answer to it
    job: tuple | None  #: (queue_s, run_s, total_s) from the job record


class Window:
    """One measured closed-loop window of whole passes."""

    def __init__(self, samples: list[Sample], started: float, pass_length: int):
        self.samples = sorted(samples)
        self.duration = max(s.done for s in self.samples) - started
        #: wall time of each pass: from the previous pass's last completion
        #: (the window start for the first) to its own last completion
        ends: dict[int, float] = {}
        for sample in self.samples:
            k = sample.index // pass_length
            ends[k] = max(ends.get(k, started), sample.done)
        marks = [started] + [ends[k] for k in sorted(ends)]
        self.passes = [b - a for a, b in zip(marks, marks[1:])]

    @property
    def latencies(self) -> list[float]:
        return [s.latency for s in self.samples]

    @property
    def failed(self) -> int:
        return sum(1 for s in self.samples if not (s.ok and s.matched))

    @property
    def mismatched(self) -> int:
        return sum(1 for s in self.samples if s.ok and not s.matched)


def drive(port: int, sequence, expected: dict, seconds: float, *, timings=False) -> Window:
    """Closed loop: :data:`CONNECTIONS` clients each send the next request
    of the repeated ``sequence`` as soon as their previous one completes.
    A new pass starts only while the window is shorter than ``seconds`` or
    holds fewer than :data:`WINDOW_SAMPLES` requests, so the window holds
    whole passes.  A failed request is recorded, not retried: the client
    runs with ``retries=0``."""
    from repro.service.client import ServiceClient, ServiceError

    lock = threading.Lock()
    state = {"next": 0, "limit": None}
    per_thread: list[list[Sample]] = [[] for _ in range(CONNECTIONS)]
    started = time.perf_counter()
    stop_at = started + seconds

    def take() -> int | None:
        with lock:
            index = state["next"]
            if (state["limit"] is None and index % len(sequence) == 0
                    and index >= WINDOW_SAMPLES
                    and time.perf_counter() >= stop_at):
                state["limit"] = index
            if state["limit"] is not None and index >= state["limit"]:
                return None
            state["next"] = index + 1
            return index

    def work(slot: int):
        samples = per_thread[slot]
        with ServiceClient(port=port, retries=0, timeout=REQUEST_TIMEOUT_S) as client:
            while (index := take()) is not None:
                kind, name = sequence[index % len(sequence)]
                sent = time.perf_counter()
                try:
                    record = _request(client, kind, name)
                except (ServiceError, OSError):
                    done = time.perf_counter()
                    samples.append(Sample(index, done - sent, done, False, False, None))
                    continue
                done = time.perf_counter()
                samples.append(Sample(
                    index, done - sent, done, record.ok,
                    record.result == expected[(kind, name)],
                    (record.queue_seconds, record.run_seconds, record.total_seconds)
                    if timings else None,
                ))

    _run_threads(work)
    return Window([s for samples in per_thread for s in samples], started, len(sequence))


def _run_threads(work) -> None:
    """Run ``work(slot)`` on :data:`CONNECTIONS` threads and re-raise the
    first exception any of them raised."""
    errors: list[BaseException] = []

    def guarded(slot: int):
        try:
            work(slot)
        except BaseException as err:  # noqa: BLE001 - re-raised in the caller
            errors.append(err)

    threads = [
        threading.Thread(target=guarded, args=(slot,))
        for slot in range(CONNECTIONS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise BenchError(f"load generator failed: {errors[0]!r}")


# ---------------------------------------------------------------------------
# direct reference payloads
# ---------------------------------------------------------------------------


def normalized(kind: str, payload: dict) -> dict:
    """``payload`` without the fields that time its own computation."""
    out = {k: v for k, v in payload.items() if k not in VOLATILE[kind]}
    if kind == "bounds":
        out["points"] = [
            dict(point, engines=[
                {k: v for k, v in engine.items() if k != "seconds"}
                for engine in point["engines"]
            ])
            for point in out["points"]
        ]
    return out


def reference(ctx: Context) -> dict:
    """Direct in-process payloads, keyed ``kind:kernel``."""

    def make(tmp: Path):
        tmp.write_text(json.dumps(run_child(ctx, "reference").data["payloads"]))

    return json.loads(build_cached(ctx, "reference", make).read_text())


def prepared_store(ctx: Context, requests) -> Path:
    """A daemon store holding every report in ``requests``: filled once per
    build by a daemon on an empty store (the cold path), then copied into
    each run."""

    def make(tmp: Path):
        daemon = Daemon(ctx, tmp)
        try:
            daemon.wait_ready()
            request_each(daemon.port, requests)
        finally:
            daemon.stop()

    return build_cached(ctx, "store", make)
