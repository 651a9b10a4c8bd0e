"""Process plumbing: the run's scratch directory, child environment,
timed fresh-process runs, and the outcome a workload hands to ``run.py``."""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench.provenance import library_versions, source_digest

#: no single child may outlive this (the run as a whole must end in 180 s)
CHILD_TIMEOUT_S = 150.0
#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 3


class BenchError(RuntimeError):
    """The run cannot produce a result (a child failed, the daemon died)."""


@dataclass
class Context:
    """Everything one benchmark run shares: where it is, how it spawns."""

    root: Path
    workload: str
    seed: int
    seconds: float
    trace: bool
    scratch: Path = field(init=False)
    env: dict = field(init=False)

    def __post_init__(self):
        state = self.root / ".perfbench"
        self.scratch = state / "runs" / f"{self.workload}-{self.seed}-{os.getpid()}"
        shutil.rmtree(self.scratch, ignore_errors=True)
        (self.scratch / "tmp").mkdir(parents=True)
        env = dict(os.environ)
        env.pop("REPRO_FAULT_PLAN", None)  # measure the fault-free program
        env.pop("REPRO_NO_NATIVE_REPLAY", None)
        env.update(
            PYTHONPATH=os.pathsep.join([str(self.root / "src"), str(self.root)]),
            # hash order is part of the input: fixed by the seed
            PYTHONHASHSEED=str(self.seed % 2**32),
            REPRO_NATIVE_CACHE=str(state / "native"),
            TMPDIR=str(self.scratch / "tmp"),
        )
        self.env = env

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)

    def path(self, name: str) -> Path:
        return self.scratch / name


@dataclass
class Outcome:
    """Counts, checks and metrics of one run.

    ``metrics`` maps a metric name to its value; ``run.py`` adds the units
    from ``BENCHMARK.json``.  ``details`` and ``profile`` go only to the
    run's result file.
    """

    attempted: int
    failed: int
    correct: bool
    metrics: dict[str, float]
    native: dict | None = None
    details: dict = field(default_factory=dict)
    profile: dict | None = None


@dataclass
class ChildRun:
    """One finished fresh process: its cost and its JSON output."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    data: dict


def run_process(ctx: Context, argv: list[str], log: Path) -> ChildRun:
    """Run ``argv`` from the checkout root; time it from spawn to exit."""
    with open(log, "ab") as sink:
        started = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ctx.root, env=ctx.env, stdin=subprocess.DEVNULL,
            stdout=sink, stderr=sink,
        )
        status, usage = _wait(proc, started + CHILD_TIMEOUT_S)
        wall = time.perf_counter() - started
    if status != 0:
        tail = log.read_text(errors="replace")[-2000:]
        raise BenchError(f"{' '.join(argv[:4])} exited with {status}:\n{tail}")
    return ChildRun(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        data={},
    )


def run_child(ctx: Context, mode: str, *extra: str) -> ChildRun:
    """One ``perfbench.child`` step in a fresh interpreter."""
    out = ctx.path(f"{mode}.json")
    run = run_process(
        ctx,
        [sys.executable, "-m", "perfbench.child", mode, "--seed", str(ctx.seed),
         "--out", str(out), *extra],
        ctx.path(f"{mode}.log"),
    )
    run.data = json.loads(out.read_text())
    out.unlink()
    return run


def _wait(proc: subprocess.Popen, deadline: float):
    """``wait4`` with a deadline; a child past it is killed, never leaked."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage
        if time.perf_counter() > deadline:
            proc.send_signal(signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            raise BenchError(f"{proc.args[:4]} timed out after {CHILD_TIMEOUT_S} s")
        time.sleep(0.002)


def build_key(root: Path) -> str:
    """Identity of the program build: source digest, Python and libraries."""
    return hashlib.sha256(
        (source_digest(root) + sys.version + repr(library_versions())).encode()
    ).hexdigest()


def build_cached(ctx: Context, kind: str, make) -> Path:
    """``.perfbench/<kind>/<build key>``: what depends only on the build,
    made once by ``make(tmp_path)`` and reused by every later run."""
    path = ctx.root / ".perfbench" / kind / build_key(ctx.root)
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
        make(tmp)
        os.replace(tmp, path)
    return path
