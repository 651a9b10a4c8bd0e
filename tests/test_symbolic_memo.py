"""Bounded memos for pure sympy steps: bounded, and invisible in results."""

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import sympy as sp

from repro.analysis import analyze_kernel
from repro.opt import rho
from repro.reporting.serialize import kernel_report
from repro.symbolic import memo
from repro.symbolic.symbols import S_SYM

SUBSET = ["gemm", "2mm", "atax", "mvt", "jacobi1d", "softmax"]
SRC = Path(__file__).resolve().parent.parent / "src"


def _fresh_reports(names):
    """Each kernel's report from its own new interpreter, two at a time."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    reports = {}
    for start in range(0, len(names), 2):
        procs = {
            name: subprocess.Popen(
                [sys.executable, "-m", "repro", "kernel", name, "--json"],
                stdout=subprocess.PIPE,
                text=True,
                env=env,
            )
            for name in names[start:start + 2]
        }
        for name, proc in procs.items():
            out, _ = proc.communicate(timeout=300)
            assert proc.returncode == 0, name
            reports[name] = json.loads(out)
    return reports


def _untimed(value):
    """A report without its wall-clock fields."""
    if isinstance(value, dict):
        return {
            key: _untimed(item)
            for key, item in value.items()
            if key not in ("seconds", "total_seconds")
        }
    if isinstance(value, list):
        return [_untimed(item) for item in value]
    return value


def test_every_memo_is_bounded():
    assert rho._intensity in memo.MEMOS
    assert rho.compare_intensity in memo.MEMOS
    for cached in memo.MEMOS:
        maxsize = cached.cache_info().maxsize
        assert maxsize is not None and math.isfinite(maxsize)
        assert maxsize == memo.MEMO_SIZE


def test_memos_return_what_a_fresh_call_returns():
    x = sp.Symbol("x")
    assert memo.simplify(2.0 * x) == sp.simplify(2.0 * x)
    assert memo.simplify(2 * x) == 2 * x  # 2.0*x is not served for 2*x
    assert memo.nsimplify_rational(sp.Rational(123456789, 987654321)) == sp.nsimplify(
        sp.Rational(123456789, 987654321)
    )
    assert rho.compare_intensity(S_SYM, sp.sqrt(S_SYM)) == 1
    assert rho.compare_intensity(sp.sqrt(S_SYM), S_SYM) == -1


def test_memoized_reports_match_fresh_processes():
    expected = {
        name: _untimed(report) for name, report in _fresh_reports(SUBSET).items()
    }
    for seed in (1, 2):
        order = list(SUBSET)
        random.Random(seed).shuffle(order)
        for name in order:
            report = json.loads(json.dumps(kernel_report(analyze_kernel(name))))
            assert _untimed(report) == expected[name], (seed, name)
