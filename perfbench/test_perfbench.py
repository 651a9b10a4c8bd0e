"""Tests of the benchmark's own code (no program run needed).

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import sys
import time
import types
from pathlib import Path

import pytest

from perfbench import run, serve
from perfbench.cold import check_table2, failed_points
from perfbench.inputs import ROUNDS, request_sequence, seeded_order
from perfbench.layers import LAYER_METRICS, bound_wins, layer_metrics, self_times
from perfbench.stats import MIN_TAIL_SAMPLES, percentile, unaccounted_fraction

NAMES = [f"k{i}" for i in range(40)]


def test_same_seed_same_inputs():
    assert seeded_order(NAMES, 7) == seeded_order(NAMES, 7)
    assert request_sequence(NAMES, 7) == request_sequence(NAMES, 7)
    assert seeded_order(NAMES, 7) != seeded_order(NAMES, 8)
    assert request_sequence(NAMES, 7) != request_sequence(NAMES, 8)
    assert sorted(seeded_order(NAMES, 7)) == sorted(NAMES)


def test_request_pass_is_an_exact_three_to_one_mix():
    sequence = request_sequence(NAMES, 3)
    assert len(sequence) == len(NAMES) * ROUNDS
    for start in range(0, len(sequence), len(NAMES)):
        kinds = [kind for kind, _ in sequence[start:start + len(NAMES)]]
        assert kinds.count("kernel") == 3 * kinds.count("bounds")
    for name in NAMES:
        assert sequence.count(("kernel", name)) == 3
        assert sequence.count(("bounds", name)) == 1


def test_identical_requests_are_a_round_apart():
    """Whatever the seed, a request repeats no sooner than a whole round
    later (cyclically, as passes repeat), so no seed offers the service
    more coalescing than another."""
    for seed in range(20):
        sequence = request_sequence(NAMES, seed)
        n = len(sequence)
        for i, request in enumerate(sequence):
            for gap in range(1, len(NAMES)):
                assert sequence[(i + gap) % n] != request


def test_bound_above_replay_cost_is_a_failed_point():
    points = [
        {"kernel": "gemm", "s": 8, "error": None, "bound": 362.0, "schedule_cost": 768},
        {"kernel": "jacobi1d", "s": 18, "error": None, "bound": 7.1, "schedule_cost": 2},
        {"kernel": "lulesh", "s": 24, "error": None, "bound": 184.0, "schedule_cost": 184},
        {"kernel": "x", "s": 8, "error": "CDAG build failed", "bound": float("nan"),
         "schedule_cost": 0},
    ]
    assert failed_points(points) == ["jacobi1d@S=18", "x@S=8"]


def test_table2_check_flags_wrong_and_missing_kernels():
    expected = {"a": "N**2", "b": "N**3/sqrt(S)", "c": "M*N"}
    shapes = {"a": True, "b": True, "c": False}
    rows = [
        {"kernel": "a", "ours": "N**2", "shape_matches": True},
        {"kernel": "b", "ours": "2*N**3/sqrt(S)", "shape_matches": True},
    ]
    assert check_table2(rows, expected, shapes) == ["b", "c"]


def test_percentile_keeps_ten_samples_beyond_it():
    samples = list(range(1, 1001))
    value = percentile(samples, 99)
    assert sum(1 for s in samples if s > value) >= MIN_TAIL_SAMPLES
    with pytest.raises(ValueError, match="beyond"):
        percentile(list(range(100)), 99)  # 1 sample beyond p99
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    percentile(list(range(serve.WINDOW_SAMPLES)), 99)
    with pytest.raises(ValueError):
        percentile(list(range(serve.WINDOW_SAMPLES - 1)), 99)


def test_slow_window_still_reports_its_p99(monkeypatch):
    """A service too slow for the time budget (here: already spent) still
    yields a window of whole passes with enough samples for its p99."""

    class Record:
        ok = True
        result = "payload"
        queue_seconds = run_seconds = total_seconds = 0.0

    class Client:
        def __init__(self, **_):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def kernel(self, name):
            time.sleep(0.001)
            return Record

        bounds = kernel

    fake = types.ModuleType("repro.service.client")
    fake.ServiceClient, fake.ServiceError = Client, RuntimeError
    monkeypatch.setitem(sys.modules, "repro.service.client", fake)
    sequence = request_sequence(NAMES, 1)
    window = serve.drive(0, sequence, dict.fromkeys(sequence, "payload"), 0.0)
    assert len(window.samples) >= serve.WINDOW_SAMPLES
    assert len(window.samples) == len(window.passes) * len(sequence)
    assert window.failed == 0
    assert percentile(window.latencies, 99) >= 0.001


def test_unaccounted_fraction_arithmetic():
    spans = [
        {"start": 0.0, "end": 2.0, "parent": None},
        {"start": 0.5, "end": 1.5, "parent": 0},  # nested: already covered
        {"start": 3.0, "end": 7.0, "parent": None},
    ]
    assert unaccounted_fraction(10.0, spans) == pytest.approx(0.4)
    overlapping = [
        {"start": 0.0, "end": 4.0, "parent": None},
        {"start": 2.0, "end": 6.0, "parent": None},
    ]
    assert unaccounted_fraction(8.0, overlapping) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        unaccounted_fraction(0.0, spans)


def _span(name, start, end, parent=None, **attrs):
    return {"name": name, "start": start, "end": end, "parent": parent, "attrs": attrs}


def test_layer_metrics_split_self_time_and_count_outcomes():
    spans = [
        _span("engine.analyze", 0.0, 4.0, cache_hits=3),
        _span("engine.canonicalize", 0.0, 0.5, 0, signature="a"),
        _span("engine.canonicalize", 0.5, 1.0, 0, signature="a"),
        _span("opt.solve", 1.0, 2.0, 0, signature="a", outcome="exact"),
        _span("opt.solve", 2.0, 3.0, 0, signature="b", error="SolverError"),
    ]
    assert self_times(spans)[0] == pytest.approx(1.0)
    metrics = layer_metrics(spans, native=False)
    assert set(metrics) == set(LAYER_METRICS)
    assert metrics["engine.combine_s"] == pytest.approx(1.0)
    assert metrics["engine.problems"] == 2 and metrics["engine.distinct"] == 1
    assert metrics["engine.cache_hits"] == 3
    assert metrics["opt.solves"] == 2 and metrics["opt.exact"] == 1
    assert metrics["opt.negative"] == 1 and metrics["opt.useful_ratio"] == 0.5
    assert metrics["cdag.build_s"] == 0.0  # a layer the pass never entered


def test_bound_wins_count_unique_max_and_floor():
    def evaluation(kernel, s, engine, value, floor=None):
        attrs = {"kernel": kernel, "s": s, "engine": engine, "value": value}
        if floor is not None:
            attrs["floor"] = floor
        return {"attrs": attrs}

    evaluations = [
        evaluation("a", 8, "kkt", 10.0), evaluation("a", 8, "spectral", 4.0, 4),
        evaluation("b", 8, "kkt", 3.0), evaluation("b", 8, "spectral", 5.0, 5),
        evaluation("b", 8, "visit", 5.0, 5),
    ]
    wins = bound_wins(evaluations)
    assert wins == {"kkt": 1, "spectral": 0, "visit": 0, "floor": 1}


def test_unknown_workload_fails_loudly(capsys):
    with pytest.raises(SystemExit) as exit_info:
        run.main(["--workload", "no-such-workload", "--seed", "1", "--seconds", "1"])
    assert exit_info.value.code != 0
    assert "invalid choice" in capsys.readouterr().err


def test_benchmark_json_names_every_layer_metric():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(LAYER_METRICS)
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
