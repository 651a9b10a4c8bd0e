"""Tightness audit: gaps, classification, reporting, CLI."""

import json
import math

import pytest

from repro.cli import main
from repro.reporting.serialize import tightness_report
from repro.reporting.tightness import tightness_markdown
from repro.schedule.tightness import (
    audit_corpus,
    audit_kernel,
    audit_params,
    classify_gap,
)


@pytest.fixture(scope="module")
def small_report():
    return audit_corpus(["gemm", "atax", "jacobi1d"], s_values=(8, 18))


class TestAuditKernel:
    def test_gemm_attains_its_bound(self):
        rows = audit_kernel("gemm", s_values=(18,))
        (row,) = rows
        assert row.ok
        assert row.tiled
        assert math.isfinite(row.gap)
        # the derived blocked schedule stays within the constant the
        # examples/tiled_schedule.py demonstration established (~2.2x)
        assert row.gap <= 3.0
        assert row.classification == "attained"
        assert row.schedule_cost < row.program_order_cost

    def test_bandwidth_bound_kernel_streams(self):
        rows = audit_kernel("atax", s_values=(8,))
        (row,) = rows
        assert row.ok and not row.tiled
        assert math.isfinite(row.gap)
        assert row.schedule_cost == row.program_order_cost

    def test_infeasible_s_clamped(self):
        rows = audit_kernel("gemm", s_values=(1,))
        (row,) = rows
        assert row.ok
        assert row.s > 1 and row.s_requested == 1
        assert any("clamped" in note for note in row.notes)

    def test_clamped_duplicates_collapse(self):
        rows = audit_kernel("gemm", s_values=(1, 2))
        assert len(rows) == 1  # both requests clamp to the same feasible S

    def test_too_large_instance_reports_error(self):
        rows = audit_kernel("gemm", s_values=(8,), max_vertices=10)
        (row,) = rows
        assert not row.ok
        assert "too large" in row.error
        assert row.classification == "error"

    def test_params_merge_over_defaults(self):
        rows = audit_kernel("gemm", params={"N": 5, "UNUSED": 3}, s_values=(8,))
        (row,) = rows
        assert row.params == {"N": 5}

    def test_audit_params_defaults(self):
        from repro.kernels import get_kernel

        params = audit_params("jacobi1d", get_kernel("jacobi1d").build())
        assert params["T"] == 4  # override keeps time loops short
        assert params["N"] >= 4


class TestClassification:
    def test_buckets(self):
        assert classify_gap(1.0) == "attained"
        assert classify_gap(2.5) == "attained"
        assert classify_gap(5.0) == "near"
        assert classify_gap(50.0) == "loose"

    def test_gap_below_one_is_a_violation(self):
        assert classify_gap(0.28) == "violated"
        assert classify_gap(0.999) == "violated"


class TestParallelSweep:
    def test_parallel_rows_identical_to_serial(self, small_report):
        """jobs=N fans the replay sweep over a process pool; the rows (and
        their order) must be exactly the serial ones."""
        parallel = audit_corpus(
            ["gemm", "atax", "jacobi1d"], s_values=(8, 18), jobs=3
        )
        assert [r.as_dict() for r in parallel.rows] == [
            r.as_dict() for r in small_report.rows
        ]

    def test_parallel_clamp_collapse(self):
        """Requested sizes clamping to one feasible S collapse in the pool
        path exactly like the serial path."""
        serial = audit_corpus(["gemm"], s_values=(1, 2), jobs=1)
        parallel = audit_corpus(["gemm"], s_values=(1, 2), jobs=2)
        assert len(parallel.rows) == len(serial.rows) == 1

    def test_parallel_error_rows_preserved(self):
        report = audit_corpus(["gemm"], s_values=(8, 18), jobs=2, max_vertices=1)
        assert len(report.rows) == 2
        assert all(not r.ok and "too large" in r.error for r in report.rows)

    def test_cli_jobs_flag(self, capsys):
        assert main(["tightness", "gemm", "--s", "18", "--jobs", "2"]) == 0
        assert "gemm" in capsys.readouterr().out

    def test_threaded_audits_do_not_cross_contexts(self):
        """The kernel-context memo is thread-local: concurrent audits on a
        shared thread pool (the service daemon's shape) must not hand one
        kernel the other's CDAG."""
        from concurrent.futures import ThreadPoolExecutor

        from repro.analysis import analyze_kernel

        results = {name: analyze_kernel(name) for name in ("gemm", "atax")}

        def audit(name):
            return audit_kernel(name, result=results[name], s_values=(8,))

        with ThreadPoolExecutor(2) as pool:
            for _ in range(3):
                (a,), (b,) = pool.map(audit, ["gemm", "atax"])
                assert a.kernel == "gemm" and b.kernel == "atax"
                assert a.ok and b.ok
                assert a.n_vertices != b.n_vertices

    def test_duplicate_clamp_skips_replay_work(self, monkeypatch):
        """Requested sizes clamping to one feasible S are skipped before
        any replay, not simulated and discarded."""
        import repro.schedule.tightness as tightness_mod

        calls = []
        real = tightness_mod.simulate_io

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(tightness_mod, "simulate_io", counting)
        rows = audit_kernel("gemm", s_values=(1, 2, 3))
        assert len(rows) == 1
        # one schedule replay + one program-order replay, exactly once
        assert len(calls) == 2


class TestAuditCorpus:
    def test_rows_and_summary(self, small_report):
        summary = small_report.summary()
        assert summary["kernels"] == 3
        assert summary["audited"] == 3
        assert summary["finite_gaps"] is True
        assert summary["failed"] == []
        kernels = {row.kernel for row in small_report.rows}
        assert kernels == {"gemm", "atax", "jacobi1d"}

    def test_every_derivable_kernel_has_finite_gap(self, small_report):
        for row in small_report.rows:
            assert row.ok
            assert math.isfinite(row.gap), row

    def test_json_report_schema(self, small_report):
        payload = json.loads(json.dumps(tightness_report(small_report)))
        assert payload["report"] == "tightness"
        assert payload["generator"] == "repro"
        assert payload["summary"]["finite_gaps"] is True
        first = payload["rows"][0]
        assert {"kernel", "s", "gap", "classification", "bound"} <= set(first)

    def test_markdown_rendering(self, small_report):
        text = tightness_markdown(small_report)
        assert "# TIGHTNESS" in text
        assert "| gemm |" in text
        assert "## Polybench" in text
        assert "**Summary:**" in text


class TestTightnessCLI:
    def test_text_output(self, capsys):
        code = main(["tightness", "gemm", "--s", "18"])
        out = capsys.readouterr().out
        assert code == 0
        assert "gemm" in out and "attained" in out
        assert "audited" in out

    def test_json_output(self, capsys):
        code = main(["tightness", "gemm", "--s", "18", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"] == "tightness"
        assert payload["rows"][0]["kernel"] == "gemm"

    def test_markdown_file(self, tmp_path, capsys):
        target = tmp_path / "TIGHTNESS.md"
        assert main(["tightness", "gemm", "--s", "18", "--markdown", str(target)]) == 0
        assert "| gemm |" in target.read_text()

    def test_params_override(self, capsys):
        assert main(["tightness", "gemm", "--s", "18", "--params", "N=4"]) == 0
        assert "N=4" not in capsys.readouterr().err

    def test_unknown_kernel_exits_2(self, capsys):
        assert main(["tightness", "nope"]) == 2
        assert "unknown kernel" in capsys.readouterr().err

    def test_bad_s_exits_2(self, capsys):
        assert main(["tightness", "gemm", "--s", "abc"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_all_failed_exits_1(self, capsys):
        """A selection where every kernel fails to audit must not exit 0."""
        code = main(["tightness", "gemm", "--s", "18", "--max-vertices", "1"])
        out = capsys.readouterr().out
        assert "skipped" in out
        assert code == 1


class TestValidationReportReplay:
    """Satellite: ValidationReport carries the schedule-replay cost."""

    def test_replay_matches_greedy(self):
        from repro.kernels import get_kernel
        from repro.pebbling.validate import validate_bound

        report = validate_bound(get_kernel("gemm").build(), {"N": 3}, 6)
        assert report.replay_cost == report.greedy_cost
        assert report.consistent
        assert report.schedule_cost is not None
        assert report.sound

    def test_validate_cli_shows_replay(self, capsys):
        assert main(["validate", "gemm", "--params", "N=2", "--S", "4"]) == 0
        out = capsys.readouterr().out
        assert "stream replay" in out
        assert "consistent: True" in out
