"""Concrete-CDAG bound engines: registry, combine, soundness, service."""

import json
import math
from pathlib import Path

import networkx as nx
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from repro.bounds import (
    available_bound_engines,
    evaluate_bounds,
    get_bound_engine,
    kernel_bounds,
)
from repro.bounds.registry import BoundProblem
from repro.bounds.structure import io_floor
from repro.cdag.cache import cached_cdag, cdag_signature, clear_cdag_cache
from repro.cli import main
from repro.pebbling.optimal import optimal_pebbling_cost
from repro.schedule.simulator import simulate_io
from repro.schedule.stream import stream_from_graph
from repro.util.errors import PebblingError


def chain(n: int) -> nx.DiGraph:
    return nx.DiGraph([(i, i + 1) for i in range(n)])


def diamond() -> nx.DiGraph:
    return nx.DiGraph([(0, 1), (0, 2), (1, 3), (2, 3)])


class TestStructure:
    def test_floor_counts_live_inputs_and_computed_sinks(self):
        # diamond: one input feeding work, one computed sink
        assert io_floor(diamond()) == 2
        # chain(3): 0 is a live input, 3 the only computed sink
        assert io_floor(chain(3)) == 2

    def test_isolated_vertices_do_not_count(self):
        g = diamond()
        g.add_node("lonely")  # in=0, out=0: neither loaded nor stored
        assert io_floor(g) == 2


class TestRegistry:
    def test_builtin_engines_in_registration_order(self):
        assert list(available_bound_engines()) == ["kkt", "io-floor"]

    def test_unknown_engine_names_the_alternatives(self):
        with pytest.raises(KeyError, match="available: kkt, io-floor"):
            get_bound_engine("bogus")

    def test_engine_failure_is_a_result_not_an_exception(self):
        # a malformed symbolic bound makes the kkt evaluation blow up;
        # the registry converts that into an error-carrying result
        problem = BoundProblem(s=8, symbolic_bound=object())
        result = get_bound_engine("kkt").evaluate(problem)
        assert not result.ok
        assert result.error
        assert math.isnan(result.value)

    def test_applicability_gating(self):
        graph_only = BoundProblem(s=8, graph=diamond())
        assert not get_bound_engine("kkt").applicable(graph_only)
        assert get_bound_engine("io-floor").applicable(graph_only)


class TestCombine:
    def test_graph_only_skips_kkt(self):
        combined = evaluate_bounds(s=4, graph=diamond())
        assert set(combined.engine_values()) == {"io-floor"}

    def test_certified_is_the_max_and_ties_go_to_registration_order(self):
        # a symbolic bound equal to the floor: both engines certify 2, so
        # the earlier-registered kkt engine keeps the win
        combined = evaluate_bounds(
            s=4, graph=diamond(), symbolic_bound=sp.Integer(2)
        )
        values = combined.engine_values()
        assert combined.certified == max(values.values())
        assert values == {"kkt": 2.0, "io-floor": 2.0}
        assert combined.winning_engine == "kkt"
        # a strictly larger later engine claims the win
        combined = evaluate_bounds(
            s=4, graph=diamond(), symbolic_bound=sp.Integer(1)
        )
        assert combined.certified == 2.0
        assert combined.winning_engine == "io-floor"

    def test_engine_selection(self):
        combined = evaluate_bounds(s=4, graph=diamond(), engines=["io-floor"])
        assert list(combined.engine_values()) == ["io-floor"]
        assert combined.winning_engine == "io-floor"

    def test_as_dict_shape(self):
        payload = evaluate_bounds(s=4, graph=diamond()).as_dict()
        assert payload["s"] == 4
        assert {"certified", "winning_engine", "disagreement", "engines"} <= set(
            payload
        )
        for entry in payload["engines"]:
            assert {"engine", "value", "model", "notes"} <= set(entry)


class TestIoFloorEngine:
    def test_value_is_the_floor(self):
        g = chain(6)
        result = get_bound_engine("io-floor").evaluate(BoundProblem(s=3, graph=g))
        assert result.ok
        assert result.value == io_floor(g) == 2
        assert result.model == "pebbling"

    def test_cycle_is_a_typed_failure(self):
        result = get_bound_engine("io-floor").evaluate(
            BoundProblem(s=3, graph=nx.DiGraph([(0, 1), (1, 2), (2, 1)]))
        )
        assert not result.ok
        assert result.error_class == "NetworkXUnfeasible"

    def test_sound_against_exact_pebbling_on_a_grid(self):
        g = nx.DiGraph()
        for i in range(3):
            for j in range(3):
                if i + 1 < 3:
                    g.add_edge((i, j), (i + 1, j))
                if j + 1 < 3:
                    g.add_edge((i, j), (i, j + 1))
        for s in (3, 4, 6):
            value = get_bound_engine("io-floor").evaluate(
                BoundProblem(s=s, graph=g)
            ).value
            assert value <= optimal_pebbling_cost(g, s)


class TestKernelBounds:
    def test_gemm_sweep(self):
        kb = kernel_bounds("gemm", s_values=(8, 18))
        assert kb.kernel == "gemm"
        assert kb.s_values == (8, 18)
        assert len(kb.points) == 2
        for point in kb.points:
            values = [r.value for r in point.results if r.ok]
            assert point.certified == max(values)
        assert kb.winning_engine in available_bound_engines()
        assert 0.0 <= kb.max_disagreement <= 1.0

    def test_report_payload(self):
        from repro.reporting.serialize import bounds_report

        payload = bounds_report(kernel_bounds("gemm", s_values=(8,)))
        assert payload["report"] == "bounds"
        assert payload["kernel"] == "gemm"
        assert payload["points"][0]["s"] == 8
        json.dumps(payload)  # fully serializable

    def test_too_large_instance_is_an_error(self):
        with pytest.raises(ValueError, match="instance too large"):
            kernel_bounds("gemm", s_values=(8,), max_vertices=1)


class TestCdagCache:
    def test_shared_instance_and_signature(self):
        clear_cdag_cache()
        first = cached_cdag("gemm", {"N": 4})
        assert cached_cdag("gemm", {"N": 4}) is first
        assert cdag_signature("gemm", {"N": 4}) == cdag_signature(
            "gemm", {"N": True and 4}
        )
        clear_cdag_cache()
        assert cached_cdag("gemm", {"N": 4}) is not first


@st.composite
def small_dags(draw):
    """Random DAGs on <= 7 vertices (edges only ever point forward)."""
    n = draw(st.integers(min_value=2, max_value=7))
    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    for j in range(1, n):
        for i in range(j):
            if draw(st.booleans()):
                g.add_edge(i, j)
    return g


class TestDifferentialSoundness:
    """Satellite guarantee: no registered engine ever exceeds the exact
    optimal pebbling cost, nor the simulated replay I/O, on any graph."""

    @given(small_dags(), st.integers(min_value=0, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_engines_below_exact_and_replay(self, graph, s_extra):
        max_in = max((graph.in_degree(v) for v in graph.nodes), default=0)
        s = max_in + 2 + s_extra
        combined = evaluate_bounds(s=s, graph=graph)
        computed = [v for v in graph.nodes if graph.in_degree(v) > 0]
        replay = (
            simulate_io(stream_from_graph(graph), s).cost if computed else 0
        )
        try:
            exact = optimal_pebbling_cost(graph, s)
        except PebblingError:
            exact = None
        for result in combined.results:
            assert result.ok, result.error
            assert result.value <= replay, (
                f"{result.engine} claims {result.value} > replay {replay} "
                f"at S={s} on edges {sorted(graph.edges)}"
            )
            if exact is not None:
                assert result.value <= exact, (
                    f"{result.engine} claims {result.value} > exact {exact} "
                    f"at S={s} on edges {sorted(graph.edges)}"
                )


TIGHTNESS_MD = Path(__file__).resolve().parent.parent / "TIGHTNESS.md"


def tightness_md_engine_values() -> list[tuple[str, dict[str, float]]]:
    """``(kernel, {engine: value})`` per audited row of the committed
    TIGHTNESS.md, for every engine column."""
    engines = set(available_bound_engines())
    rows, head = [], None
    for line in TIGHTNESS_MD.read_text().splitlines():
        if not line.startswith("|") or line.startswith("|---"):
            continue
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if cells[0] == "Kernel":
            head = cells
            continue
        row = dict(zip(head, cells))
        values = {
            name: float(value) for name, value in row.items()
            if name in engines and value != "-"
        }
        rows.append((row["Kernel"], values))
    assert head is not None, "TIGHTNESS.md has no table"
    assert engines <= set(head), f"engine columns missing: {head}"
    return rows


class TestEngineAttribution:
    """Every registered engine must earn its place: on at least one row of
    the committed audit it certifies strictly more than every other engine.
    CI checks TIGHTNESS.md against a fresh full run, so reading the file
    here keeps this guard cheap."""

    def test_every_engine_is_the_strict_max_somewhere(self):
        strict_wins = {name: [] for name in available_bound_engines()}
        for kernel, values in tightness_md_engine_values():
            for name, value in values.items():
                others = [v for other, v in values.items() if other != name]
                if others and value > max(others):
                    strict_wins[name].append(kernel)
        never = [name for name, kernels in strict_wins.items() if not kernels]
        assert not never, f"engines never the strict max: {never}"
        assert "gemm" in strict_wins["kkt"]
        assert "atax" in strict_wins["io-floor"]


class TestTightnessIntegration:
    def test_rows_carry_engine_bounds_and_winner(self):
        from repro.schedule.tightness import audit_kernel

        (row,) = audit_kernel("gemm", s_values=(18,))
        assert row.ok
        assert set(row.engine_bounds) == {"kkt", "io-floor"}
        assert row.winning_engine in row.engine_bounds
        finite = [v for v in row.engine_bounds.values() if math.isfinite(v)]
        assert row.bound_value == max(finite)

    def test_engine_restriction(self):
        from repro.schedule.tightness import audit_kernel

        (row,) = audit_kernel("gemm", s_values=(18,), bounds_engines=("kkt",))
        assert set(row.engine_bounds) == {"kkt"}
        assert row.winning_engine == "kkt"

    def test_unknown_engine_rejected_up_front(self):
        from repro.schedule.tightness import audit_kernel

        with pytest.raises(KeyError, match="unknown bound engine"):
            audit_kernel("gemm", s_values=(18,), bounds_engines=("bogus",))


class TestCli:
    def test_bounds_json(self, capsys):
        assert main(["bounds", "gemm", "--s", "8", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"] == "bounds"
        point = payload["points"][0]
        engines = {entry["engine"] for entry in point["engines"]}
        assert engines == {"kkt", "io-floor"}

    def test_bounds_text_marks_the_winner(self, capsys):
        assert main(["bounds", "gemm", "--s", "8"]) == 0
        out = capsys.readouterr().out
        assert "certified" in out
        assert "winner:" in out

    def test_bounds_unknown_engine_is_a_usage_error(self, capsys):
        assert main(["bounds", "gemm", "--engines", "bogus"]) == 2
        assert "unknown bound engine" in capsys.readouterr().err

    def test_tightness_engine_flag(self, capsys):
        assert main(
            ["tightness", "gemm", "--s", "18", "--bounds-engines", "kkt",
             "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        row = payload["rows"][0]
        assert list(row["engine_bounds"]) == ["kkt"]
        assert row["winning_engine"] == "kkt"


class TestService:
    def test_post_bounds_roundtrip(self):
        from repro.service.client import ServiceClient, ServiceError
        from repro.service.core import ServiceConfig
        from repro.service.http import ServiceThread

        with ServiceThread(ServiceConfig(workers=1)) as daemon:
            client = ServiceClient(port=daemon.port)
            record = client.bounds("gemm", s_values=[8])
            assert record.ok
            payload = record.result
            assert payload["report"] == "bounds"
            assert payload["kernel"] == "gemm"
            point = payload["points"][0]
            values = [
                entry["value"] for entry in point["engines"]
                if entry["error"] is None
            ]
            assert point["certified"] == max(values)
            # an identical repeat is served from the report cache,
            # bit-identical
            again = client.bounds("gemm", s_values=[8])
            assert again.result["points"] == payload["points"]
            health = client.healthz()
            assert health.bounds["evals"].get("kkt", 0) >= 1
            assert health.bounds["kernels"]["gemm"]["winning_engine"]
            prometheus = client.metrics_prometheus()
            assert 'service_bound_engine_evals_total{engine="kkt"}' in prometheus
            with pytest.raises(ServiceError) as err:
                client.bounds("gemm", engines=["bogus"])
            assert err.value.status == 400
            with pytest.raises(ServiceError) as err:
                client.bounds("no-such-kernel")
            assert err.value.status == 404

    def test_default_identity_names_the_registered_engines(self):
        """An omitted engine list resolves to the registered engines, so a
        report persisted under another engine set is never served for it."""
        from repro.service.core import AnalysisService, ServiceConfig

        service = AnalysisService(ServiceConfig(workers=1))  # workers not started
        default = service.submit_bounds("gemm", s_values=[8])
        identity = json.loads(default.descriptor["identity"])
        assert identity[2] == list(available_bound_engines())
        assert default.descriptor["engines"] == list(available_bound_engines())
        # naming the registered engines explicitly is the same request
        explicit = service.submit_bounds(
            "gemm", s_values=[8], engines=list(available_bound_engines())
        )
        assert explicit is default
