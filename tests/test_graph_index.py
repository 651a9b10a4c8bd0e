"""The integer CDAG index and its consumers against per-vertex oracles.

:func:`repro.cdag.index.graph_index` replaced networkx walks in program
order, blocked orders, graph streams and the input/output floor.
Each consumer must give *exactly* what the walk gave, so the walks are
kept here as test-local oracles:

* ``nx.topological_sort`` for the index's ``topo`` and ``default_order``;
* ``oracle_tiled_order`` -- sort by the (tiles, rank, intra) key tuple,
  then a heap Kahn pass preferring the blocked sequence;
* ``oracle_stream_from_graph`` -- the per-vertex stream builder numbering
  ids with :func:`repro.pebbling.greedy.stream_vertex_ids`;
* ``oracle_io_floor`` -- the per-vertex degree count of the floor.

They are compared on hypothesis DAGs with shuffled node and edge
insertion order, on random topological orders and random points/tiles
(blocked sequences that are and are not topological), and on a corpus
subset at the tightness audit's parameters.
"""

import heapq
import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bounds.structure import io_floor
from repro.cdag.index import graph_index
from repro.obs import MetricsRegistry, Tracer
from repro.pebbling.greedy import (
    blocked_topological_order,
    default_order,
    stream_vertex_ids,
    tiled_order,
)
from repro.schedule.derive import blocked_order
from repro.schedule.stream import AccessStream, stream_from_graph
from repro.util.errors import PebblingError

# ---------------------------------------------------------------------------
# oracles: the per-vertex implementations the index replaced
# ---------------------------------------------------------------------------


def oracle_default_order(graph):
    inputs = {v for v in graph.nodes if graph.in_degree(v) == 0}
    return [v for v in nx.topological_sort(graph) if v not in inputs]


def oracle_tiled_order(
    graph, point_of, tile_sizes, variable_order, *, statement_rank=None
):
    inputs = {v for v in graph.nodes if graph.in_degree(v) == 0}

    def key(vertex):
        point = point_of(vertex) or {}
        tiles = tuple(
            point.get(var, 0) // max(1, tile_sizes.get(var, 1))
            for var in variable_order
        )
        rank = statement_rank(vertex) if statement_rank is not None else 0
        intra = tuple(point.get(var, 0) for var in variable_order)
        return (tiles, rank, intra)

    preferred = sorted((v for v in graph.nodes if v not in inputs), key=key)
    rank = {v: i for i, v in enumerate(preferred)}
    indegree = {
        v: sum(1 for p in graph.predecessors(v) if p not in inputs)
        for v in graph.nodes
        if v not in inputs
    }
    ready = [(rank[v], v) for v, d in indegree.items() if d == 0]
    heapq.heapify(ready)
    out = []
    while ready:
        _, v = heapq.heappop(ready)
        out.append(v)
        for child in graph.successors(v):
            if child in indegree:
                indegree[child] -= 1
                if indegree[child] == 0:
                    heapq.heappush(ready, (rank[child], child))
    assert len(out) == len(indegree)
    return out


def oracle_stream_from_graph(graph, order=None):
    inputs = {v for v in graph.nodes if graph.in_degree(v) == 0}
    order = oracle_default_order(graph) if order is None else list(order)
    ids = stream_vertex_ids(graph, order)
    offsets, parent_ids, computed_ids, store_positions = [0], [], [], []
    labels = [None] * len(ids)
    for vertex, vid in ids.items():
        labels[vid] = vertex
    for pos, v in enumerate(order):
        parent_ids.extend(ids[parent] for parent in graph.predecessors(v))
        offsets.append(len(parent_ids))
        computed_ids.append(ids[v])
        if graph.out_degree(v) == 0:
            store_positions.append(pos)
    store_at_compute = np.zeros(len(order), dtype=np.uint8)
    store_at_compute[store_positions] = 1
    starts_blue = np.zeros(len(ids), dtype=np.uint8)
    starts_blue[[ids[v] for v in inputs if v in ids]] = 1
    return AccessStream(
        n_positions=len(order),
        n_ids=len(ids),
        parent_offsets=np.asarray(offsets, dtype=np.int64),
        parent_ids=np.asarray(parent_ids, dtype=np.int64),
        computed_ids=np.asarray(computed_ids, dtype=np.int64),
        starts_blue=starts_blue,
        store_at_compute=store_at_compute,
        labels=labels,
    )


def oracle_io_floor(graph):
    live_inputs = sum(
        1 for v in graph.nodes
        if graph.in_degree(v) == 0 and graph.out_degree(v) > 0
    )
    computed_sinks = sum(
        1 for v in graph.nodes
        if graph.in_degree(v) > 0 and graph.out_degree(v) == 0
    )
    return live_inputs + computed_sinks


def assert_streams_equal(actual, expected):
    assert actual.n_positions == expected.n_positions
    assert actual.n_ids == expected.n_ids
    for name in ("parent_offsets", "parent_ids", "computed_ids",
                 "starts_blue", "store_at_compute"):
        got, want = getattr(actual, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        np.testing.assert_array_equal(got, want, err_msg=name)
    assert actual.labels == expected.labels


# ---------------------------------------------------------------------------
# random DAGs with shuffled insertion order
# ---------------------------------------------------------------------------


@st.composite
def shuffled_dags(draw):
    """A DAG whose labels, node insertion and edge insertion are shuffled
    independently of its topological structure."""
    n = draw(st.integers(1, 14))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    labels = [f"v{i}" for i in range(n)]
    rng.shuffle(labels)  # labels[i] is the vertex at structural rank i
    density = draw(st.sampled_from([0.1, 0.3, 0.6]))
    edges = [
        (labels[i], labels[j])
        for j in range(n)
        for i in range(j)
        if rng.random() < density
    ]
    rng.shuffle(edges)
    graph = nx.DiGraph()
    early = labels[:]
    rng.shuffle(early)
    graph.add_nodes_from(early[: rng.randint(0, n)])
    graph.add_edges_from(edges)
    graph.add_nodes_from(early)
    return graph, rng


def random_topological_order(graph, rng):
    """A uniformly-branching Kahn order of the computed vertices."""
    indegree = {v: graph.in_degree(v) for v in graph.nodes}
    ready = [v for v, d in indegree.items() if d == 0]
    out = []
    while ready:
        v = ready.pop(rng.randrange(len(ready)))
        out.append(v)
        for child in graph.successors(v):
            indegree[child] -= 1
            if indegree[child] == 0:
                ready.append(child)
    return [v for v in out if graph.in_degree(v) > 0]


class TestIndexAgainstNetworkx:
    @given(case=shuffled_dags())
    @settings(max_examples=150, deadline=None)
    def test_topo_level_and_csr(self, case):
        graph, _ = case
        index = graph_index(graph)
        nodes = index.nodes
        assert nodes == list(graph.nodes)
        topo = [nodes[i] for i in index.topo]
        assert topo == list(nx.topological_sort(graph))
        # topo runs level by level: longest-path generations, sources first
        start = 0
        for generation in nx.topological_generations(graph):
            assert set(topo[start:start + len(generation)]) == set(generation)
            start += len(generation)
        for i, vertex in enumerate(nodes):
            preds = index.pred_idx[index.pred_ptr[i]:index.pred_ptr[i + 1]]
            succs = index.succ_idx[index.succ_ptr[i]:index.succ_ptr[i + 1]]
            assert [nodes[p] for p in preds] == list(graph.predecessors(vertex))
            assert [nodes[s] for s in succs] == list(graph.successors(vertex))
            assert index.in_deg[i] == graph.in_degree(vertex)
            assert index.out_deg[i] == graph.out_degree(vertex)

    @given(case=shuffled_dags())
    @settings(max_examples=150, deadline=None)
    def test_default_order_and_facts(self, case):
        graph, _ = case
        assert default_order(graph) == oracle_default_order(graph)
        assert io_floor(graph) == oracle_io_floor(graph)

    @given(case=shuffled_dags())
    @settings(max_examples=150, deadline=None)
    def test_streams_over_random_topological_orders(self, case):
        graph, rng = case
        assert_streams_equal(
            stream_from_graph(graph), oracle_stream_from_graph(graph)
        )
        order = random_topological_order(graph, rng)
        assert_streams_equal(
            stream_from_graph(graph, order),
            oracle_stream_from_graph(graph, order),
        )

    @given(case=shuffled_dags(), tiles=st.dictionaries(
        st.sampled_from("abc"), st.integers(1, 4), max_size=3,
    ))
    @settings(max_examples=200, deadline=None)
    def test_tiled_order_random_points(self, case, tiles):
        graph, rng = case
        points = {
            v: {var: rng.randrange(5) for var in "abc" if rng.random() < 0.8}
            for v in graph.nodes
            if graph.in_degree(v) > 0
        }
        ranks = {v: rng.randrange(3) for v in points}
        variables = rng.sample("abc", rng.randint(0, 3))
        kwargs = {}
        if rng.random() < 0.5:
            kwargs["statement_rank"] = ranks.__getitem__
        assert tiled_order(
            graph, points.get, tiles, variables, **kwargs
        ) == oracle_tiled_order(graph, points.get, tiles, variables, **kwargs)

    @given(case=shuffled_dags())
    @settings(max_examples=100, deadline=None)
    def test_repair_only_when_the_blocked_sequence_breaks_an_edge(self, case):
        graph, rng = case
        order = random_topological_order(graph, rng)
        where = {v: t for t, v in enumerate(order)}
        # points along a topological order: already legal, no repair
        got, repaired = blocked_topological_order(
            graph, lambda v: {"t": where[v]}, {}, ["t"]
        )
        assert not repaired
        assert got == order
        # reversed points break every edge between computed vertices
        backward = lambda v: {"t": -where[v]}  # noqa: E731
        got, repaired = blocked_topological_order(graph, backward, {}, ["t"])
        has_internal_edge = any(
            graph.in_degree(u) > 0 for u, _ in graph.edges
        )
        assert repaired == has_internal_edge
        assert got == oracle_tiled_order(graph, backward, {}, ["t"])


class TestIndexCache:
    def test_cached_per_graph_object(self):
        graph = nx.DiGraph([(0, 1), (1, 2)])
        assert graph_index(graph) is graph_index(graph)

    def test_cycle_raises_like_networkx(self):
        graph = nx.DiGraph([(0, 1), (1, 2), (2, 1)])
        with pytest.raises(nx.NetworkXUnfeasible):
            default_order(graph)
        with pytest.raises(nx.NetworkXUnfeasible):
            stream_from_graph(graph)
        with pytest.raises(PebblingError, match="cycle"):
            tiled_order(graph, lambda v: None, {}, [])


# ---------------------------------------------------------------------------
# stream_from_graph rejects illegal orders
# ---------------------------------------------------------------------------


def two_path_diamond():
    """a -> b -> c and a -> d -> c: input a, output c."""
    return nx.DiGraph([("a", "b"), ("a", "d"), ("b", "c"), ("d", "c")])


class TestStreamOrderChecks:
    def test_legal_orders_stream(self):
        for order in (["b", "d", "c"], ["d", "b", "c"]):
            assert_streams_equal(
                stream_from_graph(two_path_diamond(), order),
                oracle_stream_from_graph(two_path_diamond(), order),
            )

    def test_input_in_order_rejected(self):
        with pytest.raises(PebblingError, match="input 'a'"):
            stream_from_graph(two_path_diamond(), ["a", "b", "d"])

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(PebblingError, match="'d' more than once"):
            stream_from_graph(two_path_diamond(), ["b", "d", "d"])

    def test_missing_computed_vertex_rejected(self):
        with pytest.raises(PebblingError, match="never computes 'c'"):
            stream_from_graph(two_path_diamond(), ["b", "d"])

    def test_non_topological_order_rejected(self):
        with pytest.raises(
            PebblingError, match="'c' is computed before its parent 'd'"
        ):
            stream_from_graph(two_path_diamond(), ["b", "c", "d"])

    def test_unknown_vertex_rejected(self):
        with pytest.raises(PebblingError, match="'x'"):
            stream_from_graph(two_path_diamond(), ["b", "d", "x"])

    def test_id_orders_get_the_same_checks(self):
        graph = two_path_diamond()
        index = graph_index(graph)
        ids = {v: i for i, v in enumerate(index.nodes)}

        def as_ids(labels):
            return np.array([ids.get(v, 7) for v in labels], dtype=np.int64)

        assert_streams_equal(
            stream_from_graph(index, as_ids(["d", "b", "c"])),
            stream_from_graph(graph, ["d", "b", "c"]),
        )
        for labels, message in (
            (["a", "b", "d"], "input 'a'"),
            (["b", "d", "d"], "'d' more than once"),
            (["b", "d"], "never computes 'c'"),
            (["b", "c", "d"], "'c' is computed before its parent 'd'"),
            (["b", "d", "x"], "id 7, which is not a vertex"),
        ):
            with pytest.raises(PebblingError, match=message):
                stream_from_graph(index, as_ids(labels))


# ---------------------------------------------------------------------------
# corpus subset at the tightness audit's parameters
# ---------------------------------------------------------------------------

CORPUS = ["gemm", "atax", "jacobi2d", "cholesky", "lenet5"]


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_orders_streams_and_facts_match_oracles(name):
    from repro.analysis import analyze_kernel
    from repro.cdag.build import build_cdag
    from repro.schedule.derive import derive_schedule
    from repro.schedule.tightness import DEFAULT_S_VALUES, audit_params
    from repro.kernels import get_kernel

    program = get_kernel(name).build()
    params = audit_params(name, program)
    cdag = build_cdag(program, params)
    graph = cdag.graph
    assert default_order(graph) == oracle_default_order(graph)
    assert_streams_equal(stream_from_graph(graph), oracle_stream_from_graph(graph))
    assert io_floor(graph) == oracle_io_floor(graph)

    bound = analyze_kernel(name).program_bound
    max_in = max(d for _, d in graph.in_degree())
    statement_pos = {}
    for st_name, _ in cdag.points.values():
        statement_pos.setdefault(st_name, len(statement_pos))
    for s in DEFAULT_S_VALUES:
        schedule = derive_schedule(program, bound, params, max(s, max_in + 2))
        ids = blocked_order(cdag, schedule)
        order = cdag.index.labels(ids)
        if schedule.tiled:
            expected = oracle_tiled_order(
                graph, cdag.point_of, schedule.tile_sizes,
                schedule.variable_order,
                statement_rank=lambda v: statement_pos.get(cdag.statement_of(v), 0),
            )
        else:
            expected = oracle_default_order(graph)
        assert order == expected
        assert_streams_equal(
            stream_from_graph(cdag.index, ids),
            oracle_stream_from_graph(graph, order),
        )


# ---------------------------------------------------------------------------
# observability
# ---------------------------------------------------------------------------


def test_blocked_order_span_and_repair_counter():
    from repro.analysis import analyze_kernel
    from repro.cdag.build import build_cdag
    from repro.kernels import get_kernel
    from repro.schedule.derive import derive_schedule

    program = get_kernel("gemm").build()
    params = {"N": 6}
    cdag = build_cdag(program, params)
    schedule = derive_schedule(
        program, analyze_kernel("gemm").program_bound, params, 18
    )
    assert schedule.tiled
    registry = MetricsRegistry()
    with Tracer(keep_spans=True, registry=registry) as tracer:
        order = blocked_order(cdag, schedule)
    (record,) = [r for r in tracer.spans if r["name"] == "schedule.order"]
    assert record["attrs"]["vertices"] == len(order)
    assert record["attrs"]["tiled"] is True
    repaired = record["attrs"]["repaired"]
    assert registry.counter_value(
        "schedule_order_repairs_total", repaired=str(repaired).lower()
    ) == 1
    assert registry.counter_total("schedule_order_repairs_total") == 1
