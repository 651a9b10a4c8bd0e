"""The array CDAG build against the per-point builder it replaced.

``tests/cdag_oracle.py`` keeps the per-point builder unchanged.  Every
field of the array build must equal the oracle's, in the same order:
vertex labels, predecessor and successor lists, ``topo``, inputs,
outputs, ``by_array``, the iteration points and statement positions, and
the node and edge order of the lazily built ``networkx`` graph.  They are
compared on every corpus kernel at the tightness audit's parameters and
on hypothesis programs with guards, negative offsets, multi-variable,
strided and constant indices, self-reads and statements replicated over
shared loops they lack.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cdag.build import build_cdag
from repro.cdag.index import graph_index
from repro.ir.access import AffineIndex, ArrayAccess
from repro.ir.domain import IterationDomain
from repro.ir.program import Program
from repro.ir.statement import Statement
from repro.kernels import get_kernel, kernel_names
from repro.obs import Tracer
from tests.cdag_oracle import build_cdag as oracle_build_cdag

INDEX_ARRAYS = (
    "pred_ptr", "pred_idx", "succ_ptr", "succ_idx", "in_deg", "out_deg", "topo",
)


def assert_same_cdag(cdag, oracle):
    expected = graph_index(oracle.graph)  # walks the oracle's networkx graph
    assert cdag.index.nodes == expected.nodes
    for name in INDEX_ARRAYS:
        assert np.array_equal(getattr(cdag.index, name), getattr(expected, name)), name
    assert cdag.inputs == oracle.inputs
    assert cdag.outputs == oracle.outputs
    assert list(cdag.by_array.items()) == list(oracle.by_array.items())
    assert list(cdag.points) == list(oracle.points)
    for vertex, (statement, point) in oracle.points.items():
        got_statement, got_point = cdag.points[vertex]
        assert got_statement == statement
        assert list(got_point.items()) == list(point.items())
    assert cdag.statement_positions == oracle.statement_positions
    assert cdag.n_vertices == oracle.n_vertices

    assert "graph" not in vars(cdag)  # nothing above built the graph
    graph = cdag.graph
    assert graph_index(graph) is cdag.index
    assert list(graph.nodes) == list(oracle.graph.nodes)
    assert list(graph.edges) == list(oracle.graph.edges)
    for vertex in oracle.graph:
        assert list(graph.predecessors(vertex)) == list(oracle.graph.predecessors(vertex))


def audit_instance(name):
    from repro.schedule.tightness import audit_params

    program = get_kernel(name).build()
    return program, audit_params(name, program)


@pytest.mark.parametrize("name", kernel_names())
def test_corpus_kernel_matches_oracle(name):
    program, params = audit_instance(name)
    assert_same_cdag(build_cdag(program, params), oracle_build_cdag(program, params))


# ---------------------------------------------------------------------------
# hypothesis programs
# ---------------------------------------------------------------------------

VARIABLES = ("t", "i", "j", "k")
ARRAYS = {"A": 1, "B": 2, "C": 2, "D": 0, "E": 1}  # name -> rank


@st.composite
def affine_indices(draw, variables):
    if draw(st.integers(0, 4)) == 0:
        return AffineIndex.const(draw(st.integers(-2, 3)))
    chosen = draw(st.lists(st.sampled_from(variables), min_size=1, max_size=2, unique=True))
    coeffs = {v: draw(st.sampled_from((1, 1, 2, -1))) for v in chosen}
    return AffineIndex.make(coeffs, draw(st.integers(-2, 2)))


@st.composite
def accesses(draw, array, variables, max_components=2):
    rank = ARRAYS[array]
    components = draw(st.lists(
        st.tuples(*(affine_indices(variables) for _ in range(rank))),
        min_size=1, max_size=max_components, unique=True,
    ))
    return ArrayAccess(array, tuple(components))


@st.composite
def statements(draw, position):
    variables = draw(st.lists(st.sampled_from(VARIABLES), min_size=1, max_size=3, unique=True))
    extents = {v: draw(st.sampled_from((1, 2, 3, "N"))) for v in variables}
    output = draw(accesses(draw(st.sampled_from(sorted(ARRAYS))), variables, 1))
    read_arrays = draw(st.lists(st.sampled_from(sorted(ARRAYS)), max_size=3, unique=True))
    if draw(st.booleans()) and output.array not in read_arrays:
        read_arrays.append(output.array)  # a self-read
    inputs = []
    for array in read_arrays:
        access = draw(accesses(array, variables))
        if array == output.array and draw(st.booleans()):
            access = access.merged_with(output)  # read the element it writes
        inputs.append(access)
    guard = None
    if len(variables) >= 2 and draw(st.booleans()):
        a, b = variables[:2]
        guard = draw(st.sampled_from((f"{a} <= {b}", f"{a} + {b} < N", f"{a} != {b}")))
    return Statement(
        name=f"s{position}",
        domain=IterationDomain.make(extents),
        output=output,
        inputs=tuple(inputs),
        guard=guard,
    )


@st.composite
def programs(draw):
    count = draw(st.integers(1, 3))
    return Program.make("random", [draw(statements(p)) for p in range(count)])


@given(programs(), st.integers(1, 3))
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_random_programs_match_oracle(program, n):
    params = {"N": n}
    assert_same_cdag(build_cdag(program, params), oracle_build_cdag(program, params))


def test_statement_replicated_over_a_shared_loop_it_lacks():
    """``s1`` lacks the ``t`` loop ``s0`` and ``s2`` share: it runs in full
    at every ``t`` (today's semantics; the oracle agrees)."""
    a = AffineIndex.var
    s0 = Statement("s0", IterationDomain.make({"t": 2, "i": 3}),
                   ArrayAccess("A", ((a("i"),),)), (ArrayAccess("A", ((a("i", -1),),)),))
    s1 = Statement("s1", IterationDomain.make({"j": 2}),
                   ArrayAccess("B", ((a("j"),),)), (ArrayAccess("A", ((a("j"),),)),))
    s2 = Statement("s2", IterationDomain.make({"t": 2, "k": 2}),
                   ArrayAccess("C", ((a("k"),),)), (ArrayAccess("B", ((a("k"),),)),))
    program = Program.make("replicated", [s0, s1, s2])
    cdag = build_cdag(program, {})
    assert len(cdag.vertices_of("B")) == 4  # 2 points, once per t
    assert_same_cdag(cdag, oracle_build_cdag(program, {}))


def test_zero_trip_shared_loop_builds_an_empty_cdag():
    """A shared loop of extent 0 runs no statement (the per-point builder
    raised ``KeyError`` here, so there is no oracle to compare with)."""
    a = AffineIndex.var
    s0 = Statement("s0", IterationDomain.make({"t": "N", "i": 2}),
                   ArrayAccess("A", ((a("i"),),)), (ArrayAccess("X", ((a("i"),),)),))
    s1 = Statement("s1", IterationDomain.make({"t": 1, "j": 2}),
                   ArrayAccess("B", ((a("j"),),)), (ArrayAccess("A", ((a("j"),),)),))
    cdag = build_cdag(Program.make("empty", [s0, s1]), {"N": 0})
    assert cdag.n_vertices == 0
    assert cdag.inputs == cdag.outputs == ()
    assert cdag.by_array == {} and cdag.points == {}
    assert cdag.graph.number_of_nodes() == 0


def test_indices_too_sparse_for_a_bounding_box_key():
    """Coordinates ~2^40 apart in three dimensions overflow a linearised
    bounding box; the keys are then ranked down, with the same CDAG."""
    big = 1 << 40
    stride = AffineIndex.make({"i": big}, -big)
    element = (stride, AffineIndex.make({"j": big}), AffineIndex.make({"i": -big}))
    write = Statement("w", IterationDomain.make({"i": 3, "j": 2}),
                      ArrayAccess("A", (element,)), (ArrayAccess("X", (element,)),))
    read = Statement("r", IterationDomain.make({"i": 3, "j": 2}),
                     ArrayAccess("B", ((AffineIndex.var("i"),),)),
                     (ArrayAccess("A", (element,)),))
    program = Program.make("sparse", [write, read])
    cdag = build_cdag(program, {})
    assert len(cdag.inputs) == 6
    assert_same_cdag(cdag, oracle_build_cdag(program, {}))


# ---------------------------------------------------------------------------
# the audit path stays array-only; the build is traced
# ---------------------------------------------------------------------------


def test_audit_and_bounds_leave_the_graph_unbuilt():
    from repro.bounds import kernel_bounds
    from repro.cdag.cache import cached_cdag, clear_cdag_cache
    from repro.schedule.tightness import audit_corpus

    clear_cdag_cache()
    program, params = audit_instance("cholesky")
    report = audit_corpus(["cholesky"], s_values=(8, 18))
    assert all(row.ok for row in report.rows)
    bounds = kernel_bounds("cholesky", s_values=(8, 18))
    assert bounds.points
    cdag = cached_cdag("cholesky", params, program=program)
    assert "graph" not in vars(cdag)


def test_build_span_carries_the_size():
    program, params = audit_instance("gemm")
    with Tracer(keep_spans=True) as tracer:
        cdag = build_cdag(program, params)
    (record,) = [r for r in tracer.spans if r["name"] == "cdag.build"]
    assert record["attrs"]["vertices"] == cdag.n_vertices
    assert record["attrs"]["edges"] == cdag.index.n_edges
    assert record["attrs"]["program"] == "gemm"
