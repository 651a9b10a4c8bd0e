"""The per-point CDAG builder, kept as the test oracle of ``build_cdag``.

This is the builder ``repro.cdag.build`` used before the array build,
unchanged below this docstring: a Python loop over every iteration point
that resolves each read against a ``latest`` dict and adds vertices and
edges to a ``networkx.DiGraph`` one at a time.  ``tests/test_cdag_build.py``
compares the array build against it, field by field and order by order.

Its original docstring follows.

Materialize a concrete CDAG from an IR program.

Vertices are data versions: every statement execution produces a fresh
vertex for the element it writes; reads connect to the *latest* version of
the element at that point of the execution, or to an input vertex when the
element was never written.

Execution semantics: loop variables sharing a *name* across statements
denote a common (outer) loop -- e.g. the ``t`` loop enclosing both sweeps of
a ping-pong stencil -- so execution iterates shared variables outermost and,
for each combination, runs the statements in program order over their
private variables (lexicographically, in declared order).  This matches the
loop structure of every kernel in the suite and of the paper's examples.

Statement ``guard`` expressions restrict non-rectangular nests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Mapping

import networkx as nx
import sympy as sp

from repro.ir.program import Program
from repro.ir.statement import Statement
from repro.util import unique_in_order
from repro.util.errors import SoapError

#: Vertex naming: inputs are ("in", array, element); computed vertices are
#: ("v", array, element, version_counter).
Vertex = tuple


@dataclass
class ConcreteCDAG:
    """A materialized CDAG plus bookkeeping for validation."""

    graph: nx.DiGraph
    inputs: tuple[Vertex, ...]
    outputs: tuple[Vertex, ...]
    #: vertices grouped by array name (computed vertices only)
    by_array: dict[str, tuple[Vertex, ...]]
    #: computed vertex -> (statement name, iteration point); empty when the
    #: CDAG was built with ``record_points=False``
    points: dict[Vertex, tuple[str, dict[str, int]]] = field(default_factory=dict)

    @property
    def n_vertices(self) -> int:
        return self.graph.number_of_nodes()

    def vertices_of(self, array: str) -> tuple[Vertex, ...]:
        return self.by_array.get(array, ())

    def point_of(self, vertex: Vertex) -> dict[str, int] | None:
        """Iteration point of a computed vertex (``None`` for inputs).

        This is the generic point mapping for blocked-schedule construction
        (:func:`repro.pebbling.greedy.tiled_order` and
        :mod:`repro.schedule`): no per-kernel hand-coding needed.
        """
        entry = self.points.get(vertex)
        return entry[1] if entry is not None else None

    @cached_property
    def statement_positions(self) -> dict[str, int]:
        """Statement name -> program position (first appearance in
        :attr:`points`); computed once per CDAG."""
        positions: dict[str, int] = {}
        for name, _ in self.points.values():
            if name not in positions:
                positions[name] = len(positions)
        return positions

    def statement_of(self, vertex: Vertex) -> str | None:
        """Name of the statement that computed ``vertex`` (``None`` for inputs)."""
        entry = self.points.get(vertex)
        return entry[0] if entry is not None else None


def extent_values(statement: Statement, params: Mapping[str, int]) -> dict[str, int]:
    """Concrete loop extents of one statement under ``params``.

    The single place extents are evaluated: the CDAG builder, the schedule
    deriver, and the IR-direct stream generator all agree on loop bounds by
    construction.  Raises :class:`SoapError` when an extent does not resolve
    to a non-negative integer.
    """
    values: dict[str, int] = {}
    for var, extent in statement.domain.extents:
        concrete = sp.sympify(extent).subs(
            {sp.Symbol(k, positive=True): v for k, v in params.items()}
        )
        if not concrete.is_Integer or int(concrete) < 0:
            raise SoapError(
                f"extent of {var!r} does not evaluate to a non-negative "
                f"integer under {dict(params)}: {concrete}"
            )
        values[var] = int(concrete)
    return values


def _iteration_points(
    statement: Statement,
    fixed: Mapping[str, int],
    extents: Mapping[str, int],
    params: Mapping[str, int],
) -> Iterator[dict[str, int]]:
    free = [v for v in statement.iteration_vars if v not in fixed]
    ranges = [range(extents[v]) for v in free]
    guard = compile(statement.guard, "<guard>", "eval") if statement.guard else None
    for combo in itertools.product(*ranges):
        point = dict(fixed)
        point.update(zip(free, combo))
        if guard is not None:
            scope = dict(params)
            scope.update(point)
            if not eval(guard, {}, scope):  # noqa: S307 - trusted IR guards
                continue
        yield point


def build_cdag(
    program: Program,
    params: Mapping[str, int],
    *,
    record_points: bool = True,
) -> ConcreteCDAG:
    """Materialize ``program`` for concrete ``params`` (e.g. ``{"N": 4}``).

    ``record_points`` keeps the (statement, iteration point) of every computed
    vertex on the result, enabling generic blocked-schedule derivation; pass
    ``False`` to save memory when only the graph structure is needed.
    """
    graph = nx.DiGraph()
    latest: dict[tuple[str, tuple[int, ...]], Vertex] = {}
    version_counter: dict[tuple[str, tuple[int, ...]], int] = {}
    by_array: dict[str, list[Vertex]] = {}
    input_vertices: dict[Vertex, None] = {}
    points: dict[Vertex, tuple[str, dict[str, int]]] = {}

    computed_arrays = set(program.computed_arrays())
    extents_per_stmt = {
        st.name: extent_values(st, params) for st in program.statements
    }

    # Shared loop variables (same name in several statements) iterate
    # outermost, in first-appearance order.
    counts: dict[str, int] = {}
    for st in program.statements:
        for var in st.iteration_vars:
            counts[var] = counts.get(var, 0) + 1
    shared = unique_in_order(
        v
        for st in program.statements
        for v in st.iteration_vars
        if counts[v] > 1
    )
    shared_extents: dict[str, int] = {}
    for var in shared:
        for st in program.statements:
            if st.domain.has_variable(var):
                shared_extents[var] = extents_per_stmt[st.name][var]
                break

    def run_statement(st: Statement, fixed: Mapping[str, int]) -> None:
        for point in _iteration_points(st, fixed, extents_per_stmt[st.name], params):
            parents: list[Vertex] = []
            for access in st.inputs:
                for comp in access.components:
                    element = tuple(idx.evaluate(point) for idx in comp)
                    key = (access.array, element)
                    if key in latest:
                        parents.append(latest[key])
                    elif access.array in computed_arrays:
                        continue  # read before first write: initial value
                    else:
                        vertex = ("in", access.array, element)
                        input_vertices.setdefault(vertex)
                        graph.add_node(vertex)
                        parents.append(vertex)
            element = tuple(
                idx.evaluate(point) for idx in st.output.components[0]
            )
            key = (st.output.array, element)
            version = version_counter.get(key, 0)
            version_counter[key] = version + 1
            vertex = ("v", st.output.array, element, version)
            graph.add_node(vertex)
            for parent in unique_in_order(parents):
                graph.add_edge(parent, vertex)
            latest[key] = vertex
            by_array.setdefault(st.output.array, []).append(vertex)
            if record_points:
                points[vertex] = (st.name, dict(point))

    def run_shared(index: int, fixed: dict[str, int]) -> None:
        if index == len(shared):
            for st in program.statements:
                relevant = {
                    v: val for v, val in fixed.items() if st.domain.has_variable(v)
                }
                run_statement(st, relevant)
            return
        var = shared[index]
        for value in range(shared_extents[var]):
            fixed[var] = value
            run_shared(index + 1, fixed)
        del fixed[var]

    run_shared(0, {})

    outputs = tuple(v for v in graph.nodes if graph.out_degree(v) == 0)
    return ConcreteCDAG(
        graph=graph,
        inputs=tuple(input_vertices),
        outputs=outputs,
        by_array={a: tuple(vs) for a, vs in by_array.items()},
        points=points,
    )
