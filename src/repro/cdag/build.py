"""Materialize a concrete CDAG from an IR program, in three array passes.

Vertices are data versions: every statement execution produces a fresh
vertex for the element it writes; reads connect to the *latest* version of
the element at that point of the execution, or to an input vertex when the
element belongs to an array no statement writes.  A read of a computed
array before that element's first write connects to nothing.

Execution semantics: loop variables sharing a *name* across statements
denote a common (outer) loop -- e.g. the ``t`` loop enclosing both sweeps of
a ping-pong stencil -- so execution iterates shared variables outermost and,
for each combination, runs the statements in program order over their
private variables (lexicographically, in declared order).  A statement
runs in full for every value of a shared variable outside its own domain.
Statement ``guard`` expressions restrict non-rectangular nests.

The build never walks a graph:

1. *trace* -- each statement's executions are int64 columns, one per
   loop variable, and one stable sort by (shared-loop combination,
   statement position) stamps every execution with a global time;
2. *def-use* -- the affine indices are evaluated over the columns, every
   element gets an integer key (its coordinates linearised per array), and
   one stable sort by (key, time, read before write) yields the last
   writer of every read, the version of every write and the first read of
   every input element;
3. *index* -- vertices are numbered in creation order (an input just
   before the first execution reading it) and the edges go straight into
   a :class:`~repro.cdag.index.GraphIndex`.

:attr:`ConcreteCDAG.graph`, the ``networkx.DiGraph``, is built only when a
caller first reads it; its node, predecessor and successor order are the
index's, and ``graph_index(cdag.graph)`` is ``cdag.index``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

import networkx as nx
import numpy as np
import sympy as sp

from repro.cdag.index import GraphIndex, graph_of_index, index_from_csr
from repro.ir.access import AccessComponent
from repro.ir.program import Program
from repro.ir.statement import Statement
from repro.obs import span as obs_span
from repro.util import unique_in_order
from repro.util.errors import SoapError

#: Vertex naming: inputs are ("in", array, element); computed vertices are
#: ("v", array, element, version_counter).
Vertex = tuple

#: element keys stay below this (int64 headroom)
_KEY_LIMIT = 1 << 62


@dataclass(eq=False)
class ConcreteCDAG:
    """A materialized CDAG: its integer index plus the iteration point of
    every computed vertex."""

    index: GraphIndex
    inputs: tuple[Vertex, ...]
    outputs: tuple[Vertex, ...]
    #: vertices grouped by array name (computed vertices only)
    by_array: dict[str, tuple[Vertex, ...]]
    #: statement names, in program order
    statements: tuple[str, ...]
    #: position in :attr:`statements` of each vertex's statement (-1: input)
    statement_ids: np.ndarray
    #: loop variables of each statement, in the key order of its points
    point_vars: tuple[tuple[str, ...], ...]
    #: loop variable -> its value at each vertex (0 where absent)
    coords: dict[str, np.ndarray]

    @property
    def n_vertices(self) -> int:
        return self.index.n

    @cached_property
    def graph(self) -> nx.DiGraph:
        """The ``networkx.DiGraph``, built on first access."""
        return graph_of_index(self.index)

    @cached_property
    def points(self) -> dict[Vertex, tuple[str, dict[str, int]]]:
        """Computed vertex -> (statement name, iteration point), in
        creation order; derived from the arrays on first access."""
        nodes = self.index.nodes
        values = {var: column.tolist() for var, column in self.coords.items()}
        out: dict[Vertex, tuple[str, dict[str, int]]] = {}
        stmt_of = self.statement_ids.tolist()
        for i in np.nonzero(self.statement_ids >= 0)[0].tolist():
            s = stmt_of[i]
            out[nodes[i]] = (
                self.statements[s],
                {var: values[var][i] for var in self.point_vars[s]},
            )
        return out

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
        """Statement name -> program position (first appearance among the
        computed vertices); computed once per CDAG."""
        computed = self.statement_ids[self.statement_ids >= 0]
        ids, first = np.unique(computed, return_index=True)
        positions: dict[str, int] = {}
        for s in ids[np.argsort(first)].tolist():
            name = self.statements[s]
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


def build_cdag(program: Program, params: Mapping[str, int]) -> ConcreteCDAG:
    """Materialize ``program`` for concrete ``params`` (e.g. ``{"N": 4}``)."""
    with obs_span("cdag.build", program=program.name) as build_span:
        cdag = _build(program, params)
        build_span.note(vertices=cdag.n_vertices, edges=cdag.index.n_edges)
    return cdag


@dataclass
class _Executions:
    """One statement's executions: a column per loop variable (in the key
    order of its points) and the global time of each execution."""

    columns: dict[str, np.ndarray]
    times: np.ndarray


def _trace(program: Program, params: Mapping[str, int]) -> list[_Executions]:
    """Pass 1: every statement's executions, stamped with a global time."""
    statements = program.statements
    extents = [extent_values(st, params) for st in statements]
    # Shared loop variables (same name in several statements) iterate
    # outermost, in first-appearance order, with the extent of the first
    # statement that has them.
    counts: dict[str, int] = {}
    for st in statements:
        for var in st.iteration_vars:
            counts[var] = counts.get(var, 0) + 1
    shared = unique_in_order(
        v for st in statements for v in st.iteration_vars if counts[v] > 1
    )
    shared_extents = [
        next(ext[var] for st, ext in zip(statements, extents)
             if st.domain.has_variable(var))
        for var in shared
    ]
    n_combos = math.prod(shared_extents)

    columns_of, combos = [], []
    for st, ext in zip(statements, extents):
        fixed = [v for v in shared if st.domain.has_variable(v)]
        free = [v for v in st.iteration_vars if v not in fixed]
        free_extents = [ext[v] for v in free]
        n_free = math.prod(free_extents)
        # rows in (combination, free-variable) lexicographic order; a
        # statement repeats for every value of a shared variable it lacks
        combo, free_row = np.divmod(
            np.arange(n_combos * n_free, dtype=np.int64), max(n_free, 1)
        )
        columns = {
            var: _digit(combo, shared_extents, shared.index(var))
            for var in fixed
        }
        for k, var in enumerate(free):
            columns[var] = _digit(free_row, free_extents, k)
        if st.guard:
            keep = _guard_mask(st.guard, columns, params)
            columns = {var: column[keep] for var, column in columns.items()}
            combo = combo[keep]
        columns_of.append(columns)
        combos.append(combo)
    # a stable sort by (combination, statement position) interleaves the
    # statements and keeps each one's rows in order
    keys = _concat([c * len(statements) + p for p, c in enumerate(combos)])
    times = np.empty(len(keys), dtype=np.int64)
    times[np.argsort(keys, kind="stable")] = np.arange(len(keys), dtype=np.int64)
    bounds = np.cumsum([0] + [len(c) for c in combos])
    return [
        _Executions(columns=columns, times=times[lo:hi])
        for columns, lo, hi in zip(columns_of, bounds[:-1], bounds[1:])
    ]


def _digit(row: np.ndarray, extents: list[int], k: int) -> np.ndarray:
    """Digit ``k`` of ``row`` in the mixed radix ``extents`` (first digit
    most significant: lexicographic order)."""
    return (row // math.prod(extents[k + 1:])) % extents[k]


def _guard_mask(
    guard: str, columns: dict[str, np.ndarray], params: Mapping[str, int]
) -> np.ndarray:
    """Per-point ``eval`` of a statement guard over its columns."""
    code = compile(guard, "<guard>", "eval")
    names = list(columns)
    mask = []
    for values in zip(*(columns[v].tolist() for v in names)):
        scope = dict(params)
        scope.update(zip(names, values))
        mask.append(bool(eval(code, {}, scope)))  # noqa: S307 - trusted IR guards
    return np.asarray(mask, dtype=bool)


def _evaluate(component: AccessComponent, columns: dict[str, np.ndarray], n: int):
    """The element coordinates ``component`` addresses at each execution."""
    coords = []
    for index in component:
        value = np.full(n, index.offset, dtype=np.int64)
        for var, coeff in index.coeffs:
            value += coeff * columns[var]
        coords.append(value)
    return coords


def _element_keys(coords: list[np.ndarray], n: int) -> np.ndarray:
    """One integer per distinct coordinate tuple: the coordinates
    linearised over their bounding box.  A box too large for int64 is
    ranked down to the coordinates that occur (``np.unique``)."""
    key = np.zeros(n, dtype=np.int64)
    if n == 0:
        return key
    span = 1
    for column in coords:
        low = int(column.min())
        width = int(column.max()) - low + 1
        column = column - low
        if span * width > _KEY_LIMIT:
            _, key = np.unique(key, return_inverse=True)
            _, column = np.unique(column, return_inverse=True)
            span, width = int(key.max()) + 1, int(column.max()) + 1
        key = key * width + column
        span *= width
    return key


@dataclass
class _Accesses:
    """Every access to one array at one rank (elements of other ranks
    never coincide with these), concatenated over statements."""

    array: str
    times: list = field(default_factory=list)
    #: read slot within the executing statement; -1 marks the write
    slots: list = field(default_factory=list)
    coords: list = field(default_factory=list)

    def add(self, times: np.ndarray, slot: int, coords: list[np.ndarray]) -> None:
        self.times.append(times)
        self.slots.append(np.full(len(times), slot, dtype=np.int64))
        self.coords.append(coords)


@dataclass
class _DefUse:
    """Pass 2's result, in execution times and input serial numbers."""

    #: resolved reads: executing time, read slot, and the parent -- a
    #: writer's time when >= 0, input serial ``~parent`` when < 0
    edge_child: list = field(default_factory=list)
    edge_slot: list = field(default_factory=list)
    edge_parent: list = field(default_factory=list)
    #: computed vertices: (array, times, element coords, versions)
    writes: list = field(default_factory=list)
    #: input vertices: (array, serials, first-read times and slots, coords)
    inputs: list = field(default_factory=list)
    n_inputs: int = 0


def _def_use(program: Program, traces: list[_Executions]) -> _DefUse:
    """Pass 2: resolve every read to its parent vertex."""
    groups: dict[tuple[str, int], _Accesses] = {}
    for st, trace in zip(program.statements, traces):
        reads = [(a.array, c) for a in st.inputs for c in a.components]
        slotted = [(-1, (st.output.array, st.output.components[0]))]
        for slot, (array, component) in slotted + list(enumerate(reads)):
            group = groups.setdefault((array, len(component)), _Accesses(array))
            coords = _evaluate(component, trace.columns, len(trace.times))
            group.add(trace.times, slot, coords)

    computed_arrays = set(program.computed_arrays())
    out = _DefUse()
    for group in groups.values():
        times = _concat(group.times)
        slots = _concat(group.slots)
        coords = [np.concatenate(dim) for dim in zip(*group.coords)]
        keys = _element_keys(coords, len(times))
        is_write = slots < 0
        if group.array in computed_arrays:
            _resolve_computed(out, group.array, times, slots, coords, keys, is_write)
        else:
            _resolve_inputs(out, group.array, times, slots, coords, keys)
    return out


def _resolve_computed(out, array, times, slots, coords, keys, is_write) -> None:
    """Reads of a written array: the last write before them, if any."""
    # one stable sort by (key, time, read before write)
    order = np.lexsort((is_write, times, keys))
    sorted_write = is_write[order]
    positions = np.arange(len(order), dtype=np.int64)
    fresh = np.ones(len(order), dtype=bool)
    fresh[1:] = keys[order][1:] != keys[order][:-1]
    key_start = np.maximum.accumulate(np.where(fresh, positions, 0))
    last_write = np.maximum.accumulate(np.where(sorted_write, positions, -1))
    writes_before = np.cumsum(sorted_write) - sorted_write
    at_write = np.nonzero(sorted_write)[0]
    versions = writes_before[at_write] - writes_before[key_start[at_write]]
    written = order[at_write]
    out.writes.append((array, times[written], [c[written] for c in coords], versions))
    at_read = np.nonzero(~sorted_write)[0]
    resolved = at_read[last_write[at_read] >= key_start[at_read]]
    readers = order[resolved]
    out.edge_child.append(times[readers])
    out.edge_slot.append(slots[readers])
    out.edge_parent.append(times[order[last_write[resolved]]])


def _resolve_inputs(out, array, times, slots, coords, keys) -> None:
    """Reads of an array nobody writes: one input vertex per element."""
    order = np.lexsort((slots, times, keys))
    fresh = np.ones(len(order), dtype=bool)
    fresh[1:] = keys[order][1:] != keys[order][:-1]
    serial = np.cumsum(fresh) - 1 + out.n_inputs
    first = order[fresh]
    out.inputs.append((
        array, serial[fresh], times[first], slots[first], [c[first] for c in coords],
    ))
    out.edge_child.append(times[order])
    out.edge_slot.append(slots[order])
    out.edge_parent.append(~serial)
    out.n_inputs += int(fresh.sum())


def _build(program: Program, params: Mapping[str, int]) -> ConcreteCDAG:
    traces = _trace(program, params)
    found = _def_use(program, traces)

    # ---- pass 3: index -----------------------------------------------------
    # vertices in creation order: each input just before the first
    # execution reading it (by read slot), then that execution's vertex
    n_exec = sum(len(trace.times) for trace in traces)
    n_inputs = found.n_inputs
    in_serial = _concat([entry[1] for entry in found.inputs])
    in_time = _concat([entry[2] for entry in found.inputs])
    in_slot = _concat([entry[3] for entry in found.inputs])
    by_first_read = np.lexsort((in_slot, in_time))
    input_node = np.empty(n_inputs, dtype=np.int64)
    input_node[in_serial[by_first_read]] = (
        in_time[by_first_read] + np.arange(n_inputs, dtype=np.int64)
    )
    exec_node = np.arange(n_exec, dtype=np.int64) + np.searchsorted(
        np.sort(in_time), np.arange(n_exec, dtype=np.int64), side="right"
    )
    n = n_exec + n_inputs

    child = exec_node[_concat(found.edge_child)]
    slot = _concat(found.edge_slot)
    parent_ref = _concat(found.edge_parent)
    computed_parent = parent_ref >= 0
    parent = np.empty_like(parent_ref)
    parent[computed_parent] = exec_node[parent_ref[computed_parent]]
    parent[~computed_parent] = input_node[~parent_ref[~computed_parent]]
    # one edge per (child, parent), kept at its first read; then each
    # child's parents in read order
    order = np.lexsort((slot, parent, child))
    keep = np.ones(len(order), dtype=bool)
    keep[1:] = (child[order][1:] != child[order][:-1]) | (
        parent[order][1:] != parent[order][:-1]
    )
    kept = order[keep]
    kept = kept[np.lexsort((slot[kept], child[kept]))]
    child, parent = child[kept], parent[kept]
    # children are numbered in creation order, so a stable sort by parent
    # lists each parent's children as networkx does
    by_parent = np.argsort(parent, kind="stable")

    nodes: list = [None] * n
    array_ids: dict[str, list[np.ndarray]] = {}
    for array, times, coords, versions in found.writes:
        at = exec_node[times]
        array_ids.setdefault(array, []).append(at)
        labels = zip(_elements(coords, len(at)), versions.tolist())
        for i, (element, version) in zip(at.tolist(), labels):
            nodes[i] = ("v", array, element, version)
    for array, serial, _, _, coords in found.inputs:
        for i, element in zip(input_node[serial].tolist(), _elements(coords, len(serial))):
            nodes[i] = ("in", array, element)
    index = index_from_csr(
        nodes, _ptr(child, n), parent, _ptr(parent[by_parent], n), child[by_parent]
    )

    statement_ids = np.full(n, -1, dtype=np.int64)
    coords: dict[str, np.ndarray] = {}
    for s, trace in enumerate(traces):
        at = exec_node[trace.times]
        statement_ids[at] = s
        for var, column in trace.columns.items():
            coords.setdefault(var, np.zeros(n, dtype=np.int64))[at] = column
    # arrays in order of their first computed vertex
    sorted_ids = [
        (array, ids) for array, ids in (
            (array, np.sort(np.concatenate(parts)))
            for array, parts in array_ids.items()
        ) if len(ids)
    ]
    sorted_ids.sort(key=lambda item: item[1][0])
    return ConcreteCDAG(
        index=index,
        inputs=tuple(index.labels(np.sort(input_node))),
        outputs=tuple(index.labels(np.nonzero(index.out_deg == 0)[0])),
        by_array={array: tuple(index.labels(ids)) for array, ids in sorted_ids},
        statements=tuple(st.name for st in program.statements),
        statement_ids=statement_ids,
        point_vars=tuple(tuple(trace.columns) for trace in traces),
        coords=coords,
    )


def _concat(parts) -> np.ndarray:
    return np.concatenate(parts) if len(parts) else np.zeros(0, dtype=np.int64)


def _ptr(owners: np.ndarray, n: int) -> np.ndarray:
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(owners, minlength=n), out=ptr[1:])
    return ptr


def _elements(coords: list[np.ndarray], n: int) -> list[tuple]:
    """Coordinate columns -> element tuples of Python ints."""
    if not coords:
        return [()] * n
    return list(zip(*(column.tolist() for column in coords)))
