"""Valid pebblings from topological schedules (upper bounds on Q).

``greedy_pebbling_cost`` executes vertices in a given topological order with
``S`` red pebbles, Belady eviction (evict the pebble whose next use lies
farthest in the schedule) or LRU eviction, and write-back on eviction of
live values.  The produced move sequence is replayed through
:class:`repro.pebbling.game` for legality, so the returned cost is a
*certified* upper bound on the optimal I/O ``Q``.

Eviction is fully deterministic: every vertex receives a *stream id* (its
first-appearance position in the access stream of the schedule, see
:func:`stream_vertex_ids`) and ties are broken by the largest id.  The
streaming replay simulator (:mod:`repro.schedule.simulator`) implements the
same policy over flat arrays; cross-validation tests assert the two produce
bit-identical costs.

``tiled_order`` turns the analyzer's optimal tile sizes into a blocked
topological order, closing the loop of the paper's pipeline: derived tiling
-> schedule -> measured I/O close to the lower bound.
"""

from __future__ import annotations

import heapq
from typing import Callable, Hashable, Mapping, Sequence

import networkx as nx
import numpy as np

from repro.cdag.index import GraphIndex, graph_index
from repro.pebbling.game import Move, replay
from repro.util.errors import PebblingError

#: sentinel next-use position: "never used again"
NEVER = 1 << 60


def default_order(graph: nx.DiGraph) -> list[Hashable]:
    """The schedule used when none is given: topological, inputs excluded."""
    index = graph_index(graph)
    return index.labels(index.computed_topo())


def stream_vertex_ids(
    graph: nx.DiGraph, order: Sequence[Hashable]
) -> dict[Hashable, int]:
    """Deterministic integer ids: first appearance in the access stream.

    Scanning ``order``, each computed vertex's parents (in predecessor
    order) are numbered on first use, then the vertex itself.  This is the
    greedy pebbler's own, independent numbering;
    :func:`repro.schedule.stream.stream_from_graph` reaches the same ids by
    factorizing the flat access array, so their eviction tie-breaks agree
    exactly.
    """
    ids: dict[Hashable, int] = {}
    for v in order:
        for parent in graph.predecessors(v):
            if parent not in ids:
                ids[parent] = len(ids)
        if v not in ids:
            ids[v] = len(ids)
    return ids


def greedy_pebbling_cost(
    graph: nx.DiGraph,
    s: int,
    order: Sequence[Hashable] | None = None,
    *,
    policy: str = "belady",
    return_moves: bool = False,
):
    """I/O cost of the eviction-``policy`` schedule over ``order``.

    ``order`` defaults to a topological order of the computed vertices.
    ``policy`` is ``"belady"`` (farthest next use) or ``"lru"`` (least
    recently touched); both write back evicted live values.
    """
    if policy not in ("belady", "lru"):
        raise PebblingError(f"unknown eviction policy {policy!r}")
    inputs = {v for v in graph.nodes if graph.in_degree(v) == 0}
    outputs = {v for v in graph.nodes if graph.out_degree(v) == 0}
    if order is None:
        order = default_order(graph)
    else:
        order = list(order)
        position = {v: i for i, v in enumerate(order)}
        for u, v in graph.edges:
            if u in inputs:
                continue
            if position.get(u, -1) > position.get(v, len(order)):
                raise PebblingError("order is not topological")

    vertex_id = stream_vertex_ids(graph, order)

    # Next-use positions for Belady eviction and write-back decisions.
    uses: dict[Hashable, list[int]] = {v: [] for v in graph.nodes}
    for pos, v in enumerate(order):
        for parent in graph.predecessors(v):
            uses[parent].append(pos)
    for v in uses:
        uses[v].reverse()  # pop() yields the earliest remaining use

    moves: list[Move] = []
    red: set[Hashable] = set()
    blue: set[Hashable] = set(inputs)
    stamp: dict[Hashable, int] = {}
    clock = 0

    def next_use(v: Hashable) -> int:
        stack = uses[v]
        return stack[-1] if stack else NEVER

    def touch(v: Hashable) -> None:
        nonlocal clock
        stamp[v] = clock
        clock += 1

    if policy == "belady":
        def victim_key(v: Hashable):
            return (next_use(v), vertex_id[v])
    else:  # lru: evict the *least* recently touched -> maximize -stamp
        def victim_key(v: Hashable):
            return (-stamp[v], vertex_id[v])

    def make_room(protect: set[Hashable]) -> None:
        while len(red) >= s:
            candidates = [v for v in red if v not in protect]
            if not candidates:
                raise PebblingError(f"S={s} too small for the working set")
            victim = max(candidates, key=victim_key)
            if next_use(victim) < NEVER and victim not in blue:
                moves.append(Move("store", victim))
                blue.add(victim)
            moves.append(Move("discard_red", victim))
            red.remove(victim)

    for pos, v in enumerate(order):
        parents = list(graph.predecessors(v))
        protect = set(parents)
        for parent in parents:
            if parent not in red:
                if parent not in blue:
                    raise PebblingError(
                        f"value {parent!r} needed but neither red nor blue "
                        "(order recomputes a discarded value?)"
                    )
                make_room(protect)
                moves.append(Move("load", parent))
                red.add(parent)
                touch(parent)
            else:
                touch(parent)
        make_room(protect | {v})
        moves.append(Move("compute", v))
        red.add(v)
        touch(v)
        # Consume the use positions of the parents.
        for parent in parents:
            stack = uses[parent]
            while stack and stack[-1] <= pos:
                stack.pop()
        if v in outputs:
            moves.append(Move("store", v))
            blue.add(v)

    cost = replay(graph, s, moves)
    if return_moves:
        return cost, moves
    return cost


def tiled_order(
    graph: nx.DiGraph,
    point_of: Callable[[Hashable], Mapping[str, int] | None],
    tile_sizes: Mapping[str, int],
    variable_order: Sequence[str],
    *,
    statement_rank: Callable[[Hashable], int] | None = None,
) -> list[Hashable]:
    """Blocked topological order from tile sizes.

    ``point_of`` maps a vertex to its iteration point (``None`` for inputs);
    use :meth:`repro.cdag.build.ConcreteCDAG.point_of` for the generic
    mapping recorded at CDAG construction.  Computed vertices are ranked by
    (tile coordinates, statement rank, intra-tile coordinates) with one
    ``numpy.lexsort`` (ties keep graph order); when that sequence already
    respects every edge it is the order, otherwise a Kahn pass that always
    takes the ready vertex of lowest rank repairs it into a topological
    order (see :func:`blocked_topological_order`).  ``statement_rank``
    orders statements sharing a tile (program order for multi-statement
    kernels); it defaults to 0.
    """
    return blocked_topological_order(
        graph, point_of, tile_sizes, variable_order,
        statement_rank=statement_rank,
    )[0]


def blocked_topological_order(
    graph: nx.DiGraph,
    point_of: Callable[[Hashable], Mapping[str, int] | None],
    tile_sizes: Mapping[str, int],
    variable_order: Sequence[str],
    *,
    statement_rank: Callable[[Hashable], int] | None = None,
) -> tuple[list[Hashable], bool]:
    """``(order, repaired)``: :func:`tiled_order` plus whether the blocked
    sequence broke an edge and went through the lowest-rank-first Kahn
    repair."""
    index = graph_index(graph)
    nodes = index.nodes
    computed = np.nonzero(index.in_deg > 0)[0]
    vertices = list(map(nodes.__getitem__, computed.tolist()))
    columns = _point_columns(list(map(point_of, vertices)), variable_order)
    ranks = None
    if statement_rank is not None:
        ranks = np.fromiter(
            map(statement_rank, vertices), dtype=np.int64, count=len(vertices)
        )
    order, repaired = blocked_ids(
        index, columns, tile_sizes, variable_order, ranks=ranks
    )
    return index.labels(order), repaired


def blocked_ids(
    index: GraphIndex,
    columns: Mapping[str, np.ndarray],
    tile_sizes: Mapping[str, int],
    variable_order: Sequence[str],
    *,
    ranks: np.ndarray | None = None,
) -> tuple[np.ndarray, bool]:
    """``(order, repaired)`` of :func:`blocked_topological_order` as vertex
    ids.  ``columns`` maps a loop variable to its value at each computed
    (in-degree > 0) vertex, in vertex order, and ``ranks`` gives each
    computed vertex's statement rank; missing columns read 0."""
    computed = np.nonzero(index.in_deg > 0)[0]
    m = len(computed)
    tiles, intra = [], []
    for var in variable_order:
        column = columns.get(var)
        if column is None:
            continue  # an all-zero column never separates two vertices
        tiles.append(column // max(1, tile_sizes.get(var, 1)))
        intra.append(column)
    keys = tiles + ([ranks] if ranks is not None and ranks.any() else []) + intra
    # lexsort's last key is the primary one; it is stable, like sorted()
    preferred = computed[np.lexsort(keys[::-1])] if keys else computed
    rank = np.full(index.n, -1, dtype=np.int64)
    rank[preferred] = np.arange(m, dtype=np.int64)
    src, dst = index.edges()
    internal = index.in_deg[src] > 0  # edges out of inputs never constrain
    src_rank = rank[src[internal]]
    dst_rank = rank[dst[internal]]
    repaired = not bool(np.all(src_rank < dst_rank))
    if repaired:
        preferred = preferred[_kahn_by_rank(m, src_rank, dst_rank)]
    return preferred, repaired


def _point_columns(
    points: Sequence[Mapping[str, int] | None], variables: Sequence[str]
) -> dict[str, np.ndarray]:
    """One int column per variable of ``variables`` over ``points`` (0 where
    a point lacks the variable or is ``None``); all-zero columns are left
    out."""
    columns: dict[str, np.ndarray] = {}
    for var in variables:
        column = np.fromiter(
            ((point or {}).get(var, 0) for point in points),
            dtype=np.int64, count=len(points),
        )
        if column.any():
            columns[var] = column
    return columns


def _kahn_by_rank(
    m: int, src_rank: np.ndarray, dst_rank: np.ndarray
) -> np.ndarray:
    """Topological order of ``0..m-1`` that always takes the lowest ready
    rank (the stable repair of a nearly topological sequence)."""
    by_src = np.argsort(src_rank, kind="stable")
    ptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(src_rank, minlength=m), out=ptr[1:])
    succ = dst_rank[by_src].tolist()
    ptr = ptr.tolist()
    indegree = np.bincount(dst_rank, minlength=m).tolist()
    ready = [r for r in range(m) if indegree[r] == 0]  # sorted: a heap
    out: list[int] = []
    pop, push, emit = heapq.heappop, heapq.heappush, out.append
    while ready:
        r = pop(ready)
        emit(r)
        for child in succ[ptr[r]:ptr[r + 1]]:
            indegree[child] -= 1
            if not indegree[child]:
                push(ready, child)
    if len(out) != m:
        raise PebblingError("cycle detected while building tiled order")
    return np.asarray(out, dtype=np.int64)
