"""Shared structural facts about a concrete CDAG, cached per graph.

Every graph engine needs the same skeleton -- topological order,
predecessor/successor index lists, degrees, the longest-path level of each
computed vertex, and the cold input/output floor.  Computing it once per
graph (not once per engine per S) is what keeps a multi-engine tightness
sweep within the benchmark gate, so the facts live in a
:class:`weakref.WeakKeyDictionary` keyed by the ``networkx.DiGraph``
itself (``ConcreteCDAG`` is an unhashable dataclass; its graph is the
stable identity).  They are derived with array operations from the graph's
integer index (:func:`repro.cdag.index.graph_index`: CSR adjacency,
degrees, topological order and levels), which the schedule builders share,
so no consumer walks the graph vertex by vertex.

The floor is the one bound every engine can always fall back to::

    floor = #{v : in(v)=0, out(v)>0} + #{v : in(v)>0, out(v)=0}

It is sound for the full red-blue game *with recomputation*: inputs have
no parents so they can never be (re)computed, only loaded, and every
child-bearing input is an ancestor of some output, so it is loaded at
least once; every computed sink must end blue, so it is stored at least
once.  It also never exceeds the replay simulator's cost on
``stream_from_graph`` streams, which start blue exactly at in-degree-0
vertices and store exactly at out-degree-0 vertices.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass

import networkx as nx
import numpy as np

from repro.cdag.index import graph_index, segment_gather


@dataclass(frozen=True)
class GraphFacts:
    """S-independent skeleton of one CDAG, shared by all bound engines."""

    n_vertices: int
    #: vertex indices in topological order
    topo: tuple[int, ...]
    #: predecessor / successor indices per vertex
    preds: tuple[tuple[int, ...], ...]
    succs: tuple[tuple[int, ...], ...]
    in_deg: tuple[int, ...]
    out_deg: tuple[int, ...]
    max_in_degree: int
    max_out_degree: int
    #: cold input/output floor (recomputation-safe)
    floor: int
    #: indices of computed vertices (in-degree > 0), topologically ordered
    computed: tuple[int, ...]
    #: longest-path level of each vertex (inputs at 0)
    level: tuple[int, ...]
    #: number of distinct levels holding at least one computed vertex
    n_levels: int


_FACTS: "weakref.WeakKeyDictionary[nx.DiGraph, GraphFacts]" = (
    weakref.WeakKeyDictionary()
)
_LOCK = threading.Lock()


def graph_facts(graph: nx.DiGraph) -> GraphFacts:
    """Structural facts for ``graph``, computed once per graph object."""
    with _LOCK:
        facts = _FACTS.get(graph)
    if facts is not None:
        return facts
    facts = _build_facts(graph)
    with _LOCK:
        _FACTS[graph] = facts
    return facts


def _build_facts(graph: nx.DiGraph) -> GraphFacts:
    index = graph_index(graph)
    index.require_dag()
    n = index.n
    # vertices are renumbered by topological position
    position = np.empty(n, dtype=np.int64)
    position[index.topo] = np.arange(n, dtype=np.int64)
    in_deg = index.in_deg[index.topo]
    out_deg = index.out_deg[index.topo]
    preds = _sorted_lists(position, index.pred_ptr, index.pred_idx, index.topo)
    succs = _sorted_lists(position, index.succ_ptr, index.succ_idx, index.topo)
    floor = int(np.count_nonzero((in_deg == 0) & (out_deg > 0)))
    floor += int(np.count_nonzero((in_deg > 0) & (out_deg == 0)))
    level = index.level[index.topo]
    computed = np.nonzero(in_deg > 0)[0]
    return GraphFacts(
        n_vertices=n,
        topo=tuple(range(n)),
        preds=preds,
        succs=succs,
        in_deg=tuple(in_deg.tolist()),
        out_deg=tuple(out_deg.tolist()),
        max_in_degree=int(in_deg.max(initial=0)),
        max_out_degree=int(out_deg.max(initial=0)),
        floor=floor,
        computed=tuple(computed.tolist()),
        level=tuple(level.tolist()),
        n_levels=len(np.unique(level[computed])),
    )


def _sorted_lists(position, ptr, idx, topo) -> tuple[tuple[int, ...], ...]:
    """Per vertex in topological order, its CSR neighbours' topological
    positions, ascending."""
    flat = position[idx[segment_gather(ptr, topo)]]
    counts = ptr[topo + 1] - ptr[topo]
    owner = np.repeat(np.arange(len(topo), dtype=np.int64), counts)
    flat = flat[np.lexsort((flat, owner))].tolist()
    ends = np.cumsum(counts).tolist()
    slices = map(slice, [0] + ends[:-1], ends)
    return tuple(map(tuple, map(flat.__getitem__, slices)))


def io_floor(graph: nx.DiGraph) -> int:
    """Cold input/output floor of ``graph`` (see module docstring)."""
    return graph_facts(graph).floor
