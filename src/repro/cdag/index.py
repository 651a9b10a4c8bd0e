"""One integer index per CDAG: CSR adjacency, degrees, topological order.

Blocked orders, program order, graph streams and the input/output floor
all need the same skeleton of a DAG as flat numpy arrays.  The CDAG
builder (:mod:`repro.cdag.build`) emits it directly through
:func:`index_from_csr`; for any other ``networkx.DiGraph``,
:func:`graph_index` builds it once per graph object and caches it in a
:class:`weakref.WeakKeyDictionary` keyed by the graph.  Consumers take a
graph or an index alike: ``graph_index(index)`` is ``index``, and the
graph :func:`graph_of_index` materializes is indexed as that index.

Vertex ``i`` is ``nodes[i]``, the ``i``-th vertex of ``graph.nodes``.
Predecessor and successor lists keep networkx adjacency order, so
consumers that number vertices by first appearance (the access streams)
see exactly the order a ``graph.predecessors`` walk gives.  ``topo`` is
exactly ``nx.topological_sort``'s order: networkx emits the DAG generation
by generation, and within a generation a child becomes ready when its last
parent is processed, i.e. in order of its *last* occurrence in the
generation's concatenated successor lists.

No vertex -> int dict is kept: it would cost more memory than the arrays.
Callers that must map vertex labels build one on the fly.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from dataclasses import dataclass

import networkx as nx
import numpy as np


@dataclass(frozen=True, eq=False)
class GraphIndex:
    """Integer skeleton of one DAG (vertex ``i`` is ``nodes[i]``)."""

    nodes: list
    #: predecessors of ``i``: ``pred_idx[pred_ptr[i]:pred_ptr[i + 1]]``
    pred_ptr: np.ndarray
    pred_idx: np.ndarray
    #: successors of ``i``: ``succ_idx[succ_ptr[i]:succ_ptr[i + 1]]``
    succ_ptr: np.ndarray
    succ_idx: np.ndarray
    in_deg: np.ndarray
    out_deg: np.ndarray
    #: ``nx.topological_sort`` order; shorter than ``nodes`` on a cycle
    topo: np.ndarray

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.succ_idx)

    def require_dag(self) -> None:
        """Raise ``NetworkXUnfeasible`` (as ``nx.topological_sort`` does)
        when the graph has a cycle."""
        if len(self.topo) != self.n:
            raise nx.NetworkXUnfeasible(
                "Graph contains a cycle or graph changed during iteration"
            )

    def computed_topo(self) -> np.ndarray:
        """Vertices with at least one parent, in topological order."""
        self.require_dag()
        return self.topo[self.in_deg[self.topo] > 0]

    def labels(self, ids: np.ndarray) -> list:
        """The vertex labels of the ids ``ids``, in order."""
        return list(map(self.nodes.__getitem__, ids.tolist()))

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """``(src, dst)`` of every edge, in successor-list order."""
        src = np.repeat(np.arange(self.n, dtype=np.int64), self.out_deg)
        return src, self.succ_idx


_INDEX: "weakref.WeakKeyDictionary[nx.DiGraph, GraphIndex]" = (
    weakref.WeakKeyDictionary()
)
_LOCK = threading.Lock()


def graph_index(graph: "nx.DiGraph | GraphIndex") -> GraphIndex:
    """The :class:`GraphIndex` of ``graph``, built once per graph object.

    An index passes through unchanged, so consumers accept either.  The
    index is never rebuilt: a graph must not change after it is first
    indexed (CDAGs are built once and then only read).
    """
    if isinstance(graph, GraphIndex):
        return graph
    with _LOCK:
        index = _INDEX.get(graph)
    if index is not None:
        return index
    index = _build_index(graph)
    with _LOCK:
        _INDEX[graph] = index
    return index


def segment_gather(ptr: np.ndarray, owners: np.ndarray) -> np.ndarray:
    """Positions of the CSR segments of ``owners``, concatenated in order."""
    starts = ptr[owners]
    counts = ptr[owners + 1] - starts
    total = int(counts.sum())
    ends = np.cumsum(counts)
    shift = np.repeat(starts - (ends - counts), counts)
    return shift + np.arange(total, dtype=np.int64)


def _csr(adjacency, nodes: list, position: dict) -> tuple[np.ndarray, np.ndarray]:
    lists = list(map(adjacency.__getitem__, nodes))
    ptr = np.zeros(len(nodes) + 1, dtype=np.int64)
    np.cumsum(
        np.fromiter(map(len, lists), dtype=np.int64, count=len(nodes)),
        out=ptr[1:],
    )
    idx = np.fromiter(
        map(position.__getitem__, itertools.chain.from_iterable(lists)),
        dtype=np.int64,
        count=int(ptr[-1]),
    )
    return ptr, idx


def graph_of_index(index: GraphIndex) -> nx.DiGraph:
    """The ``networkx.DiGraph`` of ``index``, indexed as ``index`` itself.

    Nodes are added in index order and edges child by child in
    predecessor order, so the graph's predecessor lists are the index's;
    its successor lists are too when every successor list is sorted by
    vertex, as the CDAG builder's are (children are created in order).
    """
    graph = nx.DiGraph()
    nodes = index.nodes
    graph.add_nodes_from(nodes)
    child = np.repeat(np.arange(index.n, dtype=np.int64), index.in_deg)
    graph.add_edges_from(zip(
        map(nodes.__getitem__, index.pred_idx.tolist()),
        map(nodes.__getitem__, child.tolist()),
    ))
    with _LOCK:
        _INDEX[graph] = index
    return graph


def _build_index(graph: nx.DiGraph) -> GraphIndex:
    nodes = list(graph)
    position = dict(zip(nodes, range(len(nodes))))
    # the adjacency dicts themselves: one C-level pass per direction
    pred_ptr, pred_idx = _csr(graph._pred, nodes, position)
    succ_ptr, succ_idx = _csr(graph._succ, nodes, position)
    del position
    return index_from_csr(nodes, pred_ptr, pred_idx, succ_ptr, succ_idx)


def index_from_csr(
    nodes: list,
    pred_ptr: np.ndarray,
    pred_idx: np.ndarray,
    succ_ptr: np.ndarray,
    succ_idx: np.ndarray,
) -> GraphIndex:
    """A :class:`GraphIndex` from its adjacency: degrees and ``topo`` are
    derived here, for graph walks and the CDAG builder alike."""
    in_deg = np.diff(pred_ptr)
    out_deg = np.diff(succ_ptr)

    remaining = in_deg.copy()
    generations = []
    generation = np.nonzero(in_deg == 0)[0]
    while len(generation):
        generations.append(generation)
        children = succ_idx[segment_gather(succ_ptr, generation)]
        # unique children with their last occurrence and multiplicity
        reverse = children[::-1]
        uniq, first_in_reverse, counts = np.unique(
            reverse, return_index=True, return_counts=True
        )
        remaining[uniq] -= counts
        ready = remaining[uniq] == 0
        last = len(children) - 1 - first_in_reverse[ready]
        generation = uniq[ready][np.argsort(last)]
    topo = (
        np.concatenate(generations) if generations
        else np.zeros(0, dtype=np.int64)
    )
    return GraphIndex(
        nodes=nodes,
        pred_ptr=pred_ptr,
        pred_idx=pred_idx,
        succ_ptr=succ_ptr,
        succ_idx=succ_idx,
        in_deg=in_deg,
        out_deg=out_deg,
        topo=topo,
    )
