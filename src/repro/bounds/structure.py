"""The cold input/output floor of a concrete CDAG, and its ``io-floor`` engine.

::

    floor = #{v : in(v)=0, out(v)>0} + #{v : in(v)>0, out(v)=0}

It is sound for the full red-blue game *with recomputation*: inputs have
no parents so they can never be (re)computed, only loaded, and every
child-bearing input is an ancestor of some output, so it is loaded at
least once; every computed sink must end blue, so it is stored at least
once.  It also never exceeds the replay simulator's cost on
``stream_from_graph`` streams, which start blue exactly at in-degree-0
vertices and store exactly at out-degree-0 vertices.

The floor is read off the degree arrays of the graph's integer index
(:func:`repro.cdag.index.graph_index`), which the CDAG builder emits and
the schedule builders share, so evaluating it at every S costs no graph
walk.
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from repro.bounds.registry import (
    MODEL_PEBBLING,
    BoundEngine,
    BoundProblem,
    register_bound_engine,
)
from repro.cdag.index import GraphIndex, graph_index


def io_floor(graph: nx.DiGraph | GraphIndex) -> int:
    """Cold input/output floor of ``graph`` or of an index (see module
    docstring)."""
    index = graph_index(graph)
    index.require_dag()
    live_inputs = (index.in_deg == 0) & (index.out_deg > 0)
    computed_sinks = (index.in_deg > 0) & (index.out_deg == 0)
    return int(np.count_nonzero(live_inputs) + np.count_nonzero(computed_sinks))


@register_bound_engine
class IoFloorBound(BoundEngine):
    """Every live input loaded once, every computed sink stored once."""

    name = "io-floor"
    model = MODEL_PEBBLING

    def _value(self, problem: BoundProblem) -> tuple[float, tuple[str, ...]]:
        return float(io_floor(problem.graph)), ("cold input/output floor",)
