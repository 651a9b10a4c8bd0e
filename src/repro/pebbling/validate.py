"""End-to-end bound validation on concrete instances.

For a program, concrete parameters and fast-memory size ``S``:

1. evaluate the symbolic lower bound numerically;
2. materialize the CDAG and compute a certified *upper* bound (greedy
   Belady pebbling), the same cost through the streaming replay simulator
   (:mod:`repro.schedule.simulator` -- must agree bit-for-bit), the cost of
   the *derived blocked schedule* (:mod:`repro.schedule.derive`), and, when
   the graph is small enough, the *exact* optimum;
3. check the sandwich ``lower <= Q_opt <= upper``.

A failed sandwich falsifies either the bound derivation or the pebbling
engine -- the strongest internal consistency check the repository has.  A
greedy/replay disagreement falsifies one of the two independent schedule
executors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import sympy as sp

from repro.cdag.build import build_cdag
from repro.ir.program import Program
from repro.pebbling.greedy import greedy_pebbling_cost
from repro.pebbling.optimal import optimal_pebbling_cost
from repro.sdg.bounds import sdg_bound
from repro.symbolic.symbols import S_SYM
from repro.util.errors import PebblingError, SoapError


@dataclass
class ValidationReport:
    program: str
    params: dict[str, int]
    s: int
    lower_bound: float  #: evaluated symbolic bound
    optimal_cost: int | None  #: exact Q (None when the graph is too large)
    greedy_cost: int  #: certified upper bound
    n_vertices: int
    replay_cost: int | None = None  #: streaming simulator, same schedule as greedy
    schedule_cost: int | None = None  #: derived blocked schedule (None: not derivable)

    @property
    def sound(self) -> bool:
        """Lower bound does not exceed the certified achievable cost."""
        reference = self.optimal_cost if self.optimal_cost is not None else self.greedy_cost
        return self.lower_bound <= reference + 1e-9

    @property
    def consistent(self) -> bool:
        """Greedy pebbler and streaming replay agree bit-for-bit."""
        return self.replay_cost is None or self.replay_cost == self.greedy_cost

    @property
    def gap(self) -> float:
        """Achievable / bound -- 1.0 means the bound is exactly attained."""
        reference = self.optimal_cost if self.optimal_cost is not None else self.greedy_cost
        if self.lower_bound <= 0:
            return float("inf")
        return reference / self.lower_bound


def evaluate_bound(bound: sp.Expr, params: Mapping[str, int], s: int) -> float:
    subs = {sp.Symbol(k, positive=True): v for k, v in params.items()}
    subs[S_SYM] = s
    value = sp.sympify(bound).subs(subs)
    return float(value)


def validate_bound(
    program: Program,
    params: Mapping[str, int],
    s: int,
    *,
    bound: sp.Expr | None = None,
    exact_limit: int = 12,
    state_limit: int = 400_000,
) -> ValidationReport:
    """Run the sandwich check; see module docstring."""
    # Imported lazily: repro.schedule builds on this module's primitives.
    from repro.schedule.derive import blocked_order, derive_schedule
    from repro.schedule.simulator import simulate_io
    from repro.schedule.stream import stream_from_graph

    program_bound = None
    if bound is None:
        program_bound = sdg_bound(program)
        bound = program_bound.bound
    lower = evaluate_bound(bound, params, s)

    cdag = build_cdag(program, params)
    greedy = greedy_pebbling_cost(cdag.graph, s)
    replay = simulate_io(stream_from_graph(cdag.index), s).cost

    schedule_cost: int | None = None
    if program_bound is not None:
        try:
            schedule = derive_schedule(program, program_bound, params, s)
            order = blocked_order(cdag, schedule)
            schedule_cost = simulate_io(stream_from_graph(cdag.index, order), s).cost
        except SoapError:
            schedule_cost = None

    optimal: int | None = None
    if cdag.n_vertices <= exact_limit:
        try:
            optimal = optimal_pebbling_cost(cdag.graph, s, state_limit=state_limit)
        except PebblingError:
            optimal = None
    return ValidationReport(
        program=program.name,
        params=dict(params),
        s=s,
        lower_bound=lower,
        optimal_cost=optimal,
        greedy_cost=greedy,
        n_vertices=cdag.n_vertices,
        replay_cost=replay,
        schedule_cost=schedule_cost,
    )
