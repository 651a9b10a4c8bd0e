"""Closing the loop: derived tilings produce near-optimal schedules.

The analysis is constructive (paper Section 4.5): substituting X0 back into
the tile closed forms yields the loop tiling of the maximal subcomputation.
This example derives the blocked schedule of matrix multiplication fully
automatically (``repro.schedule`` -- no hand-coded vertex-to-point mapping),
replays it through the streaming I/O simulator under Belady eviction, and
compares (a) the derived blocked order, (b) plain row-major order, and
(c) the certified greedy pebbler (which must agree bit-for-bit with the
replay), against the evaluated lower bound.

Run:  python examples/tiled_schedule.py
"""

import sympy as sp

from repro.analysis import analyze_kernel
from repro.cdag.build import build_cdag
from repro.kernels import get_kernel
from repro.pebbling.greedy import greedy_pebbling_cost
from repro.schedule import (
    blocked_order,
    derive_schedule,
    simulate_io,
    stream_from_graph,
)
from repro.symbolic.symbols import S_SYM


def main() -> None:
    n, s = 8, 18
    result = analyze_kernel("gemm")
    program = get_kernel("gemm").build()
    params = {"N": n}
    print(f"gemm, N={n}, S={s}")
    print(f"symbolic bound: Q >= {result.bound}")

    schedule = derive_schedule(program, result.program_bound, params, s)
    tiles = ", ".join(f"{v}={t}" for v, t in sorted(schedule.tile_sizes.items()))
    print(f"derived tiling (at X0): {tiles}\n")

    bound_value = float(
        result.bound.subs({sp.Symbol("N", positive=True): n, S_SYM: s})
    )
    cdag = build_cdag(program, params)
    order = blocked_order(cdag, schedule)  # vertex ids of cdag.index

    blocked = simulate_io(stream_from_graph(cdag.index, order), s)
    rowmajor = simulate_io(stream_from_graph(cdag.index), s)
    certified = greedy_pebbling_cost(cdag.graph, s, cdag.index.labels(order))
    assert certified == blocked.cost, "simulator diverged from the pebble game!"

    print(f"lower bound (evaluated)        : {bound_value:8.1f}")
    print(f"blocked schedule (derived tile): {blocked.cost:8d}   (= certified pebbling)")
    print(f"row-major schedule             : {rowmajor.cost:8d}")
    print(f"\nblocked/bound gap: {blocked.cost / bound_value:.2f}x, "
          f"row-major is {rowmajor.cost / blocked.cost:.2f}x worse than blocked")


if __name__ == "__main__":
    main()
