"""Numeric geometric-program solver (scipy) for optimization problem (8).

Solved in log space, where the problem is convex:

    maximize   log( sum_p c_p * exp(<a_p, x>) )
    subject to log( sum_r k_r * exp(<e_r, x>) ) <= log(X)
               x >= 0                            (tile sizes >= 1)

The numeric solution serves two purposes:

* it *guides* the symbolic KKT solvers (:mod:`repro.opt.kkt` and the
  numeric-first backend): which constraint terms are active at the optimum
  and the approximate dual weights ``y_r = lambda * m_r``, which the
  symbolic side rationalizes and then verifies exactly;
* it *cross-checks* every closed-form ``chi(X)`` in the test suite.

Two entry points share the optimizer: :func:`solve_numeric` takes
posynomials (coefficients must be numeric: callers substitute program
parameters first), while :func:`probe_arrays` takes prebuilt coefficient /
exponent arrays -- the path the :class:`~repro.opt.problem.ProblemIR`
backends use, with optional **warm starts** (``x0_seed``) seeded from the
nearest previously-solved problem class.

SLSQP runs from several starts.  When none of them reports success, a
start that stalled in the line search at a feasible point stands in for
the optimum; the much slower trust-constr solver is the last resort, for
when no start even ends feasible (see :func:`probe_arrays`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import sympy as sp
from scipy import optimize

from repro.obs import current_registry
from repro.symbolic.posynomial import Posynomial
from repro.util.errors import SolverError

#: SLSQP exit mode 8, "Positive directional derivative for linesearch": the
#: line search found no descent although the point may already be optimal
_SLSQP_LINESEARCH_STALL = 8
#: constraint slack (log space) a stalled point may violate and still count
#: as feasible
_STALL_SLACK = 1e-9


@dataclass(frozen=True)
class ProbeResult:
    """Numeric optimum of one concrete-``X`` instance, in array form."""

    x_log: np.ndarray  #: log tile sizes at the optimum
    objective_value: float
    m_values: np.ndarray  #: values m_r of each constraint monomial
    active: tuple[bool, ...]  #: m_r / X above the activity threshold
    dual_weights: tuple[float, ...]  #: y_r = m_r / sum(active m)

    @property
    def tile_values_array(self) -> np.ndarray:
        return np.exp(self.x_log)


@dataclass(frozen=True)
class NumericSolution:
    """Numeric optimum of problem (8) for one concrete ``X``."""

    variables: tuple[sp.Symbol, ...]
    tile_values: dict[sp.Symbol, float]
    objective_value: float
    constraint_terms: tuple[float, ...]  #: values m_r of each constraint monomial
    active: tuple[bool, ...]  #: m_r / X above the activity threshold
    dual_weights: tuple[float, ...]  #: y_r = m_r / sum(active m), ~ lambda*m_r/lambda*X

    def tiles_by_name(self) -> dict[str, float]:
        return {v.name: val for v, val in self.tile_values.items()}


def _matrix_form(posy: Posynomial, variables: list[sp.Symbol]):
    """(coeffs, exponent matrix) of a posynomial over ``variables``."""
    coeffs = []
    exps = []
    for term in posy.terms:
        coeff = sp.nsimplify(term.coeff)
        value = float(coeff)
        coeffs.append(value)
        exps.append([float(term.exponent(v)) for v in variables])
    return np.asarray(coeffs), np.asarray(exps)


def probe_arrays(
    c_obj: np.ndarray,
    a_obj: np.ndarray,
    k_con: np.ndarray,
    e_con: np.ndarray,
    x_value: float,
    *,
    activity_threshold: float = 1e-4,
    restarts: int = 4,
    x0_seed: np.ndarray | None = None,
    rescue: bool = True,
    ftol: float = 1e-12,
) -> ProbeResult:
    """Solve problem (8) numerically from prebuilt arrays.

    ``x0_seed`` (log tile sizes) warm-starts the first attempt; a converged
    warm start returns immediately, so a good seed costs one SLSQP call
    instead of ``restarts`` cold attempts.

    Rescue policy, when no SLSQP attempt reports success: an attempt that
    ended in a line-search stall (exit mode 8) at a feasible point -- finite,
    within the bounds, constraint slack at least ``-1e-9`` -- has usually
    reached the optimum and merely cannot certify it (degenerate, nearly
    linear log-space objectives); the stalled point with the lowest
    objective is used.  Only when no such point exists does the slow
    trust-constr rescue run (counted in ``solver_probe_rescues_total``
    with its convergence flag).  ``rescue=False`` skips both and raises --
    callers that will retry with the reference schedule anyway (the
    numeric-first fast path) must not pay for the rescue twice.

    ``ftol`` is SLSQP's convergence tolerance:
    the reference schedule keeps the historical 1e-12, while the fast path
    passes 1e-9 -- on nearly-linear (degenerate) log-space objectives SLSQP
    stalls below double-precision noise at 1e-12 and would needlessly force
    the slow rescue.
    """
    if np.any(c_obj <= 0) or np.any(k_con <= 0):
        raise SolverError("non-positive coefficient in posynomial")
    n = a_obj.shape[1]
    if n == 0:
        raise SolverError("no tile variables in problem (8)")
    if k_con.size == 0:
        raise SolverError("empty constraint: chi is unbounded (cap extents first)")
    log_x = np.log(x_value)
    log_c, log_k = np.log(c_obj), np.log(k_con)
    objective_exp = _SharedExp(log_c, a_obj)
    constraint_exp = _SharedExp(log_k, e_con)

    def neg_log_objective(x: np.ndarray) -> float:
        return -objective_exp.logsumexp(x)

    def neg_log_objective_grad(x: np.ndarray) -> np.ndarray:
        return -(a_obj.T @ objective_exp.softmax(x))

    def constraint_slack(x: np.ndarray) -> float:
        return log_x - constraint_exp.logsumexp(x)

    def constraint_slack_grad(x: np.ndarray) -> np.ndarray:
        return -(e_con.T @ constraint_exp.softmax(x))

    upper = log_x - float(np.min(log_k)) + 2.0
    default_x0 = np.full(n, min(log_x / max(2.0, n), upper / 2))

    def feasible(x: np.ndarray) -> bool:
        return bool(
            np.all(np.isfinite(x))
            and np.all(x >= 0.0)
            and np.all(x <= upper)
            and constraint_slack(x) >= -_STALL_SLACK
        )

    best = None
    stalled = None  #: lowest-``fun`` feasible point of a status-8 stall
    rng = np.random.default_rng(1234)
    seeded = x0_seed is not None and len(x0_seed) == n
    for trial in range(restarts * 2 + (1 if seeded else 0)):
        if seeded and trial == 0:
            x0 = np.clip(np.asarray(x0_seed, dtype=float), 0.0, upper)
        elif (not seeded and trial == 0) or (seeded and trial == 1):
            x0 = default_x0
        else:
            x0 = rng.uniform(0.0, upper * 0.6, size=n)
        result = optimize.minimize(
            neg_log_objective,
            x0,
            jac=neg_log_objective_grad,
            bounds=[(0.0, upper)] * n,
            constraints=[
                {"type": "ineq", "fun": constraint_slack, "jac": constraint_slack_grad}
            ],
            method="SLSQP",
            options={"maxiter": 500, "ftol": ftol},
        )
        if result.success and (best is None or result.fun < best.fun):
            best = result
        elif (
            result.status == _SLSQP_LINESEARCH_STALL
            and np.isfinite(result.fun)
            and feasible(result.x)
            and (stalled is None or result.fun < stalled.fun)
        ):
            stalled = result
        if best is not None and (seeded or trial >= restarts - 1):
            break
    if best is None and rescue and stalled is not None:
        best = stalled
    elif best is None and rescue:
        # No start ended at a feasible point; trust-constr is slower but
        # markedly more robust on nearly-degenerate geometries.  A capped,
        # non-converged run still guides the reconstruction: count it.
        constraint_obj = optimize.NonlinearConstraint(
            constraint_slack, 0.0, np.inf,
            jac=lambda x: constraint_slack_grad(x).reshape(1, -1),
        )
        result = optimize.minimize(
            neg_log_objective,
            default_x0,
            jac=neg_log_objective_grad,
            bounds=optimize.Bounds(np.zeros(n), np.full(n, upper)),
            constraints=[constraint_obj],
            method="trust-constr",
            options={"maxiter": 2000, "gtol": 1e-12, "xtol": 1e-14},
        )
        current_registry().inc(
            "solver_probe_rescues_total", converged=str(bool(result.success)).lower()
        )
        if result.fun is not None and np.isfinite(result.fun):
            best = result
    if best is None:
        raise SolverError("failed to solve problem (8) numerically")

    x_star = best.x
    m_values = k_con * np.exp(e_con @ x_star)
    active = tuple(bool(m / x_value > activity_threshold) for m in m_values)
    active_mass = float(np.sum(m_values[np.asarray(active)])) or 1.0
    duals = tuple(float(m / active_mass) for m in m_values)
    return ProbeResult(
        x_log=x_star,
        objective_value=float(np.exp(-best.fun)),
        m_values=m_values,
        active=active,
        dual_weights=duals,
    )


def solve_numeric(
    objective: Posynomial,
    constraint: Posynomial,
    x_value: float,
    *,
    activity_threshold: float = 1e-4,
    restarts: int = 4,
) -> NumericSolution:
    """Solve problem (8) numerically for ``X = x_value``.

    Raises :class:`SolverError` when the optimizer fails to converge or the
    constraint contains a variable-free structure it cannot handle.
    """
    variables = list(
        dict.fromkeys(list(objective.variables()) + list(constraint.variables()))
    )
    if not variables:
        raise SolverError("no tile variables in problem (8)")
    if len(constraint) == 0:
        raise SolverError("empty constraint: chi is unbounded (cap extents first)")

    c_obj, a_obj = _matrix_form(objective, variables)
    k_con, e_con = _matrix_form(constraint, variables)
    probe = probe_arrays(
        c_obj, a_obj, k_con, e_con, x_value,
        activity_threshold=activity_threshold,
        restarts=restarts,
    )
    tile_values = {
        v: float(val) for v, val in zip(variables, probe.tile_values_array)
    }
    return NumericSolution(
        variables=tuple(variables),
        tile_values=tile_values,
        objective_value=probe.objective_value,
        constraint_terms=tuple(float(m) for m in probe.m_values),
        active=probe.active,
        dual_weights=probe.dual_weights,
    )


class _SharedExp:
    """``exp(log_coeffs + matrix @ x - max)`` computed once per ``x``.

    SLSQP asks for the value and the gradient at the same point; both
    callbacks read the one shifted exponential, so each pair costs one
    matrix product and one ``exp`` instead of two.
    """

    def __init__(self, log_coeffs: np.ndarray, matrix: np.ndarray):
        self._log_coeffs = log_coeffs
        self._matrix = matrix
        self._key: bytes | None = None
        self._top = 0.0
        self._shifted: np.ndarray | None = None

    def _at(self, x: np.ndarray) -> None:
        key = x.tobytes()
        if key != self._key:
            values = self._log_coeffs + self._matrix @ x
            self._top = float(values.max())
            self._shifted = np.exp(values - self._top)
            self._key = key

    def logsumexp(self, x: np.ndarray) -> float:
        self._at(x)
        return self._top + float(np.log(self._shifted.sum()))

    def softmax(self, x: np.ndarray) -> np.ndarray:
        self._at(x)
        return self._shifted / self._shifted.sum()
