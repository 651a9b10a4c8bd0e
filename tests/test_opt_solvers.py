"""Optimization problem (8): numeric GP solver and exact KKT reconstruction."""

import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st
from scipy import optimize

from repro.obs import default_registry
from repro.opt.kkt import (
    ChiSolution,
    _solve_linear_with_hint,
    degree_in_x,
    leading_in_x,
    solve_chi,
)
from repro.opt.numeric import probe_arrays, solve_numeric
from repro.opt.rho import compare_intensity, intensity_from_chi
from repro.opt.tiling import tiles_at_x0
from repro.symbolic.posynomial import Monomial, Posynomial
from repro.symbolic.symbols import S_SYM, X_SYM, tile
from repro.util.errors import SolverError

bi, bj, bk, bl, bt = tile("i"), tile("j"), tile("k"), tile("l"), tile("t")


def _posy(expr, variables):
    return Posynomial.from_expr(expr, variables)


class TestNumeric:
    def test_mmm_optimum(self):
        obj = _posy(bi * bj * bk, [bi, bj, bk])
        con = _posy(bi * bk + bk * bj + bi * bj, [bi, bj, bk])
        sol = solve_numeric(obj, con, 3e6)
        assert sol.objective_value == pytest.approx((1e6) ** 1.5, rel=1e-3)
        for value in sol.tile_values.values():
            assert value == pytest.approx(1e3, rel=1e-2)

    def test_active_set_detection(self):
        # Low-order term b_i is inactive at the optimum.
        obj = _posy(bi * bj, [bi, bj])
        con = _posy(bi * bj + bi, [bi, bj])
        sol = solve_numeric(obj, con, 1e8)
        degrees = {tuple(sorted(v.name for v in t.variables())): a for t, a in zip(con.terms, sol.active)}
        assert degrees[("b_i", "b_j")] is True
        assert degrees[("b_i",)] is False

    def test_rejects_empty_constraint(self):
        with pytest.raises(SolverError):
            solve_numeric(_posy(bi, [bi]), Posynomial(()), 1e6)

    def test_rejects_nonpositive_coefficients(self):
        con = Posynomial([Monomial.make(-1, {bi: 1})])
        with pytest.raises(SolverError):
            solve_numeric(_posy(bi, [bi]), con, 1e6)


class TestProbeRescue:
    """The trust-constr rescue runs only when no SLSQP start ends feasible."""

    # deriche: maximize 2*b0*b1 subject to 2*b0*b1 + 2*b0 <= X -- every
    # SLSQP start reaches the optimum but exits in a line-search stall
    DERICHE = (
        np.array([2.0]),
        np.array([[1.0, 1.0]]),
        np.array([2.0, 2.0]),
        np.array([[1.0, 0.0], [1.0, 1.0]]),
    )

    @staticmethod
    def _spy(monkeypatch, slsqp=None):
        """Record the method of every ``minimize`` call; ``slsqp`` replaces
        the SLSQP runs."""
        methods: list[str] = []
        real = optimize.minimize

        def recording(*args, **kwargs):
            methods.append(kwargs["method"])
            if slsqp is not None and kwargs["method"] == "SLSQP":
                return slsqp(*args, **kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(optimize, "minimize", recording)
        return methods

    def test_feasible_stall_skips_trust_constr(self, monkeypatch):
        methods = self._spy(monkeypatch)
        x_value = 1e9
        probe = probe_arrays(*self.DERICHE, x_value)
        assert probe.active == (False, True)
        assert probe.objective_value >= x_value - 2 - 1e-3
        assert "SLSQP" in methods
        assert "trust-constr" not in methods

    def test_infeasible_stalls_reach_trust_constr(self, monkeypatch):
        def infeasible_stall(fun, x0, **kwargs):
            x = np.full(len(x0), 20.0)  # within bounds, far over the budget
            return optimize.OptimizeResult(
                x=x, fun=fun(x), status=8, success=False,
                message="Positive directional derivative for linesearch",
            )

        methods = self._spy(monkeypatch, slsqp=infeasible_stall)
        before = default_registry().counter_total("solver_probe_rescues_total")
        probe = probe_arrays(*self.DERICHE, 1e9)
        assert methods.count("trust-constr") == 1
        assert default_registry().counter_total("solver_probe_rescues_total") == before + 1
        assert probe.active[1] is True

    def test_no_rescue_raises_on_stall(self, monkeypatch):
        self._spy(monkeypatch)
        with pytest.raises(SolverError):
            probe_arrays(*self.DERICHE, 1e9, rescue=False)


def _linsolve_reference(rows, rhs, hint):
    """The symbolic ``sympy.linsolve`` formulation of
    :func:`repro.opt.kkt._solve_linear_with_hint`, kept as an oracle."""
    matrix, target = sp.Matrix(rows), sp.Matrix(rhs)
    n_unknowns = matrix.shape[1]
    unknowns = list(sp.symbols(f"_y0:{n_unknowns}", real=True))
    system = matrix * sp.Matrix(unknowns) - target
    # expressions, not Eq(row, 0): an all-zero row would collapse to a bool
    solutions = sp.linsolve(list(system), unknowns)
    if not solutions:
        return None
    solution = next(iter(solutions))
    free = sorted(
        {s for expr in solution for s in sp.sympify(expr).free_symbols if s in unknowns},
        key=lambda s: s.name,
    )
    assignment = {}
    for sym in free:
        idx = unknowns.index(sym)
        if hint is not None and idx < len(hint):
            assignment[sym] = sp.nsimplify(hint[idx], rational=True, tolerance=1e-3)
        else:
            assignment[sym] = sp.Rational(1, 2)
    values = [sp.nsimplify(sp.sympify(expr).subs(assignment)) for expr in solution]
    check = matrix * sp.Matrix(values) - target
    if any(sp.simplify(entry) != 0 for entry in check):
        return None
    return values


@st.composite
def _linear_systems(draw):
    """Small integer systems: random (mostly full rank), rank-deficient (a
    row that is the sum of two others) or inconsistent (that row, off by 1)."""
    kind = draw(st.sampled_from(["random", "dependent", "inconsistent"]))
    n_rows, n_cols = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    entry = st.integers(-2, 2)
    rows = [[draw(entry) for _ in range(n_cols)] for _ in range(n_rows)]
    rhs = [draw(entry) for _ in range(n_rows)]
    if kind != "random":
        i, j = draw(st.integers(0, n_rows - 1)), draw(st.integers(0, n_rows - 1))
        rows.append([a + b for a, b in zip(rows[i], rows[j])])
        rhs.append(rhs[i] + rhs[j] + (1 if kind == "inconsistent" else 0))
    hint = draw(st.none() | st.lists(st.floats(0.001, 4.0), max_size=n_cols))
    return kind, rows, rhs, hint


@given(system=_linear_systems())
@settings(max_examples=150, deadline=None)
def test_rational_linear_solve_matches_linsolve(system):
    kind, rows, rhs, hint = system
    ours = _solve_linear_with_hint(
        [[sp.Integer(x) for x in row] for row in rows], [sp.Integer(b) for b in rhs], hint
    )
    reference = _linsolve_reference(rows, rhs, hint)
    if kind == "inconsistent":
        assert ours is None
    if ours is None or reference is not None:
        assert ours == reference
    else:
        # The oracle ends with nsimplify, which can snap a large-denominator
        # value to a nearby simple rational; its re-check then rejects the
        # snapped vector.  The rational path returns the exact solution.
        assert ours is not None
        assert sp.Matrix(rows) * sp.Matrix(ours) == sp.Matrix(rhs)
        assert [sp.nsimplify(v) for v in ours] != ours


class TestSolveChiCanonical:
    def test_mmm(self):
        sol = solve_chi(
            _posy(bi * bj * bk, [bi, bj, bk]),
            _posy(bi * bk + bk * bj + bi * bj, [bi, bj, bk]),
        )
        assert sol.exact
        assert sp.simplify(sol.chi - sp.sqrt(3) * X_SYM ** sp.Rational(3, 2) / 9) == 0
        for expr in sol.tiles.values():
            assert sp.simplify(expr - sp.sqrt(X_SYM / 3)) == 0

    def test_linear_alpha_one(self):
        sol = solve_chi(_posy(2 * bi * bj, [bi, bj]), _posy(bi * bj, [bi, bj]))
        assert sp.simplify(sol.chi - 2 * X_SYM) == 0

    def test_coupled_budget_split(self):
        # gesummv shape: separate matrices must share the budget (rho = 1).
        obj = _posy(bi * bj + bi * bl, [bi, bj, bl])
        con = _posy(bi * bj + bi * bl, [bi, bj, bl])
        sol = solve_chi(obj, con)
        assert sp.simplify(sol.chi - X_SYM) == 0

    def test_stencil_surface(self):
        sol = solve_chi(_posy(2 * bi * bt, [bi, bt]), _posy(2 * bt + bi, [bi, bt]))
        assert sp.simplify(sol.chi - X_SYM**2 / 4) == 0

    def test_capping_unconstrained_variable(self):
        N = sp.Symbol("N", positive=True)
        sol = solve_chi(
            _posy(bi * bj, [bi, bj]),
            _posy(bi, [bi]),
            {"j": N},
        )
        assert "j" in sol.capped
        assert sp.simplify(sol.chi - N * X_SYM) == 0

    def test_capping_requires_extent(self):
        with pytest.raises(SolverError):
            solve_chi(_posy(bi * bj, [bi, bj]), _posy(bi, [bi]), {})

    def test_interior_only_rejects_caps(self):
        N = sp.Symbol("N", positive=True)
        with pytest.raises(SolverError):
            solve_chi(
                _posy(bi * bj, [bi, bj]),
                _posy(bi, [bi]),
                {"j": N},
                allow_caps=False,
            )

    def test_interior_only_rejects_true_boundary(self):
        # max b_i*b_j*b_k s.t. b_i*b_k + b_i*b_j: stationarity forces a pin.
        obj = _posy(bi * bj * bk, [bi, bj, bk])
        con = _posy(bi * bk + bi * bj, [bi, bj, bk])
        with pytest.raises(SolverError):
            solve_chi(obj, con, {"i": sp.Symbol("N", positive=True)}, allow_pinning=False)

    def test_degenerate_boundary_recovers_interior(self):
        # alpha = 1 with underdetermined split: SLSQP may pin a tile, but an
        # equivalent interior optimum exists and must be used.
        obj = _posy(4 * bi * bj * bk, [bi, bj, bk])
        con = _posy(bi * bj * bk, [bi, bj, bk])
        sol = solve_chi(obj, con, allow_pinning=False)
        assert sp.simplify(sol.chi - 4 * X_SYM) == 0

    def test_degree_helpers(self):
        expr = 3 * X_SYM ** sp.Rational(3, 2) + X_SYM
        assert degree_in_x(expr) == sp.Rational(3, 2)
        assert sp.simplify(leading_in_x(expr) - 3 * X_SYM ** sp.Rational(3, 2)) == 0


class TestIntensity:
    def test_mmm_rho(self):
        sol = ChiSolution(chi=sp.sqrt(3) * X_SYM ** sp.Rational(3, 2) / 9)
        res = intensity_from_chi(sol)
        assert sp.simplify(res.rho - sp.sqrt(S_SYM) / 2) == 0
        assert sp.simplify(res.x0 - 3 * S_SYM) == 0

    def test_alpha_one_rho_is_coefficient(self):
        res = intensity_from_chi(ChiSolution(chi=2 * X_SYM))
        assert res.rho == 2
        assert res.x0 is sp.oo

    def test_alpha_two(self):
        res = intensity_from_chi(ChiSolution(chi=X_SYM**2 / 4))
        assert sp.simplify(res.x0 - 2 * S_SYM) == 0
        assert sp.simplify(res.rho - S_SYM) == 0

    def test_sublinear_rejected(self):
        with pytest.raises(SolverError):
            intensity_from_chi(ChiSolution(chi=sp.sqrt(X_SYM)))

    def test_rho_value_numeric(self):
        res = intensity_from_chi(ChiSolution(chi=X_SYM**2 / 4))
        assert res.rho_value(64) == pytest.approx(64.0)

    def test_compare_intensity_orders_growth(self):
        assert compare_intensity(S_SYM, sp.sqrt(S_SYM)) == 1
        assert compare_intensity(sp.sqrt(S_SYM), S_SYM) == -1
        assert compare_intensity(S_SYM / 2, S_SYM / 2) == 0
        assert compare_intensity(2 * S_SYM, S_SYM) == 1

    def test_compare_intensity_constants(self):
        assert compare_intensity(sp.Integer(3), sp.Integer(2)) == 1

    def test_tiles_at_x0(self):
        sol = solve_chi(
            _posy(bi * bj * bk, [bi, bj, bk]),
            _posy(bi * bk + bk * bj + bi * bj, [bi, bj, bk]),
        )
        res = intensity_from_chi(sol)
        tiles = tiles_at_x0(res)
        for expr in tiles.values():
            assert sp.simplify(expr - sp.sqrt(S_SYM)) == 0


# ---------------------------------------------------------------------------
# property-based: exact chi always matches an independent numeric solve
# ---------------------------------------------------------------------------

_var_pool = [bi, bj, bk]


@st.composite
def _gp_instances(draw):
    n_terms = draw(st.integers(2, 4))
    terms = []
    for _ in range(n_terms):
        exponents = {
            v: draw(st.integers(0, 1)) for v in _var_pool
        }
        if not any(exponents.values()):
            exponents[bi] = 1
        coeff = draw(st.integers(1, 3))
        terms.append(Monomial.make(coeff, exponents))
    constraint = Posynomial(terms)
    # Objective: product of every variable appearing in the constraint.
    obj_powers = {v: 1 for v in constraint.variables()}
    objective = Posynomial([Monomial.make(1, obj_powers)])
    return objective, constraint


@given(instance=_gp_instances())
@settings(max_examples=25, deadline=None)
def test_chi_matches_numeric_optimum(instance):
    objective, constraint = instance
    try:
        sol = solve_chi(objective, constraint)
    except SolverError:
        return  # fit rejected: nothing to check
    x_val = 1e8
    numeric = solve_numeric(objective, constraint, x_val)
    symbolic_value = float(sol.chi.subs(X_SYM, x_val))
    assert math.isclose(symbolic_value, numeric.objective_value, rel_tol=2e-2)
