import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qsoc import optimize
from qsoc.adjoint import hu_field, solve_first_adjoint
from qsoc.clifford import CliffordElement, make_algebra
from qsoc.config import parse_config
from qsoc.errors import AdaptednessError, BudgetError, QsocError, StepSizeError
from qsoc.forward import solve_state, stacked_costs
from qsoc.optimize import brute_force_search, kkt_point, projected_gradient
from qsoc.problems import ControlSet, ProblemSpec, cost, make_problem
from qsoc.suites import run_suite
from reference import ZERO_DYNAMICS, control_grid, sequential_projected_gradient


def build(name, n=3, m=1, **overrides):
    alg = make_algebra(n, 0.0, 1.0)
    return alg, make_problem(alg, ProblemSpec.gallery(name, m=m, **overrides))


def test_free_quadratic_converges_to_origin():
    alg, p = build("lq", **ZERO_DYNAMICS, r=0.5, q=0.0, s=0.0, x_tgt=None)
    rng = np.random.default_rng(0)
    u0 = rng.uniform(-1, 1, size=(alg.n, 1))
    u, trace = projected_gradient(p, u0, step=0.8, max_iter=300, grad_tol=1e-10)
    assert np.max(np.abs(u)) <= 1e-8
    assert trace.costs[-1] <= 1e-16
    assert trace.converged


def test_cost_trace_monotone():
    alg, p = build("lq", n=4)
    rng = np.random.default_rng(1)
    u0 = rng.uniform(-1, 1, size=(alg.n, 1))
    _, trace = projected_gradient(p, u0, step=2.0, max_iter=60, grad_tol=1e-12)
    diffs = np.diff(trace.costs)
    assert np.all(diffs <= 1e-14)


def test_projected_gradient_respects_box():
    alg, p = build("lq", n=4, lower=(-0.2,), upper=(0.2,))
    u0 = 0.2 * np.ones((alg.n, 1))
    u, _ = projected_gradient(p, u0, step=1.0, max_iter=80, grad_tol=1e-10)
    assert np.all(u <= 0.2 + 1e-15)
    assert np.all(u >= -0.2 - 1e-15)


def test_gradient_matches_brute_force_on_tiny_instance():
    alg, p = build("lq", n=3)
    u_bf, j_bf = brute_force_search(p, 5)
    rng = np.random.default_rng(2)
    u_pg, trace = projected_gradient(p, rng.uniform(-1, 1, (alg.n, 1)),
                                     step=0.6, max_iter=500, grad_tol=1e-12)
    j_pg = trace.costs[-1]
    # grid value upper-bounds the continuous optimum up to grid resolution
    assert j_pg <= j_bf + 1e-12
    grid_gap = 0.5 ** 2  # (half grid spacing)^2 curvature slack
    assert j_bf <= j_pg + grid_gap


def test_brute_force_free_quadratic_returns_zero():
    alg, p = build("lq", **ZERO_DYNAMICS, r=0.5, q=0.0, s=0.0, x_tgt=None)
    u, val = brute_force_search(p, 5)
    assert np.allclose(u, 0.0)
    assert val == 0.0


def test_brute_force_degenerate_grid():
    alg, p = build("lq", n=3, lower=(0.4,), upper=(0.4,))
    u, val = brute_force_search(p, 1)
    assert np.allclose(u, 0.4)
    assert val == pytest.approx(cost(p, u, solve_state(p, u)))


def test_control_grid_one_point_contains_brute_force_optimum():
    alg, p = build("lq", n=3)
    u, _ = brute_force_search(p, 1)
    grid = list(control_grid(p, 1))
    assert len(grid) == 1
    assert np.array_equal(grid[0], u)
    assert np.all(u == 0.0)  # box midpoint


def test_control_grid_lexicographic_order():
    alg, p = build("lq", n=2, m=2, lower=(-1.0, 0.0), upper=(1.0, 2.0))
    grid = list(control_grid(p, 3))
    assert len(grid) == 3 ** 4
    assert all(u.shape == (2, 2) for u in grid)
    assert np.array_equal(grid[0], [[-1.0, 0.0], [-1.0, 0.0]])
    assert np.array_equal(grid[1], [[-1.0, 0.0], [-1.0, 1.0]])
    assert np.array_equal(grid[3], [[-1.0, 0.0], [0.0, 0.0]])
    assert np.array_equal(grid[-1], [[1.0, 2.0], [1.0, 2.0]])


def test_brute_force_enumeration_count_and_budget():
    alg, p = build("lq", n=3)
    # 5 points, N*m = 3: 125 evaluations is fine; budget of 100 is not
    brute_force_search(p, 5)
    with pytest.raises(BudgetError):
        brute_force_search(p, 5, budget=100)


def test_brute_force_needs_bounded_box():
    alg, p = build("lq", n=3, lower=(-np.inf,), upper=(np.inf,))
    with pytest.raises(ValueError):
        brute_force_search(p, 3)


def test_determinism():
    alg, p = build("lq", n=3)
    rng = np.random.default_rng(3)
    u0 = rng.uniform(-1, 1, size=(alg.n, 1))
    u1, t1 = projected_gradient(p, u0, step=0.5, max_iter=40, grad_tol=1e-12)
    u2, t2 = projected_gradient(p, u0, step=0.5, max_iter=40, grad_tol=1e-12)
    assert np.array_equal(u1, u2)
    assert t1.costs == t2.costs
    b1 = brute_force_search(p, 4)
    b2 = brute_force_search(p, 4)
    assert np.array_equal(b1[0], b2[0]) and b1[1] == b2[1]


@given(st.lists(st.floats(-10, 10), min_size=2, max_size=2))
def test_projection_idempotent_nonexpansive(vals):
    cs = ControlSet(np.array([-1.0, 0.0]), np.array([1.0, 2.0]))
    v = np.array(vals)
    pv = cs.project(v)
    assert np.array_equal(cs.project(pv), pv)
    w = np.array([0.3, 1.1])
    assert np.linalg.norm(cs.project(v) - cs.project(w)) <= np.linalg.norm(v - w) + 1e-12


# -- stacked screen ----------------------------------------------------------

ETA = ((0, 0.3, 0.1), (1, -0.2, 0.0))
STACKED_CASES = [("lq", 3, 1, {}), ("quadratic_control", 3, 1, {}),
                 ("quadratic_state", 3, 1, {}), ("lq", 2, 2, {}),
                 ("quadratic_state", 2, 2, {}), ("lq", 3, 1, {"eta": ETA})]


def per_path_brute_force(p, points):
    """The per-path loop over the whole grid, which defines the result."""
    best_u, best_j = None, np.inf
    for u in control_grid(p, points):
        j = cost(p, u, solve_state(p, u))
        if j < best_j:
            best_u, best_j = u, j
    return best_u, float(best_j)


def count_solves(monkeypatch):
    calls = []
    solve = optimize.solve_state

    def counted(p, u):
        calls.append(1)
        return solve(p, u)
    monkeypatch.setattr(optimize, "solve_state", counted)
    return calls


@pytest.mark.parametrize("name,n,m,overrides", STACKED_CASES)
def test_stacked_brute_force_matches_per_path_loop(name, n, m, overrides, monkeypatch):
    alg, p = build(name, n=n, m=m, **overrides)
    want_u, want_j = per_path_brute_force(p, 5)
    got_u, got_j = brute_force_search(p, 5)
    assert np.array_equal(got_u, want_u) and got_j == want_j
    # blocks of 7 rows: the grid spans dozens of blocks, the minimum moves
    monkeypatch.setattr(optimize, "SCREEN_BLOCK_ENTRIES", 7 * alg.dim)
    got_u, got_j = brute_force_search(p, 5)
    assert np.array_equal(got_u, want_u) and got_j == want_j


def test_stacked_brute_force_exact_tie_keeps_the_first_control(monkeypatch):
    # pure control cost r dt |u|^2 on the grid -3, -1, 1, 3: the 2^N
    # controls with entries +-1 tie exactly
    alg, p = build("lq", **ZERO_DYNAMICS, n=3, r=0.5, q=0.0, s=0.0, x_tgt=None,
                   lower=(-3.0,), upper=(3.0,))
    assert np.array_equal(next(iter(control_grid(p, 4)))[0], [-3.0])
    grid = np.array(list(control_grid(p, 4)))
    costs = stacked_costs(p, grid)
    assert np.count_nonzero(costs == costs.min()) == 2 ** alg.n
    u, j = brute_force_search(p, 4)
    assert np.array_equal(u, np.full((alg.n, 1), -1.0))
    # blocks of 5 rows: the tied controls fall in different blocks
    monkeypatch.setattr(optimize, "SCREEN_BLOCK_ENTRIES", 5 * alg.dim)
    assert brute_force_search(p, 4)[0].tolist() == u.tolist()
    assert per_path_brute_force(p, 4)[1] == j


def test_brute_force_nan_cost_never_wins(monkeypatch):
    alg, p = build("lq", n=2)
    first = brute_force_search(p, 5)[0]
    rows = p.cost_rows

    def poisoned(k, X, U):
        out = rows(k, X, U)
        return np.where(U[:, 0] == first[0, 0], np.nan, out) if k == 0 else out
    p.cost_rows = poisoned
    grid = np.array(list(control_grid(p, 5)))
    costs = stacked_costs(p, grid)
    assert np.isnan(costs).sum() == 5
    # blocks of 3 rows: some blocks are NaN throughout
    monkeypatch.setattr(optimize, "SCREEN_BLOCK_ENTRIES", 3 * alg.dim)
    u, j = brute_force_search(p, 5)
    assert u[0, 0] != first[0, 0]
    assert np.array_equal(u, grid[np.nanargmin(costs)]) and j == np.nanmin(costs)


def test_stacked_screen_raises_on_a_non_adapted_channel(monkeypatch):
    alg, p = build("lq", n=3)

    def leaky(leak):
        def right(k, x, u):
            g = p.G(k, x, u)
            if k == alg.n - 1:  # blade e1 e2 e3 is not adapted at step N - 1
                g = g + CliffordElement.blade(alg, alg.dim - 1, leak)
            return g
        return dataclasses.replace(p, G=right, coefficient_rows=None)

    brute_force_search(leaky(1e-14), 3)  # within 1e-12 (1 + |row|)
    with pytest.raises(AdaptednessError, match="right diffusion"):
        brute_force_search(leaky(1e-6), 3)


def test_gallery_brute_force_solves_few_paths(monkeypatch):
    alg, p = build("lq", n=4)
    calls = count_solves(monkeypatch)
    u, j = brute_force_search(p, 5)
    assert calls == []  # the grid goes through stacked_costs alone
    assert j == cost(p, u, solve_state(p, u))


def test_brute_force_budget_raises_before_screening(monkeypatch):
    alg, p = build("lq", n=3)
    monkeypatch.setattr(optimize, "stacked_costs", lambda *a: pytest.fail("screened"))
    with pytest.raises(BudgetError):
        brute_force_search(p, 5, budget=100)


def overflowing_lq():
    # the terminal cost s |x - x_tgt|^2 overflows to inf for every control
    return build("lq", s=1e308, x_tgt=((0, 100.0, 0.0),))


def test_brute_force_with_no_finite_grid_cost_raises():
    alg, p = overflowing_lq()
    with np.errstate(over="ignore"), pytest.raises(QsocError, match=r"5\^3 grid"):
        brute_force_search(p, 5)


def test_projected_gradient_refuses_a_non_finite_start_or_gradient():
    alg, p = overflowing_lq()
    u0 = np.zeros((alg.n, 1))
    with np.errstate(over="ignore"), pytest.raises(StepSizeError, match="initial control"):
        projected_gradient(p, u0)
    _, p = build("lq")
    nan_lu = dataclasses.replace(p, L_u=lambda k, x, u: np.full(1, np.nan))
    with pytest.raises(StepSizeError, match="gradient not finite at iteration 0"):
        projected_gradient(nan_lu, u0)


def assert_same_run(p, u0, **kwargs):
    """projected_gradient and the sequential reference agree bit for bit."""
    want_u, want = sequential_projected_gradient(p, u0, **kwargs)
    got_u, got = projected_gradient(p, u0, **kwargs)
    assert got_u.tobytes() == want_u.tobytes()
    assert got == want  # costs, gradient norms, halvings and flags
    return got


LINE_SEARCH_CASES = [("lq", 4, 1, {}), ("quadratic_control", 3, 1, {}),
                     ("quadratic_state", 4, 1, {}), ("quadratic_state", 2, 2, {}),
                     ("lq", 3, 1, {"eta": ETA, "lower": (-0.5,), "upper": (0.3,)})]


@pytest.mark.parametrize("name,n,m,overrides", LINE_SEARCH_CASES)
@pytest.mark.parametrize("block", (None, 3))
def test_stacked_line_search_matches_the_sequential_reference(name, n, m, overrides, block,
                                                              monkeypatch):
    alg, p = build(name, n=n, m=m, **overrides)
    if block is not None:  # acceptance moves across blocks of 3 rows
        monkeypatch.setattr(optimize, "SCREEN_BLOCK_ENTRIES", block * alg.dim)
    u0 = p.control_set.project(np.random.default_rng(n).uniform(-0.9, 0.9, (alg.n, m)))
    trace = assert_same_run(p, u0, step=6.0, max_iter=25, grad_tol=1e-12)
    assert trace.step_halvings >= trace.iterations  # the long steps are refused


def blow_up_beyond(p, bound):
    """p with a drift that turns NaN (on its adapted blades) once |u| > bound."""
    alg = p.algebra

    def drift(k, x, u):
        if np.all(np.abs(u) <= bound):
            return p.D(k, x, u)
        return CliffordElement(alg, np.where(alg.adapted_mask(k), np.nan, 0.0))
    return dataclasses.replace(p, D=drift, coefficient_rows=None)


@pytest.mark.parametrize("block", (None, 3))
def test_line_search_takes_a_finite_step_below_non_finite_ones(block, monkeypatch):
    # on an open box the long steps reach |u| > 1.5, where the state turns
    # NaN; those rows are costed as non-finite, not refused, and a shorter
    # step is taken
    alg, p = build("lq", n=4, lower=(-np.inf,), upper=(np.inf,))
    p = blow_up_beyond(p, 1.5)
    if block is not None:
        monkeypatch.setattr(optimize, "SCREEN_BLOCK_ENTRIES", block * alg.dim)
    u0 = np.full((alg.n, 1), 0.4)
    grad = hu_field(solve_first_adjoint(p, solve_state(p, u0)))
    with np.errstate(invalid="ignore"):
        assert np.isnan(stacked_costs(p, (u0 + 64.0 * grad)[None]))[0]
        trace = assert_same_run(p, u0, step=64.0, max_iter=6, grad_tol=1e-12)
    assert trace.iterations == 6 and trace.step_halvings >= 6


def test_line_search_that_stays_non_finite_raises(monkeypatch):
    alg, p = build("lq", n=4, lower=(-np.inf,), upper=(np.inf,))
    p = blow_up_beyond(p, 0.0)  # every step away from u = 0 blows up
    u0 = np.zeros((alg.n, 1))
    for block in (None, 3):
        if block is not None:
            monkeypatch.setattr(optimize, "SCREEN_BLOCK_ENTRIES", block * alg.dim)
        for run in (sequential_projected_gradient, projected_gradient):
            with np.errstate(invalid="ignore"), \
                    pytest.raises(StepSizeError, match="non-finite after 20 halvings"):
                run(p, u0, step=0.5, max_iter=5)


def test_line_search_carries_the_accepted_trajectory(monkeypatch):
    # candidates go through stacked_paths, and the accepted control's
    # trajectory comes from its block: only the start is solved on its own
    alg, p = build("lq", n=4)
    calls = count_solves(monkeypatch)
    _, trace = projected_gradient(p, np.full((alg.n, 1), 0.8), step=4.0, max_iter=20,
                                  grad_tol=1e-12)
    assert trace.step_halvings > 0 and trace.iterations > 1
    assert len(calls) == 1


def test_overflowed_state_is_refused_as_non_finite_not_as_non_adapted():
    # with rates of 1e308 the adapted state overflows by step 2, while every
    # coefficient row stays exactly zero off its adapted blades
    alg, p = build("lq", n=4, a=1e308, f0=1e308, g0=1e308)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(StepSizeError, match="initial control"):
        projected_gradient(p, np.zeros((alg.n, 1)))


# -- Newton polish -------------------------------------------------------------

def test_kkt_point_takes_one_newton_step_on_a_quadratic_cost():
    # lq is quadratic in u, so one step from the midpoint is exact
    alg, p = build("lq", n=4)
    u, trace = kkt_point(p, np.zeros((alg.n, 1)))
    assert (trace.newton_steps, trace.gradient_steps) == (1, 0)
    assert trace.kkt_residual <= 1e-15
    assert trace.costs[1] < trace.costs[0]
    assert np.all(np.abs(u) < 1.0)  # an interior optimum


def test_kkt_point_fixes_the_coordinates_the_box_cuts_off():
    alg, p = build("lq", n=6, lower=(-1.0,), upper=(-0.45,))
    u, trace = kkt_point(p, np.full((alg.n, 1), -0.725))
    assert trace.kkt_residual <= 1e-12
    at_bound = np.isin(u, (-1.0, -0.45))
    assert at_bound.any() and not at_bound.all()


def test_kkt_point_falls_back_to_gradient_steps_where_newton_climbs():
    # with q < 0 the stationary point Newton aims at is a saddle of higher cost
    alg, p = build("lq", n=4, q=-3.0, r=0.05, lower=(-2.5,), upper=(2.5,))
    u, trace = kkt_point(p, np.zeros((alg.n, 1)))
    assert trace.gradient_steps >= 1
    assert all(b <= a for a, b in zip(trace.costs, trace.costs[1:]))
    assert trace.kkt_residual <= 1e-12


def test_kkt_point_refuses_a_non_finite_start():
    alg, p = overflowing_lq()
    with np.errstate(over="ignore"), pytest.raises(StepSizeError, match="initial control"):
        kkt_point(p, np.zeros((alg.n, 1)))


def test_optimize_polishes_a_projected_gradient_run_that_hits_its_cap():
    # quadratic_state with m = 2 at N = 4: projected gradient stops at its
    # 300-iteration cap (gradient norm 7e-6 to 2e-5 for seeds 0-3), and 5^8
    # grid controls are too many for the brute force; Newton steps finish it
    cfg = parse_config({"problem": {"name": "quadratic_state", "m": 2},
                        "grid": {"t0": 0.0, "T": 1.0, "N": 4},
                        "suites": ["optimize"], "seed": 3})
    res = run_suite(cfg, "optimize")
    metrics = res.metrics
    assert metrics["iterations"] == 300 and not (metrics["converged"] or metrics["stalled"])
    assert "brute_force_value" not in metrics
    assert res.passed, metrics
    assert metrics["newton_steps"] >= 1
    assert metrics["kkt_residual"] <= metrics["kkt_tol"] == 1e-12
