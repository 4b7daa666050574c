import numpy as np
import pytest

from qsoc import conditions
from qsoc.adjoint import compute_P, solve_first_adjoint
from qsoc.clifford import SuperOperator, make_algebra
from qsoc.conditions import (
    default_gate_tolerance,
    first_order_integral,
    second_order_breakdown,
    second_order_functional,
    taylor_consistency,
    verify_theorem,
)
from qsoc.forward import solve_first_variation, solve_state
from qsoc.config import parse_config
from qsoc.problems import ProblemSpec, cost, make_problem
from qsoc.suites import run_suite

GALLERY = ("free", "lq", "quadratic_control", "quadratic_state")


def build(name, n=4, m=1, T=1.0, **overrides):
    alg = make_algebra(n, 0.0, T)
    return alg, make_problem(alg, ProblemSpec.gallery(name, m=m, **overrides))


def stack(p, ubar):
    xbar = solve_state(p, ubar)
    adj = solve_first_adjoint(p, xbar, ubar)
    sa = compute_P(p, xbar, ubar, adj)
    return xbar, adj, sa


def test_first_order_zero_at_same_control():
    alg, p = build("lq")
    rng = np.random.default_rng(0)
    ubar = rng.uniform(-0.5, 0.5, size=(alg.n, 1))
    xbar = solve_state(p, ubar)
    adj = solve_first_adjoint(p, xbar, ubar)
    assert first_order_integral(p, ubar, ubar, adj) == 0.0


def test_first_order_zero_at_interior_stationary_point():
    # free problem, L = r u^2: the origin is stationary, so the gate holds
    # for every direction
    alg, p = build("free", r=0.8, q=0.0, s=0.0, x_tgt=None)
    ubar = np.zeros((alg.n, 1))
    xbar = solve_state(p, ubar)
    adj = solve_first_adjoint(p, xbar, ubar)
    rng = np.random.default_rng(1)
    for _ in range(4):
        u = rng.uniform(-1, 1, size=(alg.n, 1))
        assert abs(first_order_integral(p, ubar, u, adj)) <= 1e-14


@pytest.mark.parametrize("name", GALLERY)
def test_first_order_matches_cost_derivative(name):
    alg, p = build(name, n=5)
    rng = np.random.default_rng(2)
    ubar = rng.uniform(-0.5, 0.5, size=(alg.n, 1))
    u = rng.uniform(-1, 1, size=(alg.n, 1))
    xbar = solve_state(p, ubar)
    adj = solve_first_adjoint(p, xbar, ubar)
    fo = first_order_integral(p, ubar, u, adj)
    j0 = cost(p, ubar, xbar)
    h = 1e-5
    up = ubar + h * (u - ubar)
    um = ubar - h * (u - ubar)  # may leave the box; bypass admissibility for the quotient
    jp = cost(p, up, solve_state(p, p.control_set.project(up)))
    # projection must be a no-op for the two-sided quotient to be exact
    assert np.allclose(p.control_set.project(up), up)
    if np.allclose(p.control_set.project(um), um):
        jm = cost(p, um, solve_state(p, um))
        dj = (jp - jm) / (2 * h)
    else:
        dj = (jp - j0) / h
    assert dj == pytest.approx(-fo, rel=1e-6, abs=1e-8)


def test_second_order_zero_at_same_control():
    alg, p = build("lq")
    rng = np.random.default_rng(3)
    ubar = rng.uniform(-0.5, 0.5, size=(alg.n, 1))
    xbar, adj, sa = stack(p, ubar)
    x1 = solve_first_variation(p, xbar, np.zeros((alg.n, 1)))
    assert second_order_functional(p, ubar, ubar, adj, sa, x1) == 0.0


def test_second_order_closed_form_zero_dynamics():
    # only the control curvature survives: S = -2r sum dt |du|^2
    alg, p = build("free", r=0.45, q=0.0, s=0.0, x_tgt=None)
    ubar = np.zeros((alg.n, 1))
    xbar, adj, sa = stack(p, ubar)
    rng = np.random.default_rng(4)
    for _ in range(3):
        u = rng.uniform(-1, 1, size=(alg.n, 1))
        x1 = solve_first_variation(p, xbar, u - ubar)
        s_val = second_order_functional(p, ubar, u, adj, sa, x1)
        want = -2.0 * 0.45 * alg.dt * float(np.sum((u - ubar) ** 2))
        assert s_val == pytest.approx(want, abs=1e-10)
        assert s_val <= 0.0


def test_second_order_quadratic_homogeneity():
    alg, p = build("quadratic_control", n=4)
    rng = np.random.default_rng(5)
    ubar = rng.uniform(-0.3, 0.3, size=(alg.n, 1))
    xbar, adj, sa = stack(p, ubar)
    du = rng.uniform(-0.3, 0.3, size=(alg.n, 1))
    x1 = solve_first_variation(p, xbar, du)
    s1 = second_order_functional(p, ubar, ubar + du, adj, sa, x1)
    x1h = solve_first_variation(p, xbar, 0.5 * du)
    s_half = second_order_functional(p, ubar, ubar + 0.5 * du, adj, sa, x1h)
    assert s_half == pytest.approx(0.25 * s1, rel=1e-9, abs=1e-13)


def test_second_order_imaginary_part_small_on_real_data():
    for name in GALLERY:
        alg, p = build(name, n=4)
        rng = np.random.default_rng(6)
        ubar = rng.uniform(-0.4, 0.4, size=(alg.n, 1))
        xbar, adj, sa = stack(p, ubar)
        du = rng.uniform(-0.5, 0.5, size=(alg.n, 1))
        x1 = solve_first_variation(p, xbar, du)
        bd = second_order_breakdown(p, ubar, ubar + du, adj, sa, x1)
        assert p.real_data
        assert bd.imag_abs <= 1e-10 * (1.0 + abs(bd.value))


@pytest.mark.parametrize("name", ("lq", "quadratic_control", "quadratic_state"))
def test_taylor_chain(name):
    alg, p = build(name, n=5)
    rng = np.random.default_rng(7)
    ubar = rng.uniform(-0.4, 0.4, size=(alg.n, 1))
    u = rng.uniform(-0.9, 0.9, size=(alg.n, 1))
    report = taylor_consistency(p, ubar, u, [2.0 ** -e for e in range(4, 9)])
    assert report.passed, (report.rel_err_a, report.rel_err_s)
    assert report.rel_err_a <= 1e-6
    assert report.rel_err_s <= 1e-3


def test_taylor_exact_quadratic_fit():
    # free quadratic problem: the cost gap is an exact quadratic polynomial
    alg, p = build("free", r=0.5, q=0.0, s=0.0, x_tgt=None)
    ubar = np.zeros((alg.n, 1))
    u = 0.8 * np.ones((alg.n, 1))
    report = taylor_consistency(p, ubar, u, [2.0 ** -e for e in range(2, 7)])
    assert report.fit_residual <= 1e-12
    assert report.rel_err_a <= 1e-12
    assert report.rel_err_b <= 1e-10
    assert report.rel_err_s <= 1e-10


def test_taylor_at_stationary_base_control():
    # gate integral is exactly zero here; error scales must not blow up
    alg, p = build("free", r=0.5, q=0.0, s=0.0, x_tgt=None)
    ubar = np.zeros((alg.n, 1))
    u = 0.7 * np.ones((alg.n, 1))
    report = taylor_consistency(p, ubar, u, [2.0 ** -e for e in range(3, 8)])
    assert report.fo == 0.0
    assert report.s < 0.0
    assert report.passed, (report.rel_err_a, report.rel_err_s)


def test_verify_theorem_gate_semantics():
    # perturbed base control: directions with nonzero gate make no assertion
    alg, p = build("lq", n=3)
    rng = np.random.default_rng(8)
    ubar = rng.uniform(-0.5, 0.5, size=(alg.n, 1))
    candidates = [rng.uniform(-1, 1, size=(alg.n, 1)) for _ in range(5)]
    report = verify_theorem(p, ubar, candidates, fo_tol=1e-10, s_tol=1e-6)
    gated = [row for row in report.rows if row[2]]
    ungated = [row for row in report.rows if not row[2]]
    assert len(ungated) >= 1  # generic directions fail the gate
    assert all(ok for _, _, _, ok in ungated)  # and are never asserted against
    assert report.verdict == all(ok for *_, ok in report.rows)
    assert len(gated) + len(ungated) == 5


def test_verify_theorem_stationary_free_instance():
    # exact stationary optimum: every direction is gated and S <= 0
    alg, p = build("free", n=3, r=0.5, q=0.0, s=0.0, x_tgt=None)
    ubar = np.zeros((alg.n, 1))
    rng = np.random.default_rng(9)
    candidates = [rng.uniform(-1, 1, size=(alg.n, 1)) for _ in range(6)]
    report = verify_theorem(p, ubar, candidates, s_tol=1e-10)
    assert report.gated_count == 6
    assert report.verdict


def test_default_gate_tolerance_scales():
    alg, p = build("lq", n=3)
    ubar = np.zeros((alg.n, 1))
    xbar = solve_state(p, ubar)
    adj = solve_first_adjoint(p, xbar, ubar)
    tol = default_gate_tolerance(p, adj)
    assert tol >= 1e-8
    assert tol <= 1e-6


def suite_config(grid_points=3):
    return parse_config({
        "problem": {"name": "lq", "m": 1},
        "grid": {"t0": 0.0, "T": 1.0, "N": 4},
        "suites": ["second_order", "theorem"],
        "tolerances": {"theorem": {"grid_points": grid_points}},
        "seed": 5,
    })


def test_suites_report_route_gaps():
    cfg = suite_config()
    second = run_suite(cfg, "second_order")
    theorem = run_suite(cfg, "theorem")
    assert second.passed and theorem.passed
    assert second.metrics["route_gap"] <= 1e-10 * (1.0 + abs(second.metrics["s"]))
    assert theorem.metrics["max_route_gap"] <= 1e-12


def test_corrupted_p_fails_second_order_and_theorem(monkeypatch):
    def corrupted_compute_P(*args, **kwargs):
        sa = compute_P(*args, **kwargs)
        k = 2
        sa.P[k] = (sa.P[k].scaled(3.0)
                   + SuperOperator.identity(sa.lin.algebra, 1.0)).projected(k)
        return sa

    monkeypatch.setattr(conditions, "compute_P", corrupted_compute_P)
    cfg = suite_config()
    second = run_suite(cfg, "second_order")
    assert second.status == "fail"
    assert second.metrics["route_gap"] > 1e-3
    theorem = run_suite(cfg, "theorem")
    assert theorem.status == "fail" and not theorem.metrics["verdict_ok"]
    assert theorem.metrics["max_route_gap"] > 1e-3


def test_theorem_single_point_grid_checks_the_certified_control():
    # one grid point is the box midpoint for both the brute force and the
    # candidate family, so the only candidate is ubar itself
    res = run_suite(suite_config(grid_points=1), "theorem")
    assert res.passed
    assert res.metrics["candidates"] == 1
    assert res.metrics["fo_s_table"] == [[0.0, 0.0]]
