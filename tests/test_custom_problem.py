"""Custom-callback problems: wired by hand, checked against the gallery."""

import numpy as np
import pytest

from qsoc import optimize, suites
from qsoc.adjoint import compute_P, solve_first_adjoint
from qsoc.clifford import CliffordElement, conditional_expectation, inner, make_algebra
from qsoc.conditions import first_order_integral, second_order_functional
from qsoc.config import parse_config
from qsoc.forward import solve_state
from qsoc.optimize import brute_force_search
from qsoc.problems import ControlProblem, ControlSet, ProblemSpec, cost, make_problem
from reference import derivative_errors


def lq_like_custom(alg, a=0.5, q=0.4, r=0.3, s=0.5):
    """Hand-wired copy of a one-control lq instance (drift element I + e1/2).

    Like ``ProblemSpec.gallery(..., dim=alg.dim)``, it drops the blades its
    algebra lacks (blade 2 of the right-diffusion element at N = 1).
    """
    def element(terms):
        return CliffordElement.from_terms(alg, {m: v for m, v in terms.items() if m < alg.dim})

    b_raw = element({0: 1.0, 1: 0.5})
    f_raw = element({0: 0.8, 1: 0.3})
    g_raw = element({0: 0.6, 2: 0.4})
    tgt = element({0: 0.5, 1: 0.25})
    f0, g0 = 0.3, 0.25

    def mask(e, k):
        return conditional_expectation(e, min(k, alg.n))

    def channel(rate, elem):
        def value(k, x, u):
            return rate * x + float(u[0]) * mask(elem, k)

        def dx(k, x, u):
            return lambda h: rate * h

        def du(k, x, u):
            return lambda v: float(v[0]) * mask(elem, k)
        return value, dx, du

    D, D_x, D_u = channel(a, b_raw)
    F, F_x, F_u = channel(f0, f_raw)
    G, G_x, G_u = channel(g0, g_raw)

    callbacks = dict(
        control_set=ControlSet(np.array([-1.0]), np.array([1.0])),
        x0=CliffordElement.unit(alg),
        D=D, F=F, G=G, D_x=D_x, F_x=F_x, G_x=G_x, D_u=D_u, F_u=F_u, G_u=G_u,
        L=lambda k, x, u: q * x.norm() ** 2 + r * float(u @ u),
        L_x=lambda k, x, u: (2 * q) * x,
        L_u=lambda k, x, u: 2 * r * np.asarray(u, dtype=float),
        L_xx=lambda k, x, u: (lambda v, w: 2 * q * inner(v, w)),
        L_uu=lambda k, x, u: 2 * r * np.eye(1),
        g=lambda x: s * (x - tgt).norm() ** 2,
        g_x=lambda x: (2 * s) * (x - tgt),
        g_xx=lambda x: (lambda v, w: 2 * s * inner(v, w)),
    )
    return ControlProblem(algebra=alg, **callbacks)


def test_custom_problem_passes_derivative_audit():
    alg = make_algebra(4, 0.0, 1.0)
    p = lq_like_custom(alg)
    errors = derivative_errors(p, trials=10, seed=0)
    assert max(errors.values()) <= 1e-6, errors


def test_custom_problem_reproduces_gallery_end_to_end():
    # identical data wired two ways must give identical cost, gate integral,
    # and curvature functional; the custom route exercises the generic
    # (probe-based) curvature materialization
    alg = make_algebra(4, 0.0, 1.0)
    p_custom = lq_like_custom(alg)
    p_gallery = make_problem(alg, ProblemSpec.gallery("lq"))
    rng = np.random.default_rng(1)
    ubar = rng.uniform(-0.5, 0.5, size=(alg.n, 1))
    u = rng.uniform(-1.0, 1.0, size=(alg.n, 1))

    results = []
    for p in (p_custom, p_gallery):
        xbar = solve_state(p, ubar)
        adj = solve_first_adjoint(p, xbar)
        sa = compute_P(adj)
        results.append((
            cost(p, ubar, xbar),
            first_order_integral(adj, u),
            second_order_functional(sa, u),
        ))
    for got, want in zip(results[0], results[1]):
        assert got == pytest.approx(want, rel=1e-11, abs=1e-13)


def test_custom_problem_brute_force_runs_the_per_path_loop(monkeypatch):
    # the row hooks derived from the callbacks call the drift once per grid
    # control and step, and no control is re-solved on its own; the result
    # is the gallery's
    alg = make_algebra(3, 0.0, 1.0)
    p_custom = lq_like_custom(alg)
    drift = p_custom.D
    calls = []

    def counted(k, x, u):
        calls.append(k)
        return drift(k, x, u)
    p_custom.D = counted
    monkeypatch.setattr(optimize, "solve_state", lambda *a: pytest.fail("per-path solve"))
    u_custom, j_custom = brute_force_search(p_custom, 5)
    assert sorted(calls) == [k for k in range(alg.n) for _ in range(5 ** alg.n)]
    u_gallery, j_gallery = brute_force_search(make_problem(alg, ProblemSpec.gallery("lq")), 5)
    assert np.array_equal(u_custom, u_gallery)
    assert j_custom == pytest.approx(j_gallery, rel=1e-12)


def test_custom_problem_step_operators_live_on_their_blocks():
    # probed from the callbacks, Dx_k, Bt_k, M_k and P_k come out on their
    # (2^k, 2^k) blocks and P_N on all dim blades, as for the gallery
    alg = make_algebra(4, 0.0, 1.0)
    p = lq_like_custom(alg)
    assert p.curvature.__func__ is ControlProblem._curvature
    assert p.state_derivatives.__func__ is ControlProblem._state_derivatives
    ubar = np.random.default_rng(2).uniform(-0.5, 0.5, size=(alg.n, 1))
    xbar = solve_state(p, ubar)
    adj = solve_first_adjoint(p, xbar)
    sa = compute_P(adj)
    for k in range(alg.n):
        side = 1 << k
        assert adj.lin.Dx[k].shape == adj.lin.Bt[k].shape == (side, side)
        assert adj.lin.Du[k].shape == adj.lin.Bu[k].shape == (side, p.m)
        for op in (sa.M[k], sa.P[k]):
            assert op.size == side and op.lin.shape == (side, side)
            assert op.antilin is None
    assert sa.P[alg.n].size == alg.dim


def test_adjoint_suite_on_the_callback_only_copy_keeps_curvature_error_at_rounding(monkeypatch):
    # every problem the suite builds wired from callbacks: its curvature hook
    # is probed from the same callbacks that curvature_error pairs with
    monkeypatch.setattr(suites, "make_problem", lambda alg, spec: lq_like_custom(alg))
    cfg = parse_config({"problem": {"name": "lq"}, "grid": {"t0": 0.0, "T": 1.0, "N": 4},
                        "suites": ["adjoint"], "seed": 3})
    res = suites.run_suite(cfg, "adjoint")
    assert res.passed, res.metrics
    assert res.metrics["curvature_error"] <= 1e-15
