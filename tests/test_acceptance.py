"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line on success (visible with -v/-s), and the
asserted tolerances are pinned constants, not configuration.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from qsoc.adjoint import (
    compute_P,
    first_duality_residual,
    solve_first_adjoint,
    transposition_residual,
)
from qsoc.clifford import CliffordElement, make_algebra
from qsoc.cli import main as cli_main
from qsoc.conditions import (
    first_order_integral,
    second_order_functional,
    taylor_consistency,
    verify_theorem,
)
from qsoc.config import parse_config
from qsoc.forward import order_estimate_slopes, solve_state
from qsoc.optimize import brute_force_search
from qsoc.problems import ProblemSpec, cost, make_problem
from qsoc.suites import run_suite
from reference import (
    GALLERY,
    ZERO_DYNAMICS,
    ZERO_DYNAMICS_PROBLEM,
    RefTuple,
    by_start,
    gallery_spec,
)


def _announce(name, detail=""):
    print(f"ACCEPTANCE {name}: PASS {detail}".rstrip())


def test_criterion_1_algebra_laws():
    started = time.perf_counter()
    cfg = parse_config({
        "problem": ZERO_DYNAMICS_PROBLEM,
        "grid": {"t0": 0.0, "T": 1.0, "N": 8},
        "suites": ["algebra"],
        "tolerances": {"algebra": {"probes": 10000}},
        "seed": 1,
    })
    res = run_suite(cfg, "algebra")
    elapsed = time.perf_counter() - started
    assert res.passed, res.metrics
    assert res.metrics["max_law_residual"] <= 1e-10
    assert res.metrics["oracle_residual"] <= 1e-12
    assert elapsed < 30.0
    _announce("1 algebra laws",
              f"(max law residual {res.metrics['max_law_residual']:.2e}, "
              f"oracle {res.metrics['oracle_residual']:.2e}, {elapsed:.1f}s)")


def test_criterion_2_ito_isometry():
    cfg = parse_config({
        "problem": ZERO_DYNAMICS_PROBLEM,
        "grid": {"t0": 0.0, "T": 1.0, "N": 10},
        "suites": ["isometry"],
        "tolerances": {"isometry": {"probes": 1000}},
        "seed": 2,
    })
    res = run_suite(cfg, "isometry")
    assert res.passed, res.metrics
    assert res.metrics["isometry_residual"] <= 1e-10
    assert res.metrics["parity_reduction_residual"] == res.metrics["sign_table_residual"] == 0.0
    _announce("2 ito isometry + parity reduction",
              f"(kernel residual {res.metrics['isometry_residual']:.2e}, sign residuals "
              f"{res.metrics['sign_table_residual']:.0f}, "
              f"{res.metrics['parity_reduction_residual']:.0f})")


def test_criterion_3_variation_order_estimates():
    started = time.perf_counter()
    eps = [2.0 ** -e for e in range(3, 10)]
    rng = np.random.default_rng(3)
    for name in ("lq", "quadratic_state"):
        alg = make_algebra(6, 0.0, 1.0)
        p = make_problem(alg, ProblemSpec.gallery(name))
        ubar = rng.uniform(-0.4, 0.4, size=(alg.n, 1))
        u = rng.uniform(-1.0, 1.0, size=(alg.n, 1))
        rep = order_estimate_slopes(p, ubar, u, eps)
        assert rep.dx.within(0.9, 1.1), (name, rep.dx)
        assert rep.dx_minus_x1.within(1.8, 2.2), (name, rep.dx_minus_x1)
        assert rep.dx_minus_x1_x2.at_least(2.5), (name, rep.dx_minus_x1_x2)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _announce("3 variation order estimates", f"({elapsed:.1f}s)")


def test_criterion_4_first_order_duality_and_gradient():
    rng = np.random.default_rng(4)
    worst_dual = 0.0
    worst_fd = 0.0
    for name in GALLERY:
        alg = make_algebra(6, 0.0, 1.0)
        p = make_problem(alg, gallery_spec(name))
        ubar = rng.uniform(-0.5, 0.5, size=(alg.n, 1))
        xbar = solve_state(p, ubar)
        adj = solve_first_adjoint(p, xbar)
        for _ in range(3):
            du = rng.uniform(-0.4, 0.4, size=(alg.n, 1))
            worst_dual = max(worst_dual, first_duality_residual(adj, du))
            fo = first_order_integral(adj, ubar + du)
            h = 1e-4
            jp = cost(p, ubar + h * du, solve_state(p, ubar + h * du))
            jm = cost(p, ubar - h * du, solve_state(p, ubar - h * du))
            dj = (jp - jm) / (2 * h)
            worst_fd = max(worst_fd, abs(dj + fo) / max(abs(dj), abs(fo), 1e-8))
    assert worst_dual <= 1e-10
    assert worst_fd <= 1e-6
    _announce("4 first-order duality + adjoint gradient",
              f"(duality {worst_dual:.2e}, finite difference {worst_fd:.2e})")


def test_criterion_5_transposition_identity():
    rng = np.random.default_rng(5)
    worst = 0.0
    for name in GALLERY:
        alg = make_algebra(5, 0.0, 1.0)
        p = make_problem(alg, gallery_spec(name))
        ubar = rng.uniform(-0.5, 0.5, size=(alg.n, 1))
        xbar = solve_state(p, ubar)
        adj = solve_first_adjoint(p, xbar)
        sa = compute_P(adj)

        # terminal operator matches the terminal curvature exactly
        if p.g_xx is not None:
            gxx = p.g_xx(xbar.terminal)
            for _ in range(5):
                v = CliffordElement(alg, rng.standard_normal(alg.dim)
                                    + 1j * rng.standard_normal(alg.dim))
                w = CliffordElement(alg, rng.standard_normal(alg.dim)
                                    + 1j * rng.standard_normal(alg.dim))
                assert abs(sa.P[alg.n].pair(v, w) + gxx(v, w)) \
                    <= 1e-12 * (1 + abs(gxx(v, w)))

        def rand_adapted(k):
            keep = alg.adapted_mask(k)
            c = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
            return CliffordElement(alg, np.where(keep, c, 0))

        pairs = []
        for _ in range(100):
            k = int(rng.integers(0, alg.n))
            t1 = RefTuple(k=k, zeta=rand_adapted(k),
                          mu=[rand_adapted(j) for j in range(k, alg.n)])
            t2 = RefTuple(k=k, zeta=rand_adapted(k),
                          mu=[rand_adapted(j) for j in range(k, alg.n)])
            pairs.append((t1, t2))
        for args in by_start(pairs):
            worst = max(worst, transposition_residual(sa, *args))
    assert worst <= 1e-9

    # closed form: zero dynamics with running state cost only
    alg = make_algebra(5, 0.0, 2.0)
    q_rate = 0.6
    p = make_problem(alg, ProblemSpec.gallery("lq", **ZERO_DYNAMICS, q=q_rate, r=0.0, s=0.0,
                                              x_tgt=None))
    u0 = np.zeros((alg.n, 1))
    x0t = solve_state(p, u0)
    adj0 = solve_first_adjoint(p, x0t)
    sa0 = compute_P(adj0)
    closed_err = 0.0
    for k in range(alg.n + 1):
        want = -2.0 * q_rate * (alg.T - alg.time(k)) * np.eye(1 << k)
        assert sa0.P[k].lin.shape == want.shape
        closed_err = max(closed_err, float(np.max(np.abs(sa0.P[k].lin - want))))
    assert closed_err <= 1e-10
    _announce("5 transposition identity",
              f"(residual {worst:.2e}, closed form {closed_err:.2e})")


def test_criterion_6_second_order_taylor_chain():
    rng = np.random.default_rng(6)
    eps = [2.0 ** -e for e in range(4, 9)]
    for name in ("lq", "quadratic_control"):
        alg = make_algebra(6, 0.0, 1.0)
        p = make_problem(alg, ProblemSpec.gallery(name))
        ubar = rng.uniform(-0.4, 0.4, size=(alg.n, 1))
        u = rng.uniform(-0.9, 0.9, size=(alg.n, 1))
        rep = taylor_consistency(compute_P(solve_first_adjoint(p, solve_state(p, ubar))), u, eps)
        assert abs(rep.s) > 1e-8  # a vacuously tiny functional would prove nothing
        assert rep.rel_err_s <= 1e-3, (name, rep.rel_err_s)
        assert rep.rel_err_a <= 1e-6, (name, rep.rel_err_a)
    _announce("6 second-order taylor chain")


def _certified_tiny_instance():
    """lq-type instance whose zero control is exactly optimal and on-grid.

    Target equals the uncontrolled terminal state, running state cost off:
    the cost is then r||u||^2 + s||x_N(u) - x_N(0)||^2 >= 0 with equality only
    at u = 0, and the adjoint pair vanishes identically there, so the KKT
    residual is exactly zero and every coordinate is free.
    """
    alg = make_algebra(3, 0.0, 1.0)
    probe = ProblemSpec.gallery("lq", q=0.0, r=0.4, s=0.8, x_tgt=None)
    p_probe = make_problem(alg, probe)
    free_terminal = solve_state(p_probe, np.zeros((alg.n, 1))).terminal
    terms = tuple((int(mask), float(free_terminal.coeffs[mask].real),
                   float(free_terminal.coeffs[mask].imag))
                  for mask in np.nonzero(free_terminal.coeffs)[0])
    spec = ProblemSpec.gallery("lq", q=0.0, r=0.4, s=0.8, x_tgt=terms)
    return alg, make_problem(alg, spec)


def test_criterion_7_theorem_verdict():
    started = time.perf_counter()
    alg, p = _certified_tiny_instance()
    ubar, j_star = brute_force_search(p, 5)
    assert np.allclose(ubar, 0.0)
    assert abs(j_star) <= 1e-20

    # gradient descent lands on the same certified optimum
    from qsoc.optimize import projected_gradient
    rng = np.random.default_rng(7)
    _, trace = projected_gradient(p, rng.uniform(-1, 1, (alg.n, 1)),
                                  step=0.8, max_iter=400, grad_tol=1e-12)
    assert abs(trace.costs[-1] - j_star) <= 1e-6

    # a stationary interior optimum: the critical cone is every direction
    report = verify_theorem(p, ubar, fo_tol=1e-8, s_tol=1e-6)
    assert report.free == alg.n and report.strongly_active == report.weakly_active == 0
    assert report.verdict_ok, report.cone_max_s

    import itertools
    axis = np.linspace(-1.0, 1.0, 5)
    candidates = [np.array(c).reshape(alg.n, 1)
                  for c in itertools.product(axis, repeat=alg.n)]

    # analytic companion: zero dynamics, pure control cost
    r_rate = 0.45
    p_free = make_problem(alg, ProblemSpec.gallery("lq", **ZERO_DYNAMICS, q=0.0, r=r_rate,
                                                   s=0.0, x_tgt=None))
    u0 = np.zeros((alg.n, 1))
    x0t = solve_state(p_free, u0)
    adj0 = solve_first_adjoint(p_free, x0t)
    sa0 = compute_P(adj0)
    worst = 0.0
    for u in candidates:
        s_val = second_order_functional(sa0, u)
        want = -2.0 * r_rate * alg.dt * float(np.sum(u * u))
        worst = max(worst, abs(s_val - want))
        assert s_val <= 1e-12
    elapsed = time.perf_counter() - started
    assert worst <= 1e-10
    assert elapsed < 120.0
    _announce("7 theorem verdict",
              f"(free {report.free}, max S {report.cone_max_s:.3f}, analytic error {worst:.2e}, "
              f"{elapsed:.1f}s)")


def test_criterion_8_deterministic_reports(tmp_path):
    cfg = {
        "problem": {"name": "lq", "m": 1},
        "grid": {"t0": 0.0, "T": 1.0, "N": 4},
        "suites": ["algebra", "isometry", "orders", "gradient", "adjoint",
                   "second_order", "theorem", "optimize"],
        "tolerances": {"algebra": {"probes": 400}, "isometry": {"probes": 40}},
        "seed": 8,
        "emit": ["json", "csv"],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    outs = []
    for tag in ("a", "b", "c"):
        out = tmp_path / tag
        code = cli_main(["run", "--config", str(path), "--out", str(out)])
        assert code == 0
        outs.append(out)
    blobs = [(o / "report.json").read_bytes() for o in outs]
    assert blobs[0] == blobs[1] == blobs[2]
    csvs = [(o / "report.csv").read_bytes() for o in outs]
    assert csvs[0] == csvs[1] == csvs[2]
    _announce("8 deterministic reports", "(3 runs byte-identical)")
