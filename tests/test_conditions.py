import dataclasses
import math

import numpy as np
import pytest

from qsoc import conditions, suites
from qsoc.adjoint import Linearization, compute_P, hu_field, solve_first_adjoint
from qsoc.clifford import (
    CliffordElement,
    SuperOperator,
    _mul_dw,
    conditional_expectation,
    inner,
    make_algebra,
)
from qsoc.conditions import (
    ROUTE_GAP_TOL,
    TAYLOR_EPS,
    default_gate_tolerance,
    first_order_integral,
    reduced_hessians,
    second_order_direct,
    second_order_functional,
    taylor_consistency,
    verify_theorem,
)
from qsoc.errors import BudgetError
from qsoc.forward import solve_state
from qsoc.config import parse_config
from qsoc.optimize import kkt_point
from qsoc.problems import ControlProblem, ControlSet, ProblemSpec, cost, make_problem
from qsoc.suites import run_all, run_suite
from reference import GALLERY, ZERO_DYNAMICS, gallery_spec, quadratic_scores


def failing(report):
    """The names of the checks of a Taylor or theorem report that do not hold."""
    return [c.name for c in report.checks if not c.holds]


def build(name, n=4, m=1, T=1.0, **overrides):
    alg = make_algebra(n, 0.0, T)
    return alg, make_problem(alg, gallery_spec(name, m=m, **overrides))


def stack(p, ubar):
    xbar = solve_state(p, ubar)
    adj = solve_first_adjoint(p, xbar)
    sa = compute_P(adj)
    return xbar, adj, sa


def test_first_order_zero_at_same_control():
    alg, p = build("lq")
    rng = np.random.default_rng(0)
    ubar = rng.uniform(-0.5, 0.5, size=(alg.n, 1))
    xbar = solve_state(p, ubar)
    adj = solve_first_adjoint(p, xbar)
    assert first_order_integral(adj, ubar) == 0.0


def test_first_order_zero_at_interior_stationary_point():
    # zero dynamics, L = r u^2: the origin is stationary, so the gate holds
    # for every direction
    alg, p = build("lq", **ZERO_DYNAMICS, r=0.8, q=0.0, s=0.0, x_tgt=None)
    ubar = np.zeros((alg.n, 1))
    xbar = solve_state(p, ubar)
    adj = solve_first_adjoint(p, xbar)
    rng = np.random.default_rng(1)
    for _ in range(4):
        u = rng.uniform(-1, 1, size=(alg.n, 1))
        assert abs(first_order_integral(adj, u)) <= 1e-14


@pytest.mark.parametrize("name", GALLERY)
def test_first_order_matches_cost_derivative(name):
    alg, p = build(name, n=5)
    rng = np.random.default_rng(2)
    ubar = rng.uniform(-0.5, 0.5, size=(alg.n, 1))
    u = rng.uniform(-1, 1, size=(alg.n, 1))
    xbar = solve_state(p, ubar)
    adj = solve_first_adjoint(p, xbar)
    fo = first_order_integral(adj, u)
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
    assert second_order_functional(sa, ubar) == 0.0


def test_second_order_closed_form_zero_dynamics():
    # only the control curvature survives: S = -2r sum dt |du|^2
    alg, p = build("lq", **ZERO_DYNAMICS, r=0.45, q=0.0, s=0.0, x_tgt=None)
    ubar = np.zeros((alg.n, 1))
    xbar, adj, sa = stack(p, ubar)
    rng = np.random.default_rng(4)
    for _ in range(3):
        u = rng.uniform(-1, 1, size=(alg.n, 1))
        s_val = second_order_functional(sa, u)
        want = -2.0 * 0.45 * alg.dt * float(np.sum((u - ubar) ** 2))
        assert s_val == pytest.approx(want, abs=1e-10)
        assert s_val <= 0.0


def test_second_order_quadratic_homogeneity():
    alg, p = build("quadratic_control", n=4)
    rng = np.random.default_rng(5)
    ubar = rng.uniform(-0.3, 0.3, size=(alg.n, 1))
    xbar, adj, sa = stack(p, ubar)
    du = rng.uniform(-0.3, 0.3, size=(alg.n, 1))
    s1 = second_order_functional(sa, ubar + du)
    s_half = second_order_functional(sa, ubar + 0.5 * du)
    assert s_half == pytest.approx(0.25 * s1, rel=1e-9, abs=1e-13)


def test_functionals_refuse_a_direction_that_leaves_the_box():
    alg, p = build("lq")
    ubar = np.zeros((alg.n, 1))
    xbar, adj, sa = stack(p, ubar)
    u = np.full((alg.n, 1), 1.5)
    for check in (lambda: first_order_integral(adj, u), lambda: second_order_functional(sa, u),
                  lambda: second_order_direct(sa, u),
                  lambda: taylor_consistency(sa, u, TAYLOR_EPS)):
        with pytest.raises(ValueError, match="outside the admissible box"):
            check()


def test_second_order_imaginary_part_small_on_real_data():
    for name in GALLERY:
        alg, p = build(name, n=4)
        rng = np.random.default_rng(6)
        ubar = rng.uniform(-0.4, 0.4, size=(alg.n, 1))
        xbar, adj, sa = stack(p, ubar)
        du = rng.uniform(-0.5, 0.5, size=(alg.n, 1))
        curvature, p_part, _ = conditions._forms(sa, du[None])
        s = (curvature + p_part)[0, 0]
        assert abs(s.imag) <= 1e-10 * (1.0 + abs(s.real))


@pytest.mark.parametrize("name", ("lq", "quadratic_control", "quadratic_state"))
def test_taylor_chain(name):
    alg, p = build(name, n=5)
    rng = np.random.default_rng(7)
    ubar = rng.uniform(-0.4, 0.4, size=(alg.n, 1))
    u = rng.uniform(-0.9, 0.9, size=(alg.n, 1))
    report = taylor_consistency(stack(p, ubar)[2], u, [2.0 ** -e for e in range(4, 9)])
    assert failing(report) == [], report.checks
    assert report.rel_err_first_order <= 1e-6
    assert report.rel_err_second_order <= 1e-3


def test_taylor_exact_quadratic_fit():
    # zero dynamics, quadratic cost: the cost gap is an exact quadratic polynomial
    alg, p = build("lq", **ZERO_DYNAMICS, r=0.5, q=0.0, s=0.0, x_tgt=None)
    ubar = np.zeros((alg.n, 1))
    u = 0.8 * np.ones((alg.n, 1))
    report = taylor_consistency(stack(p, ubar)[2], u, [2.0 ** -e for e in range(2, 7)])
    assert report.fit_residual <= 1e-12
    assert report.rel_err_first_order <= 1e-12
    assert report.rel_err_second_order <= 1e-10


def test_taylor_at_stationary_base_control():
    # gate integral is exactly zero here; error scales must not blow up
    alg, p = build("lq", **ZERO_DYNAMICS, r=0.5, q=0.0, s=0.0, x_tgt=None)
    ubar = np.zeros((alg.n, 1))
    u = 0.7 * np.ones((alg.n, 1))
    report = taylor_consistency(stack(p, ubar)[2], u, [2.0 ** -e for e in range(3, 8)])
    assert report.fo == 0.0
    assert report.s < 0.0
    assert failing(report) == [], report.checks


def test_verify_theorem_gate_semantics():
    # off a KKT point the gate refuses: the residual exceeds fo_tol, so the
    # verdict fails whatever the sign of S; at the KKT point it passes
    alg, p = build("lq", n=3)
    rng = np.random.default_rng(8)
    ubar = rng.uniform(-0.5, 0.5, size=(alg.n, 1))
    off = verify_theorem(p, ubar, fo_tol=1e-10, s_tol=1e-6)
    assert off.kkt_residual > off.fo_tol and failing(off) == ["kkt_residual"]
    assert off.cone_max_s <= 1e-6  # the sign of S alone would pass
    on = verify_theorem(p, kkt_point(p, ubar)[0], fo_tol=1e-10, s_tol=1e-6)
    assert on.kkt_residual <= 1e-12 and failing(on) == []


def test_verify_theorem_stationary_free_instance():
    # exact stationary optimum: every coordinate is free and H_P = -2r dt I
    alg, p = build("lq", **ZERO_DYNAMICS, n=3, r=0.5, q=0.0, s=0.0, x_tgt=None)
    report = verify_theorem(p, np.zeros((alg.n, 1)), s_tol=1e-10)
    assert (report.free, report.strongly_active, report.weakly_active) == (3, 0, 0)
    assert report.kkt_residual == 0.0
    assert report.cone_spectrum == pytest.approx([-alg.dt] * 3, abs=1e-14)
    assert report.cone_max_s == pytest.approx(-alg.dt, abs=1e-14)
    assert failing(report) == []


def test_verify_theorem_validates_the_base_control():
    alg, p = build("lq", n=3)
    with pytest.raises(ValueError):
        verify_theorem(p, np.full((alg.n, 1), 1.5))
    with pytest.raises(ValueError):
        verify_theorem(p, np.zeros((alg.n + 1, 1)))


def test_default_gate_tolerance_scales():
    alg, p = build("lq", n=3)
    ubar = np.zeros((alg.n, 1))
    xbar = solve_state(p, ubar)
    adj = solve_first_adjoint(p, xbar)
    tol = default_gate_tolerance(adj)
    assert tol >= 1e-8
    assert tol <= 1e-6


def suite_config():
    return parse_config({
        "problem": {"name": "lq", "m": 1},
        "grid": {"t0": 0.0, "T": 1.0, "N": 4},
        "suites": ["second_order", "theorem"],
        "seed": 5,
    })


def test_suites_report_route_gaps():
    cfg = suite_config()
    second = run_suite(cfg, "second_order")
    theorem = run_suite(cfg, "theorem")
    assert second.status == "pass" and theorem.status == "pass"
    assert second.metrics["route_gap"] <= 1e-10 * (1.0 + abs(second.metrics["s"]))
    assert theorem.metrics["route_gap"] <= 1e-12


def test_corrupted_p_fails_second_order_and_theorem(monkeypatch):
    def corrupted_compute_P(*args, **kwargs):
        sa = compute_P(*args, **kwargs)
        k = 2
        pk = sa.P[k]  # 3 P_k + I on the adapted subspace
        sa.P[k] = SuperOperator(pk.algebra, 3.0 * pk.lin + np.eye(1 << k),
                                None if pk.antilin is None else 3.0 * pk.antilin)
        return sa

    # P of the second_order suite is built in suites, the theorem's in conditions
    for module in (suites, conditions):
        monkeypatch.setattr(module, "compute_P", corrupted_compute_P)
    cfg = suite_config()
    second = run_suite(cfg, "second_order")
    assert second.status == "fail" and "route_gap" in second.failing
    assert second.metrics["route_gap"] > 1e-3
    # the KKT point is found with the true Hessian: only the cone check fails,
    # through the route gap and the cost sweep along the top cone direction
    theorem = run_suite(cfg, "theorem")
    assert theorem.status == "fail" and "kkt_residual" not in theorem.failing
    assert {"route_gap", "taylor_rel_err"} <= set(theorem.failing)
    assert theorem.metrics["route_gap"] > 1e-3
    assert theorem.metrics["taylor_rel_err"] > 1e-3
    monkeypatch.undo()
    assert all(run_suite(cfg, name).status == "pass" for name in ("second_order", "theorem"))


def test_gram_one_column_short_fails_adjoint_and_second_order(monkeypatch):
    # SuperOperator is the one place that knows a step operator's block: a
    # pairing that drops the last column of the block must be caught
    gram = SuperOperator.gram

    def short_gram(self, V, W):
        V, W = np.array(V), np.array(W)
        V[:, self.size - 1:] = 0.0
        W[:, self.size - 1:] = 0.0
        return gram(self, V, W)

    monkeypatch.setattr(SuperOperator, "gram", short_gram)
    cfg = suite_config()
    adjoint = run_suite(cfg, "adjoint")
    assert adjoint.status == "fail"
    assert "transposition_residual" in adjoint.failing
    second = run_suite(cfg, "second_order")
    assert second.status == "fail"
    assert "route_gap" in second.failing


def test_transposition_check_catches_a_wrong_t_block_noise_half(monkeypatch):
    # compute_P conjugates with t_block while the test equations step through
    # t_rows, so a defect in t_block cannot cancel out of the identity; the
    # closed form of P on the configured rates sees both halves of t_block
    t_block = Linearization.t_block

    def noisy(self, k):
        out = t_block(self, k)
        out[1 << k:] *= 1.0 + 1e-3
        return out

    def drifting(self, k):
        out = t_block(self, k)
        out[:1 << k] += 1e-3 * self.algebra.dt * self.Dx[k]
        return out

    # quadratic_state's closed form runs on the problem without its quad elements
    stripped = parse_config({"problem": {"name": "quadratic_state"},
                             "grid": {"t0": 0.0, "T": 1.0, "N": 5}, "suites": ["adjoint"]})
    for cfg in (suite_config(), stripped):
        clean = run_suite(cfg, "adjoint")
        assert clean.status == "pass"
        for plant in (noisy, drifting):
            monkeypatch.setattr(Linearization, "t_block", plant)
            res = run_suite(cfg, "adjoint")
            assert {"transposition_residual", "closed_form_error"} <= set(res.failing)
            assert res.metrics["transposition_residual"] > 1e3 * 1e-9  # 1e3 times its bound
            monkeypatch.undo()


def test_transposition_check_catches_a_wrong_noise_half_in_the_row_stepping(monkeypatch):
    # the test equations step through t_rows: its noise half (Bt_k v) dW_{k+1}
    # scaled by 1 + 1e-3 must fail the check, and pass once reverted
    t_rows = Linearization.t_rows

    def noisy(self, k, V):
        bt = np.zeros(V.shape, dtype=np.complex128)
        bt[:, :1 << k] = V[:, :1 << k] @ self.Bt[k].T
        return t_rows(self, k, V) + 1e-3 * _mul_dw(self.algebra, bt, k + 1, "right")

    cfg = suite_config()
    monkeypatch.setattr(Linearization, "t_rows", noisy)
    res = run_suite(cfg, "adjoint")
    assert "transposition_residual" in res.failing
    assert res.metrics["transposition_residual"] > 1e3 * 1e-9  # 1e3 times its bound
    monkeypatch.undo()
    assert run_suite(cfg, "adjoint").status == "pass"


def test_theorem_zero_direction_serializes_as_positive_zero():
    # every coordinate strongly active: the cone is {0}, and S on it is +0.0
    alg, p = build("lq", lower=(0.5,), upper=(1.0,))
    ubar, _ = kkt_point(p, np.full((alg.n, 1), 0.75))
    report = verify_theorem(p, ubar)
    assert (report.strongly_active, report.cone_spectrum) == (alg.n, [])
    assert failing(report) == []
    for val in (report.cone_max_s, report.route_gap, report.oracle_gap):
        assert val == 0.0 and math.copysign(1.0, val) == 1.0


# -- reduced Hessian -----------------------------------------------------------

def coupled_custom(alg, gamma=0.6, a=0.3, f0=0.2, g0=0.25, q=0.4, r=0.3, s=0.5):
    """Two controls, one multiplying the state in the drift (a mixed x-u term)."""
    b_raw = CliffordElement.from_terms(alg, {0: 1.0, 1: 0.5})
    c_raw = CliffordElement.from_terms(alg, {0: 0.3, 2: 0.7})
    f_raw = CliffordElement.from_terms(alg, {0: 0.8, 1: 0.3})
    tgt = CliffordElement.from_terms(alg, {0: 0.5, 1: 0.25})

    def at(e, k):
        return conditional_expectation(e, min(k, alg.n))

    def D(k, x, u):
        return (a + gamma * float(u[0])) * x + float(u[0]) * at(b_raw, k) \
            + float(u[1]) * at(c_raw, k)

    def D_u(k, x, u):
        return lambda v: float(v[0]) * (gamma * x + at(b_raw, k)) + float(v[1]) * at(c_raw, k)

    callbacks = dict(
        control_set=ControlSet(np.array([-1.0, -1.0]), np.array([1.0, 1.0])),
        x0=CliffordElement.unit(alg),
        D=D,
        F=lambda k, x, u: f0 * x + float(u[1]) * at(f_raw, k),
        G=lambda k, x, u: g0 * x,
        D_x=lambda k, x, u: (lambda h: (a + gamma * float(u[0])) * h),
        F_x=lambda k, x, u: (lambda h: f0 * h),
        G_x=lambda k, x, u: (lambda h: g0 * h),
        D_u=D_u,
        F_u=lambda k, x, u: (lambda v: float(v[1]) * at(f_raw, k)),
        G_u=lambda k, x, u: (lambda v: CliffordElement.zero(alg)),
        D_xu=lambda k, x, u: (lambda h, v: gamma * float(v[0]) * h),
        L=lambda k, x, u: q * x.norm() ** 2 + r * float(u @ u),
        L_x=lambda k, x, u: (2 * q) * x,
        L_u=lambda k, x, u: 2 * r * np.asarray(u, dtype=float),
        L_xx=lambda k, x, u: (lambda v, w: 2 * q * inner(v, w)),
        L_uu=lambda k, x, u: 2 * r * np.eye(2),
        g=lambda x: s * (x - tgt).norm() ** 2,
        g_x=lambda x: (2 * s) * (x - tgt),
        g_xx=lambda x: (lambda v, w: 2 * s * inner(v, w)),
    )
    return ControlProblem(algebra=alg, **callbacks)


HESSIAN_CASES = [(name, m) for name in ("lq", "quadratic_control", "quadratic_state")
                 for m in (1, 2)] + [("custom", 2)]


def hessian_case(name, m, seed):
    if name == "custom":
        alg = make_algebra(3, 0.0, 1.0)
        p = coupled_custom(alg)
    else:
        alg, p = build(name, n=3, m=m)
    rng = np.random.default_rng(seed)
    ubar = rng.uniform(-0.4, 0.4, size=(alg.n, p.m))
    return alg, p, rng, ubar


@pytest.mark.parametrize("name,m", HESSIAN_CASES)
def test_reduced_hessian_scores_match_per_candidate_functional(name, m):
    alg, p, rng, ubar = hessian_case(name, m, 20)
    xbar, adj, sa = stack(p, ubar)
    h_p, h_d = reduced_hessians(sa)
    size = alg.n * p.m
    assert h_p.shape == h_d.shape == (size, size)
    assert np.array_equal(h_p, h_p.T) and np.array_equal(h_d, h_d.T)
    # unit directions at (k, i) pin the column order a = k*m + i; random
    # directions pin the off-diagonal entries
    dus = [np.eye(size)[a].reshape(alg.n, p.m) * 0.5 for a in range(size)]
    dus += [rng.uniform(-0.5, 0.5, size=(alg.n, p.m)) for _ in range(4)]
    scored_p = quadratic_scores(h_p, np.array([du.reshape(-1) for du in dus]))
    scored_d = quadratic_scores(h_d, np.array([du.reshape(-1) for du in dus]))
    for du, sp, sd in zip(dus, scored_p, scored_d):
        want_p = second_order_functional(sa, ubar + du)
        want_d = second_order_direct(sa, ubar + du)
        assert abs(sp - want_p) <= 1e-12 * (1.0 + abs(want_p))
        assert abs(sd - want_d) <= 1e-12 * (1.0 + abs(want_d))
    assert np.max(np.abs(h_p - h_d)) <= 1e-12 * (1.0 + np.max(np.abs(h_p)))


def test_coupled_custom_problem_has_mixed_curvature_and_exact_s():
    # the mixed x-u term enters S, and S is still -d2J/deps2
    alg, p, rng, ubar = hessian_case("custom", 2, 21)
    u = np.clip(ubar + rng.uniform(-0.5, 0.5, size=ubar.shape), -1.0, 1.0)
    xbar, adj, sa = stack(p, ubar)
    report = taylor_consistency(sa, u, [2.0 ** -e for e in range(4, 9)])
    assert failing(report) == [], report.checks
    with_mixed = reduced_hessians(sa)[0]
    p.D_xu = None
    without = reduced_hessians(sa)[0]
    assert np.max(np.abs(with_mixed - without)) > 1e-3


def _perturbed_hessians(routes):
    def assemble(*args, **kwargs):
        hs = [h.copy() for h in reduced_hessians(*args, **kwargs)]
        for r in routes:
            hs[r][0, 1] += 1e-6
            hs[r][1, 0] += 1e-6
        return tuple(hs)
    return assemble


def theorem_case():
    # an interior KKT point whose top cone direction has v0 * v1 = 0.016
    alg, p = build("lq", n=3)
    ubar, _ = kkt_point(p, np.zeros((alg.n, 1)))
    return p, ubar


@pytest.mark.parametrize("routes", [(0,), (0, 1)])
def test_planted_hessian_defect_fails_theorem_through_oracle(monkeypatch, routes):
    p, ubar = theorem_case()
    clean = verify_theorem(p, ubar)
    assert failing(clean) == [] and clean.oracle_gap <= 1e-13
    monkeypatch.setattr(conditions, "reduced_hessians", _perturbed_hessians(routes))
    report = verify_theorem(p, ubar)
    assert "oracle_gap" in failing(report)
    assert report.oracle_gap > ROUTE_GAP_TOL * (1.0 + abs(report.cone_max_s))
    if routes == (0, 1):  # both routes moved together: only the oracle sees it
        assert report.route_gap <= 1e-13


def test_planted_hessian_defect_fails_analytic_companion(monkeypatch):
    monkeypatch.setattr(suites, "reduced_hessians", _perturbed_hessians((0,)))
    res = run_suite(suite_config(), "theorem")
    # the main check does not use the patched name
    assert res.status == "fail" and res.failing == ["analytic_max_error"]
    assert res.metrics["analytic_max_error"] > 1e-7


def test_theorem_work_is_bounded_by_the_column_count(monkeypatch):
    rows = {"first_variation": 0}
    calls = {"second_order_functional": 0}
    variation_rows = Linearization.variation_rows

    def counted_rows(self, dus):
        rows["first_variation"] += len(dus)
        return variation_rows(self, dus)
    monkeypatch.setattr(Linearization, "variation_rows", counted_rows)

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for module in (conditions, suites):
        for name in calls:
            if hasattr(module, name):
                counted(module, name)
    res = run_suite(suite_config(), "theorem")
    assert res.status == "pass" and res.metrics["newton_steps"] == 1
    columns = 4  # N * m, for the problem and for the analytic companion
    # one reduced Hessian per Newton step, one for the cone and one for the
    # companion; one first variation each for the sweep's S along the top
    # direction and its direct route
    assert rows["first_variation"] == 3 * columns + 2
    assert calls["second_order_functional"] == 1


@pytest.mark.parametrize("n", (4, 8))
def test_verify_theorem_builds_its_base_point_once(monkeypatch, n):
    # the state, the first adjoint and P at ubar, shared by the cone check and
    # the cost sweep along the top cone direction
    calls = dict.fromkeys(("solve_state", "solve_first_adjoint", "compute_P"), 0)

    def counted(name):
        fn = getattr(conditions, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    _, p = build("lq", n=n, **README_LQ)
    ubar, _ = kkt_point(p, np.zeros((n, 1)))
    for name in calls:
        monkeypatch.setattr(conditions, name, counted(name))
    report = verify_theorem(p, ubar)
    assert failing(report) == [] and report.taylor_rel_err > 0.0  # the sweep ran
    assert calls == dict.fromkeys(calls, 1)


# -- the critical cone ---------------------------------------------------------

README_LQ = dict(a=0.5, f0=0.3, g0=0.25, q=0.4, r=0.3, s=0.5,
                 b=(((0, 1.0, 0.0), (1, 0.5, 0.0)),), x_tgt=((0, 0.5, 0.0),))


@pytest.mark.parametrize("name,n,overrides", [
    ("lq", 4, README_LQ), ("lq", 6, README_LQ),
    ("quadratic_control", 4, {}), ("quadratic_state", 4, {})],
    ids=["readme-n4", "readme-n6", "quadratic_control", "quadratic_state"])
def test_theorem_passes_at_a_kkt_point(name, n, overrides):
    cfg = parse_config({"problem": {"name": name}, "grid": {"t0": 0.0, "T": 1.0, "N": n},
                        "suites": ["theorem"]})
    cfg.problem = ProblemSpec.gallery(name, **overrides)
    res = run_suite(cfg, "theorem")
    metrics = res.metrics
    assert res.status == "pass", metrics
    assert [c.bound for c in res.checks if c.name == "kkt_residual"] == [1e-12]
    assert (metrics["free"], metrics["strongly_active"], metrics["weakly_active"]) == (n, 0, 0)
    assert metrics["cone_max_s"] < 0 and metrics["cone_max_s"] == max(metrics["cone_spectrum"])


def newton_step(p, u):
    """u - H_P^-1 dt H_u on every coordinate, with no cost check and no box."""
    xbar, adj, sa = stack(p, u)
    g = p.algebra.dt * hu_field(adj)
    h_p, _ = reduced_hessians(sa)
    return u - np.linalg.solve(h_p, g.reshape(-1)).reshape(u.shape)


@pytest.mark.parametrize("q,r", [(0.4, 0.3), (-3.0, 0.05)], ids=["minimum", "saddle"])
def test_planted_stationary_saddle_fails_the_cone_check(q, r):
    # with q = -3 the cost is an indefinite quadratic in u: one Newton step from
    # 0 lands on a stationary point inside the box where eig(H_P) has 0.13, 0.90
    # and 2.23 above 0; with the README rates it lands on the minimum
    alg, p = build("lq", **dict(README_LQ, q=q, r=r), lower=(-2.5,), upper=(2.5,))
    ubar = newton_step(p, np.zeros((alg.n, 1)))
    report = verify_theorem(p, ubar)
    assert report.kkt_residual <= 1e-15 and report.free == alg.n
    if q < 0:
        assert report.cone_spectrum == pytest.approx([-0.7112, 0.1307, 0.9013, 2.2282], abs=1e-4)
        assert report.cone_max_s > 2.0 and failing(report) == ["cone_max_s"]
    else:
        assert report.cone_max_s < 0 and failing(report) == []


@pytest.mark.parametrize("planted", [True, False], ids=["bound-at-optimum", "box"])
def test_weakly_active_plant_reaches_the_support_enumeration(monkeypatch, planted):
    # the upper bound sits at the largest coordinate of the unconstrained
    # optimum, which stays optimal with that coordinate at the bound, H_u = 0
    _, p = build("lq", **README_LQ)
    u_star = newton_step(p, np.zeros((p.algebra.n, 1)))
    top = float(u_star.max())
    if planted:  # the largest coordinate sits exactly on the new upper bound
        p = dataclasses.replace(p, control_set=ControlSet(np.array([-1.0]), np.array([top])))
    supports = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: supports.append(len(h)) or eigh(h))
    report = verify_theorem(p, u_star)
    assert failing(report) == []
    assert report.weakly_active == int(planted)
    assert report.free == p.algebra.n - int(planted)
    # the free block, and with the plant the block of free + weak coordinates too
    n = p.algebra.n
    assert sorted(set(supports)) == ([n - 1, n] if planted else [n])
    assert report.cone_max_s <= 0 and report.cone_max_s >= max(report.cone_spectrum)


def test_cone_max_keeps_weakly_active_coordinates_inward():
    # both coordinates may only grow: the top eigenvector (1, -1)/sqrt(2) of
    # [[0, -1], [-1, 0]] leaves the cone, so the maximum is 0 on an edge
    h = np.array([[0.0, -1.0], [-1.0, 0.0]])
    weak = np.array([True, True])
    best, top = conditions._cone_max(h, ~weak, weak, np.array([1.0, 1.0]))
    assert best == 0.0 and top.tolist() in ([1.0, 0.0], [0.0, 1.0])
    # moving toward each other from opposite bounds, (1, -1) is inward
    best, top = conditions._cone_max(h, ~weak, weak, np.array([1.0, -1.0]))
    assert best == pytest.approx(1.0) and top @ h @ top == pytest.approx(1.0)
    assert top[0] > 0 > top[1]


def test_cone_max_on_a_degenerate_top_eigenspace():
    # h = (I - J/3) - J/3 on 3 weakly active coordinates: the top eigenvalue
    # 1 is double, its eigenspace the zero-sum vectors, and eigh returns one
    # basis of it.  The smaller supports find a sign-consistent top vector
    # whenever the cone meets that eigenspace, whichever basis eigh returns.
    j = np.ones((3, 3)) / 3.0
    h = (np.eye(3) - j) - j
    assert np.allclose(np.linalg.eigvalsh(h), [-1.0, 1.0, 1.0])
    weak = np.ones(3, dtype=bool)
    inward = np.array([1.0, 1.0, -1.0])  # e.g. (1, 0, -1) lies in the cone
    best, top = conditions._cone_max(h, ~weak, weak, inward)
    assert best == pytest.approx(1.0, abs=1e-14) and top @ h @ top == pytest.approx(1.0)
    assert np.linalg.norm(top) == pytest.approx(1.0)
    assert np.all(inward * top >= 0) and np.any(top != 0)
    # the orthant meets no zero-sum vector but 0: the best is a single coordinate
    best, top = conditions._cone_max(h, ~weak, weak, np.ones(3))
    assert best == pytest.approx(1 / 3, abs=1e-14)
    assert np.count_nonzero(top) == 1 and top.max() == 1.0


def test_weak_support_budget_is_checked_before_any_enumeration(monkeypatch):
    monkeypatch.setattr(conditions, "WEAK_SUPPORT_BUDGET", 2)
    monkeypatch.setattr(np.linalg, "eigh", lambda h: pytest.fail("enumerated"))
    weak = np.array([True, True])
    with pytest.raises(BudgetError, match="2\\^2 supports"):
        conditions._cone_max(np.eye(2), ~weak, weak, np.array([1.0, 1.0]))


# -- brute force -------------------------------------------------------------

def test_brute_force_runs_once_per_run(monkeypatch):
    # only optimize brute-forces: theorem starts Newton from the box midpoint
    calls = []
    search = suites.brute_force_search

    def counted(p, points, *args, **kwargs):
        calls.append(points)
        return search(p, points, *args, **kwargs)

    monkeypatch.setattr(suites, "brute_force_search", counted)
    cfg = parse_config({
        "problem": {"name": "lq", "m": 1},
        "grid": {"t0": 0.0, "T": 1.0, "N": 3},
        "suites": ["theorem", "optimize"],
        "seed": 5,
    })
    theorem, optimize = run_all(cfg)
    assert calls == [5]
    assert theorem.status == "pass" and optimize.status == "pass"
    assert "brute_force_value" in optimize.metrics
    list(run_all(cfg))
    assert calls == [5, 5]
    alone = run_suite(cfg, "optimize")
    assert calls == [5, 5, 5]
    assert alone.metrics == optimize.metrics
