"""Verification suites behind the CLI: one function per suite.

Every suite draws randomness from a generator seeded by (config seed, suite
index), so reruns and suite subsets reproduce bit-identical numbers.  Suites
return plain metric dictionaries (floats, ints, strings, short lists) ready
for canonical serialization.  Every bound and solver setting is a constant
here (tolerances are reported in the suite's metrics); a run config sets
only the probe counts of ``algebra`` and ``isometry``.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from .adjoint import (
    TestTuple,
    compute_P,
    first_duality_residual,
    solve_first_adjoint,
    transposition_residual,
)
from .clifford import (
    CliffordElement,
    _matrix_product,
    _mul_dw,
    _row_norms,
    _table_product,
    inner,
    make_algebra,
    multiply_batch,
    star,
    state_m,
)
from .conditions import (
    first_order_integral,
    quadratic_scores,
    reduced_hessians,
    taylor_consistency,
    verify_theorem,
)
from .config import SUITE_ORDER, RunConfig
from .forward import order_estimate_slopes, solve_first_variation, solve_state
from .matrices import realization_for
from .optimize import GRID_POINTS, brute_force_search, control_grid, projected_gradient
from .problems import ProblemSpec, cost, make_problem

__all__ = ["SuiteResult", "run_suite", "run_all", "suite_rng"]


@dataclass
class SuiteResult:
    name: str
    status: str  # "pass" | "fail"
    metrics: dict
    plotdata: dict | None = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def suite_rng(seed: int, suite: str) -> np.random.Generator:
    idx = SUITE_ORDER.index(suite)
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(idx,)))


# Results shared by the suites of one run.  run_suite(cfg, name) stays the
# per-suite entry point, so they travel beside it, bound only inside run_all.
_RUN_RESULTS: ContextVar[list | None] = ContextVar("qsoc_run_results", default=None)


def _brute_force(cfg: RunConfig, p):
    """brute_force_search on the config's problem, once per run_all."""
    shared = _RUN_RESULTS.get()
    if shared is None:
        return brute_force_search(p, GRID_POINTS)
    key = (cfg.problem, cfg.t0, cfg.T, cfg.n_steps)
    for seen, found in shared:
        if seen == key:
            break
    else:
        found = brute_force_search(p, GRID_POINTS)
        shared.append((key, found))
    return found[0].copy(), found[1]


def _interior_control(p, rng, shape, span=0.6):
    lo = np.where(np.isfinite(p.control_set.lower), p.control_set.lower, -1.0)
    hi = np.where(np.isfinite(p.control_set.upper), p.control_set.upper, 1.0)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo) * span
    return mid + (2.0 * rng.random(shape) - 1.0) * half


def _unit_rows(rng, count, dim):
    z = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def _unit_rows_on_support(rng, count, dim, support):
    """Unit-norm rows living on a shared random blade support."""
    z = np.zeros((count, dim), dtype=np.complex128)
    z[:, support] = rng.standard_normal((count, support.size)) \
        + 1j * rng.standard_normal((count, support.size))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


# -- algebra -----------------------------------------------------------------

def run_algebra(cfg: RunConfig) -> SuiteResult:
    rng = suite_rng(cfg.seed, "algebra")
    alg = make_algebra(cfg.n_steps, cfg.t0, cfg.T)
    probes = cfg.tolerances.get("algebra", {}).get("probes", 10000)
    law_tol, oracle_tol = 1e-10, 1e-12

    worst = {"assoc": 0.0, "anticommute": 0.0, "star": 0.0, "parity": 0.0,
             "trace": 0.0, "orthonormal": 0.0, "square": 0.0}
    kernel_err = 0.0
    chunk = 250
    # The laws are multilinear, so probing random sparse supports with random
    # coefficients tests them as strongly as dense draws; a dense tail keeps
    # full-width products in the mix at an affordable cost.
    dense_tail = min(probes, max(50, probes // 100))
    sparse_end = probes - dense_tail
    support_width = min(alg.dim, 16)
    done = 0
    while done < probes:
        if done < sparse_end:
            b = min(chunk, sparse_end - done)
            A, B, C = (
                _unit_rows_on_support(
                    rng, b, alg.dim,
                    np.sort(rng.choice(alg.dim, size=support_width, replace=False)))
                for _ in range(3))
        else:
            b = min(chunk, probes - done)
            A, B, C = (_unit_rows(rng, b, alg.dim) for _ in range(3))
        if done in (0, sparse_end):
            # The laws also hold for a product carried through any invertible
            # map (a wrong blade phase in the matrix form, say); only the
            # sign table can tell the two apart.
            kernel_err = max(kernel_err, float(np.abs(
                _matrix_product(alg, A, B) - _table_product(alg, A, B)).max()))
        ab = multiply_batch(alg, A, B)
        res = multiply_batch(alg, ab, C) - multiply_batch(alg, A, multiply_batch(alg, B, C))
        worst["assoc"] = max(worst["assoc"], float(np.abs(res).max()))
        res = np.conj(ab) * alg.reversal_signs \
            - multiply_batch(alg, np.conj(B) * alg.reversal_signs,
                             np.conj(A) * alg.reversal_signs)
        worst["star"] = max(worst["star"], float(np.abs(res).max()))
        res = ab * alg.parity_signs \
            - multiply_batch(alg, A * alg.parity_signs, B * alg.parity_signs)
        worst["parity"] = max(worst["parity"], float(np.abs(res).max()))
        ba = multiply_batch(alg, B, A)
        res = np.abs(ab[:, 0] - ba[:, 0])
        worst["trace"] = max(worst["trace"], float(res.max()))

        # generator relations by index arithmetic, blade orthonormality
        # m(star(e_s) e_t) = [s == t] through the product
        table = alg.sign_table
        gi = rng.integers(1, alg.n + 1, size=b)
        gj = rng.integers(1, alg.n + 1, size=b)
        si, sj = 1 << (gi - 1), 1 << (gj - 1)
        same = gi == gj
        worst["square"] = max(worst["square"], float(np.max(
            np.abs(table[si[same], si[same]] - 1.0), initial=0.0)))
        worst["anticommute"] = max(worst["anticommute"], float(np.max(
            np.abs(table[si[~same], sj[~same]] + table[sj[~same], si[~same]]),
            initial=0.0)))
        ss = rng.integers(0, alg.dim, size=b)
        tt = rng.integers(0, alg.dim, size=b)
        es, et = np.zeros((2, b, alg.dim), dtype=np.complex128)
        es[np.arange(b), ss] = 1.0
        et[np.arange(b), tt] = 1.0
        val = multiply_batch(alg, np.conj(es) * alg.reversal_signs, et)[:, 0]
        worst["orthonormal"] = max(worst["orthonormal"],
                                   float(np.abs(val - (ss == tt)).max()))
        done += b

    # explicit matrix realization as an independent oracle
    n_or = min(alg.n, 6)
    alg_or = make_algebra(n_or, cfg.t0, cfg.T) if n_or != alg.n else alg
    mr = realization_for(alg_or)
    oracle_err = 0.0
    for _ in range(12):
        a = CliffordElement(alg_or, _unit_rows(rng, 1, alg_or.dim)[0])
        b = CliffordElement(alg_or, _unit_rows(rng, 1, alg_or.dim)[0])
        am, bm = mr.to_matrix(a), mr.to_matrix(b)
        oracle_err = max(oracle_err, float(np.max(np.abs(
            (a * b).coeffs - mr.from_matrix(alg_or, am @ bm).coeffs))))
        oracle_err = max(oracle_err, float(np.max(np.abs(
            star(a).coeffs - mr.from_matrix(alg_or, am.conj().T).coeffs))))
        oracle_err = max(oracle_err, abs(state_m(a) - mr.state(am)))
        oracle_err = max(oracle_err, abs(inner(a, b) - mr.inner(am, bm)))

    ok = max(worst.values()) <= law_tol and max(oracle_err, kernel_err) <= oracle_tol
    metrics = {"probes": probes, "law_tol": law_tol,
               "max_law_residual": max(worst.values()), **worst,
               "oracle_n": n_or, "oracle_tol": oracle_tol, "oracle_residual": oracle_err,
               "kernel_residual": kernel_err}
    return SuiteResult("algebra", "pass" if ok else "fail", metrics)


# -- isometry ----------------------------------------------------------------

def run_isometry(cfg: RunConfig) -> SuiteResult:
    rng = suite_rng(cfg.seed, "isometry")
    alg = make_algebra(cfg.n_steps, cfg.t0, cfg.T)
    probes = cfg.tolerances.get("isometry", {}).get("probes", 1000)
    tol = 1e-10

    # Probes run in blocks through the row dW kernel.  Each block draws its
    # (probe, step, re f / im f / re g / im g, blade) normals in one call, the
    # order in which one probe at a time would draw them.
    block = 32
    worst_iso = 0.0
    worst_parity = 0.0
    done = 0
    while done < probes:
        b = min(block, probes - done)
        z = rng.standard_normal((b, alg.n, 4, alg.dim))
        total = np.zeros((b, alg.dim), dtype=np.complex128)
        acc = np.zeros(b)
        for k in range(alg.n):
            keep = alg.adapted_mask(k)
            f = np.where(keep, z[:, k, 0] + 1j * z[:, k, 1], 0)
            g = np.where(keep, z[:, k, 2] + 1j * z[:, k, 3], 0)
            lhs = _mul_dw(alg, f, k + 1, "right") + _mul_dw(alg, g, k + 1, "left")
            reduced = f + g * alg.parity_signs
            red = _mul_dw(alg, reduced, k + 1, "right")
            scale = np.maximum(_row_norms(lhs), 1.0)
            worst_parity = max(worst_parity, float(np.max(
                np.max(np.abs(lhs - red), axis=1) / scale)))
            total += lhs
            acc += alg.dt * _row_norms(reduced) ** 2
        nrm = _row_norms(total) ** 2
        worst_iso = max(worst_iso, float(np.max(
            np.abs(nrm - acc) / np.maximum(np.maximum(nrm, acc), 1.0))))
        done += b

    ok = worst_iso <= tol and worst_parity <= tol
    return SuiteResult("isometry", "pass" if ok else "fail",
                       {"probes": probes, "tol": tol,
                        "isometry_residual": worst_iso,
                        "parity_reduction_residual": worst_parity})


# -- orders ------------------------------------------------------------------

def run_orders(cfg: RunConfig) -> SuiteResult:
    rng = suite_rng(cfg.seed, "orders")
    alg = make_algebra(cfg.n_steps, cfg.t0, cfg.T)
    p = make_problem(alg, cfg.problem)
    eps = [2.0 ** -e for e in range(3, 10)]
    ubar = _interior_control(p, rng, (alg.n, p.m), span=0.5)
    u = _interior_control(p, rng, (alg.n, p.m), span=1.0)
    rep = order_estimate_slopes(p, ubar, u, eps)
    ok = rep.dx.within(0.9, 1.1) and rep.dx_minus_x1.within(1.8, 2.2) \
        and rep.dx_minus_x1_x2.at_least(2.5)

    def describe(fit):
        return {"slope": fit.slope, "exact": fit.exact}

    plot = {"orders_sweep": [(e, v0, v1, v2) for (e, v0), (_, v1), (_, v2) in zip(
        rep.dx.points, rep.dx_minus_x1.points, rep.dx_minus_x1_x2.points)]}
    return SuiteResult("orders", "pass" if ok else "fail",
                       {"deviation": describe(rep.dx),
                        "deviation_minus_linear": describe(rep.dx_minus_x1),
                        "deviation_minus_quadratic": describe(rep.dx_minus_x1_x2)},
                       plotdata=plot)


# -- gradient ----------------------------------------------------------------

def run_gradient(cfg: RunConfig) -> SuiteResult:
    rng = suite_rng(cfg.seed, "gradient")
    alg = make_algebra(cfg.n_steps, cfg.t0, cfg.T)
    p = make_problem(alg, cfg.problem)
    trials, dual_tol, fd_tol, h = 5, 1e-10, 1e-6, 1e-4

    ubar = _interior_control(p, rng, (alg.n, p.m), span=0.5)
    xbar = solve_state(p, ubar)
    adj = solve_first_adjoint(p, xbar, ubar)
    j0 = cost(p, ubar, xbar)

    worst_dual = 0.0
    worst_fd = 0.0
    for _ in range(trials):
        du = rng.uniform(-0.3, 0.3, size=(alg.n, p.m))
        x1 = solve_first_variation(p, xbar, du)
        worst_dual = max(worst_dual, first_duality_residual(p, adj, x1, du))
        fo = first_order_integral(p, ubar, ubar + du, adj)
        jp = cost(p, ubar + h * du, solve_state(p, ubar + h * du))
        jm = cost(p, ubar - h * du, solve_state(p, ubar - h * du))
        dj = (jp - jm) / (2 * h)
        worst_fd = max(worst_fd, abs(dj + fo) / max(abs(fo), abs(dj), 1e-8))

    ok = worst_dual <= dual_tol and worst_fd <= fd_tol
    return SuiteResult("gradient", "pass" if ok else "fail",
                       {"trials": trials, "duality_tol": dual_tol,
                        "duality_residual": worst_dual,
                        "fd_tol": fd_tol, "fd_residual": worst_fd})


# -- adjoint (transposition) ---------------------------------------------------

def run_adjoint(cfg: RunConfig) -> SuiteResult:
    rng = suite_rng(cfg.seed, "adjoint")
    alg = make_algebra(cfg.n_steps, cfg.t0, cfg.T)
    p = make_problem(alg, cfg.problem)
    pairs_n, trans_tol, closed_tol = 100, 1e-9, 1e-10

    ubar = _interior_control(p, rng, (alg.n, p.m), span=0.5)
    xbar = solve_state(p, ubar)
    adj = solve_first_adjoint(p, xbar, ubar)
    sa = compute_P(p, xbar, ubar, adj)

    term_y = float(np.max(np.abs((adj.y[alg.n] + p.g_x(xbar.terminal)).coeffs)))
    term_p = 0.0
    if p.g_xx is not None:
        gxx = p.g_xx(xbar.terminal)
        for _ in range(8):
            v = CliffordElement(alg, _unit_rows(rng, 1, alg.dim)[0])
            w = CliffordElement(alg, _unit_rows(rng, 1, alg.dim)[0])
            term_p = max(term_p, abs(sa.P[alg.n].pair(v, w) + gxx(v, w)))
    else:
        term_p = float(np.max(np.abs(sa.P[alg.n].lin)))

    def rand_adapted(k):
        keep = alg.adapted_mask(k)
        c = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
        return CliffordElement(alg, np.where(keep, c, 0))

    tuples = []
    for i in range(pairs_n):
        k = int(rng.integers(0, alg.n))
        mk = lambda: TestTuple(k=k, zeta=rand_adapted(k),
                               mu=[rand_adapted(j) for j in range(k, alg.n)],
                               nu=[rand_adapted(j) for j in range(k, alg.n)])
        tuples.append((mk(), mk()))
    trans_res = transposition_residual(p, sa, tuples)

    # closed form on an auxiliary zero-dynamics running-cost instance
    q_rate = 0.7
    p_free = make_problem(alg, ProblemSpec.gallery("free", q=q_rate, r=0.0, s=0.0,
                                                   x_tgt=None))
    u0 = np.zeros((alg.n, p_free.m))
    x0t = solve_state(p_free, u0)
    adj0 = solve_first_adjoint(p_free, x0t, u0)
    sa0 = compute_P(p_free, x0t, u0, adj0)
    closed_err = 0.0
    for k in range(alg.n + 1):
        want = -2.0 * q_rate * (alg.T - alg.time(k)) * np.eye(1 << k)
        closed_err = max(closed_err, float(np.max(np.abs(sa0.P[k].lin - want))))

    sym_err = 0.0
    for k in range(alg.n + 1):
        z1, z2 = rand_adapted(k), rand_adapted(k)
        a, b = sa.P[k].pair(z2, z1), sa.P[k].pair(z1, z2)
        sym_err = max(sym_err, abs(a.real - b.real) / (1 + abs(a)))

    ok = (trans_res <= trans_tol and closed_err <= closed_tol
          and term_y <= 1e-14 and term_p <= 1e-12 and sym_err <= 1e-9)
    return SuiteResult("adjoint", "pass" if ok else "fail",
                       {"pairs": pairs_n, "transposition_tol": trans_tol,
                        "transposition_residual": trans_res,
                        "terminal_y_error": term_y, "terminal_p_error": term_p,
                        "closed_form_error": closed_err,
                        "real_symmetry_error": sym_err})


# -- second order --------------------------------------------------------------

def run_second_order(cfg: RunConfig) -> SuiteResult:
    rng = suite_rng(cfg.seed, "second_order")
    alg = make_algebra(cfg.n_steps, cfg.t0, cfg.T)
    p = make_problem(alg, cfg.problem)
    tol = 1e-3
    eps = [2.0 ** -e for e in range(4, 9)]
    ubar = _interior_control(p, rng, (alg.n, p.m), span=0.4)
    u = _interior_control(p, rng, (alg.n, p.m), span=0.9)
    rep = taylor_consistency(p, ubar, u, eps, tol=tol)
    plot = {"taylor_sweep": [(e, g) for e, g in zip(rep.eps, rep.gaps)]}
    return SuiteResult("second_order", "pass" if rep.passed else "fail",
                       {"tol": tol, "fo": rep.fo, "s": rep.s,
                        "a_est": rep.a_est, "s_est": rep.s_est,
                        "rel_err_first_order": rep.rel_err_a,
                        "rel_err_second_order": rep.rel_err_s,
                        "fit_residual": rep.fit_residual,
                        "route_gap": rep.route_gap},
                       plotdata=plot)


# -- theorem -------------------------------------------------------------------

def run_theorem(cfg: RunConfig) -> SuiteResult:
    alg = make_algebra(cfg.n_steps, cfg.t0, cfg.T)
    p = make_problem(alg, cfg.problem)
    s_tol, analytic_tol = 1e-6, 1e-10

    ubar, j_star = _brute_force(cfg, p)
    candidates = list(control_grid(p, GRID_POINTS))
    report = verify_theorem(p, ubar, candidates, s_tol=s_tol)

    # analytic companion: pure control cost, so H = -2r dt I and S = -2r dt ||du||^2
    r_rate = 0.5
    p_free = make_problem(alg, ProblemSpec.gallery(
        "free", m=p.m, lower=tuple(p.control_set.lower), upper=tuple(p.control_set.upper),
        q=0.0, r=r_rate, s=0.0, x_tgt=None))
    u0 = np.zeros((alg.n, p.m))
    x0t = solve_state(p_free, u0)
    adj0 = solve_first_adjoint(p_free, x0t, u0)
    h_free, _ = reduced_hessians(p_free, adj0, compute_P(p_free, x0t, u0, adj0))
    want = -2.0 * r_rate * alg.dt * np.eye(alg.n * p.m)
    analytic_err = float(np.max(np.abs(h_free - want)))
    dus = (np.array(candidates) - u0).reshape(len(candidates), -1)
    analytic_ok = bool(np.all(quadratic_scores(h_free, dus) <= s_tol))

    ok = report.verdict and analytic_err <= analytic_tol and analytic_ok
    gated_s = [s for fo, s, gated, _ in report.rows if gated]
    metrics = {"grid_points": GRID_POINTS, "candidates": len(candidates),
               "brute_force_value": j_star,
               "fo_tol": report.fo_tol, "s_tol": s_tol,
               "gated_count": report.gated_count,
               "max_gated_s": max(gated_s) if gated_s else 0.0,
               "max_route_gap": report.max_route_gap,
               "max_oracle_gap": report.max_oracle_gap,
               "analytic_max_error": analytic_err,
               "verdict_ok": report.verdict,
               "fo_s_table": [[fo, s] for fo, s, _, _ in report.rows]}
    plot = {"theorem_fo_s": [(fo, s) for fo, s, _, _ in report.rows]}
    return SuiteResult("theorem", "pass" if ok else "fail", metrics, plotdata=plot)


# -- optimize ------------------------------------------------------------------

def run_optimize(cfg: RunConfig) -> SuiteResult:
    rng = suite_rng(cfg.seed, "optimize")
    alg = make_algebra(cfg.n_steps, cfg.t0, cfg.T)
    p = make_problem(alg, cfg.problem)
    u0 = _interior_control(p, rng, (alg.n, p.m), span=0.8)
    u, trace = projected_gradient(p, u0, step=0.5, max_iter=300, grad_tol=1e-9)
    metrics = {"iterations": trace.iterations, "final_cost": trace.costs[-1],
               "final_grad_norm": trace.grad_norms[-1] if trace.grad_norms else 0.0,
               "converged": trace.converged, "stalled": trace.stalled,
               "step_halvings": trace.step_halvings}
    ok = trace.converged or trace.stalled
    if p.control_set.is_bounded() and GRID_POINTS ** (alg.n * p.m) <= 10 ** 5:
        _, j_bf = _brute_force(cfg, p)
        metrics["brute_force_value"] = j_bf
        ok = ok and trace.costs[-1] <= j_bf + 1e-9
    monotone = all(nxt - prev <= 1e-14
                   for prev, nxt in zip(trace.costs[:-1], trace.costs[1:]))
    metrics["trace_monotone"] = monotone
    plot = {"optimize_trace": [(float(i), c) for i, c in enumerate(trace.costs)]}
    return SuiteResult("optimize", "pass" if (ok and monotone) else "fail",
                       metrics, plotdata=plot)


_RUNNERS = {
    "algebra": run_algebra,
    "isometry": run_isometry,
    "orders": run_orders,
    "gradient": run_gradient,
    "adjoint": run_adjoint,
    "second_order": run_second_order,
    "theorem": run_theorem,
    "optimize": run_optimize,
}


def run_suite(cfg: RunConfig, name: str) -> SuiteResult:
    return _RUNNERS[name](cfg)


def run_all(cfg: RunConfig) -> Iterator[SuiteResult]:
    """Run the config's suites in order, yielding each result as it finishes.

    The suites of one run share results they would recompute: only the
    brute-force grid minimum (theorem and optimize both need it).  Nothing
    outlives the run, so a later run never sees results computed against
    other code or data.
    """
    token = _RUN_RESULTS.set([])
    try:
        for name in cfg.suites:
            yield run_suite(cfg, name)
    finally:
        _RUN_RESULTS.reset(token)
