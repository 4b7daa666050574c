"""Verification suites behind the CLI: one function per suite.

Every suite draws randomness from a generator seeded by (config seed, suite
index), so reruns and suite subsets reproduce bit-identical numbers.  Suites
return plain metric dictionaries (floats, ints, strings, short lists) ready
for canonical serialization.  Every bound and solver setting is a constant
here (tolerances are reported in the suite's metrics); a run config sets
only the probe counts of ``algebra`` and ``isometry``.  A suite that raises a
:class:`~qsoc.errors.QsocError` ends with status ``error`` and the reason;
the other suites still run.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterator

import numpy as np

from .adjoint import (
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
    TAYLOR_TOL,
    first_order_integral,
    reduced_hessians,
    taylor_consistency,
    verify_theorem,
)
from .config import SUITE_ORDER, ProblemSpec, RunConfig
from .errors import QsocError
from .forward import order_estimate_slopes, solve_first_variation, solve_state
from .matrices import realization_for
from .optimize import (
    GRID_POINTS,
    SCREEN_BLOCK_ENTRIES,
    brute_force_search,
    kkt_point,
    projected_gradient,
)
from .problems import cost, hxx_pairing, make_problem

__all__ = ["SuiteResult", "run_suite", "run_all", "suite_rng"]

# KKT points of theorem and optimize: Newton polish until the largest move of
# the projected step u -> proj(u + dt H_u) is at most KKT_TOL
KKT_TOL, NEWTON_STEPS = 1e-12, 20


@dataclasses.dataclass
class SuiteResult:
    name: str
    status: str  # "pass" | "fail" | "error"
    metrics: dict
    plotdata: dict | None = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def suite_rng(seed: int, suite: str) -> np.random.Generator:
    idx = SUITE_ORDER.index(suite)
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(idx,)))


def _worst(*values) -> float:
    """The largest value, NaN if any is NaN (Python ``max`` can drop a NaN)."""
    return float(np.max(values))


def _interior_control(p, rng, shape, span=0.6):
    lower, upper = p.control_set.lower, p.control_set.upper
    lo = np.where(np.isfinite(lower), lower, np.where(np.isfinite(upper), upper - 2.0, -1.0))
    hi = np.where(np.isfinite(upper), upper, np.where(np.isfinite(lower), lower + 2.0, 1.0))
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

def _law_residuals(alg, A: np.ndarray, B: np.ndarray, C: np.ndarray) -> dict:
    """Largest residual of each product law on one block of probe rows."""
    ab = multiply_batch(alg, A, B)
    out = {}
    res = multiply_batch(alg, ab, C) - multiply_batch(alg, A, multiply_batch(alg, B, C))
    out["assoc"] = float(np.abs(res).max())
    res = np.conj(ab) * alg.reversal_signs \
        - multiply_batch(alg, np.conj(B) * alg.reversal_signs,
                         np.conj(A) * alg.reversal_signs)
    out["star"] = float(np.abs(res).max())
    res = ab * alg.parity_signs \
        - multiply_batch(alg, A * alg.parity_signs, B * alg.parity_signs)
    out["parity"] = float(np.abs(res).max())
    ba = multiply_batch(alg, B, A)
    out["trace"] = float(np.abs(ab[:, 0] - ba[:, 0]).max())
    return out


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
    rows = max(1, SCREEN_BLOCK_ENTRIES // alg.dim)
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
        # generator relations by index arithmetic, blade orthonormality
        # m(star(e_s) e_t) = [s == t] through the product
        table = alg.sign_table
        gi = rng.integers(1, alg.n + 1, size=b)
        gj = rng.integers(1, alg.n + 1, size=b)
        si, sj = 1 << (gi - 1), 1 << (gj - 1)
        same = gi == gj
        worst["square"] = _worst(worst["square"], np.max(
            np.abs(table[si[same], si[same]] - 1.0), initial=0.0))
        worst["anticommute"] = _worst(worst["anticommute"], np.max(
            np.abs(table[si[~same], sj[~same]] + table[sj[~same], si[~same]]),
            initial=0.0))
        ss = rng.integers(0, alg.dim, size=b)
        tt = rng.integers(0, alg.dim, size=b)

        # The products run on row blocks; a product never mixes rows, so a
        # block changes no bit of any residual, only what is held at once.
        for r in range(0, b, rows):
            blk = slice(r, r + rows)
            if done in (0, sparse_end):
                # The laws also hold for a product carried through any
                # invertible map (a wrong blade phase in the matrix form,
                # say); only the sign table can tell the two apart.
                kernel_err = _worst(kernel_err, np.abs(
                    _matrix_product(alg, A[blk], B[blk])
                    - _table_product(alg, A[blk], B[blk])).max())
            for law, res in _law_residuals(alg, A[blk], B[blk], C[blk]).items():
                worst[law] = _worst(worst[law], res)
            s_blk, t_blk = ss[blk], tt[blk]
            es, et = np.zeros((2, len(s_blk), alg.dim), dtype=np.complex128)
            es[np.arange(len(s_blk)), s_blk] = 1.0
            et[np.arange(len(t_blk)), t_blk] = 1.0
            val = multiply_batch(alg, np.conj(es) * alg.reversal_signs, et)[:, 0]
            worst["orthonormal"] = _worst(worst["orthonormal"],
                                          np.abs(val - (s_blk == t_blk)).max())
        done += b
        del A, B, C  # before the next chunk is drawn

    # explicit matrix realization as an independent oracle
    n_or = min(alg.n, 6)
    alg_or = make_algebra(n_or, cfg.t0, cfg.T) if n_or != alg.n else alg
    mr = realization_for(alg_or)
    oracle_err = 0.0
    for _ in range(12):
        a = CliffordElement(alg_or, _unit_rows(rng, 1, alg_or.dim)[0])
        b = CliffordElement(alg_or, _unit_rows(rng, 1, alg_or.dim)[0])
        am, bm = mr.to_matrix(a), mr.to_matrix(b)
        oracle_err = _worst(
            oracle_err,
            np.max(np.abs((a * b).coeffs - mr.from_matrix(alg_or, am @ bm).coeffs)),
            np.max(np.abs(star(a).coeffs - mr.from_matrix(alg_or, am.conj().T).coeffs)),
            abs(state_m(a) - mr.state(am)), abs(inner(a, b) - mr.inner(am, bm)))

    max_law = _worst(*worst.values())
    ok = max_law <= law_tol and _worst(oracle_err, kernel_err) <= oracle_tol
    metrics = {"probes": probes, "law_tol": law_tol,
               "max_law_residual": max_law, **worst,
               "oracle_n": n_or, "oracle_tol": oracle_tol, "oracle_residual": oracle_err,
               "kernel_residual": kernel_err}
    return SuiteResult("algebra", "pass" if ok else "fail", metrics)


# -- isometry ----------------------------------------------------------------

def run_isometry(cfg: RunConfig) -> SuiteResult:
    rng = suite_rng(cfg.seed, "isometry")
    alg = make_algebra(cfg.n_steps, cfg.t0, cfg.T)
    probes = cfg.tolerances.get("isometry", {}).get("probes", 1000)
    tol = 1e-10

    # Probes run in blocks through the row dW kernel.  Each block draws, in
    # one call, only the normals it uses: per probe, step k's (re f / im f /
    # re g / im g, blade) normals on its 2^k adapted blades, at offset
    # 4 (2^k - 1); every blade from 2^k on is zero.
    block = 32
    worst_iso = 0.0
    worst_parity = 0.0
    done = 0
    while done < probes:
        b = min(block, probes - done)
        z = rng.standard_normal((b, 4 * (alg.dim - 1)))
        total = np.zeros((b, alg.dim), dtype=np.complex128)
        acc = np.zeros(b)
        for k in range(alg.n):
            w = 1 << k
            zk = z[:, 4 * (w - 1):4 * (2 * w - 1)].reshape(b, 4, w)
            f, g = np.zeros((2, b, alg.dim), dtype=np.complex128)
            f[:, :w], g[:, :w] = zk[:, 0] + 1j * zk[:, 1], zk[:, 2] + 1j * zk[:, 3]
            lhs = _mul_dw(alg, f, k + 1, "right") + _mul_dw(alg, g, k + 1, "left")
            reduced = f + g * alg.parity_signs
            red = _mul_dw(alg, reduced, k + 1, "right")
            scale = np.maximum(_row_norms(lhs), 1.0)
            worst_parity = _worst(worst_parity,
                                  np.max(np.max(np.abs(lhs - red), axis=1) / scale))
            total += lhs
            acc += alg.dt * _row_norms(reduced) ** 2
        nrm = _row_norms(total) ** 2
        worst_iso = _worst(worst_iso, np.max(
            np.abs(nrm - acc) / np.maximum(np.maximum(nrm, acc), 1.0)))
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
        x1 = solve_first_variation(adj.lin, du)
        worst_dual = _worst(worst_dual, first_duality_residual(p, adj, x1, du))
        fo = first_order_integral(p, ubar, ubar + du, adj)
        jp = cost(p, ubar + h * du, solve_state(p, ubar + h * du))
        jm = cost(p, ubar - h * du, solve_state(p, ubar - h * du))
        dj = (jp - jm) / (2 * h)
        worst_fd = _worst(worst_fd, abs(dj + fo) / max(abs(fo), abs(dj), 1e-8))

    ok = worst_dual <= dual_tol and worst_fd <= fd_tol
    return SuiteResult("gradient", "pass" if ok else "fail",
                       {"trials": trials, "duality_tol": dual_tol,
                        "duality_residual": worst_dual,
                        "fd_tol": fd_tol, "fd_residual": worst_fd})


# -- adjoint (transposition) ---------------------------------------------------

def _test_tuple_draws(rng, alg, pairs_n: int) -> list:
    """The adjoint suite's test-tuple pairs, each element at its adapted width.

    Each pair draws its (tuple, zeta/mu_k../nu_k.., re/im, blade) normals in
    one call, the order in which one dense element at a time would draw
    them, and keeps of an element issued at step j only its first 2^j
    blades; the rest are zero.  Returns (k, rows) per pair, rows[t] the
    1 + 2(N - k) compact rows of tuple t (t1, then t2): about 2^(N+2)
    coefficients a pair instead of 2(1 + 2(N - k)) 2^N dense ones.
    """
    draws = []
    for _ in range(pairs_n):
        k = int(rng.integers(0, alg.n))
        span = alg.n - k
        z = rng.standard_normal((2, 1 + 2 * span, 2, alg.dim))
        steps = [k, *range(k, alg.n), *range(k, alg.n)]
        draws.append((k, [[z[t, r, 0, :1 << j] + 1j * z[t, r, 1, :1 << j]
                           for r, j in enumerate(steps)] for t in range(2)]))
    return draws


def _test_equations(alg, draws: list, k: int) -> tuple:
    """The draws that start at step k, in draw order, as the zero-padded
    (zeta, mu, nu) arrays of :func:`transposition_residual`."""
    pairs = [rows for start, rows in draws if start == k]
    span = alg.n - k
    out = np.zeros((2, len(pairs), 1 + 2 * span, alg.dim), dtype=np.complex128)
    for i, rows in enumerate(pairs):
        for t, tuple_rows in enumerate(rows):
            for r, c in enumerate(tuple_rows):
                out[t, i, r, :c.size] = c
    return out[:, :, 0], out[:, :, 1:1 + span], out[:, :, 1 + span:]


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
            term_p = _worst(term_p, abs(sa.P[alg.n].pair(v, w) + gxx(v, w)))
    else:
        term_p = float(np.max(np.abs(sa.P[alg.n].lin)))

    def rand_adapted(k):
        keep = alg.adapted_mask(k)
        c = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
        return CliffordElement(alg, np.where(keep, c, 0))

    # one check per start index, its arrays built just before it
    draws = _test_tuple_draws(rng, alg, pairs_n)
    trans_res = float(np.max([transposition_residual(p, sa, k, *_test_equations(alg, draws, k))
                              for k in dict.fromkeys(k for k, _ in draws)], initial=0.0))
    del draws

    sym_err = 0.0
    for k in range(alg.n + 1):
        z1, z2 = rand_adapted(k), rand_adapted(k)
        a, b = sa.P[k].pair(z2, z1), sa.P[k].pair(z1, z2)
        sym_err = _worst(sym_err, abs(a.real - b.real) / (1 + abs(a)))

    # the curvature hook that built P against the raw callbacks, one pair a step
    curv_err = 0.0
    for k, mk in enumerate(sa.M):
        if mk is not None:
            rows = np.zeros((2, alg.dim), dtype=np.complex128)
            rows[:, :1 << k] = _unit_rows(rng, 2, 1 << k)
            v, w = CliffordElement(alg, rows[0]), CliffordElement(alg, rows[1])
            form = hxx_pairing(p, k, xbar[k], ubar[k], adj.yhat[k], adj.Y[k])
            want = form(v, w)
            curv_err = _worst(curv_err, abs(mk.pair(v, w) - want) / (1 + abs(want)))
    del sa, adj  # the problem below draws nothing

    # Closed form: without its quadratic-state terms the problem has D = a x,
    # F = f0 x and G = g0 x in the state, so P_k = alpha_k on even blades and
    # beta_k on odd ones; the noise half moves a blade by e_{k+1}, which
    # flips its parity.  Compared relative to the size of the diagonal.
    spec = dataclasses.replace(cfg.problem, qd=None, qf=None, qg=None)
    p_lin = make_problem(alg, spec)
    x_lin = solve_state(p_lin, ubar)
    sa_lin = compute_P(p_lin, x_lin, ubar, solve_first_adjoint(p_lin, x_lin, ubar))
    dt, grow = alg.dt, (1.0 + spec.a * alg.dt) ** 2
    even = alg.parity_signs > 0
    alpha = beta = -2.0 * spec.s
    closed = []
    for k in range(alg.n, -1, -1):
        if k < alg.n:
            alpha, beta = (
                grow * alpha + dt * (spec.f0 + spec.g0) ** 2 * beta - 2.0 * spec.q * dt,
                grow * beta + dt * (spec.f0 - spec.g0) ** 2 * alpha - 2.0 * spec.q * dt)
        pk = sa_lin.P[k]
        want = np.diag(np.where(even[:1 << k], alpha, beta))
        closed.append(np.inf if pk.antilin is not None else
                      np.max(np.abs(pk.lin - want)) / (1.0 + max(abs(alpha), abs(beta))))
    closed_err = _worst(*closed)

    ok = (trans_res <= trans_tol and closed_err <= closed_tol and term_y <= 1e-14
          and term_p <= 1e-12 and curv_err <= 1e-12 and sym_err <= 1e-9)
    return SuiteResult("adjoint", "pass" if ok else "fail",
                       {"pairs": pairs_n, "transposition_tol": trans_tol,
                        "transposition_residual": trans_res,
                        "terminal_y_error": term_y, "terminal_p_error": term_p,
                        "curvature_error": curv_err,
                        "closed_form_error": closed_err,
                        "real_symmetry_error": sym_err})


# -- second order --------------------------------------------------------------

def run_second_order(cfg: RunConfig) -> SuiteResult:
    rng = suite_rng(cfg.seed, "second_order")
    alg = make_algebra(cfg.n_steps, cfg.t0, cfg.T)
    p = make_problem(alg, cfg.problem)
    eps = [2.0 ** -e for e in range(4, 9)]
    ubar = _interior_control(p, rng, (alg.n, p.m), span=0.4)
    u = _interior_control(p, rng, (alg.n, p.m), span=0.9)
    rep = taylor_consistency(p, ubar, u, eps)
    plot = {"taylor_sweep": [(e, g) for e, g in zip(rep.eps, rep.gaps)]}
    return SuiteResult("second_order", "pass" if rep.passed else "fail",
                       {"tol": TAYLOR_TOL, "fo": rep.fo, "s": rep.s,
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

    # Newton from the box midpoint, an open side counting as 0
    bounds = np.array([p.control_set.lower, p.control_set.upper])
    mid = p.control_set.project(np.where(np.isfinite(bounds), bounds, 0.0).mean(axis=0))
    ubar, polish = kkt_point(p, np.tile(mid, (alg.n, 1)), KKT_TOL, NEWTON_STEPS)
    report = verify_theorem(p, ubar, s_tol=s_tol)

    # analytic companion: no dynamics and a pure control cost, so H = -2r dt I
    # and S = -2r dt ||du||^2
    r_rate = 0.5
    p_zero = make_problem(alg, ProblemSpec.gallery(
        "lq", m=p.m, a=0.0, f0=0.0, g0=0.0, b=None, f=None, g=None,
        q=0.0, r=r_rate, s=0.0, x_tgt=None))
    u0 = np.zeros((alg.n, p.m))
    x0t = solve_state(p_zero, u0)
    adj0 = solve_first_adjoint(p_zero, x0t, u0)
    h_zero, _ = reduced_hessians(p_zero, adj0, compute_P(p_zero, x0t, u0, adj0))
    want = -2.0 * r_rate * alg.dt * np.eye(alg.n * p.m)
    analytic_err = float(np.max(np.abs(h_zero - want)))

    ok = report.verdict_ok and report.kkt_residual <= KKT_TOL and analytic_err <= analytic_tol
    metrics = {"kkt_tol": KKT_TOL, "s_tol": s_tol, "newton_steps": polish.newton_steps,
               "gradient_steps": polish.gradient_steps, "cost": polish.costs[-1],
               **dataclasses.asdict(report), "analytic_max_error": analytic_err}
    plot = {"theorem_spectrum": list(enumerate(report.cone_spectrum))}
    return SuiteResult("theorem", "pass" if ok else "fail", metrics, plotdata=plot)


# -- optimize ------------------------------------------------------------------

def run_optimize(cfg: RunConfig) -> SuiteResult:
    rng = suite_rng(cfg.seed, "optimize")
    alg = make_algebra(cfg.n_steps, cfg.t0, cfg.T)
    p = make_problem(alg, cfg.problem)
    u0 = _interior_control(p, rng, (alg.n, p.m), span=0.8)
    u, trace = projected_gradient(p, u0, step=0.5, max_iter=300, grad_tol=1e-9)
    u, polish = kkt_point(p, u, KKT_TOL, NEWTON_STEPS)
    costs = trace.costs + polish.costs[1:]
    metrics = {"iterations": trace.iterations, "final_cost": costs[-1],
               "final_grad_norm": trace.grad_norms[-1] if trace.grad_norms else 0.0,
               "converged": trace.converged, "stalled": trace.stalled,
               "step_halvings": trace.step_halvings,
               "newton_steps": polish.newton_steps, "gradient_steps": polish.gradient_steps,
               "kkt_tol": KKT_TOL, "kkt_residual": polish.kkt_residual}
    ok = polish.kkt_residual <= KKT_TOL
    if p.control_set.is_bounded() and GRID_POINTS ** (alg.n * p.m) <= 10 ** 5:
        _, j_bf = brute_force_search(p, GRID_POINTS)
        metrics["brute_force_value"] = j_bf
        ok = ok and costs[-1] <= j_bf + 1e-9
    monotone = all(nxt - prev <= 1e-14 for prev, nxt in zip(costs[:-1], costs[1:]))
    metrics["trace_monotone"] = monotone
    plot = {"optimize_trace": [(float(i), c) for i, c in enumerate(costs)]}
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

    A suite that raises a :class:`QsocError` (a step that stays non-finite, a
    grid with no finite cost, a budget exceeded at run time) yields status
    ``error`` with the reason, and the remaining suites still run.
    """
    for name in cfg.suites:
        try:
            result = run_suite(cfg, name)
        except QsocError as exc:
            result = SuiteResult(name, "error", {"reason": str(exc)})
        yield result
