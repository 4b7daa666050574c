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
    _mul_dw,
    _padded,
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
from .forward import order_estimate_slopes, solve_state, stacked_costs
from .matrices import realization_for
from .optimize import (
    BRUTE_FORCE_BUDGET,
    GRID_POINTS,
    KKT_TOL,
    SCREEN_BLOCK_ENTRIES,
    brute_force_search,
    kkt_point,
    projected_gradient,
)
from .problems import hxx_pairing, make_problem

__all__ = ["SuiteResult", "run_suite", "run_all", "suite_rng"]


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


def _unit_rows_on_support(rng, count, dim, width):
    """Unit-norm rows living on a shared random support of ``width`` blades,
    and that support (sorted)."""
    support = np.sort(rng.choice(dim, size=width, replace=False))
    rows = np.zeros((count, dim), dtype=np.complex128)
    rows[:, support] = _unit_rows(rng, count, width)
    return support, rows


# -- algebra -----------------------------------------------------------------

def _blade_laws(alg) -> dict:
    """Largest defect (0 or 2) of each product law, exactly, on the sign table.

    The laws are multilinear, so they hold for the product if and only if
    they hold on blades, e_s e_t = sig(s,t) e_{s^t}: for all blades s, t and
    generators g != h, assoc sig(s,t) sig(s^t,g) = sig(t,g) sig(s,t^g) (full
    associativity by induction on the grade of the last factor), star
    rev(s^t) sig(s,t) = rev(s) rev(t) sig(t,s), parity par(s^t) = par(s)
    par(t), orthonormal rev(s) sig(s,s) = 1, square sig(g,g) = 1 and
    anticommute sig(g,h) = -sig(h,g), in int8 on row blocks of s.
    """
    table, masks = alg.sign_table, alg._masks
    rev = alg.reversal_signs.astype(np.int8)
    par = alg.parity_signs.astype(np.int8)
    gens = 1 << np.arange(alg.n)
    at_gens = np.ascontiguousarray(table[:, gens])  # sig(t, g)
    flip = masks[:, None] ^ gens  # t ^ g
    on_gens = at_gens[gens]
    worst = {
        "assoc": 0,
        "anticommute": np.abs(on_gens + on_gens.T)[~np.eye(alg.n, dtype=bool)].max(initial=0),
        "star": 0, "parity": 0,
        "orthonormal": np.abs(rev * table.diagonal() - 1).max(),
        "square": np.abs(on_gens.diagonal() - 1).max(),
    }
    rows = max(1, SCREEN_BLOCK_ENTRIES // alg.dim)
    for r in range(0, alg.dim, rows):
        s = masks[r:r + rows]
        u = s[:, None] ^ masks
        st = table[s]
        worst["star"] = max(worst["star"], np.abs(
            rev[u] * st - rev[s, None] * rev * table[:, s].T).max())
        worst["parity"] = max(worst["parity"], np.abs(par[u] - par[s, None] * par).max())
        worst["assoc"] = max(worst["assoc"], np.abs(
            st[:, :, None] * at_gens[u] - at_gens * st[:, flip]).max())
    return {law: float(v) for law, v in worst.items()}


def run_algebra(cfg: RunConfig) -> SuiteResult:
    rng = suite_rng(cfg.seed, "algebra")
    alg = make_algebra(cfg.n_steps, cfg.t0, cfg.T)
    probes = cfg.tolerances.get("algebra", {}).get("probes", 10000)
    law_tol, oracle_tol = 0.0, 1e-12
    laws = _blade_laws(alg)

    # The probes compare the product kernel (the matrix form above 6 live
    # blades) with the sign-table reference: two bilinear maps that differ
    # also differ on random rows.  Sparse supports come first, then a dense
    # tail keeps full-width products in the mix.
    kernel_err = 0.0
    chunk = 250
    dense_tail = min(probes, max(50, probes // 100))
    sparse_end = probes - dense_tail
    support_width = min(alg.dim, 16)
    rows = max(1, SCREEN_BLOCK_ENTRIES // alg.dim)
    done = 0
    while done < probes:
        if done < sparse_end:
            b = min(chunk, sparse_end - done)
            (live_a, A), (live_b, B) = (
                _unit_rows_on_support(rng, b, alg.dim, support_width) for _ in range(2))
        else:
            b = min(chunk, probes - done)
            A, B = (_unit_rows(rng, b, alg.dim) for _ in range(2))
            live_a = live_b = None
        # The products run on row blocks; a product never mixes rows, so a
        # block changes no bit of the residual, only what is held at once.
        # The reference meets a sparse chunk only at its shared supports.
        for r in range(0, b, rows):
            blk = slice(r, r + rows)
            kernel_err = _worst(kernel_err, np.abs(
                multiply_batch(alg, A[blk], B[blk])
                - _table_product(alg, A[blk], B[blk], live_a, live_b)).max())
        done += b
        del A, B  # before the next chunk is drawn

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

    max_law = _worst(*laws.values())
    ok = max_law <= law_tol and _worst(oracle_err, kernel_err) <= oracle_tol
    metrics = {"probes": probes, "law_tol": law_tol,
               "max_law_residual": max_law, **laws,
               "oracle_n": n_or, "oracle_tol": oracle_tol, "oracle_residual": oracle_err,
               "kernel_residual": kernel_err}
    return SuiteResult("algebra", "pass" if ok else "fail", metrics)


# -- isometry ----------------------------------------------------------------

def run_isometry(cfg: RunConfig) -> SuiteResult:
    """The dW kernel against the sign table: the Ito isometry on blades.

    dW_{k+1} = sqrt(dt) e_{k+1} moves blade s < 2^k of an integrand adapted
    at step k to s ^ 2^k, with sign(s, 2^k) on the right and sign(2^k, s) on
    the left.  Exactly (int signs, 0 or 2): the kernel's signs are that column
    and row, and left = parity * right, i.e. dW g = parity(g) dW.  In floats:
    ``_mul_dw`` on both sides of every probe row cut to 2^k blades is that
    signed permutation times sqrt(dt) on 2^(k+1) columns.  Step k's images
    lie in [2^k, 2^(k+1)), so the steps are disjoint and the isometry follows.
    """
    rng = suite_rng(cfg.seed, "isometry")
    alg = make_algebra(cfg.n_steps, cfg.t0, cfg.T)
    probes = cfg.tolerances.get("isometry", {}).get("probes", 1000)
    law_tol, tol = 0.0, 1e-10
    table, root = alg.sign_table, np.sqrt(alg.dt)
    # per step k, the sign table's generator column and row on the 2^k adapted blades
    signs = [(table[:1 << k, 1 << k], table[1 << k, :1 << k]) for k in range(alg.n)]
    worst_table = worst_parity = worst_iso = 0.0
    for k, (col, row) in enumerate(signs):
        right, left = (alg._gen_signs(side, k + 1)[:1 << k] for side in ("right", "left"))
        worst_table = _worst(worst_table, np.abs(right - col).max(), np.abs(left - row).max())
        worst_parity = _worst(worst_parity, np.abs(left - alg.parity_signs[:1 << k] * right).max())

    # Each block of probe rows draws its (re / im, blade) normals on the
    # 2^(N-1) blades adapted at the last step in one call; step k cuts them.
    block = max(1, SCREEN_BLOCK_ENTRIES // alg.dim)
    for start in range(0, probes, block):
        z = rng.standard_normal((min(block, probes - start), 2, alg.dim // 2))
        rows = z[:, 0] + 1j * z[:, 1]
        for k, step_signs in enumerate(signs):
            w = 1 << k
            for side, sign in zip(("right", "left"), step_signs):
                image = np.zeros((len(rows), 2 * w), dtype=np.complex128)
                image[:, w:] = rows[:, :w] * sign * root  # s -> s ^ 2^k
                worst_iso = _worst(worst_iso, np.abs(
                    _mul_dw(alg, rows[:, :w], k + 1, side) - image).max())

    ok = _worst(worst_table, worst_parity) <= law_tol and worst_iso <= tol
    return SuiteResult("isometry", "pass" if ok else "fail",
                       {"probes": probes, "law_tol": law_tol, "tol": tol,
                        "sign_table_residual": worst_table,
                        "parity_reduction_residual": worst_parity,
                        "isometry_residual": worst_iso})


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
    adj = solve_first_adjoint(p, xbar)

    # the central-difference costs of every trial from one stacked solve
    dus = rng.uniform(-0.3, 0.3, size=(trials, alg.n, p.m))
    jp, jm = stacked_costs(p, np.concatenate([ubar + h * dus, ubar - h * dus])).reshape(2, trials)
    worst_dual = 0.0
    worst_fd = 0.0
    for du, dj in zip(dus, (jp - jm) / (2 * h)):
        worst_dual = _worst(worst_dual, first_duality_residual(adj, du))
        fo = first_order_integral(adj, ubar + du)
        worst_fd = _worst(worst_fd, abs(dj + fo) / max(abs(fo), abs(dj), 1e-8))

    ok = worst_dual <= dual_tol and worst_fd <= fd_tol
    return SuiteResult("gradient", "pass" if ok else "fail",
                       {"trials": trials, "duality_tol": dual_tol,
                        "duality_residual": worst_dual,
                        "fd_tol": fd_tol, "fd_residual": worst_fd})


# -- adjoint (transposition) ---------------------------------------------------

def _tuple_widths(n: int, k: int) -> list:
    """Widths 2^j of a test tuple's elements issued at step j: zeta at k,
    then mu_k .. mu_{N-1}, then nu_k .. nu_{N-1}."""
    return [1 << j for j in (k, *range(k, n), *range(k, n))]


def _test_tuple_draws(rng, alg, pairs_n: int) -> list:
    """Start indices of the adjoint suite's test-tuple pairs, with the
    generator state each pair's normals are drawn from.

    Each pair draws its start index k, then in one call exactly the normals
    it keeps: per tuple (t1, then t2) and element, the (blade, re/im)
    normals of the element's first 2^j blades; the rest are zero.  The
    normals only move the stream on here; :func:`_test_equations` draws them
    again from the saved state, so no pair's normals (about 2^(N+2)) stay
    allocated across the checks.  Returns (k, state) per pair.
    """
    draws = []
    for _ in range(pairs_n):
        k = int(rng.integers(0, alg.n))
        draws.append((k, rng.bit_generator.state))
        rng.standard_normal(4 * sum(_tuple_widths(alg.n, k)))
    return draws


def _test_equations(alg, draws: list, k: int) -> tuple:
    """The draws that start at step k, in draw order, as the (zeta, mu, nu)
    arguments of :func:`transposition_residual`: every element at its step
    width, zeta (2, B, 2^k) and one (2, B, 2^j) array of mu and of nu per
    step j."""
    states = [state for start, state in draws if start == k]
    widths = _tuple_widths(alg.n, k)
    arrays = [np.empty((2, len(states), w), dtype=np.complex128) for w in widths]
    replay = np.random.Generator(np.random.PCG64())  # each pair's state is set below
    for i, state in enumerate(states):
        replay.bit_generator.state = state
        z = replay.standard_normal(4 * sum(widths)).view(np.complex128).reshape(2, -1)
        for a, part in zip(arrays, np.split(z, np.cumsum(widths)[:-1], axis=1)):
            a[:, i] = part
    span = alg.n - k
    return arrays[0], arrays[1:1 + span], arrays[1 + span:]


def run_adjoint(cfg: RunConfig) -> SuiteResult:
    rng = suite_rng(cfg.seed, "adjoint")
    alg = make_algebra(cfg.n_steps, cfg.t0, cfg.T)
    p = make_problem(alg, cfg.problem)
    pairs_n, trans_tol, closed_tol = 100, 1e-9, 1e-10

    ubar = _interior_control(p, rng, (alg.n, p.m), span=0.5)
    xbar = solve_state(p, ubar)
    adj = solve_first_adjoint(p, xbar)
    sa = compute_P(adj)

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
    trans_res = float(np.max([transposition_residual(sa, k, *_test_equations(alg, draws, k))
                              for k in dict.fromkeys(k for k, _ in draws)], initial=0.0))

    sym_err = 0.0
    for k in range(alg.n + 1):
        z1, z2 = rand_adapted(k), rand_adapted(k)
        a, b = sa.P[k].pair(z2, z1), sa.P[k].pair(z1, z2)
        sym_err = _worst(sym_err, abs(a.real - b.real) / (1 + abs(a)))

    # the curvature hook that built P against the raw callbacks, one pair a step
    curv_err = 0.0
    for k, mk in enumerate(sa.M):
        if mk is not None:
            v, w = (CliffordElement(alg, row) for row in _padded(alg, _unit_rows(rng, 2, 1 << k)))
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
    sa_lin = compute_P(solve_first_adjoint(p_lin, solve_state(p_lin, ubar)))
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
    sa = compute_P(solve_first_adjoint(p, solve_state(p, ubar)))
    rep = taylor_consistency(sa, u, eps)
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
    ubar, polish = kkt_point(p, np.tile(mid, (alg.n, 1)))
    report = verify_theorem(p, ubar, s_tol=s_tol)

    # analytic companion: no dynamics and a pure control cost, so H = -2r dt I
    # and S = -2r dt ||du||^2
    r_rate = 0.5
    p_zero = make_problem(alg, ProblemSpec.gallery(
        "lq", m=p.m, a=0.0, f0=0.0, g0=0.0, b=None, f=None, g=None,
        q=0.0, r=r_rate, s=0.0, x_tgt=None))
    u0 = np.zeros((alg.n, p.m))
    h_zero, _ = reduced_hessians(compute_P(solve_first_adjoint(p_zero, solve_state(p_zero, u0))))
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
    u, polish = kkt_point(p, u)
    costs = trace.costs + polish.costs[1:]
    metrics = {"iterations": trace.iterations, "final_cost": costs[-1],
               "final_grad_norm": trace.grad_norms[-1] if trace.grad_norms else 0.0,
               "converged": trace.converged, "stalled": trace.stalled,
               "step_halvings": trace.step_halvings,
               "newton_steps": polish.newton_steps, "gradient_steps": polish.gradient_steps,
               "kkt_tol": KKT_TOL, "kkt_residual": polish.kkt_residual}
    ok = polish.kkt_residual <= KKT_TOL
    if p.control_set.is_bounded() and GRID_POINTS ** (alg.n * p.m) <= BRUTE_FORCE_BUDGET:
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
