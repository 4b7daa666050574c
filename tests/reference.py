"""Reference computations the tests check live code against.

None of these runs inside ``qsoc``: each is an independent oracle, built from
the problem's raw callbacks, for a quantity the library computes another way.
"""

from dataclasses import dataclass

import numpy as np

from qsoc.adjoint import _step_pairings, hu_field, solve_first_adjoint
from qsoc.clifford import AdaptedProcess, CliffordElement, _mul_dw, inner, parity
from qsoc.errors import StepSizeError, SupportError
from qsoc.forward import quadratic_drivers, solve_state
from qsoc.optimize import GradientTrace, _grid_blocks
from qsoc.problems import ProblemSpec, cost, hxx_pairing

STEP = 1e-5  # central-difference step

# lq with no dynamics: D = F = G = 0, so the state stays at x0 and P_k holds
# only the cost curvature.  Build it as ProblemSpec.gallery("lq", **ZERO_DYNAMICS).
ZERO_DYNAMICS = dict(a=0.0, f0=0.0, g0=0.0, b=None, f=None, g=None)
# the same problem as the "problem" block of a run config with m = 1
ZERO_DYNAMICS_PROBLEM = {"name": "lq", "rates": {"a": 0.0, "f0": 0.0, "g0": 0.0},
                         "elements": {"b": [[]], "f": [[]], "g": [[]]}}

# The cases of the tests' gallery sweeps: lq with ZERO_DYNAMICS, named "free",
# and the three gallery problems.
GALLERY = ("free", "lq", "quadratic_control", "quadratic_state")


def gallery_spec(case: str, **overrides) -> ProblemSpec:
    """ProblemSpec.gallery for a case of GALLERY."""
    if case == "free":
        return ProblemSpec.gallery("lq", **{**ZERO_DYNAMICS, **overrides})
    return ProblemSpec.gallery(case, **overrides)


def control_grid(p, grid_points_per_dim: int):
    """The controls of the brute-force grid one at a time, lexicographic."""
    for block in _grid_blocks(p, grid_points_per_dim):
        yield from block


def quadratic_scores(h: np.ndarray, dus: np.ndarray) -> np.ndarray:
    """v . H v for every row v of ``dus`` (directions flattened as du.reshape(-1))."""
    return np.einsum("ca,ab,cb->c", dus, h, dus)


def hamiltonian(p, k, x, u, y, Y) -> complex:
    """<y, D> + <Y, F + parity(G)> - L at one grid point."""
    return (inner(y, p.D(k, x, u)) + inner(Y, p.F(k, x, u) + parity(p.G(k, x, u)))
            - p.L(k, x, u))


def second_duality_residual(p, adj, xbar, x1, x2, du) -> float:
    """Residual of the first-adjoint duality against the quadratic-response drivers."""
    alg, lin = p.algebra, adj.lin
    lhs = -inner(lin.gx, x2[alg.n])
    rhs = 0.0 + 0.0j
    for k in range(alg.n):
        mu, f2, g2 = quadratic_drivers(p, k, xbar[k], xbar.control[k], x1[k], du[k])
        rhs += alg.dt * (inner(adj.yhat[k], mu) + inner(lin.Lx[k], x2[k])
                         + inner(adj.Y[k], f2 + parity(g2)))
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)


def _response(p, xbar, drivers):
    """z_{k+1} = z_k + dt (D_x z_k + d) + (F_x z_k + f) dW + dW (G_x z_k + g), z_0 = 0,
    along xbar, with ``(d, f, g) = drivers(k, x_k, u_k)``.

    Steps through the raw element callbacks, one element at a time, apart
    from the library's row stepping through the ``state_derivatives`` blocks.
    """
    alg = p.algebra
    zs = [CliffordElement.zero(alg)]
    for k in range(alg.n):
        xk, uk, zk = xbar[k], xbar.control[k], zs[k]
        d, f, g = drivers(k, xk, uk)
        drift = p.D_x(k, xk, uk)(zk) + d
        left = p.F_x(k, xk, uk)(zk) + f
        right = p.G_x(k, xk, uk)(zk) + g
        zs.append(zk + alg.dt * drift + mul_dw(left, k + 1) + mul_dw(right, k + 1, "left"))
    return AdaptedProcess(alg, zs, tol=1e-9)


def first_variation(p, xbar, du):
    """The first variation along xbar through the element callbacks."""
    return _response(p, xbar, lambda k, x, u: tuple(
        fn(k, x, u)(du[k]) for fn in (p.D_u, p.F_u, p.G_u)))


def second_variation(p, xbar, x1, du):
    """The second variation along xbar through the element callbacks."""
    return _response(p, xbar, lambda k, x, u: quadratic_drivers(p, k, x, u, x1[k], du[k]))


def derivative_errors(p, trials: int, seed: int) -> dict:
    """Worst relative error of every derivative callback against central differences.

    First derivatives are differenced from the parent maps, second derivatives
    from the first-derivative callbacks, at random real adapted states and
    random controls in the box (an infinite side is replaced by +-1).
    """
    alg = p.algebra
    rng = np.random.default_rng(seed)
    errors: dict[str, float] = {}
    zero = CliffordElement.zero(alg)

    def record(tag, err):
        errors[tag] = max(errors.get(tag, 0.0), float(err))

    def rand_element(adapted_at=None):
        c = rng.standard_normal(alg.dim)
        if adapted_at is not None:
            c = np.where(alg.adapted_mask(adapted_at), c, 0.0)
        return CliffordElement(alg, c)

    def diff(fn, plus, minus):
        return (fn(plus) - fn(minus)) * (0.5 / STEP)

    channels = [("D", p.D, p.D_x, p.D_u, p.D_xx, p.D_xu, p.D_uu),
                ("F", p.F, p.F_x, p.F_u, p.F_xx, p.F_xu, p.F_uu),
                ("G", p.G, p.G_x, p.G_u, p.G_xx, p.G_xu, p.G_uu)]
    for _ in range(trials):
        k = int(rng.integers(0, alg.n))
        x = rand_element(adapted_at=k)
        lo = np.where(np.isfinite(p.control_set.lower), p.control_set.lower, -1.0)
        hi = np.where(np.isfinite(p.control_set.upper), p.control_set.upper, 1.0)
        u = lo + (hi - lo) * rng.random(p.m)
        h1, h2 = rand_element(adapted_at=k), rand_element(adapted_at=k)
        v, w = rng.standard_normal(p.m), rng.standard_normal(p.m)
        xs = (x + STEP * h1, x - STEP * h1)
        us = (u + STEP * v, u - STEP * v)
        for tag, fn, fn_x, fn_u, fn_xx, fn_xu, fn_uu in channels:
            scale = 1.0 + fn(k, x, u).norm()
            checks = [
                ("x", diff(lambda y: fn(k, y, u), *xs), fn_x(k, x, u)(h1)),
                ("u", diff(lambda z: fn(k, x, z), *us), fn_u(k, x, u)(v)),
                ("xx", diff(lambda y: fn_x(k, y, u)(h1), x + STEP * h2, x - STEP * h2),
                 fn_xx(k, x, u)(h1, h2) if fn_xx is not None else zero),
                ("xu", diff(lambda z: fn_x(k, x, z)(h1), *us),
                 fn_xu(k, x, u)(h1, v) if fn_xu is not None else zero),
                ("uu", diff(lambda z: fn_u(k, x, z)(v), u + STEP * w, u - STEP * w),
                 fn_uu(k, x, u)(v, w) if fn_uu is not None else zero)]
            for suffix, fd, want in checks:
                record(f"{tag}_{suffix}", (fd - want).norm() / scale)

        scale = 1.0 + abs(p.L(k, x, u))
        record("L_x", abs(diff(lambda y: p.L(k, y, u), *xs)
                          - inner(p.L_x(k, x, u), h1).real) / scale)
        record("L_u", abs(diff(lambda z: p.L(k, x, z), *us)
                          - float(np.dot(p.L_u(k, x, u), v))) / scale)
        want = p.L_xx(k, x, u)(h2, h1).real if p.L_xx is not None else 0.0
        record("L_xx", abs(diff(lambda y: inner(p.L_x(k, y, u), h1).real,
                                x + STEP * h2, x - STEP * h2) - want) / scale)
        l_uu = p.L_uu(k, x, u) if p.L_uu is not None else np.zeros((p.m, p.m))
        record("L_uu", abs(diff(lambda z: np.dot(p.L_u(k, x, z), v), u + STEP * w, u - STEP * w)
                           - float(np.dot(v, l_uu @ w))) / scale)
        if p.L_xu is not None:
            record("L_xu", abs(diff(lambda y: np.dot(p.L_u(k, y, u), v), *xs)
                               - p.L_xu(k, x, u)(h1, v).real) / scale)

        xN = rand_element()
        scale = 1.0 + abs(p.g(xN))
        record("g_x", abs(diff(p.g, xN + STEP * h1, xN - STEP * h1)
                          - inner(p.g_x(xN), h1).real) / scale)
        want = p.g_xx(xN)(h2, h1).real if p.g_xx is not None else 0.0
        record("g_xx", abs(diff(lambda y: inner(p.g_x(y), h1).real,
                                xN + STEP * h2, xN - STEP * h2) - want) / scale)
    return errors


def scatter_table_product(alg, A, B):
    """Row-wise sign-table product with a fancy-index scatter per live blade.

    Blade S of the sparser factor adds ``A_S * sign(S, .) * B`` at masks
    ``S ^ .`` through ``out[:, S ^ masks] += ...`` (over T instead when B
    is the sparser factor).
    """
    width = A.shape[1]
    masks, table = alg._masks[:width], alg.sign_table[:width, :width]
    out = np.zeros(A.shape, dtype=np.complex128)
    live_a = np.nonzero(np.any(A, axis=0))[0]
    live_b = np.nonzero(np.any(B, axis=0))[0]
    if live_b.size < live_a.size:
        for t in live_b:
            out[:, masks ^ t] += (A * table[:, t]) * B[:, t][:, None]
        return out
    for s in live_a:
        out[:, s ^ masks] += A[:, s][:, None] * (table[s] * B)
    return out


def mul_dw(a, k, side="right"):
    """a dW_k (``side="right"``) or dW_k a on one element: one row of ``_mul_dw``."""
    return CliffordElement(a.algebra, _mul_dw(a.algebra, a.coeffs[None], k, side)[0])


@dataclass
class RefTuple:
    """Forward test data (zeta, mu, nu) issued at step k, one element each."""

    k: int
    zeta: CliffordElement
    mu: list
    nu: list | None = None


def stack_pairs(pairs):
    """Pairs of RefTuples sharing a start index k as the (k, zeta, mu, nu)
    arguments of ``transposition_residual``; a missing nu is zero."""
    k = pairs[0][0].k
    alg = pairs[0][0].zeta.algebra
    span = len(pairs[0][0].mu)

    def rows(t):
        nu = t.nu if t.nu is not None else [CliffordElement.zero(alg)] * span
        return [t.zeta.coeffs, *(v.coeffs for v in t.mu), *(v.coeffs for v in nu)]

    out = np.array([[rows(t) for t in pair] for pair in pairs], dtype=np.complex128)
    out = out.transpose(1, 0, 2, 3)  # (equation, pair, row, blade)
    return k, out[:, :, 0], out[:, :, 1:1 + span], out[:, :, 1 + span:]


def by_start(pairs):
    """``stack_pairs`` of the pairs at each start index, in order of first appearance."""
    starts = dict.fromkeys(t1.k for t1, _ in pairs)
    return [stack_pairs([q for q in pairs if q[0].k == k]) for k in starts]


def unstack(alg, k, zeta, mu, nu):
    """The RefTuple pairs of ``transposition_residual`` arguments."""
    def elements(rows):
        return [CliffordElement(alg, row) for row in rows]

    return [tuple(RefTuple(k=k, zeta=CliffordElement(alg, zeta[t, i]), mu=elements(mu[t, i]),
                           nu=elements(nu[t, i])) for t in range(2))
            for i in range(zeta.shape[1])]


def dense_test_pairs(rng, alg, pairs_n):
    """The adjoint suite's test-tuple pairs built dense, one pair at a time.

    Each pair draws its (tuple, zeta/mu_k../nu_k.., re/im, blade) normals in
    one call and zeroes the blades an element issued at step j may not hold.
    """
    pairs = []
    for _ in range(pairs_n):
        k = int(rng.integers(0, alg.n))
        span = alg.n - k
        z = rng.standard_normal((2, 1 + 2 * span, 2, alg.dim))
        steps = [k, *range(k, alg.n), *range(k, alg.n)]
        keep = np.array([alg.adapted_mask(j) for j in steps])
        rows = np.where(keep, z[:, :, 0] + 1j * z[:, :, 1], 0)
        pairs.append(tuple(RefTuple(k=k, zeta=CliffordElement(alg, c[0]),
                                    mu=[CliffordElement(alg, v) for v in c[1:1 + span]],
                                    nu=[CliffordElement(alg, v) for v in c[1 + span:]])
                           for c in rows))
    return pairs


def check_tuple_pairs(pairs, n):
    """Refuse the first bad test tuple, one element at a time.

    In the stacked check's order: every start index, every zeta, every
    driver count, then step by step every mu_j before every nu_j; tuples in
    order, t1 before t2 of each pair.
    """
    tuples = [t for pair in pairs for t in pair]
    for t in tuples:
        if not 0 <= t.k <= n:
            raise ValueError(f"step index {t.k} outside 0..{n}")
    for t in tuples:
        if not t.zeta.is_adapted(t.k):
            raise SupportError("test tuple initial condition not adapted at its start index")
    for t in tuples:
        span = n - t.k
        if len(t.mu) != span or (t.nu is not None and len(t.nu) != span):
            raise ValueError("test tuple drivers must cover start index .. N-1")
    for j in range(min(t.k for t in tuples), n):
        for kind in ("mu", "nu"):
            for t in tuples:
                drivers = getattr(t, kind)
                if j >= t.k and drivers is not None and not drivers[j - t.k].is_adapted(j):
                    raise SupportError(f"{kind} driver not adapted at step {j}")


def tuple_path(lin, t):
    """One test tuple's path phi and driven parts dt mu_j + nu_j dW_{j+1}, one element a step.

    T_j v = v + dt Dx_j v + (Bt_j v) dW_{j+1} is applied as two matrix-vector
    products on the step-j block, apart from the library's row stepping.
    """
    alg = lin.algebra
    phi, drive = [t.zeta], []
    for j in range(t.k, alg.n):
        b = 1 << j
        v = phi[-1].coeffs
        dx = np.zeros(alg.dim, dtype=np.complex128)
        bt = np.zeros(alg.dim, dtype=np.complex128)
        dx[:b] = lin.Dx[j] @ v[:b]
        bt[:b] = lin.Bt[j] @ v[:b]
        step = phi[-1] + alg.dt * CliffordElement(alg, dx) + mul_dw(CliffordElement(alg, bt), j + 1)
        d_j = alg.dt * t.mu[j - t.k]
        if t.nu is not None:
            d_j = d_j + mul_dw(t.nu[j - t.k], j + 1)
        drive.append(d_j)
        phi.append(step + d_j)
    return phi, drive


def transposition_defects(p, sa, tuples) -> list:
    """|lhs - rhs| of the transposition identity for each pair, one pair at a time."""
    alg, dt = p.algebra, p.algebra.dt
    out = []
    for t1, t2 in tuples:
        k = t1.k
        phi1, d1 = tuple_path(sa.lin, t1)
        phi2, d2 = tuple_path(sa.lin, t2)
        lhs = 0.0 + 0.0j if p.g_xx is None else -p.g_xx(sa.xbar.terminal)(phi2[-1], phi1[-1])
        for j in range(k, alg.n):
            pair = hxx_pairing(p, j, sa.xbar[j], sa.ubar[j], sa.adj.yhat[j], sa.adj.Y[j])
            if pair is not None:
                lhs += dt * pair(phi2[j - k], phi1[j - k])
        rhs = sa.P[k].pair(t2.zeta, t1.zeta)
        for i in range(alg.n - k):
            rows = [v.coeffs[None] for v in (phi2[i + 1], d2[i], phi1[i + 1], d1[i])]
            rhs += _step_pairings(sa.P[k + i + 1], *rows)[0, 0]
        out.append(abs(lhs - rhs))
    return out


def sequential_projected_gradient(p, u0, step=0.5, max_iter=200, grad_tol=1e-9):
    """Projected gradient with its line search one candidate path at a time.

    Every iteration solves the state afresh and tries step, step/2, ...,
    step/2^20 in turn until a cost is finite and non-increasing.
    """
    u = p.check_control_path(np.asarray(u0, dtype=float)).copy()
    dt = p.algebra.dt
    j_curr = cost(p, u, solve_state(p, u))
    if not np.isfinite(j_curr):
        raise StepSizeError(f"cost {j_curr} at the initial control is not finite")
    trace = GradientTrace(costs=[j_curr], grad_norms=[], step_halvings=0, converged=False)
    for _ in range(max_iter):
        grad = hu_field(p, solve_first_adjoint(p, solve_state(p, u), u))
        if not np.all(np.isfinite(grad)):
            raise StepSizeError(f"gradient not finite at iteration {len(trace.grad_norms)}")
        moved = (p.control_set.project(u + step * grad) - u) / step
        trace.grad_norms.append(float(np.sqrt(dt * np.sum(moved * moved))))
        if trace.grad_norms[-1] <= grad_tol:
            trace.converged = True
            break
        s, accepted, saw_nonfinite = step, False, False
        for _halving in range(21):
            cand = p.control_set.project(u + s * grad)
            j_cand = cost(p, cand, solve_state(p, cand))
            if not np.isfinite(j_cand):
                saw_nonfinite = True
            elif j_cand <= j_curr:
                accepted = True
                break
            s *= 0.5
            trace.step_halvings += 1
        if not accepted:
            if saw_nonfinite:
                raise StepSizeError("cost stayed non-finite after 20 halvings")
            trace.stalled = True
            break
        u, j_curr = cand, j_cand
        trace.costs.append(j_curr)
    return u, trace
