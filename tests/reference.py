"""Reference computations the tests check live code against.

None of these runs inside ``qsoc``: each is an independent oracle, built from
the problem's raw callbacks, for a quantity the library computes another way.
"""

import numpy as np

from qsoc.clifford import CliffordElement, inner, parity
from qsoc.forward import quadratic_drivers
from qsoc.optimize import _grid_blocks

STEP = 1e-5  # central-difference step


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
