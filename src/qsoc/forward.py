"""Forward solvers: state equation, first/second variations, order sweeps.

The state scheme is explicit with coefficients frozen at the left endpoint,

    x_{k+1} = x_k + D dt + F dW_{k+1} + dW_{k+1} G,

which preserves adaptedness by construction.  The variation solvers are the
exact first and second epsilon-derivatives of this discrete flow, so for
polynomial coefficient maps the Taylor identities they feed are exact rather
than O(dt)-approximate.

:func:`solve_state` advances one control path as elements.  For problems with
the row hooks (every gallery problem), :func:`stacked_costs` runs the same
scheme on a block of control paths at once, one (B, dim) state array per
step, with the adaptedness check applied to every row at every step and the
running cost summed per row in the same pass; it returns only the costs.
The brute force screens its grid with it and re-evaluates the few controls
near the minimum through :func:`solve_state` and ``cost``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clifford import (
    AdaptedProcess,
    CliffordElement,
    _mul_dw,
    _row_norms,
    mul_dw_left,
    mul_dw_right,
)
from .errors import AdaptednessError
from .problems import ControlProblem

__all__ = [
    "Trajectory",
    "solve_state",
    "stacked_costs",
    "solve_first_variation",
    "solve_second_variation",
    "quadratic_drivers",
    "order_estimate_slopes",
    "OrderReport",
    "SlopeFit",
]

UNDERFLOW_FLOOR = 1e-13  # sweep points below this are treated as exactly zero


@dataclass
class Trajectory:
    """State path plus the control that produced it."""

    process: AdaptedProcess
    control: np.ndarray

    def __getitem__(self, k) -> CliffordElement:
        return self.process[k]

    @property
    def terminal(self) -> CliffordElement:
        return self.process[-1]


def _check_adapted(rows: np.ndarray, k: int, what: str):
    """Every coefficient row adapted at step k, up to 1e-12 (1 + its norm)."""
    leak = np.abs(rows[:, 1 << k:])
    if leak.size and not np.all(leak.max(axis=1) <= 1e-12 * (1.0 + _row_norms(rows))):
        raise AdaptednessError(f"{what} produced a non-adapted element at step {k}")


def solve_state(p: ControlProblem, u: np.ndarray) -> Trajectory:
    """Solve the controlled state equation for an admissible control path."""
    u = p.check_control_path(u)
    alg = p.algebra
    xs = [p.x0]
    for k in range(alg.n):
        xk = xs[k]
        d = p.D(k, xk, u[k])
        f = p.F(k, xk, u[k])
        g = p.G(k, xk, u[k])
        for val, tag in ((d, "drift"), (f, "left diffusion"), (g, "right diffusion")):
            _check_adapted(val.coeffs[None], k, tag)
        xs.append(xk + alg.dt * d + mul_dw_right(f, k + 1) + mul_dw_left(g, k + 1))
    return Trajectory(AdaptedProcess(alg, xs, tol=1e-9), u)


def stacked_costs(p: ControlProblem, U: np.ndarray) -> np.ndarray:
    """Costs of a block of control paths, shape (B, N, m), from one state solve.

    The states advance together as a (B, dim) array through the problem's
    ``coefficient_rows`` hook, by the scheme of :func:`solve_state`, and every
    coefficient row is checked for adaptedness at every step with the same
    tolerance.  The running cost is summed per row as the block advances, so
    no path is stored.  Agrees with ``cost(p, u, solve_state(p, u))`` to
    rounding, not bit for bit.
    """
    if p.coefficient_rows is None or p.cost_rows is None:
        raise ValueError("problem has no row hooks; solve its paths one by one")
    alg = p.algebra
    U = np.asarray(U, dtype=float)
    if U.ndim != 3 or U.shape[1:] != (alg.n, p.m):
        raise ValueError(f"control block must have shape (B, {alg.n}, {p.m})")
    if not p.control_set.contains(U):
        raise ValueError("control block leaves the admissible box")
    X = np.repeat(p.x0.coeffs[None], len(U), axis=0)
    acc = np.zeros(len(U))
    for k in range(alg.n):
        d, f, g = p.coefficient_rows(k, X, U[:, k])
        for val, tag in ((d, "drift"), (f, "left diffusion"), (g, "right diffusion")):
            _check_adapted(val, k, tag)
        acc += p.cost_rows(k, X, U[:, k]) * alg.dt
        X = X + alg.dt * d + _mul_dw(alg, f, k + 1, "right") + _mul_dw(alg, g, k + 1, "left")
    return acc + p.cost_rows(alg.n, X, None)


def solve_first_variation(p: ControlProblem, xbar: Trajectory,
                          du: np.ndarray) -> AdaptedProcess:
    """Linear response of the state to a control perturbation direction."""
    alg = p.algebra
    du = np.asarray(du, dtype=float)
    if du.shape != xbar.control.shape:
        raise ValueError("perturbation must match the control path shape")
    zs = [CliffordElement.zero(alg)]
    for k in range(alg.n):
        xk, uk, zk = xbar[k], xbar.control[k], zs[k]
        drift = p.D_x(k, xk, uk)(zk) + p.D_u(k, xk, uk)(du[k])
        left = p.F_x(k, xk, uk)(zk) + p.F_u(k, xk, uk)(du[k])
        right = p.G_x(k, xk, uk)(zk) + p.G_u(k, xk, uk)(du[k])
        zs.append(zk + alg.dt * drift + mul_dw_right(left, k + 1) + mul_dw_left(right, k + 1))
    return AdaptedProcess(alg, zs, tol=1e-9)


def quadratic_drivers(p: ControlProblem, k: int, x, u, h, v) -> tuple:
    """Quadratic-response drivers C_xx(h, h) + 2 C_xu(h, v) + C_uu(v, v).

    One element per coefficient channel C in (D, F, G), frozen at (k, x, u).
    """
    out = []
    for fn_xx, fn_xu, fn_uu in ((p.D_xx, p.D_xu, p.D_uu), (p.F_xx, p.F_xu, p.F_uu),
                                (p.G_xx, p.G_xu, p.G_uu)):
        drv = CliffordElement.zero(p.algebra)
        if fn_xx is not None:
            drv = drv + fn_xx(k, x, u)(h, h)
        if fn_xu is not None:
            drv = drv + 2.0 * fn_xu(k, x, u)(h, v)
        if fn_uu is not None:
            drv = drv + fn_uu(k, x, u)(v, v)
        out.append(drv)
    return tuple(out)


def solve_second_variation(p: ControlProblem, xbar: Trajectory, x1: AdaptedProcess,
                           du: np.ndarray) -> AdaptedProcess:
    """Quadratic response; drivers are the frozen second derivatives at xbar."""
    alg = p.algebra
    du = np.asarray(du, dtype=float)
    if du.shape != xbar.control.shape or len(x1) != alg.n + 1:
        raise ValueError("inputs must match the trajectory grid")
    zs = [CliffordElement.zero(alg)]
    for k in range(alg.n):
        xk, uk, zk = xbar[k], xbar.control[k], zs[k]
        d2, f2, g2 = quadratic_drivers(p, k, xk, uk, x1[k], du[k])
        drift = p.D_x(k, xk, uk)(zk) + d2
        left = p.F_x(k, xk, uk)(zk) + f2
        right = p.G_x(k, xk, uk)(zk) + g2
        zs.append(zk + alg.dt * drift + mul_dw_right(left, k + 1) + mul_dw_left(right, k + 1))
    return AdaptedProcess(alg, zs, tol=1e-9)


@dataclass
class SlopeFit:
    """Log-log slope over a sweep; ``exact`` marks all-underflow differences."""

    slope: float | None
    exact: bool
    points: list

    def within(self, lo: float, hi: float) -> bool:
        return self.exact or (self.slope is not None and lo <= self.slope <= hi)

    def at_least(self, bound: float) -> bool:
        return self.exact or (self.slope is not None and self.slope >= bound)


@dataclass
class OrderReport:
    dx: SlopeFit
    dx_minus_x1: SlopeFit
    dx_minus_x1_x2: SlopeFit


def _fit(points: list[tuple[float, float]]) -> SlopeFit:
    kept = [(e, v) for e, v in points if v > UNDERFLOW_FLOOR]
    if len(kept) < 2:
        return SlopeFit(slope=None, exact=True, points=points)
    loge = np.log([e for e, _ in kept])
    logv = np.log([v for _, v in kept])
    slope = float(np.polyfit(loge, logv, 1)[0])
    return SlopeFit(slope=slope, exact=False, points=points)


def order_estimate_slopes(p: ControlProblem, ubar: np.ndarray, u: np.ndarray,
                          eps_list) -> OrderReport:
    """Contraction-rate sweep of the pathwise variation remainders.

    For each epsilon the perturbed control is (1-eps) ubar + eps u, which is
    admissible by convexity of the box.  Expected rates: the raw deviation is
    first order, the deviation net of the linear response is second order, and
    net of half the quadratic response it is super-quadratic.  Problems with
    (sub)linear dynamics hit the remainders exactly and are flagged `exact`.
    """
    eps_list = sorted((float(e) for e in eps_list), reverse=True)
    if len(eps_list) < 4:
        raise ValueError("need at least four sweep points")
    if not all(0 < e <= 1 for e in eps_list):
        raise ValueError("sweep points must lie in (0, 1]")
    ubar = p.check_control_path(ubar)
    u = p.check_control_path(u)
    du = u - ubar

    xbar = solve_state(p, ubar)
    x1 = solve_first_variation(p, xbar, du)
    x2 = solve_second_variation(p, xbar, x1, du)

    pts0, pts1, pts2 = [], [], []
    for eps in eps_list:
        ueps = ubar + eps * du
        xeps = solve_state(p, ueps)
        d0 = d1 = d2 = 0.0
        for k in range(p.algebra.n + 1):
            delta = xeps[k] - xbar[k]
            d0 = max(d0, delta.norm())
            d1 = max(d1, (delta - eps * x1[k]).norm())
            d2 = max(d2, (delta - eps * x1[k] - 0.5 * eps * eps * x2[k]).norm())
        pts0.append((eps, d0))
        pts1.append((eps, d1))
        pts2.append((eps, d2))

    return OrderReport(
        dx=_fit(pts0),
        dx_minus_x1=_fit(pts1),
        dx_minus_x1_x2=_fit(pts2),
    )
