"""Forward solvers: state equation, first/second variations, order sweeps.

The state scheme is explicit with coefficients frozen at the left endpoint,

    x_{k+1} = x_k + D dt + F dW_{k+1} + dW_{k+1} G,

which preserves adaptedness by construction.  The variation solvers are the
exact first and second epsilon-derivatives of this discrete flow, so for
polynomial coefficient maps the Taylor identities they feed are exact rather
than O(dt)-approximate.

One loop runs the scheme on a block of control paths, one (B, dim) state
array per step through the problem's ``coefficient_rows`` hook, with the
adaptedness check applied to every row at every step.  :func:`solve_state`
is its one-row case; :func:`stacked_paths` sums the problem's ``cost_rows``
along the block and keeps its states, :func:`stacked_costs` only its costs.
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
    "stacked_paths",
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

    @classmethod
    def from_rows(cls, alg, rows, control: np.ndarray) -> "Trajectory":
        """The trajectory of ``control`` from its state coefficient rows X_0 .. X_N."""
        return cls(AdaptedProcess(alg, [CliffordElement(alg, x) for x in rows], tol=1e-9),
                   control)


def _state_rows(p: ControlProblem, U: np.ndarray):
    """The (B, dim) states X_0 .. X_N of a block of control paths U, shape (B, N, m).

    Every coefficient row must be adapted at its step up to 1e-12 (1 + its
    norm).  A row whose leak is exactly zero passes even when its norm has
    overflowed, so overflow reaches the costs as non-finite instead of
    raising for every row of its block.
    """
    alg = p.algebra
    X = np.repeat(p.x0.coeffs[None], len(U), axis=0)
    for k in range(alg.n):
        yield X
        d, f, g = p.coefficient_rows(k, X, U[:, k])
        for val, tag in ((d, "drift"), (f, "left diffusion"), (g, "right diffusion")):
            leak = np.abs(val[:, 1 << k:]).max(axis=1)
            if leak.any() and not np.all((leak == 0) | (leak <= 1e-12 * (1 + _row_norms(val)))):
                raise AdaptednessError(f"{tag} produced a non-adapted element at step {k}")
        X = X + alg.dt * d + _mul_dw(alg, f, k + 1, "right") + _mul_dw(alg, g, k + 1, "left")
    yield X


def solve_state(p: ControlProblem, u: np.ndarray) -> Trajectory:
    """Solve the controlled state equation for an admissible control path."""
    u = p.check_control_path(u)
    return Trajectory.from_rows(p.algebra, [X[0] for X in _state_rows(p, u[None])], u)


def stacked_paths(p: ControlProblem, U: np.ndarray) -> tuple[np.ndarray, list]:
    """Costs and states of a block of control paths, shape (B, N, m), from one state solve.

    Returns the (B,) costs and the (B, dim) state stacks X_0 .. X_N.  Row i
    of the states is the path of ``solve_state(p, U[i])`` bit for bit, and
    cost i equals ``cost(p, U[i], solve_state(p, U[i]))`` bit for bit
    whenever ``L`` and ``g`` are one-row views of ``cost_rows``, as in the
    gallery, or ``cost_rows`` is derived from them.
    """
    alg = p.algebra
    U = np.asarray(U, dtype=float)
    if U.ndim != 3 or U.shape[1:] != (alg.n, p.m):
        raise ValueError(f"control block must have shape (B, {alg.n}, {p.m})")
    if not p.control_set.contains(U):
        raise ValueError("control block leaves the admissible box")
    costs = np.zeros(len(U))
    states = list(_state_rows(p, U))
    for k, X in enumerate(states[:-1]):
        costs += p.cost_rows(k, X, U[:, k]) * alg.dt
    return costs + p.cost_rows(alg.n, states[-1], None), states


def stacked_costs(p: ControlProblem, U: np.ndarray) -> np.ndarray:
    """The costs of :func:`stacked_paths`, without keeping its states."""
    return stacked_paths(p, U)[0]


def _response(p: ControlProblem, xbar: Trajectory, drivers) -> AdaptedProcess:
    """z_{k+1} = z_k + dt (D_x z_k + d) + (F_x z_k + f) dW + dW (G_x z_k + g), z_0 = 0,
    along xbar, with ``(d, f, g) = drivers(k, x_k, u_k)``."""
    alg = p.algebra
    zs = [CliffordElement.zero(alg)]
    for k in range(alg.n):
        xk, uk, zk = xbar[k], xbar.control[k], zs[k]
        d, f, g = drivers(k, xk, uk)
        drift = p.D_x(k, xk, uk)(zk) + d
        left = p.F_x(k, xk, uk)(zk) + f
        right = p.G_x(k, xk, uk)(zk) + g
        zs.append(zk + alg.dt * drift + mul_dw_right(left, k + 1) + mul_dw_left(right, k + 1))
    return AdaptedProcess(alg, zs, tol=1e-9)


def solve_first_variation(p: ControlProblem, xbar: Trajectory,
                          du: np.ndarray) -> AdaptedProcess:
    """Linear response of the state to a control perturbation direction."""
    du = np.asarray(du, dtype=float)
    if du.shape != xbar.control.shape:
        raise ValueError("perturbation must match the control path shape")
    return _response(p, xbar, lambda k, x, u: tuple(
        fn(k, x, u)(du[k]) for fn in (p.D_u, p.F_u, p.G_u)))


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
    du = np.asarray(du, dtype=float)
    if du.shape != xbar.control.shape or len(x1) != p.algebra.n + 1:
        raise ValueError("inputs must match the trajectory grid")
    return _response(p, xbar, lambda k, x, u: quadratic_drivers(p, k, x, u, x1[k], du[k]))


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
    if np.isnan([v for _, v in points]).any():  # not an underflow: no rate can be read
        return SlopeFit(slope=float("nan"), exact=False, points=points)
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
        worst = np.zeros(3)  # np.maximum keeps a NaN that Python max would drop
        for k in range(p.algebra.n + 1):
            delta = xeps[k] - xbar[k]
            worst = np.maximum(worst, [delta.norm(), (delta - eps * x1[k]).norm(),
                                       (delta - eps * x1[k] - 0.5 * eps * eps * x2[k]).norm()])
        d0, d1, d2 = worst.tolist()
        pts0.append((eps, d0))
        pts1.append((eps, d1))
        pts2.append((eps, d2))

    return OrderReport(
        dx=_fit(pts0),
        dx_minus_x1=_fit(pts1),
        dx_minus_x1_x2=_fit(pts2),
    )
