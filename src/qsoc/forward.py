"""Forward solvers: state equation, linearization, variations, order sweeps.

The state scheme is explicit with coefficients frozen at the left endpoint,

    x_{k+1} = x_k + D dt + F dW_{k+1} + dW_{k+1} G,

which preserves adaptedness by construction.  The variation solvers are the
exact first and second epsilon-derivatives of this discrete flow, so for
polynomial coefficient maps the Taylor identities they feed are exact rather
than O(dt)-approximate.

A row adapted at step k holds its first 2^k blade coefficients, so every
forward stack at step k is (B, 2^k), and a step appends the dW_{k+1} half:
x_{k+1} = [x_k + dt D, F dW_{k+1} + dW_{k+1} G] (``clifford._mul_dw``).
Full-width elements are built only for callbacks and adapted processes.
One loop runs the scheme on a block of control paths, one state stack per
step through the problem's ``coefficient_rows`` hook.  :func:`solve_state`
is its one-row case; :func:`stacked_paths` sums the problem's ``cost_rows``
along the block and keeps its states, :func:`stacked_costs` only its costs.

:class:`Linearization` freezes the derivative blocks of the dynamics along
one trajectory, and :meth:`Linearization.step_rows` steps every forward test
equation phi_{k+1} = T_k phi_k + dt mu_k + nu_k dW_{k+1} from (B, 2^k) to
(B, 2^{k+1}) stacks (T_k as in :mod:`qsoc.adjoint`).  Both variations are
such equations with zeta = 0: x1 with mu = Du du and nu = Bu du, x2 with the
quadratic-response drivers; so are the transposition check's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clifford import (
    AdaptedProcess,
    CliffordElement,
    _mul_dw,
    _padded,
    _row_norms,
    parity,
)
from .errors import ContractError
from .problems import ControlProblem, _cut

__all__ = [
    "Trajectory",
    "solve_state",
    "stacked_costs",
    "stacked_paths",
    "Linearization",
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
        """The trajectory of ``control`` from its state rows X_0 .. X_N, X_k of width 2^k."""
        return cls(_process(alg, rows), control)


def _state_rows(p: ControlProblem, U: np.ndarray):
    """The states X_0 .. X_N, X_k of shape (B, 2^k), of control paths U (B, N, m)."""
    alg = p.algebra
    X = np.repeat(p.x0.coeffs[None, :1], len(U), axis=0)
    for k in range(alg.n):
        yield X
        d, f, g = p.coefficient_rows(k, X, U[:, k])
        if not d.shape == f.shape == g.shape == X.shape:
            raise ContractError(f"coefficient_rows returned shapes {d.shape, f.shape, g.shape} "
                                f"at step {k}, not {X.shape}")
        nxt = _mul_dw(alg, f, k + 1, "right") + _mul_dw(alg, g, k + 1, "left")
        nxt[:, :1 << k] = X + alg.dt * d
        X = nxt
    yield X


def solve_state(p: ControlProblem, u: np.ndarray) -> Trajectory:
    """Solve the controlled state equation for an admissible control path."""
    u = p.check_control_path(u)
    return Trajectory.from_rows(p.algebra, [X[0] for X in _state_rows(p, u[None])], u)


def stacked_paths(p: ControlProblem, U: np.ndarray) -> tuple[np.ndarray, list]:
    """Costs and states of a block of control paths, shape (B, N, m), from one state solve.

    Returns the (B,) costs and the state stacks X_0 .. X_N, X_k of shape
    (B, 2^k).  Row i of the states is the path of ``solve_state(p, U[i])``
    bit for bit, and cost i equals ``cost(p, U[i], solve_state(p, U[i]))``
    bit for bit whenever ``L`` and ``g`` are one-row views of ``cost_rows``,
    as in the gallery, or ``cost_rows`` is derived from them.
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


class Linearization:
    """Derivative operators of the dynamics frozen along one trajectory.

    Dx[k] and Bt[k] are (2^k, 2^k), the maps on the step-k subspace, from
    the problem's ``state_derivatives`` hook.  Du[k] and Bu[k] are (2^k, m).
    """

    def __init__(self, p: ControlProblem, xbar: Trajectory):
        alg = p.algebra
        self.p = p
        self.algebra = alg
        self.xbar = xbar
        self.Dx, self.Bt, self.Du, self.Bu, self.Lx, self.Lu = [], [], [], [], [], []
        basis = np.eye(p.m)
        for k in range(alg.n):
            xk, uk = xbar[k], xbar.control[k]
            dx, bt = p.state_derivatives(k, xk, uk)
            self.Dx.append(dx)
            self.Bt.append(bt)
            du_op, fu_op, gu_op = p.D_u(k, xk, uk), p.F_u(k, xk, uk), p.G_u(k, xk, uk)
            du = np.array([du_op(e).coeffs for e in basis])
            bu = np.array([(fu_op(e) + parity(gu_op(e))).coeffs for e in basis])
            self.Du.append(_cut(k, du, "D_u").T)
            self.Bu.append(_cut(k, bu, "F_u + parity o G_u").T)
            self.Lx.append(p.L_x(k, xk, uk))
            self.Lu.append(np.asarray(p.L_u(k, xk, uk), dtype=float))
        self.gx = p.g_x(xbar.terminal)

    def t_block(self, k: int) -> np.ndarray:
        """One-step homogeneous transition T_k as a (2^{k+1}, 2^k) block.

        E_k + dt Dx_k fills the top half; Bt_k moved by dW_{k+1} (a signed
        row shift by 2^k) fills the bottom half.
        """
        alg, b = self.algebra, 1 << k
        out = np.empty((2 * b, b), dtype=np.complex128)
        out[:b] = np.eye(b) + alg.dt * self.Dx[k]
        out[b:] = (alg._gen_signs("right", k + 1)[:b] * np.sqrt(alg.dt))[:, None] * self.Bt[k]
        return out

    def t_rows(self, k: int, V: np.ndarray) -> np.ndarray:
        """T_k on a (B, 2^k) stack: [v + dt Dx_k v, (Bt_k v) dW_{k+1}], shape (B, 2^{k+1}).

        Kept apart from :meth:`t_block` on purpose: every test equation,
        the variations included, steps here, and the transposition check pairs
        them with the P_k that :func:`~qsoc.adjoint.compute_P` conjugates
        through ``t_block``; on one shared T_k a defect in it would cancel out
        of the identity.
        """
        out = _mul_dw(self.algebra, V @ self.Bt[k].T, k + 1, "right")
        out[:, :1 << k] = V + self.algebra.dt * (V @ self.Dx[k].T)
        return out

    def drive_rows(self, k: int, mu: np.ndarray, nu: np.ndarray) -> np.ndarray:
        """The driven part dt mu_k + nu_k dW_{k+1} of a step: (B, 2^k) stacks to (B, 2^{k+1})."""
        out = _mul_dw(self.algebra, nu, k + 1, "right")
        out[:, :1 << k] = self.algebra.dt * mu
        return out

    def step_rows(self, k: int, phi: np.ndarray, mu: np.ndarray, nu: np.ndarray) -> np.ndarray:
        """One step of the test equation phi_{k+1} = T_k phi_k + dt mu_k + nu_k dW_{k+1}.

        Every argument is a (B, 2^k) stack; the step is (B, 2^{k+1}).
        """
        return self.t_rows(k, phi) + self.drive_rows(k, mu, nu)

    def variation_rows(self, dus: np.ndarray) -> list:
        """First variations of a (B, N, m) stack of directions: X_0 .. X_N, X_k (B, 2^k).

        The test equation with zeta = 0, mu_k = Du_k du_k and nu_k = Bu_k du_k.
        """
        X = [np.zeros((len(dus), 1), dtype=np.complex128)]
        for k in range(self.algebra.n):
            X.append(self.step_rows(k, X[k], dus[:, k] @ self.Du[k].T, dus[:, k] @ self.Bu[k].T))
        return X


def _process(alg, rows) -> AdaptedProcess:
    """The adapted process of rows X_0 .. X_N, X_k of width 2^k."""
    return AdaptedProcess(alg, [CliffordElement(alg, _padded(alg, x)) for x in rows])


def solve_first_variation(lin: Linearization, du: np.ndarray) -> AdaptedProcess:
    """Linear response of the state to a control perturbation direction."""
    du = np.asarray(du, dtype=float)
    if du.shape != lin.xbar.control.shape:
        raise ValueError("perturbation must match the control path shape")
    return _process(lin.algebra, [x[0] for x in lin.variation_rows(du[None])])


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


def solve_second_variation(lin: Linearization, x1: AdaptedProcess,
                           du: np.ndarray) -> AdaptedProcess:
    """Quadratic response; drivers are the frozen second derivatives at xbar.

    The test equation with zeta = 0, mu_k = d_k and nu_k = f_k + parity(g_k),
    where (d, f, g) are the :func:`quadratic_drivers` along x1.
    """
    du = np.asarray(du, dtype=float)
    alg, xbar = lin.algebra, lin.xbar
    if du.shape != xbar.control.shape or len(x1) != alg.n + 1:
        raise ValueError("inputs must match the trajectory grid")
    rows = [np.zeros((1, 1), dtype=np.complex128)]
    for k in range(alg.n):
        d, f, g = quadratic_drivers(lin.p, k, xbar[k], xbar.control[k], x1[k], du[k])
        rows.append(lin.step_rows(k, rows[-1], _cut(k, d.coeffs[None], "second-order drift"),
                                  _cut(k, (f + parity(g)).coeffs[None], "second-order noise")))
    return _process(alg, [x[0] for x in rows])


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
    admissible by convexity of the box; the sweep is one stacked state solve.
    Expected rates: the raw deviation is first order, the deviation net of the
    linear response is second order, and net of half the quadratic response
    it is super-quadratic.  Problems with (sub)linear dynamics hit the
    remainders exactly and are flagged `exact`.
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
    lin = Linearization(p, xbar)
    x1 = solve_first_variation(lin, du)
    x2 = solve_second_variation(lin, x1, du)

    eps = np.array(eps_list)
    _, states = stacked_paths(p, ubar + eps[:, None, None] * du)
    worst = np.zeros((3, len(eps)))  # np.maximum keeps a NaN that Python max would drop
    for k, xeps in enumerate(states):
        w = xeps.shape[1]
        delta = xeps - xbar[k].coeffs[:w]
        net1 = delta - eps[:, None] * x1[k].coeffs[:w]
        net2 = net1 - (0.5 * eps * eps)[:, None] * x2[k].coeffs[:w]
        worst = np.maximum(worst, [_row_norms(delta), _row_norms(net1), _row_norms(net2)])
    return OrderReport(*(_fit(list(zip(eps_list, row))) for row in worst.tolist()))
