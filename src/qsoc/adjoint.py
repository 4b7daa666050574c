"""Adjoint processes by exact discrete duality.

The first adjoint pair (y, Y) is defined as the algebraic adjoint of the
discrete linearized forward recursion (summation by parts), not as a separate
discretization of a continuous-time equation.  Writing T_k for the homogeneous
one-step map of the linearization,

    T_k v = v + dt Dx_k v + (Bt_k v) dW_{k+1},      Bt := F_x + parity o G_x,

the pair satisfies, for every perturbation direction du, the exact identity

    -<g_x(xbar_N), x1_N> =
        sum_k dt { <yhat_k, Du_k du_k> + <Lx_k, x1_k> + <Y_k, Bu_k du_k> },

with yhat_k = E_k y_{k+1}, Bu := F_u + parity o G_u, and x1 the first
variation.  All downstream Hamiltonian evaluations use (yhat_k, Y_k), which is
what makes adjoint gradients agree with difference quotients of the discrete
cost to machine precision.

The second adjoint P is the operator family defined on each adapted subspace
by propagating the homogeneous test equation forward and pairing against the
Hamiltonian curvature; equivalently (and this is how it is computed) by the
backward conjugation recursion

    P_N = -(terminal cost curvature),   P_k = E_k ( T_k^* P_{k+1} T_k + dt M_k ) E_k,

with M_k the curvature operator of the Hamiltonian at step k.

Every step operator lives on its adapted subspace, and a blade is adapted at
step k iff its mask is < 2^k, so that subspace is the first 2^k coordinates.
Every step operator is therefore stored as its leading block: Dx_k, Bt_k,
M_k and P_k are (2^k, 2^k), and T_k is a (2^{k+1}, 2^k) transition block
whose dW_{k+1} half is a signed row shift; only P_N is dim x dim.  A
forward row stack at step k is (B, 2^k) too, so a ``SuperOperator`` pairs
the stacks of its step as they are.  The derivative blocks live in the
:class:`~qsoc.forward.Linearization` of the trajectory (re-exported here),
which also steps every forward test equation; they and the curvature
operators come from the problem's ``state_derivatives`` and ``curvature``
hooks, which every problem carries (see :mod:`qsoc.problems`).

In continuous time the second adjoint is a triple: P together with two
martingale components, which pair against the diffusion part of the test
equations (Peng, SIAM J. Control Optim. 28(4), 1990; as correction processes
of the transposition solution in Lu & Zhang, SpringerBriefs in Mathematics,
2014).  They are needed there because the backward equation for P is solved
by martingale representation, and the pairings of the diffusion part of a
test equation against the fluctuation of P are written through them.  Here
the recursion keeps P_{j+1} whole, as an operator on the step-(j+1) subspace,
and conditions only after conjugation; a test step

    phi_{j+1} = T_j phi_j + dt mu_j + nu_j dW_{j+1}

is explicit, so those pairings are evaluated directly as P_{j+1}-pairings of
the three parts of the step.  The recursion then telescopes the transposition
identity

    -g_xx(phi2_N, phi1_N) + sum_j dt <M_j phi2_j, phi1_j>
        = <P_k zeta2, zeta1> + sum_j [P_{j+1}-pairings of the step parts]

exactly, for any two test tuples sharing a start index and with or without
nu; the discrete identity has no martingale component to solve for.  The
optimality functional takes the same pairings along the first variation
(zeta = 0, mu = Du du, nu = Bu du), which is stepped by the same
:meth:`~qsoc.forward.Linearization.step_rows`.

Discrete displays keep the summation-by-parts staggering (P_{j+1} paired
against T_j phi_j, dW terms kept explicit); this is the discrete realization
of the continuum integrals and is what makes the residual checks exact.

Everything here is built at one base point (xbar, ubar), as in the paper.
:class:`AdjointPair` holds its :class:`~qsoc.forward.Linearization`, which
holds the problem, the trajectory and its control; :func:`compute_P` takes
that pair and :class:`SecondAdjoint` keeps it.  Every later function takes
the one object, so no call can pair an adjoint with another base point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clifford import (
    AdaptedProcess,
    CliffordElement,
    SuperOperator,
    _padded,
    conditional_expectation,
    inner,
    martingale_coefficient,
)
from .config import SUPEROP_BUDGET
from .errors import CapacityError, ContractError
from .forward import Linearization, Trajectory, solve_first_variation
from .problems import ControlProblem

__all__ = [
    "Linearization",
    "AdjointPair",
    "SecondAdjoint",
    "solve_first_adjoint",
    "compute_P",
    "transposition_residual",
    "first_duality_residual",
    "hu_field",
]


@dataclass
class AdjointPair:
    """First adjoint (y, Y); downstream pairings use (yhat_k, Y_k)."""

    y: AdaptedProcess
    Y: AdaptedProcess
    yhat: list
    lin: Linearization


def solve_first_adjoint(p: ControlProblem, xbar: Trajectory) -> AdjointPair:
    """Backward sweep producing the exact discrete adjoint of the linearization."""
    alg = p.algebra
    lin = Linearization(p, xbar)
    n = alg.n
    y: list = [None] * (n + 1)
    Y: list = [None] * n
    yhat: list = [None] * n
    y[n] = -1.0 * lin.gx
    for k in range(n - 1, -1, -1):
        Y[k] = martingale_coefficient(y[k + 1], k)
        yh = conditional_expectation(y[k + 1], k)
        yhat[k] = yh
        # adjoint maps as row-vector products: no conjugate-transposed copies
        b = 1 << k
        driver = np.conj(np.conj(yh.coeffs[:b]) @ lin.Dx[k]) \
            + np.conj(np.conj(Y[k].coeffs[:b]) @ lin.Bt[k]) - lin.Lx[k].coeffs[:b]
        y[k] = CliffordElement(alg, _padded(alg, yh.coeffs[:b] + alg.dt * driver))
    return AdjointPair(
        y=AdaptedProcess(alg, y),
        Y=AdaptedProcess(alg, Y),
        yhat=yhat, lin=lin)


def first_duality_residual(adj: AdjointPair, du: np.ndarray) -> float:
    """Relative residual of the first-order duality identity along the direction du.

    Exact by design; the first variation x1 of du is solved along ``adj.lin``.
    """
    lin = adj.lin
    alg = lin.algebra
    x1 = solve_first_variation(lin, du)
    lhs = -inner(lin.gx, x1[alg.n])
    rhs = 0.0 + 0.0j
    for k in range(alg.n):
        b = 1 << k
        rhs += alg.dt * (np.vdot(adj.yhat[k].coeffs[:b], lin.Du[k] @ du[k])
                         + inner(lin.Lx[k], x1[k])
                         + np.vdot(adj.Y[k].coeffs[:b], lin.Bu[k] @ du[k]))
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)


# -- Hamiltonian gradient ------------------------------------------------------

def hu_field(adj: AdjointPair) -> np.ndarray:
    """Riesz representatives of the control derivative of the Hamiltonian, (N, m)."""
    lin = adj.lin
    out = np.zeros((lin.algebra.n, lin.p.m))
    for k in range(lin.algebra.n):
        b = 1 << k
        out[k] = (np.conj(adj.yhat[k].coeffs[:b]) @ lin.Du[k]).real \
            + (np.conj(adj.Y[k].coeffs[:b]) @ lin.Bu[k]).real - lin.Lu[k]
    return out


# -- second adjoint ----------------------------------------------------------

@dataclass
class SecondAdjoint:
    """Materialized P_k family plus the curvature operators that built it.

    ``adj`` is the first adjoint it was built from; ``adj.lin`` holds the
    problem, the trajectory and its control.
    """

    P: list
    M: list
    adj: AdjointPair


def _checked_curvature(p: ControlProblem, k: int, *args) -> SuperOperator | None:
    """The problem's curvature hook at step k, refused unless it has side 2^k."""
    op = p.curvature(k, *args)
    if op is not None and op.size != 1 << k:
        raise ContractError(f"curvature hook returned side {op.size} at step {k}, not {1 << k}")
    return op


def compute_P(adj: AdjointPair) -> SecondAdjoint:
    """Backward sweep for the second adjoint operator family along ``adj.lin``.

    Each P_k maps the step-k adapted subspace into itself and satisfies the
    transposition identity against the forward test equations exactly; see
    :func:`transposition_residual`.  P_k is stored on its (2^k, 2^k) block,
    P_k = T^H P_{k+1} T + dt M_k with T = :meth:`Linearization.t_block`, so
    E_k needs no mask; P_N is dim x dim.
    """
    lin = adj.lin
    p, xbar, alg = lin.p, lin.xbar, lin.algebra
    if alg.dim > SUPEROP_BUDGET:
        raise CapacityError(
            f"coefficient dimension {alg.dim} exceeds superoperator budget {SUPEROP_BUDGET}")
    n = alg.n
    P: list = [None] * (n + 1)
    M: list = [None] * n
    P[n] = _checked_curvature(p, n, xbar.terminal, None, None, None).scaled(-1.0)
    for k in range(n - 1, -1, -1):
        M[k] = _checked_curvature(p, k, xbar[k], xbar.control[k], adj.yhat[k], adj.Y[k])
        t = lin.t_block(k)
        td = t.conj().T
        nxt = P[k + 1]
        P[k] = SuperOperator(alg, td @ nxt.lin @ t,
                             None if nxt.antilin is None else td @ nxt.antilin @ np.conj(t))
        if M[k] is not None:
            P[k] = P[k] + M[k].scaled(alg.dt)
    return SecondAdjoint(P=P, M=M, adj=adj)


def _step_pairings(pj: SuperOperator, phi2, d2, phi1, d1) -> np.ndarray:
    """P_{j+1}-pairings of two stacks of test steps phi_{j+1} = T_j phi_j + d_j.

    Arguments are coefficient stacks (rows): phi the step results phi_{j+1},
    d_j = dt mu_j + nu_j dW_{j+1} the driven parts.  Entry (a, b) pairs row a
    of the (phi2, d2) steps against row b of the (phi1, d1) steps: every
    pairing of the parts T_j phi_j and d_j except T_j phi_j against T_j
    phi_j, i.e. <P d2, phi1> + <P phi2, d1> - <P d2, d1>, summed as two gram
    calls (P is real-linear).  Under the real symmetry of P the real part of
    a diagonal entry collapses to the familiar display with three distinct
    quadratic/cross terms.
    """
    return pj.gram(phi2, d1) + pj.gram(d2, phi1 - d1)


def _p_block_terms(sa: SecondAdjoint, X: np.ndarray, dus: np.ndarray) -> np.ndarray:
    """P-pairings of the functional as a (B, B) form on a stack of directions.

    X holds the first variations X_0 .. X_N, X_j of shape (B, 2^j), of the
    directions dus (B, N, m).  Each solves the test equation with zeta = 0,
    mu_j = Du_j du_j and nu_j = Bu_j du_j, so P_0 never enters; entry (a, b)
    is real-bilinear in the two test paths, and the diagonal is the P block
    along each direction.
    """
    lin = sa.adj.lin
    total = np.zeros((len(dus), len(dus)), dtype=np.complex128)
    for j in range(lin.algebra.n):
        d = lin.drive_rows(j, dus[:, j] @ lin.Du[j].T, dus[:, j] @ lin.Bu[j].T)
        total += _step_pairings(sa.P[j + 1], X[j + 1], d, X[j + 1], d)
    return total


# -- transposition identity --------------------------------------------------

def _check_test_equations(alg, k: int, zeta: np.ndarray, mu: list, nu: list) -> None:
    """Refuse test equations that do not start at step k or are not at their step widths.

    Checked in the order start index, zeta, driver count, then mu_j before
    nu_j step by step; each test is one shape test on the pair stack.
    """
    n = alg.n
    if not 0 <= k <= n:
        raise ValueError(f"step index {k} outside 0..{n}")
    if zeta.ndim != 3 or zeta.shape[::2] != (2, 1 << k):
        raise ValueError(f"test equation initial conditions must have shape (2, B, {1 << k})")
    if not len(mu) == len(nu) == n - k:
        raise ValueError("test tuple drivers must cover start index .. N-1")
    for j in range(k, n):
        for kind, drivers in (("mu", mu), ("nu", nu)):
            if drivers[j - k].shape != zeta.shape[:2] + (1 << j,):
                raise ValueError(f"{kind} driver at step {j} must have shape "
                                 f"{zeta.shape[:2] + (1 << j,)}, got {drivers[j - k].shape}")


def transposition_residual(sa: SecondAdjoint, k: int, zeta: np.ndarray,
                           mu: list, nu: list) -> float:
    """Max absolute defect of the transposition identity over B pairs of test equations.

    ``zeta`` (2, B, 2^k) holds the initial conditions at step k of each
    pair's first and second equation, ``mu`` and ``nu`` one (2, B, 2^j)
    array of their drivers per step j = k .. N-1; an equation without noise
    drivers has zero ``nu``.  Everything is checked before anything is
    computed (:func:`_check_test_equations`).  The left side pairs the
    equations through the curvature operators M_j that built P (the suite
    checks M_j against the raw callbacks) and the terminal cost through
    ``g_xx``, one pair at a time; the right side goes through the
    materialized P family.  The identity closes to rounding for any two
    equations sharing a start index, with or without nu drivers.  The 2B
    equations step as one (2B, 2^j) stack through :meth:`Linearization.step_rows`;
    per step, the curvature side is the diagonal of one ``M_j.gram`` and the
    P side of one :func:`_step_pairings`.  A NaN defect makes the result NaN.
    """
    lin = sa.adj.lin
    p, alg = lin.p, lin.algebra
    dt = alg.dt
    zeta = np.asarray(zeta, dtype=np.complex128)
    _check_test_equations(alg, k, zeta, mu, nu)

    # rows :b hold the second equations, rows b: the first of the same pairs
    b = zeta.shape[1]
    phi = zeta[::-1].reshape(2 * b, 1 << k)
    rhs = np.diagonal(sa.P[k].gram(phi[:b], phi[b:])).copy()  # P side
    lhs = np.zeros(b, dtype=np.complex128)  # curvature side
    for j, (mu_j, nu_j) in enumerate(zip(mu, nu), start=k):
        if sa.M[j] is not None:
            lhs += dt * np.diagonal(sa.M[j].gram(phi[:b], phi[b:]))
        mu_j, nu_j = (v[::-1].reshape(2 * b, 1 << j) for v in (mu_j, nu_j))
        phi = lin.step_rows(j, phi, mu_j, nu_j)
        # summation-by-parts staggering: P_{j+1} against the step parts
        d = lin.drive_rows(j, mu_j, nu_j)
        rhs += np.diagonal(_step_pairings(sa.P[j + 1], phi[:b], d[:b], phi[b:], d[b:]))
    if p.g_xx is not None:
        gxx = p.g_xx(lin.xbar.terminal)
        lhs -= [gxx(CliffordElement(alg, v2), CliffordElement(alg, v1))
                for v2, v1 in zip(phi[:b], phi[b:])]
    return float(np.max(np.abs(lhs - rhs), initial=0.0))
