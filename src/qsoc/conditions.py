"""First- and second-order optimality functionals and their consistency checks.

``first_order_integral`` is the gating integral: by the exact discrete duality
it equals minus the derivative of the cost along the convex perturbation, so a
difference quotient of the cost must reproduce it to rounding.

``second_order_functional`` assembles the curvature functional whose sign the
second-order necessary condition constrains on the critical cone, through the
second adjoint P.  Its value equals minus the second epsilon-derivative of the
cost, which ``taylor_consistency`` verifies by Richardson extrapolation of
cost sweeps.  ``second_order_direct`` evaluates it directly along the first
variation (terminal and running curvature, no P_k with k < N); the gap between
the two routes vanishes to rounding only when P and the first variation are
consistent, and every check here requires it.

At a fixed base control the gate integral is linear in the direction du,
dt <H_u, du>, and S is an exact real quadratic form in du: the first
variation is real-linear in du, and each part of S (the curvature terms, the
P-pairings, the direct terms) is real-bilinear in (x1, du).  Every part is
implemented once, in ``_forms``, as a (B, B) form on a stack of B directions
and their first variations; the diagonal holds each direction's own value.
The per-direction functionals read a 1x1 stack.  ``reduced_hessians`` reads
the stack of the N*m unit directions and returns S and its direct oracle as
real symmetric matrices H_P and H_D.

``verify_theorem`` checks the condition at a KKT point of the box: S =
du.H_P.du must be <= s_tol on the unit directions of the critical cone.  The
maximum is an eigenvalue of H_P on the free coordinates and a support of
the weakly active ones; the route gap H_P - H_D on the cone, S along the top
cone direction and the cost sweep along it must agree with it.

A note on the assembled display: a variant that applies the state-direction
diffusion operator to control directions is dimensionally inconsistent (those
operators act on state-space elements, not control vectors), so the functional
here uses the control-direction diffusion derivative throughout, matching the
duality bookkeeping that produces it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .adjoint import (
    AdjointPair,
    SecondAdjoint,
    _p_block_terms,
    compute_P,
    hu_field,
    solve_first_adjoint,
)
from .clifford import CliffordElement
from .errors import BudgetError, ContractError
from .forward import solve_first_variation, solve_state, stacked_costs
from .problems import ControlProblem, cost, huu_matrix, hxu_pairing

__all__ = [
    "first_order_integral",
    "second_order_functional",
    "second_order_direct",
    "taylor_consistency",
    "TaylorReport",
    "verify_theorem",
    "TheoremReport",
    "default_gate_tolerance",
    "reduced_hessians",
    "kkt_residual",
    "ROUTE_GAP_TOL",
    "TAYLOR_TOL",
]

ROUTE_GAP_TOL = 1e-10  # bound on the route gap, relative to 1 + |S|
TAYLOR_TOL = 1e-3  # bound on the cost sweep's relative errors against -FO and S
WEAK_SUPPORT_BUDGET = 1 << 12  # supports of the weakly active coordinates enumerated
TAYLOR_EPS = [2.0 ** -e for e in range(4, 9)]  # cost sweep along the top cone direction


def first_order_integral(p: ControlProblem, ubar: np.ndarray, u: np.ndarray,
                         adj: AdjointPair) -> float:
    """Gate integral sum_k dt <H_u(k), u_k - ubar_k>; equals -dJ/deps at 0."""
    ubar = p.check_control_path(ubar)
    du = p.check_control_path(u) - ubar
    return float(p.algebra.dt * np.sum(hu_field(p, adj) * du))


def _routes_agree(route_gap: float, s: float) -> bool:
    return route_gap <= ROUTE_GAP_TOL * (1.0 + abs(s))


def _forms(p: ControlProblem, adj: AdjointPair, sa: SecondAdjoint, X: np.ndarray,
           dus: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The parts of S as complex (B, B) forms on a stack of directions.

    ``dus`` (B, N, m) are the directions, ``X`` (B, N+1, dim) their first
    variations.
    Returns the curvature terms shared by both routes, the P-pairings and the
    direct route (curvature terms plus x1 paired with P_N and the M_j only).
    S through P is Re(curvature + P-pairings), its oracle Re(direct); the
    diagonal of each form is each direction's own value.
    """
    if sa.adj is not adj:
        raise ContractError("second adjoint was built from a different first adjoint")
    alg = p.algebra
    dt = alg.dt
    units = np.eye(p.m)
    curvature = np.zeros((len(dus), len(dus)), dtype=np.complex128)
    for k in range(alg.n):
        args = (p, k, sa.xbar[k], sa.ubar[k], adj.yhat[k], adj.Y[k])
        curvature += dt * (dus[:, k] @ huu_matrix(*args) @ dus[:, k].T)
        xu = hxu_pairing(*args)
        if xu is not None:
            # linear in the control slot: entry (a, b) pairs x1 of a with du of b
            cross = np.array([[xu(CliffordElement(alg, x[k]), e) for e in units]
                              for x in X]) @ dus[:, k].T
            curvature += dt * (cross + cross.T)
    direct = curvature + sa.P[alg.n].gram(X[:, alg.n], X[:, alg.n])
    for j, mj in enumerate(sa.M):
        if mj is not None:
            direct += dt * mj.gram(X[:, j], X[:, j])
    return curvature, _p_block_terms(sa, X, dus), direct


def _forms_along(p: ControlProblem, ubar: np.ndarray, u: np.ndarray,
                 adj: AdjointPair, sa: SecondAdjoint, x1) -> tuple[complex, complex, complex]:
    """Curvature terms, P-pairings and direct route along the one direction u - ubar."""
    ubar = p.check_control_path(ubar)
    u = p.check_control_path(u)
    if not np.array_equal(ubar, sa.ubar):
        raise ContractError("functional must be evaluated at the adjoint's base control")
    forms = _forms(p, adj, sa, np.array([[v.coeffs for v in x1]]), (u - ubar)[None])
    return tuple(complex(f[0, 0]) for f in forms)


def second_order_functional(p: ControlProblem, ubar: np.ndarray, u: np.ndarray,
                            adj: AdjointPair, sa: SecondAdjoint, x1) -> float:
    """Curvature functional S through P; equals -d2J/deps2 at 0 along u - ubar."""
    curix, pb, _ = _forms_along(p, ubar, u, adj, sa, x1)
    return float((curix + pb).real)


def second_order_direct(p: ControlProblem, ubar: np.ndarray, u: np.ndarray,
                        adj: AdjointPair, sa: SecondAdjoint, x1) -> float:
    """Oracle for S: x1 paired with P_N and the curvature operators M_j only.

    Agrees with :func:`second_order_functional` to rounding exactly when the
    P_k with 0 < k < N and the first variation are consistent.
    """
    return float(_forms_along(p, ubar, u, adj, sa, x1)[2].real)


def reduced_hessians(p: ControlProblem, adj: AdjointPair,
                     sa: SecondAdjoint) -> tuple[np.ndarray, np.ndarray]:
    """S at ubar as real symmetric matrices: S(du) = v . H_P v, direct S = v . H_D v.

    v = du.reshape(-1), so column a = k*m + i is the unit direction of control
    i at step k.  x1 is real-linear in du and every part of S is real-bilinear
    in (x1, du), so the first variations of the columns, solved as one
    stack, and the forms on that stack give both quadratic forms exactly.
    """
    size = p.algebra.n * p.m
    basis = np.eye(size).reshape(size, p.algebra.n, p.m)
    curvature, p_pairs, direct = _forms(p, adj, sa, sa.lin.variation_rows(basis), basis)
    real = np.stack([(curvature + p_pairs).real, direct.real])
    sym = 0.5 * (real + real.transpose(0, 2, 1))
    return sym[0], sym[1]


def _richardson(values: list[float], order: int) -> list[float]:
    w = 2.0 ** order
    return [(w * values[i + 1] - values[i]) / (w - 1.0) for i in range(len(values) - 1)]


@dataclass
class TaylorReport:
    fo: float
    s: float
    a_est: float
    s_est: float
    rel_err_a: float
    rel_err_s: float
    fit_residual: float
    route_gap: float
    eps: list
    gaps: list
    passed: bool


def taylor_consistency(p: ControlProblem, ubar: np.ndarray, u: np.ndarray,
                       eps_list) -> TaylorReport:
    """Cost-sweep cross-check of both functionals.

    Fits J(u^eps) - J(ubar) = a eps + b eps^2 (+ higher order); the duality
    identities force a = -FO and b = -S/2.  Estimates use two Richardson
    levels over a halving sweep, so smooth higher-order terms drop to O(eps^2)
    of the finest point; both must be within ``TAYLOR_TOL``.  The sweep's
    costs come from one row-stacked solve.  Passing also requires the two
    routes to S to agree.
    """
    eps_list = sorted((float(e) for e in eps_list), reverse=True)
    if len(eps_list) < 3:
        raise ValueError("need at least three sweep points")
    ubar = p.check_control_path(ubar)
    u = p.check_control_path(u)
    du = u - ubar

    xbar = solve_state(p, ubar)
    adj = solve_first_adjoint(p, xbar, ubar)
    sa = compute_P(p, xbar, ubar, adj)
    x1 = solve_first_variation(adj.lin, du)
    fo = first_order_integral(p, ubar, u, adj)
    s = second_order_functional(p, ubar, u, adj, sa, x1)
    route_gap = abs(s - second_order_direct(p, ubar, u, adj, sa, x1))

    sweep = ubar + np.array(eps_list)[:, None, None] * du
    for eps, ueps in zip(eps_list, sweep):
        if not p.control_set.contains(ueps):
            raise ValueError(f"perturbed control at eps={eps} leaves the admissible box")
    gaps = (stacked_costs(p, sweep) - cost(p, ubar, xbar)).tolist()

    a_vals = [g / e for g, e in zip(gaps, eps_list)]
    a_est = _richardson(_richardson(a_vals, 1), 2)[-1]
    # subtract the first-order Taylor term a*eps = -FO*eps before scaling
    s_vals = [-2.0 * (g + e * fo) / (e * e) for g, e in zip(gaps, eps_list)]
    s_est = _richardson(_richardson(s_vals, 1), 2)[-1]

    design = np.stack([np.array(eps_list), np.array(eps_list) ** 2], axis=1)
    coef, *_ = np.linalg.lstsq(design, np.array(gaps), rcond=None)
    fit_res = float(np.linalg.norm(design @ coef - np.array(gaps)))

    # scale against the larger expansion coefficient so a vanishing gate or a
    # vanishing curvature (stationary or flat directions) cannot inflate the
    # relative errors; truncation errors live on the scale of the surviving terms
    scale = max(abs(fo), abs(s), 1e-12)
    rel_a = abs(a_est + fo) / max(abs(fo), scale * 1e-3)
    rel_s = abs(s_est - s) / max(abs(s), scale * 1e-3)
    return TaylorReport(fo=fo, s=s, a_est=float(a_est), s_est=float(s_est),
                        rel_err_a=rel_a, rel_err_s=rel_s,
                        fit_residual=fit_res, route_gap=route_gap,
                        eps=eps_list, gaps=gaps,
                        passed=bool(rel_a <= TAYLOR_TOL and rel_s <= TAYLOR_TOL
                                    and _routes_agree(route_gap, s)))


def default_gate_tolerance(p: ControlProblem, adj: AdjointPair) -> float:
    """1e-8 scaled by the size of the control-derivative field."""
    hu = hu_field(p, adj)
    scale = 1.0 + p.algebra.dt * float(np.sum(np.linalg.norm(hu, axis=1)))
    return 1e-8 * scale


def kkt_residual(p: ControlProblem, u: np.ndarray, g: np.ndarray) -> float:
    """Largest move of u -> proj(u + g); g = dt * H_u descends, so 0 at a KKT point."""
    return float(np.max(np.abs(p.control_set.project(u + g) - u), initial=0.0))


def _cone_max(h: np.ndarray, free: np.ndarray, weak: np.ndarray,
              inward: np.ndarray) -> tuple[float, np.ndarray]:
    """max of v.h.v over unit v in the cone, and a maximizer; (0.0, 0) on the cone {0}.

    A maximizer with weakly active support A is an eigenvector of the block on
    the free coordinates and A, its A entries inward: enumerating A is exact.
    """
    fixed, loose = np.flatnonzero(free), np.flatnonzero(weak)
    if 1 << loose.size > WEAK_SUPPORT_BUDGET:
        raise BudgetError(f"2^{loose.size} supports of the weakly active coordinates exceed "
                          f"the budget {WEAK_SUPPORT_BUDGET}")
    best, top = -np.inf, np.zeros(len(h))
    for size in range(loose.size + 1):
        for support in itertools.combinations(loose, size):
            idx = np.r_[fixed, support].astype(int)
            vals, vecs = np.linalg.eigh(h[np.ix_(idx, idx)])
            for val, vec in zip(vals[::-1], vecs.T[::-1]):
                if val <= best:
                    break
                side = np.sign(vec[fixed.size:] * inward[list(support)])
                if abs(side.sum()) == side.size:  # every A entry inward, for vec or -vec
                    best, top = float(val), np.zeros(len(h))
                    top[idx] = vec * (side[0] if side.size else 1.0)
                    break
    return (0.0, top) if best == -np.inf else (best, top)


@dataclass
class TheoremReport:
    fo_tol: float
    kkt_residual: float
    free: int
    strongly_active: int
    weakly_active: int
    cone_max_s: float      # max of du.H_P.du over unit du in the critical cone
    route_gap: float       # largest |du.(H_P - H_D).du| over unit du in the cone's span
    oracle_gap: float      # cone_max_s against S along the top cone direction
    taylor_rel_err: float  # the cost sweep along that direction against S
    verdict_ok: bool
    cone_spectrum: list    # eigenvalues of H_P on the free coordinates, ascending


def verify_theorem(p: ControlProblem, ubar: np.ndarray, fo_tol: float | None = None,
                   s_tol: float = 1e-6) -> TheoremReport:
    """Check the second-order necessary condition on the critical cone at ``ubar``.

    ``ubar`` must be a KKT point of the box to ``fo_tol`` (default
    :func:`default_gate_tolerance`).  A coordinate at a bound whose descent
    direction leaves the box by more than ``fo_tol`` is strongly active (fixed,
    as in a box of zero width), by at most ``fo_tol`` weakly active (inward
    only); the others are free.
    """
    ubar = p.check_control_path(ubar)
    xbar = solve_state(p, ubar)
    adj = solve_first_adjoint(p, xbar, ubar)
    sa = compute_P(p, xbar, ubar, adj)
    if fo_tol is None:
        fo_tol = default_gate_tolerance(p, adj)
    g = p.algebra.dt * hu_field(p, adj)
    residual = kkt_residual(p, ubar, g)
    at_lo, at_hi = (ubar <= p.control_set.lower).ravel(), (ubar >= p.control_set.upper).ravel()
    inward = np.where(at_lo, 1.0, np.where(at_hi, -1.0, 0.0))
    push = inward * g.ravel()  # > 0: descent moves into the box
    movable = ~(at_lo & at_hi)
    free = (inward == 0) | ((push > fo_tol) & movable)
    weak = ~free & (push >= -fo_tol) & movable
    h_p, h_d = reduced_hessians(p, adj, sa)
    max_s, top = _cone_max(h_p, free, weak, inward)
    span = np.ix_(free | weak, free | weak)
    route_gap = float(np.abs(np.linalg.eigvalsh((h_p - h_d)[span])).max(initial=0.0))

    # the oracles take the longest step along the top direction that stays in the box
    top = top.reshape(ubar.shape)
    room = np.where(top > 0, p.control_set.upper - ubar, p.control_set.lower - ubar)
    moves = top != 0
    step = min(1.0, float(np.min(room[moves] / top[moves], initial=1.0)))
    oracle_gap = taylor_rel_err = 0.0
    taylor_ok = True
    if moves.any() and step > 0:
        du = step * top
        x1 = solve_first_variation(adj.lin, du)
        oracle_gap = abs(second_order_functional(p, ubar, ubar + du, adj, sa, x1) / step ** 2
                         - max_s)
        sweep = taylor_consistency(p, ubar, ubar + du, TAYLOR_EPS)
        taylor_rel_err, taylor_ok = sweep.rel_err_s, sweep.passed
    verdict = (residual <= fo_tol and max_s <= s_tol and taylor_ok
               and _routes_agree(route_gap, max_s) and _routes_agree(oracle_gap, max_s))
    return TheoremReport(fo_tol=float(fo_tol), kkt_residual=residual, free=int(free.sum()),
                         strongly_active=int((~free & ~weak).sum()), weakly_active=int(weak.sum()),
                         cone_max_s=max_s, route_gap=route_gap, oracle_gap=float(oracle_gap),
                         taylor_rel_err=float(taylor_rel_err), verdict_ok=bool(verdict),
                         cone_spectrum=np.linalg.eigh(h_p[np.ix_(free, free)])[0].tolist())
