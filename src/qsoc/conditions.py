"""First- and second-order optimality functionals and their consistency checks.

``first_order_integral`` is the gating integral: by the exact discrete duality
it equals minus the derivative of the cost along the convex perturbation, so a
difference quotient of the cost must reproduce it to rounding.

``second_order_functional`` assembles the curvature functional whose sign the
second-order necessary condition constrains on gated directions, through the
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
real symmetric matrices H_P and H_D.  ``verify_theorem`` scores every
candidate through them: S = du.H_P.du, route gap |du.(H_P - H_D).du|.  On a
fixed subsample (evenly spaced candidates and the gated one with the largest
S) it also evaluates S along the candidate itself; the largest difference is
``max_oracle_gap``, bounded like the route gap.

A note on the assembled display: a variant that applies the state-direction
diffusion operator to control directions is dimensionally inconsistent (those
operators act on state-space elements, not control vectors), so the functional
here uses the control-direction diffusion derivative throughout, matching the
duality bookkeeping that produces it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adjoint import (
    AdjointPair,
    SecondAdjoint,
    _p_block_terms,
    compute_P,
    hu_field,
    huu_matrix,
    hxu_pairing,
    solve_first_adjoint,
)
from .errors import ContractError
from .forward import solve_first_variation, solve_state
from .problems import ControlProblem, cost

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
    "quadratic_scores",
    "ROUTE_GAP_TOL",
]

ROUTE_GAP_TOL = 1e-10  # bound on the route gap, relative to 1 + |S|
ORACLE_SAMPLES = 8     # evenly spaced theorem candidates re-scored per candidate


def first_order_integral(p: ControlProblem, ubar: np.ndarray, u: np.ndarray,
                         adj: AdjointPair) -> float:
    """Gate integral sum_k dt <H_u(k), u_k - ubar_k>; equals -dJ/deps at 0."""
    ubar = p.check_control_path(ubar)
    u = p.check_control_path(u)
    return float(_gate_values(p, adj, u - ubar))


def _gate_values(p: ControlProblem, adj: AdjointPair, du: np.ndarray):
    """Gate integral of one direction (N, m), or of a stack of them (C, N, m)."""
    return p.algebra.dt * np.sum(hu_field(p, adj) * du, axis=(-2, -1))


def _routes_agree(route_gap: float, s: float) -> bool:
    return route_gap <= ROUTE_GAP_TOL * (1.0 + abs(s))


def _forms(p: ControlProblem, adj: AdjointPair, sa: SecondAdjoint, x1s,
           dus: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The parts of S as complex (B, B) forms on a stack of directions.

    ``dus`` (B, N, m) are the directions, ``x1s`` their first variations.
    Returns the curvature terms shared by both routes, the P-pairings and the
    direct route (curvature terms plus x1 paired with P_N and the M_j only).
    S through P is Re(curvature + P-pairings), its oracle Re(direct); the
    diagonal of each form is each direction's own value.
    """
    if sa.adj is not adj:
        raise ContractError("second adjoint was built from a different first adjoint")
    alg = p.algebra
    dt = alg.dt
    X = np.array([[v.coeffs for v in x1] for x1 in x1s])
    units = np.eye(p.m)
    curvature = np.zeros((len(dus), len(dus)), dtype=np.complex128)
    for k in range(alg.n):
        args = (p, k, sa.xbar[k], sa.ubar[k], adj.yhat[k], adj.Y[k])
        curvature += dt * (dus[:, k] @ huu_matrix(*args) @ dus[:, k].T)
        xu = hxu_pairing(*args)
        if xu is not None:
            # linear in the control slot: entry (a, b) pairs x1 of a with du of b
            cross = np.array([[xu(x1[k], e) for e in units] for x1 in x1s]) @ dus[:, k].T
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
    forms = _forms(p, adj, sa, [x1], (u - ubar)[None])
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
    in (x1, du), so one first-variation solve per column and the forms on the
    stack of columns give both quadratic forms exactly.
    """
    size = p.algebra.n * p.m
    basis = np.eye(size).reshape(size, p.algebra.n, p.m)
    x1s = [solve_first_variation(p, sa.xbar, e) for e in basis]
    curvature, p_pairs, direct = _forms(p, adj, sa, x1s, basis)
    real = np.stack([(curvature + p_pairs).real, direct.real])
    sym = 0.5 * (real + real.transpose(0, 2, 1))
    return sym[0], sym[1]


def quadratic_scores(h: np.ndarray, dus: np.ndarray) -> np.ndarray:
    """v . H v for every row v of ``dus`` (directions flattened as du.reshape(-1))."""
    return np.einsum("ca,ab,cb->c", dus, h, dus)


def _richardson(values: list[float], order: int) -> list[float]:
    w = 2.0 ** order
    return [(w * values[i + 1] - values[i]) / (w - 1.0) for i in range(len(values) - 1)]


@dataclass
class TaylorReport:
    fo: float
    s: float
    a_est: float
    b_est: float
    s_est: float
    rel_err_a: float
    rel_err_b: float
    rel_err_s: float
    fit_residual: float
    route_gap: float
    eps: list
    gaps: list
    passed: bool


def taylor_consistency(p: ControlProblem, ubar: np.ndarray, u: np.ndarray,
                       eps_list, tol: float = 1e-3) -> TaylorReport:
    """Cost-sweep cross-check of both functionals.

    Fits J(u^eps) - J(ubar) = a eps + b eps^2 (+ higher order); the duality
    identities force a = -FO and b = -S/2.  Estimates use two Richardson
    levels over a halving sweep, so smooth higher-order terms drop to O(eps^2)
    of the finest point.  Passing also requires the two routes to S to agree.
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
    x1 = solve_first_variation(p, xbar, du)
    fo = first_order_integral(p, ubar, u, adj)
    s = second_order_functional(p, ubar, u, adj, sa, x1)
    route_gap = abs(s - second_order_direct(p, ubar, u, adj, sa, x1))

    j0 = cost(p, ubar, xbar)
    gaps = []
    for eps in eps_list:
        ueps = ubar + eps * du
        if not p.control_set.contains(ueps):
            raise ValueError(f"perturbed control at eps={eps} leaves the admissible box")
        gaps.append(cost(p, ueps, solve_state(p, ueps)) - j0)

    a_vals = [g / e for g, e in zip(gaps, eps_list)]
    a_est = _richardson(_richardson(a_vals, 1), 2)[-1]
    # subtract the first-order Taylor term a*eps = -FO*eps before scaling
    s_vals = [-2.0 * (g + e * fo) / (e * e) for g, e in zip(gaps, eps_list)]
    s_est = _richardson(_richardson(s_vals, 1), 2)[-1]

    design = np.stack([np.array(eps_list), np.array(eps_list) ** 2], axis=1)
    coef, *_ = np.linalg.lstsq(design, np.array(gaps), rcond=None)
    fit_res = float(np.linalg.norm(design @ coef - np.array(gaps)))
    b_est = float(coef[1])

    # scale against the larger expansion coefficient so a vanishing gate or a
    # vanishing curvature (stationary or flat directions) cannot inflate the
    # relative errors; truncation errors live on the scale of the surviving terms
    scale = max(abs(fo), abs(s), 1e-12)
    rel_a = abs(a_est + fo) / max(abs(fo), scale * 1e-3)
    rel_b = abs(b_est + 0.5 * s) / max(abs(0.5 * s), scale * 1e-3)
    rel_s = abs(s_est - s) / max(abs(s), scale * 1e-3)
    return TaylorReport(fo=fo, s=s, a_est=float(a_est), b_est=b_est, s_est=float(s_est),
                        rel_err_a=rel_a, rel_err_b=rel_b, rel_err_s=rel_s,
                        fit_residual=fit_res, route_gap=route_gap,
                        eps=eps_list, gaps=gaps,
                        passed=bool(rel_a <= tol and rel_s <= tol
                                    and _routes_agree(route_gap, s)))


def default_gate_tolerance(p: ControlProblem, adj: AdjointPair) -> float:
    """1e-8 scaled by the size of the control-derivative field."""
    hu = hu_field(p, adj)
    scale = 1.0 + p.algebra.dt * float(np.sum(np.linalg.norm(hu, axis=1)))
    return 1e-8 * scale


@dataclass
class TheoremReport:
    rows: list          # (fo, s, gated, ok) per candidate
    fo_tol: float
    s_tol: float
    max_route_gap: float
    max_oracle_gap: float  # reduced-Hessian S against S evaluated per candidate
    verdict: bool

    @property
    def gated_count(self) -> int:
        return sum(1 for _, _, gated, _ in self.rows if gated)


def _oracle_sample(s: np.ndarray, gated: np.ndarray) -> list[int]:
    """Evenly spaced candidates, first and last included, plus the worst gated one."""
    count = len(s)
    picks = set(np.linspace(0, count - 1, min(ORACLE_SAMPLES, count))
                .round().astype(int).tolist())
    if gated.any():
        picks.add(int(np.flatnonzero(gated)[np.argmax(s[gated])]))
    return sorted(picks)


def verify_theorem(p: ControlProblem, ubar: np.ndarray, candidates: list,
                   fo_tol: float | None = None, s_tol: float = 1e-6) -> TheoremReport:
    """Check the second-order necessary condition over a candidate family.

    For every candidate whose gate integral vanishes within ``fo_tol`` the
    curvature functional must be <= ``s_tol``.  Ungated candidates make no
    sign assertion, but every candidate's two routes to S must agree.  S is
    scored through :func:`reduced_hessians`; on a subsample it must also agree
    with :func:`second_order_functional` evaluated along the candidate.
    """
    ubar = p.check_control_path(ubar)
    xbar = solve_state(p, ubar)
    adj = solve_first_adjoint(p, xbar, ubar)
    sa = compute_P(p, xbar, ubar, adj)
    if fo_tol is None:
        fo_tol = default_gate_tolerance(p, adj)
    # one box check for the whole family; per path it would cost more than the scoring
    us = np.array(candidates, dtype=float)
    if candidates and us.shape[1:] != ubar.shape:
        raise ValueError(f"candidate control paths must have shape {ubar.shape}")
    us = us.reshape(len(candidates), *ubar.shape)
    if not p.control_set.contains(us):
        raise ValueError("a candidate control leaves the admissible box")
    du = us - ubar
    dus = du.reshape(len(us), ubar.size)
    h_p, h_d = reduced_hessians(p, adj, sa)
    # + 0.0 turns the -0.0 of a zero direction into 0.0
    s = quadratic_scores(h_p, dus) + 0.0
    gaps = np.abs(quadratic_scores(h_p - h_d, dus))
    fo = _gate_values(p, adj, du)
    gated = np.abs(fo) <= fo_tol
    ok = (gaps <= ROUTE_GAP_TOL * (1.0 + np.abs(s))) & (~gated | (s <= s_tol))

    # oracle: S evaluated along the candidate itself, on a subsample
    max_oracle_gap = 0.0
    for c in _oracle_sample(s, gated):
        x1 = solve_first_variation(p, xbar, du[c])
        s_along = second_order_functional(p, ubar, us[c], adj, sa, x1)
        max_oracle_gap = max(max_oracle_gap, abs(s[c] - s_along))
        ok[c] &= _routes_agree(abs(s[c] - s_along), s_along)

    rows = [(float(f), float(v), bool(g), bool(o)) for f, v, g, o in zip(fo, s, gated, ok)]
    return TheoremReport(rows=rows, fo_tol=float(fo_tol), s_tol=float(s_tol),
                         max_route_gap=float(gaps.max(initial=0.0)),
                         max_oracle_gap=float(max_oracle_gap),
                         verdict=bool(ok.all()))
