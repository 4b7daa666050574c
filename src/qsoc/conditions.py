"""First- and second-order optimality functionals and their consistency checks.

Every functional here works at the base point of the adjoint it is given:
``first_order_integral(adj, u)`` along u - ubar with ubar the control of
``adj.lin``, the second-order functions on a :class:`SecondAdjoint`, whose
``sa.adj`` is the first adjoint that built P.  The direction u must lie in
the box; each function solves the first variations it needs itself.

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
and their first variations, solved there as one stack; the diagonal holds
each direction's own value.  The per-direction functionals read a 1x1
stack.  ``reduced_hessians`` reads the stack of the N*m unit directions and
returns S and its direct oracle as real symmetric matrices H_P and H_D.

``verify_theorem`` checks the condition at a KKT point of the box: S =
du.H_P.du must be <= s_tol on the unit directions of the critical cone.  The
maximum is an eigenvalue of H_P on the free coordinates and a support of
the weakly active ones; the route gap H_P - H_D on the cone, S along the top
cone direction and the cost sweep along it must agree with it.  The state,
the adjoint and P at ubar are built once, and the sweep reuses them.

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
from .clifford import CliffordElement, _padded
from .errors import BudgetError
from .forward import solve_state, stacked_costs
from .problems import ControlProblem, cost, huu_matrix, hxu_pairing

__all__ = [
    "first_order_integral",
    "second_order_functional",
    "second_order_direct",
    "taylor_consistency",
    "TaylorReport",
    "Check",
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


def _direction(adj: AdjointPair, u: np.ndarray) -> np.ndarray:
    """u - ubar for an admissible u, ubar the control of the adjoint's trajectory."""
    return adj.lin.p.check_control_path(u) - adj.lin.xbar.control


def first_order_integral(adj: AdjointPair, u: np.ndarray) -> float:
    """Gate integral sum_k dt <H_u(k), u_k - ubar_k>; equals -dJ/deps at 0."""
    return float(adj.lin.algebra.dt * np.sum(hu_field(adj) * _direction(adj, u)))


@dataclass(frozen=True)
class Check:
    """One pass criterion: metric ``name`` reads ``value``, at most ``bound`` ("<="),
    at least it (">=") or in the closed window ``bound`` ("in").  NaN fails every
    relation; None (an exact order sweep: every point underflowed) holds."""

    name: str
    value: float | None
    bound: float | tuple
    relation: str = "<="

    @property
    def holds(self) -> bool:
        lo, hi = {"<=": (-np.inf, self.bound), ">=": (self.bound, np.inf),
                  "in": self.bound}[self.relation]
        return self.value is None or bool(lo <= self.value <= hi)


def _route_check(name: str, gap: float, s: float) -> Check:
    return Check(name, gap, ROUTE_GAP_TOL * (1.0 + abs(s)))


def _forms(sa: SecondAdjoint, dus: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The parts of S as complex (B, B) forms on a stack of directions.

    ``dus`` (B, N, m) are the directions; their first variations X_0 .. X_N,
    X_k of shape (B, 2^k), are solved as one stack along ``sa.adj.lin``.
    Returns the curvature terms shared by both routes, the P-pairings and the
    direct route (curvature terms plus x1 paired with P_N and the M_j only).
    S through P is Re(curvature + P-pairings), its oracle Re(direct); the
    diagonal of each form is each direction's own value.
    """
    adj = sa.adj
    lin = adj.lin
    p, xbar, alg = lin.p, lin.xbar, lin.algebra
    dt = alg.dt
    X = lin.variation_rows(dus)
    units = np.eye(p.m)
    curvature = np.zeros((len(dus), len(dus)), dtype=np.complex128)
    for k in range(alg.n):
        args = (p, k, xbar[k], xbar.control[k], adj.yhat[k], adj.Y[k])
        curvature += dt * (dus[:, k] @ huu_matrix(*args) @ dus[:, k].T)
        xu = hxu_pairing(*args)
        if xu is not None:
            # linear in the control slot: entry (a, b) pairs x1 of a with du of b
            cross = np.array([[xu(CliffordElement(alg, x), e) for e in units]
                              for x in _padded(alg, X[k])]) @ dus[:, k].T
            curvature += dt * (cross + cross.T)
    direct = curvature + sa.P[alg.n].gram(X[alg.n], X[alg.n])
    for j, mj in enumerate(sa.M):
        if mj is not None:
            direct += dt * mj.gram(X[j], X[j])
    return curvature, _p_block_terms(sa, X, dus), direct


def second_order_functional(sa: SecondAdjoint, u: np.ndarray) -> float:
    """Curvature functional S through P; equals -d2J/deps2 at 0 along u - ubar."""
    curvature, p_pairs, _ = _forms(sa, _direction(sa.adj, u)[None])
    return float((curvature + p_pairs)[0, 0].real)


def second_order_direct(sa: SecondAdjoint, u: np.ndarray) -> float:
    """Oracle for S: x1 paired with P_N and the curvature operators M_j only.

    Agrees with :func:`second_order_functional` to rounding exactly when the
    P_k with 0 < k < N and the first variation are consistent.
    """
    return float(_forms(sa, _direction(sa.adj, u)[None])[2][0, 0].real)


def reduced_hessians(sa: SecondAdjoint) -> tuple[np.ndarray, np.ndarray]:
    """S at ubar as real symmetric matrices: S(du) = v . H_P v, direct S = v . H_D v.

    v = du.reshape(-1), so column a = k*m + i is the unit direction of control
    i at step k.  x1 is real-linear in du and every part of S is real-bilinear
    in (x1, du), so the first variations of the columns, solved as one
    stack, and the forms on that stack give both quadratic forms exactly.
    """
    n, m = sa.adj.lin.algebra.n, sa.adj.lin.p.m
    basis = np.eye(n * m).reshape(n * m, n, m)
    curvature, p_pairs, direct = _forms(sa, basis)
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
    rel_err_first_order: float
    rel_err_second_order: float
    fit_residual: float
    route_gap: float
    eps: list
    gaps: list

    @property
    def checks(self) -> list[Check]:
        return [Check("rel_err_first_order", self.rel_err_first_order, TAYLOR_TOL),
                Check("rel_err_second_order", self.rel_err_second_order, TAYLOR_TOL),
                _route_check("route_gap", self.route_gap, self.s)]


def taylor_consistency(sa: SecondAdjoint, u: np.ndarray, eps_list) -> TaylorReport:
    """Cost-sweep cross-check of both functionals at the base point of ``sa``.

    Fits J(u^eps) - J(ubar) = a eps + b eps^2 (+ higher order); the duality
    identities force a = -FO and b = -S/2.  Estimates use two Richardson
    levels over a halving sweep, so smooth higher-order terms drop to O(eps^2)
    of the finest point; its checks hold both within ``TAYLOR_TOL`` and the
    two routes to S within the route bound.  The sweep's costs come from one
    row-stacked solve.
    """
    eps_list = sorted((float(e) for e in eps_list), reverse=True)
    if len(eps_list) < 3:
        raise ValueError("need at least three sweep points")
    p, xbar = sa.adj.lin.p, sa.adj.lin.xbar
    ubar = xbar.control
    du = _direction(sa.adj, u)

    fo = first_order_integral(sa.adj, u)
    s = second_order_functional(sa, u)
    route_gap = abs(s - second_order_direct(sa, u))

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
                        rel_err_first_order=rel_a, rel_err_second_order=rel_s,
                        fit_residual=fit_res, route_gap=route_gap, eps=eps_list, gaps=gaps)


def default_gate_tolerance(adj: AdjointPair) -> float:
    """1e-8 scaled by the size of the control-derivative field."""
    hu = hu_field(adj)
    scale = 1.0 + adj.lin.algebra.dt * float(np.sum(np.linalg.norm(hu, axis=1)))
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
    taylor_rel_err_first_order: float  # ... and against -FO
    taylor_route_gap: float  # the route gap along that direction
    cone_spectrum: list    # eigenvalues of H_P on the free coordinates, ascending
    checks: list           # the verdict's Check records


def verify_theorem(p: ControlProblem, ubar: np.ndarray, fo_tol: float | None = None,
                   s_tol: float = 1e-6) -> TheoremReport:
    """Check the second-order necessary condition on the critical cone at ``ubar``.

    ``ubar`` must be a KKT point of the box to ``fo_tol`` (default
    :func:`default_gate_tolerance`).  A coordinate at a bound whose descent
    direction leaves the box by more than ``fo_tol`` is strongly active (fixed,
    as in a box of zero width), by at most ``fo_tol`` weakly active (inward
    only); the others are free.  Its checks: the KKT residual, S and the oracles.
    """
    ubar = p.check_control_path(ubar)
    adj = solve_first_adjoint(p, solve_state(p, ubar))
    sa = compute_P(adj)
    if fo_tol is None:
        fo_tol = default_gate_tolerance(adj)
    g = p.algebra.dt * hu_field(adj)
    residual = kkt_residual(p, ubar, g)
    at_lo, at_hi = (ubar <= p.control_set.lower).ravel(), (ubar >= p.control_set.upper).ravel()
    inward = np.where(at_lo, 1.0, np.where(at_hi, -1.0, 0.0))
    push = inward * g.ravel()  # > 0: descent moves into the box
    movable = ~(at_lo & at_hi)
    free = (inward == 0) | ((push > fo_tol) & movable)
    weak = ~free & (push >= -fo_tol) & movable
    h_p, h_d = reduced_hessians(sa)
    max_s, top = _cone_max(h_p, free, weak, inward)
    span = np.ix_(free | weak, free | weak)
    route_gap = float(np.abs(np.linalg.eigvalsh((h_p - h_d)[span])).max(initial=0.0))

    # the oracles take the longest step along the top direction that stays in the box
    top = top.reshape(ubar.shape)
    room = np.where(top > 0, p.control_set.upper - ubar, p.control_set.lower - ubar)
    moves = top != 0
    step = min(1.0, float(np.min(room[moves] / top[moves], initial=1.0)))
    oracle_gap, sweep = 0.0, TaylorReport(*[0.0] * 8, eps=[], gaps=[])  # no sweep: all hold
    if moves.any() and step > 0:
        sweep = taylor_consistency(sa, ubar + step * top, TAYLOR_EPS)
        oracle_gap = abs(sweep.s / step ** 2 - max_s)
    checks = [Check("kkt_residual", residual, float(fo_tol)), Check("cone_max_s", max_s, s_tol),
              _route_check("route_gap", route_gap, max_s),
              _route_check("oracle_gap", float(oracle_gap), max_s),
              *(Check(name, c.value, c.bound) for c, name in zip(sweep.checks, (
                  "taylor_rel_err_first_order", "taylor_rel_err", "taylor_route_gap")))]
    return TheoremReport(fo_tol=float(fo_tol), free=int(free.sum()),
                         strongly_active=int((~free & ~weak).sum()), weakly_active=int(weak.sum()),
                         cone_spectrum=np.linalg.eigh(h_p[np.ix_(free, free)])[0].tolist(),
                         checks=checks, **{c.name: c.value for c in checks})
