"""Candidate-control generation: Newton to a KKT point, projected gradient, brute force.

The gradient field is the control derivative of the Hamiltonian along the
iterate's own trajectory and adjoint; by the exact discrete duality this is
the exact gradient of the discrete cost, so fixed-step ascent on the
Hamiltonian descends the cost.  :func:`kkt_point` takes Newton steps on the
reduced Hessian H_P (the second adjoint's) to a KKT point of the box; the
``optimize`` suite runs it from its interior start, then
:func:`projected_gradient` and :func:`kkt_point` once more as the fallback,
both of which return at their first check from a KKT point.  Brute force
enumerates a product grid over the box and certifies tiny instances
independently of any gradient information.

The brute force evaluates the grid, and the projected gradient its
line-search candidates, in blocks through :func:`~qsoc.forward.stacked_paths`,
whose rows are the per-path costs ``cost(p, u, solve_state(p, u))`` and
states bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adjoint import compute_P, hu_field, solve_first_adjoint
from .conditions import kkt_residual, reduced_hessians
from .errors import BudgetError, QsocError, StepSizeError
from .forward import Trajectory, solve_state, stacked_costs, stacked_paths
from .problems import ControlProblem, cost

__all__ = ["projected_gradient", "kkt_point", "brute_force_search", "GradientTrace",
           "NewtonTrace"]

BRUTE_FORCE_BUDGET = 10 ** 5  # grid controls; the optimize suite certifies only within it
GRID_POINTS = 5  # per control dimension, on the grid of the optimize suite
COST_SLACK = 1e-14  # a step may raise the cost by this much (rounding) and still count
# State entries (rows x dim) per block of the brute force, of the line search and
# of the algebra and isometry suites' probes: bounds the block's memory.
SCREEN_BLOCK_ENTRIES = 1 << 12
# KKT points of the theorem and optimize suites: Newton steps until the largest
# move of the projected step u -> proj(u + dt H_u) is at most KKT_TOL
KKT_TOL, NEWTON_STEPS = 1e-12, 20


@dataclass
class GradientTrace:
    costs: list
    grad_norms: list
    step_halvings: int
    converged: bool
    stalled: bool = False

    @property
    def iterations(self) -> int:
        return len(self.costs) - 1


def projected_gradient(p: ControlProblem, u0: np.ndarray, step: float = 0.5,
                       max_iter: int = 200, grad_tol: float = 1e-9,
                       ) -> tuple[np.ndarray, GradientTrace]:
    """Fixed-step projected ascent on the Hamiltonian (descent on the cost).

    A proposed step is halved (up to 20 times) whenever it fails to keep the
    cost finite and non-increasing, so the recorded cost trace is monotone.
    The 21 candidate steps go through :func:`stacked_paths` in blocks of
    ``max(1, SCREEN_BLOCK_ENTRIES // dim)`` rows, and the first finite,
    non-increasing one is taken: the trace and the halving count are those of
    trying one step at a time whenever those costs equal ``cost`` (see there).
    The accepted control's trajectory is taken from its block and carried
    into the next iteration.  Stops when the projected-gradient norm
    falls below ``grad_tol``, so at iteration 0 from a KKT point of
    :func:`kkt_point`, where that norm is of order ``KKT_TOL / dt``.  A
    non-finite cost at ``u0`` or gradient, or a cost that stays non-finite at
    every step size, raises :class:`StepSizeError`.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    u = p.check_control_path(np.asarray(u0, dtype=float)).copy()
    dt = p.algebra.dt
    xbar = solve_state(p, u)
    j_curr = cost(p, u, xbar)
    if not np.isfinite(j_curr):
        raise StepSizeError(f"cost {j_curr} at the initial control is not finite")
    costs = [j_curr]
    grad_norms = []
    halvings_total = 0
    converged = False
    stalled = False
    scales = step * 0.5 ** np.arange(21)
    rows = max(1, SCREEN_BLOCK_ENTRIES // p.algebra.dim)
    for _ in range(max_iter):
        grad = hu_field(solve_first_adjoint(p, xbar))
        if not np.all(np.isfinite(grad)):
            raise StepSizeError(f"gradient not finite at iteration {len(grad_norms)}")
        moved = (p.control_set.project(u + step * grad) - u) / step
        pg_norm = float(np.sqrt(dt * np.sum(moved * moved)))
        grad_norms.append(pg_norm)
        if pg_norm <= grad_tol:
            converged = True
            break
        taken = None
        saw_nonfinite = False
        for start in range(0, len(scales), rows):
            cands = p.control_set.project(u + scales[start:start + rows, None, None] * grad)
            j_cands, states = stacked_paths(p, cands)
            finite = np.isfinite(j_cands)
            ok = finite & (j_cands <= j_curr)
            if ok.any():
                taken = int(np.argmax(ok))
                break
            saw_nonfinite = saw_nonfinite or not finite.all()
        if taken is None:
            halvings_total += len(scales)
            if saw_nonfinite:
                raise StepSizeError("cost stayed non-finite after 20 halvings")
            # finite but no decrease at machine precision: stationary for
            # this arithmetic, stop here rather than fail
            stalled = True
            break
        halvings_total += start + taken
        u, j_curr = cands[taken], float(j_cands[taken])
        xbar = Trajectory.from_rows(p.algebra, [X[taken] for X in states], u)
        costs.append(j_curr)
    return u, GradientTrace(costs=costs, grad_norms=grad_norms,
                            step_halvings=halvings_total, converged=converged,
                            stalled=stalled)


@dataclass
class NewtonTrace:
    costs: list          # at the start and after every accepted step
    newton_steps: int
    gradient_steps: int  # projected-gradient steps taken where Newton did not lower the cost
    kkt_residual: float  # at the returned control


def kkt_point(p: ControlProblem, u0: np.ndarray) -> tuple[np.ndarray, NewtonTrace]:
    """Newton steps on the free coordinates until the KKT residual is <= ``KKT_TOL``.

    A step is u_F <- u_F - H_P[F, F]^-1 g_F, projected onto the box, where
    g = dt * H_u, H_P is the reduced Hessian of S (minus the cost's Hessian)
    and F holds the coordinates inside the box or moved off their bound by g.
    (A singular block takes its least-squares step.)  A step that raises the
    cost beyond rounding gives way to one :func:`projected_gradient` step;
    the search stops when that stalls too, or after ``NEWTON_STEPS`` steps.
    From a control whose KKT residual is already at most ``KKT_TOL`` it
    returns ``u0`` after its first residual check.  ``theorem`` starts it at
    the box midpoint and ``optimize`` at its random interior control; both
    hold the returned ``kkt_residual`` to ``KKT_TOL``.
    """
    u = p.check_control_path(np.asarray(u0, dtype=float))
    lo, hi = p.control_set.lower, p.control_set.upper
    xbar = solve_state(p, u)
    trace = NewtonTrace(costs=[cost(p, u, xbar)], newton_steps=0, gradient_steps=0,
                        kkt_residual=np.inf)
    if not np.isfinite(trace.costs[0]):
        raise StepSizeError(f"cost {trace.costs[0]} at the initial control is not finite")
    while True:
        adj = solve_first_adjoint(p, xbar)
        g = p.algebra.dt * hu_field(adj)
        if not np.all(np.isfinite(g)):
            raise StepSizeError(f"gradient not finite after {len(trace.costs) - 1} steps")
        trace.kkt_residual = kkt_residual(p, u, g)
        if trace.kkt_residual <= KKT_TOL or len(trace.costs) > NEWTON_STEPS:
            return u, trace
        free = (((lo < u) & (u < hi)) | (p.control_set.project(u + g) != u)).ravel()
        h_p = reduced_hessians(compute_P(adj))[0][np.ix_(free, free)]
        cand = u.copy()
        cand.reshape(-1)[free] -= np.linalg.lstsq(h_p, g.ravel()[free], rcond=None)[0]
        cand = p.control_set.project(cand)
        x_cand = solve_state(p, cand)
        j_cand = cost(p, cand, x_cand)
        if j_cand <= trace.costs[-1] + COST_SLACK:
            trace.newton_steps += 1
        else:
            cand, step = projected_gradient(p, u, max_iter=1, grad_tol=0.0)
            if step.iterations == 0:
                return u, trace
            x_cand, j_cand = solve_state(p, cand), step.costs[-1]
            trace.gradient_steps += 1
        u, xbar = cand, x_cand
        trace.costs.append(j_cand)


def _grid_blocks(p: ControlProblem, grid_points_per_dim: int):
    """The product grid over the box in blocks, in order, each a (rows, N, m) array.

    Each control dimension takes ``grid_points_per_dim`` evenly spaced values
    from its lower to its upper bound; a single point is the box midpoint.
    Control number i has base-``grid_points_per_dim`` digits i_0 .. i_{Nm-1},
    most significant first; digit j picks the value of coordinate (j // m,
    j % m) on the axis of control dimension j % m.
    """
    lo, hi = p.control_set.lower, p.control_set.upper
    if grid_points_per_dim == 1:
        axes = np.array([[0.5 * (lo[i] + hi[i])] for i in range(p.m)])
    else:
        axes = np.array([np.linspace(lo[i], hi[i], grid_points_per_dim)
                         for i in range(p.m)])
    n, m = p.algebra.n, p.m
    powers = grid_points_per_dim ** np.arange(n * m - 1, -1, -1, dtype=np.int64)
    total = grid_points_per_dim ** (n * m)
    rows = max(1, SCREEN_BLOCK_ENTRIES // p.algebra.dim)
    for start in range(0, total, rows):
        indices = np.arange(start, min(start + rows, total), dtype=np.int64)
        digits = (indices[:, None] // powers) % grid_points_per_dim
        yield axes[np.arange(n * m) % m, digits].reshape(-1, n, m)


def brute_force_search(p: ControlProblem, grid_points_per_dim: int,
                       budget: int = BRUTE_FORCE_BUDGET) -> tuple[np.ndarray, float]:
    """Exhaustive minimum over the controls of the product grid of :func:`_grid_blocks`.

    Enumeration is lexicographic and ties keep the earlier (lexicographically
    smallest) control, so the result is deterministic; a NaN cost never wins.
    The grid goes through :func:`stacked_costs` block by block.  Raises
    :class:`QsocError` when no grid cost is finite.
    """
    if grid_points_per_dim < 1:
        raise ValueError("need at least one grid point per dimension")
    if not p.control_set.is_bounded():
        raise ValueError("brute force requires a bounded control box")
    total = grid_points_per_dim ** (p.algebra.n * p.m)
    if total > budget:
        raise BudgetError(f"{total} grid controls exceed the budget {budget}")
    best_u = None
    best_j = np.inf
    for block in _grid_blocks(p, grid_points_per_dim):
        costs = stacked_costs(p, block)
        i = int(np.argmin(np.where(np.isnan(costs), np.inf, costs)))  # first on a tie
        if costs[i] < best_j:
            best_j = float(costs[i])
            best_u = block[i]
    if best_u is None:
        raise QsocError(f"no finite cost on the {grid_points_per_dim}^{p.algebra.n * p.m} grid")
    return best_u, best_j
