"""Candidate-control generation: adjoint-based projected gradient, brute force.

The gradient field is the control derivative of the Hamiltonian along the
iterate's own trajectory and adjoint; by the exact discrete duality this is
the exact gradient of the discrete cost, so fixed-step ascent on the
Hamiltonian descends the cost.  Brute force enumerates a product grid over the
box and certifies tiny instances independently of any gradient information.

For problems with the row hooks the brute force screens the grid in blocks
through :func:`~qsoc.forward.stacked_costs`, then re-evaluates every control
whose screened cost lies within ``SCREEN_MARGIN`` of the screened minimum
through ``cost(p, u, solve_state(p, u))``, in lexicographic order; the result
is the one the per-path loop over the whole grid returns, bit for bit.
Problems without the hooks run that loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adjoint import hu_field, solve_first_adjoint
from .errors import BudgetError, StepSizeError
from .forward import solve_state, stacked_costs
from .problems import ControlProblem, cost

__all__ = ["projected_gradient", "brute_force_search", "control_grid", "GradientTrace"]

BRUTE_FORCE_BUDGET = 10 ** 6
GRID_POINTS = 5  # per control dimension, on the grids of the theorem and optimize suites
# Relative screening margin.  It must exceed twice the largest gap between a
# screened cost and the per-path cost; tests measure that gap on the gallery
# at a few 1e-16 relative, and require it below a hundredth of the margin.
SCREEN_MARGIN = 1e-12
# State entries (rows x dim) per screened block: bounds the block's memory.
SCREEN_BLOCK_ENTRIES = 1 << 12


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
    Stops when the projected-gradient norm falls below ``grad_tol``.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    u = p.check_control_path(np.asarray(u0, dtype=float)).copy()
    dt = p.algebra.dt
    j_curr = cost(p, u, solve_state(p, u))
    costs = [j_curr]
    grad_norms = []
    halvings_total = 0
    converged = False
    stalled = False
    for _ in range(max_iter):
        xbar = solve_state(p, u)
        adj = solve_first_adjoint(p, xbar, u)
        grad = hu_field(p, adj)
        moved = (p.control_set.project(u + step * grad) - u) / step
        pg_norm = float(np.sqrt(dt * np.sum(moved * moved)))
        grad_norms.append(pg_norm)
        if pg_norm <= grad_tol:
            converged = True
            break
        s = step
        accepted = False
        saw_nonfinite = False
        for _halving in range(21):
            cand = p.control_set.project(u + s * grad)
            j_cand = cost(p, cand, solve_state(p, cand))
            if not np.isfinite(j_cand):
                saw_nonfinite = True
            elif j_cand <= j_curr:
                accepted = True
                break
            s *= 0.5
            halvings_total += 1
        if not accepted:
            if saw_nonfinite:
                raise StepSizeError("cost stayed non-finite after 20 halvings")
            # finite but no decrease at machine precision: stationary for
            # this arithmetic, stop here rather than fail
            stalled = True
            break
        u, j_curr = cand, j_cand
        costs.append(j_curr)
    return u, GradientTrace(costs=costs, grad_norms=grad_norms,
                            step_halvings=halvings_total, converged=converged,
                            stalled=stalled)


def _grid_rows(p: ControlProblem, grid_points_per_dim: int,
               indices: np.ndarray) -> np.ndarray:
    """Controls number ``indices`` of :func:`control_grid`, shape (len, N, m).

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
    digits = (np.asarray(indices, dtype=np.int64)[:, None] // powers) % grid_points_per_dim
    return axes[np.arange(n * m) % m, digits].reshape(-1, n, m)


def _grid_blocks(p: ControlProblem, grid_points_per_dim: int):
    """(first index, controls) blocks of :func:`control_grid`, in order."""
    total = grid_points_per_dim ** (p.algebra.n * p.m)
    rows = max(1, SCREEN_BLOCK_ENTRIES // p.algebra.dim)
    for start in range(0, total, rows):
        stop = min(start + rows, total)
        yield start, _grid_rows(p, grid_points_per_dim, np.arange(start, stop))


def control_grid(p: ControlProblem, grid_points_per_dim: int):
    """Piecewise-constant controls on a product grid over the box, lexicographic.

    Each control dimension takes ``grid_points_per_dim`` evenly spaced values
    from its lower to its upper bound; a single point is the box midpoint.
    """
    for _, block in _grid_blocks(p, grid_points_per_dim):
        yield from block


def brute_force_search(p: ControlProblem, grid_points_per_dim: int,
                       budget: int = BRUTE_FORCE_BUDGET) -> tuple[np.ndarray, float]:
    """Exhaustive minimum over the controls of :func:`control_grid`.

    Enumeration is lexicographic and ties keep the earlier (lexicographically
    smallest) control, so the result is deterministic.

    With the problem's row hooks the grid is screened block by block with
    :func:`stacked_costs`.  A control survives while its screened cost is at
    most ``low + SCREEN_MARGIN (1 + |low|)``, ``low`` the screened minimum so
    far (a bound that only falls as ``low`` does).  If every screened cost is
    within half the margin of its per-path cost, every per-path minimizer
    survives, so the per-path loop over the survivors alone returns the
    full loop's control and value.
    """
    if grid_points_per_dim < 1:
        raise ValueError("need at least one grid point per dimension")
    if not p.control_set.is_bounded():
        raise ValueError("brute force requires a bounded control box")
    total = grid_points_per_dim ** (p.algebra.n * p.m)
    if total > budget:
        raise BudgetError(f"{total} grid controls exceed the budget {budget}")
    if p.coefficient_rows is None or p.cost_rows is None:
        candidates = control_grid(p, grid_points_per_dim)
    else:
        candidates = _grid_rows(p, grid_points_per_dim,
                                _screen(p, grid_points_per_dim))
    best_u = None
    best_j = np.inf
    for u in candidates:
        j = cost(p, u, solve_state(p, u))
        if j < best_j:
            best_j = j
            best_u = u
    return best_u, float(best_j)


def _screen(p: ControlProblem, grid_points_per_dim: int) -> np.ndarray:
    """Grid indices, ascending, whose stacked cost is near the stacked minimum."""
    low = np.inf
    kept = np.zeros(0, dtype=np.int64)
    kept_costs = np.zeros(0)
    for start, block in _grid_blocks(p, grid_points_per_dim):
        costs = stacked_costs(p, block)
        low = min(low, float(np.fmin.reduce(costs)))  # NaN rows never win
        bound = low + SCREEN_MARGIN * (1.0 + abs(low))
        near = np.nonzero(costs <= bound)[0]
        keep = kept_costs <= bound
        kept = np.concatenate([kept[keep], start + near])
        kept_costs = np.concatenate([kept_costs[keep], costs[near]])
    return kept
