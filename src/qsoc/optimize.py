"""Candidate-control generation: adjoint-based projected gradient, brute force.

The gradient field is the control derivative of the Hamiltonian along the
iterate's own trajectory and adjoint; by the exact discrete duality this is
the exact gradient of the discrete cost, so fixed-step ascent on the
Hamiltonian descends the cost.  Brute force enumerates a product grid over the
box and certifies tiny instances independently of any gradient information.

The brute force evaluates the grid in blocks through
:func:`~qsoc.forward.stacked_costs`, whose rows are the per-path costs
``cost(p, u, solve_state(p, u))`` bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adjoint import hu_field, solve_first_adjoint
from .errors import BudgetError, QsocError, StepSizeError
from .forward import solve_state, stacked_costs
from .problems import ControlProblem, cost

__all__ = ["projected_gradient", "brute_force_search", "control_grid", "GradientTrace"]

BRUTE_FORCE_BUDGET = 10 ** 6
GRID_POINTS = 5  # per control dimension, on the grids of the theorem and optimize suites
# State entries (rows x dim) per block of the brute force: bounds the block's memory.
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
    Stops when the projected-gradient norm falls below ``grad_tol``.  A
    non-finite cost at ``u0`` or gradient raises :class:`StepSizeError`.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    u = p.check_control_path(np.asarray(u0, dtype=float)).copy()
    dt = p.algebra.dt
    j_curr = cost(p, u, solve_state(p, u))
    if not np.isfinite(j_curr):
        raise StepSizeError(f"cost {j_curr} at the initial control is not finite")
    costs = [j_curr]
    grad_norms = []
    halvings_total = 0
    converged = False
    stalled = False
    for _ in range(max_iter):
        xbar = solve_state(p, u)
        adj = solve_first_adjoint(p, xbar, u)
        grad = hu_field(p, adj)
        if not np.all(np.isfinite(grad)):
            raise StepSizeError(f"gradient not finite at iteration {len(grad_norms)}")
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


def _grid_blocks(p: ControlProblem, grid_points_per_dim: int):
    """Blocks of :func:`control_grid`, in order, each a (rows, N, m) array.

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


def control_grid(p: ControlProblem, grid_points_per_dim: int):
    """Piecewise-constant controls on a product grid over the box, lexicographic.

    Each control dimension takes ``grid_points_per_dim`` evenly spaced values
    from its lower to its upper bound; a single point is the box midpoint.
    """
    for block in _grid_blocks(p, grid_points_per_dim):
        yield from block


def brute_force_search(p: ControlProblem, grid_points_per_dim: int,
                       budget: int = BRUTE_FORCE_BUDGET) -> tuple[np.ndarray, float]:
    """Exhaustive minimum over the controls of :func:`control_grid`.

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
