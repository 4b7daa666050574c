"""Desk-scale quantum stochastic optimal control toolkit.

Builds a finite Clifford realization of operator-valued noise, solves the
controlled state equation with two-sided diffusion, assembles the first and
second adjoint processes by exact discrete duality, and verifies first- and
second-order optimality conditions numerically.
"""

from .clifford import (
    AdaptedProcess,
    CliffordAlgebra,
    CliffordElement,
    SuperOperator,
    brownian_increment,
    conditional_expectation,
    inner,
    make_algebra,
    martingale_coefficient,
    multiply,
    parity,
    star,
    state_m,
)
from .problems import (
    ControlProblem,
    ControlSet,
    ProblemSpec,
    cost,
    make_problem,
)
from .forward import (
    Trajectory,
    order_estimate_slopes,
    solve_first_variation,
    solve_second_variation,
    solve_state,
)
from .adjoint import (
    AdjointPair,
    SecondAdjoint,
    TestTuple,
    compute_P,
    solve_first_adjoint,
    transposition_residual,
)
from .conditions import (
    first_order_integral,
    second_order_functional,
    taylor_consistency,
    verify_theorem,
)
from .optimize import brute_force_search, projected_gradient

__version__ = "0.1.0"
