"""Desk-scale quantum stochastic optimal control toolkit.

Builds a finite Clifford realization of operator-valued noise, solves the
controlled state equation with two-sided diffusion, assembles the first and
second adjoint processes by exact discrete duality, and verifies first- and
second-order optimality conditions numerically.

The exports below load their home module on first access (PEP 562), so
importing the package, or only its config layer, does not load numpy.
"""

import importlib

__version__ = "0.1.0"

_HOME = {name: module for module, names in (
    ("clifford", ("AdaptedProcess", "CliffordAlgebra", "CliffordElement", "SuperOperator",
                  "brownian_increment", "conditional_expectation", "inner", "make_algebra",
                  "martingale_coefficient", "multiply", "parity", "star", "state_m")),
    ("config", ("ProblemSpec",)),
    ("problems", ("ControlProblem", "ControlSet", "cost", "make_problem")),
    ("forward", ("Trajectory", "order_estimate_slopes", "solve_first_variation",
                 "solve_second_variation", "solve_state")),
    ("adjoint", ("AdjointPair", "SecondAdjoint", "compute_P", "solve_first_adjoint",
                 "transposition_residual")),
    ("conditions", ("first_order_integral", "second_order_functional",
                    "taylor_consistency", "verify_theorem")),
    ("optimize", ("brute_force_search", "projected_gradient")),
) for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value
