"""The public surface: every export resolves, and the README library sketch runs."""

import importlib
import math
import pkgutil
import re
import sys
import types
from pathlib import Path

import pytest

import qsoc

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = [importlib.import_module(f"qsoc.{info.name}")
           for info in pkgutil.iter_modules(qsoc.__path__)]


def stale_exports(module) -> list[str]:
    """Names in the module's ``__all__`` that it does not define."""
    return [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]


def unlisted_reexports(package) -> list[str]:
    """Public names the package re-exports that their home module leaves out of ``__all__``."""
    out = []
    for name, obj in vars(package).items():
        if name.startswith("_") or isinstance(obj, types.ModuleType):
            continue
        home = sys.modules.get(getattr(obj, "__module__", None))
        if home is not package and name not in getattr(home, "__all__", ()):
            out.append(name)
    return out


@pytest.mark.parametrize("module", [qsoc, *MODULES], ids=lambda m: m.__name__)
def test_every_export_resolves(module):
    assert stale_exports(module) == []


def test_package_reexports_only_listed_names():
    assert unlisted_reexports(qsoc) == []


def test_a_stale_export_is_caught():
    planted = types.ModuleType("qsoc.planted")
    planted.kept = object()
    planted.__all__ = ["kept", "gone"]
    assert stale_exports(planted) == ["gone"]
    package = types.ModuleType("planted_package")
    package.inner = qsoc.clifford.inner
    package.unlisted = qsoc.clifford._mul_dw
    assert unlisted_reexports(package) == ["unlisted"]


# The package's exports, by the home module each was first imported from.
EXPORTS = {
    "clifford": ["AdaptedProcess", "CliffordAlgebra", "CliffordElement", "SuperOperator",
                 "brownian_increment", "conditional_expectation", "inner", "make_algebra",
                 "martingale_coefficient", "multiply", "parity", "star", "state_m"],
    "problems": ["ControlProblem", "ControlSet", "ProblemSpec", "cost", "make_problem"],
    "forward": ["Trajectory", "order_estimate_slopes", "solve_first_variation",
                "solve_second_variation", "solve_state"],
    "adjoint": ["AdjointPair", "SecondAdjoint", "compute_P", "solve_first_adjoint",
                "transposition_residual"],
    "conditions": ["first_order_integral", "second_order_functional", "taylor_consistency",
                   "verify_theorem"],
    "optimize": ["brute_force_search", "projected_gradient"],
}


@pytest.mark.parametrize("module, name", [(m, n) for m, names in EXPORTS.items()
                                          for n in names])
def test_each_export_is_its_home_module_object(module, name):
    assert getattr(qsoc, name) is getattr(importlib.import_module(f"qsoc.{module}"), name)


def test_star_import_binds_every_export():
    assert sorted(qsoc.__all__) == sorted(n for names in EXPORTS.values() for n in names)
    scope: dict = {}
    exec("from qsoc import *", scope)
    assert all(scope[name] is getattr(qsoc, name) for name in qsoc.__all__)


def test_problem_spec_lives_in_the_config_layer():
    assert qsoc.problems.ProblemSpec is qsoc.config.ProblemSpec
    assert qsoc.ProblemSpec.__module__ == "qsoc.config"


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_export"):
        getattr(qsoc, "no_such_export")
    assert not hasattr(qsoc, "no_such_export")


def test_readme_library_sketch_runs():
    text = README.read_text()
    section = text[text.index("## Library sketch"):]
    (block, *_) = re.findall(r"```python\n(.*?)```", section, re.S)
    scope: dict = {}
    exec(compile(block, str(README), "exec"), scope)
    assert math.isfinite(scope["fo"]) and math.isfinite(scope["s"])
