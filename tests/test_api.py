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


def test_readme_library_sketch_runs():
    text = README.read_text()
    section = text[text.index("## Library sketch"):]
    (block, *_) = re.findall(r"```python\n(.*?)```", section, re.S)
    scope: dict = {}
    exec(compile(block, str(README), "exec"), scope)
    assert math.isfinite(scope["fo"]) and math.isfinite(scope["s"])
