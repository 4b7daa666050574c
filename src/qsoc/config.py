"""Run configuration: a single JSON document, validated with field paths.

Schema (all keys except ``problem`` and ``grid`` optional)::

    {
      "problem": {
        "name": "lq",                  # lq | quadratic_control | quadratic_state
        "m": 1,
        "lower": [-1.0], "upper": [1.0],
        "rates": {"a":0.5,"f0":0.3,"g0":0.25,"q":0.4,"r":0.3,"s":0.5},
        "elements": {                  # blade-coefficient lists [[mask,re,im],...]
          "b": [[[0,1,0]]], "f": ..., "g": ...,
          "cd": ..., "cf": ..., "cg": ...,
          "qd": [[0,0.35,0]], "qf": ..., "qg": ...,
          "x_tgt": [[0,0.5,0]], "eta": ..., "x0": [[0,1,0]]
        }
      },
      "grid": {"t0": 0.0, "T": 1.0, "N": 4},
      "suites": ["algebra", ...],      # default: all
      "tolerances": {"algebra": {"probes": 10000}},   # or isometry; ints >= 1
      "seed": 0,                       # integer >= 0
      "output": "out",
      "emit": ["json", "csv", "plotdata"]
    }

Omitted gallery fields fall back to the canonical instance for the problem
name; a default control blade beyond the grid's algebra (blade 2 at N = 1)
is dropped.  An ``lq`` with rates a = f0 = g0 = 0 and elements
``"b": [[]], "f": [[]], "g": [[]]`` has no dynamics: its state stays at x0.
Unknown keys anywhere are rejected so typos cannot silently change a run.  Numbers must be finite, except that a box bound may be +-inf
(JSON ``1e400``) to leave that side open; NaN is refused everywhere.  Blade
masks set in the config lie in 0..2^N-1, and ``x0`` takes mask 0 only.  Suite bounds are fixed in
:mod:`qsoc.suites` and reported per suite; ``tolerances`` sets only the probe
counts of ``algebra`` and ``isometry``.

This module imports no numeric module, so ``qsoc validate`` runs without
numpy.  It owns what it validates: :class:`ProblemSpec` (re-exported by
:mod:`qsoc.problems`), the gallery names, and the two limits checked before
any compute, ``DEFAULT_GENERATOR_CAP`` and ``SUPEROP_BUDGET``.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError

__all__ = ["RunConfig", "ProblemSpec", "parse_config", "load_config", "budget_error",
           "SUITE_ORDER", "EMIT_FORMATS"]

DEFAULT_GENERATOR_CAP = 12  # most noise generators (grid steps) an algebra may have
SUPEROP_BUDGET = 256  # largest coefficient-space dimension materialized as matrices
GALLERY_NAMES = ("lq", "quadratic_control", "quadratic_state")
SUITE_ORDER = ("algebra", "isometry", "orders", "gradient", "adjoint",
               "second_order", "theorem", "optimize")
EMIT_FORMATS = ("json", "csv", "plotdata")

_P_SUITES = ("adjoint", "second_order", "theorem", "optimize")  # suites that materialize P
_RATE_KEYS = ("a", "f0", "g0", "q", "r", "s")
_PER_DIM_ELEMENT_KEYS = ("b", "f", "g", "cd", "cf", "cg")
_SINGLE_ELEMENT_KEYS = ("qd", "qf", "qg", "x_tgt", "eta", "x0")

Terms = Sequence[Sequence[float]]  # [[mask, re, im], ...]


@dataclass(frozen=True)
class ProblemSpec:
    """Algebra-independent description of a gallery problem.

    Elements are sparse blade-term lists ``[[mask, re, im], ...]`` and are
    materialized against a concrete algebra by
    :func:`qsoc.problems.make_problem`.
    """

    name: str
    m: int = 1
    lower: tuple = (-1.0,)
    upper: tuple = (1.0,)
    a: float = 0.0       # drift rate on x
    f0: float = 0.0      # left-diffusion rate on x
    g0: float = 0.0      # right-diffusion rate on x
    q: float = 0.0       # running state cost weight
    r: float = 0.0       # running control cost weight
    s: float = 0.0       # terminal cost weight
    b: tuple | None = None   # drift control elements, one term list per control dim
    f: tuple | None = None   # left-diffusion control elements
    g: tuple | None = None   # right-diffusion control elements
    cd: tuple | None = None  # squared-control drift elements
    cf: tuple | None = None
    cg: tuple | None = None
    qd: Terms | None = None  # quadratic-state multipliers
    qf: Terms | None = None
    qg: Terms | None = None
    x_tgt: Terms | None = None
    eta: Terms | None = None  # linear terminal cost element
    x0: Terms = ((0, 1.0, 0.0),)

    @staticmethod
    def gallery(name: str, m: int = 1, dim: int | None = None,
                **overrides) -> "ProblemSpec":
        """Canonical test instances with real data and modest rates.

        With ``dim``, the default control blades an algebra of that dimension
        lacks are dropped: no step reaches them.  Overrides are kept as given.
        """
        if name not in GALLERY_NAMES:
            raise ValueError(f"unknown gallery problem {name!r}")

        def live(*terms):
            return tuple(t for t in terms if dim is None or t[0] < dim)

        base = dict(m=m, lower=tuple([-1.0] * m), upper=tuple([1.0] * m),
                    a=0.5, f0=0.3, g0=0.25, q=0.4, r=0.3, s=0.5,
                    b=tuple(live((0, 1.0, 0.0), (1 << (i % 2), 0.5, 0.0)) for i in range(m)),
                    f=tuple(live((0, 0.8, 0.0), (1, 0.3, 0.0)) for _ in range(m)),
                    g=tuple(live((0, 0.6, 0.0), (2, 0.4, 0.0)) for _ in range(m)),
                    x_tgt=((0, 0.5, 0.0), (1, 0.25, 0.0)))
        if name == "quadratic_control":
            base.update(cd=tuple(((0, 0.4, 0.0),) for _ in range(m)),
                        cf=tuple(((0, 0.3, 0.0),) for _ in range(m)),
                        cg=tuple(((0, 0.2, 0.0),) for _ in range(m)))
        if name == "quadratic_state":
            base.update(qd=((0, 0.35, 0.0),), qf=((0, 0.25, 0.0),), qg=((0, 0.2, 0.0),))
        base.update(overrides)
        return ProblemSpec(name=name, **base)


@dataclass
class RunConfig:
    problem: ProblemSpec
    t0: float
    T: float
    n_steps: int
    suites: list
    tolerances: dict
    seed: int
    output: str | None
    emit: list

    def echo(self) -> dict:
        """Normalized semantic content, used verbatim in reports."""
        spec = self.problem
        elements = {}
        for key in _PER_DIM_ELEMENT_KEYS:
            val = getattr(spec, key)
            if val is not None:
                elements[key] = [[list(term) for term in row] for row in val]
        for key in _SINGLE_ELEMENT_KEYS:
            val = getattr(spec, key)
            if val is not None:
                elements[key] = [list(term) for term in val]
        return {
            "problem": {
                "name": spec.name,
                "m": spec.m,
                "lower": list(spec.lower),
                "upper": list(spec.upper),
                "rates": {k: float(getattr(spec, k)) for k in _RATE_KEYS},
                "elements": elements,
            },
            "grid": {"t0": self.t0, "T": self.T, "N": self.n_steps},
            "suites": list(self.suites),
            "tolerances": self.tolerances,
            "seed": self.seed,
            "emit": list(self.emit),
        }


def _float(obj) -> float | None:
    """A JSON number as a float, None for anything else.

    An int literal beyond float range becomes +-inf, as a float literal does.
    """
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        return None
    try:
        return float(obj)
    except OverflowError:
        return math.inf if obj > 0 else -math.inf


class _Checker:
    def __init__(self):
        self.errors: list[tuple[str, str]] = []

    def fail(self, path, msg):
        self.errors.append((path, msg))

    def expect_keys(self, obj, path, allowed):
        for key in obj:
            if key not in allowed:
                self.fail(f"{path}.{key}" if path else key, "unknown key")

    def number(self, obj, path, default=None, required=False):
        if obj is None:
            if required:
                self.fail(path, "missing required number")
            return default
        val = _float(obj)
        if val is None:
            self.fail(path, f"expected number, got {type(obj).__name__}")
            return default
        if not math.isfinite(val):
            self.fail(path, f"must be finite, got {val}")
            return default
        return val

    def integer(self, obj, path, default=None, required=False, minimum=None):
        if obj is None:
            if required:
                self.fail(path, "missing required integer")
            return default
        if isinstance(obj, bool) or not isinstance(obj, int):
            self.fail(path, f"expected integer, got {type(obj).__name__}")
            return default
        if minimum is not None and obj < minimum:
            self.fail(path, f"must be >= {minimum}")
            return default
        return int(obj)

    def terms(self, obj, path):
        """[[mask, re, im], ...] -> tuple of term tuples."""
        if not isinstance(obj, list):
            self.fail(path, "expected a list of [mask, re, im] terms")
            return None
        out = []
        for i, term in enumerate(obj):
            if (not isinstance(term, list) or len(term) != 3
                    or isinstance(term[0], bool) or not isinstance(term[0], int)
                    or not all((v := _float(t)) is not None and math.isfinite(v)
                               for t in term[1:])):
                self.fail(f"{path}[{i}]", "expected [mask:int, re:finite number, "
                          "im:finite number]")
                return None
            out.append((term[0], float(term[1]), float(term[2])))
        return tuple(out)


def _parse_problem(raw: dict, check: _Checker, dim: int | None) -> ProblemSpec | None:
    if not isinstance(raw, dict):
        check.fail("problem", "expected an object")
        return None
    check.expect_keys(raw, "problem", {"name", "m", "lower", "upper", "rates", "elements"})
    name = raw.get("name")
    if name not in GALLERY_NAMES:
        check.fail("problem.name", f"expected one of {GALLERY_NAMES}")
        return None
    m = check.integer(raw.get("m"), "problem.m", default=1, minimum=1)
    if m is None:
        return None
    base = ProblemSpec.gallery(name, m=m)
    overrides: dict = {}

    box_ok = True
    for key in ("lower", "upper"):
        if key in raw:
            vals = raw[key]
            floats = [_float(v) for v in vals] if isinstance(vals, list) else []
            if (len(floats) != m
                    or not all(v is not None and not math.isnan(v) for v in floats)):
                check.fail(f"problem.{key}", f"expected a list of {m} numbers, none NaN")
                box_ok = False
            else:
                overrides[key] = tuple(floats)
    lower, upper = (overrides.get(key, getattr(base, key)) for key in ("lower", "upper"))
    if box_ok and any(lo > hi for lo, hi in zip(lower, upper)):
        check.fail("problem.lower", "exceeds problem.upper")

    rates = raw.get("rates", {})
    if not isinstance(rates, dict):
        check.fail("problem.rates", "expected an object")
    else:
        check.expect_keys(rates, "problem.rates", set(_RATE_KEYS))
        for key in _RATE_KEYS:
            if key in rates:
                val = check.number(rates[key], f"problem.rates.{key}")
                if val is not None:
                    overrides[key] = val

    elements = raw.get("elements", {})
    if not isinstance(elements, dict):
        check.fail("problem.elements", "expected an object")
    else:
        check.expect_keys(elements, "problem.elements",
                          set(_PER_DIM_ELEMENT_KEYS) | set(_SINGLE_ELEMENT_KEYS))
        for key in _PER_DIM_ELEMENT_KEYS:
            if key in elements:
                rows = elements[key]
                if not isinstance(rows, list) or len(rows) != m:
                    check.fail(f"problem.elements.{key}",
                               f"expected {m} term lists (one per control dim)")
                    continue
                parsed = []
                for i, row in enumerate(rows):
                    t = check.terms(row, f"problem.elements.{key}[{i}]")
                    if t is not None:
                        parsed.append(t)
                if len(parsed) == m:
                    overrides[key] = tuple(parsed)
        for key in _SINGLE_ELEMENT_KEYS:
            if key in elements:
                if elements[key] is None:
                    overrides[key] = None
                    continue
                t = check.terms(elements[key], f"problem.elements.{key}")
                if t is not None:
                    overrides[key] = t

    if check.errors:
        return None
    try:
        return ProblemSpec.gallery(name, m=m, dim=dim, **overrides)
    except (ValueError, TypeError) as exc:
        check.fail("problem", str(exc))
        return None


def _check_masks(spec: ProblemSpec, dim: int, check: _Checker) -> None:
    """Blade masks must lie in 0..dim-1, and x0 in the initial subalgebra (mask 0)."""
    lists = [(f"problem.elements.{key}[{i}]", row) for key in _PER_DIM_ELEMENT_KEYS
             for i, row in enumerate(getattr(spec, key) or ())]
    lists += [(f"problem.elements.{key}", getattr(spec, key) or ())
              for key in _SINGLE_ELEMENT_KEYS]
    for path, terms in lists:
        for j, (mask, _, _) in enumerate(terms):
            if not 0 <= mask < dim:
                check.fail(f"{path}[{j}]", f"blade mask {mask} outside 0..{dim - 1} (grid.N)")
    if spec.x0 is None or any(mask != 0 for mask, _, _ in spec.x0):
        check.fail("problem.elements.x0", "expected terms of blade mask 0 only")


def parse_config(raw: dict) -> RunConfig:
    check = _Checker()
    if not isinstance(raw, dict):
        raise ConfigError([("", "top-level document must be an object")])
    check.expect_keys(raw, "", {"problem", "grid", "suites", "tolerances",
                                "seed", "output", "emit"})

    grid = raw.get("grid")
    t0 = T = 0.0
    n = 1
    if not isinstance(grid, dict):
        check.fail("grid", "missing required object {t0, T, N}")
    else:
        check.expect_keys(grid, "grid", {"t0", "T", "N"})
        t0 = check.number(grid.get("t0"), "grid.t0", required=True)
        T = check.number(grid.get("T"), "grid.T", required=True)
        n = check.integer(grid.get("N"), "grid.N", required=True, minimum=1)
        if t0 is not None and T is not None and not (T > t0):
            check.fail("grid.T", "must exceed grid.t0")
        if n is not None and n > DEFAULT_GENERATOR_CAP:
            check.fail("grid.N", f"exceeds the generator cap {DEFAULT_GENERATOR_CAP}")
    n_ok = n is not None and n <= DEFAULT_GENERATOR_CAP

    spec = None
    if "problem" not in raw:
        check.fail("problem", "missing required object")
    else:
        spec = _parse_problem(raw["problem"], check, 1 << n if n_ok else None)

    suites = raw.get("suites", list(SUITE_ORDER))
    if (not isinstance(suites, list) or not suites
            or not all(isinstance(s, str) for s in suites)):
        check.fail("suites", "expected a non-empty list of suite names")
        suites = []
    else:
        bad = [s for s in suites if s not in SUITE_ORDER]
        for s in bad:
            check.fail("suites", f"unknown suite {s!r}")
        if len(set(suites)) != len(suites):
            check.fail("suites", "duplicate suite names")
        suites = [s for s in SUITE_ORDER if s in suites]

    if n_ok:
        err = budget_error(n, suites)
        if err:
            check.fail(*err)
        if spec is not None:
            _check_masks(spec, 1 << n, check)

    tolerances = raw.get("tolerances", {})
    if not isinstance(tolerances, dict):
        check.fail("tolerances", "expected an object keyed by suite name")
        tolerances = {}
    for key, val in tolerances.items():
        if key not in SUITE_ORDER:
            check.fail(f"tolerances.{key}", "unknown suite")
        elif not isinstance(val, dict):
            check.fail(f"tolerances.{key}", "expected an object")
        else:
            for name, num in val.items():
                if name == "probes" and key in ("algebra", "isometry"):
                    check.integer(num, f"tolerances.{key}.probes", minimum=1)
                else:  # every other bound is fixed in qsoc.suites
                    check.fail(f"tolerances.{key}.{name}", "unknown key: only "
                               "algebra.probes and isometry.probes are settable")

    seed = check.integer(raw.get("seed"), "seed", default=0, minimum=0)
    output = raw.get("output")
    if output is not None and not isinstance(output, str):
        check.fail("output", "expected a string path")
        output = None

    emit = raw.get("emit", ["json"])
    if not isinstance(emit, list) or not all(isinstance(e, str) for e in emit):
        check.fail("emit", "expected a list of format names")
        emit = ["json"]
    else:
        for e in emit:
            if e not in EMIT_FORMATS:
                check.fail("emit", f"unknown format {e!r}")
        emit = [e for e in EMIT_FORMATS if e in emit]

    if check.errors:
        raise ConfigError(check.errors)
    return RunConfig(problem=spec, t0=t0, T=T, n_steps=n, suites=suites,
                     tolerances=tolerances, seed=seed, output=output, emit=emit)


def budget_error(n_steps: int, suites) -> tuple[str, str] | None:
    """The compute budget that running ``suites`` at N = n_steps would exceed, if any.

    Returns (field path, message).
    """
    users = [s for s in suites if s in _P_SUITES]
    if users and (1 << n_steps) > SUPEROP_BUDGET:
        return ("grid.N", f"coefficient dimension {1 << n_steps} exceeds the superoperator "
                f"budget {SUPEROP_BUDGET} of suites {', '.join(users)}")
    return None


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError([("", f"config file not found: {path}")])
    except json.JSONDecodeError as exc:
        raise ConfigError([("", f"invalid JSON: {exc}")])
    return parse_config(raw)
