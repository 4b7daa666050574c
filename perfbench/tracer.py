"""Layer spans and counters for one traced qsoc run, recorded from outside.

The program is not modified.  Each traced public function is replaced, in
every ``qsoc`` module that holds a reference to it, by a wrapper that records
a span; callers look those names up at call time, so every call goes through
the wrapper.  A layer's self time is its span time minus the time of the
traced spans nested inside it.

Run as a script it executes the qsoc CLI under the tracer and writes the
spans and counters as JSON::

    PYTHONPATH=src python3 perfbench/tracer.py STATS.json run --config CFG ...
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import sys
import time
from pathlib import Path

import numpy as np

# (span name, module, function) for every traced public function.
SPANS = (
    ("config.load_config", "qsoc.config", "load_config"),
    ("problems.make_problem", "qsoc.problems", "make_problem"),
    ("problems.cost", "qsoc.problems", "cost"),
    ("clifford.multiply", "qsoc.clifford", "multiply"),
    ("clifford.multiply_batch", "qsoc.clifford", "multiply_batch"),
    ("forward.solve_state", "qsoc.forward", "solve_state"),
    ("forward.solve_first_variation", "qsoc.forward", "solve_first_variation"),
    ("forward.solve_second_variation", "qsoc.forward", "solve_second_variation"),
    ("adjoint.solve_first_adjoint", "qsoc.adjoint", "solve_first_adjoint"),
    ("adjoint.compute_P", "qsoc.adjoint", "compute_P"),
    ("adjoint.transposition_residual", "qsoc.adjoint", "transposition_residual"),
    ("conditions.first_order_integral", "qsoc.conditions", "first_order_integral"),
    ("conditions.second_order_functional", "qsoc.conditions", "second_order_functional"),
    ("conditions.taylor_consistency", "qsoc.conditions", "taylor_consistency"),
    ("conditions.verify_theorem", "qsoc.conditions", "verify_theorem"),
    ("optimize.brute_force_search", "qsoc.optimize", "brute_force_search"),
    ("optimize.projected_gradient", "qsoc.optimize", "projected_gradient"),
    ("report.write_report_files", "qsoc.report", "write_report_files"),
)
# (span name, module, class, method) for traced constructors.
METHOD_SPANS = (
    ("adjoint.Linearization", "qsoc.adjoint", "Linearization", "__init__"),
)
SUITE_RUNNER = ("qsoc.suites", "run_suite")
ELEMENT_CLASS = ("qsoc.clifford", "CliffordElement")


class TraceError(RuntimeError):
    """A traced function is missing or renamed; the trace would be incomplete."""


def _lookup(module: str, name: str):
    try:
        return getattr(importlib.import_module(module), name)
    except (ImportError, AttributeError) as exc:
        raise TraceError(f"trace target {module}.{name} is missing or renamed: {exc}")


def _rebind(orig, replacement) -> None:
    """Replace every module-level reference to ``orig`` inside the package."""
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").split(".")[0] != "qsoc":
            continue
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, replacement)


class Tracer:
    """Span statistics ``{name: [calls, total_ns, self_ns]}`` plus counters."""

    def __init__(self):
        self.spans: dict[str, list[int]] = {}
        self.counters = {"clifford.multiply_batch.terms": 0, "clifford.elements": 0,
                         "optimize.projected_gradient.iterations": 0,
                         "report.write_report_files.bytes": 0}
        self.controls: set[bytes] = set()
        self._stack = [0]  # child-span time accumulated by each open span

    def wrap(self, fn, name, before=None, after=None):
        """Wrap ``fn`` in a span; ``name`` may be a function of the arguments."""
        stack, clock = self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            label = name(*args, **kwargs) if callable(name) else name
            stack.append(0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                took = clock() - start
                child = stack.pop()
                stack[-1] += took
                stat = self.spans.setdefault(label, [0, 0, 0])
                stat[0] += 1
                stat[1] += took
                stat[2] += took - child
            if after is not None:
                after(out)
            return out

        return traced

    # -- counters ----------------------------------------------------------

    def _batch_terms(self, alg, A, B):
        live_a = np.count_nonzero(np.any(A, axis=0))
        live_b = np.count_nonzero(np.any(B, axis=0))
        self.counters["clifford.multiply_batch.terms"] += \
            int(np.shape(A)[0]) * int(min(live_a, live_b)) * int(alg.dim)

    def _control_path(self, p, u):
        arr = np.ascontiguousarray(np.asarray(u, dtype=float))
        self.controls.add(hashlib.sha1(repr(arr.shape).encode() + arr.tobytes()).digest())

    def _gradient_trace(self, out):
        self.counters["optimize.projected_gradient.iterations"] += out[1].iterations

    def _report_bytes(self, written):
        # timings.txt is informational and varies run to run, so it is not counted
        self.counters["report.write_report_files.bytes"] += sum(
            Path(path).stat().st_size for kind, path in written.items() if kind != "timings")

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every traced function; raise TraceError if one is missing."""
        hooks = {
            "clifford.multiply_batch": {"before": self._batch_terms},
            "forward.solve_state": {"before": self._control_path},
            "optimize.projected_gradient": {"after": self._gradient_trace},
            "report.write_report_files": {"after": self._report_bytes},
        }
        # look every target up before wrapping any, so a failure leaves no partial trace
        targets = [(name, _lookup(module, attr)) for name, module, attr in SPANS]
        runner = _lookup(*SUITE_RUNNER)
        methods = [(name, _lookup(module, cls), meth)
                   for name, module, cls, meth in METHOD_SPANS]
        element_cls = _lookup(*ELEMENT_CLASS)
        for owner, attr in [(cls, meth) for _, cls, meth in methods] + \
                [(element_cls, "__post_init__")]:
            if not callable(getattr(owner, attr, None)):
                raise TraceError(f"trace target {owner.__qualname__}.{attr} is missing")

        for name, fn in targets:
            _rebind(fn, self.wrap(fn, name, **hooks.get(name, {})))
        _rebind(runner, self.wrap(runner, lambda cfg, suite: f"suites.{suite}"))
        for name, cls, meth in methods:
            setattr(cls, meth, self.wrap(getattr(cls, meth), name))

        counters = self.counters
        post_init = element_cls.__post_init__

        def counted_post_init(element):
            counters["clifford.elements"] += 1
            post_init(element)

        element_cls.__post_init__ = counted_post_init

    def summary(self) -> dict:
        calls = self.spans.get("forward.solve_state", [0])[0]
        counters = dict(self.counters)
        counters["forward.solve_state.unique_ratio"] = \
            len(self.controls) / calls if calls else 0.0
        return {"spans": {name: {"calls": c, "total_s": t / 1e9, "self_s": s / 1e9}
                          for name, (c, t, s) in sorted(self.spans.items())},
                "counters": counters}


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: tracer.py STATS.json QSOC-ARGS...", file=sys.stderr)
        return 2
    stats_path, cli_args = Path(argv[0]), argv[1:]
    import qsoc.cli  # loads every traced module before rebinding

    tracer = Tracer()
    try:
        tracer.install()
    except TraceError as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return 3
    code = qsoc.cli.main(cli_args)
    stats_path.write_text(json.dumps(tracer.summary(), indent=1, sort_keys=True) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
