"""Benchmark of the qsoc CLI: end-to-end timings, a correctness gate, layer spans.

    python3 perfbench/run.py --workload NAME --seed S --seconds T --trace 0|1

Run from a source checkout (the package is loaded from ``src/``).  A closed
loop: one ``qsoc`` process at a time, BLAS pinned to at most two threads.

* Every workload config is validated before any timing; every process has a
  wall-clock cap and is recorded as a ``timeout`` failure when it exceeds it.
* Set-up: ``qsoc validate`` on the workload config, repeated; ``setup_s`` is
  the median wall time.
* ``--trace 0``: ``qsoc run`` passes until ``--seconds`` is spent; ``run_s``
  and ``peak_rss_mb`` are the medians over passes.
* ``--trace 1``: untraced passes for half of ``--seconds``, then one run under
  ``tracer.py``; prints the per-layer metrics and the tracing overhead.

A pass fails when it exits non-zero, times out, reports a verdict other than
``pass``, or writes a ``report.json`` whose bytes differ from the first pass
of the same (workload, seed).  The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a fuller record, with the
environment and the report sha256, goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from tracer import METHOD_SPANS, SPANS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKLOAD_DIR = BENCH_DIR / "workloads"
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = min(2, NPROC)
SETUP_REPEATS = 9
TOTAL_BUDGET_S = 170.0  # the whole invocation, including set-up


@dataclass(frozen=True)
class Workload:
    cap_s: float           # wall-clock cap of one untraced `qsoc run`
    expect: tuple          # spans the traced run must record at least once


ALWAYS = ("config.load_config", "report.write_report_files", "problems.make_problem")
ADJOINT = ("adjoint.Linearization", "adjoint.solve_first_adjoint", "adjoint.compute_P",
           "adjoint.transposition_residual", "forward.solve_second_variation",
           "conditions.taylor_consistency")
FORWARD = ("clifford.multiply", "forward.solve_state", "forward.solve_first_variation",
           "problems.cost", "conditions.first_order_integral",
           "conditions.second_order_functional")
# Caps are about five times a single pass of the seed code on a 2-core machine.
WORKLOADS = {
    "readme-n4": Workload(cap_s=30.0, expect=ALWAYS + ADJOINT + FORWARD + (
        "clifford.multiply_batch", "conditions.verify_theorem",
        "optimize.brute_force_search", "optimize.projected_gradient")),
    "dense-n8": Workload(cap_s=30.0, expect=ALWAYS + ADJOINT + FORWARD + (
        "clifford.multiply_batch",)),
}

# per-layer metrics besides the calls and self time of every span, with units
COUNTERS = {"clifford.multiply_batch.terms": "count", "clifford.elements": "count",
            "forward.solve_state.unique_ratio": "ratio",
            "optimize.projected_gradient.iterations": "count",
            "report.write_report_files.bytes": "bytes"}
SUITES = ("algebra", "isometry", "orders", "gradient", "adjoint", "second_order",
          "theorem", "optimize")


class GateError(RuntimeError):
    """The benchmark cannot produce a result for this checkout."""


@dataclass
class Pass:
    kind: str              # validate | run | traced
    wall_s: float
    cpu_s: float
    rss_mb: float
    failure: str | None = None
    sha256: str | None = None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("QSOC_THREADS", None)
    return env


def launch(argv: list, cap_s: float, log: Path, kind: str) -> Pass:
    """Run one process with a wall cap; collect its own wall, CPU and peak RSS."""
    if cap_s <= 0:
        return Pass(kind, 0.0, 0.0, 0.0, failure="timeout (no time left)")
    done = {}
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), stdout=out, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL, start_new_session=True)

        def reap():
            _, status, usage = os.wait4(proc.pid, 0)
            done["wall"] = time.perf_counter() - start
            done["status"], done["usage"] = status, usage

        waiter = threading.Thread(target=reap, daemon=True)
        waiter.start()
        waiter.join(cap_s)
        timed_out = waiter.is_alive()
        if timed_out:
            os.killpg(proc.pid, signal.SIGKILL)
            waiter.join()
        else:
            try:  # a process the child left behind in its group
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
    proc.returncode = os.waitstatus_to_exitcode(done["status"])
    usage = done["usage"]
    result = Pass(kind, done["wall"], usage.ru_utime + usage.ru_stime,
                  usage.ru_maxrss * 1024 / 1e6)
    if timed_out:
        result.failure = f"timeout after {cap_s:.1f} s"
    elif proc.returncode != 0:
        result.failure = f"exit code {proc.returncode} (see {log})"
    return result


def qsoc_argv(*args) -> list:
    return [sys.executable, "-m", "qsoc.cli", *args]


def check_report(result: Pass, outdir: Path, config: dict, seed: int) -> None:
    """Fill in the report hash and mark the pass failed if the report is wrong."""
    path = outdir / "report.json"
    if not path.is_file():
        result.failure = result.failure or "no report.json written"
        return
    data = path.read_bytes()
    result.sha256 = hashlib.sha256(data).hexdigest()
    if result.failure:
        return
    try:
        report = json.loads(data)
        verdict = report["verdict"]
        names = [s["name"] for s in report["suites"]]
        bad = [s["name"] for s in report["suites"] if s["status"] != "pass"]
        echoed = (report["config"]["seed"], report["config"]["grid"]["N"])
    except (ValueError, KeyError, TypeError) as exc:
        result.failure = f"report.json is malformed: {exc!r}"
        return
    if verdict != "pass":
        result.failure = f"verdict {verdict!r}, failing suites {bad}"
    elif names != config["suites"]:
        result.failure = f"report suites {names} != requested {config['suites']}"
    elif echoed != (seed, config["grid"]["N"]):
        result.failure = f"report echoes seed and N {echoed}, not {(seed, config['grid']['N'])}"


class Bench:
    def __init__(self, name: str, seed: int, seconds: float):
        self.name, self.seed, self.seconds = name, seed, seconds
        self.workload = WORKLOADS[name]
        self.config_path = WORKLOAD_DIR / f"{name}.json"
        self.config = json.loads(self.config_path.read_text())
        self.work = WORK / "work" / f"{name}-seed{seed}"
        self.deadline = time.perf_counter() + TOTAL_BUDGET_S
        self.passes: list[Pass] = []
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)

    def remaining(self) -> float:
        return self.deadline - time.perf_counter()

    def validate(self, config: Path, cap_s: float = 30.0) -> Pass:
        result = launch(qsoc_argv("validate", "--config", str(config)),
                        min(cap_s, self.remaining()), self.work / "validate.log", "validate")
        self.passes.append(result)
        return result

    def preflight(self) -> None:
        """Caps before compute: every workload config must validate first."""
        for other in sorted(WORKLOADS):
            result = self.validate(WORKLOAD_DIR / f"{other}.json")
            if result.failure:
                raise GateError(f"workload {other} does not validate: {result.failure}")

    def setup(self) -> float:
        walls = [self.validate(self.config_path).wall_s for _ in range(SETUP_REPEATS)]
        return statistics.median(walls)

    def run_pass(self, kind: str = "run", stats: Path | None = None,
                 cap_s: float | None = None) -> Pass:
        outdir = self.work / kind
        shutil.rmtree(outdir, ignore_errors=True)
        args = ["run", "--config", str(self.config_path), "--out", str(outdir),
                "--seed", str(self.seed)]
        argv = qsoc_argv(*args) if stats is None else \
            [sys.executable, str(BENCH_DIR / "tracer.py"), str(stats), *args]
        cap = min(cap_s or self.workload.cap_s, self.remaining())
        result = launch(argv, cap, self.work / f"{kind}.log", kind)
        check_report(result, outdir, self.config, self.seed)
        runs = [p for p in self.passes if p.kind == "run" and p.sha256]
        if result.sha256 and runs and result.sha256 != runs[0].sha256 and not result.failure:
            result.failure = f"report.json bytes differ from the first untraced pass " \
                f"({runs[0].sha256})"
        self.passes.append(result)
        return result

    def measure(self, window_s: float) -> list[Pass]:
        """Untraced passes until the window is spent (at least one)."""
        start = time.perf_counter()
        runs = []
        while True:
            runs.append(self.run_pass())
            typical = statistics.median(p.wall_s for p in runs)
            if time.perf_counter() - start + typical > window_s \
                    or self.remaining() < typical:
                return runs

    def failures(self) -> list[str]:
        return [f"{p.kind}: {p.failure}" for p in self.passes if p.failure]


def env_record(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = got.stdout.strip() or None
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {"nproc": NPROC, "cpu_model": cpu, "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"), "blas_threads": BLAS_THREADS,
            "git_commit": commit or "unknown (not a git checkout)",
            "src_sha256": src_hash.hexdigest(), "seed": seed}


def layer_metrics(stats: dict, runs: list[Pass], traced: Pass) -> dict:
    metrics = {}
    spans = stats["spans"]
    for name in [s[0] for s in SPANS] + [s[0] for s in METHOD_SPANS]:
        span = spans.get(name, {"calls": 0, "self_s": 0.0})
        metrics[f"{name}.calls"] = (span["calls"], "count")
        metrics[f"{name}.self_s"] = (span["self_s"], "s")
    for suite in SUITES:
        metrics[f"suites.{suite}.wall_s"] = (
            spans.get(f"suites.{suite}", {"total_s": 0.0})["total_s"], "s")
    for name, unit in COUNTERS.items():
        metrics[name] = (stats["counters"][name], unit)
    untraced = statistics.median(p.wall_s for p in runs)
    metrics["process.cpu_s"] = (statistics.median(p.cpu_s for p in runs), "s")
    metrics["trace.run_s"] = (traced.wall_s, "s")
    metrics["trace.overhead_ratio"] = (traced.wall_s / untraced, "ratio")
    return metrics


def declared_metrics(trace: bool) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run(args) -> dict:
    bench = Bench(args.workload, args.seed, float(args.seconds))
    env = env_record(args.seed)
    print("env: " + json.dumps(env, sort_keys=True), flush=True)
    bench.preflight()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env}
    if not args.trace:
        setup_s = bench.setup()
        runs = bench.measure(bench.seconds)
        metrics = {
            "run_s": (statistics.median(p.wall_s for p in runs), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (statistics.median(p.rss_mb for p in runs), "MB"),
        }
    else:
        runs = bench.measure(bench.seconds / 2)
        stats_path = bench.work / "trace.json"
        traced = bench.run_pass("traced", stats=stats_path, cap_s=2 * bench.workload.cap_s)
        stats = json.loads(stats_path.read_text()) if stats_path.is_file() else None
        if stats is None:
            traced.failure = traced.failure or "tracer wrote no statistics"
            raise GateError(f"traced run failed: {traced.failure}")
        missing = [s for s in bench.workload.expect if not stats["spans"].get(s)]
        if missing and not traced.failure:
            traced.failure = f"traced run recorded no calls of {missing}"
        metrics = layer_metrics(stats, runs, traced)
        record["spans"] = stats
    want = declared_metrics(bool(args.trace))
    if sorted(metrics) != sorted(want):
        raise GateError(f"metrics {sorted(set(metrics) ^ set(want))} do not match "
                        "BENCHMARK.json")
    failures = bench.failures()
    shas = sorted({p.sha256 for p in bench.passes if p.sha256})
    record.update(passes=[asdict(p) for p in bench.passes], failures=failures,
                  report_sha256=shas,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    for line in failures:
        print(f"FAILED {line}", flush=True)
    print(f"report.json sha256 {args.workload} seed {args.seed}: {' '.join(shas)}")
    attempted = len(bench.passes)
    failed = sum(bool(p.failure) for p in bench.passes)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": record["metrics"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "qsoc" / "cli.py").is_file():
        print(f"perfbench: no qsoc sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except GateError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
