"""Command-line interface.

    qsoc run --config cfg.json [--out DIR] [--suite NAME]... [--seed S]
    qsoc validate --config cfg.json

Exit codes: 0 suites passed, 1 at least one suite failed, 2 configuration
error, or a suite that could not run, a capacity limit hit at run time
included (its status is ``error``; the report of every suite is still
written).
"""

from __future__ import annotations

import argparse
import sys
import time

from . import __version__
from .config import SUITE_ORDER, budget_error, load_config
from .errors import ConfigError

__all__ = ["main", "build_report"]


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qsoc",
                                     description="quantum stochastic optimal control checks")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute verification suites and write reports")
    run.add_argument("--config", required=True, help="path to the JSON run configuration")
    run.add_argument("--out", default=None, help="output directory (overrides config)")
    run.add_argument("--suite", action="append", default=None, choices=SUITE_ORDER,
                     help="restrict to one suite (repeatable)")
    run.add_argument("--seed", type=int, default=None, help="override the config seed")

    val = sub.add_parser("validate", help="check a configuration without running")
    val.add_argument("--config", required=True)
    return parser


def build_report(cfg, results) -> dict:
    return {
        "artifact": {"name": "qsoc", "version": __version__},
        "config": cfg.echo(),
        "suites": [{"name": r.name, "status": r.status, "metrics": r.metrics}
                   for r in results],
        "verdict": "pass" if all(r.passed for r in results) else "fail",
    }


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if getattr(args, "suite", None):
            cfg.suites = [s for s in SUITE_ORDER if s in set(args.suite)]
        err = budget_error(cfg.n_steps, cfg.suites)
        if err:
            raise ConfigError([err])
        if args.command == "validate":
            print(f"config ok: problem={cfg.problem.name} N={cfg.n_steps} "
                  f"suites={','.join(cfg.suites)}")
            return 0

        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError([("--seed", "must be >= 0")])
            cfg.seed = args.seed
        outdir = args.out or cfg.output or "qsoc-out"

        # the numeric layers load only once the config has passed
        from .report import write_report_files
        from .suites import run_all

        results = []
        timings = {}
        plotdata = {}
        started = time.perf_counter()
        for res in run_all(cfg):
            timings[res.name] = time.perf_counter() - started
            results.append(res)
            if res.plotdata:
                plotdata.update(res.plotdata)
            print(f"{res.name}: {res.status}")
            if res.status == "error":
                print(f"error: {res.name}: {res.metrics['reason']}", file=sys.stderr)
            started = time.perf_counter()

        report = build_report(cfg, results)
        written = write_report_files(report, outdir, cfg.emit,
                                     plotdata=plotdata, timings=timings)
        for kind, path in written.items():
            print(f"wrote {kind}: {path}")
        print(f"verdict: {report['verdict']}")
        if any(r.status == "error" for r in results):
            return 2
        return 0 if report["verdict"] == "pass" else 1
    except ConfigError as exc:
        for path, msg in exc.errors:
            print(f"config error: {path + ': ' if path else ''}{msg}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
