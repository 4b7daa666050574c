"""Show that the benchmark's correctness gate can fail.

    python3 perfbench/selftest.py

Runs the gate on the ``dense-n8`` workload once clean and once with each
planted defect: an impossible suite tolerance, one flipped byte in a
``report.json``, a wall-clock cap too small to finish, and a traced function
that is missing.  The clean run must have ``failed == 0``; every planted
defect must drive ``failed / attempted`` above 0.  Exits 0 when all hold.
About 40 s on a 2-core machine.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from dataclasses import replace

import run
import tracer

WORKLOAD = "dense-n8"


def gate(seconds: int = 12) -> dict:
    args = argparse.Namespace(workload=WORKLOAD, seed=7, seconds=seconds, trace=0)
    return run.run(args)


def planted_tolerance():
    path = run.WORKLOAD_DIR / f"{WORKLOAD}.json"
    cfg = json.loads(path.read_text())
    cfg.setdefault("tolerances", {})["adjoint"] = {"transposition": -1.0}
    path.write_text(json.dumps(cfg))
    return gate(3)


def planted_byte_flip():
    check, calls = run.check_report, []

    def flip_second(result, outdir, config, seed):
        calls.append(outdir)
        if len(calls) == 2:
            path = outdir / "report.json"
            data = bytearray(path.read_bytes())
            # a digit past the middle: the JSON stays valid, only the hash shows it
            at = next(i for i in range(len(data) // 2, len(data)) if chr(data[i]).isdigit())
            data[at] = ord("0") + (data[at] - ord("0") + 1) % 10
            path.write_bytes(bytes(data))
        check(result, outdir, config, seed)

    run.check_report = flip_second
    try:
        return gate()
    finally:
        run.check_report = check


def planted_timeout():
    original = run.WORKLOADS[WORKLOAD]
    run.WORKLOADS[WORKLOAD] = replace(original, cap_s=0.5)
    try:
        return gate(3)
    finally:
        run.WORKLOADS[WORKLOAD] = original


def planted_missing_span() -> bool:
    sys.path.insert(0, str(run.SRC))
    import qsoc.cli  # noqa: F401  (loads the traced modules)

    spans = tracer.SPANS
    tracer.SPANS = spans + (("forward.solve_state", "qsoc.forward", "solve_state_renamed"),)
    try:
        tracer.Tracer().install()
    except tracer.TraceError as exc:
        print(f"  trace error raised: {exc}")
        return True
    finally:
        tracer.SPANS = spans
    return False


def main() -> int:
    scratch = run.WORK / "selftest" / "workloads"
    pristine, run.WORKLOAD_DIR = run.WORKLOAD_DIR, scratch
    ok = True
    try:
        cases = [("clean", gate, False),
                 ("impossible tolerance", planted_tolerance, True),
                 ("flipped report byte", planted_byte_flip, True),
                 ("wall-clock cap exceeded", planted_timeout, True)]
        for name, case, should_fail in cases:
            shutil.rmtree(scratch, ignore_errors=True)  # each case starts from the real configs
            shutil.copytree(pristine, scratch)
            result = case()
            ratio = result["failed"] / result["attempted"]
            good = (ratio > 0) == should_fail and result["correct"] == (not should_fail)
            ok = ok and good
            print(f"{'ok  ' if good else 'BAD '} {name}: fail_ratio "
                  f"{result['failed']}/{result['attempted']} = {ratio:.3f}", flush=True)
        good = planted_missing_span()
        ok = ok and good
        print(f"{'ok  ' if good else 'BAD '} missing traced function", flush=True)
    finally:
        run.WORKLOAD_DIR = pristine
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
