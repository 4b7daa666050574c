"""The benchmark's trace targets survive refactors of ``src/``.

``perfbench/tracer.py`` looks every traced function up by module and name,
and ``perfbench/run.py`` requires each workload's traced run to record a
fixed list of spans.  A rename in ``src/`` that the tracer does not follow
would stop the benchmark; these tests catch it in the tier-1 suite.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
WORKLOADS = sorted(path.stem for path in (BENCH / "workloads").glob("*.json"))


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import run
    import tracer
    return run, tracer


def test_every_trace_target_resolves(bench):
    # lookups only: nothing is rebound
    run, tracer = bench
    assert sorted(run.WORKLOADS) == WORKLOADS
    for _, module, name in tracer.SPANS:
        assert callable(tracer._lookup(module, name))
    for _, module, cls, meth in tracer.METHOD_SPANS:
        assert callable(getattr(tracer._lookup(module, cls), meth))
    assert callable(tracer._lookup(*tracer.SUITE_RUNNER))
    assert callable(tracer._lookup(*tracer.ELEMENT_CLASS).__post_init__)


def missing_spans(run, src: Path, workload: str, tmp_path: Path) -> list:
    """The spans a traced run of ``workload`` from ``src`` should record but did not.

    A run the tracer refuses to start, or that fails, misses every span; its
    stderr is returned in their place.
    """
    stats = tmp_path / f"{workload}-stats.json"
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "tracer.py"), str(stats), "run",
         "--config", str(BENCH / "workloads" / f"{workload}.json"),
         "--out", str(tmp_path / f"{workload}-out")],
        env=env, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()}"]
    spans = json.loads(stats.read_text())["spans"]
    return [name for name in run.WORKLOADS[workload].expect
            if spans.get(name, {}).get("calls", 0) < 1]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_workload_records_every_expected_span(bench, tmp_path, workload):
    run, _ = bench
    assert missing_spans(run, ROOT / "src", workload, tmp_path) == []


def test_a_renamed_traced_function_is_caught(bench, tmp_path):
    # a consistent rename across the source copy: qsoc still runs, the trace cannot
    run, _ = bench
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    renamed = 0
    for path in src.rglob("*.py"):
        text = path.read_text()
        renamed += text.count("solve_second_variation")
        path.write_text(text.replace("solve_second_variation", "solve_quadratic_response"))
    assert renamed >= 2
    missing = missing_spans(run, src, "dense-n8", tmp_path)
    assert len(missing) == 1 and "qsoc.forward.solve_second_variation" in missing[0]
