"""The benchmark's correctness gate (``perfbench/run.py``) can fail.

Suite bounds are constants in ``qsoc.suites``, so an impossible bound is
planted in a copy of ``src/`` that the gate runs ``qsoc`` from, not in a run
config: a config that sets a bound is refused by ``qsoc validate``, and the
gate then refuses to produce a result at all.
"""

import argparse
import json
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BOUND = 'Check("transposition_residual", trans_res, 1e-9)'  # in suites.run_adjoint


@pytest.fixture
def gate(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import run
    monkeypatch.setattr(run, "WORK", tmp_path / "perfbench")
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    return run


def run_gate(gate):
    return gate.run(argparse.Namespace(workload="readme-n4", seed=7, seconds=1, trace=0))


def test_gate_fails_every_pass_of_an_impossible_transposition_bound(gate, tmp_path,
                                                                   monkeypatch):
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    suites = src / "qsoc" / "suites.py"
    text = suites.read_text()
    assert text.count(BOUND) == 1
    suites.write_text(text.replace(BOUND, BOUND.replace("1e-9", "-1.0")))
    monkeypatch.setattr(gate, "SRC", src)

    result = run_gate(gate)
    assert not result["correct"]
    record = json.loads((gate.WORK / "results" / "readme-n4-seed7-trace0.json").read_text())
    runs = [p for p in record["passes"] if p["kind"] == "run"]
    assert runs and result["failed"] == len(runs)
    assert all(p["failure"].startswith("exit code 1 ") for p in runs)
    report = json.loads((gate.WORK / "work" / "readme-n4-seed7" / "run" / "report.json")
                        .read_text())
    assert [s["name"] for s in report["suites"] if s["status"] != "pass"] == ["adjoint"]


def test_gate_refuses_a_workload_config_that_sets_a_suite_bound(gate, tmp_path, monkeypatch):
    workloads = tmp_path / "workloads"
    shutil.copytree(gate.WORKLOAD_DIR, workloads)
    path = workloads / "readme-n4.json"
    cfg = json.loads(path.read_text())
    cfg.setdefault("tolerances", {})["adjoint"] = {"transposition": -1.0}
    path.write_text(json.dumps(cfg))
    monkeypatch.setattr(gate, "WORKLOAD_DIR", workloads)

    with pytest.raises(gate.GateError, match="workload readme-n4 does not validate"):
        run_gate(gate)
