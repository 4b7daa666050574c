"""tools/report_diff.py: names the leaf keys on which two reports differ."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "report_diff.py"

REPORT = {
    "artifact": {"name": "qsoc", "version": "0.1.0"},
    "suites": [
        {"name": "gradient", "status": "pass", "metrics": {"fd_residual": 2.5e-11}},
        {"name": "optimize", "status": "pass",
         "metrics": {"final_cost": 0.6891291337823666, "iterations": 28}},
    ],
    "verdict": "pass",
}


def run_tool(tmp_path, old, new):
    paths = []
    for name, report in (("old.json", old), ("new.json", new)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(report))
    return subprocess.run([sys.executable, str(TOOL), *map(str, paths)],
                          capture_output=True, text=True)


def test_identical_reports_exit_zero(tmp_path):
    done = run_tool(tmp_path, REPORT, REPORT)
    assert done.returncode == 0 and done.stdout == ""


def test_a_planted_key_is_named(tmp_path):
    planted = json.loads(json.dumps(REPORT))
    planted["suites"][1]["metrics"]["final_cost"] = 0.6891291337823667
    done = run_tool(tmp_path, REPORT, planted)
    assert done.returncode == 1
    (line,) = done.stdout.splitlines()
    key, old, new, rel = line.split("\t")
    assert key == "suites[optimize].metrics.final_cost"
    assert (float(old), float(new)) == (0.6891291337823666, 0.6891291337823667)
    assert 1e-16 < float(rel) < 2e-16
