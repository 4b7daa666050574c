"""tools/margins.py: names each suite's tightest check, value against bound."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "margins.py"

REPORT = {"suites": [
    {"name": "orders", "status": "pass",
     "metrics": {"deviation": {"slope": 1.05, "exact": False},
                 "deviation_minus_quadratic": {"slope": None, "exact": True}},
     "checks": [{"name": "deviation.slope", "relation": "in", "bound": [0.9, 1.1]},
                {"name": "deviation_minus_quadratic.slope", "relation": ">=", "bound": 2.5}],
     "failing": []},
    {"name": "adjoint", "status": "fail",
     "metrics": {"transposition_residual": 2e-9, "closed_form_error": "nan",
                 "terminal_y_error": 0.0},
     "checks": [{"name": "transposition_residual", "relation": "<=", "bound": 1e-9},
                {"name": "terminal_y_error", "relation": "<=", "bound": 0.0},
                {"name": "closed_form_error", "relation": "<=", "bound": 1e-10}],
     "failing": ["transposition_residual", "closed_form_error"]},
    {"name": "theorem", "status": "error", "metrics": {"reason": "budget"}, "checks": [],
     "failing": []},
]}


def test_each_suite_prints_its_tightest_check(tmp_path):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(REPORT))
    done = subprocess.run([sys.executable, str(TOOL), str(path)], capture_output=True, text=True)
    assert done.returncode == 0
    assert done.stdout.splitlines() == [
        "orders pass: tightest deviation.slope = 1.05 in [0.9, 1.1] (share 0.5)",
        "adjoint fail: tightest closed_form_error = nan <= 1e-10 (share inf)",
        "theorem error: no checks",
    ]
