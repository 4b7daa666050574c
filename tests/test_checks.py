"""The verdict rule: a suite passes iff every one of its Check records holds.

One table drives the rule through each relation at its bound and one float
step past it, a NaN value (fails every relation) and None, an exact order
sweep (holds).  A second table pins the relation and bound of every record
the suites return on the readme-n4 workload; a record reads the metric it
names, so no value is reported twice.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from qsoc import optimize, suites
from qsoc.cli import build_report
from qsoc.conditions import ROUTE_GAP_TOL, Check
from qsoc.config import load_config

WORKLOAD = Path(__file__).resolve().parents[1] / "perfbench" / "workloads" / "readme-n4.json"
NAN = float("nan")


def past(x, direction):
    return float(np.nextafter(x, direction * np.inf))


RULE = [  # relation, bound, value, holds
    ("<=", 1e-9, 1e-9, True),
    ("<=", 1e-9, past(1e-9, 1), False),
    ("<=", 0.0, 0.0, True),
    ("<=", 0.0, past(0.0, 1), False),
    (">=", 2.5, 2.5, True),
    (">=", 2.5, past(2.5, -1), False),
    ("in", (0.9, 1.1), 0.9, True),
    ("in", (0.9, 1.1), 1.1, True),
    ("in", (0.9, 1.1), past(0.9, -1), False),
    ("in", (0.9, 1.1), past(1.1, 1), False),
    ("<=", 1e-9, NAN, False),
    (">=", 2.5, NAN, False),
    ("in", (0.9, 1.1), NAN, False),
    ("<=", 1e-9, None, True),
    (">=", 2.5, None, True),
    ("in", (0.9, 1.1), None, True),
]


@pytest.mark.parametrize("relation,bound,value,holds", RULE)
def test_the_rule(relation, bound, value, holds):
    assert Check("metric", value, bound, relation).holds is holds


def test_a_suite_passes_iff_every_record_holds():
    held, broken = Check("a", 1.0, 2.0), Check("b", NAN, 2.0)
    assert suites.SuiteResult("x", {}, [held, held]).status == "pass"
    result = suites.SuiteResult("x", {}, [broken, held, Check("c", 3.0, 2.0)])
    assert (result.status, result.failing) == ("fail", ["b", "c"])
    assert suites.SuiteResult("x", {"reason": "r"}, [], error=True).status == "error"


RELATIVE = "relative"  # ROUTE_GAP_TOL (1 + |S|): two routes to S agree
BOUNDS = {  # every record's relation and bound, each the constant its suite had before
    "algebra": {"max_law_residual": 0.0, "oracle_residual": 1e-12, "kernel_residual": 1e-12},
    "isometry": {"sign_table_residual": 0.0, "parity_reduction_residual": 0.0,
                 "isometry_residual": 1e-10},
    "orders": {"deviation.slope": ("in", (0.9, 1.1)),
               "deviation_minus_linear.slope": ("in", (1.8, 2.2)),
               "deviation_minus_quadratic.slope": (">=", 2.5)},
    "gradient": {"duality_residual": 1e-10, "fd_residual": 1e-6},
    "adjoint": {"transposition_residual": 1e-9, "terminal_y_error": 1e-14,
                "terminal_p_error": 1e-12, "curvature_error": 1e-12,
                "closed_form_error": 1e-10, "real_symmetry_error": 1e-9},
    "second_order": {"rel_err_first_order": 1e-3, "rel_err_second_order": 1e-3,
                     "route_gap": RELATIVE},
    "theorem": {"kkt_residual": 1e-12, "cone_max_s": 1e-6, "route_gap": RELATIVE,
                "oracle_gap": RELATIVE, "taylor_rel_err_first_order": 1e-3,
                "taylor_rel_err": 1e-3, "taylor_route_gap": RELATIVE, "analytic_max_error": 1e-10},
    "optimize": {"kkt_residual": 1e-12, "brute_force_gap": 1e-9, "max_cost_rise": 1e-14},
}


# bound keys the records replace, and the theorem's verdict, which its failing list replaces
RETIRED = {"law_tol", "tol", "oracle_tol", "duality_tol", "fd_tol", "transposition_tol", "s_tol",
           "kkt_tol", "verdict_ok"}


@pytest.fixture(scope="module")
def results():
    cfg = load_config(WORKLOAD)
    return {name: suites.run_suite(cfg, name) for name in cfg.suites}


def metric(metrics, name):
    for key in name.split("."):
        metrics = metrics[key]
    return metrics


@pytest.mark.parametrize("name", BOUNDS)
def test_every_record_bound_is_pinned(results, name):
    res = results[name]
    assert res.status == "pass" and [c.name for c in res.checks] == list(BOUNDS[name])
    s = res.metrics.get("s", res.metrics.get("cone_max_s"))  # the S a route gap is relative to
    for c in res.checks:
        want = BOUNDS[name][c.name]
        relation, bound = want if isinstance(want, tuple) else ("<=", want)
        assert c.relation == relation
        if bound != RELATIVE:
            assert c.bound == bound, c
        elif c.name == "taylor_route_gap":  # S along the sweep's step, which is at most 1
            assert ROUTE_GAP_TOL <= c.bound <= ROUTE_GAP_TOL * (1.0 + abs(s)) * (1 + 1e-12)
        else:
            assert c.bound == ROUTE_GAP_TOL * (1.0 + abs(s))
        value = metric(res.metrics, c.name)  # the record reads the metric it names
        assert value == c.value or (math.isnan(value) and math.isnan(c.value))
    assert ROUTE_GAP_TOL == 1e-10


def test_the_report_holds_each_record_once_without_its_value(results):
    cfg = load_config(WORKLOAD)
    report = build_report(cfg, list(results.values()))
    for entry in report["suites"]:
        assert entry["failing"] == []
        assert [c["name"] for c in entry["checks"]] == list(BOUNDS[entry["name"]])
        assert all(set(c) == {"name", "relation", "bound"} for c in entry["checks"])
        assert not RETIRED & set(entry["metrics"])


def test_a_wrong_sign_step_fails_optimize_by_its_kkt_residual(monkeypatch):
    cfg = load_config(WORKLOAD)
    hu_field = optimize.hu_field
    monkeypatch.setattr(optimize, "hu_field", lambda adj: -hu_field(adj))  # ascent
    res = suites.run_suite(cfg, "optimize")
    assert res.status == "fail" and res.failing[0] == "kkt_residual"
    monkeypatch.undo()
    assert suites.run_suite(cfg, "optimize").status == "pass"
