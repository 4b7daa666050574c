import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from qsoc import suites
from qsoc.cli import main
from qsoc.clifford import CliffordAlgebra
from qsoc.config import SUITE_ORDER, load_config, parse_config
from qsoc.errors import ConfigError, QsocError
from qsoc.problems import ProblemSpec
from qsoc.report import canonical_json, flatten_metrics, format_number, render_csv
from qsoc.suites import run_suite
from reference import ZERO_DYNAMICS_PROBLEM

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(__file__).resolve().parents[1] / "src"
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads"


def base_config(**overrides):
    cfg = {
        "problem": {"name": "lq", "m": 1},
        "grid": {"t0": 0.0, "T": 1.0, "N": 3},
        "suites": ["isometry", "gradient"],
        "tolerances": {"isometry": {"probes": 30}},
        "seed": 11,
        "emit": ["json", "csv"],
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_parse_config_defaults():
    cfg = parse_config(base_config())
    assert cfg.problem.name == "lq"
    assert cfg.n_steps == 3
    assert cfg.suites == ["isometry", "gradient"]
    assert cfg.seed == 11


def test_parse_config_suite_order_canonical():
    cfg = parse_config(base_config(suites=["optimize", "algebra", "theorem"]))
    assert cfg.suites == [s for s in SUITE_ORDER if s in ("algebra", "theorem", "optimize")]


def test_parse_config_error_paths():
    bad = base_config()
    bad["problem"]["name"] = "wat"
    bad["grid"]["N"] = 0
    bad["suites"] = ["nope"]
    bad["typo"] = 1
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    paths = {p for p, _ in err.value.errors}
    assert "problem.name" in paths
    assert "grid.N" in paths
    assert "suites" in paths
    assert "typo" in paths


def test_parse_config_capacity():
    with pytest.raises(ConfigError) as err:
        parse_config(base_config(grid={"t0": 0.0, "T": 1.0, "N": 20}))
    assert any(p == "grid.N" for p, _ in err.value.errors)


def test_validate_rejects_p_suites_above_superop_budget(tmp_path, capsys):
    # dim 512 > 256: refused before any suite runs, naming grid.N and the budget
    cfg = base_config(problem={"name": "quadratic_state"},
                      grid={"t0": 0.0, "T": 1.0, "N": 9}, suites=["orders", "adjoint"])
    path = write_config(tmp_path, cfg)
    assert main(["validate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "grid.N" in err and "256" in err
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists() and "256" in capsys.readouterr().err
    for suite in ("second_order", "theorem", "optimize"):
        path = write_config(tmp_path, dict(cfg, suites=[suite]))
        assert main(["validate", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: grid.N: coefficient dimension 512 exceeds the superoperator "
            f"budget 256 of suites {suite}")


def test_run_narrowed_by_suite_is_held_to_the_budget_of_what_runs(tmp_path, capsys):
    # the README config at N = 9: every suite refused as a whole, and isometry
    # alone passes once --suite narrows the list
    (block,) = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    cfg = json.loads(block)
    cfg["grid"]["N"] = 9
    cfg["tolerances"] = {"isometry": {"probes": 20}}
    path = write_config(tmp_path, cfg)
    message = ("config error: grid.N: coefficient dimension 512 exceeds the superoperator "
               "budget 256 of suites adjoint, second_order, theorem, optimize\n")
    for argv in (["validate"], ["run", "--out", str(tmp_path / "all")]):
        assert main([*argv, "--config", str(path)]) == 2
        assert capsys.readouterr().err == message
    out = tmp_path / "isometry"
    assert main(["run", "--config", str(path), "--out", str(out), "--suite", "isometry"]) == 0
    assert "isometry: pass" in capsys.readouterr().out
    assert json.loads((out / "report.json").read_text())["verdict"] == "pass"


@pytest.mark.parametrize("tolerances, path", [
    ({"second_order": {"tol": 1e9}}, "tolerances.second_order.tol"),
    ({"adjoint": {"transposition": 1e9}}, "tolerances.adjoint.transposition"),
    ({"theorem": {"grid_points": 1}}, "tolerances.theorem.grid_points"),
    ({"algebra": {"lwas": 1e-10}}, "tolerances.algebra.lwas"),
    ({"algebra": {"probes": 0}}, "tolerances.algebra.probes"),
    ({"isometry": {"probes": -5}}, "tolerances.isometry.probes"),
    ({"algebra": {"probes": 2.5}}, "tolerances.algebra.probes"),
    ({"isometry": {"probes": True}}, "tolerances.isometry.probes"),
    ({"nope": {"probes": 3}}, "tolerances.nope"),
])
def test_validate_refuses_every_tolerance_but_the_probe_counts(tmp_path, capsys,
                                                               tolerances, path):
    cfg = write_config(tmp_path, base_config(tolerances=tolerances))
    assert main(["validate", "--config", str(cfg)]) == 2
    assert f"config error: {path}: " in capsys.readouterr().err


def test_validate_accepts_the_probe_counts(tmp_path, capsys):
    cfg = base_config(tolerances={"algebra": {"probes": 1}, "isometry": {"probes": 7}})
    assert main(["validate", "--config", str(write_config(tmp_path, cfg))]) == 0
    assert "config ok" in capsys.readouterr().out
    assert parse_config(cfg).tolerances == cfg["tolerances"]


def test_validate_accepts_large_n_without_p_suites(tmp_path, capsys):
    cfg = base_config(problem={"name": "quadratic_state"},
                      grid={"t0": 0.0, "T": 1.0, "N": 9}, suites=["algebra", "isometry"])
    path = write_config(tmp_path, cfg)
    assert main(["validate", "--config", str(path)]) == 0
    assert "config ok" in capsys.readouterr().out
    # a --suite override that adds a P suite is held to the same budget
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out), "--suite", "adjoint"]) == 2
    assert "grid.N" in capsys.readouterr().err
    assert not out.exists()


def test_parse_config_element_shape_errors():
    bad = base_config()
    bad["problem"]["elements"] = {"b": [[[0, 1.0]]]}
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert any("problem.elements.b[0]" in p for p, _ in err.value.errors)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.json")


def test_validate_refuses_the_retired_free_problem_at_its_name(tmp_path, capsys):
    # a zero-dynamics lq is the same problem (ZERO_DYNAMICS_PROBLEM in the tests)
    cfg = base_config(problem={"name": "free", "rates": {"r": 0.3}})
    with pytest.raises(ConfigError) as err:
        parse_config(cfg)
    assert [p for p, _ in err.value.errors] == ["problem.name"]
    assert main(["validate", "--config", str(write_config(tmp_path, cfg))]) == 2
    assert "config error: problem.name: " in capsys.readouterr().err


def test_format_number_17_digits_roundtrip():
    vals = [1 / 3, math.pi, 1e-300, -2.5e17, 0.1]
    for v in vals:
        assert float(format_number(v)) == v
    assert format_number(3) == "3"
    assert format_number(True) == "true"


def test_canonical_json_structure():
    doc = {"a": [1, 2.5], "b": {"c": None, "d": "x"}}
    text = canonical_json(doc)
    assert json.loads(text) == {"a": [1, 2.5], "b": {"c": None, "d": "x"}}


def test_flatten_metrics_handles_nesting():
    rows = flatten_metrics({"a": {"b": 1.5}, "c": [1, 2], "d": "s"})
    assert ("a.b", 1.5) in rows
    assert ("c[0]", 1) in rows and ("c[1]", 2) in rows
    assert ("d", "s") in rows


def test_validate_subcommand(tmp_path, capsys):
    path = write_config(tmp_path, base_config())
    assert main(["validate", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "config ok" in out


# -- the config layer loads no numeric module ------------------------------------

CONFIG_LAYER = ("qsoc", "qsoc.cli", "qsoc.config", "qsoc.errors")


def main_in_a_fresh_process(argv) -> tuple[int, list[str], str]:
    """Exit code of ``main(argv)``, the numpy and qsoc modules it loaded, and its stderr."""
    script = ("import json, sys\n"
              "from qsoc.cli import main\n"
              "code = main(json.loads(sys.argv[1]))\n"
              "print(json.dumps([code, sorted(m for m in sys.modules\n"
              "                         if m.split('.')[0] in ('numpy', 'qsoc'))]))\n")
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argv)],
                          env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
                          text=True, timeout=60)
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    return code, modules, proc.stderr


@pytest.mark.parametrize("name", ["readme-n4", "dense-n8", "README"])
def test_validate_loads_only_the_config_layer(tmp_path, name):
    if name == "README":
        (block,) = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
        path = write_config(tmp_path, json.loads(block))
    else:
        path = WORKLOADS / f"{name}.json"
    code, modules, err = main_in_a_fresh_process(["validate", "--config", str(path)])
    assert code == 0, err
    assert [m for m in modules if m not in CONFIG_LAYER] == []


def test_a_refused_run_exits_before_the_numeric_layers_load(tmp_path):
    cfg = base_config()
    cfg["problem"]["rates"] = {"a": "fast"}
    out = tmp_path / "out"
    code, modules, err = main_in_a_fresh_process(
        ["run", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
    assert code == 2
    assert "config error: problem.rates.a: expected number, got str" in err
    assert [m for m in modules if m not in CONFIG_LAYER] == []
    assert not out.exists()


def test_validate_bad_config_exit_2(tmp_path, capsys):
    path = write_config(tmp_path, base_config(grid={"t0": 0.0, "T": 1.0, "N": 20}))
    assert main(["validate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "grid.N" in err


# JSON reads NaN as nan and 1e400 as inf; written as text so the literals stay.
# An int literal beyond float range counts as inf too.
@pytest.mark.parametrize("problem,suite,path", [
    ('"lower": [NaN]', "orders", "problem.lower"),
    ('"rates": {"a": NaN}', "gradient", "problem.rates.a"),
    ('"rates": {"a": 1' + "0" * 400 + "}", "gradient", "problem.rates.a"),
    ('"elements": {"x_tgt": [[0, 1e400, 0]]}', "gradient", "problem.elements.x_tgt[0]"),
    ('"lower": [0.5], "upper": [0.25]', "gradient", "problem.lower"),
], ids=["nan-bound", "nan-rate", "int-beyond-float-rate",
        "infinite-term", "empty-box"])
def test_non_finite_or_empty_box_is_refused_with_its_field_path(tmp_path, capsys,
                                                                problem, suite, path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(f'{{"problem": {{"name": "lq", "m": 1, {problem}}}, '
                   f'"grid": {{"t0": 0.0, "T": 1.0, "N": 3}}, "suites": ["{suite}"]}}')
    out = tmp_path / "out"
    for args in (["validate"], ["run", "--out", str(out)]):
        assert main([*args, "--config", str(cfg)]) == 2
        assert f"config error: {path}: " in capsys.readouterr().err
    assert not out.exists()


def test_theorem_runs_on_a_half_open_box(tmp_path, capsys):
    # Newton starts from the box midpoint, an open side counting as 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"problem": {"name": "lq", "m": 1, "upper": [1e400]}, '
                   '"grid": {"t0": 0.0, "T": 1.0, "N": 3}, "suites": ["theorem"]}')
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    (theorem,) = json.loads((out / "report.json").read_text())["suites"]
    assert theorem["metrics"]["free"] == 3 and theorem["failing"] == []
    assert {"name": "kkt_residual", "relation": "<=", "bound": 1e-12} in theorem["checks"]


@pytest.mark.parametrize("lower,upper", [(-1e400, -5.0), (5.0, 1e400)])
def test_every_suite_runs_on_a_half_open_box_beyond_the_unit_interval(tmp_path, lower, upper):
    # the random interior starts of orders, gradient, adjoint, second_order
    # and optimize put the open side 2 beyond the finite one
    cfg = {"problem": {"name": "lq", "lower": [lower], "upper": [upper]},
           "grid": {"t0": 0, "T": 1, "N": 3}}
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert [s["status"] for s in report["suites"]] == ["pass"] * len(SUITE_ORDER)


def test_run_writes_reports_and_passes(tmp_path, capsys):
    path = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["verdict"] == "pass"
    assert [s["name"] for s in report["suites"]] == ["isometry", "gradient"]
    assert (out / "report.csv").exists()
    assert (out / "timings.txt").exists()


def test_run_suite_filter(tmp_path):
    path = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out),
                 "--suite", "isometry"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert [s["name"] for s in report["suites"]] == ["isometry"]


def test_theorem_report_carries_the_cone_spectrum(tmp_path):
    path = write_config(tmp_path, base_config(suites=["theorem"], emit=["json", "plotdata"]))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    metrics = json.loads((out / "report.json").read_text())["suites"][0]["metrics"]
    spectrum = metrics["cone_spectrum"]
    assert len(spectrum) == metrics["free"] == 3
    assert spectrum == sorted(spectrum) and spectrum[-1] == metrics["cone_max_s"] < 0
    rows = (out / "theorem_spectrum.txt").read_text().splitlines()
    assert [float(row.split()[1]) for row in rows] == spectrum


def test_readme_config_at_n_8_passes_theorem_within_15_s(tmp_path):
    (block,) = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    cfg = json.loads(block)
    cfg["grid"]["N"] = 8
    path = write_config(tmp_path, cfg)
    started = time.perf_counter()
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out"),
                 "--suite", "theorem"]) == 0
    assert time.perf_counter() - started < 15.0


def test_readme_zero_dynamics_problem_has_no_dynamics():
    (block,) = re.findall(r"```\n(\"problem\".*?)```", README.read_text(), re.S)
    problem = json.loads("{" + block + "}")["problem"]
    assert problem == ZERO_DYNAMICS_PROBLEM
    spec = parse_config(base_config(problem=problem)).problem
    assert (spec.name, spec.a, spec.f0, spec.g0) == ("lq", 0.0, 0.0, 0.0)
    assert spec.b == spec.f == spec.g == ((),)


def test_run_plotdata_files(tmp_path):
    cfg = base_config(suites=["orders", "optimize"], emit=["json", "plotdata"])
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    sweep = (out / "orders_sweep.txt").read_text().strip().splitlines()
    assert len(sweep) >= 4 and all(len(row.split()) == 4 for row in sweep)
    trace = (out / "optimize_trace.txt").read_text().strip().splitlines()
    assert all(len(row.split()) == 2 for row in trace)
    assert not (out / "report.csv").exists()  # csv not requested


def test_run_deterministic_across_threads(tmp_path):
    # one process per BLAS thread count; algebra at N=6 with 500 probes runs
    # 250-row matrix-form batches, so the row blocks meet both thread counts
    path = write_config(tmp_path, base_config(
        grid={"t0": 0.0, "T": 1.0, "N": 6}, suites=["algebra", "isometry", "gradient"],
        tolerances={"algebra": {"probes": 500}, "isometry": {"probes": 30}}))
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"o{threads}"
        env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-m", "qsoc.cli", "run", "--config", str(path),
                               "--out", str(out)], env=env, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        reports.append([(out / name).read_bytes() for name in ("report.json", "report.csv")])
    assert reports[0] == reports[1]


def test_run_seed_changes_numbers(tmp_path):
    path = write_config(tmp_path, base_config())
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["run", "--config", str(path), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(path), "--out", str(out2), "--seed", "99"]) == 0
    r1 = json.loads((out1 / "report.json").read_text())
    r2 = json.loads((out2 / "report.json").read_text())
    m1 = r1["suites"][1]["metrics"]["fd_residual"]
    m2 = r2["suites"][1]["metrics"]["fd_residual"]
    assert m1 != m2  # different gradient draws (isometry reads 0 on every draw)
    assert r1["verdict"] == r2["verdict"] == "pass"


def test_csv_and_json_carry_identical_numbers(tmp_path):
    path = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    csv_rows = {}
    lines = (out / "report.csv").read_text().strip().splitlines()[1:]
    for line in lines:
        suite, metric, value = line.split(",", 2)
        csv_rows[(suite, metric)] = value
    for suite in report["suites"]:
        assert csv_rows[(suite["name"], "status")] == suite["status"]
        for key, val in flatten_metrics(suite["metrics"]):
            got = csv_rows[(suite["name"], key)]
            if isinstance(val, bool):
                assert got == ("true" if val else "false")
            elif isinstance(val, (int, float)):
                assert float(got) == float(val)
            elif val is None:
                assert got == ""
            else:
                assert got == str(val)


def test_invalid_config_exit_code_and_no_partial_report(tmp_path, capsys):
    cfg = base_config(grid={"t0": 0.0, "T": 1.0, "N": 20})
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()


def flip_gen_sign(monkeypatch, sides=("left",), blade=0):
    """Plant a sign error in the dW kernel: dW_k times ``blade`` (the scalar
    blade by default) flips sign on each of ``sides``."""
    original = CliffordAlgebra._gen_signs

    def flipped(self, side, g):
        signs = original(self, side, g).copy()
        if side in sides:
            signs[blade] = -signs[blade]
        return signs
    monkeypatch.setattr(CliffordAlgebra, "_gen_signs", flipped)


def test_failing_suite_exit_code(tmp_path, monkeypatch, capsys):
    flip_gen_sign(monkeypatch)  # forces a failure verdict
    path = write_config(tmp_path, base_config(suites=["isometry"]))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["verdict"] == "fail"
    (suite,) = report["suites"]
    metrics = suite["metrics"]
    assert metrics["parity_reduction_residual"] == metrics["sign_table_residual"] == 2.0
    # each failing record on stderr, with its value and bound, and in the report
    failing = ["sign_table_residual", "parity_reduction_residual", "isometry_residual"]
    assert suite["failing"] == failing
    lines = capsys.readouterr().err.splitlines()
    assert lines[:2] == ["fail: isometry: sign_table_residual = 2.0, bound <= 0.0",
                         "fail: isometry: parity_reduction_residual = 2.0, bound <= 0.0"]
    assert re.fullmatch(r"fail: isometry: isometry_residual = \S+, bound <= 1e-10", lines[2])
    rows = (out / "report.csv").read_text().splitlines()
    assert "isometry,check.sign_table_residual,fails <= 0" in rows


def test_algebra_suite_catches_a_wrong_matrix_form(monkeypatch):
    # a flipped blade phase still gives an associative, star- and
    # parity-compatible product, so only the sign-table comparison sees it
    cfg = parse_config(base_config(grid={"t0": 0.0, "T": 1.0, "N": 8}, suites=["algebra"],
                                   tolerances={"algebra": {"probes": 300}}))
    clean = run_suite(cfg, "algebra")
    assert clean.status == "pass" and clean.failing == []
    original = CliffordAlgebra._matrix_form

    def flipped(self, q):
        slot, phase, *rest = original(self, q)
        phase = phase.copy()
        phase[-1] = -phase[-1]
        return (slot, phase, *rest)
    monkeypatch.setattr(CliffordAlgebra, "_matrix_form", flipped)
    res = run_suite(cfg, "algebra")
    assert res.status != "pass" and "kernel_residual" in res.failing
    assert "max_law_residual" not in res.failing


def isometry_config():
    return parse_config(base_config(grid={"t0": 0.0, "T": 1.0, "N": 5}, suites=["isometry"],
                                    tolerances={"isometry": {"probes": 40}}))


def test_isometry_suite_catches_a_sign_error_in_the_dw_kernel(monkeypatch):
    cfg = isometry_config()
    clean = run_suite(cfg, "isometry")
    assert clean.status == "pass"
    assert clean.metrics["parity_reduction_residual"] == clean.metrics["sign_table_residual"] == 0.0
    flip_gen_sign(monkeypatch)
    res = run_suite(cfg, "isometry")
    assert res.status != "pass"
    assert res.metrics["parity_reduction_residual"] == res.metrics["sign_table_residual"] == 2.0
    assert res.failing == ["sign_table_residual", "parity_reduction_residual",
                           "isometry_residual"]


def test_isometry_suite_catches_a_dw_sign_flipped_on_both_sides(monkeypatch):
    # dW e_1 and e_1 dW both flip: still dW g = parity(g) dW and still a
    # signed permutation, so norms and the parity law cannot see it
    flip_gen_sign(monkeypatch, sides=("left", "right"), blade=1)
    res = run_suite(isometry_config(), "isometry")
    assert res.status != "pass"
    assert res.metrics["sign_table_residual"] == 2.0
    assert res.metrics["parity_reduction_residual"] == 0.0
    assert res.failing == ["sign_table_residual", "isometry_residual"]


@pytest.mark.parametrize("kernel", ["unmoved", "next_bit"])
def test_isometry_suite_catches_a_dw_kernel_that_moves_blades_wrong(monkeypatch, kernel):
    # right signs, wrong target columns: the exact sign checks never call the
    # kernel, so only the float comparison with the permutation sees it
    mul_dw = suites._mul_dw

    def moved(alg, rows, k, side):
        image = mul_dw(alg, rows, k, side)
        if kernel == "unmoved":  # the images stay in the lower half
            return np.roll(image, -rows.shape[1], axis=1)
        if k < alg.n:  # shifts by the next bit, past the columns of the image
            wide = np.concatenate([rows, np.zeros_like(rows)], axis=1)
            return mul_dw(alg, wide, k + 1, side)[:, :image.shape[1]]
        return image

    monkeypatch.setattr(suites, "_mul_dw", moved)
    res = run_suite(isometry_config(), "isometry")
    assert res.status != "pass"
    assert res.metrics["parity_reduction_residual"] == res.metrics["sign_table_residual"] == 0.0
    assert res.failing == ["isometry_residual"]


def test_algebra_suite_catches_a_wrong_generator_sign(monkeypatch):
    # e1 e2 = e2 e1 in a corrupted sign table breaks anticommutation
    cfg = parse_config(base_config(suites=["algebra"], tolerances={"algebra": {"probes": 300}}))
    clean = run_suite(cfg, "algebra")
    assert clean.status == "pass" and clean.metrics["anticommute"] == 0.0
    original = CliffordAlgebra.sign_table

    def corrupted(self):
        table = original.fget(self).copy()
        table[2, 1] = -table[2, 1]
        return table
    monkeypatch.setattr(CliffordAlgebra, "sign_table", property(corrupted))
    res = run_suite(cfg, "algebra")
    assert res.status != "pass" and "max_law_residual" in res.failing
    assert res.metrics["anticommute"] == 2.0
    assert res.metrics["square"] == 0.0


def test_render_csv_verdict_row():
    report = {"suites": [{"name": "x", "status": "pass", "metrics": {"v": 1.0}}],
              "verdict": "pass"}
    text = render_csv(report)
    assert text.splitlines()[-1] == ",verdict,pass"


@pytest.mark.parametrize("elements,path", [
    ({"b": [[[99, 1.0, 0.0]]]}, "problem.elements.b[0][0]"),
    ({"qd": [[64, 0.1, 0.0]]}, "problem.elements.qd[0]"),
    ({"x0": [[0, 1.0, 0.0], [1, 0.5, 0.0]]}, "problem.elements.x0"),
], ids=["drift-mask", "quad-mask", "x0-blade"])
def test_element_masks_the_algebra_lacks_are_refused_before_any_suite(tmp_path, capsys,
                                                                     elements, path):
    cfg = base_config(problem={"name": "lq", "elements": elements},
                      suites=["algebra", "gradient"], tolerances={"algebra": {"probes": 10}})
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    for args in (["validate"], ["run", "--out", str(out)]):
        assert main([*args, "--config", str(cfg_path)]) == 2
        captured = capsys.readouterr()
        assert f"config error: {path}: " in captured.err
        assert "algebra:" not in captured.out
    assert not out.exists()


def test_negative_seed_in_the_config_is_refused(tmp_path, capsys):
    out = tmp_path / "out"
    path = write_config(tmp_path, base_config(seed=-1))
    for args in (["validate"], ["run", "--out", str(out)]):
        assert main([*args, "--config", str(path)]) == 2
        assert "config error: seed: must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_negative_run_seed_is_refused(tmp_path, capsys):
    out = tmp_path / "out"
    path = write_config(tmp_path, base_config())
    assert main(["run", "--config", str(path), "--out", str(out), "--seed", "-3"]) == 2
    assert "config error: --seed: must be >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("suite_args", [[], ["--suite", "optimize"]], ids=["theorem", "optimize"])
def test_a_non_finite_cost_ends_the_run_with_one_error_line(tmp_path, capsys, suite_args):
    # s * |x - x_tgt|^2 overflows to inf for every control: the config is valid,
    # but neither the Newton search of theorem nor projected gradient has a
    # finite start; that suite reports an error, the others keep their results
    # (gradient fails: its difference quotient of two infinite costs is NaN)
    cfg = base_config(problem={"name": "lq", "rates": {"s": 1e308},
                               "elements": {"x_tgt": [[0, 100.0, 0.0]]}},
                      suites=["gradient", "theorem"])
    path = write_config(tmp_path, cfg)
    assert main(["validate", "--config", str(path)]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["run", "--config", str(path), "--out", str(out), *suite_args])
    assert code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
    assert len(errors) == 1 and errors[0].startswith("error: ")
    report = json.loads((out / "report.json").read_text())
    statuses = {s["name"]: s["status"] for s in report["suites"]}
    assert statuses == ({"optimize": "error"} if suite_args
                        else {"gradient": "fail", "theorem": "error"})
    if not suite_args:
        assert report["suites"][0]["metrics"]["fd_residual"] == "nan"
    assert report["verdict"] == "fail"
    (failed,) = [s for s in report["suites"] if s["status"] == "error"]
    assert failed["metrics"] == {"reason": "cost inf at the initial control is not finite"}


def test_a_suite_error_keeps_the_suites_after_it(tmp_path, capsys, monkeypatch):
    def broken(cfg):
        raise QsocError("planted")

    monkeypatch.setitem(suites._RUNNERS, "isometry", broken)
    path = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "isometry: error\ngradient: pass\n" in captured.out
    assert captured.err == "error: isometry: planted\n"
    report = json.loads((out / "report.json").read_text())
    assert [(s["name"], s["status"]) for s in report["suites"]] == [
        ("isometry", "error"), ("gradient", "pass")]
    assert report["suites"][0]["metrics"] == {"reason": "planted"}


def test_gallery_defaults_validate_at_n_1(tmp_path, capsys):
    # the default g element carries blade 2, which the algebra at N = 1 lacks
    # and no step reaches: it is dropped there and kept from N = 2 on
    cfg = {"problem": {"name": "lq"}, "grid": {"t0": 0.0, "T": 1.0, "N": 1},
           "suites": ["gradient", "theorem", "optimize"]}
    path = write_config(tmp_path, cfg)
    assert main(["validate", "--config", str(path)]) == 0
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert parse_config(cfg).problem.g == (((0, 0.6, 0.0),),)
    at_2 = parse_config(dict(cfg, grid={"t0": 0.0, "T": 1.0, "N": 2})).problem
    assert at_2.g == (((0, 0.6, 0.0), (2, 0.4, 0.0)),)
    assert at_2 == ProblemSpec.gallery("lq")


def test_a_user_set_blade_beyond_the_algebra_at_n_1_is_refused(tmp_path, capsys):
    cfg = {"problem": {"name": "lq", "elements": {"g": [[[0, 0.6, 0.0], [2, 0.4, 0.0]]]}},
           "grid": {"t0": 0.0, "T": 1.0, "N": 1}}
    path = write_config(tmp_path, cfg)
    assert main(["validate", "--config", str(path)]) == 2
    assert "config error: problem.elements.g[0][1]: blade mask 2" in capsys.readouterr().err
