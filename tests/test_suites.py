"""Suite internals: working sets, the closed form of P, NaN-keeping folds.

The adjoint suite keeps its test tuples at their adapted widths and checks
one start index at a time; the algebra suite runs its products on row
blocks of ``max(1, SCREEN_BLOCK_ENTRIES // dim)`` rows.  Neither changes a
bit.  The adjoint suite checks every P_k of the configured problem, stripped
of its quadratic-state terms, against the scalar-rate recursion.  A NaN in
any residual a suite folds must reach its metric and fail the suite.
"""

import math

import numpy as np
import pytest

from qsoc import suites
from qsoc.clifford import SuperOperator, make_algebra
from qsoc.config import parse_config
from qsoc.optimize import SCREEN_BLOCK_ENTRIES
from reference import dense_test_pairs


def config(problem, n, suite, **tolerances):
    problem = problem if isinstance(problem, dict) else {"name": problem}
    return parse_config({"problem": problem, "grid": {"t0": 0.0, "T": 1.0, "N": n},
                         "suites": [suite], "tolerances": tolerances, "seed": 3})


@pytest.mark.parametrize("n", (1, 3, 4, 8))
def test_compact_test_tuple_draws_expand_to_the_dense_construction(n):
    alg = make_algebra(n, 0.0, 1.0)
    want_rng, got_rng = np.random.default_rng(40 + n), np.random.default_rng(40 + n)
    want = dense_test_pairs(want_rng, alg, 30)
    draws = suites._test_tuple_draws(got_rng, alg, 30)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    for k, rows in draws:  # each element at its adapted width 2^j
        steps = [k, *range(k, n), *range(k, n)]
        assert [[r.size for r in t] for t in rows] == [[1 << j for j in steps]] * 2
    got = {k: iter(suites._test_pairs(alg, draws, k)) for k, _ in draws}
    for ref_pair in want:
        for g, r in zip(next(got[ref_pair[0].k]), ref_pair):
            assert (g.k, len(g.mu), len(g.nu)) == (r.k, len(r.mu), len(r.nu))
            for a, b in zip([g.zeta, *g.mu, *g.nu], [r.zeta, *r.mu, *r.nu]):
                assert a.coeffs.dtype == b.coeffs.dtype
                assert a.coeffs.tobytes() == b.coeffs.tobytes()
    assert all(next(rest, None) is None for rest in got.values())


def test_adjoint_suite_checks_one_start_index_per_call(monkeypatch):
    starts = []
    check = suites.transposition_residual

    def spy(p, sa, tuples):
        starts.append({t.k for pair in tuples for t in pair})
        return check(p, sa, tuples)

    monkeypatch.setattr(suites, "transposition_residual", spy)
    res = suites.run_suite(config("quadratic_state", 4, "adjoint"), "adjoint")
    assert res.passed, res.metrics
    assert all(len(s) == 1 for s in starts)
    assert sorted(k for s in starts for k in s) == [0, 1, 2, 3]  # 100 pairs hit every k


def test_algebra_suite_products_stay_within_row_blocks(monkeypatch):
    rows = []
    for name in ("multiply_batch", "_matrix_product", "_table_product"):
        def spy(alg, A, B, *rest, _product=getattr(suites, name)):
            rows.append(len(A))
            return _product(alg, A, B, *rest)
        monkeypatch.setattr(suites, name, spy)
    res = suites.run_suite(config("lq", 8, "algebra", algebra={"probes": 300}), "algebra")
    assert res.passed, res.metrics
    assert rows and max(rows) <= max(1, SCREEN_BLOCK_ENTRIES // 256)


@pytest.mark.parametrize("n", (5, 8))
def test_algebra_row_blocks_are_invisible(monkeypatch, n):
    cfg = config("lq", n, "algebra", algebra={"probes": 300})
    metrics = []
    for rows in (1, 3, 250):  # 250: a whole chunk per product
        monkeypatch.setattr(suites, "SCREEN_BLOCK_ENTRIES", rows << n)
        metrics.append(suites.run_suite(cfg, "algebra").metrics)
    assert metrics[0]["assoc"] > 0.0  # rounding shows, so equality is not vacuous
    assert metrics[0] == metrics[1] == metrics[2]


# -- the closed form of P ------------------------------------------------------

USER_RATES = {"name": "lq", "rates": {"a": -1.5, "f0": 0.9, "g0": -0.4, "q": 2.0, "r": 0.1,
                                      "s": 3.0}}


@pytest.mark.parametrize("n", (1, 5))
@pytest.mark.parametrize("problem", ("lq", "quadratic_control", "quadratic_state", USER_RATES),
                         ids=("lq", "quadratic_control", "quadratic_state", "user_rates"))
def test_closed_form_of_p_holds_to_rounding_on_the_configured_rates(problem, n):
    res = suites.run_suite(config(problem, n, "adjoint"), "adjoint")
    assert res.passed, res.metrics
    assert res.metrics["closed_form_error"] <= 1e-14


def test_a_conjugation_block_in_the_closed_form_problem_fails_adjoint(monkeypatch):
    # a sesquilinear cost and linear dynamics give P with no conjugation block,
    # so any antilin, even a zero one, counts as a failure
    compute_P = suites.compute_P

    def with_antilin(*args, **kwargs):
        sa = compute_P(*args, **kwargs)
        sa.P[2] = SuperOperator(sa.P[2].algebra, sa.P[2].lin, np.zeros_like(sa.P[2].lin))
        return sa

    monkeypatch.setattr(suites, "compute_P", with_antilin)
    res = suites.run_suite(config("lq", 4, "adjoint"), "adjoint")
    assert res.status == "fail" and res.metrics["closed_form_error"] == math.inf


# -- a NaN reaches the metric --------------------------------------------------

def nan_after(fn, calls, poison):
    """``fn`` whose results from call number ``calls`` on go through ``poison``."""
    seen = []

    def wrapped(*args, **kwargs):
        seen.append(None)
        out = fn(*args, **kwargs)
        return poison(out) if len(seen) > calls else out
    return wrapped


def test_a_nan_law_residual_in_a_later_chunk_fails_algebra(monkeypatch):
    monkeypatch.setattr(suites, "_law_residuals", nan_after(
        suites._law_residuals, 1, lambda out: {**out, "assoc": math.nan}))
    res = suites.run_suite(config("lq", 3, "algebra", algebra={"probes": 600}), "algebra")
    assert res.status == "fail"
    assert math.isnan(res.metrics["assoc"]) and math.isnan(res.metrics["max_law_residual"])


def test_a_nan_stochastic_integral_in_a_later_block_fails_isometry(monkeypatch):
    n = 3  # three dW products per step; the second 32-probe block turns NaN
    monkeypatch.setattr(suites, "_mul_dw", nan_after(
        suites._mul_dw, 3 * n, lambda out: np.full_like(out, np.nan)))
    res = suites.run_suite(config("lq", n, "isometry", isometry={"probes": 64}), "isometry")
    assert res.status == "fail"
    assert math.isnan(res.metrics["isometry_residual"])
    assert math.isnan(res.metrics["parity_reduction_residual"])


def test_a_nan_duality_residual_in_a_later_trial_fails_gradient(monkeypatch):
    monkeypatch.setattr(suites, "first_duality_residual", nan_after(
        suites.first_duality_residual, 1, lambda out: math.nan))
    res = suites.run_suite(config("lq", 3, "gradient"), "gradient")
    assert res.status == "fail" and math.isnan(res.metrics["duality_residual"])


def test_a_nan_in_p_fails_adjoint(monkeypatch):
    compute_P = suites.compute_P

    def nan_p3(*args, **kwargs):
        sa = compute_P(*args, **kwargs)
        sa.P[3].lin[0, 0] = np.nan
        return sa

    monkeypatch.setattr(suites, "compute_P", nan_p3)
    res = suites.run_suite(config("lq", 5, "adjoint"), "adjoint")
    assert res.status == "fail"
    assert math.isnan(res.metrics["closed_form_error"])
    assert math.isnan(res.metrics["real_symmetry_error"])
