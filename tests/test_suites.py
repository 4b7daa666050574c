"""What the adjoint and algebra suites hold at once, and that it changes no bit.

The adjoint suite keeps its test tuples at their adapted widths and checks
one start index at a time; the algebra suite runs its products on row
blocks of ``max(1, SCREEN_BLOCK_ENTRIES // dim)`` rows.
"""

import numpy as np
import pytest

from qsoc import suites
from qsoc.clifford import make_algebra
from qsoc.config import parse_config
from qsoc.optimize import SCREEN_BLOCK_ENTRIES
from reference import dense_test_pairs


def config(problem, n, suite, **tolerances):
    return parse_config({"problem": {"name": problem}, "grid": {"t0": 0.0, "T": 1.0, "N": n},
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
    res = suites.run_suite(config("free", 8, "algebra", algebra={"probes": 300}), "algebra")
    assert res.passed, res.metrics
    assert rows and max(rows) <= max(1, SCREEN_BLOCK_ENTRIES // 256)


@pytest.mark.parametrize("n", (5, 8))
def test_algebra_row_blocks_are_invisible(monkeypatch, n):
    cfg = config("free", n, "algebra", algebra={"probes": 300})
    metrics = []
    for rows in (1, 3, 250):  # 250: a whole chunk per product
        monkeypatch.setattr(suites, "SCREEN_BLOCK_ENTRIES", rows << n)
        metrics.append(suites.run_suite(cfg, "algebra").metrics)
    assert metrics[0]["assoc"] > 0.0  # rounding shows, so equality is not vacuous
    assert metrics[0] == metrics[1] == metrics[2]
