"""Suite internals: working sets, the closed form of P, NaN-keeping folds.

The adjoint suite draws its test tuples at their adapted widths and checks
one start index at a time, as zero-padded arrays; the algebra suite runs its
kernel products on row blocks of ``max(1, SCREEN_BLOCK_ENTRIES // dim)`` rows.
Neither changes a bit.  The algebra suite checks the product laws exactly on
the sign table, and a single wrong sign in the table or in a grading fails its
law.  The isometry suite draws only the adapted blades it uses.  The adjoint
suite checks each curvature operator M_k against the raw Hessian callbacks,
and every P_k of the configured problem, stripped of its quadratic-state
terms, against the scalar-rate recursion.  A NaN in any residual a suite
folds, or in a deviation the order sweep folds, must reach its metric and
fail the suite.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from qsoc import problems, suites
from qsoc.clifford import SuperOperator, make_algebra
from qsoc.config import load_config, parse_config
from qsoc.optimize import SCREEN_BLOCK_ENTRIES
from reference import compact_test_pairs, stack_pairs


def config(problem, n, suite, **tolerances):
    problem = problem if isinstance(problem, dict) else {"name": problem}
    return parse_config({"problem": problem, "grid": {"t0": 0.0, "T": 1.0, "N": n},
                         "suites": [suite], "tolerances": tolerances, "seed": 3})


@pytest.mark.parametrize("n", (1, 3, 4, 8))
def test_test_tuple_draws_are_the_compact_stream(n):
    # one integers draw and one standard_normal(4 sum 2^j) a pair, nothing more
    alg = make_algebra(n, 0.0, 1.0)
    want_rng, got_rng = np.random.default_rng(40 + n), np.random.default_rng(40 + n)
    want = compact_test_pairs(want_rng, alg, 30)
    draws = suites._test_tuple_draws(got_rng, alg, 30)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    for k in dict.fromkeys(k for k, _ in draws):
        got = suites._test_equations(alg, draws, k)
        # each element at its adapted width 2^j: normals there, zeros beyond
        steps = [k, *range(k, n), *range(k, n)]
        for t in range(2):
            rows = np.concatenate([got[0][t, :, None], got[1][t], got[2][t]], axis=1)
            assert [list(np.count_nonzero(r, axis=1)) for r in rows] \
                == [[1 << j for j in steps]] * len(rows)
            assert all(not r[i, 1 << j:].any() for r in rows for i, j in enumerate(steps))
        ref = stack_pairs([pair for pair in want if pair[0].k == k])
        assert ref[0] == k
        for a, b in zip(got, ref[1:]):
            assert a.shape == b.shape and a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()


def test_adjoint_suite_checks_one_start_index_per_call(monkeypatch):
    starts = []
    check = suites.transposition_residual

    def spy(sa, k, zeta, mu, nu):
        starts.append(k)
        return check(sa, k, zeta, mu, nu)

    monkeypatch.setattr(suites, "transposition_residual", spy)
    res = suites.run_suite(config("quadratic_state", 4, "adjoint"), "adjoint")
    assert res.passed, res.metrics
    assert sorted(starts) == [0, 1, 2, 3]  # 100 pairs hit every k, each once


def test_algebra_suite_products_stay_within_row_blocks(monkeypatch):
    rows = []
    for name in ("multiply_batch", "_table_product"):
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
    assert metrics[0]["kernel_residual"] > 0.0  # rounding shows, so equality is not vacuous
    assert metrics[0] == metrics[1] == metrics[2]


# -- the product laws, exactly, on the sign table --------------------------------

LAWS = ("assoc", "anticommute", "star", "parity", "orthonormal", "square")


@pytest.mark.parametrize("n", range(1, 11))
def test_every_product_law_reads_exactly_zero_on_the_sign_table(n):
    assert suites._blade_laws(make_algebra(n, 0.0, 1.0)) == dict.fromkeys(LAWS, 0.0)


def flip_entry(alg, s, t):
    alg._sign_table = alg.sign_table.copy()
    alg._sign_table[s, t] = -alg._sign_table[s, t]


def flip_grade(alg, field, grade):
    signs = getattr(alg, field)
    setattr(alg, field, np.where(alg.grades == grade, -signs, signs))


def test_associativity_catches_every_single_flipped_sign_table_entry():
    for s, t in np.random.default_rng(5).integers(0, 256, size=(50, 2)):
        alg = make_algebra(8, 0.0, 1.0)
        flip_entry(alg, s, t)
        assert suites._blade_laws(alg)["assoc"] == 2.0, (s, t)


@pytest.mark.parametrize("law,field", (("star", "reversal_signs"), ("parity", "parity_signs")))
def test_a_flipped_grade_sign_breaks_its_law_at_every_grade(law, field):
    for grade in range(1, 9):
        alg = make_algebra(8, 0.0, 1.0)
        flip_grade(alg, field, grade)
        assert suites._blade_laws(alg)[law] == 2.0, grade


@pytest.mark.parametrize("law,plant", (
    ("assoc", lambda alg: flip_entry(alg, 5, 6)),
    ("star", lambda alg: flip_grade(alg, "reversal_signs", 3)),
    ("parity", lambda alg: flip_grade(alg, "parity_signs", 2)),
), ids=("sign-table-entry", "reversal-grade", "parity-grade"))
def test_a_planted_sign_fails_algebra_and_passes_once_reverted(monkeypatch, law, plant):
    n = 7  # the matrix oracle runs on its own 6-generator algebra, left as it is
    make = suites.make_algebra

    def make_planted(m, *args):
        alg = make(m, *args)
        if m == n:
            plant(alg)
        return alg

    cfg = config("lq", n, "algebra", algebra={"probes": 100})
    monkeypatch.setattr(suites, "make_algebra", make_planted)
    res = suites.run_suite(cfg, "algebra")
    assert res.status == "fail" and res.metrics[law] == 2.0
    monkeypatch.undo()
    res = suites.run_suite(cfg, "algebra")
    assert res.passed and res.metrics["max_law_residual"] == 0.0


def test_a_reference_missing_one_live_column_fails_algebra_by_the_kernel(monkeypatch):
    table_product = suites._table_product

    def dropping(alg, A, B, live_a=None, live_b=None):
        if live_b is None:
            live_b = np.nonzero(np.any(B, axis=0))[0]
        return table_product(alg, A, B, live_a, live_b[1:])

    monkeypatch.setattr(suites, "_table_product", dropping)
    res = suites.run_suite(config("lq", 8, "algebra", algebra={"probes": 300}), "algebra")
    m = res.metrics
    assert res.status == "fail" and m["kernel_residual"] > m["oracle_tol"]
    assert m["oracle_residual"] <= m["oracle_tol"] and m["max_law_residual"] == 0.0


def test_one_flipped_oracle_sign_fails_algebra_by_the_oracle(monkeypatch):
    realization_for = suites.realization_for

    def planted(alg):
        mr = realization_for(alg)
        mr.signs = mr.signs.copy()
        mr.signs[5, 3] = -mr.signs[5, 3]
        return mr

    monkeypatch.setattr(suites, "realization_for", planted)
    res = suites.run_suite(config("lq", 8, "algebra", algebra={"probes": 300}), "algebra")
    m = res.metrics
    assert res.status == "fail" and m["oracle_residual"] > m["oracle_tol"]
    assert m["kernel_residual"] <= m["oracle_tol"] and m["max_law_residual"] == 0.0


def test_isometry_draws_only_the_adapted_blades_in_one_call_per_block(monkeypatch):
    n, probes = 5, 32  # one block
    dim = 1 << n
    rngs, rows = [], []
    suite_rng, mul_dw = suites.suite_rng, suites._mul_dw

    def spy_rng(seed, suite):
        rngs.append(suite_rng(seed, suite))
        return rngs[-1]

    def spy_mul_dw(alg, r, k, side):
        rows.append(r.copy())
        return mul_dw(alg, r, k, side)

    monkeypatch.setattr(suites, "suite_rng", spy_rng)
    monkeypatch.setattr(suites, "_mul_dw", spy_mul_dw)
    cfg = config("lq", n, "isometry", isometry={"probes": probes})
    assert suites.run_suite(cfg, "isometry").passed
    want = suite_rng(cfg.seed, "isometry")
    z = want.standard_normal((probes, 2, dim // 2))
    assert rngs[0].bit_generator.state == want.bit_generator.state
    assert len(rows) == 2 * n
    for k in range(n):  # the probe rows cut to 2^k blades, times dW on both sides
        w = 1 << k
        for row in rows[2 * k:2 * k + 2]:
            assert not row[:, w:].any()
            assert row[:, :w].tobytes() == (z[:, 0, :w] + 1j * z[:, 1, :w]).tobytes()


# -- the curvature operators M_k against the raw callbacks ---------------------

@pytest.mark.parametrize("problem", ("quadratic_state", {"name": "lq", "rates": {"q": 0.0}}),
                         ids=("quadratic_state", "lq_without_state_curvature"))
def test_adjoint_suite_pairs_the_callbacks_once_per_curvature_step(monkeypatch, problem):
    steps, built = [], []
    hxx_pairing, compute_P = suites.hxx_pairing, suites.compute_P

    def spy_pairing(p, k, *args):
        steps.append(k)
        return hxx_pairing(p, k, *args)

    def spy_compute_P(*args, **kwargs):
        built.append(compute_P(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(suites, "hxx_pairing", spy_pairing)
    monkeypatch.setattr(suites, "compute_P", spy_compute_P)
    res = suites.run_suite(config(problem, 4, "adjoint"), "adjoint")
    assert res.passed, res.metrics
    assert steps == [k for k, mk in enumerate(built[0].M) if mk is not None]
    assert steps == ([0, 1, 2, 3] if problem == "quadratic_state" else [])


def scaled_form(form):
    return None if form is None else lambda *args: (1.0 + 1e-3) * form(*args)


def plant_curvature_block(monkeypatch):
    block = problems._Channel.curvature_block
    monkeypatch.setattr(problems._Channel, "curvature_block",
                        lambda self, k, weight: (1.0 + 1e-3) * block(self, k, weight))


def plant_dxx(monkeypatch):
    dxx = problems._Channel.dxx
    monkeypatch.setattr(problems._Channel, "dxx", lambda self, *args: scaled_form(dxx(self, *args)))


def plant_in_problem(monkeypatch, name, wrap):
    make_problem = suites.make_problem

    def planted(alg, spec):
        p = make_problem(alg, spec)
        setattr(p, name, wrap(alg, getattr(p, name)))
        return p
    monkeypatch.setattr(suites, "make_problem", planted)


def scaled_lin(alg, hook):
    def planted(k, *args):
        op = hook(k, *args)
        return op if k == alg.n else SuperOperator(alg, (1.0 + 1e-3) * op.lin, op.antilin)
    return planted


CURVATURE_PLANTS = {
    "quadratic_state-curvature_block": ("quadratic_state", plant_curvature_block),
    "quadratic_state-D_xx": ("quadratic_state", plant_dxx),
    "lq-L_xx": ("lq", lambda mp: plant_in_problem(
        mp, "L_xx", lambda alg, lxx: lambda *args: scaled_form(lxx(*args)))),
    "lq-curvature_lin": ("lq", lambda mp: plant_in_problem(mp, "curvature", scaled_lin)),
}


@pytest.mark.parametrize("case", CURVATURE_PLANTS)
def test_a_wrong_curvature_hook_or_callback_fails_adjoint_through_curvature_error(
        monkeypatch, case):
    # the identity pairs through the M_k that built P and never calls the
    # callbacks, so it closes under every plant here; only curvature_error
    # compares the hook with the callbacks
    problem, plant = CURVATURE_PLANTS[case]
    cfg = config(problem, 4, "adjoint")
    clean = suites.run_suite(cfg, "adjoint")
    assert clean.passed and clean.metrics["curvature_error"] <= 1e-14
    plant(monkeypatch)
    res = suites.run_suite(cfg, "adjoint")
    assert res.status == "fail" and res.metrics["curvature_error"] > 1e-6
    assert res.metrics["transposition_residual"] <= res.metrics["transposition_tol"]
    monkeypatch.undo()
    assert suites.run_suite(cfg, "adjoint").metrics == clean.metrics


# -- a state-derivative hook that disagrees with the callbacks ------------------

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads"


def scaled_state_derivatives(which):
    """Wrap a ``state_derivatives`` hook so that its Dx (0) or Bt (1) block is x(1+1e-3)."""
    def wrap(alg, hook):
        def planted(k, x, u):
            blocks = list(hook(k, x, u))
            blocks[which] = (1.0 + 1e-3) * blocks[which]
            return tuple(blocks)
        return planted
    return wrap


@pytest.mark.parametrize("which", (0, 1), ids=("Dx", "Bt"))
@pytest.mark.parametrize("workload", ("readme-n4", "dense-n8"))
def test_a_wrong_state_derivative_hook_fails_orders_and_gradient(monkeypatch, workload, which):
    # x1, x2, the adjoint and P all step through the hook, so the duality
    # residual and the route gaps cannot see it; the order sweep and the
    # finite difference of the cost solve the state through the callbacks
    cfg = load_config(WORKLOADS / f"{workload}.json")
    clean = {name: suites.run_suite(cfg, name) for name in ("orders", "gradient")}
    assert all(res.passed for res in clean.values())
    plant_in_problem(monkeypatch, "state_derivatives", scaled_state_derivatives(which))
    orders = suites.run_suite(cfg, "orders")
    assert orders.status == "fail"  # through the net deviations: the raw one has no x1
    assert orders.metrics["deviation"] == clean["orders"].metrics["deviation"]
    gradient = suites.run_suite(cfg, "gradient")
    assert gradient.status == "fail"
    assert gradient.metrics["fd_residual"] > 1e2 * gradient.metrics["fd_tol"]
    assert gradient.metrics["duality_residual"] <= gradient.metrics["duality_tol"]
    monkeypatch.undo()
    assert suites.run_suite(cfg, "orders").metrics == clean["orders"].metrics


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


def test_a_nan_kernel_product_in_a_later_block_fails_algebra(monkeypatch):
    monkeypatch.setattr(suites, "multiply_batch", nan_after(
        suites.multiply_batch, 1, lambda out: np.full_like(out, np.nan)))
    res = suites.run_suite(config("lq", 3, "algebra", algebra={"probes": 600}), "algebra")
    assert res.status == "fail"
    assert math.isnan(res.metrics["kernel_residual"]) and res.metrics["max_law_residual"] == 0.0


def test_a_nan_stochastic_integral_in_a_later_block_fails_isometry(monkeypatch):
    n = 8  # two dW products per step; the second 16-probe block turns NaN
    monkeypatch.setattr(suites, "_mul_dw", nan_after(
        suites._mul_dw, 2 * n, lambda out: np.full_like(out, np.nan)))
    res = suites.run_suite(config("lq", n, "isometry", isometry={"probes": 32}), "isometry")
    assert res.status == "fail"
    assert math.isnan(res.metrics["isometry_residual"])
    # the exact sign checks never call the kernel
    assert res.metrics["parity_reduction_residual"] == res.metrics["sign_table_residual"] == 0.0


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_state_overflowing_to_nan_in_a_later_step_fails_orders():
    # at a = 1e150 the deviations overflow: finite in the early steps, NaN later
    res = suites.run_suite(config({"name": "lq", "rates": {"a": 1e150}}, 6, "orders"),
                           "orders")
    assert res.status == "fail"
    assert all(math.isnan(fit["slope"]) for fit in res.metrics.values())
    assert all(math.isnan(v) for row in res.plotdata["orders_sweep"] for v in row[1:])
