import dataclasses

import numpy as np
import pytest

from qsoc.clifford import CliffordElement, _padded, make_algebra, parity
from qsoc.errors import AdaptednessError, ContractError
from qsoc.forward import (
    Linearization,
    order_estimate_slopes,
    solve_first_variation,
    solve_second_variation,
    solve_state,
    stacked_costs,
    stacked_paths,
)
from qsoc.problems import ProblemSpec, cost, make_problem
from reference import (
    GALLERY,
    ZERO_DYNAMICS,
    control_grid,
    first_variation,
    gallery_spec,
    order_slopes_failing,
    second_variation,
)
from test_custom_problem import lq_like_custom


def build(name, n=4, m=1, T=1.0, **overrides):
    alg = make_algebra(n, 0.0, T)
    return alg, make_problem(alg, gallery_spec(name, m=m, **overrides))


def test_zero_dynamics_constant_state():
    alg, p = build("lq", **ZERO_DYNAMICS, r=1.0)
    traj = solve_state(p, np.zeros((alg.n, 1)))
    for k in range(alg.n + 1):
        assert traj[k] == p.x0


def test_constant_drift_integrates_exactly():
    # D = b constant via control u = 1 on a pure-drift instance
    alg = make_algebra(5, 0.0, 2.0)
    spec = ProblemSpec.gallery(
        "lq", a=0.0, f0=0.0, g0=0.0,
        b=(((0, 1.0, 0.0),),), f=(((0, 0.0, 0.0),),), g=(((0, 0.0, 0.0),),))
    p = make_problem(alg, spec)
    traj = solve_state(p, np.ones((alg.n, 1)))
    want = p.x0 + 2.0 * CliffordElement.unit(alg)
    assert np.allclose(traj.terminal.coeffs, want.coeffs, atol=1e-14)


def test_pure_left_diffusion_norm_recursion():
    # F(x) = x, D = G = 0, x0 = I: norm doubles by (1 + dt) per step
    alg = make_algebra(6, 0.0, 1.5)
    spec = ProblemSpec.gallery("lq", a=0.0, f0=1.0, g0=0.0,
                               b=(((0, 0.0, 0.0),),), f=(((0, 0.0, 0.0),),),
                               g=(((0, 0.0, 0.0),),))
    p = make_problem(alg, spec)
    traj = solve_state(p, np.zeros((alg.n, 1)))
    for k in range(alg.n + 1):
        assert traj[k].norm() ** 2 == pytest.approx((1 + alg.dt) ** k, rel=1e-12)


def test_state_increment_isometry():
    # || x_{k+1} - x_k - drift dt ||^2 = dt || F + parity(G) ||^2 exactly
    alg, p = build("quadratic_state", n=5)
    rng = np.random.default_rng(1)
    u = rng.uniform(-1, 1, size=(alg.n, 1))
    traj = solve_state(p, u)
    for k in range(alg.n):
        d = p.D(k, traj[k], u[k])
        f = p.F(k, traj[k], u[k])
        g = p.G(k, traj[k], u[k])
        lhs = (traj[k + 1] - traj[k] - alg.dt * d).norm() ** 2
        rhs = alg.dt * (f + parity(g)).norm() ** 2
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_non_adapted_callback_detected():
    # a callback problem whose drift leaks the last generator at every step
    alg = make_algebra(4, 0.0, 1.0)
    leaky = CliffordElement.generator(alg, alg.n)
    p = dataclasses.replace(lq_like_custom(alg), D=lambda k, x, u: leaky)
    with pytest.raises(AdaptednessError, match="drift produced a non-adapted element at step 0"):
        solve_state(p, np.zeros((alg.n, 1)))


def test_a_zero_leak_passes_whatever_the_row_norm():
    # drift callbacks, keyed by the control of the row: row 0 leaks 1e-14,
    # within 1e-12 (1 + |row|); row 1 turns NaN on its adapted blades with an
    # exactly-zero leak.  Neither is refused, and the NaN row's cost is NaN;
    # a NaN leak is refused, and so is a 1e-6 leak.
    alg, p = build("lq", n=3)
    U = np.array([0.0, 0.25, 0.5])[:, None, None] * np.ones((3, alg.n, 1))

    def planted(last):
        def drift(k, x, u):
            d = p.D(k, x, u).coeffs.copy()
            if u[0] == 0.0:
                d[-1] += 1e-14
            elif u[0] == 0.25:
                d[:1 << k] = np.nan
            else:
                d[-1] += last
            return CliffordElement(alg, d)
        return dataclasses.replace(p, D=drift, coefficient_rows=None)

    with np.errstate(invalid="ignore"):
        costs = stacked_costs(planted(0.0), U)
    assert np.isfinite(costs[[0, 2]]).all() and np.isnan(costs[1])
    for last in (np.nan, 1e-6):
        with pytest.raises(AdaptednessError,
                           match="drift produced a non-adapted element at step 0"):
            stacked_costs(planted(last), U)


def test_row_hooks_see_rows_at_their_step_width():
    # a spy on the gallery hooks: X is (B, 2^k) at step k, (B, dim) at k = N,
    # and every hook returns rows of that shape
    alg, p = build("quadratic_state", n=4, m=2)
    seen = []

    def spy(hook):
        def fn(k, X, U):
            out = hook(k, X, U)
            seen.append((hook.__name__, k, X.shape))
            for rows in out if isinstance(out, tuple) else ():
                assert rows.shape == X.shape
            return out
        return fn

    p.coefficient_rows, p.cost_rows = spy(p.coefficient_rows), spy(p.cost_rows)
    U = np.random.default_rng(6).uniform(-1, 1, (5, alg.n, 2))
    stacked_costs(p, U)
    widths = [(k, (5, 1 << k)) for k in range(alg.n + 1)]
    assert seen == [("coefficient_rows", *w) for w in widths[:-1]] \
        + [("cost_rows", *w) for w in widths]


def test_a_hook_row_of_the_wrong_width_is_refused():
    alg, p = build("lq", n=3)
    rows = p.coefficient_rows
    p.coefficient_rows = lambda k, X, U: tuple(_padded(alg, v) for v in rows(k, X, U))
    with pytest.raises(ContractError, match="coefficient_rows returned shapes"):
        stacked_costs(p, np.zeros((2, alg.n, 1)))


def test_step_rows_append_the_noise_half():
    # a step maps (B, 2^k) stacks to (B, 2^(k+1)): the drift part on the
    # first 2^k columns, the dW_{k+1} part on the next 2^k
    alg, p = build("quadratic_state", n=4)
    lin = Linearization(p, solve_state(p, np.zeros((alg.n, 1))))
    rng = np.random.default_rng(8)
    for k in range(alg.n):
        phi, mu, nu = (rng.standard_normal((3, 1 << k)) + 0j for _ in range(3))
        step = lin.step_rows(k, phi, mu, nu)
        assert step.shape == (3, 2 << k)
        drift = phi + alg.dt * (phi @ lin.Dx[k].T + mu)
        assert np.allclose(step[:, :1 << k], drift, rtol=1e-14, atol=1e-14)
        noise = phi @ lin.Bt[k].T + nu
        signs = alg._gen_signs("right", k + 1)[:1 << k]
        assert np.allclose(step[:, 1 << k:], np.sqrt(alg.dt) * signs * noise,
                           rtol=1e-14, atol=1e-14)
        with pytest.raises(ValueError):  # a stack wider than its step
            lin.step_rows(k, _padded(alg, phi), _padded(alg, mu), _padded(alg, nu))


def test_first_variation_zero_direction():
    alg, p = build("lq")
    traj = solve_state(p, np.zeros((alg.n, 1)))
    lin = Linearization(p, traj)
    x1 = solve_first_variation(lin, np.zeros((alg.n, 1)))
    assert all(v.norm() == 0.0 for v in x1)


def test_first_variation_pure_control_drift():
    # with D_u = b only, x1 accumulates b * sum du * dt
    alg = make_algebra(4, 0.0, 2.0)
    spec = ProblemSpec.gallery("lq", a=0.0, f0=0.0, g0=0.0,
                               b=(((0, 2.0, 0.0),),), f=(((0, 0.0, 0.0),),),
                               g=(((0, 0.0, 0.0),),))
    p = make_problem(alg, spec)
    traj = solve_state(p, np.zeros((alg.n, 1)))
    lin = Linearization(p, traj)
    du = np.array([[0.1], [0.2], [-0.3], [0.4]])
    x1 = solve_first_variation(lin, du)
    acc = 0.0
    for k in range(alg.n):
        got = x1[k].coeffs[0].real
        assert got == pytest.approx(2.0 * acc, abs=1e-14)
        acc += du[k, 0] * alg.dt


def test_first_variation_linearity_exact():
    alg, p = build("quadratic_state", n=5)
    rng = np.random.default_rng(3)
    ubar = rng.uniform(-0.5, 0.5, size=(alg.n, 1))
    traj = solve_state(p, ubar)
    lin = Linearization(p, traj)
    du = rng.uniform(-1, 1, size=(alg.n, 1))
    x1 = solve_first_variation(lin, du)
    x1_twice = solve_first_variation(lin, 2.0 * du)
    for k in range(alg.n + 1):
        assert np.array_equal(x1_twice[k].coeffs, 2.0 * x1[k].coeffs)


def test_second_variation_zero_when_no_curvature():
    alg, p = build("lq")
    traj = solve_state(p, np.zeros((alg.n, 1)))
    lin = Linearization(p, traj)
    du = np.ones((alg.n, 1)) * 0.3
    x1 = solve_first_variation(lin, du)
    x2 = solve_second_variation(lin, x1, du)
    assert all(v.norm() == 0.0 for v in x2)


def test_second_variation_squared_control_accumulation():
    # only D_uu = 2 b: x2 accumulates 2 b sum du^2 dt
    alg = make_algebra(4, 0.0, 1.0)
    spec = ProblemSpec.gallery("quadratic_control", a=0.0, f0=0.0, g0=0.0,
                               b=(((0, 0.0, 0.0),),), f=(((0, 0.0, 0.0),),),
                               g=(((0, 0.0, 0.0),),),
                               cd=(((0, 1.0, 0.0),),),
                               cf=(((0, 0.0, 0.0),),), cg=(((0, 0.0, 0.0),),))
    p = make_problem(alg, spec)
    traj = solve_state(p, np.zeros((alg.n, 1)))
    lin = Linearization(p, traj)
    du = np.array([[0.5], [-0.25], [1.0], [0.75]])
    x1 = solve_first_variation(lin, du)
    x2 = solve_second_variation(lin, x1, du)
    acc = 0.0
    for k in range(alg.n):
        assert x2[k].coeffs[0].real == pytest.approx(2.0 * acc, abs=1e-14)
        acc += du[k, 0] ** 2 * alg.dt


def test_second_variation_quadratic_homogeneity_exact():
    alg, p = build("quadratic_state", n=5)
    rng = np.random.default_rng(4)
    ubar = rng.uniform(-0.5, 0.5, size=(alg.n, 1))
    traj = solve_state(p, ubar)
    lin = Linearization(p, traj)
    du = rng.uniform(-0.5, 0.5, size=(alg.n, 1))
    x1 = solve_first_variation(lin, du)
    x2 = solve_second_variation(lin, x1, du)
    x1_scaled = solve_first_variation(lin, 3.0 * du)
    x2_scaled = solve_second_variation(lin, x1_scaled, 3.0 * du)
    for k in range(alg.n + 1):
        assert np.allclose(x2_scaled[k].coeffs, 9.0 * x2[k].coeffs, atol=1e-13)


def assert_processes_match(got, want):
    for g, w in zip(got, want, strict=True):
        assert (g - w).norm() <= 1e-12 * (1.0 + w.norm())


@pytest.mark.parametrize("n", (1, 4, 8))
@pytest.mark.parametrize("case", (*GALLERY, "custom"))
def test_variations_match_the_element_callback_reference(case, n):
    # the row stepping through the state_derivatives blocks against the
    # response loop through the raw D_x/F_x/G_x callbacks, one element a step
    alg = make_algebra(n, 0.0, 1.0)
    if case == "custom":
        p = lq_like_custom(alg)
    else:
        p = make_problem(alg, gallery_spec(case, dim=alg.dim))
    rng = np.random.default_rng(50 + n)
    traj = solve_state(p, rng.uniform(-0.5, 0.5, size=(alg.n, p.m)))
    lin = Linearization(p, traj)
    for _ in range(2):
        du = rng.uniform(-1.0, 1.0, size=(alg.n, p.m))
        x1 = solve_first_variation(lin, du)
        want = first_variation(p, traj, du)
        assert_processes_match(x1, want)
        assert_processes_match(solve_second_variation(lin, x1, du),
                               second_variation(p, traj, want, du))
    if case in ("quadratic_control", "quadratic_state") and n > 1:  # x1_0 = 0 at N = 1
        assert max(v.norm() for v in second_variation(p, traj, want, du)) > 1e-3


def test_order_slopes_free_problem_flagged_exact():
    alg, p = build("lq", **ZERO_DYNAMICS, r=1.0)
    ubar = np.zeros((alg.n, 1))
    u = 0.5 * np.ones((alg.n, 1))
    report = order_estimate_slopes(p, ubar, u, [2.0 ** -e for e in range(3, 8)])
    assert report.dx.exact  # no dynamics: the state never moves
    assert report.dx_minus_x1.exact
    assert report.dx_minus_x1_x2.exact


def test_order_slopes_linear_dynamics():
    alg, p = build("lq", n=5)
    rng = np.random.default_rng(5)
    ubar = rng.uniform(-0.4, 0.4, size=(alg.n, 1))
    u = rng.uniform(-1, 1, size=(alg.n, 1))
    report = order_estimate_slopes(p, ubar, u, [2.0 ** -e for e in range(3, 8)])
    assert order_slopes_failing(report) == []
    # affine dynamics: deviation equals the linear response exactly
    assert report.dx_minus_x1.exact
    assert report.dx_minus_x1_x2.exact


def test_order_slopes_quadratic_state():
    alg, p = build("quadratic_state", n=5)
    rng = np.random.default_rng(6)
    ubar = rng.uniform(-0.4, 0.4, size=(alg.n, 1))
    u = rng.uniform(-1, 1, size=(alg.n, 1))
    report = order_estimate_slopes(p, ubar, u, [2.0 ** -e for e in range(3, 10)])
    assert order_slopes_failing(report) == []
    assert not any(fit.exact for fit in vars(report).values())


def test_order_slopes_validates_sweep():
    alg, p = build("lq")
    ubar = np.zeros((alg.n, 1))
    u = np.ones((alg.n, 1))
    with pytest.raises(ValueError):
        order_estimate_slopes(p, ubar, u, [0.5, 0.25])
    with pytest.raises(ValueError):
        order_estimate_slopes(p, ubar, u, [2.0, 1.0, 0.5, 0.25])


# -- row-stacked state solve ---------------------------------------------------

def assert_rows_are_per_path_costs(p, U):
    # the states of every row too, bit for bit, and stacked_costs is the cost half
    paths = [solve_state(p, u) for u in U]
    want = np.array([cost(p, u, path) for u, path in zip(U, paths)])
    for rows in (1, 7, len(U)):
        for i in range(0, len(U), rows):
            costs, states = stacked_paths(p, U[i:i + rows])
            assert np.array_equal(costs, want[i:i + rows])
            for r, path in enumerate(paths[i:i + rows]):
                assert [X.shape[1] for X in states] == [1 << k for k in range(p.algebra.n + 1)]
                assert np.array_equal(np.concatenate([X[r] for X in states]),
                                      np.concatenate([x.coeffs[:1 << k]
                                                      for k, x in enumerate(path.process)]))
    assert np.array_equal(stacked_costs(p, U), want)


@pytest.mark.parametrize("m", (1, 2))
@pytest.mark.parametrize("name", GALLERY)
def test_stacked_costs_rows_are_the_per_path_costs(name, m):
    # bit for bit, whatever block a row is solved in; every third row has
    # zero control
    n = 4 if m == 1 else 2
    cases = [{}, {"eta": ((0, 0.3, 0.1), (1, -0.2, 0.0))}]
    if name == "quadratic_state":
        cases += [{"qd": ((0, 0.35, 0.0), (1, 0.1, 0.2), (3, 0.05, 0.0))},
                  # noise only through the control: a zero-control state stays
                  # scalar while the other rows of its block fill every blade
                  {"a": 0.0, "f0": 0.0, "g0": 0.0, "qf": None, "qg": None}]
    for overrides in cases:
        alg, p = build(name, n=n, m=m, **overrides)
        grid = np.array(list(control_grid(p, 3)))
        grid[::3] = 0.0
        assert_rows_are_per_path_costs(p, grid)


def test_stacked_costs_rows_are_the_per_path_costs_of_a_callback_problem():
    # derived row hooks: one callback call per row
    alg = make_algebra(3, 0.0, 1.0)
    p = lq_like_custom(alg)
    grid = np.array(list(control_grid(p, 3)))
    grid[::3] = 0.0
    assert_rows_are_per_path_costs(p, grid)


def test_stacked_costs_validates_the_block():
    alg, p = build("lq", n=3)
    with pytest.raises(ValueError, match="shape"):
        stacked_costs(p, np.zeros((2, alg.n)))
    with pytest.raises(ValueError, match="box"):
        stacked_costs(p, np.full((2, alg.n, 1), 1.5))


def test_channel_rows_are_the_element_values():
    # D, F, G of a gallery problem are one-row views of the channel rows
    alg, p = build("quadratic_state", n=5, m=2)
    rng = np.random.default_rng(4)
    k = 3
    X = rng.standard_normal((6, 1 << k)) + 1j * rng.standard_normal((6, 1 << k))
    U = rng.uniform(-1, 1, (6, 2))
    for rows, fn in zip(p.coefficient_rows(k, X, U), (p.D, p.F, p.G)):
        assert rows.shape == X.shape
        for x, u, row in zip(X, U, rows):
            want = fn(k, CliffordElement(alg, _padded(alg, x)), u).coeffs
            assert np.allclose(row, want[:1 << k], rtol=1e-14, atol=1e-14)
            assert not want[1 << k:].any()
