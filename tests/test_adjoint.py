import dataclasses
import re

import numpy as np
import pytest

from qsoc import problems
from qsoc.adjoint import (
    Linearization,
    compute_P,
    first_duality_residual,
    solve_first_adjoint,
    transposition_residual,
)
from qsoc.clifford import (
    CliffordElement,
    SuperOperator,
    _padded,
    brownian_increment,
    make_algebra,
)
from qsoc.conditions import _direction, _forms, _routes_agree
from qsoc.errors import CapacityError, ContractError
from qsoc.forward import solve_first_variation, solve_second_variation, solve_state
from qsoc.problems import ProblemSpec, hxx_pairing, make_problem
from reference import (
    GALLERY,
    ZERO_DYNAMICS,
    RefTuple,
    by_start,
    gallery_spec,
    mul_dw,
    second_duality_residual,
    stack_pairs,
    transposition_defects,
)


def build(name, n=4, m=1, T=1.0, **overrides):
    alg = make_algebra(n, 0.0, T)
    return alg, make_problem(alg, gallery_spec(name, m=m, **overrides))


def solve_stack(p, ubar):
    xbar = solve_state(p, ubar)
    adj = solve_first_adjoint(p, xbar)
    sa = compute_P(adj)
    return xbar, adj, sa


def rand_adapted(alg, rng, k, real=True):
    c = rng.standard_normal(alg.dim)
    if not real:
        c = c + 1j * rng.standard_normal(alg.dim)
    return CliffordElement(alg, np.where(alg.adapted_mask(k), c, 0.0) + 0j)


def test_terminal_condition_exact():
    alg = make_algebra(4, 0.0, 1.0)
    spec = ProblemSpec.gallery("lq")
    p = make_problem(alg, spec)
    rng = np.random.default_rng(0)
    ubar = rng.uniform(-1, 1, size=(alg.n, 1))
    xbar, adj, sa = solve_stack(p, ubar)
    want = -1.0 * p.g_x(xbar.terminal)
    assert np.max(np.abs(adj.y[alg.n].coeffs - want.coeffs)) <= 1e-14
    # P_N = -g_xx materialized: gallery terminal curvature is 2s * identity
    assert np.allclose(sa.P[alg.n].lin, -2.0 * spec.s * np.eye(alg.dim), atol=1e-14)
    assert sa.P[alg.n].antilin is None


def test_constant_terminal_gradient_and_zero_drivers():
    # no dynamics-in-x, no running cost: y is frozen at -g_x, Y vanishes
    alg = make_algebra(4, 0.0, 1.0)
    spec = ProblemSpec.gallery("lq", **ZERO_DYNAMICS, q=0.0, r=0.0, s=0.0, x_tgt=None,
                               eta=((0, 0.7, 0.0),))
    p = make_problem(alg, spec)
    ubar = np.zeros((alg.n, 1))
    xbar = solve_state(p, ubar)
    adj = solve_first_adjoint(p, xbar)
    eta = CliffordElement.from_terms(alg, {0: 0.7})
    for k in range(alg.n + 1):
        assert np.allclose(adj.y[k].coeffs, (-1.0 * eta).coeffs, atol=1e-14)
    for k in range(alg.n):
        assert adj.Y[k].norm() == 0.0


def test_adjoint_frozen_at_terminal_gradient_for_scalar_data():
    # zero dynamics, no running cost, scalar terminal data: the terminal
    # gradient is already adapted at step 0,so the backward sweep never moves
    alg = make_algebra(4, 0.0, 1.0)
    spec = ProblemSpec.gallery("lq", **ZERO_DYNAMICS, q=0.0, r=0.0, s=0.6,
                               x_tgt=((0, 0.25, 0.0),))
    p = make_problem(alg, spec)
    ubar = np.zeros((alg.n, 1))
    xbar = solve_state(p, ubar)
    adj = solve_first_adjoint(p, xbar)
    gx = p.g_x(xbar.terminal)
    for k in range(alg.n + 1):
        assert np.allclose(adj.y[k].coeffs, (-1.0 * gx).coeffs, atol=1e-14)
    assert all(yk.norm() == 0.0 for yk in adj.Y)


def test_first_duality_identity_all_gallery():
    rng = np.random.default_rng(1)
    for name in GALLERY:
        alg, p = build(name, n=5)
        ubar = rng.uniform(-0.6, 0.6, size=(alg.n, 1))
        xbar = solve_state(p, ubar)
        adj = solve_first_adjoint(p, xbar)
        for _ in range(3):
            du = rng.uniform(-1, 1, size=(alg.n, 1))
            assert first_duality_residual(adj, du) <= 1e-10


def test_second_duality_identity_all_gallery():
    rng = np.random.default_rng(2)
    for name in GALLERY:
        alg, p = build(name, n=5)
        ubar = rng.uniform(-0.6, 0.6, size=(alg.n, 1))
        xbar = solve_state(p, ubar)
        adj = solve_first_adjoint(p, xbar)
        du = rng.uniform(-1, 1, size=(alg.n, 1))
        x1 = solve_first_variation(adj.lin, du)
        x2 = solve_second_variation(adj.lin, x1, du)
        assert second_duality_residual(adj, x1, x2, du) <= 1e-9


def test_compute_p_budget():
    alg = make_algebra(10, 0.0, 1.0)
    p = make_problem(alg, ProblemSpec.gallery("lq"))
    ubar = np.zeros((alg.n, 1))
    xbar = solve_state(p, ubar)
    adj = solve_first_adjoint(p, xbar)
    with pytest.raises(CapacityError):
        compute_P(adj)


def test_p_constant_when_no_dynamics_and_no_running_curvature():
    # zero dynamics, running cost without state curvature: P_k = -g_xx on C_k
    alg = make_algebra(4, 0.0, 1.0)
    spec = ProblemSpec.gallery("lq", **ZERO_DYNAMICS, q=0.0, r=0.4, s=0.8)
    p = make_problem(alg, spec)
    ubar = np.zeros((alg.n, 1))
    _, _, sa = solve_stack(p, ubar)
    for k in range(alg.n + 1):
        want = -2.0 * 0.8 * np.eye(1 << k)
        assert sa.P[k].lin.shape == want.shape
        assert np.allclose(sa.P[k].lin, want, atol=1e-13)


def test_p_closed_form_running_state_cost():
    # zero dynamics, L = q ||x||^2, g = 0: P_k = -2q (T - t_k) id on C_k
    alg = make_algebra(5, 0.0, 2.0)
    spec = ProblemSpec.gallery("lq", **ZERO_DYNAMICS, q=0.7, r=0.0, s=0.0, x_tgt=None)
    p = make_problem(alg, spec)
    ubar = np.zeros((alg.n, 1))
    _, _, sa = solve_stack(p, ubar)
    for k in range(alg.n + 1):
        want = -2.0 * 0.7 * (alg.T - alg.time(k)) * np.eye(1 << k)
        assert sa.P[k].lin.shape == want.shape
        assert np.allclose(sa.P[k].lin, want, atol=1e-10)
        assert sa.P[k].antilin is None


def test_p_duality_formula_oracle():
    # re-derive <P_k z2, z1> from two fresh forward solves of the homogeneous
    # test equation plus callback pairings (the defining formula)
    rng = np.random.default_rng(3)
    for name in ("lq", "quadratic_state"):
        alg, p = build(name, n=4)
        ubar = rng.uniform(-0.5, 0.5, size=(alg.n, 1))
        xbar, adj, sa = solve_stack(p, ubar)
        for k in (0, 1, 2):
            z1 = rand_adapted(alg, rng, k)
            z2 = rand_adapted(alg, rng, k)
            phi1, phi2 = [z1], [z2]
            for j in range(k, alg.n):
                for phi in (phi1, phi2):
                    step = sa.adj.lin.t_rows(j, phi[-1].coeffs[None, :1 << j])
                    phi.append(CliffordElement(alg, _padded(alg, step[0])))
            val = 0.0 + 0.0j
            if p.g_xx is not None:
                val -= p.g_xx(xbar.terminal)(phi2[-1], phi1[-1])
            for j in range(k, alg.n):
                pair = hxx_pairing(p, j, xbar[j], ubar[j], adj.yhat[j], adj.Y[j])
                val += alg.dt * pair(phi2[j - k], phi1[j - k])
            assert abs(sa.P[k].pair(z2, z1) - val) <= 1e-10 * (1 + abs(val))


def assert_step_operator_sides(sa):
    """P_k and M_k live on their (2^k, 2^k) block; P_N on all dim blades."""
    n = sa.adj.lin.algebra.n
    for k, op in [*enumerate(sa.P), *enumerate(sa.M)]:
        if op is None:
            continue
        side = 1 << k
        assert op.size == side and op.lin.shape == (side, side), k
        assert op.antilin is None or op.antilin.shape == (side, side), k
    assert sa.P[n].size == sa.adj.lin.algebra.dim


def test_p_maps_adapted_subspace_into_itself():
    # stored on its step-k block, P_k maps that subspace into itself by construction
    alg, p = build("quadratic_state", n=4)
    rng = np.random.default_rng(4)
    ubar = rng.uniform(-0.5, 0.5, size=(alg.n, 1))
    _, _, sa = solve_stack(p, ubar)
    assert_step_operator_sides(sa)
    assert all(op is not None and op.antilin is not None for op in sa.M)


def test_p_real_symmetry_and_hermitian_symmetry():
    rng = np.random.default_rng(5)
    for name in GALLERY:
        alg, p = build(name, n=4)
        ubar = rng.uniform(-0.5, 0.5, size=(alg.n, 1))
        _, _, sa = solve_stack(p, ubar)
        for k in range(alg.n + 1):
            for _ in range(3):
                z1 = rand_adapted(alg, rng, k, real=False)
                z2 = rand_adapted(alg, rng, k, real=False)
                a = sa.P[k].pair(z2, z1)
                b = sa.P[k].pair(z1, z2)
                scale = 1 + abs(a)
                assert abs(a.real - b.real) <= 1e-9 * scale
                if name != "quadratic_state":
                    # sesquilinear curvature: full conjugate symmetry
                    assert abs(a - np.conj(b)) <= 1e-9 * scale


@pytest.mark.parametrize("case,rows", [("plain", (5, 3)), ("quadratic_state_M", (4, 6)),
                                       ("plain", (1, 1))])
def test_superop_gram_matches_per_entry_pairing(case, rows):
    # entry (a, b) of gram(V, W) is <P v_a, w_b>, conjugation block included
    rng = np.random.default_rng(17)
    if case == "plain":
        alg = make_algebra(4, 0.0, 1.0)
        op = SuperOperator(alg, rng.standard_normal((alg.dim, alg.dim))
                           + 1j * rng.standard_normal((alg.dim, alg.dim)))
        anti = np.zeros_like(op.lin)
    else:
        alg, p = build("quadratic_state", n=4)
        _, _, sa = solve_stack(p, rng.uniform(-0.4, 0.4, size=(alg.n, 1)))
        op = sa.M[3]
        anti = op.antilin
        assert anti is not None and np.max(np.abs(anti)) > 0.1
    b = op.size  # rows of the operator's side, and no other
    V, W = (rng.standard_normal((r, b)) + 1j * rng.standard_normal((r, b)) for r in rows)
    want = np.array([[np.vdot(op.lin @ v + anti @ np.conj(v), w) for w in W] for v in V])
    got = op.gram(V, W)
    assert got.shape == rows
    assert np.max(np.abs(got - want)) <= 1e-14 * (1.0 + np.max(np.abs(want)))
    with pytest.raises(ValueError, match=f"rows must have {b} columns"):
        op.gram(_padded(alg, V) if b < alg.dim else V[:, :-1], W)


@pytest.mark.parametrize("m", (1, 2))
@pytest.mark.parametrize("name", GALLERY)
def test_curvature_data_matches_generic_probing(name, m):
    # M_0..M_{N-1} and g_xx built from the gallery data against the same
    # operators probed from the raw callbacks
    alg, p = build(name, n=4, m=m)
    generic = dataclasses.replace(p, state_derivatives=None, curvature=None)
    rng = np.random.default_rng(6)
    ubar = rng.uniform(-0.5, 0.5, size=(alg.n, m))
    xbar = solve_state(p, ubar)
    adj = solve_first_adjoint(p, xbar)
    for k in range(alg.n + 1):
        args = (k, xbar[k], None, None, None) if k == alg.n else \
            (k, xbar[k], ubar[k], adj.yhat[k], adj.Y[k])
        data = p.curvature(*args)
        probe = generic.curvature(*args)
        assert data is not None and probe is not None
        assert np.max(np.abs(data.lin - probe.lin)) <= 1e-12
        zero = np.zeros_like(data.lin)
        anti_data = zero if data.antilin is None else data.antilin
        anti_probe = zero if probe.antilin is None else probe.antilin
        assert np.max(np.abs(anti_data - anti_probe)) <= 1e-12


def test_curvature_hook_of_the_wrong_side_is_refused():
    # a hook that zero-pads M_k to dim x dim breaks the block format
    alg, p = build("lq", n=3)
    padded = dataclasses.replace(p, curvature=lambda k, x, u, yhat, Y:
                                 SuperOperator.identity(alg))
    ubar = np.zeros((alg.n, 1))
    xbar = solve_state(padded, ubar)
    adj = solve_first_adjoint(padded, xbar)
    with pytest.raises(ContractError):
        compute_P(adj)


@pytest.mark.parametrize("m", (1, 2))
@pytest.mark.parametrize("name", GALLERY)
def test_step_derivatives_data_match_generic_probing(name, m):
    # Dx_k and Bt_k from the gallery's multiplication matrices against the
    # blade-by-blade probes of the raw D_x/F_x/G_x callbacks
    alg, p = build(name, n=4, m=m)
    assert p.state_derivatives is not None
    generic = dataclasses.replace(p, state_derivatives=None, curvature=None)
    rng = np.random.default_rng(14)
    xbar = solve_state(p, rng.uniform(-0.5, 0.5, size=(alg.n, m)))
    data, probe = Linearization(p, xbar), Linearization(generic, xbar)
    for k in range(alg.n):
        for got, want in ((data.Dx[k], probe.Dx[k]), (data.Bt[k], probe.Bt[k])):
            assert got.shape == want.shape == (1 << k, 1 << k)
            assert np.max(np.abs(got - want)) <= 1e-12
        assert np.array_equal(data.Du[k], probe.Du[k])
        assert np.array_equal(data.Bu[k], probe.Bu[k])


def test_step_derivatives_with_multi_blade_quad_elements():
    # L_c applied blade by blade for non-scalar quad elements c, against
    # the probes of the raw callbacks
    alg, p = build("quadratic_state", n=5, qd=((0, 0.35, 0.0), (1, 0.1, 0.2), (6, 0.05, 0.0)),
                   qf=((0, 0.25, 0.0), (3, -0.1, 0.0)), qg=((2, 0.2, 0.1),))
    generic = dataclasses.replace(p, state_derivatives=None, curvature=None)
    xbar = solve_state(p, np.random.default_rng(16).uniform(-0.5, 0.5, size=(alg.n, 1)))
    data, probe = Linearization(p, xbar), Linearization(generic, xbar)
    for k in range(alg.n):
        for got, want in ((data.Dx[k], probe.Dx[k]), (data.Bt[k], probe.Bt[k])):
            assert np.max(np.abs(got - want)) <= 1e-12


def test_blocked_p_matches_full_matrix_recursion():
    # P_k = E_k (T_k^H P_{k+1} T_k + dt M_k) E_k on full dim x dim matrices,
    # with T_k, M_k and P_N probed from the raw callbacks
    alg, p = build("quadratic_state", n=6)
    generic = dataclasses.replace(p, state_derivatives=None, curvature=None)
    rng = np.random.default_rng(15)
    ubar = rng.uniform(-0.5, 0.5, size=(alg.n, 1))
    xbar, adj, sa = solve_stack(p, ubar)
    lin = Linearization(generic, xbar)
    dim, dt = alg.dim, alg.dt

    def padded(block):
        out = np.zeros((dim, dim), dtype=np.complex128)
        out[:len(block), :len(block)] = block
        return out

    def blocks(op):
        anti = np.zeros((dim, dim)) if op.antilin is None else padded(op.antilin)
        return padded(op.lin), anti

    lin_p, anti_p = (-mat for mat in blocks(
        generic.curvature(alg.n, xbar.terminal, None, None, None)))
    for k in range(alg.n - 1, -1, -1):
        keep = np.diag(alg.adapted_mask(k).astype(np.complex128))
        dw = np.array([(CliffordElement.blade(alg, s) * brownian_increment(alg, k + 1)).coeffs
                       for s in range(dim)]).T
        t = keep + dt * padded(lin.Dx[k]) + dw @ padded(lin.Bt[k])
        m_lin, m_anti = blocks(generic.curvature(k, xbar[k], ubar[k], adj.yhat[k], adj.Y[k]))
        lin_p = keep @ (t.conj().T @ lin_p @ t + dt * m_lin) @ keep
        anti_p = keep @ (t.conj().T @ anti_p @ np.conj(t) + dt * m_anti) @ keep
        got_lin, got_anti = blocks(sa.P[k])
        tol = 1e-12 * (1.0 + max(np.abs(lin_p).max(), np.abs(anti_p).max()))
        assert np.abs(got_lin - lin_p).max() <= tol, k
        assert np.abs(got_anti - anti_p).max() <= tol, k
    assert np.abs(anti_p).max() > 0.1  # the conjugation block is exercised


def test_transposition_identity_nu_zero():
    rng = np.random.default_rng(7)
    for name in GALLERY:
        alg, p = build(name, n=5)
        ubar = rng.uniform(-0.5, 0.5, size=(alg.n, 1))
        _, _, sa = solve_stack(p, ubar)
        pairs = []
        for k in (0, 1, 3):
            t1 = RefTuple(k=k, zeta=rand_adapted(alg, rng, k),
                          mu=[rand_adapted(alg, rng, j) for j in range(k, alg.n)])
            t2 = RefTuple(k=k, zeta=rand_adapted(alg, rng, k),
                          mu=[rand_adapted(alg, rng, j) for j in range(k, alg.n)])
            pairs.append((t1, t2))
        for args in by_start(pairs):
            assert transposition_residual(sa, *args) <= 1e-9


def test_transposition_trivial_cases():
    alg, p = build("lq", n=4)
    ubar = np.zeros((alg.n, 1))
    _, _, sa = solve_stack(p, ubar)
    zero = CliffordElement.zero(alg)
    k = 1
    t_zero = RefTuple(k=k, zeta=zero, mu=[zero] * (alg.n - k))
    assert transposition_residual(sa, *stack_pairs([(t_zero, t_zero)])) <= 1e-14

    e1 = CliffordElement.generator(alg, 1)
    t_blade = RefTuple(k=k, zeta=e1, mu=[zero] * (alg.n - k))
    res = transposition_residual(sa, *stack_pairs([(t_blade, t_blade)]))
    assert res <= 1e-10


def rand_tuple(alg, rng, k):
    return RefTuple(k=k, zeta=rand_adapted(alg, rng, k),
                    mu=[rand_adapted(alg, rng, j) for j in range(k, alg.n)],
                    nu=[rand_adapted(alg, rng, j) for j in range(k, alg.n)])


def corrupt_p(sa, k):
    """Plant a defect: P_k -> 3 P_k + I on its adapted subspace."""
    b = 1 << k
    sa.P[k] = SuperOperator(sa.adj.lin.algebra, 3.0 * sa.P[k].lin + np.eye(b),
                            None if sa.P[k].antilin is None else 3.0 * sa.P[k].antilin)


def test_transposition_distinct_nu_tuples():
    # the staggered identity closes with P alone, martingale drivers included
    rng = np.random.default_rng(8)
    for name in GALLERY:
        alg, p = build(name, n=5)
        ubar = rng.uniform(-0.5, 0.5, size=(alg.n, 1))
        _, _, sa = solve_stack(p, ubar)
        pairs = [(rand_tuple(alg, rng, k), rand_tuple(alg, rng, k)) for k in (0, 1, 3, 4)]
        for args in by_start(pairs):
            assert transposition_residual(sa, *args) <= 1e-9


def mixed_pairs(alg, rng):
    """Pairs at every start index, some with a nu-free tuple, one with both nu-free."""
    pairs = []
    for k in [*range(alg.n), 0, 2, alg.n - 1, 2]:
        t1, t2 = rand_tuple(alg, rng, k), rand_tuple(alg, rng, k)
        if len(pairs) % 3 == 1:
            t1 = dataclasses.replace(t1, nu=None)
        if len(pairs) % 4 == 2:
            t1, t2 = dataclasses.replace(t1, nu=None), dataclasses.replace(t2, nu=None)
        pairs.append((t1, t2))
    return pairs


def checks_by_start(sa, pairs):
    """One stacked check per start index of the pairs, in order of first appearance."""
    return [transposition_residual(sa, *args) for args in by_start(pairs)]


@pytest.mark.parametrize("name", GALLERY)
def test_stacked_transposition_check_matches_the_per_pair_reference(name):
    # the row-stacked check against one pair at a time through element
    # steps, on the clean P and on a corrupted one, where every defect is O(1)
    alg, p = build(name, n=5)
    rng = np.random.default_rng(12)
    _, _, sa = solve_stack(p, rng.uniform(-0.5, 0.5, size=(alg.n, 1)))
    pairs = mixed_pairs(alg, rng)
    for plant in (None, 0, 2, alg.n):
        if plant is not None:
            corrupt_p(sa, plant)
        want = transposition_defects(sa, pairs)
        for pair, value in zip(pairs, want):
            got = transposition_residual(sa, *stack_pairs([pair]))
            assert abs(got - value) <= 1e-12 * (1 + value)
        got = max(checks_by_start(sa, pairs))
        assert abs(got - max(want)) <= 1e-12 * (1 + max(want))
        assert (got <= 1e-9) == (plant is None)


def widened(a):
    """An array with its last axis doubled, zeros beyond."""
    return np.concatenate([a, np.zeros_like(a)], axis=-1)


def refusal_cases(alg, k):
    """(message, plant) pairs; each plant spoils the (zeta, mu, nu)
    arguments of start index k by one array of the wrong shape."""
    def at(which, step, reshape):
        def plant(arrays):
            if which == 0:
                return [reshape(arrays[0]), *arrays[1:]]
            drivers = list(arrays[which])
            drivers[step] = reshape(drivers[step])
            return [*arrays[:which], drivers, *arrays[which + 1:]]
        return plant

    return [
        ("initial conditions must have shape", at(0, None, widened)),
        (f"mu driver at step {k + 1} must have shape", at(1, 1, widened)),
        (f"nu driver at step {k + 2} must have shape", at(2, 2, lambda a: a[:, :, :-1])),
        (f"nu driver at step {k} must have shape", at(2, 0, lambda a: a[:, :-1])),
        ("cover", lambda arrays: [arrays[0], arrays[1][:-1], arrays[2]]),
        ("cover", lambda arrays: [arrays[0], arrays[1], arrays[2][1:]]),
    ]


def test_transposition_check_refuses_bad_tuples_before_any_compute(monkeypatch):
    alg, p = build("quadratic_state", n=5)
    rng = np.random.default_rng(13)
    _, _, sa = solve_stack(p, np.zeros((alg.n, 1)))
    k, *good = stack_pairs([(rand_tuple(alg, rng, 1), rand_tuple(alg, rng, 1))
                            for _ in range(3)])
    monkeypatch.setattr(Linearization, "t_rows", lambda *a: pytest.fail("stepped"))
    monkeypatch.setattr(SuperOperator, "gram", lambda *a: pytest.fail("paired"))
    for match, plant in refusal_cases(alg, k):
        with pytest.raises(ValueError, match=match):
            transposition_residual(sa, k, *plant(good))
    with pytest.raises(ValueError, match="outside 0..5"):
        transposition_residual(sa, alg.n + 1, *good)
    with pytest.raises(ValueError, match="initial conditions must have shape"):
        transposition_residual(sa, k, good[0][:, :, :-1], *good[1:])
    # a driver at the full width 2^N, zero beyond its step, is refused too
    padded = [[_padded(alg, a) for a in drivers] for drivers in good[1:]]
    with pytest.raises(ValueError, match=f"mu driver at step {k} must have shape"):
        transposition_residual(sa, k, good[0], *padded)


def test_transposition_check_pairs_through_m_and_calls_no_curvature_callback(monkeypatch):
    # the curvature side goes through the M_k that built P; the suite checks
    # those against the raw callbacks (curvature_error)
    alg, p = build("quadratic_state", n=5)
    rng = np.random.default_rng(14)
    _, _, sa = solve_stack(p, rng.uniform(-0.5, 0.5, size=(alg.n, 1)))
    pairs = mixed_pairs(alg, rng)
    clean = checks_by_start(sa, pairs)
    monkeypatch.setattr(problems, "hxx_pairing", lambda *a: pytest.fail("hxx_pairing"))
    for name in ("D_xx", "F_xx", "G_xx", "L_xx"):
        assert getattr(p, name) is not None
        monkeypatch.setattr(p, name, lambda *a, name=name: pytest.fail(name))
    assert checks_by_start(sa, pairs) == clean and max(clean) <= 1e-9


def first_wrong_shape(n, k, zeta, mu, nu):
    """The refusal of the stacked check, in its order: start index, zeta,
    driver count, then step by step mu_j before nu_j; None when all fit."""
    if not 0 <= k <= n:
        return f"step index {k} outside 0..{n}"
    if zeta.shape[::2] != (2, 1 << k):
        return "initial conditions must have shape"
    if not len(mu) == len(nu) == n - k:
        return "drivers must cover start index .. N-1"
    for j in range(k, n):
        for kind, drivers in (("mu", mu), ("nu", nu)):
            if drivers[j - k].shape != (2, zeta.shape[1], 1 << j):
                return f"{kind} driver at step {j} must have shape"
    return None


def test_stacked_tuple_check_raises_the_first_wrong_shape_in_check_order():
    alg, p = build("quadratic_state", n=5)
    rng = np.random.default_rng(15)
    _, _, sa = solve_stack(p, np.zeros((alg.n, 1)))

    def plant(k, arrays, kind, j):
        zeta, mu, nu = arrays[0], list(arrays[1]), list(arrays[2])
        if kind in ("mu", "nu"):
            drivers = mu if kind == "mu" else nu
            j %= len(drivers)
            drivers[j] = widened(drivers[j]) if rng.integers(2) else drivers[j][:, :, :-1]
        elif kind == "zeta":
            zeta = widened(zeta)
        elif kind == "short":
            drivers = mu if rng.integers(2) else nu
            del drivers[-1]
        else:  # range
            k = alg.n + 1
        return k, [zeta, mu, nu]

    raised = set()
    for _ in range(60):
        k, *arrays = stack_pairs([(rand_tuple(alg, rng, 1), rand_tuple(alg, rng, 1))
                                  for _ in range(4)])
        for _ in range(int(rng.integers(1, 5))):
            kind = ("zeta", "mu", "nu", "short", "range")[rng.integers(5)]
            k, arrays = plant(k, arrays, kind, int(rng.integers(alg.n - 1)))
        want = first_wrong_shape(alg.n, k, *arrays)
        assert want is not None
        with pytest.raises(ValueError, match=re.escape(want)):
            transposition_residual(sa, k, *arrays)
        raised.add(want)
    assert len(raised) >= 8  # every kind of refusal, at several steps


def test_one_check_over_all_pairs_is_the_max_over_start_indices():
    # the suite folds one stacked check per start index with max: that is
    # the largest defect of any pair, one pair at a time
    alg, p = build("quadratic_state", n=5)
    rng = np.random.default_rng(16)
    _, _, sa = solve_stack(p, rng.uniform(-0.5, 0.5, size=(alg.n, 1)))
    pairs = [(rand_tuple(alg, rng, k), rand_tuple(alg, rng, k))
             for k in map(int, rng.integers(0, alg.n, size=16))]

    def per_pair():
        want = max(transposition_defects(sa, pairs))
        got = max(checks_by_start(sa, pairs))
        assert abs(got - want) <= 1e-12 * (1 + want)
        return got

    assert per_pair() <= 1e-9
    corrupt_p(sa, 2)
    assert per_pair() > 1e-3


def test_a_nan_defect_at_one_start_index_is_not_dropped():
    alg, p = build("quadratic_state", n=5)
    rng = np.random.default_rng(17)
    _, _, sa = solve_stack(p, rng.uniform(-0.5, 0.5, size=(alg.n, 1)))
    pairs = [(rand_tuple(alg, rng, k), rand_tuple(alg, rng, k))
             for k in range(alg.n) for _ in range(2)]
    sa.P[3] = SuperOperator(alg, np.full((8, 8), np.nan))  # reaches start indices 0..3 only
    assert np.isnan(checks_by_start(sa, pairs)).tolist() == [True] * 4 + [False]
    # one NaN row of a stack makes the stack's defect NaN
    sa.P[3] = SuperOperator(alg, np.zeros((8, 8)))
    k, zeta, mu, nu = stack_pairs(pairs[:2])
    mu[1][1, 1, 0] = np.nan
    assert np.isnan(transposition_residual(sa, k, zeta, mu, nu))


def s_parts(sa, u):
    """S through P, its P-pairing part and its gap to the direct route."""
    curvature, p_part, direct = (complex(f[0, 0]) for f in _forms(sa, _direction(sa.adj, u)[None]))
    value = (curvature + p_part).real
    return value, p_part, abs(value - direct.real)


def functional_case(name, seed, n=5):
    alg, p = build(name, n=n)
    rng = np.random.default_rng(seed)
    ubar = rng.uniform(-0.5, 0.5, size=(alg.n, 1))
    xbar, adj, sa = solve_stack(p, ubar)
    du = rng.uniform(-0.5, 0.5, size=(alg.n, 1))
    return alg, p, rng, ubar, xbar, adj, sa, du


@pytest.mark.parametrize("name", ("lq", "quadratic_control", "quadratic_state"))
def test_second_order_routes_agree(name):
    alg, p, _, ubar, xbar, adj, sa, du = functional_case(name, 9)
    value, p_part, gap = s_parts(sa, ubar + du)
    assert gap <= 1e-12 * (1.0 + abs(value))
    assert _routes_agree(gap, value)
    assert abs(p_part) > 1e-3  # P carries a real share of S


@pytest.mark.parametrize("name", ("lq", "quadratic_control", "quadratic_state"))
def test_corrupted_p_is_detected(name):
    alg, p, rng, ubar, xbar, adj, sa, du = functional_case(name, 10)
    clean, _, _ = s_parts(sa, ubar + du)
    pairs = stack_pairs([(rand_tuple(alg, rng, 0), rand_tuple(alg, rng, 0)) for _ in range(2)])
    assert transposition_residual(sa, *pairs) <= 1e-9
    for k in range(1, alg.n):  # x1_0 = 0, so P_0 only enters the transposition check
        saved = sa.P[k]
        corrupt_p(sa, k)
        value, _, gap = s_parts(sa, ubar + du)
        assert abs(value - clean) > 1e-3
        assert gap > 1e-3 and not _routes_agree(gap, value)
        assert transposition_residual(sa, *pairs) > 1.0
        sa.P[k] = saved
    corrupt_p(sa, 0)
    assert transposition_residual(sa, *pairs) > 1.0


def test_route_gap_flags_wrong_direction_variation(monkeypatch):
    # a variation solver that returns the variation of 2 du for du
    variation_rows = Linearization.variation_rows
    monkeypatch.setattr(Linearization, "variation_rows",
                        lambda self, dus: variation_rows(self, 2.0 * dus))
    for name in ("lq", "quadratic_control", "quadratic_state"):
        alg, p, _, ubar, xbar, adj, sa, du = functional_case(name, 11)
        value, _, gap = s_parts(sa, ubar + du)
        assert gap >= 0.1
        assert not _routes_agree(gap, value)


def test_second_order_zero_direction():
    alg, p, _, ubar, xbar, adj, sa, _ = functional_case("lq", 12, n=4)
    value, _, gap = s_parts(sa, ubar)
    assert value == 0.0
    assert gap == 0.0


def test_second_order_routes_quadratic_homogeneity():
    alg, p, _, ubar, xbar, adj, sa, du = functional_case("quadratic_control", 13, n=4)
    du *= 0.5  # keep ubar + 2 du inside the box
    base, base_p, base_gap = s_parts(sa, ubar + du)
    scaled, scaled_p, scaled_gap = s_parts(sa, ubar + 2.0 * du)
    assert scaled == pytest.approx(4.0 * base, rel=1e-10, abs=1e-12)
    assert scaled_p == pytest.approx(4.0 * base_p, rel=1e-10, abs=1e-12)
    assert _routes_agree(scaled_gap, scaled) and _routes_agree(base_gap, base)


def test_second_order_zero_dynamics_term_cancellation():
    # no state feedback, no curvature: P = 0 and S is the control curvature alone
    alg = make_algebra(4, 0.0, 1.0)
    spec = ProblemSpec.gallery("lq", a=0.0, f0=0.0, g0=0.0, q=0.0, s=0.0,
                               r=0.5, x_tgt=None)
    p = make_problem(alg, spec)
    ubar = np.zeros((alg.n, 1))
    xbar, adj, sa = solve_stack(p, ubar)
    du = np.array([[0.5], [-0.5], [0.25], [1.0]])
    assert all(np.max(np.abs(op.lin)) == 0.0 for op in sa.P)
    value, p_part, gap = s_parts(sa, ubar + du)
    assert p_part == 0.0
    assert gap == 0.0
    assert value == pytest.approx(-2.0 * 0.5 * alg.dt * float(np.sum(du * du)), abs=1e-15)


def test_p_block_collapses_under_real_symmetry():
    # Re of the uncollapsed sum equals the collapsed three-term display
    rng = np.random.default_rng(12)
    for name in ("lq", "quadratic_control", "quadratic_state"):
        alg, p = build(name, n=4)
        ubar = rng.uniform(-0.4, 0.4, size=(alg.n, 1))
        xbar, adj, sa = solve_stack(p, ubar)
        du = rng.uniform(-0.5, 0.5, size=(alg.n, 1))
        x1 = solve_first_variation(adj.lin, du)
        full = s_parts(sa, ubar + du)[1].real
        dt = alg.dt
        collapsed = 0.0
        for j in range(alg.n):
            pj = sa.P[j + 1]
            a = CliffordElement(alg, _padded(alg, sa.adj.lin.Du[j] @ du[j]))
            bn = mul_dw(CliffordElement(alg, _padded(alg, sa.adj.lin.Bu[j] @ du[j])), j + 1)
            tx = x1[j + 1] - dt * a - bn
            collapsed += 2 * dt * pj.pair(tx, a).real + dt * dt * pj.pair(a, a).real
            collapsed += 2 * pj.pair(tx, bn).real + 2 * dt * pj.pair(a, bn).real
            collapsed += pj.pair(bn, bn).real
        assert collapsed == pytest.approx(full, rel=1e-9, abs=1e-11)
