import numpy as np
import pytest

from qsoc.adjoint import hu_field, huu_matrix, hxu_pairing, hxx_pairing, solve_first_adjoint
from qsoc.clifford import CliffordElement, inner, make_algebra, parity, superop_from_pairing
from qsoc.errors import SupportError
from qsoc.forward import solve_state
from qsoc.problems import ControlSet, ProblemSpec, cost, make_problem
from reference import derivative_errors, hamiltonian

GALLERY = ("free", "lq", "quadratic_control", "quadratic_state")


def build(name, n=4, m=1, t0=0.0, T=1.0, **overrides):
    alg = make_algebra(n, t0, T)
    return alg, make_problem(alg, ProblemSpec.gallery(name, m=m, **overrides))


def test_control_set_basics():
    cs = ControlSet(np.array([-1.0, 0.0]), np.array([1.0, 2.0]))
    assert cs.m == 2
    assert np.allclose(cs.project(np.array([3.0, -1.0])), [1.0, 0.0])
    assert cs.contains(np.array([0.5, 1.0]))
    assert not cs.contains(np.array([1.5, 1.0]))
    with pytest.raises(ValueError):
        ControlSet(np.array([1.0]), np.array([0.0]))
    with pytest.raises(ValueError, match="NaN"):
        ControlSet(np.array([np.nan]), np.array([1.0]))
    assert not ControlSet(np.array([-np.inf]), np.array([1.0])).is_bounded()


def test_check_control_path_names_first_step_outside_box():
    alg, p = build("lq", m=2)
    u = np.zeros((alg.n, 2))
    u[1] = [1.0, -1.0 - 1e-13]  # on the box, within the tolerance
    assert p.check_control_path(u) is not None
    u[2, 1] = 1.5
    u[3, 0] = -2.0
    with pytest.raises(ValueError, match="step 2 outside"):
        p.check_control_path(u)


def test_free_problem_wiring():
    alg, p = build("free", r=1.0, q=0.0, s=0.0, x_tgt=None)
    x = CliffordElement.unit(alg)
    u = np.array([0.3])
    assert p.D(0, x, u).norm() == 0.0
    assert p.F(0, x, u).norm() == 0.0
    assert p.G(0, x, u).norm() == 0.0
    assert p.L(0, x, u) == pytest.approx(0.09)
    assert np.allclose(p.L_u(0, x, u), [0.6])


def test_lq_zero_rates_reduces_to_free():
    alg, p = build("lq", a=0.0, f0=0.0, g0=0.0,
                   b=(((0, 0.0, 0.0),),), f=(((0, 0.0, 0.0),),), g=(((0, 0.0, 0.0),),))
    x = CliffordElement.generator(alg, 1)
    u = np.array([0.7])
    assert p.D(1, x, u).norm() == 0.0
    assert p.F(1, x, u).norm() == 0.0


def test_unknown_name_and_bad_x0():
    alg = make_algebra(3, 0.0, 1.0)
    with pytest.raises(ValueError):
        make_problem(alg, ProblemSpec(name="nope"))
    with pytest.raises(SupportError):
        make_problem(alg, ProblemSpec.gallery("lq", x0=((1, 1.0, 0.0),)))


def test_quadratic_state_second_derivative():
    alg, p = build("quadratic_state", qd=((0, 1.0, 0.0),), qf=None, qg=None)
    rng = np.random.default_rng(0)
    h1 = CliffordElement(alg, rng.standard_normal(alg.dim) + 0j)
    h2 = CliffordElement(alg, rng.standard_normal(alg.dim) + 0j)
    got = p.D_xx(alg.n, CliffordElement.unit(alg), np.zeros(1))(h1, h2)
    want = h1 * h2 + h2 * h1
    assert np.allclose(got.coeffs, want.coeffs, atol=1e-13)


@pytest.mark.parametrize("name", GALLERY)
def test_audit_derivatives_gallery(name):
    _, p = build(name)
    errors = derivative_errors(p, trials=12, seed=1)
    assert max(errors.values()) <= 1e-6, errors
    if name == "free":
        # constant (zero) coefficient maps difference to exactly zero
        for tag in ("D_x", "D_u", "F_x", "G_x"):
            assert errors[tag] == 0.0


def test_audit_derivatives_linear_maps_tight():
    _, p = build("lq")
    errors = derivative_errors(p, trials=10, seed=2)
    assert max(errors.values()) <= 1e-8, errors


def test_audit_detects_corrupted_callback():
    alg, p = build("lq")
    good = p.D_x

    def bad(k, x, u):
        fn = good(k, x, u)
        return lambda h: 1.01 * fn(h)

    p.D_x = bad
    errors = derivative_errors(p, trials=10, seed=3)
    assert max(errors.values()) > 1e-6
    assert errors["D_x"] == pytest.approx(1e-2, rel=0.5)


@pytest.mark.parametrize("name", GALLERY)
def test_audit_adaptedness_gallery(name):
    # each channel maps a state adapted at step k to an element adapted at k
    alg, p = build(name, n=5)
    rng = np.random.default_rng(4)
    for k in range(alg.n):
        c = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
        x = CliffordElement(alg, np.where(alg.adapted_mask(k), c, 0.0))
        u = rng.uniform(-1.0, 1.0, size=1)
        for fn in (p.D, p.F, p.G):
            assert fn(k, x, u).is_adapted(k)


def test_hamiltonian_values():
    alg, p = build("free", r=1.0, q=0.0, s=0.0, x_tgt=None)
    x = CliffordElement.unit(alg)
    zero = np.zeros(1)
    y = CliffordElement.zero(alg)
    assert hamiltonian(p, 0, x, zero, y, y) == 0

    # constant drift paired against a unit y
    b = CliffordElement.generator(alg, 1)
    spec = ProblemSpec.gallery("lq", a=0.0, f0=0.0, g0=0.0, q=0.0, r=0.0, s=0.0,
                               b=(((1, 1.0, 0.0),),),
                               f=(((0, 0.0, 0.0),),), g=(((0, 0.0, 0.0),),),
                               x_tgt=None)
    p2 = make_problem(alg, spec)
    u = np.array([1.0])
    val = hamiltonian(p2, 1, x, u, b, CliffordElement.zero(alg))
    assert val == pytest.approx(1.0)


def test_hamiltonian_blade_expansion_oracle():
    # recompute the three pairings blade by blade
    alg, p = build("lq", n=3)
    rng = np.random.default_rng(9)
    x = CliffordElement(alg, np.where(alg.adapted_mask(2), rng.standard_normal(alg.dim), 0) + 0j)
    u = np.array([0.4])
    y = CliffordElement(alg, rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim))
    Y = CliffordElement(alg, rng.standard_normal(alg.dim) + 0j)
    got = hamiltonian(p, 2, x, u, y, Y)
    d, f, g = p.D(2, x, u), p.F(2, x, u), p.G(2, x, u)
    expect = 0.0 + 0.0j
    for mask in range(alg.dim):
        expect += np.conj(y.coeffs[mask]) * d.coeffs[mask]
        expect += np.conj(Y.coeffs[mask]) * (f.coeffs[mask] + parity(g).coeffs[mask])
    expect -= p.L(2, x, u)
    assert got == pytest.approx(expect, abs=1e-12)


def test_hamiltonian_real_scaling_in_y():
    alg, p = build("lq")
    rng = np.random.default_rng(10)
    x = CliffordElement.unit(alg)
    u = np.array([0.2])
    y = CliffordElement(alg, rng.standard_normal(alg.dim) + 0j)
    zero = CliffordElement.zero(alg)
    base = hamiltonian(p, 0, x, u, y, zero) + p.L(0, x, u)
    scaled = hamiltonian(p, 0, x, u, 3.0 * y, zero) + p.L(0, x, u)
    assert scaled == pytest.approx(3.0 * base, rel=1e-12)


def test_hamiltonian_derivatives_free_quadratic():
    alg, p = build("free", r=0.7, q=0.0, s=0.0, x_tgt=None)
    u = np.full((alg.n, 1), 0.3)
    xbar = solve_state(p, u)
    adj = solve_first_adjoint(p, xbar, u)
    assert np.allclose(hu_field(p, adj), -2 * 0.7 * 0.3)
    x, zero = xbar[0], CliffordElement.zero(alg)
    assert np.allclose(huu_matrix(p, 0, x, u[0], zero, zero), -2 * 0.7 * np.eye(1))
    hxx = superop_from_pairing(alg, hxx_pairing(p, 0, x, u[0], zero, zero), alg.dim)
    assert np.max(np.abs(hxx.lin)) == 0.0
    assert hxu_pairing(p, 0, x, u[0], zero, zero) is None


def test_hamiltonian_state_curvature_is_running_cost_only_for_lq():
    # affine dynamics contribute nothing: the state curvature is -2q identity
    alg, p = build("lq", q=0.35)
    rng = np.random.default_rng(11)
    y = CliffordElement(alg, rng.standard_normal(alg.dim) + 0j)
    Y = CliffordElement(alg, rng.standard_normal(alg.dim) + 0j)
    hxx = superop_from_pairing(
        alg, hxx_pairing(p, 1, CliffordElement.unit(alg), np.zeros(1), y, Y), alg.dim)
    assert np.allclose(hxx.lin, -2.0 * 0.35 * np.eye(alg.dim), atol=1e-13)
    assert hxx.antilin is None


def test_hamiltonian_derivatives_match_finite_differences():
    # the adjoint's derivative objects, at the (yhat_k, Y_k) they are used with
    alg, p = build("quadratic_state", n=3)
    rng = np.random.default_rng(12)
    ubar = rng.uniform(-0.5, 0.5, size=(alg.n, 1))
    xbar = solve_state(p, ubar)
    adj = solve_first_adjoint(p, xbar, ubar)
    hu = hu_field(p, adj)
    step = 1e-5

    def H(k, x, u):
        return hamiltonian(p, k, x, u, adj.yhat[k], adj.Y[k]).real

    for k in range(alg.n):
        x, u, y, Y = xbar[k], ubar[k], adj.yhat[k], adj.Y[k]
        h = CliffordElement(alg, np.where(alg.adapted_mask(k), rng.standard_normal(alg.dim), 0) + 0j)
        h2 = CliffordElement(alg, np.where(alg.adapted_mask(k), rng.standard_normal(alg.dim), 0) + 0j)
        v = rng.standard_normal(1)

        # first adjoint recursion: y_k = yhat_k + dt H_x on the adapted subspace
        fd = (H(k, x + step * h, u) - H(k, x - step * h, u)) / (2 * step)
        hx = (adj.y[k] - y) * (1.0 / alg.dt)
        assert fd == pytest.approx(inner(hx, h).real, rel=1e-6, abs=1e-6)

        fd = (H(k, x, u + step * v) - H(k, x, u - step * v)) / (2 * step)
        assert fd == pytest.approx(float(hu[k] @ v), rel=1e-6, abs=1e-6)

        fd2 = (H(k, x + step * (h + h2), u) - H(k, x + step * (h - h2), u)
               - H(k, x - step * (h - h2), u) + H(k, x - step * (h + h2), u)) / (4 * step * step)
        pair = hxx_pairing(p, k, x, u, y, Y)(h2, h)
        # the finite difference of the real running cost sees Re of the curvature
        assert fd2 == pytest.approx(pair.real, rel=1e-5, abs=1e-5)

        fdu = (H(k, x, u + 2 * step * v) - 2 * H(k, x, u)
               + H(k, x, u - 2 * step * v)) / (2 * step) ** 2
        huu = huu_matrix(p, k, x, u, y, Y)
        assert fdu == pytest.approx(float(v @ huu.real @ v), rel=1e-4, abs=1e-5)
        assert hxu_pairing(p, k, x, u, y, Y) is None  # no mixed terms in the gallery


def test_cost_examples():
    alg, p = build("free", r=1.0, q=0.0, s=0.0, x_tgt=None)
    u = np.zeros((alg.n, 1))
    x = solve_state(p, u)
    assert cost(p, u, x) == 0.0

    # constant running cost integrates to T - t0: use q=0, r=0 and L == 1 via custom
    alg2, p2 = build("free", r=1.0, q=0.0, s=0.0, x_tgt=None, T=2.0)
    const = p2.L
    p2.L = lambda k, x_, u_: 1.0
    u2 = np.zeros((alg2.n, 1))
    x2 = solve_state(p2, u2)
    assert cost(p2, u2, x2) == pytest.approx(2.0)
    p2.L = const


def test_cost_tiny_lq_hand_expansion():
    # N = 2: expand the Riemann sum by hand
    alg = make_algebra(2, 0.0, 1.0)
    spec = ProblemSpec.gallery("lq", q=0.3, r=0.2, s=0.4)
    p = make_problem(alg, spec)
    u = np.array([[0.5], [-0.25]])
    traj = solve_state(p, u)
    by_hand = 0.0
    for k in range(2):
        by_hand += alg.dt * (0.3 * traj[k].norm() ** 2 + 0.2 * float(u[k] @ u[k]))
    tgt = CliffordElement.from_terms(alg, {0: 0.5, 1: 0.25})
    by_hand += 0.4 * (traj[2] - tgt).norm() ** 2
    assert cost(p, u, traj) == pytest.approx(by_hand, rel=1e-14)


def test_cost_refines_at_first_order():
    # J at N and 2N steps differ by O(dt); rates small enough that the dyadic
    # sweep sits in the asymptotic regime at desk-scale N
    spec_kw = dict(
        a=0.125, f0=0.075, g0=0.0625,
        b=(((0, 1.0, 0.0),),), f=(((0, 0.2, 0.0),),), g=(((0, 0.15, 0.0),),),
        x_tgt=((0, 0.5, 0.0),))
    gaps = []
    ns = [2, 4, 8, 16]
    for n in ns:
        alg = make_algebra(n, 0.0, 1.0, cap=16)
        p = make_problem(alg, ProblemSpec.gallery("lq", **spec_kw))
        u = 0.3 * np.ones((n, 1))
        gaps.append(cost(p, u, solve_state(p, u)))
    diffs = [abs(gaps[i + 1] - gaps[i]) for i in range(len(ns) - 1)]
    slope = np.polyfit(np.log([1.0 / n for n in ns[:-1]]), np.log(diffs), 1)[0]
    assert slope >= 0.9
