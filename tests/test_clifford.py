import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qsoc import clifford
from qsoc.clifford import (
    AdaptedProcess,
    CliffordElement,
    _block_rows,
    _matrix_product,
    _mul_dw,
    _multiplication_blocks,
    _padded,
    _row_norms,
    _table_product,
    brownian_increment,
    conditional_expectation,
    inner,
    make_algebra,
    martingale_coefficient,
    multiply,
    multiply_batch,
    parity,
    star,
    state_m,
)
from qsoc.errors import AlgebraMismatchError, CapacityError, SupportError
from qsoc.matrices import MatrixRealization, realization_for
from reference import mul_dw, pauli_blade, scatter_table_product


def rand_element(alg, rng, adapted_at=None):
    c = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
    if adapted_at is not None:
        c = np.where(alg.adapted_mask(adapted_at), c, 0.0)
    return CliffordElement(alg, c)


def test_make_algebra_smallest():
    alg = make_algebra(1, 0.0, 1.0)
    assert alg.dt == 1.0
    assert alg.dim == 2


def test_make_algebra_grid():
    alg = make_algebra(4, 0.0, 2.0)
    assert alg.dt == pytest.approx(0.5)
    assert alg.dim == 16
    assert alg.dt * alg.n == pytest.approx(alg.T - alg.t0, abs=0)


def test_make_algebra_capacity():
    with pytest.raises(CapacityError):
        make_algebra(13, 0.0, 1.0)
    # cap is configurable
    make_algebra(13, 0.0, 1.0, cap=13)
    with pytest.raises(ValueError):
        make_algebra(2, 1.0, 1.0)


def test_generator_square_is_identity():
    alg = make_algebra(3, 0.0, 1.0)
    e1 = CliffordElement.generator(alg, 1)
    assert e1 * e1 == CliffordElement.unit(alg)


def test_anticommutation():
    alg = make_algebra(3, 0.0, 1.0)
    e1 = CliffordElement.generator(alg, 1)
    e2 = CliffordElement.generator(alg, 2)
    e12 = CliffordElement.blade(alg, 0b011)
    assert e1 * e2 == e12
    assert e2 * e1 == -e12


def test_two_blade_product_matches_matrix_oracle():
    alg = make_algebra(3, 0.0, 1.0)
    a = CliffordElement.blade(alg, 0b011)  # e1 e2
    b = CliffordElement.blade(alg, 0b110)  # e2 e3
    got = a * b
    # independent route through the matrix realization
    mr = realization_for(alg)
    expect = mr.from_matrix(alg, mr.to_matrix(a) @ mr.to_matrix(b))
    assert np.allclose(got.coeffs, expect.coeffs, atol=1e-14)
    # e1 e2 e2 e3 = e1 e3
    assert got == CliffordElement.blade(alg, 0b101)


def test_algebra_mismatch_raises():
    a1 = make_algebra(2, 0.0, 1.0)
    a2 = make_algebra(2, 0.0, 1.0)
    with pytest.raises(AlgebraMismatchError):
        multiply(CliffordElement.unit(a1), CliffordElement.unit(a2))


def test_star_basics():
    alg = make_algebra(3, 0.0, 1.0)
    one = CliffordElement.unit(alg)
    assert star(one) == one
    e12 = CliffordElement.blade(alg, 0b011)
    assert star(e12) == -e12
    e1 = CliffordElement.generator(alg, 1)
    assert star((1 + 1j) * e1) == (1 - 1j) * e1


def test_state_basics():
    alg = make_algebra(2, 0.0, 1.0)
    assert state_m(CliffordElement.unit(alg)) == 1
    assert state_m(CliffordElement.generator(alg, 1)) == 0
    assert state_m(CliffordElement.blade(alg, 0b11)) == 0


def test_state_positive_on_squares():
    # m(a* a) for a = e1 + i e2 equals 2, confirmed against the matrix trace
    alg = make_algebra(2, 0.0, 1.0)
    a = CliffordElement.generator(alg, 1) + 1j * CliffordElement.generator(alg, 2)
    val = state_m(star(a) * a)
    assert val == pytest.approx(2.0)
    mr = realization_for(alg)
    am = mr.to_matrix(a)
    assert mr.state(am.conj().T @ am) == pytest.approx(2.0)


def test_inner_orthonormal_blades():
    alg = make_algebra(3, 0.0, 1.0)
    e1 = CliffordElement.generator(alg, 1)
    e2 = CliffordElement.generator(alg, 2)
    e12 = CliffordElement.blade(alg, 0b011)
    assert inner(e1, e1) == 1
    assert inner(e1, e2) == 0
    # through multiply + star + state rather than the vdot shortcut
    assert state_m(star(e12) * e12) == pytest.approx(1.0)


def test_parity_examples():
    alg = make_algebra(3, 0.0, 1.0)
    one = CliffordElement.unit(alg)
    e1 = CliffordElement.generator(alg, 1)
    mix = 3 * CliffordElement.blade(alg, 0b011) + CliffordElement.generator(alg, 3)
    assert parity(one) == one
    assert parity(e1) == -e1
    assert parity(mix) == 3 * CliffordElement.blade(alg, 0b011) - CliffordElement.generator(alg, 3)


def test_conditional_expectation_rules():
    alg = make_algebra(4, 0.0, 1.0)
    rng = np.random.default_rng(7)
    a = rand_element(alg, rng, adapted_at=2)
    assert conditional_expectation(a, 2) == a
    e3 = CliffordElement.generator(alg, 3)
    assert conditional_expectation(e3, 2) == CliffordElement.zero(alg)
    f = rand_element(alg, rng)
    e0 = conditional_expectation(f, 0)
    assert e0 == state_m(f) * CliffordElement.unit(alg)
    # state preservation and idempotence
    assert state_m(conditional_expectation(f, 2)) == state_m(f)
    assert conditional_expectation(conditional_expectation(f, 3), 1) == conditional_expectation(f, 1)
    with pytest.raises(ValueError):
        conditional_expectation(f, 5)


def test_conditional_expectation_module_property():
    alg = make_algebra(4, 0.0, 1.0)
    rng = np.random.default_rng(3)
    k = 2
    a = rand_element(alg, rng, adapted_at=k)
    b = rand_element(alg, rng, adapted_at=k)
    f = rand_element(alg, rng)
    lhs = conditional_expectation(a * f * b, k)
    rhs = a * conditional_expectation(f, k) * b
    assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-12)


def test_brownian_increment():
    alg = make_algebra(1, 0.0, 1.0)
    dw = brownian_increment(alg, 1)
    assert dw == CliffordElement.generator(alg, 1)
    assert dw * dw == CliffordElement.unit(alg)

    alg = make_algebra(2, 0.0, 0.5)  # dt = 0.25
    dw2 = brownian_increment(alg, 2)
    assert np.allclose(dw2.coeffs, 0.5 * CliffordElement.generator(alg, 2).coeffs)
    assert inner(dw2, dw2) == pytest.approx(0.25)
    # dW_2 e1 = -e1 dW_2 = parity(e1) dW_2
    e1 = CliffordElement.generator(alg, 1)
    assert dw2 * e1 == -(e1 * dw2)
    assert dw2 * e1 == parity(e1) * dw2
    with pytest.raises(ValueError):
        brownian_increment(alg, 3)


def test_parity_commutation_rule_random():
    # f dW + dW g = (f + parity(g)) dW for adapted f, g
    alg = make_algebra(6, 0.0, 1.0)
    rng = np.random.default_rng(11)
    for k in range(alg.n):
        f = rand_element(alg, rng, adapted_at=k)
        g = rand_element(alg, rng, adapted_at=k)
        lhs = mul_dw(f, k + 1) + mul_dw(g, k + 1, "left")
        rhs = mul_dw(f + parity(g), k + 1)
        assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-12)


def test_martingale_coefficient_examples():
    alg = make_algebra(3, 0.0, 3.0)  # dt = 1
    e1 = CliffordElement.generator(alg, 1)
    e2 = CliffordElement.generator(alg, 2)
    assert martingale_coefficient(e1, 1) == CliffordElement.zero(alg)
    assert martingale_coefficient(e2, 1) == CliffordElement.unit(alg)

    alg = make_algebra(2, 0.0, 0.5)  # dt = 0.25
    f = 2 * CliffordElement.blade(alg, 0b11) + 3 * CliffordElement.generator(alg, 1)
    y = martingale_coefficient(f, 1)
    assert y == 4 * CliffordElement.generator(alg, 1)
    ek = conditional_expectation(f, 1)
    assert ek == 3 * CliffordElement.generator(alg, 1)
    recon = ek + y * brownian_increment(alg, 2)
    assert np.allclose(recon.coeffs, f.coeffs, atol=1e-14)


def test_martingale_support_violation():
    alg = make_algebra(3, 0.0, 1.0)
    e3 = CliffordElement.generator(alg, 3)
    with pytest.raises(SupportError):
        martingale_coefficient(e3, 1)


def test_martingale_representation_random():
    alg = make_algebra(6, 0.0, 2.0)
    rng = np.random.default_rng(5)
    for k in range(alg.n - 1):
        f = rand_element(alg, rng, adapted_at=k + 1)
        y = martingale_coefficient(f, k)
        assert y.is_adapted(k)
        recon = conditional_expectation(f, k) + mul_dw(y, k + 1)
        assert np.max(np.abs(recon.coeffs - f.coeffs)) <= 1e-14 * max(1.0, f.norm())


@given(st.data())
def test_martingale_representation_property(data):
    alg = make_algebra(5, 0.0, 1.25)
    k = data.draw(st.integers(0, alg.n - 1))
    terms = data.draw(st.dictionaries(
        st.integers(0, (1 << (k + 1)) - 1),
        st.tuples(st.floats(-4, 4), st.floats(-4, 4)),
        max_size=6))
    f = CliffordElement.from_terms(alg, {m: re + 1j * im for m, (re, im) in terms.items()})
    y = martingale_coefficient(f, k)
    assert y.is_adapted(k)
    recon = conditional_expectation(f, k) + mul_dw(y, k + 1)
    assert np.max(np.abs(recon.coeffs - f.coeffs)) <= 1e-14 * (1 + f.norm())


@given(st.integers(0, 4), st.integers(0, 4))
def test_conditional_expectation_tower_property(j, k):
    alg = make_algebra(4, 0.0, 1.0)
    rng = np.random.default_rng(j * 8 + k)
    f = rand_element(alg, rng)
    lhs = conditional_expectation(conditional_expectation(f, k), j)
    rhs = conditional_expectation(f, min(j, k))
    assert lhs == rhs


@given(st.integers(0, 2**9 - 1), st.integers(0, 2**9 - 1), st.integers(0, 2**9 - 1))
def test_blade_associativity(sa, sb, sc):
    alg = make_algebra(9, 0.0, 1.0)
    a = CliffordElement.blade(alg, sa)
    b = CliffordElement.blade(alg, sb)
    c = CliffordElement.blade(alg, sc)
    assert (a * b) * c == a * (b * c)


@given(st.integers(1, 6), st.integers(1, 6))
def test_generator_relations(i, j):
    alg = make_algebra(6, 0.0, 1.0)
    ei = CliffordElement.generator(alg, i)
    ej = CliffordElement.generator(alg, j)
    if i == j:
        assert ei * ej == CliffordElement.unit(alg)
    else:
        assert ei * ej == -(ej * ei)


def test_random_element_laws():
    alg = make_algebra(5, 0.0, 1.0)
    rng = np.random.default_rng(17)
    for _ in range(25):
        a, b, c = (rand_element(alg, rng) for _ in range(3))
        ab = a * b
        assert np.allclose(((ab) * c).coeffs, (a * (b * c)).coeffs, atol=1e-10)
        assert np.allclose(star(ab).coeffs, (star(b) * star(a)).coeffs, atol=1e-10)
        assert np.allclose(parity(ab).coeffs, (parity(a) * parity(b)).coeffs, atol=1e-10)
        assert np.allclose(parity(parity(a)).coeffs, a.coeffs, atol=1e-14)
        assert np.allclose(star(star(a)).coeffs, a.coeffs, atol=1e-14)
        # trace property
        assert state_m(ab) == pytest.approx(state_m(b * a), abs=1e-12 * (1 + abs(state_m(ab))))
        # faithfulness direction: norm via star/multiply equals vdot norm
        assert state_m(star(a) * a).real == pytest.approx(a.norm() ** 2, rel=1e-12)


def test_multiply_batch_matches_single():
    alg = make_algebra(5, 0.0, 1.0)
    rng = np.random.default_rng(23)
    A = rng.standard_normal((8, alg.dim)) + 1j * rng.standard_normal((8, alg.dim))
    B = rng.standard_normal((8, alg.dim)) + 1j * rng.standard_normal((8, alg.dim))
    out = multiply_batch(alg, A, B)
    for i in range(8):
        single = multiply(CliffordElement(alg, A[i]), CliffordElement(alg, B[i]))
        assert np.array_equal(out[i], single.coeffs)


@pytest.mark.parametrize("n", range(3, 10))
def test_row_blocks_of_the_matrix_form_are_invisible(n):
    # batches around the block size give the row-by-row products bit for bit,
    # and blades beyond the subalgebra stay exact zeros even with junk there
    alg = make_algebra(n, 0.0, 1.0)
    rng = np.random.default_rng(200 + n)
    for top in (n, n - 1):
        block = _block_rows(1 << (top + 1) // 2)
        rows = 2 * block + 3
        A = rng.standard_normal((rows, alg.dim)) + 1j * rng.standard_normal((rows, alg.dim))
        B = rng.standard_normal((rows, alg.dim)) + 1j * rng.standard_normal((rows, alg.dim))
        single = np.concatenate([_matrix_product(alg, A[i:i + 1], B[i:i + 1], top)
                                 for i in range(rows)])
        for size in (1, block - 1, block, block + 1, rows):
            out = _matrix_product(alg, A[:size], B[:size], top)
            assert np.array_equal(out, single[:size]), (top, size)
            assert np.all(out[:, 1 << top:] == 0.0), (top, size)


def _kernel_pairs(alg, rng, rows=3):
    """Dense, sparse and mixed factor batches, the sparse ones reaching the top blade."""
    def dense():
        return rng.standard_normal((rows, alg.dim)) + 1j * rng.standard_normal((rows, alg.dim))

    def sparse():
        out = np.zeros((rows, alg.dim), dtype=np.complex128)
        width = min(alg.dim, 3)
        for r in range(rows):
            cols = rng.choice(alg.dim, size=width, replace=False)
            cols[0] = alg.dim - 1
            out[r, cols] = rng.standard_normal(width) + 1j * rng.standard_normal(width)
        return out
    return {"dense": (dense(), dense()), "sparse": (sparse(), sparse()),
            "mixed": (sparse(), dense()), "mixed_rev": (dense(), sparse())}


@pytest.mark.parametrize("n", range(1, 11))
def test_matrix_form_matches_sign_table(n):
    alg = make_algebra(n, 0.0, 1.0)
    rng = np.random.default_rng(100 + n)
    for kind, (A, B) in _kernel_pairs(alg, rng).items():
        want = _table_product(alg, A, B)
        tol = 1e-13 * (1.0 + np.abs(want).max())
        assert np.abs(_matrix_product(alg, A, B) - want).max() <= tol, kind
        assert np.abs(multiply_batch(alg, A, B) - want).max() <= tol, kind
        single = multiply(CliffordElement(alg, A[0]), CliffordElement(alg, B[0]))
        assert np.abs(single.coeffs - want[0]).max() <= tol, kind


@pytest.mark.parametrize("n", (1, 3, 4, 8))
def test_gathered_table_product_is_the_scatter_form_bit_for_bit(n):
    # both branches (fold over A's blades, fold over B's) and a 2^k prefix
    alg = make_algebra(n, 0.0, 1.0)
    rng = np.random.default_rng(300 + n)
    for kind, (A, B) in _kernel_pairs(alg, rng, rows=5).items():
        for width in {alg.dim, max(1, alg.dim // 2)}:
            X, Y = A[:, :width], B[:, :width]
            assert np.array_equal(_table_product(alg, X, Y),
                                  scatter_table_product(alg, X, Y)), (kind, width)


@pytest.mark.parametrize("n", (3, 8, 10))
def test_sparse_table_product_is_the_scatter_form_bit_for_bit(n, monkeypatch):
    # two distinct sparse supports of 1..200 blades, either factor the
    # sparser (both fold orders), on all blades and on half of them; one
    # folded blade per np.add.at chunk as well as the default chunks
    alg = make_algebra(n, 0.0, 1.0)
    rng = np.random.default_rng(500 + n)
    for entries in (clifford._PAIR_ENTRIES, 1):
        monkeypatch.setattr(clifford, "_PAIR_ENTRIES", entries)
        for width in (alg.dim, alg.dim // 2):
            sizes = sorted({min(s, width - 1) for s in (1, 2, 7, 16, 60, 200)})
            for size_a, size_b in zip(sizes, sizes[1:] + sizes[:1]):
                A, B = np.zeros((2, 4, width), dtype=np.complex128)
                for X, size in ((A, size_a), (B, size_b)):
                    cols = rng.choice(width, size=size, replace=False)
                    X[:, cols] = rng.standard_normal((4, size)) + 1j * rng.standard_normal((4, size))
                for X, Y in ((A, B), (B, A)):
                    assert np.array_equal(_table_product(alg, X, Y),
                                          scatter_table_product(alg, X, Y)), (width, size_a, size_b)


def test_adapted_products_stay_exactly_adapted():
    # the matrix form runs on the prefix subalgebra that holds both factors
    alg = make_algebra(8, 0.0, 1.0)
    rng = np.random.default_rng(47)
    for k in range(1, alg.n + 1):
        a = rand_element(alg, rng, adapted_at=k)
        b = rand_element(alg, rng, adapted_at=k)
        outside = ~alg.adapted_mask(k)
        assert np.all((a * b).coeffs[outside] == 0.0)
        batch = _matrix_product(alg, np.stack([a.coeffs, b.coeffs]),
                                np.stack([b.coeffs, a.coeffs]))
        assert np.all(batch[:, outside] == 0.0)


def test_dense_product_at_cap():
    alg = make_algebra(12, 0.0, 1.0)
    rng = np.random.default_rng(53)
    a, b = rand_element(alg, rng), rand_element(alg, rng)
    want = _table_product(alg, a.coeffs[None], b.coeffs[None])[0]
    assert np.abs((a * b).coeffs - want).max() <= 1e-13 * (1.0 + np.abs(want).max())


def _adapted_pair(alg, rng, k):
    """A dense and a 3-blade element adapted at k, the sparse one on blade 2^k - 1."""
    b = 1 << k
    dense = np.zeros(alg.dim, dtype=np.complex128)
    dense[:b] = rng.standard_normal(b) + 1j * rng.standard_normal(b)
    sparse = np.zeros(alg.dim, dtype=np.complex128)
    cols = rng.choice(b, size=min(b, 3), replace=False)
    cols[0] = b - 1
    sparse[cols] = rng.standard_normal(cols.size) + 1j * rng.standard_normal(cols.size)
    return {"dense": CliffordElement(alg, dense), "sparse": CliffordElement(alg, sparse)}


@pytest.mark.parametrize("n", range(1, 11))
def test_multiplication_blocks_match_multiply(n):
    # L h = a h and R h = h a on every prefix, for dense and sparse a and h
    alg = make_algebra(n, 0.0, 1.0)
    rng = np.random.default_rng(200 + n)
    for k in range(n + 1):
        b = 1 << k
        factors = _adapted_pair(alg, rng, k)
        for kind, a in factors.items():
            left, right = _multiplication_blocks(a, k)
            assert left.shape == right.shape == (b, b)
            for h in _adapted_pair(alg, rng, k).values():
                for got, want in ((left @ h.coeffs[:b], a * h), (right @ h.coeffs[:b], h * a)):
                    tol = 1e-12 * (1.0 + np.abs(want.coeffs).max())
                    assert np.abs(got - want.coeffs[:b]).max() <= tol, (kind, k)
                    assert np.all(want.coeffs[b:] == 0.0)
    if n > 1:
        with pytest.raises(SupportError):
            _multiplication_blocks(CliffordElement.generator(alg, n), n - 1)


@pytest.mark.parametrize("n", (1, 4, 7))
def test_table_product_on_a_prefix_matches_multiplication_matrix(n):
    # rows of 2^k blades: L_a @ M is the product of a with each column of M
    alg = make_algebra(n, 0.0, 1.0)
    rng = np.random.default_rng(300 + n)
    for k in range(n + 1):
        b = 1 << k
        block = rng.standard_normal((b, b)) + 1j * rng.standard_normal((b, b))
        scalar = CliffordElement.from_terms(alg, {0: 0.35 - 0.2j})
        for a in (scalar, *_adapted_pair(alg, rng, k).values()):
            want = _multiplication_blocks(a, k)[0] @ block
            got = _table_product(alg, np.broadcast_to(a.coeffs[:b], (b, b)), block.T).T
            assert np.abs(got - want).max() <= 1e-12 * (1.0 + np.abs(want).max())
        got = _table_product(alg, np.broadcast_to(scalar.coeffs[:b], (b, b)), block.T).T
        assert np.array_equal(got, scalar.coeffs[0] * block)


def test_row_dw_kernel_is_the_element_product():
    # rows times dW_k equal the kernel on each row alone bit for bit, and
    # the product with the increment element
    alg = make_algebra(5, 0.0, 2.0)
    rng = np.random.default_rng(31)
    rows = rng.standard_normal((7, alg.dim)) + 1j * rng.standard_normal((7, alg.dim))
    for k in range(1, alg.n + 1):
        dw, w = brownian_increment(alg, k), 1 << (k - 1)
        # rows adapted at step k-1, at their width 2^(k-1); images at 2^k
        right, left = _mul_dw(alg, rows[:, :w], k, "right"), _mul_dw(alg, rows[:, :w], k, "left")
        assert right.shape == left.shape == (len(rows), 2 * w)
        for i, row in enumerate(rows[:, :w]):
            a = CliffordElement(alg, _padded(alg, row))
            assert np.array_equal(right[i], _mul_dw(alg, row[None], k, "right")[0])
            assert np.array_equal(left[i], _mul_dw(alg, row[None], k, "left")[0])
            for got, want in ((right[i], (a * dw).coeffs), (left[i], (dw * a).coeffs)):
                assert np.allclose(got, want[:2 * w], atol=1e-14) and not want[2 * w:].any()
    with pytest.raises(ValueError):
        _mul_dw(alg, rows[:, :1 << (alg.n - 1)], alg.n + 1, "right")
    with pytest.raises(ValueError, match="shape"):
        _mul_dw(alg, rows, alg.n, "right")  # a row wider than its step


def test_row_norms_match_element_norm_bit_for_bit():
    rng = np.random.default_rng(32)
    for n in (2, 5, 8):
        alg = make_algebra(n, 0.0, 1.0)
        rows = rng.standard_normal((50, alg.dim)) + 1j * rng.standard_normal((50, alg.dim))
        rows[::3, alg.dim // 2:] = 0.0
        want = [CliffordElement(alg, row).norm() for row in rows]
        assert _row_norms(rows).tolist() == want


def test_gram_matrix_identity():
    alg = make_algebra(4, 0.0, 1.0)
    gram = np.empty((alg.dim, alg.dim), dtype=np.complex128)
    for s in range(alg.dim):
        es = CliffordElement.blade(alg, s)
        for t in range(alg.dim):
            gram[s, t] = state_m(star(es) * CliffordElement.blade(alg, t))
    assert np.allclose(gram, np.eye(alg.dim), atol=1e-14)


def test_two_sided_ito_isometry():
    alg = make_algebra(8, 0.0, 2.0)
    rng = np.random.default_rng(29)
    total = CliffordElement.zero(alg)
    acc = 0.0
    for k in range(alg.n):
        f = rand_element(alg, rng, adapted_at=k)
        g = rand_element(alg, rng, adapted_at=k)
        total = total + mul_dw(f, k + 1) + mul_dw(g, k + 1, "left")
        acc += alg.dt * (f + parity(g)).norm() ** 2
    assert total.norm() ** 2 == pytest.approx(acc, rel=1e-12)


def test_adapted_process_validation():
    alg = make_algebra(3, 0.0, 1.0)
    ok = [CliffordElement.unit(alg),
          CliffordElement.generator(alg, 1),
          CliffordElement.blade(alg, 0b11)]
    AdaptedProcess(alg, ok)
    bad = [CliffordElement.generator(alg, 2)] + ok[1:]
    with pytest.raises(SupportError):
        AdaptedProcess(alg, bad)


def test_cap_boundary_algebra_operations():
    # N = 12 is the default cap: element ops must stay usable there
    alg = make_algebra(12, 0.0, 1.0)
    assert alg.dim == 4096
    rng = np.random.default_rng(99)
    a = rand_element(alg, rng, adapted_at=6)
    dw = brownian_increment(alg, 7)
    left = mul_dw(a, 7)
    assert np.allclose(left.coeffs, (a * dw).coeffs, atol=1e-12)
    assert conditional_expectation(left, 6).norm() == 0.0
    y = martingale_coefficient(left, 6)
    assert np.allclose(y.coeffs, a.coeffs, atol=1e-14)


def test_sparse_dense_constructions_agree():
    alg = make_algebra(3, 0.0, 1.0)
    dense = np.zeros(alg.dim, dtype=complex)
    dense[0b011] = 2.5 - 1j
    dense[0b100] = 0.5
    a = CliffordElement(alg, dense)
    b = CliffordElement.from_terms(alg, {0b011: 2.5 - 1j, 0b100: 0.5})
    assert a == b


def test_superop_materialization_roundtrip():
    # pairing built from a random real-linear operator reproduces the operator
    from qsoc.clifford import SuperOperator, superop_from_pairing
    alg = make_algebra(3, 0.0, 1.0)
    rng = np.random.default_rng(31)
    lin = rng.standard_normal((alg.dim, alg.dim)) + 1j * rng.standard_normal((alg.dim, alg.dim))
    anti = rng.standard_normal((alg.dim, alg.dim)) + 1j * rng.standard_normal((alg.dim, alg.dim))
    op = SuperOperator(alg, lin, anti)
    got = superop_from_pairing(alg, op.pair, alg.dim)
    assert np.allclose(got.lin, lin, atol=1e-12)
    assert np.allclose(got.antilin, anti, atol=1e-12)
    # and the matrix action matches the pairing route on random vectors
    v = CliffordElement(alg, rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim))
    w = CliffordElement(alg, rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim))
    assert got.pair(v, w) == pytest.approx(op.pair(v, w), rel=1e-12)


def rand_block(rng, side):
    return rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))


@pytest.mark.parametrize("lin,anti", [
    ((4, 2), None),     # not square
    ((3, 3), None),     # side not a power of two
    ((16, 16), None),   # wider than dim = 8
    ((0, 0), None),     # empty
    ((4, 4), (2, 2)),   # conjugation block of another shape
])
def test_superop_rejects_malformed_blocks(lin, anti):
    from qsoc.clifford import SuperOperator
    alg = make_algebra(3, 0.0, 1.0)
    with pytest.raises(ValueError):
        SuperOperator(alg, np.ones(lin), None if anti is None else np.ones(anti))


def test_superop_nested_blocks_add_as_zero_padded_sum():
    from qsoc.clifford import SuperOperator
    alg = make_algebra(3, 0.0, 1.0)
    rng = np.random.default_rng(32)
    small = SuperOperator(alg, rand_block(rng, 2), rand_block(rng, 2))
    big = SuperOperator(alg, rand_block(rng, 4))
    padded = np.zeros((4, 4), dtype=np.complex128)
    padded[:2, :2] = small.antilin
    for total in (small + big, big + small):
        assert total.size == 4
        assert np.array_equal(total.lin[:2, :2], small.lin + big.lin[:2, :2])
        assert np.array_equal(total.lin[2:], big.lin[2:])
        assert np.array_equal(total.lin[:, 2:], big.lin[:, 2:])
        assert np.array_equal(total.antilin, padded)
    # the operands are left as they were
    assert big.antilin is None and small.size == 2


def test_superop_block_materialization_roundtrip():
    # an operator on the first b blades is reproduced from its pairing at side b
    from qsoc.clifford import SuperOperator, superop_from_pairing
    alg = make_algebra(3, 0.0, 1.0)
    rng = np.random.default_rng(33)
    for k in range(alg.n + 1):
        b = 1 << k
        op = SuperOperator(alg, rand_block(rng, b), rand_block(rng, b))
        probe = superop_from_pairing(alg, op.pair, b)
        assert probe.size == b
        assert np.allclose(probe.lin, op.lin, atol=1e-12)
        assert np.allclose(probe.antilin, op.antilin, atol=1e-12)


@pytest.mark.parametrize("n", range(1, 7))
def test_signed_permutation_oracle_is_the_dense_blade_sum(n):
    # to_matrix is sum_S a_S blade(S) to the bit, from_matrix the trace
    # pairing vdot(blade(S), M) / 2^n up to rounding
    alg = make_algebra(n, 0.0, 1.0)
    mr = realization_for(alg)
    blades = [pauli_blade(n, s) for s in range(alg.dim)]
    rng = np.random.default_rng(60 + n)
    for _ in range(3):
        a, b = rand_element(alg, rng), rand_element(alg, rng)
        a = CliffordElement(alg, np.where(rng.random(alg.dim) < 0.3, 0.0, a.coeffs))
        want = np.zeros((alg.dim, alg.dim), dtype=np.complex128)
        for s in np.nonzero(a.coeffs)[0]:
            want += a.coeffs[s] * blades[s]
        assert np.array_equal(mr.to_matrix(a), want)
        unit = [CliffordElement(alg, c.coeffs / c.norm()) for c in (a, b)]
        mat = mr.to_matrix(unit[0]) @ mr.to_matrix(unit[1])
        got = mr.from_matrix(alg, mat).coeffs
        assert np.abs(got - [np.vdot(e, mat) / alg.dim for e in blades]).max() <= 1e-15


def test_matrix_oracle_at_its_cap_holds_no_dense_blades():
    alg = make_algebra(8, 0.0, 1.0)
    mr = MatrixRealization(8)
    mat = mr.to_matrix(rand_element(alg, np.random.default_rng(8)))
    tracemalloc.start()
    try:
        mr.from_matrix(alg, mat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_matrix_oracle_equivalence():
    # multiply/star/state/inner/parity against the explicit realization
    rng = np.random.default_rng(41)
    for n in (2, 4, 6):
        alg = make_algebra(n, 0.0, 1.0)
        mr = realization_for(alg)
        pm = functools.reduce(np.kron, [np.diag([1.0, -1.0])] * n)  # Z x ... x Z
        for _ in range(6):
            a = rand_element(alg, rng)
            b = rand_element(alg, rng)
            am, bm = mr.to_matrix(a), mr.to_matrix(b)
            prod = mr.from_matrix(alg, am @ bm)
            assert np.allclose((a * b).coeffs, prod.coeffs, atol=1e-12)
            st_ = mr.from_matrix(alg, am.conj().T)
            assert np.allclose(star(a).coeffs, st_.coeffs, atol=1e-12)
            assert state_m(a) == pytest.approx(mr.state(am), abs=1e-12)
            assert inner(a, b) == pytest.approx(mr.inner(am, bm), abs=1e-12)
            par = mr.from_matrix(alg, pm @ am @ pm)
            assert np.allclose(parity(a).coeffs, par.coeffs, atol=1e-12)
