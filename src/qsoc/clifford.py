"""Finite Clifford probability space on a uniform time grid.

One self-adjoint anticommuting generator ``e_g`` (g = 1..n) is attached to each
grid cell ``[t_{g-1}, t_g]``; the normalized noise increment over that cell is
``sqrt(dt) * e_g``.  Elements are stored as dense coefficient vectors over the
2^n blade basis, with blades encoded as bitmasks (bit g-1 set <=> generator g
present).  The trace state is the coefficient of the empty blade, under which
the blades are orthonormal, so the L2 geometry of coefficient space coincides
with the noncommutative L2 geometry of the algebra.

Conventions used throughout:

- blade product: ``e_S e_T = sign(S, T) e_{S xor T}`` with
  ``sign(S, T) = (-1)**#{(i, j): i in S, j in T, i > j}`` and ``e_g**2 = I``;
- star involution: conjugate coefficients, blades picking up the reversal
  sign ``(-1)**(|S|(|S|-1)/2)``;
- parity: blades scale by ``(-1)**|S|``;
- inner product ``<a, b> = m(star(a) b)``, conjugate-linear in the first slot;
- an element is adapted at step k iff every blade mask is ``< 2**k``.

Products have two routes.  The sign-table loop (``_table_product``) passes
once over one factor per live blade of the other; it is the reference that
tests compare against.  The matrix form (``_matrix_product``) uses the
Jordan-Wigner realization on ceil(n/2) qubits, generator 2j+1 as
``Z^{<j} X_j`` and 2j+2 as ``Z^{<j} Y_j``: coefficients become 2^q x 2^q
matrices through O(2^n) tables and one Walsh-Hadamard matmul, the matrices
multiply, and the same route maps back.  It runs on the smallest prefix
subalgebra holding both factors, so blades beyond it stay exactly zero.
``multiply`` and ``multiply_batch`` choose by the live-blade count of the
sparser factor (``_product``).

Operators built from products, such as the derivatives of a channel
``h -> c (x h + h x)``, do not probe blades: ``_multiplication_blocks``
writes the left and right multiplication matrices of an adapted element on
the first 2^k blades straight from the sign table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .config import DEFAULT_GENERATOR_CAP
from .errors import AlgebraMismatchError, CapacityError, SupportError

__all__ = [
    "CliffordAlgebra",
    "CliffordElement",
    "AdaptedProcess",
    "SuperOperator",
    "make_algebra",
    "multiply",
    "multiply_batch",
    "star",
    "state_m",
    "inner",
    "parity",
    "conditional_expectation",
    "brownian_increment",
    "martingale_coefficient",
]


class CliffordAlgebra:
    """Immutable algebra context: n generators over the grid [t0, T].

    Multiplication tables are built lazily and cached; all cached arrays are
    read-only, so a single instance can be shared freely.
    """

    def __init__(self, n_generators: int, t0: float, T: float,
                 cap: int = DEFAULT_GENERATOR_CAP):
        if n_generators < 1:
            raise ValueError(f"need at least one generator, got {n_generators}")
        if n_generators > cap:
            raise CapacityError(
                f"n_generators={n_generators} exceeds cap {cap} "
                f"(coefficient space would have 2**{n_generators} dimensions)")
        if not T > t0:
            raise ValueError(f"need T > t0, got t0={t0}, T={T}")
        self.n = int(n_generators)
        self.t0 = float(t0)
        self.T = float(T)
        self.dt = (self.T - self.t0) / self.n
        self.dim = 1 << self.n
        self._masks = np.arange(self.dim, dtype=np.int64)
        grades = np.bitwise_count(self._masks).astype(np.int64)
        self.grades = grades
        self.parity_signs = np.where(grades & 1, -1.0, 1.0)
        self.reversal_signs = np.where((grades * (grades - 1) // 2) & 1, -1.0, 1.0)
        self._sign_table = None
        self._gen_sign_cache: dict[tuple[str, int], np.ndarray] = {}
        self._slot_form_cache: dict[int, tuple] = {}
        for arr in (self._masks, self.grades, self.parity_signs, self.reversal_signs):
            arr.flags.writeable = False

    def time(self, k: int) -> float:
        """Grid time t_k = t0 + k*dt."""
        return self.t0 + k * self.dt

    def adapted_mask(self, k: int) -> np.ndarray:
        """Boolean mask selecting blades supported in generators 1..k."""
        if not 0 <= k <= self.n:
            raise ValueError(f"step index {k} outside 0..{self.n}")
        return self._masks < (1 << k)

    @property
    def sign_table(self) -> np.ndarray:
        """Full (dim, dim) product sign table, sign_table[S, T] = sign(S, T)."""
        if self._sign_table is None:
            bits = ((self._masks[:, None] >> np.arange(self.n)) & 1).astype(np.int16)
            # above[S, b] = #{i in S : i > b+1-th generator} = popcount(S >> (b+1))
            above = np.bitwise_count(
                self._masks[:, None] >> (np.arange(self.n) + 1)).astype(np.int16)
            swaps = above @ bits.T
            table = np.where(swaps & 1, np.int8(-1), np.int8(1))
            table.flags.writeable = False
            self._sign_table = table
        return self._sign_table

    def _matrix_form(self, q: int) -> tuple:
        """Tables of the Jordan-Wigner matrix form of 2q generators on q qubits.

        Generator 2j+1 is ``Z^{<j} X_j`` and 2j+2 is ``Z^{<j} Y_j``
        (``Y = iXZ``), so blade S is ``i**p_S X^{x_S} Z^{z_S}``, stored at
        Pauli slot ``x_S * s + z_S`` (s = 2^q); a prefix of fewer generators
        uses the first blades.  Returns ``(slot, phase, blade_at, perm, had)``:
        per blade its slot and phase ``i**p_S``, per slot its blade, the
        involution ``x*s + j <-> (x^j)*s + j`` that moves ``T[x, j]`` to
        matrix entry ``(j^x, j)``, and the s x s Walsh-Hadamard signs
        ``had[z, j] = (-1)**|z & j|``.
        """
        s = 1 << q
        masks = np.arange(s * s, dtype=np.int64)
        x = np.zeros(s * s, dtype=np.int64)
        z = np.zeros(s * s, dtype=np.int64)
        p = np.zeros(s * s, dtype=np.int64)
        # blade(S) = e_low(S) blade(S ^ low): fill the highest lowest-bits first;
        # X^x1 Z^z1 X^x2 Z^z2 = (-1)**|z1 & x2| X^(x1^x2) Z^(z1^z2)
        for b in range(2 * q - 1, -1, -1):
            sel = masks[(masks & ((1 << (b + 1)) - 1)) == (1 << b)]
            rest = sel ^ (1 << b)
            j = b >> 1
            gx, gz, gp = 1 << j, ((1 << j) - 1) | ((b & 1) << j), b & 1
            x[sel] = gx ^ x[rest]
            z[sel] = gz ^ z[rest]
            p[sel] = (gp + p[rest] + 2 * np.bitwise_count(gz & x[rest])) & 3
        cols = np.arange(s, dtype=np.int64)
        slot = x * s + z
        phase = np.array([1, 1j, -1, -1j], dtype=np.complex128)[p]
        perm = ((cols[:, None] ^ cols[None, :]) * s + cols[None, :]).reshape(-1)
        had = np.where(np.bitwise_count(cols[:, None] & cols[None, :]) & 1,
                       -1.0, 1.0).astype(np.complex128)
        return slot, phase, np.argsort(slot), perm, had

    def _slot_form(self, top: int) -> tuple:
        """Cached :meth:`_matrix_form` tables of the first ``top`` generators,
        ``(gather, gather_phase, slot, back_phase, perm, had)``: generator 2q
        alone holds ``Z_{q-1}``, so an odd ``top`` fills only the matrix
        columns z < s/2, and ``gather`` holds the blade at each filled entry."""
        cached = self._slot_form_cache.get(top)
        if cached is None:
            slot, phase, blade_at, perm, had = self._matrix_form((top + 1) // 2)
            gather = blade_at.reshape(len(had), -1)[:, :len(had) >> (top & 1)]
            cached = (gather, phase[gather], slot[:1 << top],
                      np.conj(phase[:1 << top]) / len(had), perm, had)
            for arr in cached:
                arr.flags.writeable = False
            self._slot_form_cache[top] = cached
        return cached

    def _gen_signs(self, side: str, g: int) -> np.ndarray:
        """Sign vector for one-generator products.

        ``right``: a e_g picks up (-1)**#{i in S: i > g};
        ``left``:  e_g a picks up (-1)**#{i in S: i < g}.
        """
        key = (side, g)
        cached = self._gen_sign_cache.get(key)
        if cached is not None:
            return cached
        if side == "right":
            count = np.bitwise_count(self._masks >> g)
        else:
            count = np.bitwise_count(self._masks & ((1 << (g - 1)) - 1))
        signs = np.where(count & 1, -1.0, 1.0)
        signs.flags.writeable = False
        self._gen_sign_cache[key] = signs
        return signs

    def __repr__(self):
        return f"CliffordAlgebra(n={self.n}, t0={self.t0}, T={self.T})"


def make_algebra(n: int, t0: float, T: float,
                 cap: int = DEFAULT_GENERATOR_CAP) -> CliffordAlgebra:
    """Build the n-step algebra context on [t0, T]."""
    return CliffordAlgebra(n, t0, T, cap=cap)


@dataclass(frozen=True)
class CliffordElement:
    """Dense blade-coefficient vector over an algebra's 2^n basis."""

    algebra: CliffordAlgebra
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.shape != (self.algebra.dim,):
            raise ValueError(f"coefficient vector must have shape ({self.algebra.dim},)")
        object.__setattr__(self, "coeffs", c)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(algebra: CliffordAlgebra) -> "CliffordElement":
        return CliffordElement(algebra, np.zeros(algebra.dim, dtype=np.complex128))

    @staticmethod
    def unit(algebra: CliffordAlgebra) -> "CliffordElement":
        c = np.zeros(algebra.dim, dtype=np.complex128)
        c[0] = 1.0
        return CliffordElement(algebra, c)

    @staticmethod
    def blade(algebra: CliffordAlgebra, mask: int, coeff: complex = 1.0) -> "CliffordElement":
        if not 0 <= mask < algebra.dim:
            raise ValueError(f"blade mask {mask} outside 0..{algebra.dim - 1}")
        c = np.zeros(algebra.dim, dtype=np.complex128)
        c[mask] = coeff
        return CliffordElement(algebra, c)

    @staticmethod
    def generator(algebra: CliffordAlgebra, g: int) -> "CliffordElement":
        if not 1 <= g <= algebra.n:
            raise ValueError(f"generator index {g} outside 1..{algebra.n}")
        return CliffordElement.blade(algebra, 1 << (g - 1))

    @staticmethod
    def from_terms(algebra: CliffordAlgebra,
                   terms: Mapping[int, complex] | Iterable[tuple[int, complex]]) -> "CliffordElement":
        """Build from a sparse {mask: coefficient} map; omitted blades are zero."""
        c = np.zeros(algebra.dim, dtype=np.complex128)
        items = terms.items() if isinstance(terms, Mapping) else terms
        for mask, coeff in items:
            if not 0 <= int(mask) < algebra.dim:
                raise ValueError(f"blade mask {mask} outside 0..{algebra.dim - 1}")
            c[int(mask)] += coeff
        return CliffordElement(algebra, c)

    # -- linear structure --------------------------------------------------

    def _check_same(self, other: "CliffordElement"):
        if self.algebra is not other.algebra:
            raise AlgebraMismatchError("operands belong to different algebra contexts")

    def __add__(self, other):
        self._check_same(other)
        return CliffordElement(self.algebra, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check_same(other)
        return CliffordElement(self.algebra, self.coeffs - other.coeffs)

    def __neg__(self):
        return CliffordElement(self.algebra, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, CliffordElement):
            return multiply(self, other)
        return CliffordElement(self.algebra, self.coeffs * complex(other))

    def __rmul__(self, scalar):
        return CliffordElement(self.algebra, self.coeffs * complex(scalar))

    def __eq__(self, other):
        if not isinstance(other, CliffordElement):
            return NotImplemented
        return self.algebra is other.algebra and np.array_equal(self.coeffs, other.coeffs)

    # -- queries -----------------------------------------------------------

    def is_adapted(self, k: int, tol: float = 0.0) -> bool:
        """Whether every coefficient off the step-k blades, the first 2^k, is at most tol."""
        if not 0 <= k <= self.algebra.n:
            raise ValueError(f"step index {k} outside 0..{self.algebra.n}")
        outside = self.coeffs[1 << k:]
        if outside.size == 0:
            return True
        return float(np.max(np.abs(outside))) <= tol

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def __repr__(self):
        nz = np.nonzero(self.coeffs)[0][:6]
        body = ", ".join(f"{int(m):#06b}: {self.coeffs[m]:.4g}" for m in nz)
        return f"CliffordElement({body}{'...' if np.count_nonzero(self.coeffs) > 6 else ''})"


# -- algebra operations ----------------------------------------------------

def _table_product(alg: CliffordAlgebra, A: np.ndarray, B: np.ndarray,
                   live_a: np.ndarray | None = None,
                   live_b: np.ndarray | None = None) -> np.ndarray:
    """Row-wise product by the sign table: the reference implementation.

    Iterates over the live blade columns of the sparser factor (computed
    when not given); blade S of ``A`` adds ``A_S * sign(S, S ^ u) * B_{S ^ u}``
    to every mask u, an in-place add of gathered columns (xor with S is a
    permutation, so each target receives one term per S).  Rows may hold
    any prefix of 2^k blades: the prefix is closed under xor.
    """
    width = A.shape[1]
    masks, table = alg._masks[:width], alg.sign_table[:width, :width]
    out = np.zeros(A.shape, dtype=np.complex128)
    if live_a is None:
        live_a = np.nonzero(np.any(A, axis=0))[0]
    if live_b is None:
        live_b = np.nonzero(np.any(B, axis=0))[0]
    if live_b.size < live_a.size:
        # e_S e_T = sign(S,T) e_{S^T}; fold over T instead when B is sparser.
        for t in live_b:
            src = masks ^ t
            out += (A[:, src] * table[src, t]) * B[:, t, None]
        return out
    for s in live_a:
        src = s ^ masks
        out += A[:, s, None] * (table[s, src] * B[:, src])
    return out


def _block_rows(s: int) -> int:
    """Rows per block of :func:`_matrix_product` for s x s matrices."""
    return max(8, 2**15 // s**3)


def _matrix_product(alg: CliffordAlgebra, A: np.ndarray, B: np.ndarray,
                    top: int | None = None) -> np.ndarray:
    """Row-wise product through the Jordan-Wigner matrix form.

    Runs on the subalgebra of the first ``top`` generators (default: the
    smallest that holds both factors), so blades outside it stay exactly
    zero: an adapted product stays exactly adapted.  In blocks of rows,
    coefficients go to 2^q x 2^q matrices (q = ceil(top/2)) by a phased
    gather into slot order, one flat Walsh-Hadamard matmul and a fixed
    permutation; the way back is the same route divided by 2^q with
    conjugate phases.  Slots with no blade (odd top) stay exact zeros.
    """
    if top is None:
        live = np.nonzero(np.any(A, axis=0) | np.any(B, axis=0))[0]
        top = int(live[-1]).bit_length() if live.size else 0
    gather, gather_phase, slot, back_phase, perm, had = alg._slot_form(top)
    s = len(had)
    # OpenBLAS splits a complex GEMM of about 2^16 multiply-adds over two
    # threads, which on a busy 2-core host can wait milliseconds; 2^15/s^3
    # rows keep the flat Hadamard GEMM on one (8 rows from s = 32 bound the
    # loop overhead).  Rows never mix, so the block size changes no bit.
    block = _block_rows(s)
    out = np.zeros(A.shape, dtype=np.complex128)
    for r in range(0, len(A), block):
        mats = []
        for X in (A[r:r + block], B[r:r + block]):
            T = np.zeros((len(X), s, s), dtype=np.complex128)
            np.multiply(X.take(gather, axis=1), gather_phase, out=T[:, :, :gather.shape[1]])
            T = (T.reshape(-1, s) @ had).reshape(-1, s * s)
            mats.append(T.take(perm, axis=1).reshape(-1, s, s))
        prod = (mats[0] @ mats[1]).reshape(-1, s * s)
        back = (prod.take(perm, axis=1).reshape(-1, s) @ had).reshape(-1, s * s)
        np.multiply(back.take(slot, axis=1), back_phase, out=out[r:r + block, :len(slot)])
    return out


def _product(alg: CliffordAlgebra, A: np.ndarray, B: np.ndarray,
             live_a: np.ndarray, live_b: np.ndarray) -> np.ndarray:
    """Row-wise product given the sorted live blade columns of both factors.

    The sign-table loop makes one pass over the other factor per live blade
    of the sparser one; the matrix form costs about two dozen array
    operations per row block plus one 2^q x 2^q matmul per row.  It is used
    when the sparser factor has more than 6 live blades.  On a 2-core Xeon
    the two break even at 3-7 live blades for one row (10-20 at n = 11) and
    at 2-7 for 250 rows, 4 <= n <= 12; a lower threshold changes rounding.
    """
    if min(live_a.size, live_b.size) <= 6:
        return _table_product(alg, A, B, live_a, live_b)
    return _matrix_product(alg, A, B, int(max(live_a[-1], live_b[-1])).bit_length())


def _multiplication_blocks(a: CliffordElement, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Matrices of h -> a h and h -> h a on the first 2^k blades.

    ``L[s^t, t] = a_s sign(s, t)`` and ``R[t^s, t] = a_s sign(t, s)``, one
    scatter from the sign table.  The prefix is closed under xor, so for
    ``a`` adapted at step k the (2^k, 2^k) blocks are the whole operators
    on the step-k subspace.
    """
    if not a.is_adapted(k):
        raise SupportError(f"multiplier not adapted at step {k}")
    b = 1 << k
    table = a.algebra.sign_table[:b, :b]
    idx = np.arange(b)
    rows = idx[:, None] ^ idx[None, :]  # entry (s, t) goes to row s ^ t of column t
    coeffs = a.coeffs[:b, None]
    left = np.zeros((b, b), dtype=np.complex128)
    right = np.zeros((b, b), dtype=np.complex128)
    left[rows, idx] = coeffs * table
    right[rows, idx] = coeffs * table.T
    return left, right


def multiply(a: CliffordElement, b: CliffordElement) -> CliffordElement:
    """Clifford product a b (sign table or matrix form, see :func:`_product`)."""
    a._check_same(b)
    alg = a.algebra
    out = _product(alg, a.coeffs[None], b.coeffs[None],
                   np.nonzero(a.coeffs)[0], np.nonzero(b.coeffs)[0])
    return CliffordElement(alg, out[0])


def multiply_batch(alg: CliffordAlgebra, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Row-wise Clifford product of coefficient batches, shape (batch, dim).

    Used by the bulk law-verification suites; semantically identical to
    ``multiply`` row by row, with the same dispatch (:func:`_product`) on the
    live blade columns of the two batches.
    """
    A = np.asarray(A, dtype=np.complex128)
    B = np.asarray(B, dtype=np.complex128)
    if A.shape != B.shape or A.ndim != 2 or A.shape[1] != alg.dim:
        raise ValueError("batches must share shape (batch, dim)")
    return _product(alg, A, B, np.nonzero(np.any(A, axis=0))[0],
                    np.nonzero(np.any(B, axis=0))[0])


def star(a: CliffordElement) -> CliffordElement:
    """Adjoint involution: conjugate-linear, fixes generators, reverses blades."""
    return CliffordElement(a.algebra, np.conj(a.coeffs) * a.algebra.reversal_signs)


def state_m(a: CliffordElement) -> complex:
    """Trace state: coefficient of the empty blade."""
    return complex(a.coeffs[0])


def inner(a: CliffordElement, b: CliffordElement) -> complex:
    """L2 inner product m(star(a) b); blades are orthonormal."""
    a._check_same(b)
    return complex(np.vdot(a.coeffs, b.coeffs))


def parity(a: CliffordElement) -> CliffordElement:
    """Grading automorphism: blades scale by (-1)**grade."""
    return CliffordElement(a.algebra, a.coeffs * a.algebra.parity_signs)


def conditional_expectation(a: CliffordElement, k: int) -> CliffordElement:
    """Trace-preserving projection onto the subalgebra of the first k generators."""
    keep = a.algebra.adapted_mask(k)
    return CliffordElement(a.algebra, np.where(keep, a.coeffs, 0.0))


def brownian_increment(alg: CliffordAlgebra, k: int) -> CliffordElement:
    """Noise increment over the k-th cell: sqrt(dt) e_k, so its square is dt*I."""
    if not 1 <= k <= alg.n:
        raise ValueError(f"increment index {k} outside 1..{alg.n}")
    return CliffordElement.blade(alg, 1 << (k - 1), np.sqrt(alg.dt))


def _mul_dw(alg: CliffordAlgebra, rows: np.ndarray, k: int, side: str) -> np.ndarray:
    """Rows times dW_k (``side="right"``) or dW_k times rows (``"left"``).

    One signed permutation of the coefficient columns, shape (B, dim) in and
    out; the increment element is never materialized.  Column s moves to
    s ^ bit, which swaps the two halves of every aligned run of 2 * bit
    columns: two strided copies instead of a scatter.
    """
    if not 1 <= k <= alg.n:
        raise ValueError(f"generator index {k} outside 1..{alg.n}")
    bit = 1 << (k - 1)
    signed = (rows * alg._gen_signs(side, k)).reshape(len(rows), -1, 2, bit)
    out = np.empty(signed.shape, dtype=np.complex128)
    out[:, :, 0] = signed[:, :, 1]
    out[:, :, 1] = signed[:, :, 0]
    return out.reshape(rows.shape) * np.sqrt(alg.dt)


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """L2 norm of each coefficient row, equal bit for bit to ``CliffordElement.norm``.

    ``np.linalg.norm`` of one vector sums the real and imaginary squares by
    two BLAS dot products; ``vecdot`` makes the same dot call per row.
    """
    return np.sqrt(np.vecdot(rows.real, rows.real) + np.vecdot(rows.imag, rows.imag))


def martingale_coefficient(f: CliffordElement, k: int) -> CliffordElement:
    """Unique adapted Y with f = E_k f + Y dW_{k+1}, for f supported in 1..k+1.

    Blade S containing generator k+1 contributes coeff(S)/sqrt(dt) to blade
    S \\ {k+1}; appending the top generator inside the product costs no sign.
    """
    alg = f.algebra
    if not 0 <= k <= alg.n - 1:
        raise ValueError(f"step index {k} outside 0..{alg.n - 1}")
    if not f.is_adapted(k + 1):
        raise SupportError(f"element not supported in generators 1..{k + 1}")
    bit = 1 << k
    out = np.zeros(alg.dim, dtype=np.complex128)
    src = np.nonzero((alg._masks & bit) != 0)[0]
    out[src ^ bit] = f.coeffs[src] / np.sqrt(alg.dt)
    return CliffordElement(alg, out)


# -- processes -------------------------------------------------------------

class AdaptedProcess:
    """Time-indexed element sequence with value at t_k adapted at step k."""

    def __init__(self, algebra: CliffordAlgebra, values: Iterable[CliffordElement],
                 tol: float = 0.0):
        self.algebra = algebra
        self.values = list(values)
        for i, v in enumerate(self.values):
            if v.algebra is not algebra:
                raise AlgebraMismatchError(f"value {i} on a different algebra")
            if not v.is_adapted(min(i, algebra.n), tol):
                raise SupportError(f"value {i} not adapted at step {i}")

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i) -> CliffordElement:
        return self.values[i]

    def __iter__(self):
        return iter(self.values)


# -- superoperators --------------------------------------------------------

@dataclass
class SuperOperator:
    """Real-linear operator v -> lin v + antilin conj(v) on the first blades.

    It acts on the first ``size = len(lin)`` blade coordinates, a power of
    two at most dim, and is zero beyond them: the step-k operators live on
    the step-k adapted subspace, the first 2^k blades.  Operators coming from
    sesquilinear forms are plain complex matrices (``antilin is None``).
    Second derivatives of quadratic-in-state coefficient maps are
    complex-bilinear rather than sesquilinear, and those materialize with a
    pure conjugation block.
    """

    algebra: CliffordAlgebra
    lin: np.ndarray
    antilin: np.ndarray | None = None

    def __post_init__(self):
        self.lin = np.asarray(self.lin, dtype=np.complex128)
        size = self.size
        if self.lin.shape != (size, size) or size & (size - 1) or not 0 < size <= self.algebra.dim:
            raise ValueError(f"matrix must be square with a power-of-two side at most "
                             f"{self.algebra.dim}, got shape {self.lin.shape}")
        if self.antilin is not None:
            self.antilin = np.asarray(self.antilin, dtype=np.complex128)
            if self.antilin.shape != self.lin.shape:
                raise ValueError(f"conjugation block must have shape {self.lin.shape}")

    @property
    def size(self) -> int:
        return len(self.lin)

    @staticmethod
    def zero(algebra: CliffordAlgebra) -> "SuperOperator":
        d = algebra.dim
        return SuperOperator(algebra, np.zeros((d, d), dtype=np.complex128))

    @staticmethod
    def identity(algebra: CliffordAlgebra, scale: complex = 1.0) -> "SuperOperator":
        return SuperOperator(algebra, scale * np.eye(algebra.dim, dtype=np.complex128))

    def gram(self, V: np.ndarray, W: np.ndarray) -> np.ndarray:
        """Pairings <P v_a, w_b> of two coefficient stacks (rows), shape (A, B).

        Only the leading ``size`` columns of the rows enter.
        """
        V, W = V[:, :self.size], W[:, :self.size]
        pv = V @ self.lin.T
        if self.antilin is not None:
            pv = pv + np.conj(V) @ self.antilin.T
        return np.conj(pv) @ W.T

    def pair(self, v: CliffordElement, w: CliffordElement) -> complex:
        """Complex pairing <P v, w>."""
        return complex(self.gram(v.coeffs[None], w.coeffs[None])[0, 0])

    def __add__(self, other: "SuperOperator") -> "SuperOperator":
        """Sum of two operators on nested blocks, on the larger block."""
        big, small = (self, other) if self.size >= other.size else (other, self)
        b = small.size
        lin = big.lin.copy()
        lin[:b, :b] += small.lin
        anti = None
        if big.antilin is not None or small.antilin is not None:
            anti = np.zeros_like(lin) if big.antilin is None else big.antilin.copy()
            if small.antilin is not None:
                anti[:b, :b] += small.antilin
        return SuperOperator(self.algebra, lin, anti)

    def scaled(self, c: float) -> "SuperOperator":
        anti = None if self.antilin is None else c * self.antilin
        return SuperOperator(self.algebra, c * self.lin, anti)


def superop_from_pairing(alg: CliffordAlgebra, pair, size: int) -> SuperOperator:
    """Materialize the operator M on the first ``size`` blades with <M v, w> = pair(v, w).

    ``pair`` must be additive and real-homogeneous in each slot (any mix of
    sesquilinear and bilinear parts is fine).  The column of a probe v is its
    Riesz representative, conj(pair(v, e_s)) over s < size.  Probing each
    basis blade and its i-multiple splits the operator into the
    complex-linear block and the conjugation block; a conjugation block that
    comes out identically zero is dropped.
    """
    blades = [CliffordElement.blade(alg, s) for s in range(size)]
    lin = np.zeros((size, size), dtype=np.complex128)
    anti = np.zeros((size, size), dtype=np.complex128)
    for r in range(size):
        col = np.conj([pair(blades[r], e) for e in blades])
        col_i = np.conj([pair(CliffordElement.blade(alg, r, 1j), e) for e in blades])
        lin[:, r] = 0.5 * (col - 1j * col_i)
        anti[:, r] = 0.5 * (col + 1j * col_i)
    if not np.any(anti):
        return SuperOperator(alg, lin)
    return SuperOperator(alg, lin, anti)
