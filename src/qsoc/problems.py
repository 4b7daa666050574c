"""Control problems: coefficient maps, derivative callbacks, cost.

A problem bundles the three coefficient channels of the state equation (drift,
left diffusion, right diffusion), the running and terminal costs, and every
first/second derivative the adjoint machinery consumes.  Controls live in R^m
constrained to a box; control paths are arrays of shape (N, m), piecewise
constant on grid cells.

Derivative callback conventions
-------------------------------
For a coefficient channel ``C`` in {D, F, G} (element-valued):

- ``C_x(k, x, u)``  -> complex-linear map, called as ``fn(h) -> element``
- ``C_u(k, x, u)``  -> real-linear map, ``fn(v: (m,) array) -> element``
- ``C_xx(k, x, u)`` -> symmetric bilinear, ``fn(h1, h2) -> element`` (None if zero)
- ``C_xu(k, x, u)`` -> ``fn(h, v) -> element`` (None if zero)
- ``C_uu(k, x, u)`` -> symmetric bilinear, ``fn(v, w) -> element`` (None if zero)

For the scalar costs (L real-valued, g real-valued):

- ``L_x`` returns the element representing the derivative through
  ``dL(h) = Re<L_x, h>``; ``L_u`` returns a real (m,) array;
- ``L_xx(k, x, u)`` -> ``fn(v, w) -> complex`` whose real part is the second
  derivative form (conjugate-linear in v for the sesquilinear gallery costs);
- ``L_xu(k, x, u)`` -> ``fn(h, v) -> complex`` (None if zero);
- ``L_uu(k, x, u)`` -> real (m, m) array;
- ``g_x(x) -> element``; ``g_xx(x) -> fn(v, w) -> complex`` as for L_xx.

Coefficient elements supplied to the gallery are truncated to the live
subalgebra at each step (an explicit, admissible time dependence), which keeps
every channel adapted regardless of the supplied blades.

Operator hooks
--------------
``curvature(k, x, u, yhat, Y)`` returns a materialized ``SuperOperator`` on
the step-k subspace, i.e. of side 2^k.  For k < N it is the state curvature
M_k of the Hamiltonian, the operator of :func:`hxx_pairing`, or None when
M_k is identically zero.  For k = N (u, yhat and Y unused) it is the
terminal curvature g_xx(x) itself on all dim blades, with the cost's sign;
the second adjoint starts from its negative, P_N = -g_xx.

``state_derivatives(k, x, u)`` returns the (2^k, 2^k) matrices
``(Dx_k, Bt_k)`` of ``D_x`` and ``F_x + parity o G_x`` frozen at (x, u) on
the step-k subspace, which is the first 2^k blades.

Every problem has both, and the solvers only ever call them.  Gallery
problems build them as left and right multiplication matrices.  A hook left
unset, or inherited through ``dataclasses.replace``, is derived from the
problem's callbacks by probing blade by blade; every hook below follows the
same rule.  The Hamiltonian's second derivatives (:func:`hxx_pairing`,
:func:`hxu_pairing`, :func:`huu_matrix`) are one weighted sum over the
callbacks of one slot.

Row hooks
---------
``coefficient_rows(k, X, U)`` and ``cost_rows(k, X, U)`` evaluate the problem
on row stacks at the step's width: X is a (B, 2^k) block of states, U the
(B, m) controls at step k.  The first returns the (B, 2^k) stacks of D, F
and G; the second the (B,) running costs L, or for k = N (U unused) the
terminal costs g.  The state solve runs through them alone.  Gallery
problems build them from their channel and cost data, and ``D``, ``F``,
``G``, ``L`` and ``g`` are their one-row views; derived ones make one
callback call per row, padded to dim blades, and cut its values (:func:`_cut`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .clifford import (
    CliffordAlgebra,
    CliffordElement,
    SuperOperator,
    _multiplication_blocks,
    _padded,
    _product,
    _row_norms,
    _table_product,
    conditional_expectation,
    inner,
    parity,
    star,
    superop_from_pairing,
)
from .config import GALLERY_NAMES, ProblemSpec, Terms
from .errors import AdaptednessError, SupportError

__all__ = [
    "ControlSet",
    "ProblemSpec",
    "ControlProblem",
    "make_problem",
    "cost",
    "hxx_pairing",
    "hxu_pairing",
    "huu_matrix",
]


@dataclass(frozen=True)
class ControlSet:
    """Box constraint set in R^m; +-inf bounds allowed."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("bounds must be 1-d arrays of equal length")
        if np.any(np.isnan(lo)) or np.any(np.isnan(hi)):
            raise ValueError("bounds must not be NaN")
        if np.any(lo > hi):
            raise ValueError("lower bound exceeds upper bound")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def m(self) -> int:
        return self.lower.size

    def project(self, u: np.ndarray) -> np.ndarray:
        return np.clip(u, self.lower, self.upper)

    def contains(self, u: np.ndarray, tol: float = 1e-12) -> bool:
        u = np.asarray(u, dtype=float)
        return bool(np.all(u >= self.lower - tol) and np.all(u <= self.upper + tol))

    def is_bounded(self) -> bool:
        return bool(np.all(np.isfinite(self.lower)) and np.all(np.isfinite(self.upper)))


def _terms_to_element(alg: CliffordAlgebra, terms: Terms | None) -> CliffordElement | None:
    if terms is None:
        return None
    return CliffordElement.from_terms(alg, [(mask, re + 1j * im) for mask, re, im in terms])


def _square_rows(alg: CliffordAlgebra, X: np.ndarray) -> np.ndarray:
    """X X row by row for a (B, 2^k) stack of states."""
    live = np.arange(X.shape[1])
    return _product(alg, X, X, live, live)


def _row(k: int, x: CliffordElement) -> np.ndarray:
    """The (1, 2^k) stack of a state adapted at step k, for the one-row views."""
    if not x.is_adapted(k):
        raise SupportError(f"state not adapted at step {k}")
    return x.coeffs[None, :1 << k]


def _cut(k: int, rows: np.ndarray, what: str) -> np.ndarray:
    """Callback rows (B, dim) at the step-k width 2^k, each adapted up to 1e-12 (1 + its norm).

    An exactly-zero leak passes even when the norm has overflowed, so
    overflow reaches the costs as non-finite instead of raising.
    """
    leak = np.abs(rows[:, 1 << k:]).max(axis=1, initial=0.0)
    if leak.any() and not np.all((leak == 0) | (leak <= 1e-12 * (1 + _row_norms(rows)))):
        raise AdaptednessError(f"{what} produced a non-adapted element at step {k}")
    return rows[:, :1 << k]


class _Channel:
    """One coefficient channel: rate*x + sum u_i b_i + sum u_i^2 c_i + q x x.

    Supplied elements are truncated to the step-k subalgebra before use; the
    truncated lists are built once, indexed by step k in 0..N.
    """

    def __init__(self, alg: CliffordAlgebra, rate: float,
                 lin_u: list[CliffordElement] | None,
                 sq_u: list[CliffordElement] | None,
                 quad_x: CliffordElement | None):
        self.alg = alg
        self.rate = rate
        steps = range(alg.n + 1)
        self.lin = [[conditional_expectation(e, k) for e in lin_u or ()] for k in steps]
        self.sq = [[conditional_expectation(e, k) for e in sq_u or ()] for k in steps]
        self.quad = None if quad_x is None else [conditional_expectation(quad_x, k) for k in steps]

    def value_rows(self, k: int, X: np.ndarray, U: np.ndarray,
                   xx: np.ndarray | None = None) -> np.ndarray:
        """The channel on row stacks: X (B, 2^k) states, U (B, m) controls.

        ``xx`` is X X from :func:`_square_rows`, shared by the channels of a
        step; it is computed here when not given.  The quad term multiplies
        through :func:`_product` on all 2^k blade columns, not on the columns
        the stack happens to fill, so a row's value does not depend on the
        rows stacked with it.
        """
        w = 1 << k
        out = self.rate * X if self.rate != 0.0 else np.zeros(X.shape, dtype=np.complex128)
        for i, e in enumerate(self.lin[k]):
            out = out + U[:, i, None] * e.coeffs[:w]
        for i, e in enumerate(self.sq[k]):
            out = out + U[:, i, None] ** 2 * e.coeffs[:w]
        if self.quad is not None:
            if xx is None:
                xx = _square_rows(self.alg, X)
            c = self.quad[k].coeffs[:w]
            out = out + _product(self.alg, np.broadcast_to(c, X.shape), xx,
                                 np.nonzero(c)[0], np.arange(w))
        return out

    def value(self, k, x, u):
        """One element: the single-row view of :meth:`value_rows`."""
        u = np.asarray(u, dtype=float).reshape(1, -1)
        return CliffordElement(self.alg, _padded(self.alg, self.value_rows(k, _row(k, x), u)[0]))

    def dx(self, k, x, u):
        rate = self.rate
        if self.quad is None:
            return lambda h: rate * h
        qx = self.quad[k]
        return lambda h: rate * h + qx * (x * h + h * x)

    def du(self, k, x, u):
        lin, sq = self.lin[k], self.sq[k]

        def fn(v):
            out = CliffordElement.zero(self.alg)
            for i, e in enumerate(lin):
                out = out + float(v[i]) * e
            for i, e in enumerate(sq):
                out = out + 2.0 * float(u[i]) * float(v[i]) * e
            return out
        return fn

    def dxx(self, k, x, u):
        if self.quad is None:
            return None
        qx = self.quad[k]
        return lambda h1, h2: qx * (h1 * h2 + h2 * h1)

    def duu(self, k, x, u):
        if not self.sq[0]:
            return None
        sq = self.sq[k]

        def fn(v, w):
            out = CliffordElement.zero(self.alg)
            for i, e in enumerate(sq):
                out = out + 2.0 * float(v[i]) * float(w[i]) * e
            return out
        return fn

    def dx_block(self, k: int, sym_x: np.ndarray | None) -> np.ndarray:
        """D_x frozen at x on the first 2^k blades: rate I + L_c (L_x + R_x).

        ``sym_x`` is L_x + R_x, the left plus right multiplication matrix of
        the state (shared by the channels of a step; unused without a quad
        element), and c the step-k quad element; the same map as :meth:`dx`
        without probing.  Column j of L_c sym_x is c times column j of sym_x.
        """
        out = self.rate * np.eye(1 << k, dtype=np.complex128)
        if self.quad is not None:
            c = np.broadcast_to(self.quad[k].coeffs[:1 << k], sym_x.shape)
            out = out + _table_product(self.alg, c, sym_x.T).T
        return out

    def curvature_block(self, k: int, weight: CliffordElement) -> np.ndarray:
        """Conjugation block of this channel's share of M_k for adjoint weight w.

        The pairing (v, h) -> <w, c(v h + h v)> with c the step-k quad element
        has Riesz representative v -> conj(rev . (w* c v + v w* c)), i.e. the
        pure conjugation block diag(rev) conj(L_wc + R_wc) with wc = w* c, on
        the first 2^k blades.
        """
        left, right = _multiplication_blocks(star(weight) * self.quad[k], k)
        rev = self.alg.reversal_signs[:1 << k, None]
        return rev * np.conj(left + right)


@dataclass
class ControlProblem:
    """Fully wired control problem consumed by the solvers."""

    algebra: CliffordAlgebra
    control_set: ControlSet
    x0: CliffordElement
    D: Callable
    F: Callable
    G: Callable
    D_x: Callable
    F_x: Callable
    G_x: Callable
    D_u: Callable
    F_u: Callable
    G_u: Callable
    L: Callable
    L_x: Callable
    L_u: Callable
    g: Callable
    g_x: Callable
    D_xx: Callable | None = None
    F_xx: Callable | None = None
    G_xx: Callable | None = None
    D_xu: Callable | None = None
    F_xu: Callable | None = None
    G_xu: Callable | None = None
    D_uu: Callable | None = None
    F_uu: Callable | None = None
    G_uu: Callable | None = None
    L_xx: Callable | None = None
    L_xu: Callable | None = None
    L_uu: Callable | None = None
    g_xx: Callable | None = None
    curvature: Callable | None = None  # (k, x, u, yhat, Y) -> M_k, or g_xx at k = N
    state_derivatives: Callable | None = None  # (k, x, u) -> (Dx_k, Bt_k) blocks
    coefficient_rows: Callable | None = None  # (k, X, U) -> (D, F, G) row stacks
    cost_rows: Callable | None = None  # (k, X, U) -> L rows, or g rows at k = N

    def __post_init__(self):
        # unset hooks, and hooks derived for the problem this one was copied
        # from (``dataclasses.replace``), are derived from this one's callbacks
        for name in ("curvature", "state_derivatives", "coefficient_rows", "cost_rows"):
            hook = getattr(self, name)
            if hook is None or isinstance(getattr(hook, "__self__", None), ControlProblem):
                setattr(self, name, getattr(self, "_" + name))

    def _curvature(self, k, x, u, yhat, Y):
        alg = self.algebra
        if k == alg.n:
            return SuperOperator.zero(alg) if self.g_xx is None \
                else superop_from_pairing(alg, self.g_xx(x), alg.dim)
        pair = hxx_pairing(self, k, x, u, yhat, Y)
        return None if pair is None else superop_from_pairing(alg, pair, 1 << k)

    def _state_derivatives(self, k, x, u):
        b = 1 << k
        dx, bt = np.empty((2, b, b), dtype=np.complex128)
        dx_op, fx_op, gx_op = self.D_x(k, x, u), self.F_x(k, x, u), self.G_x(k, x, u)
        for s in range(b):
            es = CliffordElement.blade(self.algebra, s)
            dx[:, s] = dx_op(es).coeffs[:b]
            bt[:, s] = (fx_op(es).coeffs + parity(gx_op(es)).coeffs)[:b]
        return dx, bt

    def _coefficient_rows(self, k, X, U):
        out = np.empty((3, len(X), self.algebra.dim), dtype=np.complex128)
        for i, (x, u) in enumerate(zip(_padded(self.algebra, X), U)):
            x = CliffordElement(self.algebra, x)
            for c, fn in enumerate((self.D, self.F, self.G)):
                out[c, i] = fn(k, x, u).coeffs
        return tuple(_cut(k, rows, what) for rows, what in
                     zip(out, ("drift", "left diffusion", "right diffusion")))

    def _cost_rows(self, k, X, U):
        xs = [CliffordElement(self.algebra, x) for x in _padded(self.algebra, X)]
        if k == self.algebra.n:
            return np.array([self.g(x) for x in xs], dtype=float)
        return np.array([self.L(k, x, u) for x, u in zip(xs, U)], dtype=float)

    @property
    def m(self) -> int:
        return self.control_set.m

    def check_control_path(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if u.shape != (self.algebra.n, self.m):
            raise ValueError(f"control path must have shape ({self.algebra.n}, {self.m})")
        if not self.control_set.contains(u):
            k = next(k for k, uk in enumerate(u) if not self.control_set.contains(uk))
            raise ValueError(f"control at step {k} outside the admissible box")
        return u


def make_problem(algebra: CliffordAlgebra, spec: ProblemSpec) -> ControlProblem:
    """Materialize a ProblemSpec against an algebra context."""
    if spec.name not in GALLERY_NAMES:
        raise ValueError(f"unknown problem name {spec.name!r}")
    if len(spec.lower) != spec.m or len(spec.upper) != spec.m:
        raise ValueError("box bounds must have length m")
    cset = ControlSet(np.array(spec.lower, dtype=float), np.array(spec.upper, dtype=float))

    x0 = _terms_to_element(algebra, spec.x0)
    if not x0.is_adapted(0):
        raise SupportError("initial state must live in the initial subalgebra")

    def elems(rows: tuple | None) -> list[CliffordElement] | None:
        if rows is None:
            return None
        if len(rows) != spec.m:
            raise ValueError("control coefficient lists must have one entry per control dim")
        return [_terms_to_element(algebra, row) for row in rows]

    chD = _Channel(algebra, spec.a, elems(spec.b), elems(spec.cd),
                   _terms_to_element(algebra, spec.qd))
    chF = _Channel(algebra, spec.f0, elems(spec.f), elems(spec.cf),
                   _terms_to_element(algebra, spec.qf))
    chG = _Channel(algebra, spec.g0, elems(spec.g), elems(spec.cg),
                   _terms_to_element(algebra, spec.qg))

    q, r, s = float(spec.q), float(spec.r), float(spec.s)
    x_tgt = _terms_to_element(algebra, spec.x_tgt) or CliffordElement.zero(algebra)
    eta = _terms_to_element(algebra, spec.eta)

    def cost_rows(k, X, U):
        if k == algebra.n:
            diff = X - x_tgt.coeffs
            val = s * np.vecdot(diff, diff).real
            if eta is not None:
                val = val + np.vecdot(eta.coeffs, X).real
            return val
        return q * np.vecdot(X, X).real + r * np.vecdot(U, U)

    def L(k, x, u):
        return float(cost_rows(k, _row(k, x), np.asarray(u, dtype=float).reshape(1, -1))[0])

    def g_fn(x):
        return float(cost_rows(algebra.n, x.coeffs[None], None)[0])

    def L_x(k, x, u):
        return (2.0 * q) * x

    def L_u(k, x, u):
        return 2.0 * r * np.asarray(u, dtype=float)

    L_xx = None
    if q != 0.0:
        def L_xx(k, x, u):
            return lambda v, w: 2.0 * q * inner(v, w)

    def L_uu(k, x, u):
        return 2.0 * r * np.eye(spec.m)

    def g_x(x):
        out = (2.0 * s) * (x - x_tgt)
        if eta is not None:
            out = out + eta
        return out

    g_xx = None
    if s != 0.0:
        def g_xx(x):
            return lambda v, w: 2.0 * s * inner(v, w)

    def chan_cb(ch: _Channel, attr: str):
        fn = getattr(ch, attr)
        probe = fn(0, x0, np.zeros(spec.m))
        return None if probe is None else fn

    def curvature(k, x, u, yhat, Y):
        if k == algebra.n:
            return SuperOperator.identity(algebra, 2.0 * s)
        quads = [(ch, weight) for ch, weight in ((chD, yhat), (chF, Y), (chG, parity(Y)))
                 if ch.quad is not None]
        if q == 0.0 and not quads:
            return None
        lin = np.diag(np.full(1 << k, -2.0 * q, dtype=np.complex128))
        anti = sum(ch.curvature_block(k, weight) for ch, weight in quads) if quads else None
        return SuperOperator(algebra, lin, anti)

    channels = (chD, chF, chG)
    squares = any(ch.quad is not None for ch in channels)

    def state_derivatives(k, x, u):
        sym_x = None
        if squares:
            left_x, right_x = _multiplication_blocks(x, k)
            sym_x = left_x + right_x
        parity_signs = algebra.parity_signs[:1 << k, None]
        return (chD.dx_block(k, sym_x),
                chF.dx_block(k, sym_x) + parity_signs * chG.dx_block(k, sym_x))

    def coefficient_rows(k, X, U):
        xx = _square_rows(algebra, X) if squares else None
        return tuple(ch.value_rows(k, X, U, xx) for ch in channels)

    return ControlProblem(
        algebra=algebra, control_set=cset, x0=x0,
        D=chD.value, F=chF.value, G=chG.value,
        D_x=chD.dx, F_x=chF.dx, G_x=chG.dx,
        D_u=chD.du, F_u=chF.du, G_u=chG.du,
        D_xx=chan_cb(chD, "dxx"), F_xx=chan_cb(chF, "dxx"), G_xx=chan_cb(chG, "dxx"),
        D_xu=None, F_xu=None, G_xu=None,
        D_uu=chan_cb(chD, "duu"), F_uu=chan_cb(chF, "duu"), G_uu=chan_cb(chG, "duu"),
        L=L, L_x=L_x, L_u=L_u, L_xx=L_xx, L_xu=None, L_uu=L_uu,
        g=g_fn, g_x=g_x, g_xx=g_xx,
        curvature=curvature,
        state_derivatives=state_derivatives, coefficient_rows=coefficient_rows,
        cost_rows=cost_rows)


# -- Hamiltonian second derivatives -------------------------------------------

def _hamiltonian_form(p: ControlProblem, slot: str, k: int, x, u, yhat, Y):
    """(a, b, start) -> start + <yhat, D(a, b)> + <Y, F(a, b)> + <parity(Y), G(a, b)> - L(a, b).

    D, F, G and L are the callbacks of one slot (``xx``, ``xu`` or ``uu``)
    frozen at (k, x, u), summed in that order.  L_uu is a matrix, not a form,
    so the ``uu`` form leaves it out.  None when every term is absent.
    """
    channels = [(fn(k, x, u), weight) for fn, weight in
                ((getattr(p, "D_" + slot), yhat), (getattr(p, "F_" + slot), Y),
                 (getattr(p, "G_" + slot), parity(Y))) if fn is not None]
    running = getattr(p, "L_" + slot) if slot != "uu" else None
    if not channels and running is None:
        return None
    running = None if running is None else running(k, x, u)

    def form(a, b, start=0.0 + 0.0j):
        for fn, weight in channels:
            start += inner(weight, fn(a, b))
        return start if running is None else start - running(a, b)
    return form


def hxx_pairing(p: ControlProblem, k: int, x, u, yhat, Y):
    """Pairing (v, w) -> <M_k v, w> of the state curvature; None when absent."""
    return _hamiltonian_form(p, "xx", k, x, u, yhat, Y)


def hxu_pairing(p: ControlProblem, k: int, x, u, yhat, Y):
    """Pairing (h, v) -> mixed curvature of the Hamiltonian; None when absent."""
    return _hamiltonian_form(p, "xu", k, x, u, yhat, Y)


def huu_matrix(p: ControlProblem, k: int, x, u, yhat, Y) -> np.ndarray:
    """Control curvature of the Hamiltonian, complex (m, m); each entry sums from -L_uu."""
    out = np.zeros((p.m, p.m), dtype=np.complex128)
    if p.L_uu is not None:
        out -= np.asarray(p.L_uu(k, x, u), dtype=np.complex128)
    form = _hamiltonian_form(p, "uu", k, x, u, yhat, Y)
    if form is not None:
        basis = np.eye(p.m)
        for i, j in np.ndindex(p.m, p.m):
            out[i, j] = form(basis[i], basis[j], out[i, j])
    return out


# -- cost --------------------------------------------------------------------

def cost(p: ControlProblem, u: np.ndarray, x) -> float:
    """Running cost Riemann sum plus terminal cost along a state path."""
    values = getattr(x, "process", x)
    values = getattr(values, "values", values)
    u = np.asarray(u, dtype=float)
    if len(values) != p.algebra.n + 1 or u.shape[0] != p.algebra.n:
        raise ValueError("state path must have N+1 values and control path N values")
    acc = 0.0
    for k in range(p.algebra.n):
        acc += p.L(k, values[k], u[k]) * p.algebra.dt
    return float(acc + p.g(values[-1]))
