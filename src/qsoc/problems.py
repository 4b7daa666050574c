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
``curvature(k, yhat, Y)`` (optional) returns a materialized ``SuperOperator``
on the step-k subspace, i.e. of side 2^k.  For k < N it is the state
curvature M_k of the Hamiltonian, <M_k v, w> = <yhat, D_xx(v, w)>
+ <Y, F_xx(v, w)> + <parity(Y), G_xx(v, w)> - L_xx(v, w), or None when M_k
is identically zero.  For k = N (yhat and Y unused) it is the terminal
curvature g_xx itself on all dim blades, with the cost's sign; the second
adjoint starts from its negative, P_N = -g_xx.

``state_derivatives(k, x, u)`` (optional) returns the (2^k, 2^k) matrices
``(Dx_k, Bt_k)`` of ``D_x`` and ``F_x + parity o G_x`` frozen at (x, u) on
the step-k subspace, which is the first 2^k blades.

``coefficient_rows(k, X, U)`` and ``cost_rows(k, X, U)`` (optional) evaluate
the problem on row stacks: X is a (B, dim) block of states, U the (B, m)
controls at step k.  The first returns the (B, dim) stacks of D, F and G; the
second the (B,) running costs L, or for k = N (U unused) the terminal costs
g.  They must agree with the callbacks: in the gallery ``D``, ``F`` and ``G``
are one-row views of the channel rows, and the cost rows match ``L`` and
``g`` to rounding.

Gallery problems build all four hooks from their channel and cost data (the
operators as left and right multiplication matrices); without the operator
hooks the operators are probed blade by blade from the callbacks above, and
without the row hooks the brute force solves one control path at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .clifford import (
    CliffordAlgebra,
    CliffordElement,
    SuperOperator,
    _left_multiply_block,
    _multiplication_blocks,
    _product,
    conditional_expectation,
    inner,
    parity,
    star,
)
from .errors import SupportError

__all__ = [
    "ControlSet",
    "ProblemSpec",
    "ControlProblem",
    "make_problem",
    "cost",
]

GALLERY_NAMES = ("free", "lq", "quadratic_control", "quadratic_state")

Terms = Sequence[Sequence[float]]  # [[mask, re, im], ...]


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
    out = np.zeros(alg.dim, dtype=np.complex128)
    for mask, re_part, im_part in terms:
        mask = int(mask)
        if not 0 <= mask < alg.dim:
            raise ValueError(f"blade mask {mask} outside algebra of dimension {alg.dim}")
        out[mask] += re_part + 1j * im_part
    return CliffordElement(alg, out)


@dataclass(frozen=True)
class ProblemSpec:
    """Algebra-independent description of a gallery problem.

    Elements are sparse blade-term lists ``[[mask, re, im], ...]`` and are
    materialized against a concrete algebra by :func:`make_problem`.
    """

    name: str
    m: int = 1
    lower: tuple = (-1.0,)
    upper: tuple = (1.0,)
    a: float = 0.0       # drift rate on x
    f0: float = 0.0      # left-diffusion rate on x
    g0: float = 0.0      # right-diffusion rate on x
    q: float = 0.0       # running state cost weight
    r: float = 0.0       # running control cost weight
    s: float = 0.0       # terminal cost weight
    b: tuple | None = None   # drift control elements, one term list per control dim
    f: tuple | None = None   # left-diffusion control elements
    g: tuple | None = None   # right-diffusion control elements
    cd: tuple | None = None  # squared-control drift elements
    cf: tuple | None = None
    cg: tuple | None = None
    qd: Terms | None = None  # quadratic-state multipliers
    qf: Terms | None = None
    qg: Terms | None = None
    x_tgt: Terms | None = None
    eta: Terms | None = None  # linear terminal cost element
    x0: Terms = ((0, 1.0, 0.0),)

    @staticmethod
    def gallery(name: str, m: int = 1, **overrides) -> "ProblemSpec":
        """Canonical test instances with real data and modest rates."""
        if name not in GALLERY_NAMES:
            raise ValueError(f"unknown gallery problem {name!r}")
        base = dict(m=m, lower=tuple([-1.0] * m), upper=tuple([1.0] * m),
                    q=0.4, r=0.3, s=0.5,
                    x_tgt=((0, 0.5, 0.0), (1, 0.25, 0.0)))
        if name != "free":
            ctrl_b, ctrl_f, ctrl_g = [], [], []
            for i in range(m):
                ctrl_b.append(((0, 1.0, 0.0), (1 << (i % 2), 0.5, 0.0)))
                ctrl_f.append(((0, 0.8, 0.0), (1, 0.3, 0.0)))
                ctrl_g.append(((0, 0.6, 0.0), (2, 0.4, 0.0)))
            base.update(a=0.5, f0=0.3, g0=0.25,
                        b=tuple(ctrl_b), f=tuple(ctrl_f), g=tuple(ctrl_g))
        if name == "quadratic_control":
            base.update(cd=tuple(((0, 0.4, 0.0),) for _ in range(m)),
                        cf=tuple(((0, 0.3, 0.0),) for _ in range(m)),
                        cg=tuple(((0, 0.2, 0.0),) for _ in range(m)))
        if name == "quadratic_state":
            base.update(qd=((0, 0.35, 0.0),), qf=((0, 0.25, 0.0),), qg=((0, 0.2, 0.0),))
        base.update(overrides)
        return ProblemSpec(name=name, **base)


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
        self.lin_u = lin_u or []
        self.sq_u = sq_u or []
        self.quad_x = quad_x
        steps = range(alg.n + 1)
        self.lin = [[conditional_expectation(e, k) for e in self.lin_u] for k in steps]
        self.sq = [[conditional_expectation(e, k) for e in self.sq_u] for k in steps]
        self.quad = None if quad_x is None else \
            [conditional_expectation(quad_x, k) for k in steps]

    @property
    def is_zero(self) -> bool:
        return (self.rate == 0.0 and not self.lin_u and not self.sq_u
                and self.quad_x is None)

    def value_rows(self, k: int, X: np.ndarray, U: np.ndarray) -> np.ndarray:
        """The channel on row stacks: X (B, dim) states, U (B, m) controls.

        The quad term multiplies through :func:`_product` on the live blade
        columns of the stack, so one row takes the route of ``multiply``.
        """
        out = self.rate * X if self.rate != 0.0 else np.zeros(X.shape, dtype=np.complex128)
        for i, e in enumerate(self.lin[k]):
            out = out + U[:, i, None] * e.coeffs
        for i, e in enumerate(self.sq[k]):
            out = out + U[:, i, None] ** 2 * e.coeffs
        if self.quad is not None:
            live = np.nonzero(np.any(X, axis=0))[0]
            xx = _product(self.alg, X, X, live, live)
            c = self.quad[k].coeffs
            out = out + _product(self.alg, np.broadcast_to(c, X.shape), xx,
                                 np.nonzero(c)[0], np.nonzero(np.any(xx, axis=0))[0])
        return out

    def value(self, k, x, u):
        """One element: the single-row view of :meth:`value_rows`."""
        u = np.asarray(u, dtype=float).reshape(1, -1)
        return CliffordElement(self.alg, self.value_rows(k, x.coeffs[None], u)[0])

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
        if not self.sq_u:
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
        without probing.
        """
        out = self.rate * np.eye(1 << k, dtype=np.complex128)
        if self.quad is not None:
            out = out + _left_multiply_block(self.quad[k], k, sym_x)
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
    curvature: Callable | None = None  # (k, yhat, Y) -> M_k, or g_xx at k = N
    state_derivatives: Callable | None = None  # (k, x, u) -> (Dx_k, Bt_k) blocks
    coefficient_rows: Callable | None = None  # (k, X, U) -> (D, F, G) row stacks
    cost_rows: Callable | None = None  # (k, X, U) -> L rows, or g rows at k = N

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
    if spec.name == "free" and not (chD.is_zero and chF.is_zero and chG.is_zero):
        raise ValueError("'free' problems cannot carry dynamics coefficients")

    q, r, s = float(spec.q), float(spec.r), float(spec.s)
    x_tgt = _terms_to_element(algebra, spec.x_tgt) or CliffordElement.zero(algebra)
    eta = _terms_to_element(algebra, spec.eta)

    def L(k, x, u):
        val = q * x.norm() ** 2 + r * float(np.dot(u, u))
        return float(val)

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

    def g_fn(x):
        diff = x - x_tgt
        val = s * diff.norm() ** 2
        if eta is not None:
            val += inner(eta, x).real
        return float(val)

    def cost_rows(k, X, U):
        # L and g on row stacks; they agree with the scalar forms to rounding
        # (``x.norm() ** 2`` goes through libm pow, a row of squares does not)
        if k == algebra.n:
            diff = X - x_tgt.coeffs
            val = s * np.vecdot(diff, diff).real
            if eta is not None:
                val = val + np.vecdot(eta.coeffs, X).real
            return val
        return q * np.vecdot(X, X).real + r * np.vecdot(U, U)

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

    def curvature(k, yhat, Y):
        if k == algebra.n:
            return SuperOperator.identity(algebra, 2.0 * s)
        quads = [(ch, weight) for ch, weight in ((chD, yhat), (chF, Y), (chG, parity(Y)))
                 if ch.quad is not None]
        if q == 0.0 and not quads:
            return None
        lin = np.diag(np.full(1 << k, -2.0 * q, dtype=np.complex128))
        anti = sum(ch.curvature_block(k, weight) for ch, weight in quads) if quads else None
        return SuperOperator(algebra, lin, anti)

    def state_derivatives(k, x, u):
        sym_x = None
        if any(ch.quad is not None for ch in (chD, chF, chG)):
            left_x, right_x = _multiplication_blocks(x, k)
            sym_x = left_x + right_x
        parity_signs = algebra.parity_signs[:1 << k, None]
        return (chD.dx_block(k, sym_x),
                chF.dx_block(k, sym_x) + parity_signs * chG.dx_block(k, sym_x))

    def coefficient_rows(k, X, U):
        return chD.value_rows(k, X, U), chF.value_rows(k, X, U), chG.value_rows(k, X, U)

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
