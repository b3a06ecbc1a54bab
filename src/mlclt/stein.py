"""Mollified Stein solutions for the centered Gaussian target.

For a test function phi and target N(0, Lambda), the solution of the
mollified equation

    - Lambda : D^2 f_eps(x) + x . grad f_eps(x) = phi_eps(x) - E[phi_eps(Z)]

is represented as

    f_eps(x) = 1/2 * integral over s in [eps^2, 1) of
               ( E[phi(sqrt(1-s) x - sqrt(s) Z)] - E[phi(Z)] ) / (1-s) ds

with Z ~ N(0, Lambda), and its derivatives by moving the derivative onto the
Gaussian kernel:

    grad  f_eps = 1/2 int (1-s)^{-1/2} s^{-1/2} int phi(...) grad N(z) dz ds
    D^2   f_eps = 1/2 int s^{-1}               int phi(...) D^2  N(z) dz ds
    D^3   f_eps = 1/2 int (1-s)^{1/2} s^{-3/2} int phi(...) D^3  N(z) dz ds

The s-integral is split into two panels with substitutions tau = log s
(resolving the s -> eps^2 end) and t = -log(1-s) (resolving the s -> 1 end),
each handled by composite Simpson rules with node-doubling verification.
The s-nodes depend only on eps and the budget, and the Gaussian nodes only on
the budget; only the weights and kernels depend on the order.  Orders
requested together at the same points therefore share one evaluation of the
test function, and each keeps the bits it has when requested alone: the
construction gate computes orders 0 and 2 together, the residual 1 and 2, and
the majorant tables 2 and 3.  Each solution builds its majorant table once
per (delta, window) and serves both majorant kinds from it.

Ridge test functions phi(x) = h(u . x) admit an exact reduction: f_eps(x) =
F(u . x) where F is the 1d solution for profile h and variance u . Lambda u,
so all derivative tensors are rank-one and every integral is one-dimensional.
Every dim-1 test function is a ridge function, so this is the one 1d path.
A generic tensorized quadrature path serves non-ridge test functions in dims
2 and 3, where it is the reference the reduction is cross-checked against.
Gaussian interpolation preserves N(0, Lambda), so the right-hand side's
constant is E[phi_eps(Z)] = E[phi(Z)], taken by `gaussian_mean` without
smoothing phi.

The inner Gaussian integral of a ridge solution is exact when the profile is
a C^2 `PiecewisePolynomial` (the soft-clip family).  Gaussian integration by
parts, E[f(G) He_k(G)] = E[f^(k)(G)], turns the order-k inner integral into

    F_k(w) = sum_i sw_k(s_i) s_i^{k/2} E[h^(k)(sqrt(1-s_i) w + sqrt(s_i) sigma Z)]

(for k = 0 less the exact c0 = E[h(sigma Z)]), and on each piece the
expectation is a finite sum of truncated normal moments.  This path uses no
Hermite nodes, so `z_nodes_per_axis` does not affect it, and its node-doubling
gate measures the s-integral alone.  Any other profile takes Gauss-Hermite
quadrature; `SteinSolution.inner_integral` reports which path a solution used.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.typing import NDArray
from scipy.ndimage import maximum_filter1d, minimum_filter1d

from ._util import (QuadratureError, UsageError, ball_points, hermite_1d,
                    hermite_grid, tensor_norm)
from .distances import PiecewisePolynomial, TestFunction, gaussian_mean, mollify
from .gaussians import GaussianLaw

__all__ = [
    "QuadratureSpec",
    "SteinSolution",
    "stein_eval",
    "stein_derivative",
    "stein_residual",
    "third_derivative_certificate",
    "oscillation_majorant",
    "majorant_average_certificate",
    "smoothing_bound",
]

_EPS_MIN, _EPS_MAX = 0.05, 0.9
_T_TAIL = 56.0  # integrand tails decay like exp(-t/2); exp(-28) is negligible
# Node-doubling settle tolerance for solution construction.  A C^2 profile
# that is not analytic makes Gauss-Hermite converge polynomially (observed
# ~1e-5 at 64 nodes for the soft-clip ramp behind a plain callable); the
# downstream certificates carry tolerances of 1e-3 and larger, leaving an
# order of magnitude of headroom.
_VERIFY_TOL = 1e-4
# Orders whose node-doubling delta gates solution construction.
_GATE_ORDERS = (0, 2)
# Gauss-Hermite nodes per axis of the generic engine, which serves the
# non-ridge test functions of dims 2 and 3; tensorized rules stop at dim 3.
_GENERIC_AXIS_NODES = {2: 48, 3: 16}
# (s, w) pairs per block of the closed-form inner integral; each pair holds
# a few dozen float64 temporaries.
_EXACT_BLOCK = 1 << 16


@dataclass(frozen=True)
class QuadratureSpec:
    """Node budget for the s-integral and the Gaussian inner integral."""

    s_nodes: int = 1024
    z_nodes_per_axis: int = 64

    def __post_init__(self):
        if self.s_nodes < 16 or self.z_nodes_per_axis < 16:
            raise UsageError("quadrature needs at least 16 nodes on each axis")


def _weight(order: int, s: NDArray[np.float64]) -> NDArray[np.float64]:
    """s-weight of the order-k derivative representation (including the 1/2)."""
    if order == 0:
        return 0.5 / (1.0 - s)
    if order == 1:
        return 0.5 / np.sqrt((1.0 - s) * s)
    if order == 2:
        return 0.5 / s
    if order == 3:
        return 0.5 * np.sqrt(1.0 - s) / s ** 1.5
    raise UsageError(f"derivative order must be in 0..3, got {order}")


def _weight_times_one_minus_s(order: int, t: NDArray[np.float64],
                              s: NDArray[np.float64]) -> NDArray[np.float64]:
    """weight(order, s) * (1 - s) with 1 - s = exp(-t), stable at s -> 1."""
    if order == 0:
        return np.full_like(s, 0.5)
    if order == 1:
        return 0.5 * np.exp(-0.5 * t) / np.sqrt(s)
    if order == 2:
        return 0.5 * np.exp(-t) / s
    if order == 3:
        return 0.5 * np.exp(-1.5 * t) / s ** 1.5
    raise UsageError(f"derivative order must be in 0..3, got {order}")


def _simpson_weights(n_intervals: int, h: float) -> NDArray[np.float64]:
    if n_intervals % 2 or n_intervals < 2:
        raise UsageError("Simpson rule needs an even, positive interval count")
    w = np.ones(n_intervals + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * h / 3.0


def _s_panels(eps: float, n_total: int, orders: tuple[int, ...]):
    """Quadrature nodes s_i and, per order k in `orders`, the combined weights
    of the order-k s-integral.

    Panel A covers [eps^2, 1/2] in tau = log s; panel B covers the rest in
    t = -log(1-s).  In both variables every integrand is smooth with O(1)
    variation scale uniformly over the admissible eps range.  The nodes
    depend on eps and the budget only, so every order shares them.
    """
    lo = eps * eps
    n_half = max(8, (n_total // 2) // 2 * 2)
    s_list, w_lists = [], [[] for _ in orders]
    if lo < 0.5:
        a, b = np.log(lo), np.log(0.5)
        tau = np.linspace(a, b, n_half + 1)
        s = np.exp(tau)
        simpson = _simpson_weights(n_half, (b - a) / n_half)
        for order, w_list in zip(orders, w_lists):
            w_list.append(simpson * _weight(order, s) * s)
        s_list.append(s)
        t_start = np.log(2.0)
    else:
        t_start = -np.log1p(-lo)
    t = np.linspace(t_start, t_start + _T_TAIL, n_half + 1)
    s = -np.expm1(-t)
    simpson = _simpson_weights(n_half, _T_TAIL / n_half)
    for order, w_list in zip(orders, w_lists):
        w_list.append(simpson * _weight_times_one_minus_s(order, t, s))
    s_list.append(s)
    return np.concatenate(s_list), [np.concatenate(w) for w in w_lists]


def _as_orders(orders) -> tuple[int, ...]:
    """The engines' `fk` takes one order or a tuple of orders."""
    return (orders,) if np.ndim(orders) == 0 else tuple(orders)


def _unpack(orders, outs: list):
    return outs[0] if np.ndim(orders) == 0 else tuple(outs)


# ---------------------------------------------------------------------------
# 1d engine (exact ridge reduction)


class _RidgeEngine:
    """Stein solution for profile h and scalar variance sigma2: all derivative
    orders reduce to scalar functions F_k of w = u . x.

    A `PiecewisePolynomial` profile gets the exact inner integral; any other
    callable gets Gauss-Hermite quadrature (`inner_integral` says which).
    """

    def __init__(self, profile, sigma2: float, eps: float, quad: QuadratureSpec):
        self.profile = profile
        self.sigma = float(np.sqrt(sigma2))
        self.eps = eps
        self.quad = quad
        self.exact = isinstance(profile, PiecewisePolynomial)
        self.inner_integral = "exact" if self.exact else "gauss-hermite"
        if self.exact:  # the Hermite path takes its mean per rule
            self.c0 = float(profile.gaussian_expectations(0.0, self.sigma, (0,))[0])

    def _kernel(self, order: int, v: NDArray[np.float64]) -> NDArray[np.float64]:
        """Derivative kernel D^k N / N for N = N(0, sigma^2)."""
        a = 1.0 / self.sigma ** 2
        if order == 0:
            return np.ones_like(v)
        if order == 1:
            return -a * v
        if order == 2:
            return a * a * v * v - a
        return 3.0 * a * a * v - (a * v) ** 3

    def fk(self, w, orders, s_nodes: int | None = None,
           v_nodes: int | None = None):
        """F_k at scalar points w (any shape) for one order k in 0..3, or a
        tuple of F_k for a tuple of orders.

        The orders of one call share every profile evaluation (or, on the
        exact path, every set of truncated moments); each result has the
        same bits as a call for its order alone.  `v_nodes` sets the
        Gauss-Hermite budget and has no effect on the exact path.
        """
        ks = _as_orders(orders)
        w = np.asarray(w, dtype=float)
        flat = w.reshape(-1)
        s, sws = _s_panels(self.eps, s_nodes or self.quad.s_nodes, ks)
        if self.exact:
            outs = self._fk_exact(flat, s, sws, ks)
        else:
            outs = self._fk_hermite(flat, s, sws, ks,
                                    v_nodes or self.quad.z_nodes_per_axis)
        return _unpack(orders, [out.reshape(w.shape) for out in outs])

    def _fk_exact(self, flat, s, sws, ks):
        """Gaussian integration by parts, E[f(G) He_k(G)] = E[f^(k)(G)], turns
        the order-k inner integral at s into s^{k/2} E[h^(k)(sqrt(1-s) w +
        sqrt(s) sigma Z)], which the profile evaluates in closed form."""
        outs = [np.zeros(flat.shape) for _ in ks]
        block = max(1, _EXACT_BLOCK // max(1, flat.size))
        for start in range(0, len(s), block):
            sl = slice(start, start + block)
            sb = s[sl]
            vals = self.profile.gaussian_expectations(
                np.sqrt(1.0 - sb)[:, None] * flat[None, :],
                (np.sqrt(sb) * self.sigma)[:, None], ks)
            for out, sw, k, val in zip(outs, sws, ks, vals):
                if k == 0:
                    val = val - self.c0
                out += (sw[sl] * sb ** (0.5 * k)) @ val
        return outs

    def _fk_hermite(self, flat, s, sws, ks, n_v: int):
        g, gw = hermite_1d(n_v)
        v = self.sigma * g
        kern_ws = [gw * self._kernel(k, v) for k in ks]
        # The subtracted mean must use the same rule as the inner integral:
        # by node symmetry the s -> 1 tail of the order-0 integrand then
        # cancels exactly instead of leaving an O(quadrature error) plateau.
        c0 = float(gw @ self.profile(v))
        outs = [np.zeros(flat.shape) for _ in ks]
        block = max(1, int(2e6) // max(1, flat.size * len(v)))
        for start in range(0, len(s), block):
            sl = slice(start, start + block)
            sb = s[sl]
            args = (np.sqrt(1.0 - sb)[:, None, None] * flat[None, :, None]
                    - np.sqrt(sb)[:, None, None] * v[None, None, :])
            vals = self.profile(args) - c0
            for out, sw, kern_w in zip(outs, sws, kern_ws):
                out += sw[sl] @ (vals @ kern_w)
        return outs

    def refinement_delta(self, w, orders: tuple[int, ...]) -> tuple[float, ...]:
        """Per order, the largest move of F_k at w under node doubling."""
        a = self.fk(w, orders)
        b = self.fk(w, orders, s_nodes=2 * self.quad.s_nodes,
                    v_nodes=2 * self.quad.z_nodes_per_axis)
        return tuple(float(np.max(np.abs(x - y))) for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# generic tensorized engine


class _GenericEngine:
    """Direct tensorized quadrature for non-ridge test functions in dims 2
    and 3 (every dim-1 test function is a ridge function)."""

    inner_integral = "gauss-hermite"

    def __init__(self, phi: TestFunction, law: GaussianLaw, quad: QuadratureSpec,
                 eps: float):
        self.phi = phi
        self.law = law
        self.eps = eps
        self.quad = quad
        if law.dim not in _GENERIC_AXIS_NODES:
            raise UsageError(
                f"a non-ridge Stein solution needs dim 2 or 3, got {law.dim}; "
                f"higher dimensions need a ridge test function")
        self.n_axis = min(quad.z_nodes_per_axis, _GENERIC_AXIS_NODES[law.dim])

    def _nodes(self, n_axis: int):
        pts, wts = hermite_grid(self.law.dim, n_axis)
        return pts @ self.law.covariance.sqrt().T, wts

    def _kernel(self, order: int, z: NDArray[np.float64]) -> NDArray[np.float64]:
        a = self.law.covariance.inv()
        az = z @ a.T
        if order == 0:
            return np.ones(len(z))
        if order == 1:
            return -az
        if order == 2:
            return np.einsum("mi,mj->mij", az, az) - a[None, :, :]
        sym = (np.einsum("ij,mk->mijk", a, az)
               + np.einsum("ik,mj->mijk", a, az)
               + np.einsum("jk,mi->mijk", a, az))
        return sym - np.einsum("mi,mj,mk->mijk", az, az, az)

    def fk(self, x: NDArray[np.float64], orders, s_nodes: int | None = None,
           n_axis: int | None = None):
        """D^k f at points x of shape (m, dim) for one order k in 0..3, or a
        tuple of them for a tuple of orders sharing every phi evaluation."""
        ks = _as_orders(orders)
        x = np.atleast_2d(np.asarray(x, dtype=float))
        s, sws = _s_panels(self.eps, s_nodes or self.quad.s_nodes, ks)
        z, gw = self._nodes(n_axis or self.n_axis)
        kern_ws = []
        for k in ks:
            kern = self._kernel(k, z)
            kern_ws.append(kern * gw.reshape((-1,) + (1,) * (kern.ndim - 1)))
        # match the subtracted mean to the rule in use so the s -> 1 tail of
        # the order-0 integrand cancels exactly (node set is symmetric)
        c0 = float(gw @ self.phi(z))
        outs = [np.zeros((len(x),) + kern_w.shape[1:]) for kern_w in kern_ws]
        for i, si in enumerate(s):
            arg = np.sqrt(1.0 - si) * x[:, None, :] - np.sqrt(si) * z[None, :, :]
            vals = self.phi(arg.reshape(-1, self.law.dim)).reshape(len(x), len(z)) - c0
            for out, sw, kern_w in zip(outs, sws, kern_ws):
                out += sw[i] * np.tensordot(vals, kern_w, axes=(1, 0))
        return _unpack(orders, outs)

    def refinement_delta(self, x, orders: tuple[int, ...]) -> tuple[float, ...]:
        """Per order, the largest move of D^k f at x under node doubling."""
        a = self.fk(x, orders)
        b = self.fk(x, orders, s_nodes=2 * self.quad.s_nodes, n_axis=2 * self.n_axis)
        return tuple(float(np.max(np.abs(u - v))) for u, v in zip(a, b))


# ---------------------------------------------------------------------------
# public surface


@dataclass(frozen=True)
class SteinSolution:
    """Mollified Stein solution f_eps for (phi, law, eps).

    Construction takes E[phi(Z)] with `gaussian_mean`, then runs a
    node-doubling convergence probe; either raises QuadratureError if its
    integral has not settled (the probe reports both moves of the value and
    Hessian integrals in `node_doubling_deltas`).  Majorant tables are built
    once per (delta, window) and kept with the solution.  Points passed to
    the evaluation and certificate functions must lie in R^dim.
    """

    phi: TestFunction
    law: GaussianLaw
    eps: float
    quad: QuadratureSpec = QuadratureSpec()
    _engine: object = field(init=False, repr=False, compare=False)
    _phi_eps: TestFunction = field(init=False, repr=False, compare=False)
    _c_eps: float = field(init=False, repr=False, compare=False)
    _deltas: dict = field(init=False, repr=False, compare=False)
    _majorants: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not _EPS_MIN <= self.eps <= _EPS_MAX:
            raise UsageError(
                f"eps={self.eps} outside the supported range [{_EPS_MIN}, {_EPS_MAX}]")
        if self.phi.dim != self.law.dim:
            raise UsageError("test function and law dimension mismatch")
        if self.phi.ridge is not None:
            engine = _RidgeEngine(self.phi.ridge.profile,
                                  self.phi.ridge.sigma2(self.law), self.eps, self.quad)
        else:
            engine = _GenericEngine(self.phi, self.law, self.quad, self.eps)
        object.__setattr__(self, "_engine", engine)
        object.__setattr__(self, "_phi_eps", mollify(self.phi, self.eps, self.law))
        # interpolation preserves the law: E[phi_eps(Z)] = E[phi(Z)], Z ~ law
        object.__setattr__(self, "_c_eps", gaussian_mean(self.phi, self.law))
        probe = self._probe_points()
        if self.phi.ridge is not None:
            probe = probe @ self.phi.ridge.direction
        deltas = dict(zip(_GATE_ORDERS, engine.refinement_delta(probe, _GATE_ORDERS)))
        for order, delta in deltas.items():
            if not delta <= _VERIFY_TOL:  # a NaN fails
                raise QuadratureError(
                    f"Stein quadrature (order {order}) moved by {delta:.3e} "
                    f"under node doubling; increase QuadratureSpec budgets")
        object.__setattr__(self, "_deltas", deltas)
        object.__setattr__(self, "_majorants", {})

    @property
    def inner_integral(self) -> str:
        """"exact" when the Gaussian inner integral is in closed form (a ridge
        function with a `PiecewisePolynomial` profile), else "gauss-hermite"."""
        return self._engine.inner_integral

    @property
    def node_doubling_deltas(self) -> dict:
        """Order -> max |change| of that integral at the probe points when
        the s and z budgets are doubled (the construction gate's input)."""
        return dict(self._deltas)

    def _probe_points(self) -> NDArray[np.float64]:
        root = self.law.covariance.sqrt()
        ones = np.ones(self.law.dim)
        return np.vstack([np.zeros(self.law.dim), root @ ones, -2.0 * (root @ ones)])

    def _points(self, x, single: bool = False) -> NDArray[np.float64]:
        """x as an (m, dim) batch, a 1-d x being one point.  Any other shape,
        or more than one point when `single`, raises UsageError."""
        shape = np.shape(x)
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.ndim != 2 or x.shape[1] != self.law.dim or (single and len(x) != 1):
            raise UsageError(f"expected {'a point' if single else 'points'} of "
                             f"R^{self.law.dim}, got an array of shape {shape}")
        return x

    # -- ridge helpers ------------------------------------------------------

    @property
    def is_ridge(self) -> bool:
        return self.phi.ridge is not None

    def _project(self, x: NDArray[np.float64]) -> NDArray[np.float64]:
        return x @ self.phi.ridge.direction

    def values(self, x) -> NDArray[np.float64]:
        x = self._points(x)
        if self.is_ridge:
            return self._engine.fk(self._project(x), 0)
        return self._engine.fk(x, 0)

    def derivative_scalars(self, w, order: int) -> NDArray[np.float64]:
        """Ridge only: the scalar F_k(w) with D^k f = F_k(u.x) u^{(x)k}."""
        if not self.is_ridge:
            raise UsageError("derivative_scalars requires a ridge test function")
        return self._engine.fk(np.asarray(w, dtype=float), order)


def stein_eval(sol: SteinSolution, x) -> NDArray[np.float64]:
    """f_eps at x; x is a point of R^dim or an (m, dim) batch."""
    out = sol.values(x)
    return float(out[0]) if np.ndim(x) <= 1 else out


def stein_derivative(sol: SteinSolution, x, order: int) -> NDArray[np.float64]:
    """Derivative tensor of f_eps at a single point: shape (dim,)*order."""
    if order not in (1, 2, 3):
        raise UsageError(f"order must be 1, 2 or 3, got {order}")
    x = sol._points(x, single=True)[0]
    if sol.is_ridge:
        u = sol.phi.ridge.direction
        scalar = float(sol.derivative_scalars(x @ u, order))
        tensor = np.array(1.0)
        for _ in range(order):
            tensor = np.multiply.outer(tensor, u)
        return scalar * tensor.reshape((sol.law.dim,) * order)
    return sol._engine.fk(x[None, :], order)[0]


def stein_residual(sol: SteinSolution, x) -> float:
    """|{-Lambda : D^2 f + x . grad f} - {phi_eps(x) - E phi_eps}| at a point."""
    x = sol._points(x, single=True)[0]
    rhs = float(sol._phi_eps(x[None, :])[0]) - sol._c_eps
    if sol.is_ridge:
        u = sol.phi.ridge.direction
        w = float(x @ u)
        sigma2 = sol.phi.ridge.sigma2(sol.law)
        f1, f2 = (float(f) for f in sol._engine.fk(np.asarray(w), (1, 2)))
        lhs = -sigma2 * f2 + w * f1
    else:
        grad, hess = (t[0] for t in sol._engine.fk(x[None, :], (1, 2)))
        lhs = -float(np.sum(sol.law.covariance.entries * hess)) + float(x @ grad)
    return abs(lhs - rhs)


def third_derivative_certificate(sol: SteinSolution, points) -> dict:
    """Check |D^3 f_eps| <= 15 |Lambda^{-1}| eps^{-dim} at the given points."""
    points = sol._points(points)
    if points.size == 0:
        raise UsageError("third_derivative_certificate needs at least one point")
    n = sol.law.dim
    bound = 15.0 * sol.law.covariance.inv_operator_norm() * sol.eps ** (-n)
    if sol.is_ridge:
        mags = np.abs(sol.derivative_scalars(sol._project(points), 3))
    else:
        tensors = sol._engine.fk(points, 3)
        mags = np.array([tensor_norm(t) for t in tensors])
    ratios = mags / bound
    return {
        "bound": bound,
        "n_points": len(points),
        "max_magnitude": float(mags.max()),
        "max_ratio": float(ratios.max()),
        "passed": bool(ratios.max() <= 1.0),
    }


# ---------------------------------------------------------------------------
# oscillation majorants


def _osc_window_k(dim: int) -> float:
    return 2.0 * np.sqrt(dim) + 1.0


class _RidgeMajorant:
    """Grid-based evaluation of the H / H' majorants for ridge solutions.

    F_2 and F_3 are tabulated together on one uniform grid; windowed
    oscillations come from running max/min filters and the Gaussian
    convolution from 1d quadrature with linear interpolation into the tables.
    """

    def __init__(self, sol: SteinSolution, delta: float, w_lo: float, w_hi: float):
        self.delta = delta
        kd = _osc_window_k(sol.law.dim) * delta
        self.kd = kd
        g, gw = hermite_1d(64)
        keep = np.abs(g) <= 8.0  # dropped conv weights are below exp(-32)
        self.conv_nodes, self.conv_wts = g[keep], gw[keep]
        pad = kd + delta * (abs(self.conv_nodes).max() + 1.0)
        lo, hi = w_lo - pad, w_hi + pad
        spacing = max(kd / 16.0, (hi - lo) / 40000.0)
        m = int(np.ceil((hi - lo) / spacing)) + 1
        self.grid = np.linspace(lo, hi, m)
        # the table feeds oscillation *bounds* checked with large slack, so a
        # reduced s budget (relative error ~1e-4) is ample here
        self.table_s_nodes = min(sol.quad.s_nodes, 256)
        tables = sol._engine.fk(self.grid, (2, 3), s_nodes=self.table_s_nodes)
        half = int(np.ceil(kd / (self.grid[1] - self.grid[0])))
        size = 2 * half + 1
        self.osc = {order: maximum_filter1d(table, size=size, mode="nearest")
                    - minimum_filter1d(table, size=size, mode="nearest")
                    for order, table in zip((2, 3), tables)}
        self._sol = sol

    def convolved_osc(self, w: NDArray[np.float64], order: int) -> NDArray[np.float64]:
        """2 (N(0, delta^2 Id) * osc_{K delta} F_k)(w) for k = order."""
        pts = w[:, None] - self.delta * self.conv_nodes[None, :]
        vals = np.interp(pts, self.grid, self.osc[order])
        return 2.0 * vals @ self.conv_wts

    def majorant(self, w: NDArray[np.float64], order: int) -> NDArray[np.float64]:
        base = self.convolved_osc(w, order)
        if order == 3:
            base = base + np.abs(self._sol.derivative_scalars(w, 3))
        return base


def _ridge_majorant(sol: SteinSolution, delta: float, w_lo: float,
                    w_hi: float) -> _RidgeMajorant:
    """The solution's majorant tables for (delta, [w_lo, w_hi]), built once."""
    key = (delta, w_lo, w_hi)
    if key not in sol._majorants:
        sol._majorants[key] = _RidgeMajorant(sol, delta, w_lo, w_hi)
    return sol._majorants[key]


def _check_delta(delta: float) -> None:
    """A majorant's smoothing scale must be positive and finite, for either
    engine."""
    if not (np.isfinite(delta) and delta > 0):  # a NaN fails
        raise UsageError(f"delta must be positive and finite, got {delta!r}")


def _majorant_order(kind: str) -> int:
    if kind == "hessian":
        return 2
    if kind == "third":
        return 3
    raise UsageError(f"kind must be 'hessian' or 'third', got {kind!r}")


def oscillation_majorant(sol: SteinSolution, x, delta: float, kind: str) -> NDArray[np.float64]:
    """Pointwise majorant H (kind='hessian') or H' (kind='third') at x.

    H_delta^eps  = 2 N(0, delta^2 Id) * osc_{K delta} D^2 f_eps
    H'_eps,delta = |D^3 f_eps| + 2 N(0, delta^2 Id) * osc_{K delta} D^3 f_eps
    with K = 2 sqrt(dim) + 1.  These dominate osc_delta of the corresponding
    derivative pointwise.
    """
    _check_delta(delta)
    order = _majorant_order(kind)
    x = sol._points(x)
    if sol.is_ridge:
        w = sol._project(x)
        maj = _ridge_majorant(sol, delta, float(w.min()), float(w.max()))
        return maj.majorant(w, order)
    return _generic_majorant(sol, x, delta, order)


def _tensor_osc(tensors: NDArray[np.float64]) -> float:
    flat = tensors.reshape(len(tensors), -1)
    diff = flat[:, None, :] - flat[None, :, :]
    return float(np.sqrt(np.max(np.sum(diff * diff, axis=-1))))


def _generic_majorant(sol: SteinSolution, x: NDArray[np.float64], delta: float,
                      order: int, n_ball: int = 64, n_conv_axis: int = 8) -> NDArray[np.float64]:
    dim = sol.law.dim
    kd = _osc_window_k(dim) * delta
    ball = kd * ball_points(dim, n_ball)
    conv_pts, conv_wts = hermite_grid(dim, n_conv_axis)
    conv_pts = delta * conv_pts
    out = np.zeros(len(x))
    for i, pt in enumerate(x):
        centers = pt[None, :] - conv_pts
        cloud = (centers[:, None, :] + ball[None, :, :]).reshape(-1, dim)
        tensors = sol._engine.fk(cloud, order).reshape(
            len(centers), len(ball), -1)
        osc = np.array([_tensor_osc(t) for t in tensors])
        val = 2.0 * float(conv_wts @ osc)
        if order == 3:
            val += tensor_norm(sol._engine.fk(pt[None, :], 3)[0])
        out[i] = val
    return out


def majorant_average_certificate(sol: SteinSolution, delta: float, kind: str) -> dict:
    """Check the Gaussian-average envelope of the majorant.

    integral of H dN(0, Lambda)  <= 100 dim^{3/2} |Lambda^{-1}| |log eps| delta
    integral of H' dN(0, Lambda) <= 100 dim^3 |Lambda^{-1/2}|^2
                                        (|log eps| + |Lambda^{-1/2}| delta / eps)

    For ridge solutions `table` reports the s budget and grid size of the
    shared F_2/F_3 table; generic solutions have no table (None).
    """
    _check_delta(delta)
    order = _majorant_order(kind)
    n = sol.law.dim
    log_eps = abs(np.log(sol.eps))
    if kind == "hessian":
        bound = 100.0 * n ** 1.5 * sol.law.covariance.inv_operator_norm() * log_eps * delta
    else:
        inv_sqrt = sol.law.covariance.inv_sqrt_operator_norm()
        bound = 100.0 * n ** 3 * inv_sqrt ** 2 * (log_eps + inv_sqrt * delta / sol.eps)
    if sol.is_ridge:
        sigma = np.sqrt(sol.phi.ridge.sigma2(sol.law))
        g, gw = hermite_1d(64)
        w = sigma * g
        maj = _ridge_majorant(sol, delta, float(w.min()), float(w.max()))
        value = float(gw @ maj.majorant(w, order))
        table = {"s_nodes": maj.table_s_nodes, "points": len(maj.grid)}
    else:
        pts, wts = hermite_grid(n, 8)
        xs = pts @ sol.law.covariance.sqrt().T
        value = float(wts @ _generic_majorant(sol, xs, delta, order,
                                              n_ball=32, n_conv_axis=4))
        table = None
    ratio = value / bound
    return {"kind": kind, "delta": delta, "value": value, "bound": bound,
            "ratio": ratio, "passed": bool(ratio <= 1.0), "table": table}


def smoothing_bound(dist_eps: float, law: GaussianLaw, eps: float) -> float:
    """Lift a smoothed-class distance to the full class:
    D <= 20 sqrt(dim) |Lambda^{1/2}| eps + 1000 dim^{3/2} D_eps,
    valid once the gradient budget exceeds 2 * 4^dim * eps^{-dim}."""
    n = law.dim
    return (20.0 * np.sqrt(n) * law.covariance.sqrt_operator_norm() * eps
            + 1000.0 * n ** 1.5 * dist_eps)
