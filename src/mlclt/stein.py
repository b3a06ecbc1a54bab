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

Ridge test functions phi(x) = h(u . x) admit an exact reduction: f_eps(x) =
F(u . x) where F is the 1d solution for profile h and variance u . Lambda u,
so all derivative tensors are rank-one and every integral is one-dimensional.
A generic tensorized quadrature path covers arbitrary test functions in low
dimension and is used to cross-validate the reduction.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.typing import NDArray
from scipy.ndimage import maximum_filter1d, minimum_filter1d

from ._util import (QuadratureError, UsageError, ball_points, hermite_1d,
                    hermite_grid, tensor_norm)
from .distances import TestFunction, gaussian_mean, mollify
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
# Node-doubling settle tolerance for solution construction.  The profiles in
# play are C^2 but not analytic, so Gauss-Hermite converges polynomially
# (observed ~1e-5 at 64 nodes); the downstream certificates carry tolerances
# of 1e-3 and larger, leaving an order of magnitude of headroom.
_VERIFY_TOL = 1e-4


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


def _s_panels(eps: float, n_total: int, order: int):
    """Quadrature nodes s_i and combined weights for the order-k s-integral.

    Panel A covers [eps^2, 1/2] in tau = log s; panel B covers the rest in
    t = -log(1-s).  In both variables every integrand is smooth with O(1)
    variation scale uniformly over the admissible eps range.
    """
    lo = eps * eps
    n_half = max(8, (n_total // 2) // 2 * 2)
    s_list, w_list = [], []
    if lo < 0.5:
        a, b = np.log(lo), np.log(0.5)
        tau = np.linspace(a, b, n_half + 1)
        s = np.exp(tau)
        w_list.append(_simpson_weights(n_half, (b - a) / n_half) * _weight(order, s) * s)
        s_list.append(s)
        t_start = np.log(2.0)
    else:
        t_start = -np.log1p(-lo)
    t = np.linspace(t_start, t_start + _T_TAIL, n_half + 1)
    s = -np.expm1(-t)
    w_list.append(_simpson_weights(n_half, _T_TAIL / n_half)
                  * _weight_times_one_minus_s(order, t, s))
    s_list.append(s)
    return np.concatenate(s_list), np.concatenate(w_list)


# ---------------------------------------------------------------------------
# 1d engine (exact ridge reduction)


class _RidgeEngine:
    """Stein solution for profile h and scalar variance sigma2: all derivative
    orders reduce to scalar functions F_k of w = u . x."""

    def __init__(self, profile, sigma2: float, eps: float, quad: QuadratureSpec):
        self.profile = profile
        self.sigma = float(np.sqrt(sigma2))
        self.eps = eps
        self.quad = quad
        self._c0_cache: dict[int, float] = {}
        self.c0 = self._gaussian_mean(quad.z_nodes_per_axis)

    def _gaussian_mean(self, n_nodes: int) -> float:
        # The subtracted mean must use the same rule as the inner integral:
        # by node symmetry the s -> 1 tail of the order-0 integrand then
        # cancels exactly instead of leaving an O(quadrature error) plateau.
        if n_nodes not in self._c0_cache:
            g, gw = hermite_1d(n_nodes)
            self._c0_cache[n_nodes] = float(gw @ self.profile(self.sigma * g))
        return self._c0_cache[n_nodes]

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

    def fk(self, w, order: int, s_nodes: int | None = None,
           v_nodes: int | None = None) -> NDArray[np.float64]:
        """F_k at scalar points w (any shape), k = order in 0..3."""
        w = np.asarray(w, dtype=float)
        flat = w.reshape(-1)
        s, sw = _s_panels(self.eps, s_nodes or self.quad.s_nodes, order)
        n_v = v_nodes or self.quad.z_nodes_per_axis
        g, gw = hermite_1d(n_v)
        v = self.sigma * g
        kern_w = gw * self._kernel(order, v)
        c0 = self._gaussian_mean(n_v)
        out = np.zeros(flat.shape)
        block = max(1, int(2e6) // max(1, flat.size * len(v)))
        for start in range(0, len(s), block):
            sl = slice(start, start + block)
            sb, swb = s[sl], sw[sl]
            args = (np.sqrt(1.0 - sb)[:, None, None] * flat[None, :, None]
                    - np.sqrt(sb)[:, None, None] * v[None, None, :])
            vals = self.profile(args) - c0
            out += swb @ (vals @ kern_w)
        return out.reshape(w.shape)

    def refinement_delta(self, w, order: int) -> float:
        a = self.fk(w, order)
        b = self.fk(w, order, s_nodes=2 * self.quad.s_nodes,
                    v_nodes=2 * self.quad.z_nodes_per_axis)
        return float(np.max(np.abs(a - b)))


# ---------------------------------------------------------------------------
# generic tensorized engine


class _GenericEngine:
    """Direct N-dimensional quadrature for arbitrary test functions."""

    def __init__(self, phi: TestFunction, law: GaussianLaw, quad: QuadratureSpec,
                 eps: float):
        self.phi = phi
        self.law = law
        self.eps = eps
        self.quad = quad
        n_axis = min(quad.z_nodes_per_axis, {1: 64, 2: 48, 3: 16}[law.dim])
        self.n_axis = n_axis
        self.c0 = gaussian_mean(phi, law)

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

    def fk(self, x: NDArray[np.float64], order: int, s_nodes: int | None = None,
           n_axis: int | None = None) -> NDArray[np.float64]:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        s, sw = _s_panels(self.eps, s_nodes or self.quad.s_nodes, order)
        z, gw = self._nodes(n_axis or self.n_axis)
        kern = self._kernel(order, z)
        kern_w = kern * gw.reshape((-1,) + (1,) * (kern.ndim - 1))
        # match the subtracted mean to the rule in use so the s -> 1 tail of
        # the order-0 integrand cancels exactly (node set is symmetric)
        c0 = float(gw @ self.phi(z))
        shape = (len(x),) + kern.shape[1:]
        out = np.zeros(shape)
        for i, (si, wi) in enumerate(zip(s, sw)):
            arg = np.sqrt(1.0 - si) * x[:, None, :] - np.sqrt(si) * z[None, :, :]
            vals = self.phi(arg.reshape(-1, self.law.dim)).reshape(len(x), len(z))
            out += wi * np.tensordot(vals - c0, kern_w, axes=(1, 0))
        return out

    def refinement_delta(self, x, order: int) -> float:
        a = self.fk(x, order)
        b = self.fk(x, order, s_nodes=2 * self.quad.s_nodes, n_axis=2 * self.n_axis)
        return float(np.max(np.abs(a - b)))


# ---------------------------------------------------------------------------
# public surface


@dataclass(frozen=True)
class SteinSolution:
    """Mollified Stein solution f_eps for (phi, law, eps).

    Construction runs a node-doubling convergence probe and raises
    QuadratureError if the value or Hessian integral has not settled to the
    module tolerance.
    """

    phi: TestFunction
    law: GaussianLaw
    eps: float
    quad: QuadratureSpec = QuadratureSpec()
    _engine: object = field(init=False, repr=False, compare=False)
    _phi_eps: TestFunction = field(init=False, repr=False, compare=False)
    _c_eps: float = field(init=False, repr=False, compare=False)

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
        phi_eps = mollify(self.phi, self.eps, self.law)
        object.__setattr__(self, "_phi_eps", phi_eps)
        object.__setattr__(self, "_c_eps", gaussian_mean(phi_eps, self.law))
        probe = self._probe_points()
        if self.phi.ridge is not None:
            probe = probe @ self.phi.ridge.direction
        for order in (0, 2):
            delta = engine.refinement_delta(probe, order)
            if not delta <= _VERIFY_TOL:  # a NaN fails
                raise QuadratureError(
                    f"Stein quadrature (order {order}) moved by {delta:.3e} "
                    f"under node doubling; increase QuadratureSpec budgets")

    def _probe_points(self) -> NDArray[np.float64]:
        root = self.law.covariance.sqrt()
        ones = np.ones(self.law.dim)
        return np.vstack([np.zeros(self.law.dim), root @ ones, -2.0 * (root @ ones)])

    # -- ridge helpers ------------------------------------------------------

    @property
    def is_ridge(self) -> bool:
        return self.phi.ridge is not None

    def _project(self, x: NDArray[np.float64]) -> NDArray[np.float64]:
        return x @ self.phi.ridge.direction

    def values(self, x) -> NDArray[np.float64]:
        x = np.atleast_2d(np.asarray(x, dtype=float))
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
    x = np.asarray(x, dtype=float)
    single = x.ndim <= 1
    out = sol.values(np.atleast_2d(np.atleast_1d(x)))
    return float(out[0]) if single else out


def stein_derivative(sol: SteinSolution, x, order: int) -> NDArray[np.float64]:
    """Derivative tensor of f_eps at a single point: shape (dim,)*order."""
    if order not in (1, 2, 3):
        raise UsageError(f"order must be 1, 2 or 3, got {order}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.ndim != 1 or x.size != sol.law.dim:
        raise UsageError("stein_derivative takes a single point of the law's dimension")
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
    x = np.atleast_1d(np.asarray(x, dtype=float))
    rhs = float(sol._phi_eps(x[None, :])[0]) - sol._c_eps
    if sol.is_ridge:
        u = sol.phi.ridge.direction
        w = float(x @ u)
        sigma2 = sol.phi.ridge.sigma2(sol.law)
        f1 = float(sol.derivative_scalars(w, 1))
        f2 = float(sol.derivative_scalars(w, 2))
        lhs = -sigma2 * f2 + w * f1
    else:
        grad = sol._engine.fk(x[None, :], 1)[0]
        hess = sol._engine.fk(x[None, :], 2)[0]
        lhs = -float(np.sum(sol.law.covariance.entries * hess)) + float(x @ grad)
    return abs(lhs - rhs)


def third_derivative_certificate(sol: SteinSolution, points) -> dict:
    """Check |D^3 f_eps| <= 15 |Lambda^{-1}| eps^{-dim} at the given points."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
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

    F_k is tabulated on a uniform grid; windowed oscillations come from
    running max/min filters and the Gaussian convolution from 1d quadrature
    with linear interpolation into the tables.
    """

    def __init__(self, sol: SteinSolution, delta: float, order: int,
                 w_lo: float, w_hi: float):
        if delta <= 0:
            raise UsageError("delta must be positive")
        self.delta = delta
        self.order = order
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
        table_nodes = min(sol.quad.s_nodes, 256)
        self.table = sol._engine.fk(self.grid, order, s_nodes=table_nodes)
        half = int(np.ceil(kd / (self.grid[1] - self.grid[0])))
        size = 2 * half + 1
        self.osc = (maximum_filter1d(self.table, size=size, mode="nearest")
                    - minimum_filter1d(self.table, size=size, mode="nearest"))
        self._sol = sol

    def convolved_osc(self, w: NDArray[np.float64]) -> NDArray[np.float64]:
        """2 (N(0, delta^2 Id) * osc_{K delta} F_k)(w)."""
        pts = w[:, None] - self.delta * self.conv_nodes[None, :]
        vals = np.interp(pts, self.grid, self.osc)
        return 2.0 * vals @ self.conv_wts

    def majorant(self, w: NDArray[np.float64]) -> NDArray[np.float64]:
        base = self.convolved_osc(w)
        if self.order == 3:
            base = base + np.abs(self._sol.derivative_scalars(w, 3))
        return base


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
    order = _majorant_order(kind)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if sol.is_ridge:
        w = sol._project(x)
        maj = _RidgeMajorant(sol, delta, order, float(w.min()), float(w.max()))
        return maj.majorant(w)
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
    """
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
        maj = _RidgeMajorant(sol, delta, order, float(w.min()), float(w.max()))
        value = float(gw @ maj.majorant(w))
    else:
        pts, wts = hermite_grid(n, 8)
        xs = pts @ sol.law.covariance.sqrt().T
        value = float(wts @ _generic_majorant(sol, xs, delta, order,
                                              n_ball=32, n_conv_axis=4))
    ratio = value / bound
    return {"kind": kind, "delta": delta, "value": value, "bound": bound,
            "ratio": ratio, "passed": bool(ratio <= 1.0)}


def smoothing_bound(dist_eps: float, law: GaussianLaw, eps: float) -> float:
    """Lift a smoothed-class distance to the full class:
    D <= 20 sqrt(dim) |Lambda^{1/2}| eps + 1000 dim^{3/2} D_eps,
    valid once the gradient budget exceeds 2 * 4^dim * eps^{-dim}."""
    n = law.dim
    return (20.0 * np.sqrt(n) * law.covariance.sqrt_operator_norm() * eps
            + 1000.0 * n ** 1.5 * dist_eps)
