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

Test functions are ridge functions phi(x) = h(u . x) with a C^2
`PiecewisePolynomial` profile h, as every soft-clip member is in every dim;
any other test function raises UsageError.  The reduction is exact: f_eps(x)
= F(u . x) where F is the 1d solution for profile h and variance sigma^2 =
u . Lambda u, so D^k f_eps(x) = F_k(u . x) u^{(x)k} and every integral is
one-dimensional.  Gaussian integration by parts, E[f(G) He_k(G)] =
E[f^(k)(G)], turns the order-k inner integral into

    F_k(w) = sum_i sw_k(s_i) s_i^{k/2} E[h^(k)(sqrt(1-s_i) w + sqrt(s_i) sigma Z)]

(for k = 0 less E[h(sigma Z)] = E[phi(Z)]), and on each piece the
expectation is a finite sum of truncated normal moments.  Gaussian
interpolation preserves N(0, Lambda), so the same E[phi(Z)], taken once by
`gaussian_mean`, is also the right-hand side's constant E[phi_eps(Z)].

The s-integral is the one quadrature, and `SteinSolution` owns its one
routine.  It is split into two panels with substitutions tau = log s
(resolving the s -> eps^2 end) and t = -log(1-s) (resolving the s -> 1
end), each handled by composite Simpson rules.  The budget is fixed: 1024
s-nodes, doubled once by the construction gate, and 256 for the majorant
tables.  The s-nodes depend only on eps and the budget; only the weights
depend on the order.  Orders requested together at the same points
therefore share one set of truncated moments, and each keeps the bits it
has when requested alone: the construction gate computes orders 0 and 2
together, the residual 1 and 2, and the majorant tables 2 and 3.
Each solution builds its majorant table once per (delta, window) and serves
both majorant kinds from it.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from ._util import QuadratureError, UsageError, hermite_1d
from .distances import (PiecewisePolynomial, TestFunction, _ridge_of, gaussian_mean,
                        mollify)
from .gaussians import GaussianLaw

__all__ = [
    "SteinSolution",
    "stein_residual",
    "third_derivative_certificate",
    "majorant_average_certificate",
]

_EPS_MIN, _EPS_MAX = 0.05, 0.9
_T_TAIL = 56.0  # integrand tails decay like exp(-t/2); exp(-28) is negligible
# Node-doubling settle tolerance for solution construction.  The inner
# integral is exact, so the gate measures the s-integral alone: at the
# 1024 s-nodes, doubling moves F_0 and F_2 of every soft-clip member
# by at most 5.5e-7 (dims 1-3, eps 0.05-0.9, Lambda = Id and 4 Id).  The
# downstream certificates carry tolerances of 1e-3 and larger, leaving an
# order of magnitude of headroom above this gate.
_VERIFY_TOL = 1e-4
# Orders whose node-doubling delta gates solution construction.
_GATE_ORDERS = (0, 2)
# s-nodes of every solution's s-integral; the gate doubles them.
_S_NODES = 1024
# s-nodes of the majorant tables: they feed oscillation *bounds* checked with
# large slack, so a reduced budget (relative error ~1e-4) is ample there.
_TABLE_S_NODES = 256
# (s, w) pairs per block of the closed-form inner integral; each pair holds
# a few dozen float64 temporaries.
_EXACT_BLOCK = 1 << 16


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


# ---------------------------------------------------------------------------
# public surface


@dataclass(frozen=True)
class SteinSolution:
    """Mollified Stein solution f_eps for (phi, law, eps).

    phi must be a ridge function (`distances.ridge_function`); anything else
    raises UsageError.  Construction takes E[phi(Z)] with `gaussian_mean`,
    then runs a node-doubling convergence probe of the s-integral on its
    fixed budget of `_S_NODES`; it raises QuadratureError if that integral
    has not settled (the probe reports both moves of the value and Hessian
    integrals in `node_doubling_deltas`).  Majorant tables are built once
    per (delta, window) and kept with the solution.  Points passed to the
    evaluation and certificate functions must lie in R^dim.
    """

    phi: TestFunction
    law: GaussianLaw
    eps: float
    _sigma: float = field(init=False, repr=False, compare=False)
    _phi_eps: TestFunction = field(init=False, repr=False, compare=False)
    _c_eps: float = field(init=False, repr=False, compare=False)
    _deltas: dict = field(init=False, repr=False, compare=False)
    _majorants: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not _EPS_MIN <= self.eps <= _EPS_MAX:
            raise UsageError(
                f"eps={self.eps} outside the supported range [{_EPS_MIN}, {_EPS_MAX}]")
        ridge = _ridge_of(self.phi, self.law)
        object.__setattr__(self, "_sigma", float(np.sqrt(ridge.sigma2(self.law))))
        object.__setattr__(self, "_phi_eps", mollify(self.phi, self.eps, self.law))
        # interpolation preserves the law: E[phi_eps(Z)] = E[phi(Z)], Z ~ law
        object.__setattr__(self, "_c_eps", gaussian_mean(self.phi, self.law))
        probe = self._project(self._probe_points())
        coarse = self._fk(probe, _GATE_ORDERS)
        fine = self._fk(probe, _GATE_ORDERS, 2 * _S_NODES)
        deltas = {order: float(np.max(np.abs(a - b)))
                  for order, a, b in zip(_GATE_ORDERS, coarse, fine)}
        for order, delta in deltas.items():
            if not delta <= _VERIFY_TOL:  # a NaN fails
                raise QuadratureError(
                    f"Stein quadrature (order {order}) moved by {delta:.3e} "
                    f"under node doubling from {_S_NODES} s-nodes")
        object.__setattr__(self, "_deltas", deltas)
        object.__setattr__(self, "_majorants", {})

    def _fk(self, w, orders: tuple[int, ...], s_nodes: int | None = None) -> list:
        """F_k at scalar points w (any shape), one array per order k in
        `orders`, on `s_nodes` s-nodes (`_S_NODES` if None).

        Gaussian integration by parts, E[f(G) He_k(G)] = E[f^(k)(G)], turns
        the order-k inner integral at s into s^{k/2} E[h^(k)(sqrt(1-s) w +
        sqrt(s) sigma Z)], which the profile evaluates in closed form.  The
        orders of one call share every set of truncated moments; each result
        has the same bits as a call for its order alone.
        """
        w = np.asarray(w, dtype=float)
        flat = w.reshape(-1)
        s, sws = _s_panels(self.eps, s_nodes or _S_NODES, orders)
        outs = [np.zeros(flat.shape) for _ in orders]
        block = max(1, _EXACT_BLOCK // max(1, flat.size))
        for start in range(0, len(s), block):
            sl = slice(start, start + block)
            sb = s[sl]
            vals = self.phi.ridge.profile.gaussian_expectations(
                np.sqrt(1.0 - sb)[:, None] * flat[None, :],
                (np.sqrt(sb) * self._sigma)[:, None], orders)
            for out, sw, k, val in zip(outs, sws, orders, vals):
                if k == 0:
                    val = val - self._c_eps
                out += (sw[sl] * sb ** (0.5 * k)) @ val
        return [out.reshape(w.shape) for out in outs]

    @property
    def node_doubling_deltas(self) -> dict:
        """Order -> max |change| of that integral at the probe points when
        the s budget is doubled (the construction gate's input)."""
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

    def _project(self, x: NDArray[np.float64]) -> NDArray[np.float64]:
        return x @ self.phi.ridge.direction

    def values(self, x) -> NDArray[np.float64]:
        """f_eps at points x: one point of R^dim as a 1-d x, or an (m, dim)
        batch; the result has shape (m,)."""
        return self.derivative_scalars(self._project(self._points(x)), 0)

    def derivative_scalars(self, w, order: int) -> NDArray[np.float64]:
        """The scalar F_k(w), k = order in 0..3, with D^k f = F_k(u.x) u^{(x)k}."""
        return self._fk(w, (order,))[0]


def stein_residual(sol: SteinSolution, x) -> float:
    """|{-Lambda : D^2 f + x . grad f} - {phi_eps(x) - E phi_eps}| at a point."""
    x = sol._points(x, single=True)[0]
    rhs = float(sol._phi_eps(x[None, :])[0]) - sol._c_eps
    w = float(x @ sol.phi.ridge.direction)
    sigma2 = sol.phi.ridge.sigma2(sol.law)
    f1, f2 = (float(f) for f in sol._fk(w, (1, 2)))
    lhs = -sigma2 * f2 + w * f1
    return abs(lhs - rhs)


def third_derivative_certificate(sol: SteinSolution, points) -> dict:
    """Check |D^3 f_eps| <= 15 |Lambda^{-1}| eps^{-dim} at the given points."""
    points = sol._points(points)
    if points.size == 0:
        raise UsageError("third_derivative_certificate needs at least one point")
    n = sol.law.dim
    bound = 15.0 * sol.law.covariance.inv_operator_norm() * sol.eps ** (-n)
    # |F_3(w) u^{(x)3}| = |F_3(w)| for a unit u
    mags = np.abs(sol.derivative_scalars(sol._project(points), 3))
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


def _window_oscillation(table: NDArray[np.float64], half: int) -> NDArray[np.float64]:
    """max - min of `table` over the windows [i - half, i + half], the table
    extended past either end by its end value (scipy.ndimage's running
    max/min filters in mode "nearest"; max and min are exact)."""
    windows = np.lib.stride_tricks.sliding_window_view(
        np.pad(table, half, mode="edge"), 2 * half + 1)
    return windows.max(axis=1) - windows.min(axis=1)


class _RidgeMajorant:
    """Grid-based evaluation of the H / H' majorants.

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
        tables = sol._fk(self.grid, (2, 3), _TABLE_S_NODES)
        half = int(np.ceil(kd / (self.grid[1] - self.grid[0])))
        self.osc = {order: _window_oscillation(table, half)
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
    """A majorant's smoothing scale must be positive and finite."""
    if not (np.isfinite(delta) and delta > 0):  # a NaN fails
        raise UsageError(f"delta must be positive and finite, got {delta!r}")


def _majorant_order(kind: str) -> int:
    if kind == "hessian":
        return 2
    if kind == "third":
        return 3
    raise UsageError(f"kind must be 'hessian' or 'third', got {kind!r}")


def majorant_average_certificate(sol: SteinSolution, delta: float, kind: str) -> dict:
    """Check the Gaussian-average envelope of the majorant.

    integral of H dN(0, Lambda)  <= 100 dim^{3/2} |Lambda^{-1}| |log eps| delta
    integral of H' dN(0, Lambda) <= 100 dim^3 |Lambda^{-1/2}|^2
                                        (|log eps| + |Lambda^{-1/2}| delta / eps)

    `table` reports the s budget and grid size of the shared F_2/F_3 table.
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
    sigma = np.sqrt(sol.phi.ridge.sigma2(sol.law))
    g, gw = hermite_1d(64)
    w = sigma * g
    maj = _ridge_majorant(sol, delta, float(w.min()), float(w.max()))
    value = float(gw @ maj.majorant(w, order))
    table = {"s_nodes": _TABLE_S_NODES, "points": len(maj.grid)}
    ratio = value / bound
    return {"kind": kind, "delta": delta, "value": value, "bound": bound,
            "ratio": ratio, "passed": bool(ratio <= 1.0), "table": table}
