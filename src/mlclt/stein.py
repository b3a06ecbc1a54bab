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

Lambda is an `SpdMatrix`, passed as `lam`, and every test function is a
`TestFunction`: a ridge phi(x) = h(u . x) with a C^2 `PiecewisePolynomial`
profile h, as every soft-clip member is in every dim.  The reduction is
exact: f_eps(x) = F(u . x) where F is the 1d solution for profile h and
variance sigma^2 = u . Lambda u, so D^k f_eps(x) = F_k(u . x) u^{(x)k} and
every integral is one-dimensional.  Gaussian integration by parts, E[f(G) He_k(G)] =
E[f^(k)(G)], turns the order-k inner integral into

    F_k(w) = sum_i sw_k(s_i) s_i^{k/2} E[h^(k)(sqrt(1-s_i) w + sqrt(s_i) sigma Z)]

(for k = 0 less E[h(sigma Z)] = E[phi(Z)]), and on each piece the
expectation is a finite sum of truncated normal moments.  Gaussian
interpolation preserves N(0, Lambda), so the same E[phi(Z)], taken once by
`gaussian_mean`, is also the right-hand side's constant E[phi_eps(Z)].

The s-integral is the one quadrature, and `SteinSolution` owns its one
routine.  It is split into two panels with substitutions tau = log s
(resolving the s -> eps^2 end) and t = -log(1-s) (resolving the s -> 1
end), each taken by one Gauss-Legendre rule.  The budget is fixed: 128
s-nodes for the solution and 48 for the majorant table.  `_node_doubling`
gates each budget beside the integral it gates: the solution's at
construction, the table's in `majorant_average_certificate`, which builds
the one table and serves both majorant kinds from it.  The s-nodes depend
only on eps and the budget; only the weights depend on the order.  Orders
requested together at the same points therefore share one set of truncated
moments, and each keeps the bits it has when requested alone: the
solution's gate computes orders 0 and 2 together, the residual 1 and 2, and
the majorant table and its gate 2 and 3.

The (s, w) pairs of one call form a grid of s-nodes by points.  Each
point's F_k is its own sequential sum over the s-nodes, from -0.0, one row
of the grid after the other, whatever the batch it is evaluated in and
however many BLAS threads run: no BLAS call adds it.  The closed forms are
evaluated in slices of about `_EXACT_SLICE` pairs, a few rows of the grid
(or part of one row, past `_EXACT_SLICE` points), and `_add_rows` adds each
slice's rows onto the running sums.  Each value depends on its own pair
alone, so the slices leave the bits as they are; they keep the
temporaries small enough to stay in cache and in the heap.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np
import numpy.polynomial  # numpy loads it on first use: load it here, not inside a run
from numpy.typing import NDArray

from ._util import QuadratureError, UsageError, _add_rows, hermite_1d
from .distances import TestFunction, gaussian_mean, mollify
from .gaussians import SpdMatrix

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
# 128 s-nodes, doubling moves F_0 and F_2 of every soft-clip member by at
# most 4.6e-9 (dims 1-3, eps 0.05-0.9, Lambda = Id and 4 Id).  The
# downstream certificates carry tolerances of 1e-3 and larger, leaving an
# order of magnitude of headroom above this gate.
_VERIFY_TOL = 1e-4
# Orders whose node-doubling delta gates solution construction.
_GATE_ORDERS = (0, 2)
# s-nodes of every solution's s-integral; the gate doubles them.
_S_NODES = 128
# s-nodes of the majorant tables, which feed oscillation *bounds* checked
# with large slack: 48 leave at most 2.9e-4 in F_2 and F_3 against a converged
# reference (dims 1-3, eps 0.05-0.9, Lambda = Id / 4, Id, 4 Id), 32 left 3.7e-3.
_TABLE_S_NODES = 48
# Node-doubling settle tolerance of the majorant tables' orders, taken at the
# probe points and at `_TABLE_GATE_W`.  On those 41 points the 48 -> 96 move
# equals the 48-node error against 1024 s-nodes to a ratio of at least
# 0.9999 and reaches 2.9e-4 (dims 1-3, Lambda = Id / 4, Id, 4 Id, eps
# 0.05-0.9, every soft-clip member); the probe points alone saw as little as
# 7.6e-4 of that error.
_TABLE_VERIFY_TOL = 1e-3
# Scalar points w = u . x at which the table gate also doubles the nodes.
_TABLE_GATE_W = np.linspace(-4.0, 4.0, 41)
# Orders that the majorant tables hold, and whose node doubling gates them.
_TABLE_ORDERS = (2, 3)
# The s-integral's rule, as each stein-certify manifest records it.
_S_RULE = "gauss-legendre"
# (s, w) pairs per evaluation slice of the closed-form inner integral.  The
# closed forms take a few dozen float64 temporaries per pair; at 2^12 pairs
# they stay in cache and in the heap, where larger slices went back to the
# OS and were faulted in again (2^11 was slower, 2^13 still faulted).  Every
# value depends on its own pair alone and every F_k adds its s-nodes in
# order, so the slices leave every bit as it is.
_EXACT_SLICE = 1 << 12


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


@lru_cache(maxsize=16)
def _legendre_rule(n: int) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """The n-node Gauss-Legendre rule on [-1, 1], built at first use; the
    cached arrays are read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _s_panels(eps: float, n_total: int, orders: tuple[int, ...]):
    """Quadrature nodes s_i and, per order k in `orders`, the combined weights
    of the order-k s-integral.

    Panel A covers [eps^2, 1/2] in tau = log s; panel B covers the rest in
    t = -log(1-s), over `_T_TAIL`.  In both variables every integrand is
    analytic in s > 0 with O(1) variation scale uniformly over the admissible
    eps range, so each panel takes one Gauss-Legendre rule of n_total // 2
    nodes (panel B alone when eps^2 >= 1/2).  The nodes depend on eps and
    the budget only, so every order shares them.
    """
    lo = eps * eps
    x, w = _legendre_rule(max(1, n_total // 2))
    s_list, w_lists = [], [[] for _ in orders]
    if lo < 0.5:
        a, b = np.log(lo), np.log(0.5)
        s = np.exp(0.5 * (a + b) + 0.5 * (b - a) * x)
        for order, w_list in zip(orders, w_lists):
            w_list.append(0.5 * (b - a) * w * _weight(order, s) * s)
        s_list.append(s)
        a = np.log(2.0)
    else:
        a = -np.log1p(-lo)
    b = a + _T_TAIL
    t = 0.5 * (a + b) + 0.5 * (b - a) * x
    s = -np.expm1(-t)
    for order, w_list in zip(orders, w_lists):
        w_list.append(0.5 * (b - a) * w * _weight_times_one_minus_s(order, t, s))
    s_list.append(s)
    return np.concatenate(s_list), [np.concatenate(w) for w in w_lists]


def _node_doubling(sol: SteinSolution, name: str, w, orders: tuple[int, ...],
                   s_nodes: int, tol: float) -> dict:
    """Order -> max |change| of F_k at the scalar points w when the s budget
    is doubled from `s_nodes`.  A move above `tol` raises QuadratureError
    naming the integral `name` and the order."""
    coarse = sol._fk(w, orders, s_nodes)
    fine = sol._fk(w, orders, 2 * s_nodes)
    deltas = {order: float(np.max(np.abs(a - b)))
              for order, a, b in zip(orders, coarse, fine)}
    for order, delta in deltas.items():
        if not delta <= tol:  # a NaN fails
            raise QuadratureError(f"{name} (order {order}) moved by {delta:.3e} "
                                  f"under node doubling from {s_nodes} s-nodes")
    return deltas


# ---------------------------------------------------------------------------
# public surface


@dataclass(frozen=True)
class SteinSolution:
    """Mollified Stein solution f_eps for (phi, lam, eps), target N(0, lam).

    Construction takes E[phi(Z)] with `gaussian_mean`, then gates the
    s-integral's `_S_NODES` budget by node doubling at three probe points;
    QuadratureError names the order that has not settled, and
    `node_doubling_deltas` reports the moves.  The majorant table's budget
    is gated where the table is built, in `majorant_average_certificate`.
    Points passed to the evaluation and certificate functions must lie in
    R^dim.
    """

    phi: TestFunction
    lam: SpdMatrix
    eps: float
    _sigma: float = field(init=False, repr=False, compare=False)
    _phi_eps: Callable = field(init=False, repr=False, compare=False)
    _c_eps: float = field(init=False, repr=False, compare=False)
    _deltas: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not _EPS_MIN <= self.eps <= _EPS_MAX:
            raise UsageError(
                f"eps={self.eps} outside the supported range [{_EPS_MIN}, {_EPS_MAX}]")
        object.__setattr__(self, "_sigma", float(np.sqrt(self.phi.sigma2(self.lam))))
        object.__setattr__(self, "_phi_eps", mollify(self.phi, self.eps, self.lam))
        # interpolation preserves the law: E[phi_eps(Z)] = E[phi(Z)], Z ~ N(0, lam)
        object.__setattr__(self, "_c_eps", gaussian_mean(self.phi, self.lam))
        object.__setattr__(self, "_deltas", _node_doubling(
            self, "Stein quadrature", self._project(self._probe_points()),
            _GATE_ORDERS, _S_NODES, _VERIFY_TOL))

    def _fk(self, w, orders: tuple[int, ...], s_nodes: int | None = None) -> list:
        """F_k at scalar points w (any shape), one array per order k in
        `orders`, on `s_nodes` s-nodes (`_S_NODES` if None).

        Gaussian integration by parts, E[f(G) He_k(G)] = E[f^(k)(G)], turns
        the order-k inner integral at s into s^{k/2} E[h^(k)(sqrt(1-s) w +
        sqrt(s) sigma Z)], which the profile evaluates in closed form, slice
        by slice.  Rows 1.. of an order's buffer take the slice's
        sw * s^{k/2} * value products and row 0 the running sums, which
        `_add_rows` adds them onto.  The orders of one call share every set
        of truncated moments; each result has the same bits as a call for its
        order alone, and at each point as a call for that point alone.
        """
        w = np.asarray(w, dtype=float)
        flat = w.reshape(-1)
        m = flat.size
        s, sws = _s_panels(self.eps, s_nodes or _S_NODES, orders)
        a, b = np.sqrt(1.0 - s), np.sqrt(s) * self._sigma
        coefs = [sw * s ** (0.5 * k) for sw, k in zip(sws, orders)]
        rows, cols = max(1, _EXACT_SLICE // max(1, m)), max(1, min(m, _EXACT_SLICE))
        outs = [np.full(m, -0.0) for _ in orders]
        bufs = [np.empty((min(rows, len(s)) + 1, m)) for _ in orders]
        profile = self.phi.profile
        for r in range(0, len(s), rows):
            rs = slice(r, min(r + rows, len(s)))
            n = rs.stop - r
            for c in range(0, m, cols):
                got = profile.gaussian_expectations(
                    a[rs, None] * flat[None, c:c + cols], b[rs, None], orders)
                for buf, coef, k, g in zip(bufs, coefs, orders, got):
                    if k == 0:
                        g -= self._c_eps
                    np.multiply(coef[rs, None], g, out=buf[1:n + 1, c:c + cols])
            for out, buf in zip(outs, bufs):
                buf[0] = out
                _add_rows(buf[:n + 1], out)
        return [out.reshape(w.shape) for out in outs]

    @property
    def node_doubling_deltas(self) -> dict:
        """Order -> max |change| of that integral at the probe points when
        the s budget is doubled (the construction gate's input)."""
        return dict(self._deltas)

    def _probe_points(self) -> NDArray[np.float64]:
        root = self.lam.sqrt()
        ones = np.ones(self.lam.dim)
        return np.vstack([np.zeros(self.lam.dim), root @ ones, -2.0 * (root @ ones)])

    def _points(self, x) -> NDArray[np.float64]:
        """x as an (m, dim) batch, a 1-d x being one point.  Any other shape
        raises UsageError."""
        shape = np.shape(x)
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.ndim != 2 or x.shape[1] != self.lam.dim:
            raise UsageError(f"expected points of R^{self.lam.dim}, "
                             f"got an array of shape {shape}")
        return x

    def _project(self, x: NDArray[np.float64]) -> NDArray[np.float64]:
        return x @ self.phi.direction

    def values(self, x) -> NDArray[np.float64]:
        """f_eps at points x: one point of R^dim as a 1-d x, or an (m, dim)
        batch; the result has shape (m,)."""
        return self.derivative_scalars(self._project(self._points(x)), 0)

    def derivative_scalars(self, w, order: int) -> NDArray[np.float64]:
        """The scalar F_k(w), k = order in 0..3, with D^k f = F_k(u.x) u^{(x)k}."""
        return self._fk(w, (order,))[0]


def stein_residual(sol: SteinSolution, x) -> NDArray[np.float64]:
    """|{-Lambda : D^2 f + x . grad f} - {phi_eps(x) - E phi_eps}| at points
    x: one point of R^dim as a 1-d x, or an (m, dim) batch; the result has
    shape (m,)."""
    x = sol._points(x)
    rhs = sol._phi_eps(x) - sol._c_eps
    w = sol._project(x)
    f1, f2 = sol._fk(w, (1, 2))
    lhs = -sol.phi.sigma2(sol.lam) * f2 + w * f1
    return np.abs(lhs - rhs)


def third_derivative_certificate(sol: SteinSolution, points) -> dict:
    """Check |D^3 f_eps| <= 15 |Lambda^{-1}| eps^{-dim} at the given points."""
    points = sol._points(points)
    if points.size == 0:
        raise UsageError("third_derivative_certificate needs at least one point")
    n = sol.lam.dim
    bound = 15.0 * sol.lam.inv_operator_norm() * sol.eps ** (-n)
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


def _window_oscillation(table: NDArray[np.float64], half: int) -> NDArray[np.float64]:
    """max - min of `table` over the windows [i - half, i + half], the table
    extended past either end by its end value (scipy.ndimage's running
    max/min filters in mode "nearest"; max and min are exact)."""
    windows = np.lib.stride_tricks.sliding_window_view(
        np.pad(table, half, mode="edge"), 2 * half + 1)
    return windows.max(axis=1) - windows.min(axis=1)


def _majorants(sol: SteinSolution, delta: float, w: NDArray[np.float64]):
    """The majorants H and H' at the scalar points w, keyed "hessian" and
    "third", and the size of the one F_2/F_3 table they are read from.

    With K = 2 sqrt(dim) + 1, H = 2 N(0, delta^2) * osc_{K delta} F_2 and
    H' = 2 N(0, delta^2) * osc_{K delta} F_3 + |F_3|.  F_2 and F_3 are
    tabulated together on one uniform grid over w's range and the windows'
    reach; windowed oscillations come from running max/min filters and the
    Gaussian convolution from 1d quadrature with linear interpolation into
    the tables.
    """
    kd = (2.0 * np.sqrt(sol.lam.dim) + 1.0) * delta
    g, gw = hermite_1d(64)
    keep = np.abs(g) <= 8.0  # dropped conv weights are below exp(-32)
    conv_nodes, conv_wts = g[keep], gw[keep]
    pad = kd + delta * (abs(conv_nodes).max() + 1.0)
    lo, hi = float(w.min()) - pad, float(w.max()) + pad
    spacing = max(kd / 16.0, (hi - lo) / 40000.0)
    grid = np.linspace(lo, hi, int(np.ceil((hi - lo) / spacing)) + 1)
    half = int(np.ceil(kd / (grid[1] - grid[0])))
    pts = w[:, None] - delta * conv_nodes[None, :]
    hessian, third = (2.0 * np.interp(pts, grid, _window_oscillation(table, half)) @ conv_wts
                      for table in sol._fk(grid, _TABLE_ORDERS, _TABLE_S_NODES))
    return {"hessian": hessian,
            "third": third + np.abs(sol.derivative_scalars(w, 3))}, len(grid)


def majorant_average_certificate(sol: SteinSolution, delta: float) -> dict:
    """Check the Gaussian-average envelopes of both majorants, one report per
    kind:

    "hessian": integral of H dN(0, Lambda)
                   <= 100 dim^{3/2} |Lambda^{-1}| |log eps| delta
    "third":   integral of H' dN(0, Lambda)
                   <= 100 dim^3 |Lambda^{-1/2}|^2 (|log eps| + |Lambda^{-1/2}| delta / eps)

    The majorant table's `_TABLE_S_NODES` budget is first gated by node
    doubling at the solution's probe points and at `_TABLE_GATE_W`;
    QuadratureError names the order that has not settled.  Each report's
    `table` gives the table's s budget, grid size and gate deltas.
    """
    if not (np.isfinite(delta) and delta > 0):  # a NaN fails
        raise UsageError(f"delta must be positive and finite, got {delta!r}")
    gate = _node_doubling(
        sol, "majorant table",
        np.concatenate([sol._project(sol._probe_points()), _TABLE_GATE_W]),
        _TABLE_ORDERS, _TABLE_S_NODES, _TABLE_VERIFY_TOL)
    g, gw = hermite_1d(64)
    majorants, points = _majorants(sol, delta, sol._sigma * g)
    table = {"s_nodes": _TABLE_S_NODES, "points": points, "node_doubling_delta": gate}
    n = sol.lam.dim
    log_eps = abs(np.log(sol.eps))
    inv_sqrt = sol.lam.inv_sqrt_operator_norm()
    bounds = {"hessian": 100.0 * n ** 1.5 * sol.lam.inv_operator_norm() * log_eps * delta,
              "third": 100.0 * n ** 3 * inv_sqrt ** 2 * (log_eps + inv_sqrt * delta / sol.eps)}
    reports = {}
    for kind, bound in bounds.items():
        value = float(gw @ majorants[kind])
        ratio = value / bound
        reports[kind] = {"kind": kind, "delta": delta, "value": value, "bound": bound,
                         "ratio": ratio, "passed": bool(ratio <= 1.0), "table": table}
    return reports
