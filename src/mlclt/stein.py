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
s-nodes, and 48 for the majorant tables, each doubled once by a gate at
construction.  The s-nodes depend only on eps and the budget; only the
weights depend on the order.  Orders requested together at the same points
therefore share one set of truncated moments, and each keeps the bits it
has when requested alone: the solution's gate computes orders 0 and 2
together, the residual 1 and 2, and the majorant tables and their gate 2, 3.
Each solution builds its majorant table once per (delta, window) and serves
both majorant kinds from it.

The (s, w) pairs of one call form a grid of s-nodes by points.  The sum
over s runs in s-blocks of about `_EXACT_BLOCK` pairs, whole rows of the
grid, each added by one BLAS product per order; the rows in an s-block fix
the bits of that sum, so `_EXACT_BLOCK` is part of the reproducibility
contract.  The closed forms themselves are evaluated in slices of about
`_EXACT_SLICE` pairs, a few rows of an s-block (or part of one row, past
`_EXACT_SLICE` points), into one value buffer per order that every s-block
of the call reuses.  Each value depends on its own pair alone, so the
slices leave the bits as they are; they keep the temporaries small enough
to stay in cache and in the heap.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np
import numpy.polynomial  # numpy loads it on first use: load it here, not inside a run
from numpy.typing import NDArray

from ._util import QuadratureError, UsageError, hermite_1d
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
# (s, w) pairs per s-block of the closed-form inner integral.  Each s-block
# adds its share of the s-integral with one (sw * s^{k/2}) @ values product
# per order, whose sum over the block's s-nodes BLAS takes in an order of
# its own: the block's rows, set by this constant and the point count, fix
# the bits of every F_k.
_EXACT_BLOCK = 1 << 16
# (s, w) pairs per evaluation slice of an s-block.  The closed forms take a
# few dozen float64 temporaries per pair; at 2^12 pairs they stay in cache
# and in the heap, where whole s-blocks of them went back to the OS and were
# faulted in again (2^11 was slower, 2^13 still faulted).  Every value
# depends on its own pair alone, so the slices leave every bit as it is.
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


# ---------------------------------------------------------------------------
# public surface


@dataclass(frozen=True)
class SteinSolution:
    """Mollified Stein solution f_eps for (phi, lam, eps), target N(0, lam).

    Construction takes E[phi(Z)] with `gaussian_mean`, then runs
    node-doubling convergence probes of the s-integral on the fixed budgets
    of `_S_NODES` at three probe points and, for the majorant tables'
    orders, of `_TABLE_S_NODES` at those and at `_TABLE_GATE_W`;
    QuadratureError names the one that has not settled
    (`node_doubling_deltas` and each majorant certificate's `table` report
    the moves).  Majorant tables are built once per (delta, window) and
    kept with the solution.  Points passed to the evaluation and
    certificate functions must lie in R^dim.
    """

    phi: TestFunction
    lam: SpdMatrix
    eps: float
    _sigma: float = field(init=False, repr=False, compare=False)
    _phi_eps: Callable = field(init=False, repr=False, compare=False)
    _c_eps: float = field(init=False, repr=False, compare=False)
    _deltas: dict = field(init=False, repr=False, compare=False)
    _table_deltas: dict = field(init=False, repr=False, compare=False)
    _majorants: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not _EPS_MIN <= self.eps <= _EPS_MAX:
            raise UsageError(
                f"eps={self.eps} outside the supported range [{_EPS_MIN}, {_EPS_MAX}]")
        object.__setattr__(self, "_sigma", float(np.sqrt(self.phi.sigma2(self.lam))))
        object.__setattr__(self, "_phi_eps", mollify(self.phi, self.eps, self.lam))
        # interpolation preserves the law: E[phi_eps(Z)] = E[phi(Z)], Z ~ N(0, lam)
        object.__setattr__(self, "_c_eps", gaussian_mean(self.phi, self.lam))
        probe = self._project(self._probe_points())
        for attr, name, w, orders, s_nodes, tol in (
                ("_deltas", "Stein quadrature", probe, _GATE_ORDERS, _S_NODES,
                 _VERIFY_TOL),
                ("_table_deltas", "majorant table", np.concatenate([probe, _TABLE_GATE_W]),
                 _TABLE_ORDERS, _TABLE_S_NODES, _TABLE_VERIFY_TOL)):
            coarse = self._fk(w, orders, s_nodes)
            fine = self._fk(w, orders, 2 * s_nodes)
            deltas = {order: float(np.max(np.abs(a - b)))
                      for order, a, b in zip(orders, coarse, fine)}
            for order, delta in deltas.items():
                if not delta <= tol:  # a NaN fails
                    raise QuadratureError(
                        f"{name} (order {order}) moved by {delta:.3e} "
                        f"under node doubling from {s_nodes} s-nodes")
            object.__setattr__(self, attr, deltas)
        object.__setattr__(self, "_majorants", {})

    def _fk(self, w, orders: tuple[int, ...], s_nodes: int | None = None) -> list:
        """F_k at scalar points w (any shape), one array per order k in
        `orders`, on `s_nodes` s-nodes (`_S_NODES` if None).

        Gaussian integration by parts, E[f(G) He_k(G)] = E[f^(k)(G)], turns
        the order-k inner integral at s into s^{k/2} E[h^(k)(sqrt(1-s) w +
        sqrt(s) sigma Z)], which the profile evaluates in closed form, slice
        by slice into the value buffers, and each s-block is summed from
        there.  The orders of one call share every set of truncated moments;
        each result has the same bits as a call for its order alone.
        """
        w = np.asarray(w, dtype=float)
        flat = w.reshape(-1)
        m = flat.size
        s, sws = _s_panels(self.eps, s_nodes or _S_NODES, orders)
        a, b = np.sqrt(1.0 - s), np.sqrt(s) * self._sigma
        block = max(1, _EXACT_BLOCK // max(1, m))
        rows, cols = max(1, _EXACT_SLICE // max(1, m)), max(1, min(m, _EXACT_SLICE))
        outs = [np.zeros(m) for _ in orders]
        vals = [np.empty((min(block, len(s)), m)) for _ in orders]
        profile = self.phi.profile
        for start in range(0, len(s), block):
            sb = s[start:start + block]
            for r in range(0, len(sb), rows):
                rs = slice(start + r, start + min(r + rows, len(sb)))
                for c in range(0, m, cols):
                    got = profile.gaussian_expectations(
                        a[rs, None] * flat[None, c:c + cols], b[rs, None], orders)
                    for val, k, g in zip(vals, orders, got):
                        val[r:r + len(g), c:c + cols] = g - self._c_eps if k == 0 else g
            for out, sw, k, val in zip(outs, sws, orders, vals):
                out += (sw[start:start + len(sb)] * sb ** (0.5 * k)) @ val[:len(sb)]
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

    def _points(self, x, single: bool = False) -> NDArray[np.float64]:
        """x as an (m, dim) batch, a 1-d x being one point.  Any other shape,
        or more than one point when `single`, raises UsageError."""
        shape = np.shape(x)
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.ndim != 2 or x.shape[1] != self.lam.dim or (single and len(x) != 1):
            raise UsageError(f"expected {'a point' if single else 'points'} of "
                             f"R^{self.lam.dim}, got an array of shape {shape}")
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


def stein_residual(sol: SteinSolution, x) -> float:
    """|{-Lambda : D^2 f + x . grad f} - {phi_eps(x) - E phi_eps}| at a point."""
    x = sol._points(x, single=True)[0]
    rhs = float(sol._phi_eps(x[None, :])[0]) - sol._c_eps
    w = float(x @ sol.phi.direction)
    sigma2 = sol.phi.sigma2(sol.lam)
    f1, f2 = (float(f) for f in sol._fk(w, (1, 2)))
    lhs = -sigma2 * f2 + w * f1
    return abs(lhs - rhs)


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
        kd = _osc_window_k(sol.lam.dim) * delta
        g, gw = hermite_1d(64)
        keep = np.abs(g) <= 8.0  # dropped conv weights are below exp(-32)
        self.conv_nodes, self.conv_wts = g[keep], gw[keep]
        pad = kd + delta * (abs(self.conv_nodes).max() + 1.0)
        lo, hi = w_lo - pad, w_hi + pad
        spacing = max(kd / 16.0, (hi - lo) / 40000.0)
        m = int(np.ceil((hi - lo) / spacing)) + 1
        self.grid = np.linspace(lo, hi, m)
        tables = sol._fk(self.grid, _TABLE_ORDERS, _TABLE_S_NODES)
        half = int(np.ceil(kd / (self.grid[1] - self.grid[0])))
        self.osc = {order: _window_oscillation(table, half)
                    for order, table in zip(_TABLE_ORDERS, tables)}
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

    `table` reports the shared F_2/F_3 table's s budget, grid size and gate.
    """
    _check_delta(delta)
    order = _majorant_order(kind)
    n = sol.lam.dim
    log_eps = abs(np.log(sol.eps))
    if kind == "hessian":
        bound = 100.0 * n ** 1.5 * sol.lam.inv_operator_norm() * log_eps * delta
    else:
        inv_sqrt = sol.lam.inv_sqrt_operator_norm()
        bound = 100.0 * n ** 3 * inv_sqrt ** 2 * (log_eps + inv_sqrt * delta / sol.eps)
    g, gw = hermite_1d(64)
    w = sol._sigma * g
    maj = _ridge_majorant(sol, delta, float(w.min()), float(w.max()))
    value = float(gw @ maj.majorant(w, order))
    table = {"s_nodes": _TABLE_S_NODES, "points": len(maj.grid),
             "node_doubling_delta": dict(sol._table_deltas)}
    ratio = value / bound
    return {"kind": kind, "delta": delta, "value": value, "bound": bound,
            "ratio": ratio, "passed": bool(ratio <= 1.0), "table": table}
