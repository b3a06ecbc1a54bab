"""Gauss-Hermite reference implementations that the exact Stein and
Gaussian-mean paths of `mlclt` are cross-checked against.

`GaussHermiteStein` is the tensorized quadrature Stein solver for dims 1-3.
It uses the same s-panels as `mlclt.stein`, and takes the inner Gaussian
integral of each derivative order with a tensor Gauss-Hermite rule against
the kernel D^k N / N.  It takes the test function as a plain callable on
(m, dim) arrays, ridge or not, and Lambda as an `SpdMatrix`.  The rule
integrates a polynomial profile with no knots exactly, so against the
closed form only the shared s-integral and rounding remain.

`hermite_rule` is the 1d Gauss-Hermite rule of any size: the package's
`hermite_1d` up to its 150 nodes, scipy's asymptotic rule past them.
`hermite_grid` is the tensor Gauss-Hermite rule in dims 1-3,
`gaussian_expectation` applies it to E[fn(Z)] with an optional node-doubling
check, and `mollified` evaluates E[phi(sqrt(1-eps^2) x - eps Z)] with it.
`poly` builds the no-knot polynomial profiles.

`one_shot_fk` is `SteinSolution._fk` as it was before the closed forms were
evaluated in slices: each s-block of `_EXACT_BLOCK` pairs in one call of
`gaussian_expectations`.  The sliced `_fk` must keep its bits.

`simpson_panels` is the s-rule that `mlclt.stein` took before Gauss-Legendre:
composite Simpson rules on the same two panels, with the same weights per
order.  At a large budget it is the reference that the package's rule is
measured against (`one_shot_fk(..., panels=simpson_panels)`).
"""
from functools import lru_cache

import numpy as np
from scipy.special import roots_hermitenorm

from mlclt._util import QuadratureError, UsageError, hermite_1d
from mlclt.distances import PiecewisePolynomial
from mlclt.stein import (_EXACT_BLOCK, _S_NODES, _T_TAIL, _s_panels, _weight,
                         _weight_times_one_minus_s)

# node-doubling tolerance of gaussian_expectation, relative to max(1, |value|)
_EXPECTATION_RTOL = 1e-6
# default Gauss-Hermite nodes per axis of GaussHermiteStein
_AXIS_NODES = {1: 64, 2: 48, 3: 16}


@lru_cache(maxsize=32)
def hermite_rule(n: int):
    """Nodes/weights for E[f(Z)], Z ~ N(0, 1), weights summing to 1:
    `hermite_1d(n)` for n <= 150, else scipy's `roots_hermitenorm(n)`
    normalized alike.  The cached arrays are read-only."""
    if n <= 150:
        return hermite_1d(n)
    x, w = roots_hermitenorm(n)
    w = w / w.sum()
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@lru_cache(maxsize=32)
def hermite_grid(dim: int, n_per_axis: int):
    """Tensorized rule for E[f(Z)], Z ~ N(0, Id_dim).

    Returns (points, weights) with points of shape (n_per_axis**dim, dim).
    Tensorization is only sensible for dim <= 3; the cached arrays are read-only.
    """
    if dim < 1 or dim > 3:
        raise UsageError(f"tensorized Gaussian quadrature supports dim in 1..3, got {dim}")
    x, w = hermite_rule(n_per_axis)
    pts = np.stack([a.ravel() for a in np.meshgrid(*([x] * dim), indexing="ij")], axis=-1)
    wts = np.prod(np.meshgrid(*([w] * dim), indexing="ij"), axis=0).ravel()
    pts.setflags(write=False)
    wts.setflags(write=False)
    return pts, wts


def poly(*coeffs) -> PiecewisePolynomial:
    """The polynomial sum_j coeffs[j] t^j as a profile with no knots."""
    return PiecewisePolynomial(knots=(), coeffs=(coeffs,))


def gaussian_expectation(sqrt_cov, fn, n_per_axis: int = 64, check: bool = False):
    """E[fn(Z)] for Z ~ N(0, C) with C = sqrt_cov @ sqrt_cov.T.

    `fn` must accept an (m, dim) array and return an (m, ...) array.
    With check=True the rule is re-run at doubled node count and a
    QuadratureError is raised if the two disagree beyond _EXPECTATION_RTOL.
    """
    dim = sqrt_cov.shape[0]
    pts, wts = hermite_grid(dim, n_per_axis)
    val = np.tensordot(wts, np.asarray(fn(pts @ sqrt_cov.T)), axes=(0, 0))
    if check:
        pts2, wts2 = hermite_grid(dim, 2 * n_per_axis)
        val2 = np.tensordot(wts2, np.asarray(fn(pts2 @ sqrt_cov.T)), axes=(0, 0))
        scale = max(1.0, float(np.max(np.abs(val2))))
        moved = float(np.max(np.abs(val - val2)))
        if not moved <= _EXPECTATION_RTOL * scale:  # a NaN fails
            raise QuadratureError(
                f"Gaussian quadrature did not converge: node doubling moved the "
                f"value by {moved:.3e} (relative tolerance {_EXPECTATION_RTOL:.1e})")
        val = val2
    return val


def mollified(phi, eps: float, lam, x, n_per_axis: int = 32):
    """phi_eps(x) = E[phi(sqrt(1-eps^2) x - eps Z)], Z ~ N(0, lam), at points
    x of shape (m, dim), behind the node-doubling check."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    a = np.sqrt(1.0 - eps * eps)

    def inner(z):
        arg = a * x[None, :, :] - eps * z[:, None, :]
        return phi(arg.reshape(-1, lam.dim)).reshape(len(z), len(x))

    return gaussian_expectation(lam.sqrt(), inner, n_per_axis=n_per_axis, check=True)


def simpson_weights(n_intervals: int, h: float):
    """Composite Simpson weights on n_intervals (even) intervals of width h."""
    if n_intervals % 2 or n_intervals < 2:
        raise UsageError("Simpson rule needs an even, positive interval count")
    w = np.ones(n_intervals + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * h / 3.0


def simpson_panels(eps: float, n_total: int, orders):
    """`_s_panels` with a composite Simpson rule of about n_total / 2
    intervals on each panel: tau = log s on [eps^2, 1/2], then t = -log(1-s)
    over `_T_TAIL` (that panel alone when eps^2 >= 1/2)."""
    lo = eps * eps
    n_half = max(8, (n_total // 2) // 2 * 2)
    s_list, w_lists = [], [[] for _ in orders]
    if lo < 0.5:
        a, b = np.log(lo), np.log(0.5)
        s = np.exp(np.linspace(a, b, n_half + 1))
        simpson = simpson_weights(n_half, (b - a) / n_half)
        for order, w_list in zip(orders, w_lists):
            w_list.append(simpson * _weight(order, s) * s)
        s_list.append(s)
        t_start = np.log(2.0)
    else:
        t_start = -np.log1p(-lo)
    t = np.linspace(t_start, t_start + _T_TAIL, n_half + 1)
    s = -np.expm1(-t)
    simpson = simpson_weights(n_half, _T_TAIL / n_half)
    for order, w_list in zip(orders, w_lists):
        w_list.append(simpson * _weight_times_one_minus_s(order, t, s))
    s_list.append(s)
    return np.concatenate(s_list), [np.concatenate(w) for w in w_lists]


def one_shot_fk(sol, w, orders, s_nodes=None, panels=_s_panels):
    """F_k of the Stein solution `sol` at scalar points w, one array per
    order in `orders`, each s-block's closed forms taken in one call, on
    the s-rule `panels` (the package's own by default)."""
    w = np.asarray(w, dtype=float)
    flat = w.reshape(-1)
    s, sws = panels(sol.eps, s_nodes or _S_NODES, orders)
    outs = [np.zeros(flat.shape) for _ in orders]
    block = max(1, _EXACT_BLOCK // max(1, flat.size))
    for start in range(0, len(s), block):
        sl = slice(start, start + block)
        sb = s[sl]
        vals = sol.phi.profile.gaussian_expectations(
            np.sqrt(1.0 - sb)[:, None] * flat[None, :],
            (np.sqrt(sb) * sol._sigma)[:, None], orders)
        for out, sw, k, val in zip(outs, sws, orders, vals):
            if k == 0:
                val = val - sol._c_eps
            out += (sw[sl] * sb ** (0.5 * k)) @ val
    return [out.reshape(w.shape) for out in outs]


class GaussHermiteStein:
    """D^k f_eps by direct tensorized quadrature, for any test function phi,
    a callable on (m, dim) arrays, and covariance lam in dims 1-3."""

    def __init__(self, phi, lam, eps: float, s_nodes: int = 1024,
                 n_axis: int | None = None):
        if lam.dim not in _AXIS_NODES:
            raise UsageError(f"tensorized quadrature needs dim 1, 2 or 3, got {lam.dim}")
        self.phi = phi
        self.lam = lam
        self.eps = eps
        self.s_nodes = s_nodes
        self.n_axis = n_axis or _AXIS_NODES[lam.dim]

    def _nodes(self, n_axis: int):
        pts, wts = hermite_grid(self.lam.dim, n_axis)
        return pts @ self.lam.sqrt().T, wts

    def _kernel(self, order: int, z):
        a = self.lam.inv()
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

    def fk(self, x, orders, s_nodes: int | None = None, n_axis: int | None = None):
        """D^k f at points x of shape (m, dim), shape (m,) + (dim,) * k, for
        one order k in 0..3, or a tuple of them for a tuple of orders sharing
        every phi evaluation."""
        ks = (orders,) if np.ndim(orders) == 0 else tuple(orders)
        x = np.atleast_2d(np.asarray(x, dtype=float))
        s, sws = _s_panels(self.eps, s_nodes or self.s_nodes, ks)
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
            vals = self.phi(arg.reshape(-1, self.lam.dim)).reshape(len(x), len(z)) - c0
            for out, sw, kern_w in zip(outs, sws, kern_ws):
                out += sw[i] * np.tensordot(vals, kern_w, axes=(1, 0))
        return outs[0] if np.ndim(orders) == 0 else tuple(outs)
