"""Gauss-Hermite reference implementations that the exact Stein and
Gaussian-mean paths of `mlclt` are cross-checked against.

`GaussHermiteStein` is the tensorized quadrature Stein solver for dims 1-3.
It uses the same s-panels as `mlclt.stein`, and takes the inner Gaussian
integral of each derivative order with a tensor Gauss-Hermite rule against
the kernel D^k N / N.  It accepts any test function, ridge or not.  The rule
integrates a polynomial profile with no knots exactly, so against the
closed form only the shared s-integral and rounding remain.

`gaussian_expectation` is the tensor rule for E[fn(Z)] with an optional
node-doubling check, and `mollified` evaluates E[phi(sqrt(1-eps^2) x - eps Z)]
with it.  `poly` builds the no-knot polynomial profiles.
"""
import numpy as np

from mlclt._util import QuadratureError, UsageError, hermite_grid
from mlclt.distances import PiecewisePolynomial
from mlclt.stein import _as_orders, _s_panels, _unpack

# node-doubling tolerance of gaussian_expectation, relative to max(1, |value|)
_EXPECTATION_RTOL = 1e-6
# default Gauss-Hermite nodes per axis of GaussHermiteStein
_AXIS_NODES = {1: 64, 2: 48, 3: 16}


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


def mollified(phi, eps: float, law, x, n_per_axis: int = 32):
    """phi_eps(x) = E[phi(sqrt(1-eps^2) x - eps Z)], Z ~ law, at points x of
    shape (m, dim), behind the node-doubling check."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    a = np.sqrt(1.0 - eps * eps)

    def inner(z):
        arg = a * x[None, :, :] - eps * z[:, None, :]
        return phi(arg.reshape(-1, law.dim)).reshape(len(z), len(x))

    return gaussian_expectation(law.covariance.sqrt(), inner, n_per_axis=n_per_axis,
                                check=True)


class GaussHermiteStein:
    """D^k f_eps by direct tensorized quadrature, for any test function in
    dims 1-3."""

    def __init__(self, phi, law, eps: float, s_nodes: int = 1024,
                 n_axis: int | None = None):
        if law.dim not in _AXIS_NODES:
            raise UsageError(f"tensorized quadrature needs dim 1, 2 or 3, got {law.dim}")
        if phi.dim != law.dim:
            raise UsageError("test function and law dimension mismatch")
        self.phi = phi
        self.law = law
        self.eps = eps
        self.s_nodes = s_nodes
        self.n_axis = n_axis or _AXIS_NODES[law.dim]

    def _nodes(self, n_axis: int):
        pts, wts = hermite_grid(self.law.dim, n_axis)
        return pts @ self.law.covariance.sqrt().T, wts

    def _kernel(self, order: int, z):
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

    def fk(self, x, orders, s_nodes: int | None = None, n_axis: int | None = None):
        """D^k f at points x of shape (m, dim), shape (m,) + (dim,) * k, for
        one order k in 0..3, or a tuple of them for a tuple of orders sharing
        every phi evaluation."""
        ks = _as_orders(orders)
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
            vals = self.phi(arg.reshape(-1, self.law.dim)).reshape(len(x), len(z)) - c0
            for out, sw, kern_w in zip(outs, sws, kern_ws):
                out += sw[i] * np.tensordot(vals, kern_w, axes=(1, 0))
        return _unpack(orders, outs)
