"""Centered Gaussian laws on R^N: densities, convolution and multiplication
identities, derivative tensors, and certified pointwise bound checks
(Hessian / third-derivative envelopes and the oscillation envelope)."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from ._util import UsageError, sampled_oscillation, tensor_norm

__all__ = [
    "SpdMatrix",
    "GaussianLaw",
    "gaussian_pdf",
    "gaussian_convolve",
    "gaussian_derivative_tensor",
    "gaussian_bound_certificates",
]

_EIG_FLOOR = 1e-12  # relative floor below which a covariance counts as degenerate


@dataclass(frozen=True)
class SpdMatrix:
    """Symmetric positive definite matrix with cached spectral data.

    The stored entries are exactly symmetric (input is symmetrized; a large
    asymmetric part is rejected).  Matrices with an eigenvalue below
    1e-12 times the largest are rejected as degenerate.
    """

    entries: NDArray[np.float64]
    _eigvals: NDArray[np.float64] = field(init=False, repr=False, compare=False)
    _eigvecs: NDArray[np.float64] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise UsageError(f"SpdMatrix needs a square matrix, got shape {a.shape}")
        asym = np.max(np.abs(a - a.T))
        if asym > 1e-9 * max(1.0, float(np.max(np.abs(a)))):
            raise UsageError(f"matrix is not symmetric (asymmetry {asym:.3e})")
        a = (a + a.T) / 2.0
        w, v = np.linalg.eigh(a)
        if w[0] <= _EIG_FLOOR * max(w[-1], 0.0):
            raise UsageError(
                f"matrix is not positive definite at working precision "
                f"(eigenvalues in [{w[0]:.3e}, {w[-1]:.3e}])")
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)
        object.__setattr__(self, "_eigvals", w)
        object.__setattr__(self, "_eigvecs", v)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def operator_norm(self) -> float:
        """|A| = largest eigenvalue."""
        return float(self._eigvals[-1])

    def inv_operator_norm(self) -> float:
        """|A^{-1}| = 1 / smallest eigenvalue."""
        return 1.0 / float(self._eigvals[0])

    def inv(self) -> NDArray[np.float64]:
        return (self._eigvecs / self._eigvals) @ self._eigvecs.T

    def sqrt(self) -> NDArray[np.float64]:
        """Symmetric square root."""
        return (self._eigvecs * np.sqrt(self._eigvals)) @ self._eigvecs.T

    def inv_sqrt(self) -> NDArray[np.float64]:
        return (self._eigvecs / np.sqrt(self._eigvals)) @ self._eigvecs.T

    def sqrt_operator_norm(self) -> float:
        """|A^{1/2}|."""
        return float(np.sqrt(self._eigvals[-1]))

    def inv_sqrt_operator_norm(self) -> float:
        """|A^{-1/2}|."""
        return float(1.0 / np.sqrt(self._eigvals[0]))

    def logdet(self) -> float:
        return float(np.sum(np.log(self._eigvals)))

    def scaled(self, factor: float) -> "SpdMatrix":
        if factor <= 0:
            raise UsageError("scale factor must be positive")
        return SpdMatrix(self.entries * factor)


@dataclass(frozen=True)
class GaussianLaw:
    """Centered normal law N(0, covariance) on R^dim."""

    covariance: SpdMatrix

    @property
    def dim(self) -> int:
        return self.covariance.dim

    def pdf(self, x: NDArray[np.float64]) -> NDArray[np.float64]:
        return gaussian_pdf(self, x)

    def quadratic_form(self, x: NDArray[np.float64]) -> NDArray[np.float64]:
        """x . covariance^{-1} x, batched over leading axes."""
        x = _as_points(x, self.dim)
        y = x @ self.covariance.inv()
        return np.einsum("...i,...i->...", x, y)


def _as_points(x, dim: int) -> NDArray[np.float64]:
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        if dim != 1:
            raise UsageError(f"scalar point given for a {dim}-dimensional law")
        return x.reshape(1)
    if x.shape[-1] != dim:
        raise UsageError(f"points of dimension {x.shape[-1]} given for a {dim}-dimensional law")
    return x


def gaussian_pdf(law: GaussianLaw, x) -> NDArray[np.float64]:
    """Density of N(0, Lambda) at x (batched over leading axes of x)."""
    x = _as_points(x, law.dim)
    q = law.quadratic_form(x)
    norm = (2.0 * np.pi) ** (-law.dim / 2.0) * np.exp(-0.5 * law.covariance.logdet())
    return norm * np.exp(-0.5 * q)


def gaussian_convolve(a: GaussianLaw, b: GaussianLaw) -> GaussianLaw:
    """Law of X + Y for independent X ~ a, Y ~ b: covariances add."""
    if a.dim != b.dim:
        raise UsageError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return GaussianLaw(SpdMatrix(a.covariance.entries + b.covariance.entries))


def gaussian_derivative_tensor(law: GaussianLaw, x, order: int) -> NDArray[np.float64]:
    """Derivative tensor of the density of N(0, Lambda) at a single point x.

    order=2 returns the Hessian  (A x (A x)^T - A) * pdf(x),  A = Lambda^{-1};
    order=3 returns the third derivative
        (3 sym(A (x) A x) - (A x)^{(x)3}) * pdf(x),
    where sym denotes symmetrization over the three slots.  These are the
    true calculus derivatives; envelope checks take absolute values anyway.
    """
    if order not in (2, 3):
        raise UsageError(f"order must be 2 or 3, got {order}")
    x = _as_points(x, law.dim)
    if x.ndim != 1:
        raise UsageError("gaussian_derivative_tensor takes a single point")
    a = law.covariance.inv()
    ax = a @ x
    p = float(gaussian_pdf(law, x))
    if order == 2:
        return (np.outer(ax, ax) - a) * p
    sym = (np.einsum("ij,k->ijk", a, ax)
           + np.einsum("ik,j->ijk", a, ax)
           + np.einsum("jk,i->ijk", a, ax))
    return (sym - np.einsum("i,j,k->ijk", ax, ax, ax)) * p


def gaussian_bound_certificates(law: GaussianLaw, tau: float,
                                sample_points: Sequence) -> dict:
    """Check the three pointwise Gaussian envelopes at the given points.

    With N = dim, A = Lambda^{-1} and N_C the density of N(0, C):

      |D^2 N_Lambda(z)|  <= 3 (1+tau)^{(N+2)/2} tau^{-1}    |A|        N_{(1+tau)Lambda}(z)
      |D^3 N_Lambda(z)|  <= 5 (1+tau)^{(N+3)/2} tau^{-3/2}  |A^{1/2}|^3 N_{(1+tau)Lambda}(z)
      osc_r N_Lambda(z)  <= r (20/sqrt(tau)) (1+tau)^{N/2}  |A^{1/2}|  N_{(1+tau)Lambda}(z)

    where the oscillation envelope is checked at the largest admissible
    radius r = tau / (4 |A|^{1/2}) and the left side is a sampled (lower
    bound) oscillation.  Tensor magnitudes use the Frobenius norm.

    Returns a report dict with per-point ratios and, per bound, the maximum
    ratio (None when sample_points is empty).  All ratios must be <= 1 for
    the certificate to hold.
    """
    if tau <= 0:
        raise UsageError(f"tau must be positive, got {tau}")
    n = law.dim
    inflated = GaussianLaw(law.covariance.scaled(1.0 + tau))
    inv_norm = law.covariance.inv_operator_norm()
    inv_sqrt_norm = law.covariance.inv_sqrt_operator_norm()
    r_osc = tau / (4.0 * np.sqrt(inv_norm))

    c2 = 3.0 * (1.0 + tau) ** ((n + 2) / 2.0) / tau * inv_norm
    c3 = 5.0 * (1.0 + tau) ** ((n + 3) / 2.0) / tau ** 1.5 * inv_sqrt_norm ** 3
    cosc = r_osc * 20.0 / np.sqrt(tau) * (1.0 + tau) ** (n / 2.0) * inv_sqrt_norm

    rows = []
    for pt in sample_points:
        z = _as_points(pt, n)
        envelope = float(gaussian_pdf(inflated, z))
        r2 = tensor_norm(gaussian_derivative_tensor(law, z, 2)) / (c2 * envelope)
        r3 = tensor_norm(gaussian_derivative_tensor(law, z, 3)) / (c3 * envelope)
        rosc = sampled_oscillation(law.pdf, z, r_osc) / (cosc * envelope)
        rows.append({"point": z.tolist(), "hessian_ratio": r2,
                     "third_ratio": r3, "osc_ratio": rosc})
    report = {
        "dim": n,
        "tau": tau,
        "osc_radius": r_osc,
        "points": rows,
        "max_hessian_ratio": max((r["hessian_ratio"] for r in rows), default=None),
        "max_third_ratio": max((r["third_ratio"] for r in rows), default=None),
        "max_osc_ratio": max((r["osc_ratio"] for r in rows), default=None),
    }
    report["passed"] = all(
        report[k] is None or report[k] <= 1.0
        for k in ("max_hessian_ratio", "max_third_ratio", "max_osc_ratio"))
    return report
