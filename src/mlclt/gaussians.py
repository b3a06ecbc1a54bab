"""The covariance Lambda of the centered Gaussian target N(0, Lambda): an
`SpdMatrix`, with the spectral data that the Stein certificates and the
assembled bound read.  The Gaussian law itself has no type of its own: every
function that takes it takes Lambda."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from ._util import UsageError

__all__ = ["SpdMatrix"]

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
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
            raise UsageError(
                f"SpdMatrix needs a nonempty square matrix, got shape {a.shape}")
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

    def inv_operator_norm(self) -> float:
        """|A^{-1}| = 1 / smallest eigenvalue."""
        return 1.0 / float(self._eigvals[0])

    def inv(self) -> NDArray[np.float64]:
        return (self._eigvecs / self._eigvals) @ self._eigvecs.T

    def sqrt(self) -> NDArray[np.float64]:
        """Symmetric square root."""
        return (self._eigvecs * np.sqrt(self._eigvals)) @ self._eigvecs.T

    def sqrt_operator_norm(self) -> float:
        """|A^{1/2}|."""
        return float(np.sqrt(self._eigvals[-1]))

    def inv_sqrt_operator_norm(self) -> float:
        """|A^{-1/2}|."""
        return float(1.0 / np.sqrt(self._eigvals[0]))

