"""Covariance matrices: validation and the spectral data read by the Stein
certificates and the assembled bound."""
import numpy as np
import pytest

from mlclt import UsageError
from mlclt.gaussians import SpdMatrix


def test_spd_rejects_nonsquare_and_asymmetric_and_degenerate():
    with pytest.raises(UsageError):
        SpdMatrix(np.ones((2, 3)))
    with pytest.raises(UsageError):
        SpdMatrix(np.array([[1.0, 0.5], [0.2, 1.0]]))
    with pytest.raises(UsageError):
        SpdMatrix(np.zeros((2, 2)))
    with pytest.raises(UsageError):
        SpdMatrix(np.array([[1.0, 1.0], [1.0, 1.0]]))  # rank one
    with pytest.raises(UsageError, match="nonempty"):
        SpdMatrix(np.eye(0))


def test_spd_spectral_helpers():
    m = SpdMatrix(np.diag([1.0, 4.0]))
    assert m.inv_operator_norm() == 1.0
    assert m.sqrt_operator_norm() == 2.0
    assert m.inv_sqrt_operator_norm() == 1.0
    assert np.allclose(m.sqrt() @ m.sqrt(), m.entries)
    assert np.allclose(m.inv() @ m.entries, np.eye(2), atol=1e-14)
