"""Gaussian calculus: densities, convolution/multiplication identities,
derivative tensors against finite differences, and envelope certificates."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlclt import UsageError
from mlclt.gaussians import (GaussianLaw, SpdMatrix, gaussian_bound_certificates,
                             gaussian_convolve, gaussian_derivative_tensor,
                             gaussian_pdf)


def law(entries):
    return GaussianLaw(SpdMatrix(np.asarray(entries, dtype=float)))


# ---------------------------------------------------------------------------
# SpdMatrix


def test_spd_rejects_nonsquare_and_asymmetric_and_degenerate():
    with pytest.raises(UsageError):
        SpdMatrix(np.ones((2, 3)))
    with pytest.raises(UsageError):
        SpdMatrix(np.array([[1.0, 0.5], [0.2, 1.0]]))
    with pytest.raises(UsageError):
        SpdMatrix(np.zeros((2, 2)))
    with pytest.raises(UsageError):
        SpdMatrix(np.array([[1.0, 1.0], [1.0, 1.0]]))  # rank one


def test_spd_spectral_helpers():
    m = SpdMatrix(np.diag([1.0, 4.0]))
    assert m.operator_norm() == 4.0
    assert m.inv_operator_norm() == 1.0
    assert m.sqrt_operator_norm() == 2.0
    assert m.inv_sqrt_operator_norm() == 1.0
    assert np.allclose(m.sqrt() @ m.sqrt(), m.entries)
    assert np.allclose(m.inv() @ m.entries, np.eye(2), atol=1e-14)
    assert math.isclose(m.logdet(), math.log(4.0))


# ---------------------------------------------------------------------------
# density


def test_pdf_standard_normal_at_origin():
    assert math.isclose(float(law([[1.0]]).pdf(np.array([0.0]))),
                        1.0 / math.sqrt(2.0 * math.pi), rel_tol=1e-14)


def test_pdf_scaled_variance_at_origin():
    assert math.isclose(float(law([[4.0]]).pdf(np.array([0.0]))),
                        1.0 / math.sqrt(8.0 * math.pi), rel_tol=1e-14)


def test_pdf_correlated_2d_matches_extended_precision_oracle():
    import mpmath
    mpmath.mp.dps = 50
    lam = mpmath.matrix([[2, 1], [1, 2]])
    x = mpmath.matrix([1, 1])
    inv = lam ** -1
    q = (inv * x).T * x
    oracle = float(mpmath.exp(-q[0, 0] / 2)
                   / (2 * mpmath.pi * mpmath.sqrt(mpmath.det(lam))))
    got = float(law([[2.0, 1.0], [1.0, 2.0]]).pdf(np.array([1.0, 1.0])))
    assert math.isclose(got, oracle, rel_tol=1e-12)


def test_pdf_integrates_to_one_for_dims_1_to_3():
    from quadrature_oracle import gaussian_expectation
    for entries in ([[1.0]], [[2.0, 1.0], [1.0, 2.0]],
                    np.diag([1.0, 2.0, 0.5])):
        l = law(entries)
        # E[p(Z)/p(Z)] trick is trivial; instead integrate the density of l
        # against a wider Gaussian and compare with the exact convolution value
        wide = SpdMatrix((3.0 if l.dim <= 2 else 1.0) * np.eye(l.dim))
        val = float(gaussian_expectation(wide.sqrt(), l.pdf,
                                         n_per_axis=48 if l.dim <= 2 else 32))
        exact = float(gaussian_convolve(l, GaussianLaw(wide)).pdf(
            np.zeros(l.dim)))
        assert math.isclose(val, exact, rel_tol=1e-8)


def test_pdf_dimension_mismatch_errors():
    with pytest.raises(UsageError):
        law([[1.0]]).pdf(np.zeros(2))


# ---------------------------------------------------------------------------
# convolution


def test_convolution_adds_covariances():
    a = law(np.eye(2))
    out = gaussian_convolve(a, a)
    assert np.array_equal(out.covariance.entries, 2.0 * np.eye(2))
    with pytest.raises(UsageError):
        gaussian_convolve(a, law([[1.0]]))


def test_convolution_identity_numerically_1d():
    # grid convolution of N(0,1) and N(0,2) matches N(0,3) pointwise
    a, b = law([[1.0]]), law([[2.0]])
    c = gaussian_convolve(a, b)
    y = np.arange(-12.0, 12.0 + 1e-9, 1e-3)
    pa = a.pdf(y[:, None])
    for x in (-2.0, -0.5, 0.0, 0.7, 1.3, 3.0):
        conv = np.trapezoid(pa * b.pdf((x - y)[:, None]), y)
        assert abs(conv - float(c.pdf(np.array([x])))) < 1e-6


def test_convolution_identity_numerically_2d():
    a = law([[1.0, 0.3], [0.3, 1.0]])
    b = law([[0.5, 0.0], [0.0, 2.0]])
    c = gaussian_convolve(a, b)
    g = np.arange(-9.0, 9.0 + 1e-9, 0.02)
    yy, xx = np.meshgrid(g, g, indexing="ij")
    grid = np.stack([xx.ravel(), yy.ravel()], axis=-1)
    pa = a.pdf(grid).reshape(len(g), len(g))
    for x in (np.array([0.0, 0.0]), np.array([1.0, -0.5])):
        pb = b.pdf((x[None, :] - grid)).reshape(len(g), len(g))
        conv = np.trapezoid(np.trapezoid(pa * pb, g, axis=1), g)
        assert abs(conv - float(c.pdf(x))) < 1e-5


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 1.0),
       st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2),
       st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2))
def test_multiplication_identity(s, xs, zs):
    # N(z) N(x) = N(sqrt(1-s) z + sqrt(s) x) N(sqrt(1-s) x - sqrt(s) z)
    l = law([[2.0, 1.0], [1.0, 2.0]])
    x = np.asarray(xs)
    z = np.asarray(zs)
    lhs = float(l.pdf(z)) * float(l.pdf(x))
    a = math.sqrt(1.0 - s)
    b = math.sqrt(s)
    rhs = float(l.pdf(a * z + b * x)) * float(l.pdf(a * x - b * z))
    assert math.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-300)


def test_multiplication_identity_dims_1_and_3():
    rng = np.random.default_rng(5)
    for entries in ([[1.5]], np.diag([1.0, 2.0, 0.7])):
        l = law(entries)
        for _ in range(50):
            x = rng.normal(size=l.dim)
            z = rng.normal(size=l.dim)
            s = rng.uniform()
            a, b = math.sqrt(1.0 - s), math.sqrt(s)
            lhs = float(l.pdf(z)) * float(l.pdf(x))
            rhs = float(l.pdf(a * z + b * x)) * float(l.pdf(a * x - b * z))
            assert math.isclose(lhs, rhs, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# derivative tensors


def _fd_hessian(f, x, h=1e-4):
    n = len(x)
    out = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            ei = np.zeros(n); ei[i] = h
            ej = np.zeros(n); ej[j] = h
            out[i, j] = (f(x + ei + ej) - f(x + ei - ej)
                         - f(x - ei + ej) + f(x - ei - ej)) / (4.0 * h * h)
    return out


def _fd_third(f, x, h=1e-3):
    n = len(x)
    out = np.empty((n, n, n))
    for k in range(n):
        ek = np.zeros(n); ek[k] = h
        hp = _fd_hessian(f, x + ek, h=h)
        hm = _fd_hessian(f, x - ek, h=h)
        out[:, :, k] = (hp - hm) / (2.0 * h)
    return out


def test_second_derivative_1d_origin():
    got = gaussian_derivative_tensor(law([[1.0]]), np.array([0.0]), 2)
    assert math.isclose(float(got[0, 0]), -1.0 / math.sqrt(2.0 * math.pi),
                        rel_tol=1e-14)


def test_third_derivative_odd_symmetry_at_origin():
    got = gaussian_derivative_tensor(law([[1.0]]), np.array([0.0]), 3)
    assert np.all(got == 0.0)


def test_derivative_tensors_match_finite_differences():
    rng = np.random.default_rng(11)
    configs = [([[1.0]], 1), ([[1.0, 0.0], [0.0, 2.0]], 2),
               (np.diag([1.0, 0.5, 2.0]), 3)]
    for entries, n in configs:
        l = law(entries)
        f = lambda x: float(l.pdf(x))
        for _ in range(3):
            x = rng.normal(size=n)
            h2 = gaussian_derivative_tensor(l, x, 2)
            assert np.max(np.abs(h2 - _fd_hessian(f, x))) < 1e-6
            h3 = gaussian_derivative_tensor(l, x, 3)
            assert np.max(np.abs(h3 - _fd_third(f, x))) < 1e-4


def test_derivative_tensor_rejects_bad_order():
    with pytest.raises(UsageError):
        gaussian_derivative_tensor(law([[1.0]]), np.array([0.0]), 1)


def test_hessian_symmetry_and_third_full_symmetry():
    l = law([[2.0, 1.0], [1.0, 2.0]])
    x = np.array([0.3, -1.1])
    h2 = gaussian_derivative_tensor(l, x, 2)
    assert np.allclose(h2, h2.T)
    h3 = gaussian_derivative_tensor(l, x, 3)
    for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0)):
        assert np.allclose(h3, np.transpose(h3, perm))


# ---------------------------------------------------------------------------
# envelope certificates


def test_certificate_1d_origin_tau_one():
    report = gaussian_bound_certificates(law([[1.0]]), 1.0, [np.array([0.0])])
    assert report["passed"]
    assert report["max_hessian_ratio"] < 1.0


def test_certificates_hold_on_a_1d_sweep():
    pts = np.linspace(-5.0, 5.0, 100)[:, None]
    report = gaussian_bound_certificates(law([[1.0]]), 0.5, list(pts))
    assert report["passed"]
    assert report["max_third_ratio"] <= 1.0
    assert report["max_osc_ratio"] <= 1.0


def test_certificates_hold_in_higher_dimension():
    rng = np.random.default_rng(3)
    for entries in ([[2.0, 1.0], [1.0, 2.0]], np.diag([0.5, 1.0, 2.0])):
        l = law(entries)
        pts = rng.normal(size=(40, l.dim)) * 2.0
        report = gaussian_bound_certificates(l, 0.5, list(pts))
        assert report["passed"]


def test_certificate_empty_point_list():
    report = gaussian_bound_certificates(law([[1.0]]), 0.5, [])
    assert report["points"] == []
    assert report["max_hessian_ratio"] is None
    assert report["passed"]


def test_certificate_rejects_nonpositive_tau():
    with pytest.raises(UsageError):
        gaussian_bound_certificates(law([[1.0]]), 0.0, [])
