"""Test functions, mollification, class membership, and Wasserstein
estimators against closed forms and independent quadrature oracles."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from quadrature_oracle import mollified, poly

from mlclt import UsageError, distances
from mlclt.distances import TestFunction as FnSpec
from mlclt.distances import (DiscreteLaw, PiecewisePolynomial, SampleSet,
                             class_membership_check, gaussian_mean, mollify,
                             restricted_distance, ridge_function, sliced_w1,
                             soft_clip_family, softclip_profile, w1_discrete_pair,
                             w1_discrete_vs_gaussian, w1_empirical_gaussian)
from mlclt.gaussians import GaussianLaw, SpdMatrix

STD_1D = GaussianLaw(SpdMatrix(np.eye(1)))
ROOT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def scalar_fn(f, budget, label):
    return FnSpec(evaluator=lambda x: f(np.asarray(x)[:, 0]),
                        lipschitz_budget=budget, label=label, dim=1)


def poly_fn(coeffs, budget, label):
    return ridge_function([1.0], poly(*coeffs), budget, label)


# ---------------------------------------------------------------------------
# domain types


def test_discrete_law_validation():
    with pytest.raises(UsageError):
        DiscreteLaw(values=np.array([1.0]), probs=np.array([0.9]))
    with pytest.raises(UsageError):
        DiscreteLaw(values=np.array([1.0, 2.0]), probs=np.array([1.5, -0.5]))
    with pytest.raises(UsageError):
        DiscreteLaw(values=np.array([np.inf]), probs=np.array([1.0]))


def test_sample_set_validation_and_views():
    s = SampleSet(values=np.arange(6.0), master_seed=1)
    assert s.dim == 1 and s.n == 6
    assert np.array_equal(s.scalar(), np.arange(6.0))
    with pytest.raises(UsageError):
        SampleSet(values=np.array([[np.nan]]), master_seed=0)


def test_ridge_direction_normalized():
    phi = ridge_function([3.0, 4.0], poly(0.0, 1.0), 1.0, "lin")
    assert np.allclose(phi.ridge.direction, [0.6, 0.8])
    x = np.array([[1.0, 1.0]])
    assert math.isclose(float(phi(x)[0]), 1.4)


def test_scalar_function_takes_a_one_element_1d_input_as_one_point():
    # in dim 1 every 1-d x is a column of points, one element or more
    phi = scalar_fn(lambda t: t ** 2, 10.0, "x^2")
    assert np.array_equal(phi(np.array([0.5])), [0.25])
    assert np.array_equal(phi(np.array([0.5, 0.7])), phi(np.array([[0.5], [0.7]])))
    ridge = poly_fn((0.0, 0.0, 1.0), 10.0, "x^2")
    assert np.array_equal(ridge(np.array([0.5])), [0.25])


# ---------------------------------------------------------------------------
# mollification


def test_mollify_linear_is_exact_contraction():
    phi = poly_fn((0.0, 1.0), 1.0, "x")
    for eps in (0.25, 0.5, 0.8):
        sm = mollify(phi, eps, STD_1D)
        x = np.linspace(-3, 3, 7)[:, None]
        assert np.max(np.abs(sm(x) - math.sqrt(1 - eps * eps) * x[:, 0])) < 1e-8


def test_mollify_quadratic_closed_form():
    # smoothing x^2 at scale 1/2: (3/4) x^2 + 1/4
    phi = poly_fn((0.0, 0.0, 1.0), 10.0, "x^2")
    sm = mollify(phi, 0.5, STD_1D)
    x = np.linspace(-2, 2, 9)[:, None]
    assert np.max(np.abs(sm(x) - (0.75 * x[:, 0] ** 2 + 0.25))) < 1e-8


def test_mollify_fixes_constants_and_is_linear():
    const = poly_fn((2.5,), 0.1, "c")
    sm = mollify(const, 0.3, STD_1D)
    x = np.array([[0.0], [1.7]])
    assert np.allclose(sm(x), 2.5, atol=1e-12)
    f = poly_fn((0.0, 0.0, 1.0), 10.0, "a")
    g = poly_fn((0.0, 1.0, 0.0, -1.0 / 6.0), 1.0, "b")  # sin's Taylor cubic
    combo = poly_fn((0.0, -3.0, 2.0, 0.5), 10.0, "2a-3b")
    eps = 0.4
    lhs = mollify(combo, eps, STD_1D)(x)
    rhs = 2.0 * mollify(f, eps, STD_1D)(x) - 3.0 * mollify(g, eps, STD_1D)(x)
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_mollify_rejects_bad_eps_and_dim():
    phi = poly_fn((0.0, 1.0), 1.0, "x")
    for eps in (0.0, 1.0, -0.5):
        with pytest.raises(UsageError):
            mollify(phi, eps, STD_1D)
    with pytest.raises(UsageError):
        mollify(phi, 0.5, GaussianLaw(SpdMatrix(np.eye(2))))


def test_mollify_generic_2d_matches_ridge_reduction():
    # the tensor Hermite rule of the oracle against the closed form: exact
    # for a no-knot cubic, settled to 1e-8 for the soft-clip members
    law = GaussianLaw(SpdMatrix(np.array([[2.0, 0.5], [0.5, 1.0]])))
    u = np.array([1.0, 1.0]) / math.sqrt(2.0)
    cubic = ridge_function(u, poly(0.0, 1.0, 0.0, -1.0 / 3.0), 1.0, "ridge")
    pts = np.array([[0.0, 0.0], [1.0, -0.5], [-2.0, 1.0]])
    for phi in [cubic] + soft_clip_family(2):
        a = mollify(phi, 0.4, law)(pts)
        b = mollified(phi, 0.4, law, pts, n_per_axis=64)
        assert np.max(np.abs(a - b)) < 1e-6, phi.label


def test_mollify_and_gaussian_mean_reject_a_function_without_a_ridge():
    # the closed forms need a ridge with a PiecewisePolynomial profile, so
    # a plain callable is refused in every dim, kinked or smooth
    for dim in (1, 2, 3):
        law = GaussianLaw(SpdMatrix(np.eye(dim)))
        plain = FnSpec(evaluator=lambda x: np.abs(x[:, 0]) * np.abs(x[:, -1]),
                       lipschitz_budget=10.0, label="kink", dim=dim)
        with pytest.raises(UsageError, match="no ridge"):
            mollify(plain, 0.5, law)
        with pytest.raises(UsageError, match="no ridge"):
            gaussian_mean(plain, law)
    for profile in (np.tanh, np.abs, lambda t: t):
        with pytest.raises(UsageError, match="PiecewisePolynomial"):
            ridge_function([1.0, 1.0], profile, 1.0, "plain")


# ---------------------------------------------------------------------------
# piecewise-polynomial profiles in closed form

SOFTCLIP_PARAMS = ((0.5, 1.0, 0.0), (0.5, 2.0, 0.5), (0.25, 1.0, -0.5))


def _power_form_softclip(slope, width, center):
    # the soft-clip profile as it was written before it became piecewise
    def h(t):
        u = np.clip((np.asarray(t, dtype=float) - center) / width, -1.0, 1.0)
        return slope * width * (u - 2.0 * u ** 3 / 3.0 + u ** 5 / 5.0)
    return h


@pytest.mark.parametrize("params", SOFTCLIP_PARAMS)
def test_softclip_horner_matches_power_form(params):
    h = softclip_profile(*params)
    assert isinstance(h, PiecewisePolynomial)
    t = np.linspace(-6.0, 6.0, 24001)
    assert np.max(np.abs(h(t) - _power_form_softclip(*params)(t))) <= 1e-15
    plateau = params[0] * params[1] * 8.0 / 15.0
    edges = h(np.array([-np.inf, np.inf, np.nan]))
    assert edges[0] == -plateau and edges[1] == plateau and np.isnan(edges[2])
    assert h(np.zeros((2, 3))).shape == (2, 3)


def test_piecewise_polynomial_validation():
    with pytest.raises(UsageError):  # three pieces need two knots
        PiecewisePolynomial(knots=(0.0,), coeffs=((0.0,), (0.0, 1.0), (1.0,)))
    with pytest.raises(UsageError):
        PiecewisePolynomial(knots=(1.0, 0.0), coeffs=((0.0,), (0.0,), (0.0,)))
    with pytest.raises(UsageError):
        PiecewisePolynomial(knots=(), coeffs=((np.nan, 1.0),))
    with pytest.raises(UsageError):  # a hinge is not C^2 (nor C^1) at 0
        PiecewisePolynomial(knots=(0.0,), coeffs=((0.0,), (0.0, 1.0)))
    with pytest.raises(UsageError):  # x^2 joined to 0 is C^1 but not C^2
        PiecewisePolynomial(knots=(0.0,), coeffs=((0.0,), (0.0, 0.0, 1.0)))


def _mp_softclip_expectation(mpmath, params, k, a, b):
    """E[h^(k)(a + bZ)] by 50-digit mpmath: quadrature over the quintic
    piece plus the plateaus times their exact Gaussian masses."""
    slope, width, center = params
    a, b = mpmath.mpf(a), mpmath.mpf(b)
    lo, hi = (center - width - a) / b, (center + width - a) / b

    def integrand(z):
        u = (a + b * z - center) / width
        p = (u - 2 * u ** 3 / 3 + u ** 5 / 5, (1 - u ** 2) ** 2,
             -4 * u * (1 - u ** 2), 12 * u ** 2 - 4)[k]
        return slope * width ** (1 - k) * p * mpmath.npdf(z)

    splits = sorted({lo, hi} | ({mpmath.mpf(0)} if lo < 0 < hi else set()))
    value = mpmath.quad(integrand, splits)
    if k == 0:
        plateau = mpmath.mpf(slope) * width * 8 / 15
        value += plateau * (mpmath.ncdf(-hi) - mpmath.ncdf(lo))
    return value


@pytest.mark.parametrize("params", SOFTCLIP_PARAMS[:2])
def test_closed_form_gaussian_expectations_match_mpmath(params):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    h = softclip_profile(*params)
    cases = [
        (12.0, 1.0),    # both limits of every knot below -8
        (-12.0, 1.0),   # both above +8: the upper-tail mass
        (0.3, 1.0),     # limits straddle the quintic piece
        (0.4, 0.05),    # a narrow Gaussian inside the piece
        (12.0, 0.05),   # a narrow Gaussian far out on a plateau
        (-1.45, 0.05),  # a narrow Gaussian across a knot
        (3.0, 2.0),     # a wide Gaussian off centre
    ]
    for a, b in cases:
        got = h.gaussian_expectations(a, b, (0, 1, 2, 3))
        for k in range(4):
            want = float(_mp_softclip_expectation(mpmath, params, k, a, b))
            assert abs(float(got[k]) - want) <= 1e-13, (a, b, k)


def test_closed_form_gaussian_expectations_broadcast_and_share_moments():
    h = softclip_profile(0.5, 2.0, 0.5)
    a = np.linspace(-3.0, 3.0, 7)[:, None] * np.ones((1, 4))
    b = np.linspace(0.1, 2.0, 4)[None, :]
    together = h.gaussian_expectations(a, b, (0, 1, 2, 3))
    for k, got in enumerate(together):
        assert got.shape == (7, 4)
        assert np.array_equal(got, h.gaussian_expectations(a, b, (k,))[0])


def _adaptive_profile_mean(h, a: float, noise_scale: float, t):
    """E[h(a t - noise_scale Z)], Z ~ N(0, 1), at each t by adaptive
    quadrature on [-14, 14].  Kinks are not passed to `quad` as break
    points, so the error can exceed the 1e-11 it asks for: 2.5e-10 off
    40-digit mpmath for `softclip_profile(0.25, 1.0, -0.5)`, a =
    sqrt(1 - 0.25^2), noise_scale = 0.25 sqrt(2), t = 0."""
    from scipy.integrate import quad
    root = 1.0 / np.sqrt(2.0 * np.pi)

    def weighted(z, ti):
        return float(h(np.asarray([a * ti - noise_scale * z]))[0]
                     * root * np.exp(-0.5 * z * z))

    return np.array([quad(weighted, -14.0, 14.0, args=(ti,), epsabs=1e-11,
                          epsrel=1e-11, limit=400)[0] for ti in t])


@pytest.mark.parametrize("eps", [0.25, 0.5])
def test_exact_mollify_matches_adaptive_quadrature(eps):
    a = math.sqrt(1.0 - eps * eps)
    t = np.array([-3.0, -1.0, -0.2, 0.0, 0.7, 1.5, 4.0])
    for params in SOFTCLIP_PARAMS:
        h = softclip_profile(*params)
        # mollify's noise scale under N(0, 1); the adaptive oracle itself is
        # accurate to about 1e-10 (it is off by 2.5e-10 at t = 0 for the
        # third member at noise scale eps * sqrt(2), where mpmath agrees
        # with the closed form to 1e-16)
        exact = mollify(ridge_function([1.0], h, 0.5, "h"), eps, STD_1D)(t)
        oracle = _adaptive_profile_mean(h, a, eps, t)
        assert np.max(np.abs(exact - oracle)) <= 1e-10


def test_soft_clip_mollify_never_takes_a_quadrature_path(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a soft-clip mean left the closed form")

    # the one Hermite rule distances holds serves class membership alone
    monkeypatch.setattr(distances, "hermite_grid", refuse)
    for dim in (1, 2):
        law = GaussianLaw(SpdMatrix(np.eye(dim) + 0.4 * (1.0 - np.eye(dim))))
        x = np.linspace(-2.0, 2.0, 3 * dim).reshape(3, dim)
        for phi in soft_clip_family(dim):
            sigma = math.sqrt(phi.ridge.sigma2(law))
            closed = phi.ridge.profile.gaussian_expectations(0.0, sigma, (0,))[0]
            assert gaussian_mean(phi, law) == float(closed)
            for eps in (0.25, 0.5):
                assert np.isfinite(mollify(phi, eps, law)(x)).all()


@pytest.mark.parametrize("variance", [1.0, 2.5])
def test_gaussian_mean_of_soft_clip_members_matches_mpmath(variance):
    # E[h(sigma Z)] of a piecewise-polynomial profile is in closed form; a
    # 128-node Hermite rule is off by up to 2.7e-5 here
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    law = GaussianLaw(SpdMatrix(np.array([[variance]])))
    for params, phi in zip(SOFTCLIP_PARAMS, soft_clip_family(1)):
        want = float(_mp_softclip_expectation(mpmath, params, 0, 0.0, math.sqrt(variance)))
        assert abs(gaussian_mean(phi, law) - want) <= 1e-13, params


# ---------------------------------------------------------------------------
# class membership


def test_membership_unit_slope_fails_with_ratio_two():
    phi = poly_fn((0.0, 1.0), 1.0, "x")
    report = class_membership_check(phi, STD_1D, lbar=1.0,
                                    r_grid=[0.5, 1.0], x0_grid=[0.0])
    assert not report.passed
    assert abs(report.worst_osc_ratio - 2.0) < 0.05


def test_membership_half_slope_passes():
    phi = poly_fn((0.0, 0.5), 0.5, "x/2")
    report = class_membership_check(phi, STD_1D, lbar=0.5,
                                    r_grid=[0.25, 1.0, 2.0], x0_grid=[0.0, 1.0])
    assert report.passed
    assert report.worst_osc_ratio <= 1.0 + 1e-9


def test_membership_constant_passes_with_zero_oscillation():
    phi = scalar_fn(lambda t: np.ones_like(t), 0.5, "1")
    report = class_membership_check(phi, STD_1D, lbar=0.5,
                                    r_grid=[1.0], x0_grid=[0.0])
    assert report.passed and report.worst_osc_ratio == 0.0


def test_soft_clip_family_members_pass_membership():
    for dim in (1, 2):
        law = GaussianLaw(SpdMatrix(np.eye(dim)))
        for phi in soft_clip_family(dim):
            report = class_membership_check(
                phi, law, lbar=phi.lipschitz_budget,
                r_grid=[0.5, 2.0], x0_grid=[np.zeros(dim)])
            assert report.passed, phi.label


# ---------------------------------------------------------------------------
# W1 estimators


def test_point_mass_distance_is_mean_absolute_deviation():
    pm = DiscreteLaw(values=np.array([0.0]), probs=np.array([1.0]))
    assert abs(w1_discrete_vs_gaussian(pm, 1.0) - ROOT_2_OVER_PI) < 1e-12


def test_coin_distance_matches_quadrature_oracle():
    from scipy.integrate import quad
    from scipy.special import ndtri
    coin = DiscreteLaw(values=np.array([-1.0, 1.0]), probs=np.array([0.5, 0.5]))
    got = w1_discrete_vs_gaussian(coin, 1.0)
    oracle = (quad(lambda u: abs(-1.0 - ndtri(u)), 1e-12, 0.5, limit=200)[0]
              + quad(lambda u: abs(1.0 - ndtri(u)), 0.5, 1 - 1e-12, limit=200)[0])
    assert abs(got - oracle) < 1e-7


def test_coin_distance_sign_flip_invariance():
    coin = DiscreteLaw(values=np.array([-1.0, 1.0]), probs=np.array([0.5, 0.5]))
    flipped = DiscreteLaw(values=np.array([1.0, -1.0]), probs=np.array([0.5, 0.5]))
    assert math.isclose(w1_discrete_vs_gaussian(coin, 1.0),
                        w1_discrete_vs_gaussian(flipped, 1.0), rel_tol=1e-14)


def test_empirical_point_mass_reduces_to_closed_form():
    got = w1_empirical_gaussian(np.zeros(17), 1.0)
    assert abs(got - ROOT_2_OVER_PI) < 1e-6


def test_empirical_matches_discrete_on_atom_law():
    rng = np.random.default_rng(8)
    vals = rng.choice([-1.0, 1.0], size=100000)
    atoms, counts = np.unique(vals, return_counts=True)
    emp = DiscreteLaw(values=atoms, probs=counts / len(vals))
    assert abs(w1_empirical_gaussian(vals, 1.0)
               - w1_discrete_vs_gaussian(emp, 1.0)) < 1e-9


def test_empirical_self_distance_decays():
    rng = np.random.default_rng(21)
    x = rng.standard_normal(10 ** 6)
    assert w1_empirical_gaussian(x, 1.0) <= 0.005


def test_discrete_pair_distance():
    a = DiscreteLaw(values=np.array([0.0, 1.0]), probs=np.array([0.5, 0.5]))
    b = DiscreteLaw(values=np.array([0.0, 1.0]), probs=np.array([0.25, 0.75]))
    # quantile functions differ on u in [0.25, 0.5): gap 1 over width 1/4
    assert math.isclose(w1_discrete_pair(a, b), 0.25, rel_tol=1e-12)
    assert w1_discrete_pair(a, a) == 0.0


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=30),
       st.floats(0.1, 4.0))
def test_empirical_w1_permutation_and_scale_properties(xs, c):
    x = np.asarray(xs)
    base = w1_empirical_gaussian(x, 1.0)
    rng = np.random.default_rng(0)
    assert math.isclose(w1_empirical_gaussian(rng.permutation(x), 1.0), base,
                        rel_tol=1e-12, abs_tol=1e-12)
    scaled = w1_empirical_gaussian(c * x, c * c)
    assert math.isclose(scaled, c * base, rel_tol=1e-9, abs_tol=1e-12)


def test_sliced_equals_plain_in_one_dimension():
    rng = np.random.default_rng(4)
    s = SampleSet(values=rng.standard_normal(5000), master_seed=4)
    plain = w1_empirical_gaussian(s.scalar(), 1.0)
    assert math.isclose(sliced_w1(s, STD_1D, n_directions=8, seed=1), plain,
                        rel_tol=1e-12)


def test_sliced_self_distance_small_in_2d():
    rng = np.random.default_rng(12)
    lam = np.array([[2.0, 0.5], [0.5, 1.0]])
    law = GaussianLaw(SpdMatrix(lam))
    chol = np.linalg.cholesky(lam)
    s = SampleSet(values=rng.standard_normal((200000, 2)) @ chol.T,
                  master_seed=12)
    assert sliced_w1(s, law, n_directions=32, seed=7) <= 0.01


# ---------------------------------------------------------------------------
# restricted distance


def test_restricted_distance_constant_family_is_zero():
    const = poly_fn((3.0,), 0.1, "c")
    s = SampleSet(values=np.arange(10.0), master_seed=0)
    assert abs(restricted_distance(s, STD_1D, [const])) < 1e-12


def test_restricted_distance_detects_mean_shift():
    rng = np.random.default_rng(9)
    mu = 0.5
    s = SampleSet(values=rng.standard_normal(10 ** 6) + mu, master_seed=9)
    fam = [poly_fn((0.0, 0.5), 0.5, "x/2"), poly_fn((0.0, -0.5), 0.5, "-x/2")]
    got = restricted_distance(s, STD_1D, fam)
    assert abs(got - mu / 2.0) < 0.01


def test_restricted_distance_monotone_in_family():
    rng = np.random.default_rng(10)
    s = SampleSet(values=rng.standard_normal(2000), master_seed=10)
    fam = soft_clip_family(1)
    small = restricted_distance(s, STD_1D, fam[:1])
    big = restricted_distance(s, STD_1D, fam)
    assert big >= small - 1e-12


def test_restricted_distance_below_w1_for_lipschitz_scaled_family():
    # one-sided sup over (1/2)-Lipschitz ramps is at most half the W1 gap
    rng = np.random.default_rng(14)
    vals = rng.choice([-1.0, 1.0], size=20000)
    s = SampleSet(values=vals, master_seed=14)
    fam = soft_clip_family(1)
    d = restricted_distance(s, STD_1D, fam)
    w1 = w1_empirical_gaussian(vals, 1.0)
    assert d <= 0.5 * w1 + 1e-9


def test_gaussian_mean_of_centered_odd_profile_is_zero():
    phi = poly_fn((0.0, 1.0, 0.0, -1.0 / 3.0), 1.0, "odd cubic")
    assert abs(gaussian_mean(phi, STD_1D)) < 1e-10
