"""Mollified Stein solutions: closed-form linear/constant cases, residual of
the defining equation, finite-difference consistency of the derivative
scalars, ridge-vs-generic cross-validation, and the envelope certificates."""
import math

import numpy as np
import pytest

from mlclt import QuadratureError, UsageError, distances, stein
from mlclt._util import gaussian_expectation, hermite_1d
from mlclt.distances import TestFunction as FnSpec
from mlclt.distances import (class_membership_check, gaussian_mean,
                             ridge_function, soft_clip_family)
from mlclt.gaussians import GaussianLaw, SpdMatrix
from mlclt.stein import (QuadratureSpec, SteinSolution, majorant_average_certificate,
                         oscillation_majorant, smoothing_bound, stein_derivative,
                         stein_eval, stein_residual, third_derivative_certificate)

STD_1D = GaussianLaw(SpdMatrix(np.eye(1)))


@pytest.fixture(scope="module")
def soft_clip_sol():
    return SteinSolution(soft_clip_family(1)[0], STD_1D, 0.5)


# ---------------------------------------------------------------------------
# closed forms


def test_linear_profile_solution_is_exact_contraction():
    # for phi(x) = x the solution is sqrt(1 - eps^2) x: the s-integral of
    # (1-s)^{-1/2}/2 over [eps^2, 1) evaluates in closed form
    phi = ridge_function([1.0], lambda t: t, 1.0, "x")
    for eps in (0.25, 0.5):
        sol = SteinSolution(phi, STD_1D, eps)
        x = np.array([[0.0], [1.0], [-2.0]])
        expect = math.sqrt(1.0 - eps * eps) * x[:, 0]
        assert np.max(np.abs(sol.values(x) - expect)) < 1e-6
        # first derivative constant, second identically zero
        w = np.array([-1.0, 0.3, 2.0])
        assert np.max(np.abs(sol.derivative_scalars(w, 1)
                             - math.sqrt(1.0 - eps * eps))) < 1e-6
        assert np.max(np.abs(sol.derivative_scalars(w, 2))) < 1e-10


def test_constant_profile_solution_vanishes():
    phi = ridge_function([1.0], lambda t: np.full_like(t, 3.0), 0.1, "c")
    sol = SteinSolution(phi, STD_1D, 0.3)
    x = np.array([[-2.0], [0.0], [1.5]])
    assert np.max(np.abs(sol.values(x))) < 1e-12
    for order in (1, 2, 3):
        assert np.max(np.abs(sol.derivative_scalars(x[:, 0], order))) < 1e-12


def test_even_profile_third_derivative_vanishes_at_origin():
    phi = ridge_function([1.0], lambda t: t * t, 10.0, "t^2")
    sol = SteinSolution(phi, STD_1D, 0.5)
    assert abs(float(sol.derivative_scalars(np.array([0.0]), 3)[0])) < 1e-12


def test_solution_is_linear_in_the_test_function():
    a = ridge_function([1.0], lambda t: t, 1.0, "a")
    b = ridge_function([1.0], np.tanh, 1.0, "b")
    combo = ridge_function([1.0], lambda t: 2.0 * t - 3.0 * np.tanh(t), 5.0, "2a-3b")
    x = np.array([[-1.0], [0.5]])
    eps = 0.4
    lhs = SteinSolution(combo, STD_1D, eps).values(x)
    rhs = (2.0 * SteinSolution(a, STD_1D, eps).values(x)
           - 3.0 * SteinSolution(b, STD_1D, eps).values(x))
    assert np.max(np.abs(lhs - rhs)) < 1e-8


# ---------------------------------------------------------------------------
# residual of the defining equation


def test_residual_linear_profile():
    phi = ridge_function([1.0], lambda t: t, 1.0, "x")
    sol = SteinSolution(phi, STD_1D, 0.5)
    for v in (-2.0, 0.0, 2.0):
        assert stein_residual(sol, np.array([v])) < 1e-6


def test_residual_soft_clip(soft_clip_sol):
    for v in (-2.0, 0.0, 2.0):
        assert stein_residual(soft_clip_sol, np.array([v])) < 1e-6


def test_residual_generic_engine_2d():
    phi = FnSpec(evaluator=lambda x: (np.tanh(np.asarray(x)[:, 0])
                                      + 0.5 * np.tanh(np.asarray(x)[:, 1])),
                 lipschitz_budget=1.5, label="two-axis", dim=2)
    law = GaussianLaw(SpdMatrix(np.eye(2)))
    sol = SteinSolution(phi, law, 0.5)
    assert not sol.is_ridge
    for pt in (np.zeros(2), np.array([1.0, -0.5])):
        assert stein_residual(sol, pt) < 1e-3


# ---------------------------------------------------------------------------
# derivative consistency


def test_derivative_scalars_match_finite_differences(soft_clip_sol):
    sol = soft_clip_sol
    h = 0.02
    f0 = lambda w: float(sol.derivative_scalars(np.array([w]), 0)[0])
    f1 = lambda w: float(sol.derivative_scalars(np.array([w]), 1)[0])
    f2 = lambda w: float(sol.derivative_scalars(np.array([w]), 2)[0])
    x = 0.7
    assert abs((f0(x + h) - f0(x - h)) / (2 * h) - f1(x)) < 1e-4
    assert abs((f1(x + h) - f1(x - h)) / (2 * h) - f2(x)) < 1e-4
    assert abs((f2(x + h) - f2(x - h)) / (2 * h)
               - float(sol.derivative_scalars(np.array([x]), 3)[0])) < 1e-3


def test_derivative_tensors_are_rank_one_in_ridge_direction():
    phi = ridge_function([3.0, 4.0], np.tanh, 1.0, "ridge2d")
    law = GaussianLaw(SpdMatrix(np.eye(2)))
    sol = SteinSolution(phi, law, 0.5)
    x = np.array([0.4, -0.2])
    u = phi.ridge.direction
    g = stein_derivative(sol, x, 1)
    h = stein_derivative(sol, x, 2)
    assert g.shape == (2,) and h.shape == (2, 2)
    w = float(x @ u)
    assert np.allclose(g, float(sol.derivative_scalars(w, 1)) * u)
    assert np.allclose(h, float(sol.derivative_scalars(w, 2)) * np.outer(u, u))


def test_ridge_and_generic_engines_agree_in_dimension_one():
    gen = FnSpec(evaluator=lambda x: np.tanh(np.asarray(x)[:, 0]),
                 lipschitz_budget=1.0, label="generic", dim=1)
    rid = ridge_function([1.0], np.tanh, 1.0, "ridge")
    sg = SteinSolution(gen, STD_1D, 0.4)
    sr = SteinSolution(rid, STD_1D, 0.4)
    xs = np.array([[-1.5], [0.0], [0.8]])
    assert np.max(np.abs(sg.values(xs) - sr.values(xs))) < 1e-8
    pt = np.array([0.8])
    for order in (1, 2, 3):
        assert np.max(np.abs(stein_derivative(sg, pt, order)
                             - stein_derivative(sr, pt, order))) < 1e-6


def test_stein_eval_scalar_and_batch_shapes(soft_clip_sol):
    single = stein_eval(soft_clip_sol, np.array([0.3]))
    assert isinstance(single, float)
    batch = stein_eval(soft_clip_sol, np.array([[0.3], [0.3]]))
    assert batch.shape == (2,) and np.allclose(batch, single)


# ---------------------------------------------------------------------------
# certificates


def test_third_derivative_certificate_scaled_covariance():
    # |Lambda^{-1}| = 1/4 and eps = 1/2 give the bound 15 * (1/4) * 2 = 7.5
    law = GaussianLaw(SpdMatrix(4.0 * np.eye(1)))
    sol = SteinSolution(soft_clip_family(1)[0], law, 0.5,
                        quad=QuadratureSpec(s_nodes=2048, z_nodes_per_axis=192))
    report = third_derivative_certificate(sol, np.linspace(-4, 4, 9)[:, None])
    assert report["bound"] == 7.5
    assert report["passed"]
    assert report["max_ratio"] <= 1.0


def test_oscillation_majorant_dominates_sampled_oscillation(soft_clip_sol):
    sol = soft_clip_sol
    delta = 0.1
    pts = np.linspace(-2.0, 2.0, 5)[:, None]
    maj = oscillation_majorant(sol, pts, delta, "hessian")
    for p, m in zip(pts[:, 0], maj):
        ws = np.linspace(p - delta, p + delta, 21)
        vals = sol.derivative_scalars(ws, 2)
        assert vals.max() - vals.min() <= m


def test_majorant_average_certificates_pass(soft_clip_sol):
    for kind in ("hessian", "third"):
        report = majorant_average_certificate(soft_clip_sol, 0.1, kind)
        assert report["passed"], report
        assert report["ratio"] <= 1.0


def test_smoothing_bound_closed_form():
    got = smoothing_bound(0.01, STD_1D, 0.25)
    assert math.isclose(got, 20.0 * 0.25 + 1000.0 * 0.01)
    law2 = GaussianLaw(SpdMatrix(4.0 * np.eye(2)))
    got2 = smoothing_bound(0.5, law2, 0.1)
    assert math.isclose(got2, 20.0 * math.sqrt(2.0) * 2.0 * 0.1
                        + 1000.0 * 2.0 ** 1.5 * 0.5)


# ---------------------------------------------------------------------------
# usage errors


def test_eps_outside_supported_range_errors():
    phi = ridge_function([1.0], lambda t: t, 1.0, "x")
    for eps in (0.01, 0.95):
        with pytest.raises(UsageError):
            SteinSolution(phi, STD_1D, eps)


def test_dimension_mismatch_errors():
    phi = ridge_function([1.0], lambda t: t, 1.0, "x")
    with pytest.raises(UsageError):
        SteinSolution(phi, GaussianLaw(SpdMatrix(np.eye(2))), 0.5)


def test_bad_derivative_order_errors(soft_clip_sol):
    with pytest.raises(UsageError):
        stein_derivative(soft_clip_sol, np.array([0.0]), 4)
    with pytest.raises(UsageError):
        stein_derivative(soft_clip_sol, np.array([0.0]), 0)


def test_quadrature_spec_validation():
    with pytest.raises(UsageError):
        QuadratureSpec(s_nodes=8)


def test_insufficient_budget_is_reported_not_silently_accepted():
    law = GaussianLaw(SpdMatrix(4.0 * np.eye(1)))
    with pytest.raises(QuadratureError):
        SteinSolution(soft_clip_family(1)[0], law, 0.5)


# ---------------------------------------------------------------------------
# fail-closed numerics


def test_hermite_rule_beyond_384_nodes_is_finite_and_read_only():
    for n in (384, 768):
        x, w = hermite_1d(n)
        assert np.isfinite(x).all() and np.isfinite(w).all()
        assert abs(w @ x ** 2 - 1.0) < 1e-13 and abs(w @ x ** 4 - 3.0) < 1e-12
        assert not x.flags.writeable and not w.flags.writeable


def test_a_nan_fails_every_gate(monkeypatch):
    def nan_profile(t):
        return np.full_like(np.asarray(t, dtype=float), np.nan)

    nan_phi = ridge_function([1.0], nan_profile, 0.5, "nan")
    with pytest.raises(QuadratureError):
        gaussian_expectation(np.eye(1), lambda z: np.full(len(z), np.nan), check=True)
    with pytest.raises(QuadratureError):
        gaussian_mean(nan_phi, STD_1D)
    # membership: a NaN oscillation ratio alone, then a NaN gradient alone
    half = ridge_function([1.0], lambda t: 0.5 * t, 0.5, "x/2")
    grid = {"lbar": 0.5, "r_grid": [1.0], "x0_grid": [0.0]}
    assert class_membership_check(half, STD_1D, **grid).passed
    monkeypatch.setattr(distances, "_max_gradient", lambda phi, points: 0.0)
    assert not class_membership_check(nan_phi, STD_1D, **grid).passed
    monkeypatch.setattr(distances, "_max_gradient", lambda phi, points: np.nan)
    assert not class_membership_check(half, STD_1D, **grid).passed
    # Stein construction: a NaN node-doubling delta
    monkeypatch.setattr(stein._RidgeEngine, "refinement_delta",
                        lambda self, w, order: np.nan)
    with pytest.raises(QuadratureError):
        SteinSolution(soft_clip_family(1)[0], STD_1D, 0.5)
