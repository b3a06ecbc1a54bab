"""Mollified Stein solutions: closed-form polynomial cases, residual of
the defining equation, finite-difference consistency of the derivative
scalars, cross-validation against the Gauss-Hermite oracle in dims 1-3, the
ridge-only contract, and the envelope certificates."""
import math

import numpy as np
import pytest
from quadrature_oracle import GaussHermiteStein, gaussian_expectation, mollified, poly

import support
from support import class_membership_check

import mlclt.cli
from mlclt import QuadratureError, UsageError, stein
from mlclt._util import hermite_1d
from mlclt.distances import TestFunction as FnSpec
from mlclt.distances import (PiecewisePolynomial, ridge_function, soft_clip_family,
                             softclip_profile)
from mlclt.gaussians import GaussianLaw, SpdMatrix
from mlclt.stein import (SteinSolution, majorant_average_certificate, stein_residual,
                         third_derivative_certificate)

STD_1D = GaussianLaw(SpdMatrix(np.eye(1)))
STD_2D = GaussianLaw(SpdMatrix(np.eye(2)))


LINEAR = poly(0.0, 1.0)
# odd and bounded-slope near 0, like tanh, whose Taylor cubic it is
CUBIC = poly(0.0, 1.0, 0.0, -1.0 / 3.0)


def rank_one(scalar: float, u, order: int):
    """scalar * u^{(x)order}, the ridge form of an order-k derivative tensor."""
    tensor = np.array(scalar)
    for _ in range(order):
        tensor = np.multiply.outer(tensor, u)
    return tensor


@pytest.fixture(scope="module")
def soft_clip_sol():
    return SteinSolution(soft_clip_family(1)[0], STD_1D, 0.5)


@pytest.fixture(scope="module")
def soft_clip_2d_sol():
    return SteinSolution(soft_clip_family(2)[-1], STD_2D, 0.5)


@pytest.fixture(scope="module")
def generic_2d_oracle():
    phi = FnSpec(evaluator=lambda x: (np.tanh(np.asarray(x)[:, 0])
                                      + 0.5 * np.tanh(np.asarray(x)[:, 1])),
                 lipschitz_budget=1.5, label="two-axis", dim=2)
    return GaussHermiteStein(phi, STD_2D, 0.5)


# ---------------------------------------------------------------------------
# closed forms


def test_linear_profile_solution_is_exact_contraction():
    # for phi(x) = x the solution is sqrt(1 - eps^2) x: the s-integral of
    # (1-s)^{-1/2}/2 over [eps^2, 1) evaluates in closed form
    phi = ridge_function([1.0], LINEAR, 1.0, "x")
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
    phi = ridge_function([1.0], poly(3.0), 0.1, "c")
    sol = SteinSolution(phi, STD_1D, 0.3)
    x = np.array([[-2.0], [0.0], [1.5]])
    assert np.max(np.abs(sol.values(x))) < 1e-12
    for order in (1, 2, 3):
        assert np.max(np.abs(sol.derivative_scalars(x[:, 0], order))) < 1e-12


def test_even_profile_third_derivative_vanishes_at_origin():
    phi = ridge_function([1.0], poly(0.0, 0.0, 1.0), 10.0, "t^2")
    sol = SteinSolution(phi, STD_1D, 0.5)
    assert abs(float(sol.derivative_scalars(np.array([0.0]), 3)[0])) < 1e-12


def test_solution_is_linear_in_the_test_function():
    a = ridge_function([1.0], LINEAR, 1.0, "a")
    b = ridge_function([1.0], CUBIC, 1.0, "b")
    combo = ridge_function([1.0], poly(0.0, -1.0, 0.0, 1.0), 5.0, "2a-3b")
    x = np.array([[-1.0], [0.5]])
    eps = 0.4
    lhs = SteinSolution(combo, STD_1D, eps).values(x)
    rhs = (2.0 * SteinSolution(a, STD_1D, eps).values(x)
           - 3.0 * SteinSolution(b, STD_1D, eps).values(x))
    assert np.max(np.abs(lhs - rhs)) < 1e-8


# ---------------------------------------------------------------------------
# residual of the defining equation


def test_residual_linear_profile():
    phi = ridge_function([1.0], LINEAR, 1.0, "x")
    sol = SteinSolution(phi, STD_1D, 0.5)
    for v in (-2.0, 0.0, 2.0):
        assert stein_residual(sol, np.array([v])) < 1e-6


def test_residual_soft_clip(soft_clip_sol):
    for v in (-2.0, 0.0, 2.0):
        assert stein_residual(soft_clip_sol, np.array([v])) < 1e-6


def test_residual_generic_engine_2d(generic_2d_oracle):
    # the oracle solves a function without a ridge, whose phi_eps and mean
    # come from the same Hermite rules
    oracle = generic_2d_oracle
    phi, law = oracle.phi, oracle.law
    mean = float(gaussian_expectation(law.covariance.sqrt(), phi, check=True))
    for pt in (np.zeros(2), np.array([1.0, -0.5])):
        grad, hess = (t[0] for t in oracle.fk(pt[None, :], (1, 2)))
        lhs = -float(np.sum(law.covariance.entries * hess)) + float(pt @ grad)
        rhs = float(mollified(phi, oracle.eps, law, pt[None, :])[0]) - mean
        assert abs(lhs - rhs) < 1e-3


def test_soft_clip_residual_at_smallest_eps():
    # the right-hand side's constant is E[phi(Z)] in closed form; taking it
    # as a Hermite mean of phi_eps left a 2.4e-6 residual at eps = 0.05
    sol = SteinSolution(soft_clip_family(1)[2], STD_1D, 0.05)
    grid = np.linspace(-2.0, 2.0, 9)[:, None]
    assert max(stein_residual(sol, x) for x in grid) <= 6e-7


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
    # the oracle's full tensors in dim 3 are F_k(u.x) u^{(x)k}
    phi = ridge_function([1.0, 2.0, 2.0], CUBIC, 1.0, "ridge3d")
    law = GaussianLaw(SpdMatrix(np.eye(3) + 0.3 * (1.0 - np.eye(3))))
    sol = SteinSolution(phi, law, 0.5)
    oracle = GaussHermiteStein(phi, law, 0.5)
    x = np.array([0.4, -0.2, 0.1])
    u = phi.ridge.direction
    w = float(x @ u)
    tensors = oracle.fk(x[None, :], (1, 2, 3))
    for order, tensor in zip((1, 2, 3), tensors):
        assert tensor.shape == (1,) + (3,) * order
        want = rank_one(float(sol.derivative_scalars(w, order)), u, order)
        assert np.max(np.abs(tensor[0] - want)) < 1e-6


def test_ridge_and_generic_engines_agree_in_dimension_two():
    rid = ridge_function([3.0, 4.0], CUBIC, 1.0, "ridge")
    u = rid.ridge.direction
    sr = SteinSolution(rid, STD_2D, 0.4)
    oracle = GaussHermiteStein(rid, STD_2D, 0.4)
    xs = np.array([[-1.5, 0.5], [0.0, 0.0], [0.8, -0.3]])
    assert np.max(np.abs(oracle.fk(xs, 0) - sr.values(xs))) < 1e-8
    pt = np.array([0.8, -0.3])
    for order in (1, 2, 3):
        want = rank_one(float(sr.derivative_scalars(pt @ u, order)), u, order)
        assert np.max(np.abs(oracle.fk(pt[None, :], order)[0] - want)) < 1e-6


def test_solution_of_a_function_without_a_ridge_is_a_usage_error():
    # only a ridge function with a PiecewisePolynomial profile has the exact
    # path, so a function without a ridge is refused in every dim
    for dim in (1, 2, 3):
        law = GaussianLaw(SpdMatrix(np.eye(dim)))
        plain = FnSpec(evaluator=lambda x: np.tanh(np.asarray(x)[:, 0]),
                       lipschitz_budget=1.0, label="plain", dim=dim)
        with pytest.raises(UsageError, match="no ridge"):
            SteinSolution(plain, law, 0.5)


def test_plain_callable_ramp_gets_one_verdict_however_wrapped():
    # behind a plain callable the ramp has no closed form: as a scalar dim-1
    # function and as a ridge profile it is refused alike
    member = soft_clip_family(1)[2]
    h = member.ridge.profile
    scalar = FnSpec(evaluator=lambda x: h(np.asarray(x)[:, 0]),
                    lipschitz_budget=0.25, label="scalar", dim=1)
    with pytest.raises(UsageError, match="no ridge"):
        SteinSolution(scalar, STD_1D, 0.1)
    with pytest.raises(UsageError, match="PiecewisePolynomial"):
        ridge_function([1.0], lambda t: h(t), 0.25, "ridge")
    deltas = SteinSolution(member, STD_1D, 0.1).node_doubling_deltas
    assert all(d <= stein._VERIFY_TOL for d in deltas.values())


def solution_1d(profile, sigma2: float, eps: float) -> SteinSolution:
    """The solution for the dim-1 ridge function of `profile` under N(0, sigma2)."""
    law = GaussianLaw(SpdMatrix(np.array([[sigma2]])))
    return SteinSolution(ridge_function([1.0], profile, 1.0, "h"), law, eps)


@pytest.mark.parametrize("n_points", [1, 1717])
def test_ridge_engine_orders_together_keep_each_orders_bits(n_points):
    # a no-knot quadratic: order 3 vanishes on its one piece.  At 1717
    # points and 256 s-nodes the s-integral runs in 7 blocks of 38
    sol = solution_1d(poly(0.5, -1.0, 0.25), 1.3, 0.25)
    w = np.linspace(-6.0, 6.0, n_points) if n_points > 1 else np.array([0.7])
    together = sol._fk(w, (0, 1, 2, 3), 256)
    assert len(together) == 4 and not together[3].any()
    for order, got in enumerate(together):
        assert np.array_equal(got, sol._fk(w, (order,), 256)[0])


@pytest.mark.parametrize("n_points", [1, 1717])
def test_exact_ridge_engine_orders_together_keep_each_orders_bits(n_points):
    # at 1717 points one block of the closed form holds 38 s-nodes
    sol = solution_1d(softclip_profile(0.5, 2.0, 0.5), 1.3, 0.25)
    w = np.linspace(-6.0, 6.0, n_points) if n_points > 1 else np.array([0.7])
    together = sol._fk(w, (0, 1, 2, 3))
    for order, got in enumerate(together):
        assert np.array_equal(got, sol.derivative_scalars(w, order))


@pytest.mark.parametrize("sigma2", [1.0, 2.5])
def test_exact_inner_integral_matches_gauss_hermite(sigma2):
    # the oracle integrates the soft-clip members' kinks to below 1e-6 at
    # 1024 nodes, and a no-knot cubic exactly
    law = GaussianLaw(SpdMatrix(np.array([[sigma2]])))
    w = np.linspace(-4.0, 4.0, 20)
    for h in (softclip_profile(0.5, 1.0, 0.0), softclip_profile(0.25, 1.0, -0.5),
              CUBIC):
        exact = solution_1d(h, sigma2, 0.25)
        oracle = GaussHermiteStein(ridge_function([1.0], h, 1.0, "h"), law, 0.25,
                                   s_nodes=256, n_axis=1024)
        for order, (a, b) in enumerate(zip(exact._fk(w, (0, 1, 2, 3), 256),
                                           oracle.fk(w[:, None], (0, 1, 2, 3)))):
            assert np.max(np.abs(a - b.reshape(a.shape))) <= 2e-6, (h, order)


@pytest.mark.parametrize("dim", [2, 3])
def test_generic_engine_orders_together_keep_each_orders_bits(dim):
    phi = FnSpec(evaluator=lambda x: np.tanh(np.asarray(x) @ np.arange(1.0, dim + 1.0)),
                 lipschitz_budget=float(dim), label="generic", dim=dim)
    law = GaussianLaw(SpdMatrix(np.eye(dim) + 0.3 * (dim > 1) * (1.0 - np.eye(dim))))
    engine = GaussHermiteStein(phi, law, 0.4, s_nodes=32, n_axis=16)
    x = np.linspace(-1.5, 1.0, 3 * dim).reshape(3, dim)
    together = engine.fk(x, (0, 1, 2, 3))
    for order, got in enumerate(together):
        assert got.shape == (3,) + (dim,) * order
        assert np.array_equal(got, engine.fk(x, order))


# ---------------------------------------------------------------------------
# certificates


def test_third_derivative_certificate_scaled_covariance():
    # |Lambda^{-1}| = 1/4 and eps = 1/2 give the bound 15 * (1/4) * 2 = 7.5
    law = GaussianLaw(SpdMatrix(4.0 * np.eye(1)))
    sol = SteinSolution(soft_clip_family(1)[0], law, 0.5)
    report = third_derivative_certificate(sol, np.linspace(-4, 4, 9)[:, None])
    assert report["bound"] == 7.5
    assert report["passed"]
    assert report["max_ratio"] <= 1.0


def test_oscillation_majorant_dominates_sampled_oscillation(soft_clip_sol):
    sol = soft_clip_sol
    delta = 0.1
    pts = np.linspace(-2.0, 2.0, 5)
    maj = stein._ridge_majorant(sol, delta, pts.min(), pts.max()).majorant(pts, 2)
    for p, m in zip(pts, maj):
        ws = np.linspace(p - delta, p + delta, 21)
        vals = sol.derivative_scalars(ws, 2)
        assert vals.max() - vals.min() <= m


@pytest.mark.parametrize("m,half", [(1717, 16), (40001, 16), (5, 9), (1, 3), (33, 0)])
def test_window_oscillation_matches_scipy_filters(m, half):
    # scipy.ndimage is the oracle: running max minus running min over
    # windows of 2 half + 1 points, the ends extended by their end values,
    # also where the window is wider than the table
    from scipy.ndimage import maximum_filter1d, minimum_filter1d
    table = np.cumsum(np.random.default_rng(m).normal(size=m))
    size = 2 * half + 1
    expect = (maximum_filter1d(table, size=size, mode="nearest")
              - minimum_filter1d(table, size=size, mode="nearest"))
    assert np.array_equal(stein._window_oscillation(table, half), expect)


def test_majorant_average_certificates_pass(soft_clip_sol):
    for kind in ("hessian", "third"):
        report = majorant_average_certificate(soft_clip_sol, 0.1, kind)
        assert report["passed"], report
        assert report["ratio"] <= 1.0


def test_majorant_table_is_built_once_per_delta():
    evaluated = []

    class Counted(PiecewisePolynomial):
        def gaussian_expectations(self, a, b, orders):
            evaluated.append(np.broadcast(np.asarray(a), np.asarray(b)).size)
            return super().gaussian_expectations(a, b, orders)

    counted = Counted(knots=CUBIC.knots, coeffs=CUBIC.coeffs)
    sol = SteinSolution(ridge_function([1.0], counted, 1.0, "cubic"), STD_1D, 0.5)
    hessian = majorant_average_certificate(sol, 0.1, "hessian")
    assert hessian["table"]["s_nodes"] == 256 and len(sol._majorants) == 1
    evaluated.clear()
    third = majorant_average_certificate(sol, 0.1, "third")
    spent = sum(evaluated)
    # the second kind takes closed forms only for |F_3| at the 64 nodes
    evaluated.clear()
    sol.derivative_scalars(hermite_1d(64)[0], 3)
    assert spent == sum(evaluated) > 0
    assert third["table"] == hessian["table"] and len(sol._majorants) == 1


# ---------------------------------------------------------------------------
# usage errors


def test_eps_outside_supported_range_errors():
    phi = ridge_function([1.0], LINEAR, 1.0, "x")
    for eps in (0.01, 0.95):
        with pytest.raises(UsageError):
            SteinSolution(phi, STD_1D, eps)


def test_dimension_mismatch_errors():
    phi = ridge_function([1.0], LINEAR, 1.0, "x")
    with pytest.raises(UsageError):
        SteinSolution(phi, GaussianLaw(SpdMatrix(np.eye(2))), 0.5)


def test_bad_derivative_order_errors(soft_clip_sol):
    for order in (4, -1):
        with pytest.raises(UsageError, match="order"):
            soft_clip_sol.derivative_scalars(np.array([0.0]), order)


def test_generic_engine_beyond_dim_three_errors():
    # tensorized rules stop at dim 3; a ridge solution has no such limit
    law = GaussianLaw(SpdMatrix(np.eye(4)))
    phi = FnSpec(evaluator=lambda x: np.tanh(np.asarray(x)[:, 0]),
                 lipschitz_budget=1.0, label="generic4", dim=4)
    with pytest.raises(UsageError, match="dim 1, 2 or 3"):
        GaussHermiteStein(phi, law, 0.5)
    with pytest.raises(UsageError, match="no ridge"):
        SteinSolution(phi, law, 0.5)
    assert SteinSolution(soft_clip_family(4)[0], law, 0.5).values(np.zeros(4)).shape == (1,)


def test_third_derivative_certificate_without_points_errors(soft_clip_sol):
    for empty in ([], np.empty((0, 1))):
        with pytest.raises(UsageError):
            third_derivative_certificate(soft_clip_sol, empty)


def test_quadrature_spec_validation(monkeypatch):
    # a budget of 16 s-nodes fails the node-doubling gate
    monkeypatch.setattr(stein, "_S_NODES", 16)
    with pytest.raises(QuadratureError):
        SteinSolution(soft_clip_family(1)[0], STD_1D, 0.5)


def test_insufficient_budget_is_reported_not_silently_accepted(monkeypatch):
    law = GaussianLaw(SpdMatrix(4.0 * np.eye(1)))
    # the closed form has no inner rule, but 128 s-nodes do not settle
    with monkeypatch.context() as patch:
        patch.setattr(stein, "_S_NODES", 128)
        with pytest.raises(QuadratureError, match="order 0"):
            SteinSolution(soft_clip_family(1)[0], law, 0.5)
    deltas = SteinSolution(soft_clip_family(1)[0], law, 0.5).node_doubling_deltas
    assert all(d <= stein._VERIFY_TOL for d in deltas.values())


@pytest.mark.parametrize("delta", [np.nan, np.inf, 0.0, -0.1])
def test_majorants_reject_a_delta_that_is_not_positive_and_finite(
        delta, soft_clip_sol, soft_clip_2d_sol):
    for sol in (soft_clip_sol, soft_clip_2d_sol):
        for kind in ("hessian", "third"):
            with pytest.raises(UsageError, match="delta"):
                majorant_average_certificate(sol, delta, kind)


def test_entry_points_reject_points_of_another_dimension(soft_clip_sol, soft_clip_2d_sol):
    # a dim-2 solution once broadcast each of these points to (x, x)
    for sol, bad in ((soft_clip_sol, np.array([[0.5, 1.0]])),
                     (soft_clip_2d_sol, np.array([[0.5], [1.0], [2.0]]))):
        calls = (lambda: sol.values(bad),
                 lambda: stein_residual(sol, bad[0]),
                 lambda: third_derivative_certificate(sol, bad))
        for call in calls:
            with pytest.raises(UsageError, match=f"R\\^{sol.law.dim}"):
                call()
        with pytest.raises(UsageError, match="a point"):
            stein_residual(sol, np.zeros((2, sol.law.dim)))


# ---------------------------------------------------------------------------
# fail-closed numerics


def test_hermite_rule_beyond_384_nodes_is_finite_and_read_only():
    for n in (384, 768):
        x, w = hermite_1d(n)
        assert np.isfinite(x).all() and np.isfinite(w).all()
        assert abs(w @ x ** 2 - 1.0) < 1e-13 and abs(w @ x ** 4 - 3.0) < 1e-12
        assert not x.flags.writeable and not w.flags.writeable


def test_a_nan_fails_every_gate(monkeypatch):
    nan_phi = FnSpec(evaluator=lambda x: np.full(len(x), np.nan),
                     lipschitz_budget=0.5, label="nan", dim=1)
    with pytest.raises(QuadratureError):
        gaussian_expectation(np.eye(1), lambda z: np.full(len(z), np.nan), check=True)
    # membership: a NaN oscillation ratio alone, then a NaN gradient alone
    half = ridge_function([1.0], poly(0.0, 0.5), 0.5, "x/2")
    grid = {"lbar": 0.5, "r_grid": [1.0], "x0_grid": [0.0]}
    assert class_membership_check(half, STD_1D, **grid).passed
    monkeypatch.setattr(support, "_max_gradient", lambda phi, points: 0.0)
    assert not class_membership_check(nan_phi, STD_1D, **grid).passed
    monkeypatch.setattr(support, "_max_gradient", lambda phi, points: np.nan)
    assert not class_membership_check(half, STD_1D, **grid).passed
    # Stein construction: a NaN node-doubling delta on either gated order
    fk = SteinSolution._fk
    for nan_order in (0, 2):
        def nan_fk(self, w, orders, s_nodes=None, k=nan_order):
            outs = fk(self, w, orders, s_nodes)
            return [np.full_like(out, np.nan) if order == k else out
                    for order, out in zip(orders, outs)]
        monkeypatch.setattr(SteinSolution, "_fk", nan_fk)
        with pytest.raises(QuadratureError, match=f"order {nan_order}"):
            SteinSolution(soft_clip_family(1)[0], STD_1D, 0.5)


def test_every_public_stein_name_is_reached_from_the_cli():
    for name in stein.__all__:
        assert getattr(mlclt.cli, name, None) is getattr(stein, name), name
