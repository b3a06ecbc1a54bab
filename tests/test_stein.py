"""Mollified Stein solutions: closed-form polynomial cases, residual of
the defining equation, finite-difference consistency of the derivative
scalars, cross-validation against the Gauss-Hermite oracle in dims 1-3, the
refusal of a profile without closed forms, and the envelope certificates."""
import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from quadrature_oracle import (GaussHermiteStein, gaussian_expectation, hermite_rule,
                               mollified, one_shot_fk, poly, simpson_panels)

import support
from support import class_membership_check

import mlclt.cli
from mlclt import QuadratureError, UsageError, stein
from mlclt._util import hermite_1d
from mlclt.distances import TestFunction as FnSpec
from mlclt.distances import PiecewisePolynomial, soft_clip_family, softclip_profile
from mlclt.gaussians import SpdMatrix
from mlclt.stein import (SteinSolution, majorant_average_certificate, stein_residual,
                         third_derivative_certificate)

STD_1D = SpdMatrix(np.eye(1))
STD_2D = SpdMatrix(np.eye(2))


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
    return GaussHermiteStein(lambda x: np.tanh(x[:, 0]) + 0.5 * np.tanh(x[:, 1]),
                             STD_2D, 0.5)


# ---------------------------------------------------------------------------
# closed forms


def test_linear_profile_solution_is_exact_contraction():
    # for phi(x) = x the solution is sqrt(1 - eps^2) x: the s-integral of
    # (1-s)^{-1/2}/2 over [eps^2, 1) evaluates in closed form
    phi = FnSpec([1.0], LINEAR, 1.0, "x")
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
    phi = FnSpec([1.0], poly(3.0), 0.1, "c")
    sol = SteinSolution(phi, STD_1D, 0.3)
    x = np.array([[-2.0], [0.0], [1.5]])
    assert np.max(np.abs(sol.values(x))) < 1e-12
    for order in (1, 2, 3):
        assert np.max(np.abs(sol.derivative_scalars(x[:, 0], order))) < 1e-12


def test_even_profile_third_derivative_vanishes_at_origin():
    phi = FnSpec([1.0], poly(0.0, 0.0, 1.0), 10.0, "t^2")
    sol = SteinSolution(phi, STD_1D, 0.5)
    assert abs(float(sol.derivative_scalars(np.array([0.0]), 3)[0])) < 1e-12


def test_solution_is_linear_in_the_test_function():
    a = FnSpec([1.0], LINEAR, 1.0, "a")
    b = FnSpec([1.0], CUBIC, 1.0, "b")
    combo = FnSpec([1.0], poly(0.0, -1.0, 0.0, 1.0), 5.0, "2a-3b")
    x = np.array([[-1.0], [0.5]])
    eps = 0.4
    lhs = SteinSolution(combo, STD_1D, eps).values(x)
    rhs = (2.0 * SteinSolution(a, STD_1D, eps).values(x)
           - 3.0 * SteinSolution(b, STD_1D, eps).values(x))
    assert np.max(np.abs(lhs - rhs)) < 1e-8


# ---------------------------------------------------------------------------
# residual of the defining equation


def test_residual_linear_profile():
    phi = FnSpec([1.0], LINEAR, 1.0, "x")
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
    phi, lam = oracle.phi, oracle.lam
    mean = float(gaussian_expectation(lam.sqrt(), phi, check=True))
    for pt in (np.zeros(2), np.array([1.0, -0.5])):
        grad, hess = (t[0] for t in oracle.fk(pt[None, :], (1, 2)))
        lhs = -float(np.sum(lam.entries * hess)) + float(pt @ grad)
        rhs = float(mollified(phi, oracle.eps, lam, pt[None, :])[0]) - mean
        assert abs(lhs - rhs) < 1e-3


def test_soft_clip_residual_at_smallest_eps():
    # the right-hand side's constant is E[phi(Z)] in closed form; taking it
    # as a Hermite mean of phi_eps left a 2.4e-6 residual at eps = 0.05
    sol = SteinSolution(soft_clip_family(1)[2], STD_1D, 0.05)
    grid = np.linspace(-2.0, 2.0, 9)[:, None]
    assert np.max(stein_residual(sol, grid)) <= 6e-7


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
    phi = FnSpec([1.0, 2.0, 2.0], CUBIC, 1.0, "ridge3d")
    lam = SpdMatrix(np.eye(3) + 0.3 * (1.0 - np.eye(3)))
    sol = SteinSolution(phi, lam, 0.5)
    oracle = GaussHermiteStein(phi, lam, 0.5)
    x = np.array([0.4, -0.2, 0.1])
    u = phi.direction
    w = float(x @ u)
    tensors = oracle.fk(x[None, :], (1, 2, 3))
    for order, tensor in zip((1, 2, 3), tensors):
        assert tensor.shape == (1,) + (3,) * order
        want = rank_one(float(sol.derivative_scalars(w, order)), u, order)
        assert np.max(np.abs(tensor[0] - want)) < 1e-6


def test_ridge_and_generic_engines_agree_in_dimension_two():
    rid = FnSpec([3.0, 4.0], CUBIC, 1.0, "ridge")
    u = rid.direction
    sr = SteinSolution(rid, STD_2D, 0.4)
    oracle = GaussHermiteStein(rid, STD_2D, 0.4)
    xs = np.array([[-1.5, 0.5], [0.0, 0.0], [0.8, -0.3]])
    assert np.max(np.abs(oracle.fk(xs, 0) - sr.values(xs))) < 1e-8
    pt = np.array([0.8, -0.3])
    for order in (1, 2, 3):
        want = rank_one(float(sr.derivative_scalars(pt @ u, order)), u, order)
        assert np.max(np.abs(oracle.fk(pt[None, :], order)[0] - want)) < 1e-6


def test_plain_callable_ramp_gets_one_verdict_however_wrapped():
    # behind a plain callable the ramp has no closed form: as the profile of
    # a dim-1 and of a dim-2 test function it is refused alike
    member = soft_clip_family(1)[2]
    h = member.profile
    for direction in ([1.0], [1.0, 1.0]):
        with pytest.raises(UsageError, match="PiecewisePolynomial"):
            FnSpec(direction, lambda t: h(t), 0.25, "ridge")
    deltas = SteinSolution(member, STD_1D, 0.1).node_doubling_deltas
    assert all(d <= stein._VERIFY_TOL for d in deltas.values())


def solution_1d(profile, sigma2: float, eps: float) -> SteinSolution:
    """The solution for the dim-1 ridge function of `profile` under N(0, sigma2)."""
    lam = SpdMatrix(np.array([[sigma2]]))
    return SteinSolution(FnSpec([1.0], profile, 1.0, "h"), lam, eps)


@pytest.mark.parametrize("n_points", [1, 1717])
def test_ridge_engine_orders_together_keep_each_orders_bits(n_points):
    # a no-knot quadratic: order 3 vanishes on its one piece.  At 1717
    # points the closed forms run in slices of two s-rows
    sol = solution_1d(poly(0.5, -1.0, 0.25), 1.3, 0.25)
    w = np.linspace(-6.0, 6.0, n_points) if n_points > 1 else np.array([0.7])
    together = sol._fk(w, (0, 1, 2, 3), 256)
    assert len(together) == 4 and not together[3].any()
    for order, got in enumerate(together):
        assert np.array_equal(got, sol._fk(w, (order,), 256)[0])


@pytest.mark.parametrize("n_points", [1, 1717])
def test_exact_ridge_engine_orders_together_keep_each_orders_bits(n_points):
    # at 1717 points one slice of the closed forms holds two s-rows
    sol = solution_1d(softclip_profile(0.5, 2.0, 0.5), 1.3, 0.25)
    w = np.linspace(-6.0, 6.0, n_points) if n_points > 1 else np.array([0.7])
    together = sol._fk(w, (0, 1, 2, 3))
    for order, got in enumerate(together):
        assert np.array_equal(got, sol.derivative_scalars(w, order))


_ORACLE_PROFILES = tuple(phi.profile for phi in soft_clip_family(1)) + (CUBIC, LINEAR)
_ORACLE_ORDERS = ((0,), (0, 2), (1, 2), (2, 3), (3,))
_ORACLE_BUDGETS = (256, 1024, 2048)
_ORACLE_EPS = (0.05, 0.25, 0.9)


def _oracle_cases():
    """(width, s budget, eps, profile, orders) for the sliced-against-one-shot
    check.  Widths up to 200 meet every budget at every eps; 1717 and 4099
    points (wider than a slice, 4099 one slice and 3 points) meet each budget
    at one eps and each eps at one budget, which keeps the check to a few
    seconds.  The profile and the orders cycle over the cases, so every
    profile meets every tuple of orders."""
    grid = [(width, budget, eps) for width, (i, budget), (j, eps) in itertools.product(
                (1, 3, 64, 200, 1717, 4099), enumerate(_ORACLE_BUDGETS),
                enumerate(_ORACLE_EPS)) if width <= 200 or i == j]
    n = len(_ORACLE_PROFILES)
    return [pytest.param(width, budget, eps, case % n,
                         _ORACLE_ORDERS[(case // n + case) % len(_ORACLE_ORDERS)],
                         id=f"w{width}-s{budget}-eps{eps}")
            for case, (width, budget, eps) in enumerate(grid)]


@functools.lru_cache(maxsize=None)
def _oracle_solution(profile_index: int, eps: float) -> SteinSolution:
    return solution_1d(_ORACLE_PROFILES[profile_index], 1.3, eps)


@pytest.mark.parametrize("width,budget,eps,profile,orders", _oracle_cases())
def test_sliced_closed_forms_keep_the_bits_of_one_shot_blocks(width, budget, eps, profile,
                                                              orders):
    # the slices change where the closed forms are evaluated, not what is
    # summed: every F_k keeps the bits of its s-nodes' closed forms taken in
    # whole rows and added in order from -0.0
    sol = _oracle_solution(profile, eps)
    w = np.linspace(-6.0, 6.0, width) if width > 1 else np.array([0.7])
    got = sol._fk(w, orders, budget)
    expect = one_shot_fk(sol, w, orders, budget)
    assert len(got) == len(orders)
    for order, a, b in zip(orders, got, expect):
        assert np.array_equal(a, b), (profile, order)


@pytest.mark.parametrize("eps", _ORACLE_EPS)
def test_fk_at_a_point_has_the_bits_it_has_alone(eps):
    # a point's F_k is its own sum over the s-nodes, whatever else the call
    # holds: alone, one slice holds every s-row; among 1717 points, two.  A
    # BLAS product over the s-nodes would add them in an order that the
    # batch's width sets
    sol = _oracle_solution(_ORACLE_EPS.index(eps), eps)
    w = 6.0 * np.random.default_rng(17).uniform(-1.0, 1.0, 1717)
    for budget in (48, 96, 128, 256):
        batch = sol._fk(w, (0, 1, 2, 3), budget)
        for i in range(0, len(w), 47):
            alone = sol._fk(w[i:i + 1], (0, 1, 2, 3), budget)
            for order, (a, b) in enumerate(zip(batch, alone)):
                assert a[i:i + 1].tobytes() == b.tobytes(), (budget, i, order)


@pytest.mark.parametrize("sigma2", [1.0, 2.5])
def test_exact_inner_integral_matches_gauss_hermite(sigma2):
    # the oracle integrates the soft-clip members' kinks to below 1e-6 at
    # 1024 nodes, and a no-knot cubic exactly
    lam = SpdMatrix(np.array([[sigma2]]))
    w = np.linspace(-4.0, 4.0, 20)
    for h in (softclip_profile(0.5, 1.0, 0.0), softclip_profile(0.25, 1.0, -0.5),
              CUBIC):
        exact = solution_1d(h, sigma2, 0.25)
        oracle = GaussHermiteStein(FnSpec([1.0], h, 1.0, "h"), lam, 0.25,
                                   s_nodes=256, n_axis=1024)
        for order, (a, b) in enumerate(zip(exact._fk(w, (0, 1, 2, 3), 256),
                                           oracle.fk(w[:, None], (0, 1, 2, 3)))):
            assert np.max(np.abs(a - b.reshape(a.shape))) <= 2e-6, (h, order)


@pytest.mark.parametrize("eps", [0.05, 0.1, 0.5, 0.75, 0.9])
def test_s_rule_is_within_its_stated_error_of_a_converged_reference(eps):
    # the reference is composite Simpson on 2^13 s-nodes, the package's
    # former rule, converged to about 1e-9.  A soft-clip member in dims 1-3
    # under Lambda = c Id is the 1d solution of its profile at sigma^2 = c,
    # so the three profiles at c in {1/4, 1, 4} cover that grid.  Gauss-
    # Legendre leaves at most 6.2e-9 at the solution's 128 s-nodes (64 left
    # 2.7e-5) and 2.9e-4 in the table's orders at 48 (32 left 3.7e-3)
    w = np.linspace(-4.0, 4.0, 41)
    for h, sigma2 in itertools.product(_ORACLE_PROFILES[:3], (0.25, 1.0, 4.0)):
        sol = solution_1d(h, sigma2, eps)
        ref = one_shot_fk(sol, w, (0, 1, 2, 3), 2 ** 13, panels=simpson_panels)
        for order, got in enumerate(sol._fk(w, (0, 1, 2, 3))):
            assert np.max(np.abs(got - ref[order])) <= 1e-7, (h, sigma2, order)
        table = sol._fk(w, stein._TABLE_ORDERS, stein._TABLE_S_NODES)
        for order, got in zip(stein._TABLE_ORDERS, table):
            assert np.max(np.abs(got - ref[order])) <= 1e-3, (h, sigma2, order)


@pytest.mark.parametrize("dim", [2, 3])
def test_generic_engine_orders_together_keep_each_orders_bits(dim):
    lam = SpdMatrix(np.eye(dim) + 0.3 * (dim > 1) * (1.0 - np.eye(dim)))
    engine = GaussHermiteStein(lambda x: np.tanh(x @ np.arange(1.0, dim + 1.0)), lam, 0.4,
                               s_nodes=32, n_axis=16)
    x = np.linspace(-1.5, 1.0, 3 * dim).reshape(3, dim)
    together = engine.fk(x, (0, 1, 2, 3))
    for order, got in enumerate(together):
        assert got.shape == (3,) + (dim,) * order
        assert np.array_equal(got, engine.fk(x, order))


# ---------------------------------------------------------------------------
# certificates


def test_third_derivative_certificate_scaled_covariance():
    # |Lambda^{-1}| = 1/4 and eps = 1/2 give the bound 15 * (1/4) * 2 = 7.5
    lam = SpdMatrix(4.0 * np.eye(1))
    sol = SteinSolution(soft_clip_family(1)[0], lam, 0.5)
    report = third_derivative_certificate(sol, np.linspace(-4, 4, 9)[:, None])
    assert report["bound"] == 7.5
    assert report["passed"]
    assert report["max_ratio"] <= 1.0


def test_oscillation_majorant_dominates_sampled_oscillation(soft_clip_sol):
    sol = soft_clip_sol
    delta = 0.1
    pts = np.linspace(-2.0, 2.0, 5)
    maj = stein._majorants(sol, delta, pts)[0]["hessian"]
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
    reports = majorant_average_certificate(soft_clip_sol, 0.1)
    assert list(reports) == ["hessian", "third"]
    for kind, report in reports.items():
        assert report["kind"] == kind
        assert report["passed"], report
        assert report["ratio"] <= 1.0


def test_majorant_table_is_built_once_per_delta():
    evaluated = []

    class Counted(PiecewisePolynomial):
        def gaussian_expectations(self, a, b, orders):
            evaluated.append(np.broadcast(np.asarray(a), np.asarray(b)).size)
            return super().gaussian_expectations(a, b, orders)

    # closed-form (s, w) pairs: at eps = 0.5 a budget of n s-nodes takes n
    # of them per point.  Construction evaluates E[phi(Z)] and the solution
    # gate alone, at the 3 probe points; one majorant call evaluates the
    # table gate at 44 points, the one table, and |F_3| at the 64
    # Gauss-Hermite nodes
    counted = Counted(knots=CUBIC.knots, coeffs=CUBIC.coeffs)
    sol = SteinSolution(FnSpec([1.0], counted, 1.0, "cubic"), STD_1D, 0.5)
    assert evaluated == [1, 3 * 128, 3 * 256]
    evaluated.clear()
    reports = majorant_average_certificate(sol, 0.1)
    table = reports["hessian"]["table"]
    assert table["s_nodes"] == 48 and table["points"] > 1000
    assert reports["third"]["table"] == table
    assert sum(evaluated) == 44 * (48 + 96) + table["points"] * 48 + 64 * 128


def test_certificates_evaluate_the_closed_forms_in_small_slices():
    # whole s-blocks of closed-form temporaries took a 14.6 MiB peak for the
    # majorant table and 12.2 MiB for the third-derivative certificate
    sol = SteinSolution(soft_clip_family(1)[0], STD_1D, 0.25)
    for name, call in (
            ("table", lambda: majorant_average_certificate(sol, 0.1)["hessian"]),
            ("third", lambda: third_derivative_certificate(
                sol, np.linspace(-4.0, 4.0, 200)[:, None]))):
        tracemalloc.start()
        try:
            assert call()["passed"]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2 ** 20, (name, peak / 2 ** 20)


# ---------------------------------------------------------------------------
# usage errors


def test_eps_outside_supported_range_errors():
    phi = FnSpec([1.0], LINEAR, 1.0, "x")
    for eps in (0.01, 0.95):
        with pytest.raises(UsageError):
            SteinSolution(phi, STD_1D, eps)


def test_dimension_mismatch_errors():
    phi = FnSpec([1.0], LINEAR, 1.0, "x")
    with pytest.raises(UsageError):
        SteinSolution(phi, SpdMatrix(np.eye(2)), 0.5)


def test_bad_derivative_order_errors(soft_clip_sol):
    for order in (4, -1):
        with pytest.raises(UsageError, match="order"):
            soft_clip_sol.derivative_scalars(np.array([0.0]), order)


def test_generic_engine_beyond_dim_three_errors():
    # tensorized rules stop at dim 3; a ridge solution has no such limit
    lam = SpdMatrix(np.eye(4))
    with pytest.raises(UsageError, match="dim 1, 2 or 3"):
        GaussHermiteStein(lambda x: np.tanh(x[:, 0]), lam, 0.5)
    assert SteinSolution(soft_clip_family(4)[0], lam, 0.5).values(np.zeros(4)).shape == (1,)


def test_third_derivative_certificate_without_points_errors(soft_clip_sol):
    for empty in ([], np.empty((0, 1))):
        with pytest.raises(UsageError):
            third_derivative_certificate(soft_clip_sol, empty)


def test_quadrature_spec_validation(monkeypatch):
    # a budget of 16 s-nodes still fails the node-doubling gate
    monkeypatch.setattr(stein, "_S_NODES", 16)
    with pytest.raises(QuadratureError):
        SteinSolution(soft_clip_family(1)[0], STD_1D, 0.5)


def test_insufficient_budget_is_reported_not_silently_accepted(monkeypatch):
    lam = SpdMatrix(4.0 * np.eye(1))
    # the closed form has no inner rule, but 24 s-nodes do not settle: under
    # doubling, order 0 moves by 4.3e-4 at 24, 2.2e-5 at 32 and 1.4e-9 at 128
    with monkeypatch.context() as patch:
        patch.setattr(stein, "_S_NODES", 24)
        with pytest.raises(QuadratureError, match="order 0"):
            SteinSolution(soft_clip_family(1)[0], lam, 0.5)
    deltas = SteinSolution(soft_clip_family(1)[0], lam, 0.5).node_doubling_deltas
    assert all(d <= stein._VERIFY_TOL for d in deltas.values())


def test_insufficient_majorant_table_budget_is_reported(monkeypatch):
    # the solution's own budget settles, but 4 table s-nodes do not: the
    # solution builds, and the majorant call's table gate names the table
    members = soft_clip_family(1)
    with monkeypatch.context() as patch:
        patch.setattr(stein, "_TABLE_S_NODES", 4)
        for phi in members:
            sol = SteinSolution(phi, STD_1D, 0.25)
            with pytest.raises(QuadratureError, match="majorant table"):
                majorant_average_certificate(sol, 0.1)
    for phi in members:
        reports = majorant_average_certificate(SteinSolution(phi, STD_1D, 0.25), 0.1)
        deltas = reports["hessian"]["table"]["node_doubling_delta"]
        assert set(deltas) == {2, 3}
        assert all(d <= stein._TABLE_VERIFY_TOL for d in deltas.values())


def test_majorant_table_gate_sees_the_error_off_the_probe_points():
    # at the three probe points alone, doubling this member's 48 table
    # s-nodes moved F_3 by 3.1e-7, while on [-4, 4] the table errs by 2.9e-4
    # against 1024 s-nodes: the gate's delta must now see that error
    phi = next(p for p in soft_clip_family(2)
               if p.label == "softclip[s=0.5,w=2.0,c=0.5,dir=2]")
    sol = SteinSolution(phi, SpdMatrix(0.25 * np.eye(2)), 0.05)
    report = majorant_average_certificate(sol, 0.1)["hessian"]
    w = np.linspace(-4.0, 4.0, 41)
    table = sol._fk(w, stein._TABLE_ORDERS, stein._TABLE_S_NODES)
    converged = sol._fk(w, stein._TABLE_ORDERS, 1024)
    for order, got, want in zip(stein._TABLE_ORDERS, table, converged):
        error = float(np.max(np.abs(got - want)))
        assert report["table"]["node_doubling_delta"][order] >= 0.5 * error > 0.0, order


@pytest.mark.parametrize("delta", [np.nan, np.inf, 0.0, -0.1])
def test_majorants_reject_a_delta_that_is_not_positive_and_finite(
        delta, soft_clip_sol, soft_clip_2d_sol):
    for sol in (soft_clip_sol, soft_clip_2d_sol):
        with pytest.raises(UsageError, match="delta"):
            majorant_average_certificate(sol, delta)


def test_entry_points_reject_points_of_another_dimension(soft_clip_sol, soft_clip_2d_sol):
    # a dim-2 solution once broadcast each of these points to (x, x)
    for sol, bad in ((soft_clip_sol, np.array([[0.5, 1.0]])),
                     (soft_clip_2d_sol, np.array([[0.5], [1.0], [2.0]]))):
        calls = (lambda: sol.values(bad),
                 lambda: stein_residual(sol, bad[0]),
                 lambda: third_derivative_certificate(sol, bad))
        for call in calls:
            with pytest.raises(UsageError, match=f"R\\^{sol.lam.dim}"):
                call()


# ---------------------------------------------------------------------------
# fail-closed numerics


def test_hermite_rule_has_the_bits_of_scipys_rule():
    # up to 150 nodes the rule runs scipy's algorithm on numpy's eigensolver
    from scipy.special import roots_hermitenorm
    for n in range(2, 151):
        x, w = hermite_1d(n)
        x_ref, w_ref = roots_hermitenorm(n)
        assert np.array_equal(x, x_ref), n
        assert np.array_equal(w, w_ref / w_ref.sum()), n


def test_hermite_rule_beyond_384_nodes_is_finite_and_read_only():
    # the package refuses rules past 150 nodes; the test oracle takes scipy's
    for n in (151, 384):
        with pytest.raises(UsageError, match="150"):
            hermite_1d(n)
    for n in (384, 768):
        x, w = hermite_rule(n)
        assert np.isfinite(x).all() and np.isfinite(w).all()
        assert abs(w @ x ** 2 - 1.0) < 1e-13 and abs(w @ x ** 4 - 3.0) < 1e-12
        assert not x.flags.writeable and not w.flags.writeable


def test_a_nan_fails_every_gate(monkeypatch):
    with pytest.raises(QuadratureError):
        gaussian_expectation(np.eye(1), lambda z: np.full(len(z), np.nan), check=True)
    # membership: a NaN oscillation ratio alone, then a NaN gradient alone
    half = FnSpec([1.0], poly(0.0, 0.5), 0.5, "x/2")
    grid = {"lbar": 0.5, "r_grid": [1.0], "x0_grid": [0.0]}
    assert class_membership_check(half, STD_1D, **grid).passed
    monkeypatch.setattr(support, "_max_gradient", lambda phi, points: 0.0)
    assert not class_membership_check(lambda x: np.full(len(x), np.nan), STD_1D,
                                      **grid).passed
    monkeypatch.setattr(support, "_max_gradient", lambda phi, points: np.nan)
    assert not class_membership_check(half, STD_1D, **grid).passed
    # a NaN node-doubling delta on either gated order of the solution fails
    # its construction; on either order of the majorant table alone, the
    # solution builds and the majorant call fails
    fk = SteinSolution._fk
    table = (stein._TABLE_S_NODES, 2 * stein._TABLE_S_NODES)
    for nan_order, budgets, name in ((0, None, "Stein quadrature"),
                                     (2, None, "Stein quadrature"),
                                     (2, table, "majorant table"),
                                     (3, table, "majorant table")):
        def nan_fk(self, w, orders, s_nodes=None, k=nan_order, budgets=budgets):
            outs = fk(self, w, orders, s_nodes)
            if budgets is not None and s_nodes not in budgets:
                return outs
            return [np.full_like(out, np.nan) if order == k else out
                    for order, out in zip(orders, outs)]
        monkeypatch.setattr(SteinSolution, "_fk", nan_fk)
        with pytest.raises(QuadratureError, match=f"{name} \\(order {nan_order}\\)"):
            majorant_average_certificate(SteinSolution(soft_clip_family(1)[0], STD_1D, 0.5),
                                         0.1)


def test_every_public_stein_name_is_reached_from_the_cli():
    for name in stein.__all__:
        assert getattr(mlclt.cli, name, None) is getattr(stein, name), name
