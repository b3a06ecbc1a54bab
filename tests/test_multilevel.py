"""Multilevel index geometry, dependency indicators, bar-constant budgets,
the eps/ell choices, and the assembled bound, checked against hand-computed
closed forms and brute-force enumeration on tiny lattices."""
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from mlclt import UsageError
from mlclt.gaussians import SpdMatrix
from mlclt.multilevel import (BarConstants, DependenceStructure, FixedBars,
                              LevelIndex, MultilevelSample, _neighbor_count,
                              aggregates, bar_constants, box_distance,
                              build_index_set, chi, chi3, chi_matrix,
                              choose_eps_ell, lambda_matrix, lift,
                              theorem_bound, variance_norm_bound)


def st(d, L, K=2.0, gamma=1.0, B=1.0):
    return DependenceStructure(d=d, L=L, K=K, gamma=gamma, B=B)


# ---------------------------------------------------------------------------
# structure and index set


def test_structure_validation():
    with pytest.raises(UsageError):
        DependenceStructure(d=4, L=8)
    with pytest.raises(UsageError):
        DependenceStructure(d=1, L=1)
    with pytest.raises(UsageError):
        DependenceStructure(d=1, L=8, K=0.5)
    with pytest.raises(UsageError):
        DependenceStructure(d=1, L=8, gamma=0.0)


def test_index_set_counts_small_lattices():
    # counts are sums over levels m = 0 .. 1 + floor(log2 L) of
    # ceil(L / 2^m)^d points
    assert len(build_index_set(st(1, 2))) == 2 + 1 + 1
    assert len(build_index_set(st(1, 4))) == 4 + 2 + 1 + 1
    assert len(build_index_set(st(2, 2))) == 4 + 1 + 1


def test_level_lattice_spacing():
    s = st(1, 8)
    assert s.max_level == 4
    assert [y for (y,) in s.lattice(1)] == [0, 2, 4, 6]
    assert s.lattice(4) == [(0,)]


# ---------------------------------------------------------------------------
# indicators


def test_chi_far_level_zero_pair_is_independent():
    # L = 1024, K = 2: level-0 boxes have half-width 20 and the threshold is
    # 40, so anchors 512 apart are declared independent
    s = st(1, 1024)
    assert chi(s, LevelIndex(0, (0,)), LevelIndex(0, (512,))) == 0
    assert chi(s, LevelIndex(0, (0,)), LevelIndex(0, (32,))) == 1


def test_chi_is_symmetric_and_reflexive():
    s = st(1, 64)
    idx = build_index_set(s)
    rng = np.random.default_rng(0)
    for _ in range(50):
        i, j = idx[rng.integers(len(idx))], idx[rng.integers(len(idx))]
        assert chi(s, i, j) == chi(s, j, i)
        assert chi(s, i, i) == 1


def test_box_distance_is_periodic():
    s = st(1, 1024, K=1.0)
    i = LevelIndex(0, (0,))
    assert box_distance(s, i, LevelIndex(0, (1000,))) == box_distance(
        s, i, LevelIndex(0, (24,)))


def test_chi3_contains_self_and_pair_neighbors():
    s = st(1, 64)
    idx = build_index_set(s)
    rng = np.random.default_rng(1)
    for _ in range(50):
        i, j, k = (idx[rng.integers(len(idx))] for _ in range(3))
        assert chi3(s, i, j, i) == 1
        assert chi3(s, i, j, j) == 1
        assert chi3(s, i, j, k) == chi3(s, j, i, k)
        # the triple threshold dominates the pair threshold
        if chi(s, i, k) or chi(s, j, k):
            assert chi3(s, i, j, k) == 1


def test_lift_closed_form_and_errors():
    s = st(1, 16)
    assert lift(s, LevelIndex(0, (5,)), 3) == LevelIndex(3, (0,))
    assert lift(s, LevelIndex(1, (12,)), 3) == LevelIndex(3, (8,))
    assert lift(s, LevelIndex(2, (4,)), 2) == LevelIndex(2, (4,))
    with pytest.raises(UsageError):
        lift(s, LevelIndex(2, (4,)), 1)
    with pytest.raises(UsageError):
        lift(s, LevelIndex(0, (0,)), s.max_level + 1)


def test_lift_box_contains_original_box():
    s = st(1, 8)  # K log2 L = 6 >= 2, so containment is strict
    for j in build_index_set(s):
        for n in range(j.m, s.max_level + 1):
            l = lift(s, j, n)
            assert box_distance(s, j, l) == 0.0
            delta = abs(j.y[0] - l.y[0]) % s.L
            delta = min(delta, s.L - delta)
            assert delta + s.halfwidth(j.m) <= s.halfwidth(n)


# ---------------------------------------------------------------------------
# the vectorized geometry against a scalar reference


def _axis_gap_reference(c1, h1, c2, h2, L):
    """Periodic distance between the intervals [c1-h1, c1+h1], [c2-h2, c2+h2]."""
    delta = abs(c1 - c2) % L
    delta = min(delta, L - delta)
    return max(0.0, delta - h1 - h2)


def _box_distance_reference(s, i, j):
    h1, h2 = s.halfwidth(i.m), s.halfwidth(j.m)
    return max(_axis_gap_reference(a, h1, b, h2, s.L) for a, b in zip(i.y, j.y))


def _within_reference(s, i, j, top):
    return _box_distance_reference(s, i, j) <= 2.0 * (1 << top) * s.K * s.log_l


def _chi_reference(s, i, j):
    return int(_within_reference(s, i, j, max(i.m, j.m)))


def _chi3_reference(s, i, j, k):
    top = max(i.m, j.m, k.m)
    return int(_within_reference(s, i, k, top) or _within_reference(s, j, k, top))


# d = 1..3, small dyadic and non-dyadic L, K in {1, 1.5, 2}
structures = hst.builds(
    DependenceStructure, d=hst.integers(1, 3),
    L=hst.sampled_from([2, 3, 4, 5, 6, 8, 12, 16, 24, 32, 40, 64, 107, 119]),
    K=hst.sampled_from([1.0, 1.5, 2.0]))


@hst.composite
def structure_and_indices(draw, max_size=12):
    """A structure and index lists whose anchors need not lie in [0, L)."""
    s = draw(structures)
    index = hst.builds(
        LevelIndex, hst.integers(0, s.max_level),
        hst.tuples(*[hst.integers(-2 * s.L, 2 * s.L)] * s.d))
    rows = draw(hst.lists(index, min_size=1, max_size=max_size))
    cols = draw(hst.lists(index, min_size=1, max_size=max_size))
    return s, rows, cols


@settings(max_examples=150, deadline=None)
@given(structure_and_indices())
def test_chi_matrix_matches_scalar_reference(case):
    s, rows, cols = case
    m = chi_matrix(s, rows, cols)
    assert m.dtype == bool and m.shape == (len(rows), len(cols))
    for a, i in enumerate(rows):
        for b, j in enumerate(cols):
            assert m[a, b] == _chi_reference(s, i, j) == chi(s, i, j)
            assert box_distance(s, i, j) == _box_distance_reference(s, i, j)
    assert (chi_matrix(s, rows) == chi_matrix(s, rows, rows)).all()


@settings(max_examples=100, deadline=None)
@given(structure_and_indices(max_size=8))
def test_chi3_matches_scalar_reference(case):
    s, rows, cols = case
    for i in rows:
        for j in rows[:3]:
            assert [chi3(s, i, j, k) for k in cols] == [
                _chi3_reference(s, i, j, k) for k in cols]


def _aggregates_reference(sample, i, j, exp):
    s = sample.structure
    xi = np.atleast_1d(sample.values[i])
    z_i = sum(x for k, x in sample.values.items() if _chi_reference(s, i, k))
    z_ij = sum(x for k, x in sample.values.items() if _chi3_reference(s, i, j, k))
    y_il = np.zeros((xi.size, xi.size))
    for k, x in sample.values.items():
        if _chi_reference(s, i, k) and k.m < i.m and lift(s, k, i.m) == j:
            y_il = y_il + np.outer(xi, x) - np.asarray(exp.get((i, k), 0.0))
    return z_i, z_ij, y_il


@settings(max_examples=30, deadline=None)
@given(structures, hst.integers(0, 2 ** 32 - 1))
def test_aggregates_match_loop_reference(s, seed):
    idx = build_index_set(s)[-150:]  # the coarse levels, where lifts have preimages
    rng = np.random.default_rng(seed)
    sample = MultilevelSample(s, {k: rng.normal(size=2) for k in idx})
    exp = {(a, b): rng.normal(size=(2, 2)) for a, b in zip(idx, idx[::-1])}
    for _ in range(3):
        i, j = idx[rng.integers(len(idx))], idx[rng.integers(len(idx))]
        lifted = lift(s, LevelIndex(0, j.y), i.m)
        for other in [j] + [lifted] * (lifted in sample.values):
            agg = aggregates(sample, i, other, exp)
            z_i, z_ij, y_il = _aggregates_reference(sample, i, other, exp)
            assert np.allclose(agg["z_i"], z_i, rtol=1e-12, atol=1e-12)
            assert np.allclose(agg["z_ij"], z_ij, rtol=1e-12, atol=1e-12)
            assert np.allclose(agg["y_il"], y_il, rtol=1e-12, atol=1e-12)


@settings(max_examples=80, deadline=None)
@given(hst.sampled_from([(1, L) for L in range(2, 129)]
                        + [(2, L) for L in range(2, 25)]
                        + [(3, L) for L in range(2, 9)]),
       hst.sampled_from([1.0, 1.5, 2.0]))
def test_neighbor_count_equals_same_level_row_sums(dims, K):
    s = DependenceStructure(d=dims[0], L=dims[1], K=K)
    for m in s.levels():
        level = [LevelIndex(m, y) for y in s.lattice(m)]
        rows = chi_matrix(s, level).sum(axis=1)
        assert math.isclose(rows.mean(), _neighbor_count(s, m), rel_tol=1e-12)
        if s.L % (1 << m) == 0:  # a regular lattice: every row alike
            assert (rows == _neighbor_count(s, m)).all()


def test_neighbor_count_at_an_irregular_level():
    # L = 119, K = 1, level 1: 60 anchors, the last two 1 apart across the
    # wrap, so some anchors reach one more neighbor than others.  Counting in
    # lattice steps, 2 floor(4 K log2 L) + 1 = 55, misses those.
    s = st(1, 119, K=1.0)
    rows = chi_matrix(s, [LevelIndex(1, y) for y in s.lattice(1)]).sum(axis=1)
    assert set(rows.tolist()) == {55, 56}
    assert math.isclose(_neighbor_count(s, 1), rows.mean(), rel_tol=1e-15)


@settings(max_examples=40, deadline=None)
@given(structures, hst.sampled_from([0.5, 1.0, 2.0]), hst.integers(0, 8))
@example(DependenceStructure(d=1, L=119, K=1.0), 1.0, 3)  # an irregular level
def test_theorem_bound_index_mode_matches_closed_form(s, gamma, ell):
    s = DependenceStructure(d=s.d, L=s.L, K=s.K, gamma=gamma, B=2.0)
    if len(build_index_set(s)) > 5000:
        s = DependenceStructure(d=s.d, L=8, K=s.K, gamma=gamma, B=2.0)
    lam = SpdMatrix(np.array([[2.0, 0.3], [0.3, 1.0]]))
    bars = bar_constants(s, s=2.0)
    closed = theorem_bound(s, lam, bars, eps=0.25, ell=ell)
    listed = theorem_bound(s, lam, bars, eps=0.25, ell=ell,
                           indices=build_index_set(s))
    for name in ("r_lowlevel", "r_alllevel", "condition_lhs", "total"):
        assert math.isclose(getattr(listed, name), getattr(closed, name),
                            rel_tol=1e-12), name
    assert listed.condition_satisfied == closed.condition_satisfied


def test_lambda_matrix_matches_pair_loop_with_independent_pairs():
    s = st(1, 64, K=1.0)
    idx = build_index_set(s)
    dep = chi_matrix(s, idx)
    assert not dep.all() and dep.any()
    values = np.random.default_rng(11).normal(size=(300, len(idx), 2))
    centered = values - values.mean(axis=0)
    expect = np.zeros((2, 2))
    for a, i in enumerate(idx):
        for b, j in enumerate(idx):
            if _chi_reference(s, i, j):
                expect += centered[:, a, :].T @ centered[:, b, :] / len(values)
    expect = (expect + expect.T) / 2.0
    assert np.allclose(lambda_matrix(s, idx, values), expect, rtol=1e-10, atol=1e-12)


# ---------------------------------------------------------------------------
# aggregates


def test_aggregates_against_brute_force_small_lattice():
    # K = 2, L = 8: every pair of boxes overlaps, so z_i is the full total
    # and z_ij likewise
    s = st(1, 8)
    idx = build_index_set(s)
    rng = np.random.default_rng(7)
    sample = MultilevelSample(s, {i: rng.normal(size=1) for i in idx})
    total = sample.total()
    i, j = idx[0], idx[3]
    agg = aggregates(sample, i, j)
    assert np.allclose(agg["z_i"], total)
    assert np.allclose(agg["z_ij"], total)
    xi = sample.values[i]
    xj = sample.values[j]
    assert np.allclose(agg["w_ij"], np.outer(xi, xj))
    # expectations subtract from w
    exp = {(i, j): np.outer(xi, xj)}
    assert np.allclose(aggregates(sample, i, j, exp)["w_ij"], 0.0)


def test_aggregates_y_sums_lower_level_lift_preimage():
    s = st(1, 8)
    idx = build_index_set(s)
    rng = np.random.default_rng(8)
    sample = MultilevelSample(s, {i: rng.normal(size=1) for i in idx})
    i = LevelIndex(2, (4,))
    l = LevelIndex(2, (0,))
    agg = aggregates(sample, i, l)
    xi = sample.values[i]
    expect = sum(np.outer(xi, sample.values[k]) for k in idx
                 if k.m < i.m and chi(s, i, k) and lift(s, k, i.m) == l)
    assert np.allclose(agg["y_il"], expect)


# ---------------------------------------------------------------------------
# bar constants


def test_bar_exponents_are_exact_rationals():
    b = bar_constants(st(1, 64, gamma=2.0), s=2.0)
    assert b.gamma1 == 2.0 / 3.0
    assert b.gamma2 == 0.5
    b1 = bar_constants(st(1, 64, gamma=1.0), s=2.0)
    assert b1.gamma1 == 0.5
    assert b1.gamma2 == 1.0 / 3.0


def test_bar_homogeneity_in_b():
    one = BarConstants(st(1, 64, gamma=2.0, B=1.0), s=2.0)
    two = BarConstants(st(1, 64, gamma=2.0, B=2.0), s=2.0)
    assert math.isclose(two.xbar(), 2.0 * one.xbar())
    assert math.isclose(two.zbar(3), 2.0 * one.zbar(3))
    assert math.isclose(two.wbar(), 4.0 * one.wbar())
    assert math.isclose(two.ybar(2), 4.0 * one.ybar(2))


def test_zbar_level_scaling():
    for d in (1, 2):
        b = BarConstants(st(d, 64, gamma=2.0), s=2.0)
        for m in (1, 3, 5):
            assert math.isclose(b.zbar(m) / b.zbar(0), 2.0 ** (m * d / 2.0))
            assert math.isclose(b.ybar(m) / b.ybar(0), 2.0 ** (m * d / 2.0))
        assert b.zbar2(2, 5) == b.zbar(5) == b.zbar2(5, 2)


def test_bar_constants_reject_nonpositive_s():
    with pytest.raises(UsageError):
        BarConstants(st(1, 64), s=0.0)


# ---------------------------------------------------------------------------
# eps / ell choices


def test_eps_raw_is_cubic_in_inverse_sqrt_covariance():
    s = st(1, 256, gamma=2.0, B=2.0)
    bars = bar_constants(s, s=2.0)
    r1 = choose_eps_ell(s, SpdMatrix(np.eye(1)), bars)
    r4 = choose_eps_ell(s, SpdMatrix(4.0 * np.eye(1)), bars)
    # |Lambda^{-1/2}| halves, so eps_raw shrinks by exactly 8
    assert math.isclose(r4.eps_raw, r1.eps_raw / 8.0, rel_tol=1e-12)


def test_eps_is_clamped_to_one_half():
    s = st(1, 16, gamma=2.0, B=2.0)
    report = choose_eps_ell(s, SpdMatrix(np.eye(1)), bar_constants(s, s=2.0))
    assert report.eps == 0.5 and report.eps_clamped
    assert report.eps_raw > 0.5


def test_ell_zero_when_demand_small():
    s = st(1, 2 ** 16, gamma=2.0, B=1.0, K=1.0)
    report = choose_eps_ell(s, SpdMatrix(1e4 * np.eye(1)),
                            bar_constants(s, s=2.0))
    assert report.ell == 0 and not report.ell_clamped


def test_ell_is_clamped_to_max_level():
    s = st(1, 4, gamma=0.5, B=8.0)
    report = choose_eps_ell(s, SpdMatrix(0.01 * np.eye(1)),
                            bar_constants(s, s=4.0))
    assert report.ell == s.max_level and report.ell_clamped


# ---------------------------------------------------------------------------
# assembled bound


def test_zero_bars_leave_only_gaussian_and_tail_terms():
    s = st(1, 64, gamma=2.0, B=2.0)
    lam = SpdMatrix(np.eye(1))
    report = theorem_bound(s, lam, FixedBars(s, s=2.0, value=0.0), eps=0.25, ell=2)
    assert report.r_lowlevel == 0.0
    assert report.r_alllevel == 0.0
    assert report.condition_lhs == 0.0
    assert report.condition_satisfied
    assert report.gaussian_term == 0.25
    assert report.total == report.gaussian_term + report.r_tail


def test_single_index_unit_bars_regression_value():
    # one level-0 index, all bars 1, eps = 1/2, Lambda = 1:
    # prefactor 1/eps = 2; pair = wbar + 2 ybar = 3; r_low = 3 + 1 = 4
    s = st(1, 64, gamma=2.0, B=2.0)
    lam = SpdMatrix(np.eye(1))
    report = theorem_bound(s, lam, FixedBars(s, s=2.0, value=1.0), eps=0.5,
                           ell=0, indices=[LevelIndex(0, (0,))])
    assert report.r_lowlevel == 8.0


def test_bound_rejects_bad_eps():
    s = st(1, 64)
    lam = SpdMatrix(np.eye(1))
    for eps in (0.0, 1.0):
        with pytest.raises(UsageError):
            theorem_bound(s, lam, FixedBars(s), eps=eps, ell=0)


def test_bound_report_json_contents():
    s = st(1, 64, gamma=2.0, B=2.0)
    lam = SpdMatrix(np.eye(1))
    report = theorem_bound(s, lam, bar_constants(s, s=2.0), eps=0.25, ell=1)
    payload = json.loads(report.to_json())
    assert payload["log_base_lattice"] == 2
    assert payload["log_eps_base"] == "natural"
    assert math.isclose(payload["total"], report.total)
    assert set(payload) >= {"gaussian_term", "r_lowlevel", "r_alllevel",
                            "r_tail", "condition_lhs", "eps", "ell", "policy"}


def test_policy_scales_bound_terms_linearly():
    s = st(1, 64, gamma=2.0, B=2.0)
    lam = SpdMatrix(np.eye(1))
    bars = bar_constants(s, s=2.0)
    base = theorem_bound(s, lam, bars, eps=0.25, ell=1)
    scaled = theorem_bound(s, lam, bars, eps=0.25, ell=1,
                           policy={"c_bound": 3.0, "c_tail": 5.0})
    assert math.isclose(scaled.r_lowlevel, 3.0 * base.r_lowlevel)
    assert math.isclose(scaled.gaussian_term, 3.0 * base.gaussian_term)
    assert math.isclose(scaled.r_tail, 5.0 * base.r_tail)
    with pytest.raises(UsageError):
        theorem_bound(s, lam, bars, eps=0.25, ell=1, policy={"nope": 1.0})


# ---------------------------------------------------------------------------
# variance norm and covariance assembly


def test_variance_norm_bound_closed_form():
    s = st(2, 64, B=3.0)
    assert math.isclose(variance_norm_bound(s), 3.0 * 6.0 * 64.0 ** -1)
    assert math.isclose(variance_norm_bound(s, policy={"c_variance": 2.0}),
                        2.0 * variance_norm_bound(s))


def test_lambda_matrix_equals_total_variance_when_all_pairs_depend():
    # K = 2, L = 8: all chi indicators are 1, so the chi-restricted pair sum
    # is exactly the covariance of the total
    s = st(1, 8)
    idx = build_index_set(s)[:4]
    rng = np.random.default_rng(3)
    values = rng.normal(size=(500, len(idx), 1))
    lam = lambda_matrix(s, idx, values)
    totals = values.sum(axis=1)[:, 0]
    assert math.isclose(float(lam[0, 0]), float(np.mean(
        (totals - totals.mean()) ** 2)), rel_tol=1e-9)
    with pytest.raises(UsageError):
        lambda_matrix(s, idx, values[:, :2, :])
