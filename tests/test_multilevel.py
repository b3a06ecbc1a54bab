"""Multilevel index geometry, dependency indicators, bar-constant budgets,
the eps/ell choices, and the assembled bound, checked against hand-computed
closed forms and brute-force enumeration on tiny lattices."""
import csv
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst
from support import (FixedBars, LevelIndex, build_index_set, index_arrays, lattice,
                     neighbor_triples)

from mlclt import UsageError
from mlclt.cli import main
from mlclt.gaussians import SpdMatrix
from mlclt.multilevel import (BarConstants, DependenceStructure, _bound_from_counts,
                              _box_gaps, _neighbor_count, bar_constants, chi_matrix,
                              choose_eps_ell, theorem_bound)


def st(d, L, K=2.0, gamma=1.0, B=1.0):
    return DependenceStructure(d=d, L=L, K=K, gamma=gamma, B=B)


def chi(s, i, j):
    """The pair indicator of i and j, one entry of chi_matrix."""
    return int(chi_matrix(s, index_arrays(s, [i]), index_arrays(s, [j]))[0, 0])


def box_distance(s, i, j):
    """The periodic sup-distance between the support boxes of i and j."""
    return float(_box_gaps(s, index_arrays(s, [i]), index_arrays(s, [j]))[0, 0])


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
    # NaN fails every comparison and inf overflows later: both are refused
    for bad in ({"K": math.nan}, {"K": math.inf}, {"gamma": math.nan},
                {"gamma": math.inf}, {"B": math.nan}, {"B": math.inf}):
        with pytest.raises(UsageError, match="need finite K >= 1"):
            DependenceStructure(d=1, L=8, **bad)


def test_index_set_counts_small_lattices():
    # counts are sums over levels m = 0 .. 1 + floor(log2 L) of
    # ceil(L / 2^m)^d points
    for s, count in ((st(1, 2), 2 + 1 + 1), (st(1, 4), 4 + 2 + 1 + 1),
                     (st(2, 2), 4 + 1 + 1), (st(1, 5), 5 + 3 + 2 + 1)):
        assert len(build_index_set(s)) == s.level_start(s.max_level + 1) == count


def test_level_lattice_spacing():
    s = st(1, 8)
    assert s.max_level == 4
    assert [y for (y,) in lattice(s, 1)] == [0, 2, 4, 6]
    assert lattice(s, 4) == [(0,)]


@pytest.mark.parametrize("d,L", [(d, L) for d in (1, 2, 3) for L in (2, 3, 5, 8, 12, 16)]
                         + [(1, 107), (1, 1024), (2, 40)])
def test_positions_follow_the_index_set_order(d, L):
    # column c of the library is entry c of the loop-built index set, on
    # dyadic and non-dyadic tori; positions keep the shape of the anchors
    s = st(d, L)
    cols = [s.positions(m, np.array(lattice(s, m))) for m in s.levels()]
    assert np.array_equal(np.concatenate(cols), np.arange(len(build_index_set(s))))
    assert [s.level_start(m) for m in s.levels()] == [c[0] for c in cols]
    grid = np.array(lattice(s, 0)).reshape((L,) * d + (d,))
    assert np.array_equal(s.positions(0, grid), np.arange(L ** d).reshape((L,) * d))


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
    r, c = index_arrays(s, rows), index_arrays(s, cols)
    m = chi_matrix(s, r, c)
    gaps = _box_gaps(s, r, c)
    assert m.dtype == bool and m.shape == (len(rows), len(cols))
    for a, i in enumerate(rows):
        for b, j in enumerate(cols):
            assert m[a, b] == _chi_reference(s, i, j)
            assert gaps[a, b] == _box_distance_reference(s, i, j)
    assert (chi_matrix(s, r) == chi_matrix(s, r, r)).all()


@settings(max_examples=80, deadline=None)
@given(hst.sampled_from([(1, L) for L in range(2, 129)]
                        + [(2, L) for L in range(2, 25)]
                        + [(3, L) for L in range(2, 9)]),
       hst.sampled_from([1.0, 1.5, 2.0]))
def test_neighbor_count_equals_same_level_row_sums(dims, K):
    s = DependenceStructure(d=dims[0], L=dims[1], K=K)
    triples = neighbor_triples(s, build_index_set(s))
    assert [(m, cnt) for m, cnt, _ in triples] == [
        (m, s.lattice_count(m) ** s.d) for m in s.levels()]
    for m, _, mean in triples:
        assert math.isclose(mean, _neighbor_count(s, m), rel_tol=1e-12)
        if s.L % (1 << m) == 0:  # a regular lattice: every row alike
            level = index_arrays(s, [LevelIndex(m, y) for y in lattice(s, m)])
            assert (chi_matrix(s, level).sum(axis=1) == _neighbor_count(s, m)).all()


def test_neighbor_count_at_an_irregular_level():
    # L = 119, K = 1, level 1: 60 anchors, the last two 1 apart across the
    # wrap, so some anchors reach one more neighbor than others.  Counting in
    # lattice steps, 2 floor(4 K log2 L) + 1 = 55, misses those.
    s = st(1, 119, K=1.0)
    level = index_arrays(s, [LevelIndex(1, y) for y in lattice(s, 1)])
    rows = chi_matrix(s, level).sum(axis=1)
    assert set(rows.tolist()) == {55, 56}
    assert math.isclose(_neighbor_count(s, 1), rows.mean(), rel_tol=1e-15)


@settings(max_examples=40, deadline=None)
@given(structures, hst.sampled_from([0.5, 1.0, 2.0]), hst.integers(0, 8))
@example(DependenceStructure(d=1, L=119, K=1.0), 1.0, 3)  # an irregular level
def test_theorem_bound_index_mode_matches_closed_form(s, gamma, ell):
    s = DependenceStructure(d=s.d, L=s.L, K=s.K, gamma=gamma, B=2.0)
    if s.level_start(s.max_level + 1) > 5000:
        s = DependenceStructure(d=s.d, L=8, K=s.K, gamma=gamma, B=2.0)
    lam = SpdMatrix(np.array([[2.0, 0.3], [0.3, 1.0]]))
    bars = bar_constants(s, s=2.0)
    closed = theorem_bound(s, lam, bars, eps=0.25, ell=ell)
    listed = _bound_from_counts(s, lam, bars, 0.25, ell,
                                neighbor_triples(s, build_index_set(s)))
    for name in ("r_lowlevel", "r_alllevel", "condition_lhs", "total"):
        assert math.isclose(getattr(listed, name), getattr(closed, name),
                            rel_tol=1e-12), name
    assert listed.condition_satisfied == closed.condition_satisfied


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
    report = theorem_bound(s, lam, FixedBars(value=0.0, s=2.0), eps=0.25, ell=2)
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
    report = _bound_from_counts(s, lam, FixedBars(value=1.0, s=2.0), 0.5, 0,
                                neighbor_triples(s, [LevelIndex(0, (0,))]))
    assert report.r_lowlevel == 8.0


def test_bound_rejects_bad_eps():
    s = st(1, 64)
    lam = SpdMatrix(np.eye(1))
    for eps in (0.0, 1.0):
        with pytest.raises(UsageError):
            theorem_bound(s, lam, FixedBars(), eps=eps, ell=0)


def test_bound_report_json_contents(tmp_path):
    # bound-calc writes the report: its terms and total in the row, the log
    # conventions in the JSON manifest beside it
    out = tmp_path / "bc.csv"
    assert main(["bound-calc", "--preset", "identity-gauss", "--L", "64",
                 "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "bc.csv.manifest.json").read_text())
    assert manifest["log_base_lattice"] == 2
    assert manifest["log_eps_base"] == "natural"
    assert manifest["config"]["policy"] == {}
    with open(out, newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert set(row) >= {"gaussian_term", "r_lowlevel", "r_alllevel",
                        "r_tail", "condition_lhs", "eps", "ell"}
    s = st(1, 64, gamma=2.0, B=2.0)  # the identity-gauss preset
    report = theorem_bound(s, SpdMatrix(np.eye(1)), bar_constants(s, s=2.0),
                           eps=float(row["eps"]), ell=int(row["ell"]))
    assert float(row["total"]) == report.total


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
    for value in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(UsageError, match="finite and positive"):
            theorem_bound(s, lam, bars, eps=0.25, ell=1, policy={"c_condition": value})

