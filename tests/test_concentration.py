"""Stretched-exponential norms, Bennett and heavy-tail bounds, the
group/remainder decomposition, and the empirical tail tables."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlclt import UsageError
from mlclt.concentration import (Grouping, bennett_bound, bennett_tail_table,
                                 close_to_gaussian_split, groups_disjoint,
                                 iid_tail_bound, moderate_grouping, moderate_tail_table,
                                 normal_abs_moment, remainder_budget_boundary,
                                 remainder_budget_high_levels, stretched_norm,
                                 sum_norm_certificate, tail_bound_from_norm)
from mlclt.fields import make_preset, monte_carlo
from mlclt.multilevel import DependenceStructure, LevelIndex, build_index_set


# ---------------------------------------------------------------------------
# stretched norms


def test_stretched_norm_of_constant():
    # p^{-1/gamma} is decreasing, so the sup sits at p = 1 with value c
    report = stretched_norm(np.full(100, 2.5), gamma=1.0)
    assert math.isclose(report.value, 2.5)
    assert report.argmax_p == 1.0


def test_stretched_norm_of_rademacher_is_one():
    vals = np.array([-1.0, 1.0] * 50)
    report = stretched_norm(vals, gamma=2.0)
    assert math.isclose(report.value, 1.0)


def test_stretched_norm_p_cap_and_validation():
    report = stretched_norm(np.ones(100), gamma=2.0)
    assert math.isclose(report.p_cap, math.log(100) / 2.0)
    with pytest.raises(UsageError):
        stretched_norm(np.ones(1), gamma=2.0)
    with pytest.raises(UsageError):
        stretched_norm(np.ones(10), gamma=0.0)


def test_stretched_norm_standard_normal_matches_moment_oracle():
    rng = np.random.default_rng(12)
    x = rng.standard_normal(10 ** 6)
    report = stretched_norm(x, gamma=2.0)
    p_grid = [p for p in (1.0, 1.5, 2.0, 3.0, 4.0, 6.0) if p <= report.p_cap]
    p_grid.append(report.p_cap)
    oracle = max(p ** -0.5 * normal_abs_moment(p) ** (1.0 / p) for p in p_grid)
    assert abs(report.value - oracle) / oracle < 0.15


def test_normal_abs_moment_closed_values():
    assert math.isclose(normal_abs_moment(1.0), math.sqrt(2.0 / math.pi))
    assert math.isclose(normal_abs_moment(2.0), 1.0)
    assert math.isclose(normal_abs_moment(4.0), 3.0)


def test_tail_bound_from_norm_properties():
    assert tail_bound_from_norm(0.0, 1.0, 2.0) == 1.0
    assert tail_bound_from_norm(1.0, 0.0, 2.0) == 1.0
    b1 = tail_bound_from_norm(5.0, 1.0, 2.0)
    b2 = tail_bound_from_norm(10.0, 1.0, 2.0)
    assert 0.0 < b2 < b1 <= 1.0
    # never better than the best grid point, never worse than p = 1 (Markov)
    assert b1 <= 1.0 / 5.0 + 1e-12


# ---------------------------------------------------------------------------
# Bennett and heavy-tail bounds


def test_bennett_at_zero_threshold_is_one():
    assert bennett_bound(1.0, 1.0, 0.0, "exact") == 1.0
    assert bennett_bound(1.0, 1.0, 0.0, "simplified") == 1.0


def test_bennett_simplified_gaussian_branch():
    # sigma2 = M, a = 1, r = sqrt(M) t with t <= sqrt(M): the minimum is the
    # Gaussian branch exp(-t^2 / 3)
    m, t = 64.0, 2.0
    got = bennett_bound(m, 1.0, math.sqrt(m) * t, "simplified")
    assert math.isclose(got, math.exp(-t * t / 3.0))


@settings(max_examples=200, deadline=None)
@given(st.floats(0.01, 100.0), st.floats(0.01, 10.0), st.floats(0.0, 50.0))
def test_bennett_exact_never_exceeds_simplified(sigma2, a, r):
    exact = bennett_bound(sigma2, a, r, "exact")
    simplified = bennett_bound(sigma2, a, r, "simplified")
    assert exact <= simplified * (1.0 + 1e-12)


def test_bennett_validation():
    with pytest.raises(UsageError):
        bennett_bound(0.0, 1.0, 1.0)
    with pytest.raises(UsageError):
        bennett_bound(1.0, 1.0, -1.0)
    with pytest.raises(UsageError):
        bennett_bound(1.0, 1.0, 1.0, form="other")


def test_iid_tail_bound_formula_and_validity_window():
    out = iid_tail_bound(v=4.0, m=16, b=1.0, gamma0=2.0, r=2.0)
    assert math.isclose(out["bound"], min(1.0, 3.0 * math.exp(-4.0 / 40.0)))
    assert out["valid"] == (2.0 <= out["r_max"])
    far = iid_tail_bound(v=4.0, m=16, b=1.0, gamma0=2.0, r=1e9)
    assert not far["valid"]
    with pytest.raises(UsageError):
        iid_tail_bound(v=0.0, m=16, b=1.0, gamma0=2.0, r=1.0)


def test_sum_norm_certificate_closed_forms():
    one = sum_norm_certificate([0.7], gamma0=2.0, c=3.0)
    assert math.isclose(one["budget"], 3.0 * 0.7)
    assert one["gamma_tilde"] == 2.0 / 3.0
    assert sum_norm_certificate([1.0], gamma0=1.0)["gamma_tilde"] == 0.5
    assert math.isclose(sum_norm_certificate([1.0], gamma0=0.5)["gamma_tilde"],
                        1.0 / 3.0)
    four = sum_norm_certificate([0.1, 0.4, 0.2, 0.3], gamma0=2.0)
    assert math.isclose(four["budget"], 2.0 * 0.4)
    with pytest.raises(UsageError):
        sum_norm_certificate([], gamma0=2.0)


# ---------------------------------------------------------------------------
# grouping


def test_grouping_rejects_bad_ell():
    s = DependenceStructure(d=1, L=64, K=2.0)
    for ell in (3, 48, 128, 0):
        with pytest.raises(UsageError):
            moderate_grouping(s, ell)
    with pytest.raises(UsageError):
        moderate_grouping(DependenceStructure(d=1, L=12), 4)


def test_grouping_degenerate_when_ell_below_threshold():
    # K log2 L = 16 and ell = 16 <= 64: no grouped levels at all
    s = DependenceStructure(d=1, L=256, K=2.0)
    g = moderate_grouping(s, 16)
    assert g.degenerate and g.m0 == -1
    assert g.group_count() == 0
    assert set(g.all_remainder_indices()) == set(build_index_set(s))
    assert groups_disjoint(s, g)  # vacuously


def test_grouping_partitions_the_index_set():
    s = DependenceStructure(d=1, L=64, K=2.0)
    g = moderate_grouping(s, 64)
    # level 0 is a grouped level, but its margin 2^6 empties the interior
    # window, so no group is built
    assert g.degenerate and g.m0 == 0 and g.group_count() == 0
    grouped = g.all_group_indices()
    remainder = g.all_remainder_indices()
    assert len(grouped) + len(remainder) == len(build_index_set(s))
    assert set(grouped) | set(remainder) == set(build_index_set(s))
    assert not set(grouped) & set(remainder)


def test_grouping_values_reassemble_total():
    spec, s = make_preset("cube", 1, 64)
    g = moderate_grouping(s, 64)
    _, per_index, indices = monte_carlo(spec, s, 50, 13, return_per_index=True)
    pos = {idx: a for a, idx in enumerate(indices)}
    part = (per_index[:, [pos[i] for i in g.all_group_indices()], 0].sum(axis=1)
            + per_index[:, [pos[i] for i in g.all_remainder_indices()], 0].sum(axis=1))
    assert np.max(np.abs(part - per_index[:, :, 0].sum(axis=1))) < 1e-12


def test_nondegenerate_groups_have_disjoint_supports():
    s = DependenceStructure(d=1, L=1024, K=2.0)
    g = moderate_grouping(s, 512)
    assert g.m0 == 2
    assert g.group_count() == 2
    assert groups_disjoint(s, g)


def test_grouping_with_empty_interior_windows_is_degenerate():
    # m0 = 1, but the margins 2^7 and 2^8 leave no interior offset in [0, 256)
    s = DependenceStructure(d=1, L=512, K=2.0)
    g = moderate_grouping(s, 256)
    assert g.m0 == 1
    assert g.group_count() == 0 and g.degenerate
    assert set(g.all_remainder_indices()) == set(build_index_set(s))


def _group_cells(s, group):
    """Every cell of the torus that a support box of the group touches."""
    cells = set()
    for idx in group:
        hw = min(s.box_radius(idx.m), s.L)
        axes = [{t % s.L for t in range(c - hw, c + hw + 1)} for c in idx.y]
        cells |= set(itertools.product(*axes))
    return cells


def _disjoint_reference(s, grouping):
    supports = [_group_cells(s, g) for g in grouping.groups.values() if g]
    return all(not supports[a] & supports[b]
               for a in range(len(supports)) for b in range(a + 1, len(supports)))


def _hand_grouping(s, groups):
    return Grouping(structure=s, ell=s.L, m0=0, p={}, remainders={},
                    groups={(a,): tuple(g) for a, g in enumerate(groups)},
                    degenerate=not any(groups))


@st.composite
def hand_groupings(draw):
    d = draw(st.integers(1, 3))
    # the cell-set oracle enumerates up to L^d cells per index
    sizes = {1: [4, 6, 16, 50, 64, 256, 1000], 2: [4, 6, 16, 50], 3: [4, 6, 8]}[d]
    s = DependenceStructure(d=d, L=draw(st.sampled_from(sizes)),
                            K=draw(st.sampled_from([1.0, 1.5, 2.0])))
    index = st.builds(LevelIndex, st.integers(0, min(3, s.max_level)),
                      st.tuples(*[st.integers(0, s.L - 1)] * s.d))
    groups = draw(st.lists(st.lists(index, max_size=4), max_size=4))
    return s, _hand_grouping(s, groups)


@settings(max_examples=60, deadline=None)
@given(hand_groupings())
def test_groups_disjoint_matches_cell_sets(case):
    s, grouping = case
    assert groups_disjoint(s, grouping) == _disjoint_reference(s, grouping)


def test_groups_disjoint_at_the_touching_distance():
    # level-0 half-width floor(2 log2 1024) = 20: anchors 40 apart share cell
    # 20, anchors 41 apart share none, on the short and on the wrapped side
    s = DependenceStructure(d=1, L=1024, K=2.0)
    for other, disjoint in ((40, False), (41, True), (984, False), (983, True)):
        g = _hand_grouping(s, [[LevelIndex(0, (0,))], [LevelIndex(0, (other,))]])
        assert groups_disjoint(s, g) is disjoint == _disjoint_reference(s, g)


def test_single_group_covers_whole_torus_when_ell_equals_l():
    s = DependenceStructure(d=1, L=1024, K=2.0)
    g = moderate_grouping(s, 1024)
    assert g.m0 == 3
    assert g.group_count() == 1


def test_remainder_budget_closed_forms():
    s = DependenceStructure(d=1, L=64, K=2.0, B=3.0)
    klog = 2.0 * 6.0
    assert math.isclose(remainder_budget_high_levels(s, 8),
                        3.0 * klog * 8.0 ** -0.5 * 64.0 ** -0.5)
    assert math.isclose(remainder_budget_boundary(s, 8),
                        3.0 * klog ** 2.0 * 8.0 ** -0.5 * 64.0 ** -0.5)


# ---------------------------------------------------------------------------
# close-to-Gaussian split


def test_close_to_gaussian_split_report():
    lams = [np.array([[1.0]]), np.array([[2.0]]), np.array([[0.5]])]
    rep = close_to_gaussian_split(lams, tau=0.25, b=1.0, gamma0=2.0)
    assert np.allclose(rep.lambda_total, [[3.5]])
    expect_v = 1 * 0.25 * abs(math.log(0.25)) ** 0.5 * 3 * 1.0
    assert math.isclose(rep.v, expect_v)
    assert rep.tail_bound(0.0) == 1.0  # vacuous at the origin
    assert rep.tail_bound(rep.r_vacuous) <= 1.0
    assert rep.tail_bound(10.0 * rep.r_vacuous) < 1e-6
    with pytest.raises(UsageError):
        close_to_gaussian_split(lams, tau=0.6, b=1.0, gamma0=2.0)
    with pytest.raises(UsageError):
        close_to_gaussian_split([], tau=0.25, b=1.0, gamma0=2.0)


# ---------------------------------------------------------------------------
# tail tables


def test_bennett_tail_table_dominates_empirical():
    rows = bennett_tail_table(m=16, n=20000, master_seed=6)
    assert len(rows) == 6
    for row in rows:
        assert set(row) >= {"r", "empirical", "mc_slack", "bennett_exact",
                            "bennett_simplified", "heavy_tail_bound"}
        assert row["bennett_exact"] <= row["bennett_simplified"] + 1e-12
        assert row["empirical"] <= row["bennett_exact"] + row["mc_slack"]


def test_moderate_tail_table_structure():
    spec, s = make_preset("cube", 1, 16)
    table = moderate_tail_table(s, spec, ell=4, n=2000, master_seed=21)
    assert table["ell"] == 4
    assert table["degenerate"] and table["m0"] == -1
    assert table["remainder_norm"] == 0.0
    assert len(table["rows"]) == 10
    for row in table["rows"]:
        assert 0.0 <= row["empirical"] <= 1.0
        assert row["rhs"] <= 1.0
