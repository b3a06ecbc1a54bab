"""Stretched-exponential norms, Bennett and heavy-tail bounds, the
group/remainder decomposition, and the tail tables."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import bdtrc
from support import build_index_set, grouping_oracle, groups_disjoint, remainder_columns

from mlclt import UsageError
from mlclt.concentration import (bennett_bound, bennett_tail_table, iid_tail_bound,
                                 moderate_grouping, moderate_tail_table,
                                 remainder_budget, stretched_norm, tail_bound_from_norm)
from mlclt.fields import make_preset, monte_carlo
from mlclt.multilevel import DependenceStructure


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
    # E|Z|^p = 2^{p/2} Gamma((p+1)/2) / sqrt(pi)
    moment = lambda p: 2.0 ** (p / 2.0) * math.gamma((p + 1.0) / 2.0) / math.sqrt(math.pi)
    oracle = max(p ** -0.5 * moment(p) ** (1.0 / p) for p in p_grid)
    assert abs(report.value - oracle) / oracle < 0.15


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


# ---------------------------------------------------------------------------
# grouping


def test_grouping_rejects_bad_ell():
    s = DependenceStructure(d=1, L=64, K=2.0)
    for ell in (3, 48, 128, 0):
        with pytest.raises(UsageError):
            moderate_grouping(s, ell)
    with pytest.raises(UsageError):
        moderate_grouping(DependenceStructure(d=1, L=12), 4)


def _assert_partition(s, g):
    """The groups and their remainders hold every column exactly once."""
    cols = np.concatenate([g.groups.ravel(), remainder_columns(s, g.groups)])
    assert np.array_equal(np.sort(cols), np.arange(s.level_start(s.max_level + 1)))


def test_grouping_degenerate_when_ell_below_threshold():
    # K log2 L = 16 and ell = 16 <= 64: no grouped levels at all
    s = DependenceStructure(d=1, L=256, K=2.0)
    g = moderate_grouping(s, 16)
    assert g.degenerate and g.m0 == -1
    assert g.groups.shape == (0, 0)
    assert len(remainder_columns(s, g.groups)) == len(build_index_set(s))
    assert groups_disjoint(s, g.groups)  # vacuously


def test_grouping_partitions_the_index_set():
    s = DependenceStructure(d=1, L=64, K=2.0)
    g = moderate_grouping(s, 64)
    # level 0 is a grouped level, but its margin 2^6 empties the interior
    # window, so no group is built
    assert g.degenerate and g.m0 == 0 and g.groups.shape == (0, 0)
    _assert_partition(s, g)
    s1024 = DependenceStructure(d=1, L=1024, K=2.0)
    _assert_partition(s1024, moderate_grouping(s1024, 512))


def test_grouping_columns_match_the_loop_oracle():
    # d = 1..3, K in {1, 2} and every dyadic ell on dyadic tori; d = 2
    # reaches a nondegenerate grouping at L = 128, d = 3 only beyond the
    # oracle's reach
    built = 0
    for d, top in ((1, 12), (2, 7), (3, 4)):
        for L in (1 << k for k in range(1, top + 1)):
            pos = {idx: a for a, idx in enumerate(build_index_set(DependenceStructure(d, L)))}
            for K, ell in itertools.product((1.0, 2.0), (1 << e for e in range(L.bit_length()))):
                s = DependenceStructure(d=d, L=L, K=K)
                g = moderate_grouping(s, ell)
                oracle = [[pos[i] for i in group] for group in grouping_oracle(s, ell)]
                assert g.groups.ndim == 2 and g.groups.tolist() == oracle, (d, L, K, ell)
                assert g.degenerate == (not oracle)
                _assert_partition(s, g)
                built += not g.degenerate
    assert built >= 20


def test_grouping_values_reassemble_total():
    spec, s = make_preset("cube", 1, 1024)
    g = moderate_grouping(s, 512)
    assert not g.degenerate
    _, per_index = monte_carlo(spec, s, 50, 13,
                               groups=np.arange(len(build_index_set(s)))[:, None])
    part = (per_index[:, g.groups.ravel(), 0].sum(axis=1)
            + per_index[:, remainder_columns(s, g.groups), 0].sum(axis=1))
    assert np.max(np.abs(part - per_index[:, :, 0].sum(axis=1))) < 1e-12


def test_nondegenerate_groups_have_disjoint_supports():
    s = DependenceStructure(d=1, L=1024, K=2.0)
    g = moderate_grouping(s, 512)
    assert g.m0 == 2
    assert g.groups.shape == (2, 256)
    assert groups_disjoint(s, g.groups)


def test_grouping_with_empty_interior_windows_is_degenerate():
    # m0 = 1, but the margins 2^7 and 2^8 leave no interior offset in [0, 256)
    s = DependenceStructure(d=1, L=512, K=2.0)
    g = moderate_grouping(s, 256)
    assert g.m0 == 1
    assert g.groups.shape == (0, 0) and g.degenerate


def _group_cells(s, group):
    """Every cell of the torus that a support box of the group touches."""
    indices = build_index_set(s)
    cells = set()
    for idx in (indices[c] for c in group):
        hw = min(s.box_radius(idx.m), s.L)
        axes = [{t % s.L for t in range(c - hw, c + hw + 1)} for c in idx.y]
        cells |= set(itertools.product(*axes))
    return cells


def _disjoint_reference(s, groups):
    supports = [_group_cells(s, g) for g in groups if g]
    return all(not supports[a] & supports[b]
               for a in range(len(supports)) for b in range(a + 1, len(supports)))


@st.composite
def hand_groupings(draw):
    d = draw(st.integers(1, 3))
    # the cell-set oracle enumerates up to L^d cells per index
    sizes = {1: [4, 6, 16, 50, 64, 256, 1000], 2: [4, 6, 16, 50], 3: [4, 6, 8]}[d]
    s = DependenceStructure(d=d, L=draw(st.sampled_from(sizes)),
                            K=draw(st.sampled_from([1.0, 1.5, 2.0])))
    # columns of levels 0 .. 3
    column = st.integers(0, s.level_start(min(4, s.max_level + 1)) - 1)
    return s, draw(st.lists(st.lists(column, max_size=4), max_size=4))


@settings(max_examples=60, deadline=None)
@given(hand_groupings())
def test_groups_disjoint_matches_cell_sets(case):
    s, groups = case
    assert groups_disjoint(s, groups) == _disjoint_reference(s, groups)


def test_groups_disjoint_at_the_touching_distance():
    # level-0 half-width floor(2 log2 1024) = 20: anchors 40 apart share cell
    # 20, anchors 41 apart share none, on the short and on the wrapped side;
    # level-0 columns are the anchors themselves
    s = DependenceStructure(d=1, L=1024, K=2.0)
    for other, disjoint in ((40, False), (41, True), (984, False), (983, True)):
        groups = [[0], [other]]
        assert groups_disjoint(s, groups) is disjoint == _disjoint_reference(s, groups)


def test_single_group_covers_whole_torus_when_ell_equals_l():
    s = DependenceStructure(d=1, L=1024, K=2.0)
    g = moderate_grouping(s, 1024)
    assert g.m0 == 3
    assert len(g.groups) == 1


def test_remainder_budget_closed_forms():
    # the high-level term B (K log2 L)^d ell^{-d/2} L^{-d/2} plus the
    # boundary term B (K log2 L)^{(d+3)/2} ell^{-1/2} L^{-d/2}
    s = DependenceStructure(d=1, L=64, K=2.0, B=3.0)
    klog = 2.0 * 6.0
    assert math.isclose(remainder_budget(s, 8),
                        3.0 * klog * 8.0 ** -0.5 * 64.0 ** -0.5
                        + 3.0 * klog ** 2.0 * 8.0 ** -0.5 * 64.0 ** -0.5)
    s2 = DependenceStructure(d=2, L=64, K=1.0, B=1.0)
    assert math.isclose(remainder_budget(s2, 8),
                        6.0 ** 2 * 8.0 ** -1 * 64.0 ** -1
                        + 6.0 ** 2.5 * 8.0 ** -0.5 * 64.0 ** -1)


# ---------------------------------------------------------------------------
# tail tables


def test_bennett_tail_table_dominates_empirical():
    # the exact tail at m = 16, r = 2: P[S >= 2] = P[J >= 9] for J binomial,
    # (1 - C(16, 8) / 2^16) / 2, and the bounds hold it with no slack
    rows = bennett_tail_table(m=16)
    assert len(rows) == 6
    assert (rows[0]["r"], rows[0]["exact_tail"]) == (2.0, 26333 / 65536)
    for row in rows:
        assert set(row) == {"r", "exact_tail", "bennett_exact", "bennett_simplified",
                            "heavy_tail_bound", "heavy_tail_valid"}
        assert row["bennett_exact"] <= row["bennett_simplified"] + 1e-12
        assert row["exact_tail"] <= row["bennett_exact"]
    # the binomial survival function P[J >= ceil((r + m) / 2)], at odd and
    # even m; scipy's bdtrc is a few 1e-13 off at m = 256
    for m in (5, 64, 256, 4096):
        for row in bennett_tail_table(m):
            k = math.ceil((row["r"] + m) / 2)
            assert math.isclose(row["exact_tail"], bdtrc(k - 1, m, 0.5), rel_tol=1e-9)
    # k comes from the exact r: one ulp above 2, (16 + r) / 2 rounds to 9 in
    # floats, but S >= r needs S >= 4, ten plus signs; and no S reaches 17
    above, beyond = bennett_tail_table(16, [math.nextafter(2.0, 3.0), 17.0])
    assert above["exact_tail"] == sum(math.comb(16, j) for j in range(10, 17)) / 2 ** 16
    assert beyond["exact_tail"] == 0.0


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
