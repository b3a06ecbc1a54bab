"""End-to-end acceptance checks.

Each test pins one verification target of the library at its stated
tolerance: the Gaussian calculus of the Stein path, Stein-solution certificates,
brute-force oracle equivalence, the desk-scale convergence-rate experiment,
dependence-structure geometry, the bound calculator, concentration budgets,
the moderate-deviation decomposition, and byte-level reproducibility of the
CLI outputs.
"""
import csv
import math
import time

import numpy as np
import pytest
from support import (FixedBars, LevelIndex, build_index_set, groups_disjoint, index_arrays,
                     neighbor_triples, remainder_columns)

from mlclt._util import counter_rng
from mlclt.cli import fit_rate, main
from mlclt.concentration import (bennett_tail_table, moderate_grouping,
                                 remainder_budget, stretched_norm, tail_bound_from_norm)
from mlclt.distances import (DiscreteLaw, gaussian_mean, mollify, soft_clip_family,
                             softclip_profile, w1_discrete_pair,
                             w1_discrete_vs_gaussian, w1_empirical_gaussian)
from mlclt.fields import (SyntheticSpec, brute_force_law, make_preset,
                          monte_carlo, PRESET_NAMES)
from mlclt.gaussians import SpdMatrix
from mlclt.multilevel import (DependenceStructure, _bound_from_counts, bar_constants,
                              chi_matrix, choose_eps_ell, theorem_bound)
from mlclt.stein import SteinSolution, majorant_average_certificate, stein_residual, third_derivative_certificate


# ---------------------------------------------------------------------------
# 1. Gaussian calculus


def test_acceptance_1_gaussian_calculus():
    # the calculus the Stein path rests on, in its shipped closed forms
    t0 = time.perf_counter()
    from quadrature_oracle import gaussian_expectation, mollified

    # E[h^(k)(a + bZ)] is the k-th derivative in a of E[h(a + bZ)]: the
    # closed-form orders against Richardson finite differences (tol 1e-6)
    h = softclip_profile(0.5, 2.0, 0.5)
    for a in (-2.0, 0.3, 1.7):
        for b in (0.5, 1.0, 2.0):
            means = lambda t: h.gaussian_expectations(t, b, (0, 1, 2, 3))
            for k in range(3):
                fd = lambda s: (means(a + s)[k] - means(a - s)[k]) / (2.0 * s)
                assert abs((4.0 * fd(5e-3) - fd(1e-2)) / 3.0 - means(a)[k + 1]) < 1e-6

    for entries in ([[1.0]], [[2.0, 1.0], [1.0, 2.0]], np.diag([1.0, 0.5, 2.0])):
        lam = SpdMatrix(np.asarray(entries, dtype=float))
        n = lam.dim
        x = np.random.default_rng(11).normal(size=(4, n))
        for phi in soft_clip_family(n):
            # interpolation preserves N(0, Lambda): E[phi_eps(Z)] = E[phi(Z)]
            # (tol 1e-9 against a 32-node tensor rule)
            smoothed = float(gaussian_expectation(
                lam.sqrt(), mollify(phi, 0.5, lam), n_per_axis=32))
            assert abs(smoothed - gaussian_mean(phi, lam)) < 1e-9, (n, phi.label)
            # interpolations compose as Gaussians convolve: smoothing at 0.3
            # and then at 0.4 is smoothing at eps with 1 - eps^2 = 0.91 * 0.84
            # (tol 1e-8, the outer integral by node-doubled quadrature)
            eps = math.sqrt(1.0 - 0.91 * 0.84)
            twice = mollified(mollify(phi, 0.3, lam), 0.4, lam, x,
                              n_per_axis=32 if n <= 2 else 16)
            assert np.max(np.abs(twice - mollify(phi, eps, lam)(x))) < 1e-8, (n, phi.label)
    assert time.perf_counter() - t0 < 10.0


# ---------------------------------------------------------------------------
# 2. Stein certification


def test_acceptance_2_stein_certification(tmp_path):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20)
    for n in (1, 2):
        lam = SpdMatrix(np.eye(n))
        pts_1d = np.linspace(-2.0, 2.0, 9 if n == 1 else 3)
        grid = np.stack(np.meshgrid(*([pts_1d] * n), indexing="ij"),
                        axis=-1).reshape(-1, n)
        probe = 2.0 * rng.standard_normal((1000, n))
        for eps in (0.25, 0.5):
            for phi in soft_clip_family(n):
                sol = SteinSolution(phi, lam, eps)
                residual = np.max(stein_residual(sol, grid))  # NaN fails
                assert residual <= 1e-3, (n, eps, phi.label, residual)
                third = third_derivative_certificate(sol, probe)
                assert third["n_points"] == 1000
                assert third["passed"] and third["max_ratio"] <= 1.0
                for kind, rep in majorant_average_certificate(sol, 0.1).items():
                    assert rep["passed"] and rep["ratio"] <= 1.0, (n, eps, kind)
    # the shipped certification command reports the same verdicts
    out = tmp_path / "certify.csv"
    assert main(["stein-certify", "--n-dim", "1", "--eps", "0.25", "--seed", "0",
                 "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3 and all(row["passed"] == "1" for row in rows)
    assert time.perf_counter() - t0 < 300.0


# ---------------------------------------------------------------------------
# 3. oracle equivalence


def test_acceptance_3_oracle_equivalence():
    spec = SyntheticSpec(nonlinearity="identity", dist="rademacher",
                         level_weights=(1.0,))
    structure = DependenceStructure(d=1, L=2, K=2.0, gamma=2.0, B=2.0)
    exact = brute_force_law(spec, structure)
    vals = monte_carlo(spec, structure, 10 ** 6, 2026)[:, 0]
    atoms, counts = np.unique(vals, return_counts=True)
    empirical = DiscreteLaw(values=atoms, probs=counts / len(vals))
    assert w1_discrete_pair(empirical, exact) <= 0.005
    # the two distance estimators agree on the empirical atoms
    ev, ep = exact.sorted_scalar()
    sigma2 = float(ep @ ev ** 2)
    gap = abs(w1_empirical_gaussian(vals, sigma2)
              - w1_discrete_vs_gaussian(empirical, sigma2))
    assert gap <= 1e-9


# ---------------------------------------------------------------------------
# 4. convergence rate at desk scale


def test_acceptance_4_clt_rate(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "rate.csv"
    assert main(["clt-rate", "--preset", "cube", "--d", "1",
                 "--L", "16,32,64,128,256,512", "--n-samples", str(10 ** 5),
                 "--seed", "2026", "--out", str(out)]) == 0
    # the CSV floats are shortest round-trip decimals, so they read back exactly
    with open(out, newline="") as fh:
        rows = [{"L": int(r["L"]), "normalized_w1": float(r["normalized_w1"]),
                 "mc_floor": float(r["mc_floor"])} for r in csv.DictReader(fh)]
    assert len(rows) == 6
    w1 = [r["normalized_w1"] for r in rows]
    floors = [r["mc_floor"] for r in rows]
    inversions = [i for i in range(len(w1) - 1) if w1[i + 1] > w1[i]]
    assert len(inversions) <= 1
    for i in inversions:
        assert w1[i + 1] - w1[i] <= 2.0 * max(floors[i], floors[i + 1])
    slope, _, r2 = fit_rate(rows)
    assert -0.75 <= slope <= -0.25, (slope, r2)
    assert time.perf_counter() - t0 < 900.0


# ---------------------------------------------------------------------------
# 5. dependence structure


def test_acceptance_5_dependence_structure():
    # exhaustive indicator symmetry on small lattices
    for L in (4, 16, 64):
        s = DependenceStructure(d=1, L=L, K=2.0)
        dep = chi_matrix(s, index_arrays(s, build_index_set(s)))
        assert (dep == dep.T).all()

    # empirical independence of chi = 0 pairs
    spec, st = make_preset("cube", 1, 64, K=1.0)
    n = 10 ** 5
    indices = build_index_set(st)
    _, per_index = monte_carlo(spec, st, n, 12345,
                               groups=np.arange(len(indices))[:, None])
    far_i, far_j = LevelIndex(0, (0,)), LevelIndex(0, (32,))
    assert not chi_matrix(st, index_arrays(st, [far_i]), index_arrays(st, [far_j]))[0, 0]
    a = per_index[:, indices.index(far_i), 0]
    b = per_index[:, indices.index(far_j), 0]
    assert abs(np.corrcoef(a, b)[0, 1]) <= 4.0 / math.sqrt(n)


# ---------------------------------------------------------------------------
# 6. bound calculator


def test_acceptance_6_bound_calculator():
    lam = SpdMatrix(np.eye(1))
    lhs = []
    for k in range(4, 13):
        s = DependenceStructure(d=1, L=2 ** k, K=2.0, gamma=2.0, B=2.0)
        bars = bar_constants(s, s=2.0)
        choice = choose_eps_ell(s, lam, bars)
        report = theorem_bound(s, lam, bars, choice.eps, choice.ell)
        lhs.append(report.condition_lhs)
    # the polylog factors beat L^{-2d} at small L; locate the crossover
    # numerically and require strict decay toward zero beyond it
    peak = int(np.argmax(lhs))
    assert peak < len(lhs) - 2
    for a, b in zip(lhs[peak:], lhs[peak + 1:]):
        assert b < a
    assert lhs[-1] < lhs[peak] / 5.0

    # the eps choice is exactly 3-homogeneous in |Lambda^{-1/2}|
    s = DependenceStructure(d=1, L=256, K=2.0, gamma=2.0, B=2.0)
    bars = bar_constants(s, s=2.0)
    for t in (2.0, 3.0, 10.0):
        r1 = choose_eps_ell(s, SpdMatrix(np.eye(1)), bars)
        rt = choose_eps_ell(s, SpdMatrix(t * t * np.eye(1)), bars)
        assert math.isclose(rt.eps_raw, r1.eps_raw / t ** 3, rel_tol=1e-12)

    # calibration lock: one level-0 index, unit bars, eps = 1/2, Lambda = 1
    report = _bound_from_counts(s, SpdMatrix(np.eye(1)), FixedBars(value=1.0, s=2.0),
                                0.5, 0, neighbor_triples(s, [LevelIndex(0, (0,))]))
    assert report.r_lowlevel == 8.0


# ---------------------------------------------------------------------------
# 7. concentration


def test_acceptance_7_concentration():
    # Bennett / heavy-tail bounds on their exact hypotheses: iid Rademacher
    # sums of length M, against the exact one-sided tails with no slack
    for m in (4, 16, 64, 256, 1024):
        for row in bennett_tail_table(m):
            assert row["exact_tail"] <= row["bennett_exact"]
            assert row["exact_tail"] <= row["bennett_simplified"]
            if row["heavy_tail_valid"]:
                assert row["exact_tail"] <= row["heavy_tail_bound"]

    # sum-norm budget sqrt(M) max_i ||X_i||, here sqrt(M): the measured
    # norm of a sum of M signs is bounded by it and its ratio stable over M
    ratios = []
    for m in (4, 16, 64, 256):
        rng = counter_rng(7, 0xC3)
        sums = (rng.integers(0, 2, size=(20000, m)) * 2.0 - 1.0).sum(axis=1)
        measured = stretched_norm(sums, 2.0 / 3.0).value
        ratios.append(measured / math.sqrt(m))
    assert max(ratios) <= 1.0
    assert max(ratios) / min(ratios) <= 1.5

    # preset totals: the optimized Markov bound from the measured stretched
    # norm dominates the empirical two-sided tails
    for name in PRESET_NAMES:
        spec, st = make_preset(name, 1, 16)
        x = monte_carlo(spec, st, 10 ** 5, 314)[:, 0]
        xc = x - x.mean()
        gamma_tilde = st.gamma / (st.gamma + 1.0)
        norm = stretched_norm(xc, gamma_tilde).value
        sd = float(xc.std())
        for q in (1.0, 2.0, 3.0, 4.0, 5.0):
            r = q * sd
            emp = float(np.mean(np.abs(xc) >= r))
            slack = 3.0 * math.sqrt(max(emp, 1e-5) / 1e5)
            assert emp <= tail_bound_from_norm(r, norm, gamma_tilde) + slack, (name, q)

    # variance-norm budget c B (log2 L)^{d/2} L^{-d/2} for the centered
    # total, L in {16, 64}.  The single recorded constant c = 2 absorbs the
    # unnamed dimensional prefactor; the cross-L ratio stability guards the
    # exponent itself.
    for name in PRESET_NAMES:
        ratio_by_l = []
        for L in (16, 64):
            spec, st = make_preset(name, 1, L)
            x = monte_carlo(spec, st, 10 ** 5, 314)[:, 0]
            measured = stretched_norm(x - x.mean(), st.gamma / (st.gamma + 1.0)).value
            budget = 2.0 * st.B * st.log_l ** 0.5 * L ** -0.5
            ratio_by_l.append(measured / budget)
        assert max(ratio_by_l) <= 1.0, (name, ratio_by_l)
        assert 0.5 <= ratio_by_l[1] / ratio_by_l[0] <= 2.0, (name, ratio_by_l)


# ---------------------------------------------------------------------------
# 8. moderate deviations


def test_acceptance_8_moderate_deviations():
    # structural: nondegenerate grouping partitions the index set with
    # disjoint group supports
    s1024 = DependenceStructure(d=1, L=1024, K=2.0, gamma=2.0 / 3.0, B=8.0)
    g = moderate_grouping(s1024, 512)
    assert not g.degenerate and g.m0 == 2
    assert len(g.groups) == 2
    assert groups_disjoint(s1024, g.groups)
    rest = remainder_columns(s1024, g.groups)
    cols = np.sort(np.concatenate([g.groups.ravel(), rest]))
    assert np.array_equal(cols, np.arange(len(build_index_set(s1024))))

    # reassembly: group plus remainder values equal the total exactly
    spec64, s64 = make_preset("cube", 1, 64)
    g64 = moderate_grouping(s64, 64)
    _, per_index = monte_carlo(spec64, s64, 100, 13,
                               groups=np.arange(len(build_index_set(s64)))[:, None])
    part = (per_index[:, g64.groups.ravel(), 0].sum(axis=1)
            + per_index[:, remainder_columns(s64, g64.groups), 0].sum(axis=1))
    assert np.max(np.abs(part - per_index[:, :, 0].sum(axis=1))) < 1e-12

    # remainder norms scale as the analytic budgets predict: at ell = sqrt(L)
    # the grouping is degenerate (every index is a remainder), so the measured
    # stretched norm of the full centered total is compared with the
    # high-level plus boundary budget; ratios must agree across L within a
    # factor-4 band
    ratios = []
    for L, ell in ((64, 8), (256, 16)):
        spec, st = make_preset("cube", 1, L)
        assert moderate_grouping(st, ell).degenerate
        x = monte_carlo(spec, st, 20000, 99)[:, 0]
        measured = stretched_norm(x - x.mean(), st.gamma / (st.gamma + 1.0)).value
        budget = remainder_budget(st, ell)
        assert measured <= budget
        ratios.append(measured / budget)
    assert max(ratios) / min(ratios) <= 4.0


# ---------------------------------------------------------------------------
# 9. reproducibility


def test_acceptance_9_bit_identical_reruns(tmp_path):
    args = ["clt-rate", "--preset", "cube", "--L", "16,32,64",
            "--n-samples", "2000", "--seed", "77"]
    out1, out2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    # the CSV itself carries no timing; wallclock lives in the manifest only
    header = out1.read_text().splitlines()[0]
    assert "wallclock" not in header
    assert (tmp_path / "run1.csv.manifest.json").exists()
