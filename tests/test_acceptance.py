"""End-to-end acceptance checks.

Each test pins one verification target of the library at its stated
tolerance: Gaussian calculus identities, Stein-solution certificates,
brute-force oracle equivalence, the desk-scale convergence-rate experiment,
dependence-structure geometry, the bound calculator, concentration budgets,
the moderate-deviation decomposition, and byte-level reproducibility of the
CLI outputs.
"""
import math
import time

import numpy as np
import pytest

from mlclt._util import counter_rng
from mlclt.cli import ExperimentConfig, fit_rate, main, run_experiment, run_stein_certify
from mlclt.concentration import (bennett_tail_table, groups_disjoint,
                                 moderate_grouping, remainder_budget_boundary,
                                 remainder_budget_high_levels, stretched_norm,
                                 sum_norm_certificate, tail_bound_from_norm)
from mlclt.distances import (DiscreteLaw, soft_clip_family, w1_discrete_pair,
                             w1_discrete_vs_gaussian, w1_empirical_gaussian)
from mlclt.fields import (SyntheticSpec, brute_force_law, make_preset,
                          monte_carlo, PRESET_NAMES)
from mlclt.gaussians import (GaussianLaw, SpdMatrix, gaussian_convolve,
                             gaussian_derivative_tensor)
from mlclt.multilevel import (DependenceStructure, FixedBars, LevelIndex,
                              bar_constants, build_index_set, chi, chi3,
                              chi_matrix, choose_eps_ell, lambda_matrix, lift,
                              theorem_bound, variance_norm_bound)
from mlclt.stein import SteinSolution, majorant_average_certificate, stein_residual, third_derivative_certificate


# ---------------------------------------------------------------------------
# 1. Gaussian calculus


def _fd_hessian(f, x, h):
    n = len(x)
    out = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            ei = np.zeros(n); ei[i] = h
            ej = np.zeros(n); ej[j] = h
            out[i, j] = (f(x + ei + ej) - f(x + ei - ej)
                         - f(x - ei + ej) + f(x - ei - ej)) / (4.0 * h * h)
    return out


def _fd_third(f, x, h):
    n = len(x)
    out = np.empty((n, n, n))
    for k in range(n):
        ek = np.zeros(n); ek[k] = h
        out[:, :, k] = (_fd_hessian(f, x + ek, h) - _fd_hessian(f, x - ek, h)) / (2.0 * h)
    return out


def _fd_third_richardson(f, x, h):
    return (4.0 * _fd_third(f, x, h / 2.0) - _fd_third(f, x, h)) / 3.0


def test_acceptance_1_gaussian_calculus():
    t0 = time.perf_counter()
    from quadrature_oracle import gaussian_expectation
    rng = np.random.default_rng(11)
    configs = [([[1.0]], 1), ([[2.0, 1.0], [1.0, 2.0]], 2),
               (np.diag([1.0, 0.5, 2.0]), 3)]
    for entries, n in configs:
        law = GaussianLaw(SpdMatrix(np.asarray(entries, dtype=float)))

        # convolution: integrating the density against an independent wide
        # Gaussian equals the convolved density at the origin (tol 1e-5)
        wide = SpdMatrix((3.0 if n <= 2 else 1.0) * np.eye(n))
        numeric = float(gaussian_expectation(wide.sqrt(), law.pdf,
                                             n_per_axis=48 if n <= 2 else 32))
        exact = float(gaussian_convolve(law, GaussianLaw(wide)).pdf(np.zeros(n)))
        assert abs(numeric - exact) / exact < 1e-5

        # multiplication identity (tol 1e-12)
        for _ in range(25):
            x = rng.normal(size=n)
            z = rng.normal(size=n)
            s = rng.uniform()
            a, b = math.sqrt(1.0 - s), math.sqrt(s)
            lhs = float(law.pdf(z)) * float(law.pdf(x))
            rhs = float(law.pdf(a * z + b * x)) * float(law.pdf(a * x - b * z))
            assert math.isclose(lhs, rhs, rel_tol=1e-12)

        # derivative tensors against finite differences (tol 1e-6)
        f = lambda x: float(law.pdf(x))
        for _ in range(3):
            x = rng.normal(size=n)
            h2 = gaussian_derivative_tensor(law, x, 2)
            assert np.max(np.abs(h2 - _fd_hessian(f, x, 1e-4))) < 1e-6
            h3 = gaussian_derivative_tensor(law, x, 3)
            assert np.max(np.abs(h3 - _fd_third_richardson(f, x, 2e-2))) < 1e-6
    assert time.perf_counter() - t0 < 10.0


# ---------------------------------------------------------------------------
# 2. Stein certification


def test_acceptance_2_stein_certification():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20)
    for n in (1, 2):
        law = GaussianLaw(SpdMatrix(np.eye(n)))
        pts_1d = np.linspace(-2.0, 2.0, 9 if n == 1 else 3)
        grid = np.stack(np.meshgrid(*([pts_1d] * n), indexing="ij"),
                        axis=-1).reshape(-1, n)
        probe = 2.0 * rng.standard_normal((1000, n))
        for eps in (0.25, 0.5):
            for phi in soft_clip_family(n):
                sol = SteinSolution(phi, law, eps)
                residual = max(stein_residual(sol, x) for x in grid)
                assert residual <= 1e-3, (n, eps, phi.label, residual)
                third = third_derivative_certificate(sol, probe)
                assert third["n_points"] == 1000
                assert third["passed"] and third["max_ratio"] <= 1.0
                for kind in ("hessian", "third"):
                    rep = majorant_average_certificate(sol, 0.1, kind)
                    assert rep["passed"] and rep["ratio"] <= 1.0, (n, eps, kind)
    # the shipped certification runner reports the same verdicts
    columns, rows = run_stein_certify(ExperimentConfig(
        experiment="stein-certify", n_dim=1, eps=0.25, master_seed=0))
    assert all(row["passed"] for row in rows)
    assert time.perf_counter() - t0 < 300.0


# ---------------------------------------------------------------------------
# 3. oracle equivalence


def test_acceptance_3_oracle_equivalence():
    spec = SyntheticSpec(nonlinearity="identity", dist="rademacher",
                         level_weights=(1.0,))
    structure = DependenceStructure(d=1, L=2, K=2.0, gamma=2.0, B=2.0)
    exact = brute_force_law(spec, structure)
    samples = monte_carlo(spec, structure, 10 ** 6, 2026)
    vals = samples.scalar()
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


def test_acceptance_4_clt_rate():
    t0 = time.perf_counter()
    config = ExperimentConfig(experiment="clt-rate", preset="cube", d=1,
                              L_list=(16, 32, 64, 128, 256, 512),
                              n_samples=10 ** 5, master_seed=2026)
    rows = run_experiment(config)
    assert len(rows) == 6
    w1 = [r.normalized_w1 for r in rows]
    floors = [r.mc_floor for r in rows]
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
    # exhaustive indicator symmetry and lift monotonicity on small lattices
    for L in (4, 16, 64):
        s = DependenceStructure(d=1, L=L, K=2.0)
        idx = build_index_set(s)
        dep = chi_matrix(s, idx)
        assert (dep == dep.T).all()
        for j in idx:
            for n1 in range(j.m, s.max_level + 1):
                for n2 in range(n1, s.max_level + 1):
                    assert lift(s, lift(s, j, n1), n2) == lift(s, j, n2)
    s64 = DependenceStructure(d=1, L=64, K=2.0)
    idx = build_index_set(s64)
    rng = np.random.default_rng(50)
    for _ in range(3000):
        i, j, k = (idx[rng.integers(len(idx))] for _ in range(3))
        assert chi3(s64, i, j, k) == chi3(s64, j, i, k)
        assert chi3(s64, i, j, i) == 1

    # empirical independence of chi = 0 pairs and covariance assembly
    spec, st = make_preset("cube", 1, 64, K=1.0)
    n = 10 ** 5
    samples, per_index, indices = monte_carlo(spec, st, n, 12345,
                                              return_per_index=True)
    pos = {idx: a for a, idx in enumerate(indices)}
    far_i, far_j = LevelIndex(0, (0,)), LevelIndex(0, (32,))
    assert chi(st, far_i, far_j) == 0
    a = per_index[:, pos[far_i], 0]
    b = per_index[:, pos[far_j], 0]
    assert abs(np.corrcoef(a, b)[0, 1]) <= 4.0 / math.sqrt(n)
    lam = lambda_matrix(st, indices, per_index)
    x = samples.scalar()
    variance = float(x.var())
    se = float(np.std((x - x.mean()) ** 2)) / math.sqrt(n)
    assert abs(float(lam[0, 0]) - variance) <= 5.0 * se


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
    report = theorem_bound(s, SpdMatrix(np.eye(1)), FixedBars(s, s=2.0, value=1.0),
                           eps=0.5, ell=0, indices=[LevelIndex(0, (0,))])
    assert report.r_lowlevel == 8.0


# ---------------------------------------------------------------------------
# 7. concentration


def test_acceptance_7_concentration():
    # Bennett / heavy-tail bounds on their exact hypotheses: iid Rademacher
    # sums of length M, one-sided empirical tails with Monte Carlo slack
    for m in (4, 16, 64, 256):
        for row in bennett_tail_table(m, 10 ** 5, 2027):
            allowance = row["mc_slack"]
            assert row["empirical"] <= row["bennett_exact"] + allowance
            assert row["empirical"] <= row["bennett_simplified"] + allowance
            if row["heavy_tail_valid"]:
                assert row["empirical"] <= row["heavy_tail_bound"] + allowance

    # sum-norm budget: measured-to-budget ratio bounded and stable over M
    ratios = []
    for m in (4, 16, 64, 256):
        rng = counter_rng(7, 0xC3)
        sums = (rng.integers(0, 2, size=(20000, m)) * 2.0 - 1.0).sum(axis=1)
        measured = stretched_norm(sums, 2.0 / 3.0).value
        budget = sum_norm_certificate([1.0] * m, gamma0=2.0)["budget"]
        ratios.append(measured / budget)
    assert max(ratios) <= 1.0
    assert max(ratios) / min(ratios) <= 1.5

    # preset totals: the optimized Markov bound from the measured stretched
    # norm dominates the empirical two-sided tails
    for name in PRESET_NAMES:
        spec, st = make_preset(name, 1, 16)
        x = monte_carlo(spec, st, 10 ** 5, 314).scalar()
        xc = x - x.mean()
        gamma_tilde = st.gamma / (st.gamma + 1.0)
        norm = stretched_norm(xc, gamma_tilde).value
        sd = float(xc.std())
        for q in (1.0, 2.0, 3.0, 4.0, 5.0):
            r = q * sd
            emp = float(np.mean(np.abs(xc) >= r))
            slack = 3.0 * math.sqrt(max(emp, 1e-5) / 1e5)
            assert emp <= tail_bound_from_norm(r, norm, gamma_tilde) + slack, (name, q)

    # variance-norm budget for the centered total, L in {16, 64}.  The single
    # recorded constant 2 absorbs the unnamed dimensional prefactor; the
    # cross-L ratio stability guards the exponent itself.
    c_variance = 2.0
    for name in PRESET_NAMES:
        ratio_by_l = []
        for L in (16, 64):
            spec, st = make_preset(name, 1, L)
            x = monte_carlo(spec, st, 10 ** 5, 314).scalar()
            measured = stretched_norm(x - x.mean(), st.gamma / (st.gamma + 1.0)).value
            budget = variance_norm_bound(st, policy={"c_variance": c_variance})
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
    assert g.group_count() == 2
    assert groups_disjoint(s1024, g)
    grouped = set(g.all_group_indices())
    remainder = set(g.all_remainder_indices())
    full = set(build_index_set(s1024))
    assert grouped | remainder == full and not grouped & remainder

    # reassembly: group plus remainder values equal the total exactly
    spec64, s64 = make_preset("cube", 1, 64)
    g64 = moderate_grouping(s64, 64)
    _, per_index, indices = monte_carlo(spec64, s64, 100, 13,
                                        return_per_index=True)
    pos = {idx: a for a, idx in enumerate(indices)}
    part = (per_index[:, [pos[i] for i in g64.all_group_indices()], 0].sum(axis=1)
            + per_index[:, [pos[i] for i in g64.all_remainder_indices()], 0].sum(axis=1))
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
        x = monte_carlo(spec, st, 20000, 99).scalar()
        measured = stretched_norm(x - x.mean(), st.gamma / (st.gamma + 1.0)).value
        budget = (remainder_budget_high_levels(st, ell)
                  + remainder_budget_boundary(st, ell))
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
