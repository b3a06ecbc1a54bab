"""Noise lattices, field decomposition, synthetic multilevel families, exact
enumeration of tiny laws, and the reproducible Monte Carlo driver."""
import hashlib
import math

import numpy as np
import pytest

from mlclt import UsageError
from mlclt._util import counter_rng
from mlclt.concentration import stretched_norm
from mlclt.fields import (FieldModel, NoiseLattice, SyntheticSpec, _draw_rows,
                          brute_force_law, draw_noise, dump_samples, load_samples,
                          local_average, make_preset, monte_carlo,
                          multilevel_decompose, sample_field, synthetic_multilevel,
                          PRESET_NAMES)
from mlclt.multilevel import DependenceStructure, LevelIndex, build_index_set


# ---------------------------------------------------------------------------
# noise and fields


def test_draw_noise_is_deterministic_per_counter():
    a = draw_noise(1, 32, "gaussian", 7, realization=3)
    b = draw_noise(1, 32, "gaussian", 7, realization=3)
    c = draw_noise(1, 32, "gaussian", 7, realization=4)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert a.cells == 32


def test_noise_distributions_are_centered_unit_variance():
    for dist in ("rademacher", "uniform", "centered-exponential-tail", "gaussian"):
        vals = np.concatenate([draw_noise(1, 1024, dist, 11, k).values
                               for k in range(32)])
        assert abs(vals.mean()) < 0.02
        assert abs(vals.var() - 1.0) < 0.05


def _oracle_row(dist, cells, master_seed, k):
    rng = counter_rng(master_seed, k)
    if dist == "rademacher":
        return rng.integers(0, 2, cells) * 2.0 - 1.0
    if dist == "uniform":
        return rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), cells)
    if dist == "centered-exponential-tail":
        return rng.laplace(0.0, 1.0 / math.sqrt(2.0), cells)
    return rng.standard_normal(cells)


@pytest.mark.parametrize("d,L", [(1, 3), (2, 5), (3, 3)])
def test_draw_rows_match_per_realization_generator(d, L):
    # odd cell counts leave half of the last raw Philox word unused
    k0, count = 5, 4
    for dist in ("rademacher", "uniform", "centered-exponential-tail", "gaussian"):
        rows = _draw_rows(d, L, dist, 2026, k0, count)
        assert rows.shape == (count, L ** d)
        for i in range(count):
            assert np.array_equal(rows[i], _oracle_row(dist, L ** d, 2026, k0 + i))
        # seeds are taken modulo 2^64, so realization k regenerates in isolation
        assert np.array_equal(_draw_rows(d, L, dist, -1, k0, count),
                              _draw_rows(d, L, dist, 2 ** 64 - 1, k0, count))


def test_unknown_noise_distribution_errors():
    with pytest.raises(UsageError):
        draw_noise(1, 8, "cauchy", 0)


def test_field_model_validation_and_identity_map():
    with pytest.raises(UsageError):
        FieldModel(pointwise_map="exp")
    noise = draw_noise(1, 16, "rademacher", 1)
    assert np.array_equal(sample_field(FieldModel(), noise), noise.values)
    cubed = sample_field(FieldModel(pointwise_map="cube"), noise)
    assert np.array_equal(cubed, noise.values ** 3)


# ---------------------------------------------------------------------------
# local averages


def test_local_average_matches_loop_oracle():
    rng = np.random.default_rng(2)
    L = 12
    a = rng.normal(size=L)
    for r in (1, 2, 4):
        got = local_average(a, r, 1, L)
        expect = np.array([np.mean([a[(x + o) % L] for o in range(-r, r + 1)])
                           for x in range(L)])
        assert np.max(np.abs(got - expect)) < 1e-12


def test_local_average_constant_field_is_invariant():
    a = np.full(16, 3.25)
    for r in (1, 5, 100):
        assert np.allclose(local_average(a, r, 1, 16), 3.25)


def test_local_average_large_radius_returns_torus_mean():
    rng = np.random.default_rng(3)
    a = rng.normal(size=64)
    got = local_average(a, 64, 1, 64)
    assert np.allclose(got, a.mean())
    with pytest.raises(UsageError):
        local_average(a, -1, 1, 64)


def test_local_average_2d_matches_loop_oracle():
    rng = np.random.default_rng(4)
    L, r = 6, 1
    a = rng.normal(size=L * L)
    grid = a.reshape(L, L)
    got = local_average(a, r, 2, L).reshape(L, L)
    for x in range(L):
        for y in range(L):
            window = [grid[(x + i) % L, (y + j) % L]
                      for i in range(-r, r + 1) for j in range(-r, r + 1)]
            assert abs(got[x, y] - np.mean(window)) < 1e-12


# ---------------------------------------------------------------------------
# multilevel decomposition


def test_decomposition_reconstructs_field_mean():
    st = DependenceStructure(d=1, L=16)
    noise = draw_noise(1, 16, "gaussian", 42)
    sample = multilevel_decompose(FieldModel(), noise, st)
    assert abs(float(sample.total()[0]) - noise.values.mean()) < 1e-12
    assert set(sample.indices()) == set(build_index_set(st))


def test_decomposition_of_constant_field_is_level_zero_only():
    st = DependenceStructure(d=1, L=16)
    const = NoiseLattice(d=1, L=16, dist="gaussian", master_seed=0,
                         realization=0, values=np.full(16, 2.5))
    sample = multilevel_decompose(FieldModel(), const, st)
    assert abs(float(sample.total()[0]) - 2.5) < 1e-12
    for idx, val in sample.values.items():
        if idx.m > 0:
            assert abs(float(val[0])) < 1e-12


def test_decomposition_rejects_mismatched_lattice():
    st = DependenceStructure(d=1, L=16)
    with pytest.raises(UsageError):
        multilevel_decompose(FieldModel(), draw_noise(1, 8, "gaussian", 0), st)


# ---------------------------------------------------------------------------
# synthetic families


def test_synthetic_level_zero_value_is_local():
    # flipping the noise outside the level-0 support box leaves the value at
    # that index bit-identical
    st = DependenceStructure(d=1, L=64, K=2.0)
    spec = SyntheticSpec(nonlinearity="cube", dist="rademacher")
    base = draw_noise(1, 64, "rademacher", 5)
    hw = int(st.halfwidth(0))
    y = 30
    flipped = base.values.copy()
    far = np.array([abs((x - y + 32) % 64 - 32) > hw for x in range(64)])
    flipped[far] = -flipped[far]
    other = NoiseLattice(d=1, L=64, dist="rademacher", master_seed=5,
                         realization=0, values=flipped)
    a = synthetic_multilevel(spec, st, base).values[LevelIndex(0, (y,))]
    b = synthetic_multilevel(spec, st, other).values[LevelIndex(0, (y,))]
    assert np.array_equal(a, b)


def test_synthetic_spec_validation():
    with pytest.raises(UsageError):
        SyntheticSpec(nonlinearity="exp")
    with pytest.raises(UsageError):
        SyntheticSpec(n_components=4)
    with pytest.raises(UsageError):
        SyntheticSpec(dist="cauchy")


def test_brute_force_law_two_cells():
    # L = 2, weight on level 0 only: both anchors see the full torus, so the
    # total is (e_0 + e_1)/sqrt(2) with atoms -sqrt(2), 0, sqrt(2)
    spec = SyntheticSpec(nonlinearity="identity", dist="rademacher",
                         level_weights=(1.0,))
    st = DependenceStructure(d=1, L=2, K=2.0, gamma=2.0, B=2.0)
    law = brute_force_law(spec, st)
    assert np.allclose(law.values, [-math.sqrt(2), 0.0, math.sqrt(2)])
    assert np.allclose(law.probs, [0.25, 0.5, 0.25])
    assert abs(float(law.values @ law.probs)) < 1e-15


def test_brute_force_law_is_symmetric_and_centered():
    spec, st = make_preset("cube", 1, 4)
    law = brute_force_law(spec, st)
    assert abs(float(law.values @ law.probs)) < 1e-12
    # odd map of symmetric noise: the law is symmetric under negation
    order = np.argsort(-law.values)
    assert np.allclose(law.values, -law.values[order])
    assert np.allclose(law.probs, law.probs[order])


def test_brute_force_law_guards():
    spec = SyntheticSpec(dist="gaussian")
    st = DependenceStructure(d=1, L=4)
    with pytest.raises(UsageError):
        brute_force_law(spec, st)
    with pytest.raises(UsageError):
        brute_force_law(SyntheticSpec(), DependenceStructure(d=1, L=32))


# ---------------------------------------------------------------------------
# Monte Carlo driver


def test_monte_carlo_is_chunk_size_invariant():
    spec, st = make_preset("cube", 1, 16)
    runs = [monte_carlo(spec, st, 3000, 77, chunk_size=c, return_per_index=True)
            for c in (1, 512, 3000, 4096)]
    for samples, per_index, _ in runs[1:]:
        assert np.array_equal(samples.values, runs[0][0].values)
        assert np.array_equal(per_index, runs[0][1])


_PINNED_STREAM = "0b38289c02278a52ceb1d265ddc97e866e5b9c75c53edacd434cc7ae00956b85"


def _stream_runs():
    """Every preset at d=1 L=16, d=1 L=12 (non-dyadic) and d=2 L=8 with one
    and three components, plus the field model on both dyadic lattices.  At
    K=2 every support box of these lattices covers the torus, so K=1 adds
    lattices whose lower levels have narrower boxes: two levels at L=32,
    three at the non-dyadic L=48, one at d=2 L=8."""
    geometries = ((1, 16, 2.0), (1, 12, 2.0), (2, 8, 2.0),
                  (1, 32, 1.0), (1, 48, 1.0), (2, 8, 1.0))
    for name in PRESET_NAMES:
        for d, L, K in geometries:
            for n_comp in (1, 3):
                yield (*make_preset(name, d, L, K=K, n_components=n_comp), None)
    for d, L in ((1, 16), (2, 8)):
        yield FieldModel("cube"), DependenceStructure(d=d, L=L), "gaussian"


def test_monte_carlo_stream_is_pinned():
    # the sha256 of totals and per-index values, in chunks smaller than n;
    # any change to the sample bits moves it
    digest = hashlib.sha256()
    for gen, st, dist in _stream_runs():
        kw = dict(dist=dist, chunk_size=96)
        totals = monte_carlo(gen, st, 250, 2026, **kw)
        samples, per_index, _ = monte_carlo(gen, st, 250, 2026,
                                            return_per_index=True, **kw)
        for arr in (totals.values, samples.values, per_index):
            digest.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    assert digest.hexdigest() == _PINNED_STREAM


def test_monte_carlo_single_draw_matches_direct_generator():
    spec, st = make_preset("signed-sqrt", 1, 16)
    got = monte_carlo(spec, st, 1, 31).values[0]
    noise = draw_noise(1, 16, spec.dist, 31, realization=0)
    direct = synthetic_multilevel(spec, st, noise).total()
    # summation order differs (per level vs per index): exact up to one ulp
    assert np.allclose(got, direct, rtol=0.0, atol=1e-14)


def test_monte_carlo_totals_are_centered():
    spec, st = make_preset("cube", 1, 16)
    samples = monte_carlo(spec, st, 40000, 123)
    x = samples.scalar()
    assert abs(x.mean()) <= 4.0 * x.std() / math.sqrt(len(x))


def test_cube_preset_totals_are_heavy_tailed():
    spec, st = make_preset("cube", 1, 8)
    x = monte_carlo(spec, st, 100000, 123).scalar()
    z = (x - x.mean()) / x.std()
    excess_kurtosis = float(np.mean(z ** 4) - 3.0)
    assert excess_kurtosis > 3.0 * math.sqrt(24.0 / len(x))


def test_monte_carlo_guards():
    spec, st = make_preset("cube", 1, 16)
    with pytest.raises(UsageError):
        monte_carlo(spec, st, 0, 1)
    with pytest.raises(UsageError):
        monte_carlo(FieldModel(), st, 10, 1)  # missing noise distribution
    big = DependenceStructure(d=1, L=2 ** 14, gamma=1.0)
    with pytest.raises(UsageError):
        monte_carlo(SyntheticSpec(), big, 10 ** 6, 1, return_per_index=True)


def test_per_index_values_sum_to_totals():
    spec, st = make_preset("exp-tail", 1, 16)
    samples, per_index, indices = monte_carlo(spec, st, 500, 9,
                                              return_per_index=True)
    assert per_index.shape == (500, len(build_index_set(st)), 1)
    assert np.allclose(per_index.sum(axis=1), samples.values, atol=1e-12)


def test_per_index_stretched_norms_fit_preset_budget():
    for name in PRESET_NAMES:
        spec, st = make_preset(name, 1, 16)
        _, per_index, indices = monte_carlo(spec, st, 20000, 99,
                                            return_per_index=True)
        worst = max(stretched_norm(per_index[:, a, 0], st.gamma).value
                    for a in range(len(indices)))
        assert worst <= st.B / 16.0, (name, worst)


# ---------------------------------------------------------------------------
# dumps and presets


def test_dump_load_roundtrip(tmp_path):
    spec, st = make_preset("cube", 1, 16)
    samples = monte_carlo(spec, st, 100, 5)
    path = tmp_path / "samples.bin"
    dump_samples(path, samples, st)
    loaded, meta = load_samples(path)
    assert np.array_equal(loaded.values, samples.values)
    assert meta == {"d": 1, "L": 16}


def test_make_preset_rejects_unknown_name():
    with pytest.raises(UsageError):
        make_preset("bogus", 1, 16)


def test_vector_components_are_decorrelated():
    spec, st = make_preset("identity-gauss", 1, 32)
    spec2 = SyntheticSpec(nonlinearity=spec.nonlinearity, dist=spec.dist,
                          n_components=2, level_weights=spec.level_weights)
    x = monte_carlo(spec2, st, 20000, 44).values
    assert x.shape == (20000, 2)
    corr = np.corrcoef(x.T)[0, 1]
    assert abs(corr) < 0.05
