"""Noise draws, pointwise maps, periodic box means, synthetic multilevel
families, exact enumeration of tiny laws, and the reproducible Monte Carlo
driver."""
import csv
import functools
import hashlib
import json
import math
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_h
from scipy.special import log1p, ndtri
from support import (WORKLOADS, LevelIndex, build_index_set, exact_family, index_values,
                     per_level_totals, source_env)

from mlclt import UsageError
from mlclt._util import (_FLOOR_COUNTER, _MC_STREAM_TAG, _SLICED_W1_TAG,
                         _STEIN_PROBE_TAG, counter_rng, philox_key)
from mlclt.concentration import moderate_grouping, moderate_tail_table, stretched_norm
from mlclt.fields import (_DISTS, _MAPS, SyntheticSpec, _SyntheticTotals, _add_rows,
                          _apply_map, _box_sums, _draw, _periodic_prefix, _windows,
                          brute_force_law, make_preset, monte_carlo, PRESET_NAMES)
from mlclt.multilevel import DependenceStructure, periodic_distance

try:
    from numpy._core import _multiarray_umath as umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath as umath


# ---------------------------------------------------------------------------
# noise


def _draw_bits(d, L, master_seed, k0, count):
    """`_draw`'s packed Rademacher noise unpacked: the 0/1 counts of the +1
    cells, shape (L^d, count)."""
    return np.unpackbits(_draw(d, L, "rademacher", master_seed, k0, count), axis=0,
                         count=L ** d, bitorder="little")


def _draw_rows(d, L, dist, master_seed, k0, count):
    """Noise of realizations k0 .. k0+count-1 as float rows, shape (count,
    L^d): `_draw`'s packed Rademacher bits become -1/+1 cells."""
    if dist == "rademacher":
        return _draw_bits(d, L, master_seed, k0, count).T * 2.0 - 1.0
    return _draw(d, L, dist, master_seed, k0, count).T


def _direct_values(spec, st, rows):
    """(n, n_indices, n_components) values of float noise rows, in
    build_index_set order: the float path of `_SyntheticTotals`, taken as
    for Gaussian noise, which maps the box sums themselves rather than
    tables of counts."""
    return index_values(_SyntheticTotals(replace(spec, dist="gaussian"), st, len(rows)),
                        rows.T)


def test_draw_noise_is_deterministic_per_counter():
    a = _draw_rows(1, 32, "gaussian", 7, 3, 1)
    b = _draw_rows(1, 32, "gaussian", 7, 3, 1)
    c = _draw_rows(1, 32, "gaussian", 7, 4, 1)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.shape == (1, 32)


def test_noise_distributions_are_centered_unit_variance():
    for dist in ("rademacher", "uniform", "centered-exponential-tail", "gaussian"):
        vals = _draw_rows(1, 1024, dist, 11, 0, 32).ravel()
        assert abs(vals.mean()) < 0.02
        assert abs(vals.var() - 1.0) < 0.05


def _oracle_row(dist, cells, master_seed, k):
    """Realization k of sample stream v2, decoded value by value from a
    fresh Philox advanced to the realization's first counter block."""
    w = -(-cells // 64) if dist == "rademacher" else cells
    key = np.array([master_seed % 2 ** 64, _MC_STREAM_TAG], dtype=np.uint64)
    raw = np.random.Philox(key=key).advance(k * -(-w // 4)).random_raw(w)
    words = [int(x) for x in raw]
    if dist == "rademacher":
        return np.array([1.0 if words[c // 64] >> (c % 64) & 1 else -1.0
                         for c in range(cells)])
    u = [((x >> 12) + 0.5) * 2.0 ** -52 for x in words]
    assert all(0.0 < v < 1.0 for v in u)
    if dist == "uniform":
        return np.array([(2.0 * v - 1.0) * math.sqrt(3.0) for v in u])
    if dist == "centered-exponential-tail":
        return np.array([math.copysign(-float(log1p(-2.0 * abs(v - 0.5))) / math.sqrt(2.0),
                                       v - 0.5) for v in u])
    return np.array([float(ndtri(v)) for v in u])


@pytest.mark.parametrize("d,L", [(1, 3), (2, 5), (3, 3), (1, 64), (1, 65)])
def test_draw_rows_match_per_realization_generator(d, L):
    # odd cell counts leave part of a realization's last counter block
    # unused; 64 and 65 Rademacher cells fill one word and spill into a second
    k0, count = 5, 4
    for dist in ("rademacher", "uniform", "centered-exponential-tail", "gaussian"):
        rows = _draw_rows(d, L, dist, 2026, k0, count)
        assert rows.shape == (count, L ** d)
        for i in range(count):
            assert np.array_equal(rows[i], _oracle_row(dist, L ** d, 2026, k0 + i))
        # seeds are taken modulo 2^64, so realization k regenerates in isolation
        assert np.array_equal(_draw_rows(d, L, dist, -1, k0, count),
                              _draw_rows(d, L, dist, 2 ** 64 - 1, k0, count))


def test_rademacher_bits_are_balanced():
    # every bit position of a word is a cell: each is +1 about half the time
    n = 4096
    freq = _draw_bits(1, 64, 2026, 0, n).mean(axis=1)
    assert freq.shape == (64,)
    assert np.all(np.abs(freq - 0.5) <= 5.0 * 0.5 / math.sqrt(n))


def test_philox_keys_keep_every_seed_bit():
    assert philox_key(2 ** 64 - 1, 5).tolist() == [2 ** 64 - 1, 5]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not np.array_equal(counter_rng(2 ** 64 - 1, 3).random(8),
                                  counter_rng(0, 3).random(8))
        assert not np.array_equal(_draw_rows(1, 16, "gaussian", 2 ** 64 - 1, 0, 2),
                                  _draw_rows(1, 16, "gaussian", 0, 0, 2))
    assert not np.array_equal(counter_rng(2 ** 63 + 7, 3).random(8),
                              counter_rng(2 ** 63 + 8, 3).random(8))
    assert not np.array_equal(_draw_rows(1, 16, "rademacher", 2 ** 63 + 7, 0, 2),
                              _draw_rows(1, 16, "rademacher", 2 ** 63 + 8, 0, 2))


def test_stream_tags_are_distinct():
    # each consumer keys its Philox with its own tag, so no two share a stream
    tags = (_MC_STREAM_TAG, _FLOOR_COUNTER, _STEIN_PROBE_TAG, _SLICED_W1_TAG)
    assert len(set(tags)) == len(tags)


def test_unknown_noise_distribution_errors():
    with pytest.raises(UsageError):
        _draw(1, 8, "cauchy", 0, 0, 1)


def test_field_model_validation_and_identity_map():
    # the pointwise maps a family applies to its normalized box sums
    with pytest.raises(UsageError):
        SyntheticSpec(nonlinearity="exp")
    with pytest.raises(UsageError):
        _apply_map("exp", np.zeros(1))
    noise = _draw_rows(1, 16, "rademacher", 1, 0, 1)[0]
    assert np.array_equal(_apply_map("identity", noise), noise)
    assert np.array_equal(_apply_map("cube", noise), noise ** 3)


# ---------------------------------------------------------------------------
# local averages


def local_average(a, r, d, L):
    """Periodic box mean of radius r of the float rows a, shape (..., L^d)
    flattened C-order: `_box_sums` at every cell over the box's (2r + 1)^d
    cells, or the torus mean where the box covers the torus, as a
    whole-torus level of `_SyntheticTotals` reads its row totals."""
    if r < 0:
        raise UsageError("radius must be nonnegative")
    a = np.asarray(a, dtype=float)
    w = 2 * r + 1
    if w >= L:
        return np.broadcast_to(a.mean(axis=-1, keepdims=True), a.shape).copy()
    grid = a.reshape(-1, L ** d).T.reshape((L,) * d + (-1,))
    sums = np.concatenate(list(_box_sums(_periodic_prefix(grid, w), d, L, r, 1, L)))
    return (sums / w ** d).reshape(L ** d, -1).T.reshape(a.shape)


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
# synthetic families


def test_synthetic_level_zero_value_is_local():
    # flipping the noise outside the level-0 support box leaves the value at
    # that index bit-identical
    st = DependenceStructure(d=1, L=64, K=2.0)
    spec = SyntheticSpec(nonlinearity="cube", dist="rademacher")
    base = _draw_rows(1, 64, "rademacher", 5, 0, 1)
    hw = int(st.halfwidth(0))
    y = 30
    flipped = base.copy()
    far = np.array([abs((x - y + 32) % 64 - 32) > hw for x in range(64)])
    flipped[:, far] = -flipped[:, far]
    a_idx = build_index_set(st).index(LevelIndex(0, (y,)))
    a = _direct_values(spec, st, base)[0, a_idx]
    b = _direct_values(spec, st, flipped)[0, a_idx]
    assert np.array_equal(a, b)


def test_synthetic_spec_validation():
    with pytest.raises(UsageError):
        SyntheticSpec(nonlinearity="exp")
    with pytest.raises(UsageError):
        SyntheticSpec(n_components=4)
    with pytest.raises(UsageError):
        SyntheticSpec(dist="cauchy")
    # Rademacher sums are exact integers only under a power map
    with pytest.raises(UsageError, match="power map"):
        SyntheticSpec(nonlinearity="signed-sqrt", dist="rademacher")
    SyntheticSpec(nonlinearity="signed-sqrt", dist="uniform")


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


@pytest.mark.parametrize("d,L,K", [pytest.param(1, 4, 2.0, id="4-2.0"),
                                   pytest.param(1, 12, 1.0, id="12-1.0"),
                                   pytest.param(2, 4, 2.0, id="d2-4-2.0")])
def test_brute_force_law_reads_the_count_path(d, L, K):
    # the enumerated bits go through the exact integer sums that monte_carlo
    # samples: the same totals, bit for bit, as the Python-int oracle of every
    # configuration, so the same law; the float path of the same -1/+1
    # cells, rounded as the law rounds, gives it too
    spec, st = make_preset("cube", d, L, K=K)
    law = brute_force_law(spec, st)
    cells = L ** d
    rows = ((np.arange(1 << cells)[:, None] >> np.arange(cells)[None, :]) & 1) * 2 - 1
    float_path = _SyntheticTotals(replace(spec, dist="gaussian"), st, 1 << cells)
    for totals in (exact_family(spec, st, rows).totals[:, 0],
                   float_path(rows.T.astype(float))[:, 0]):
        values, counts = np.unique(np.round(totals, 12), return_counts=True)
        assert np.array_equal(law.values, values)
        assert np.array_equal(law.probs, counts / (1 << cells))


_PINNED_LAWS = "0f93c8e5c668161564b625f07a411e655395de27a778d9c3e16f69cee76f70fe"


def test_brute_force_laws_are_pinned():
    # pinned from the laws of the Python-int oracle's totals over every
    # configuration, and equal to them; the packed enumeration must give the
    # same laws.  9, 12 and 17 cells leave padding bits in the last byte.
    # signed-sqrt is no power map, so Rademacher noise refuses it
    digest = hashlib.sha256()
    for name, d, L, K in (("cube", 1, 4, 2.0), ("cube", 1, 9, 1.0), ("cube", 1, 12, 1.0),
                          ("cube", 1, 17, 1.0), ("cube", 2, 3, 1.0), ("cube", 2, 4, 1.0)):
        spec, st = make_preset(name, d, L, K=K)
        law = brute_force_law(spec, st)
        for arr in (law.values, law.probs):
            digest.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    assert digest.hexdigest() == _PINNED_LAWS
    spec, _ = make_preset("signed-sqrt", 1, 9, K=1.0)
    with pytest.raises(UsageError, match="power map"):
        replace(spec, dist="rademacher")


def test_brute_force_law_guards():
    spec = SyntheticSpec(dist="gaussian")
    st = DependenceStructure(d=1, L=4)
    with pytest.raises(UsageError):
        brute_force_law(spec, st)
    with pytest.raises(UsageError):
        brute_force_law(SyntheticSpec(), DependenceStructure(d=1, L=32))


# ---------------------------------------------------------------------------
# Monte Carlo driver


def _each_index(st):
    """The identity grouping: every index of `st` a group of its own."""
    return np.arange(len(build_index_set(st)))[:, None]


def test_monte_carlo_is_chunk_size_invariant():
    spec, st = make_preset("cube", 1, 16)
    runs = [monte_carlo(spec, st, 3000, 77, chunk_size=c, groups=_each_index(st))
            for c in (1, 512, 3000, 4096)]
    for samples, per_index in runs[1:]:
        assert np.array_equal(samples, runs[0][0])
        assert np.array_equal(per_index, runs[0][1])


_PINNED_STREAM = "38b33a35037c27ae8bcfea29390ef82dbfddee6d6678a4794a6e01ef6fe90c56"
_PINNED_STREAM_D2_FLOAT = ("b51354d9a933042aa0846d8644bc3345"
                           "7ed570829289647a97bc1715043ef12f")


def _stream_runs(d2_float: bool):
    """Every preset at d=1 L=16, d=1 L=12 (non-dyadic) and d=2 L=8 with one
    and three components.  At K=2 every support box of these lattices covers
    the torus, so K=1 adds lattices whose lower levels have narrower boxes:
    two levels at L=32, three at the non-dyadic L=48, one at d=2 L=8.

    The float laws at d=2 (`d2_float`) are pinned apart: their box sums are
    float sums whose bits depend on the summation order, while every other
    run (all of d=1 and the Rademacher boxes, which are exact integers) must
    keep its bits whatever the order."""
    geometries = ((1, 16, 2.0), (1, 12, 2.0), (2, 8, 2.0),
                  (1, 32, 1.0), (1, 48, 1.0), (2, 8, 1.0))
    for name in PRESET_NAMES:
        for d, L, K in geometries:
            if (d == 2 and name != "cube") != d2_float:
                continue
            for n_comp in (1, 3):
                yield make_preset(name, d, L, K=K, n_components=n_comp)


def _stream_digest(runs) -> str:
    """The sha256 of totals and per-index values, in chunks smaller than n;
    the grouped run's totals must be the plain run's."""
    digest = hashlib.sha256()
    for spec, st in runs:
        totals = monte_carlo(spec, st, 250, 2026, chunk_size=96)
        samples, per_index = monte_carlo(spec, st, 250, 2026, chunk_size=96,
                                         groups=_each_index(st))
        assert samples.tobytes() == totals.tobytes()
        for arr in (totals, per_index):
            digest.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return digest.hexdigest()


def test_monte_carlo_stream_is_pinned():
    # any change to the sample bits moves it
    assert _stream_digest(_stream_runs(d2_float=False)) == _PINNED_STREAM


def test_monte_carlo_d2_float_stream_is_pinned():
    # moves with the summation order of float box sums at d >= 2
    assert _stream_digest(_stream_runs(d2_float=True)) == _PINNED_STREAM_D2_FLOAT


# Monte Carlo totals in a fresh interpreter, config by config: the sha256
# digests of the totals and of the sums of two groups, one of singleton runs
# and one of whole levels; numpy's baseline SIMD features and the dispatched
# features it enabled
_SIMD_CHILD = """
import hashlib, json
from dataclasses import replace
import numpy as np
try:
    from numpy._core import _multiarray_umath as umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath as umath
from mlclt.fields import make_preset, monte_carlo
runs = {}
for name, d, L, n in (("cube", 1, 64, 400), ("cube", 2, 16, 100), ("identity-gauss", 1, 64, 400),
                      ("identity", 1, 64, 400), ("identity", 2, 16, 100)):
    spec, st = make_preset(name if name != "identity" else "cube", d, L, K=1.0)
    if name == "identity":
        spec = replace(spec, nonlinearity="identity")
    totals = hashlib.sha256(monte_carlo(spec, st, n, 2026).tobytes())
    n_indices = st.level_start(st.max_level + 1)
    half = n_indices // 2  # every other column; the last half
    groups = np.array([2 * np.arange(half), np.arange(n_indices - half, n_indices)])
    sums = hashlib.sha256(monte_carlo(spec, st, n, 2026, groups=groups)[1].tobytes())
    runs[f"{name} d={d}"] = [totals.hexdigest(), sums.hexdigest()]
enabled = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
print(json.dumps({"runs": runs, "baseline": list(umath.__cpu_baseline__), "dispatch": enabled}))
"""


def _child_totals(cpu_features=None) -> dict:
    """`_SIMD_CHILD`'s report, run in a subprocess whose numpy enables only
    `cpu_features` among its dispatched SIMD features, when given."""
    done = subprocess.run([sys.executable, "-c", _SIMD_CHILD],
                          env=source_env(NPY_ENABLE_CPU_FEATURES=cpu_features),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_totals_keep_their_bits_under_baseline_simd_features():
    # numpy picks its ufunc loops by the CPU's SIMD features, and some loops
    # change their bits with them.  Rademacher totals and group sums are
    # exact integer sums per level times one factor, and float-law totals
    # take scipy's scalar ufuncs and float adds in a fixed order, so under
    # the baseline features alone every digest keeps its bits: Gaussian
    # noise, and Rademacher noise under the identity and the cube at d = 1
    # and 2
    default = _child_totals()
    baseline = _child_totals(" ".join(default["baseline"]))
    assert baseline["dispatch"] == []
    assert set(default["runs"]) == {"cube d=1", "cube d=2", "identity-gauss d=1",
                                    "identity d=1", "identity d=2"}
    for run, digests in default["runs"].items():
        assert baseline["runs"][run] == digests, run


def _cli_csv(tmp_path, args: str, cpu_features=None) -> list:
    """The rows of the CSV of `mlclt <args>`, run in a subprocess as
    `_child_totals` runs, as dicts of the cells' text."""
    out = tmp_path / f"{'default' if cpu_features is None else 'baseline'}.csv"
    code = "import sys\nimport mlclt.cli as cli\nsys.exit(cli.main(sys.argv[1:]))\n"
    done = subprocess.run([sys.executable, "-c", code, *args.split(), "--out", str(out)],
                          env=source_env(NPY_ENABLE_CPU_FEATURES=cpu_features),
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    with open(out, newline="") as fh:
        return list(csv.DictReader(fh))


# numpy's `exp` in `distances._pdf_at_quantile` moves the normalized_w1 and
# mc_floor cells of clt-rate in their last digits with the SIMD features: by
# up to 1.1e-13 relative when measured, held here within 1e-12
_W1_SIMD_RTOL = 1e-12
# numpy's transcendental loops in the Stein path move three cells of
# stein-certify at n_dim=1, eps=0.25, each on one row when measured:
# residual_max, itself a rounding-level 9.2e-14, by 4.2e-17, held here within
# 2^-52 (an ulp of 1), and third_derivative_ratio and third_average_ratio by
# 2 ulps each, held within _RATIO_SIMD_ULPS
_RESIDUAL_SIMD_ATOL = 2.0 ** -52
_RATIO_SIMD_ULPS = 4


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_csvs_under_baseline_simd_features(tmp_path, workload):
    # the benchmark's workloads as CLI runs.  Every cell that the totals
    # feed, estimated_variance and the bound columns of clt-rate and every
    # moderate cell, keeps its bits under the baseline features alone, as
    # does every stein-certify cell but three; the cells that move stay
    # within the bounds above
    args = f"{WORKLOADS[workload]} --seed 2026"
    default = _cli_csv(tmp_path, args)
    baseline = _cli_csv(tmp_path, args, " ".join(umath.__cpu_baseline__))
    assert len(default) == len(baseline) > 0
    for got, expect in zip(baseline, default):
        assert got.keys() == expect.keys()
        for key in expect:
            if got[key] == expect[key]:
                continue
            g, e = float(got[key]), float(expect[key])
            if key in ("normalized_w1", "mc_floor"):
                assert math.isclose(g, e, rel_tol=_W1_SIMD_RTOL, abs_tol=0.0), key
            elif key == "residual_max":
                assert abs(g - e) <= _RESIDUAL_SIMD_ATOL, key
            elif key in ("third_derivative_ratio", "third_average_ratio"):
                assert abs(g - e) <= _RATIO_SIMD_ULPS * math.ulp(e), key
            else:
                pytest.fail(f"{key} moved under the baseline: {got[key]} != {expect[key]}")


_PINNED_WINDOWS = "a8e86a893c27ab9f4e64273fae4366e030c2d5f1b9fb36b7d33c020dee1f0835"


def _window_runs():
    """(generator, structure, n) at K=2 on lattices whose lower levels read
    wrapped windows: cube at dyadic and non-dyadic L, the float laws at
    L=119, and cube totals at L=32768, where 1 + L + w_max passes 2^15."""
    for L in (64, 119, 256, 1000):
        for n_comp in (1, 3):
            yield (*make_preset("cube", 1, L, n_components=n_comp), 250)
    for name in ("identity-gauss", "signed-sqrt"):
        for n_comp in (1, 3):
            yield (*make_preset(name, 1, 119, n_components=n_comp), 250)
    yield (*make_preset("cube", 1, 32768), 3)


def test_monte_carlo_windows_are_pinned():
    digest = hashlib.sha256()
    for gen, st, n in _window_runs():
        arrays = [monte_carlo(gen, st, n, 2026, chunk_size=96)]
        if n > 3:
            samples, per_index = monte_carlo(gen, st, n, 2026, chunk_size=96,
                                             groups=_each_index(st))
            assert samples.tobytes() == arrays[0].tobytes()
            arrays.append(per_index)
        for arr in arrays:
            digest.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    assert digest.hexdigest() == _PINNED_WINDOWS


@pytest.mark.parametrize("K", [1.0, 2.0])
@pytest.mark.parametrize("d,L", [(1, 48), (1, 64), (1, 119), (2, 24), (2, 32)],
                         ids=["48", "64", "119", "d2-24", "d2-32"])
def test_count_path_matches_float_path(d, L, K):
    # monte_carlo sums Rademacher boxes as exact integers v and takes each
    # value as v^3 times one factor per level: bit for bit the Python-int
    # oracle's, and within a few ulps of the float path, which maps the
    # float sums themselves through (v / sqrt(c))^3
    for n_comp in (1, 3):
        spec, st = make_preset("cube", d, L, K=K, n_components=n_comp)
        _, per_index = monte_carlo(spec, st, 6, 404, chunk_size=4,
                                   groups=_each_index(st))
        rows = _draw_rows(d, L, "rademacher", 404, 0, 6)
        assert per_index.tobytes() == exact_family(spec, st, rows).values.tobytes()
        direct = _direct_values(spec, st, rows)
        assert np.allclose(per_index, direct, rtol=1e-15, atol=0.0)


def _check_prefix(x, w_max, peak=1):
    """`_periodic_prefix` of integer x against np.cumsum in int64: an
    integer prefix holds 1 + L rows, whatever extension w_max asks for."""
    got = _periodic_prefix(x, w_max, peak=peak)
    expect = np.cumsum(x, axis=0, dtype=np.int64)
    assert got.shape == (1 + len(x),) + x.shape[1:]
    assert not got[0].any()
    assert np.array_equal(got[1:], expect)
    return got


def test_periodic_prefix_entries_are_exact():
    # d=2, L=256, K=2: the second axis of level 2 sums windows of up to 129
    # counts, so its prefix entries reach 129 * 257 = 33,153, past int16
    _check_prefix(np.full((256, 3), 129, dtype=np.int16), 129, peak=129)
    # window sums of up to 7 counts on a d=2 grid, realizations last
    rng = np.random.default_rng(8)
    _check_prefix(rng.integers(0, 8, size=(37, 5, 4)).astype(np.int16), 21, peak=7)
    # 0/1 counts at row totals 1 + L that the block size mostly does not divide
    for L, w_max in ((1024, 641), (1000, 9), (97, 0), (119, 57), (30, 29)):
        _check_prefix(rng.integers(0, 2, size=(L, 6), dtype=np.uint8), w_max)
    # one to three rows
    for L in (1, 2, 3):
        _check_prefix(rng.integers(0, 2, size=(L, 4), dtype=np.uint8), L - 1)
    # 0/1 counts keep int16 while 1 + L < 2^15, at the last entries
    assert _check_prefix(np.ones((32766, 1), dtype=np.uint8), 766).dtype == np.int16
    assert _check_prefix(np.ones((32767, 1), dtype=np.uint8), 0).dtype == np.int32
    # float prefixes add row after row: the bits of a sequential cumsum
    x = rng.normal(size=(300, 5))
    expect = np.cumsum(np.concatenate([x, x[:120]]), axis=0)
    assert np.array_equal(_periodic_prefix(x, 120)[1:], expect)


def test_count_path_matches_float_path_past_int16_prefix_entries():
    # d=2, L=256, K=2: level 2 is 129 cells wide, so the second axis sums
    # window sums in [-129, 129] and its prefix entries reach 129 * 385 >
    # 2^15.  Bit for bit the Python-int oracle, within a few ulps the float
    # path
    spec, st = make_preset("cube", 2, 256)
    assert 2 * st.box_radius(2) + 1 == 129
    _, per_index = monte_carlo(spec, st, 3, 404, groups=_each_index(st))
    rows = _draw_rows(2, 256, "rademacher", 404, 0, 3)
    assert per_index.tobytes() == exact_family(spec, st, rows).values.tobytes()
    assert np.allclose(per_index, _direct_values(spec, st, rows), rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("n_comp,d,L", [pytest.param(1, 1, 119, id="1"),
                                        pytest.param(3, 1, 119, id="3"),
                                        pytest.param(1, 2, 64, id="1-d2-64"),
                                        pytest.param(3, 2, 64, id="3-d2-64")])
@pytest.mark.parametrize("name", ["cube", "signed-sqrt", "identity-gauss", "exp-tail"])
def test_monte_carlo_is_chunk_size_invariant_with_windows(name, n_comp, d, L):
    # chunks of one realization included: numpy sums (n_anchors, 1) pairwise
    n = 40
    spec, st = make_preset(name, d, L, n_components=n_comp)
    assert 2 * st.box_radius(1) + 1 < st.L  # levels 0 and 1 read windows
    runs = [(monte_carlo(spec, st, n, 77, chunk_size=c),
             *monte_carlo(spec, st, n, 77, chunk_size=c, groups=_each_index(st)))
            for c in (1, 7, n, n + 1)]
    for totals, samples, per_index in runs:
        assert np.array_equal(totals, runs[0][0])
        assert np.array_equal(samples, runs[0][1])
        assert np.array_equal(per_index, runs[0][2])



@pytest.mark.parametrize("K", [1.0, 2.0])
@pytest.mark.parametrize("d,L", [pytest.param(1, L, id=str(L)) for L in (3, 5, 16, 64, 65, 119, 512)]
                         + [pytest.param(d, L, id=f"d{d}-{L}")
                            for d, L in ((2, 5), (2, 12), (2, 24), (2, 32),
                                         (3, 6), (3, 8), (3, 12))])
def test_blocked_window_totals_match_per_level_oracle(d, L, K):
    # window levels are mapped and summed in blocks of 2^17 doubles: 32
    # anchors at a 4096-realization chunk, 204 at 640; 65, 119 and 512
    # anchors on a d = 1 level 0 leave a partial block, and a run's second
    # strided half starts one; at d >= 2 a block is whole first-axis anchor
    # rows, 6 at d = 2 L = 32 and one at d = 3 L = 12 in a chunk of 640, so
    # the blocks cut a level's C-order anchors, and non-dyadic whole-torus
    # levels have odd anchor counts.
    # Under the float laws the oracle adds each level's whole values array
    # row by row; Rademacher totals are exact integer sums per level, which
    # the Python-int oracle takes on every realization, 64 at a time.
    big = 4096 if d == 1 else 640
    for i, dist in enumerate(_DISTS):
        n_comp = 1 + (i + L) % 3
        nonlinearity = ("identity", "cube")[L % 2] if i == 0 else _MAPS[(i + L) % 3]
        spec = SyntheticSpec(nonlinearity=nonlinearity, dist=dist, n_components=n_comp,
                             level_weights=None if i % 2 else (1.0, 0.0, 2.0, 0.5))
        st = DependenceStructure(d=d, L=L, K=K)
        levels = _SyntheticTotals(spec, st, 1)
        if dist == "rademacher":
            oracle = np.concatenate([
                exact_family(spec, st, _draw_rows(d, L, dist, 404, k0, 64)).totals
                for k0 in range(0, big, 64)])
        for chunk, n in ((1, 9), (2, 9), (7, 9), (big, big)):
            got = monte_carlo(spec, st, n, 404, chunk_size=chunk)
            if dist == "rademacher":
                assert got.tobytes() == oracle[:n].tobytes(), chunk
                continue
            expect = np.concatenate([
                per_level_totals(levels, _draw(d, L, dist, 404, k0, min(chunk, n - k0)))
                for k0 in range(0, n, chunk)])
            assert np.array_equal(got, expect), (dist, chunk)


def test_window_totals_allocate_no_per_level_arrays():
    # window levels reuse one prefix and two block buffers across chunks,
    # and their box sums come in blocks of whole first-axis anchor rows at
    # every d.  Per-level window sums and values took a 44.6 MiB peak at
    # d = 1; each level's whole box sums took 48.8 MiB at d = 2 and 65.6 MiB
    # at d = 3, where the blocks take 27.3 and 23.9 MiB.
    for d, L, n, mib in ((1, 512, 20000, 20), (2, 128, 1000, 36), (3, 32, 200, 36)):
        spec, st = make_preset("cube", d, L)
        tracemalloc.start()
        try:
            monte_carlo(spec, st, n, 7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < mib * 2 ** 20, (d, peak / 2 ** 20)


def test_plain_chunks_hold_at_most_2_19_cells():
    # a plain chunk's packed noise and unextended int16 prefix take about two
    # bytes a cell: chunks of at most 2^19 cells take 3.5-5.5 MiB.  Chunks of
    # 2^20 cells, with a byte of noise a cell and an extended prefix, took
    # 6.3-7.9 MiB (5.0 at L = 128, whose chunk held 2^19 cells), and chunks
    # of 2^22 cells took 12.4-25.6 MiB
    for d, L, n in ((1, 128, 20000), (1, 256, 20000), (1, 512, 20000), (1, 1024, 4096),
                    (1, 4096, 1024), (2, 64, 1024), (3, 16, 1024)):
        spec, st = make_preset("cube", d, L)
        tracemalloc.start()
        try:
            monte_carlo(spec, st, n, 7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2 ** 20, (d, L, peak / 2 ** 20)


@pytest.mark.parametrize("d,L,n", [pytest.param(1, 512, 2049, id="512"),
                                   pytest.param(1, 1024, 1025, id="1024"),
                                   pytest.param(2, 64, 257, id="d2-64")])
def test_default_chunks_keep_the_bits_of_single_realizations(d, L, n):
    # default chunks of 2048, 1024 and 256 realizations, once 4096, 4096
    # and 1024: one whole chunk and one of a single realization
    spec, st = make_preset("cube", d, L)
    got = monte_carlo(spec, st, n, 2026)
    assert got.tobytes() == monte_carlo(spec, st, n, 2026, chunk_size=1).tobytes()


@pytest.mark.parametrize("d,L,K", [pytest.param(d, L, K, id=f"d{d}-{L}-{K}")
                                   for d, L, K in ((1, 64, 2.0), (2, 16, 1.0), (2, 16, 2.0),
                                                   (2, 64, 2.0), (2, 256, 2.0))])
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_first_component_does_not_depend_on_component_count(name, d, L, K):
    # each component's totals are reduced on their own, so component 0 of a
    # three-component run keeps the bits of the scalar run
    one = make_preset(name, d, L, K=K)
    three = make_preset(name, d, L, K=K, n_components=3)
    groups = np.arange(6)[:, None]
    n = 6 if L == 256 else 40
    for kwargs in ({}, {"groups": groups}):
        got = monte_carlo(*three, n, 31, chunk_size=16, **kwargs)
        expect = monte_carlo(*one, n, 31, chunk_size=16, **kwargs)
        if kwargs:
            (got, got_sums), (expect, expect_sums) = got, expect
            assert np.array_equal(got_sums[:, :, 0], expect_sums[:, :, 0])
        assert np.array_equal(got[:, 0], expect[:, 0])


def _some_groups(st, n_groups=5, group_len=9):
    """Groups of distinct columns drawn at random, each sorted ascending, as
    `monte_carlo` takes them; groups may overlap."""
    rng = np.random.default_rng(3)
    n_indices = len(build_index_set(st))
    return np.array([np.sort(rng.choice(n_indices, group_len, replace=False))
                     for _ in range(n_groups)])


_GROUPED = [("exp-tail", 1, 64, 1.0, 3), ("cube", 1, 119, 2.0, 1),
            ("identity-gauss", 2, 16, 1.0, 1), ("cube", 2, 16, 1.0, 3),
            ("cube", 3, 8, 1.0, 2), ("identity-gauss", 1, 64, 1.0, 3)]


@pytest.mark.parametrize("name,d,L,K,n_comp", _GROUPED)
def test_group_sums_are_chunk_size_invariant(name, d, L, K, n_comp):
    spec, st = make_preset(name, d, L, K=K, n_components=n_comp)
    groups = _some_groups(st)
    runs = [monte_carlo(spec, st, 40, 77, chunk_size=c, groups=groups)
            for c in (1, 7, 4096)]
    for samples, sums in runs:
        assert sums.shape == (40, len(groups), n_comp)
        assert np.array_equal(samples, runs[0][0])
        assert np.array_equal(sums, runs[0][1])


@pytest.mark.parametrize("name,d,L,K,n_comp", _GROUPED)
def test_group_sums_match_summed_per_index_values(name, d, L, K, n_comp):
    spec, st = make_preset(name, d, L, K=K, n_components=n_comp)
    groups = _some_groups(st)
    samples, sums = monte_carlo(spec, st, 60, 5, chunk_size=16, groups=groups)
    every, per_index = monte_carlo(spec, st, 60, 5, groups=_each_index(st))
    assert np.array_equal(samples, every)
    assert np.allclose(sums, per_index[:, groups].sum(axis=2), rtol=0.0, atol=1e-12)


def _grouped_bytes(spec, st, groups, chunk_size):
    """The bytes of a grouped run's totals and group sums, signed zeros and
    all, over 23 realizations."""
    samples, sums = monte_carlo(spec, st, 23, 61, chunk_size=chunk_size, groups=groups)
    return samples.tobytes(), sums.tobytes()


@pytest.mark.parametrize("n_comp", [1, 2, 3])
@pytest.mark.parametrize("d,L", [(1, 64), (2, 16), (3, 8)], ids=["d1", "d2", "d3"])
@pytest.mark.parametrize("name", ["cube", "signed-sqrt", "identity-gauss", "exp-tail"])
def test_grouped_slices_keep_the_bits_of_whole_chunks(monkeypatch, name, d, L, n_comp):
    # a grouped run adds each chunk's values onto the group sums as its blocks
    # of mapped box sums go by; a block is whole first-axis anchor rows, about
    # _WINDOW_BLOCK cells.  Chunks of one, three and eight realizations, the
    # last one short, in whole-level blocks and in blocks of seven and of five
    # anchors at d = 1 and of one row at d = 2 and 3, which cut the levels and
    # leave a short last block, must give the bits of one whole chunk.  Under
    # the float laws the group sums must be each group's per-index columns
    # added one after the other; under Rademacher noise (cube) each group's
    # exact sums per level, times the level's factor, of the Python-int oracle
    spec, st = make_preset(name, d, L, K=1.0, n_components=n_comp)
    n_indices = len(build_index_set(st))
    _, per_index = monte_carlo(spec, st, 23, 61, groups=_each_index(st))
    rows = _draw_rows(d, L, spec.dist, 61, 0, 23)
    for groups in (_some_groups(st, group_len=1), _some_groups(st, group_len=9),
                   np.arange(n_indices)[None, :]):
        whole = _grouped_bytes(spec, st, groups, 23)
        for chunk, block in ((1, 1 << 17), (3, 21), (8, 40)):
            monkeypatch.setattr("mlclt.fields._WINDOW_BLOCK", block)
            assert _grouped_bytes(spec, st, groups, chunk) == whole, (chunk, block)
        if spec.dist == "rademacher":
            expect = exact_family(spec, st, rows, groups).sums
        else:
            expect = functools.reduce(np.add, [per_index[:, col] for col in groups.T])
        assert whole[1] == expect.tobytes(), groups.shape


def _run_table_groups(st):
    """Six groups of 16 ascending columns that cut `_run_tables` every way: a
    run on level 0 and one that overlaps it, a run over the end of level 0
    that goes on at anchor 0 of level 1, the last 16 columns (whole levels,
    whole-torus ones among them), singletons over every level, and 16
    anchors of the first whole-torus level of 16 or more."""
    levels = _SyntheticTotals(SyntheticSpec(), st, 1).levels
    torus = next(lv for lv in levels if lv.radius is None and lv.n_anchors >= 16)
    n_indices, g = levels[-1].start + levels[-1].n_anchors, 16
    return np.array([np.arange(3, 3 + g), np.arange(10, 10 + g),
                     np.arange(levels[1].start - g // 2, levels[1].start + g // 2),
                     np.arange(n_indices - g, n_indices),
                     np.linspace(0, n_indices - 1, g).astype(int),
                     torus.start + np.arange(g)])


@pytest.mark.parametrize("n_comp", [1, 2, 3])
@pytest.mark.parametrize("weights,dist", [(None, "gaussian"), ((1.0, 0.0), "rademacher")],
                         ids=["weighted-float", "zero-weights-table"])
@pytest.mark.parametrize("d,L,K", [(1, 64, 2.0), (2, 16, 1.0)], ids=["d1", "d2"])
def test_run_table_group_sums_keep_the_bits_of_the_per_index_oracle(monkeypatch, d, L, K,
                                                                     weights, dist, n_comp):
    # under float noise each group sum adds its runs' values onto the sum
    # row by row, so it must have the bits of its per-index columns added
    # one after the other, whatever cuts the runs: blocks of three or five
    # anchors at d = 1 and of one row at d = 2 split them, a run that goes
    # on at anchor 0 of the next level writes its sum into the row before
    # the block's values, and a whole-torus level's runs add its one value
    # again and again.  Under Rademacher noise each run adds its exact part
    # to its group's exact sum over the level, whatever cuts it, and the
    # Python-int oracle gives the bits.  On levels of weight zero the values
    # are signed zeros, and a group of them alone must keep -0.0 where every
    # value is -0.0
    spec = SyntheticSpec(nonlinearity="cube", dist=dist, n_components=n_comp,
                         level_weights=weights)
    st = DependenceStructure(d=d, L=L, K=K)
    groups = _run_table_groups(st)
    if dist == "rademacher":
        expect = exact_family(spec, st, _draw_rows(d, L, dist, 61, 0, 23), groups).sums
    else:
        _, per_index = monte_carlo(spec, st, 23, 61, groups=_each_index(st))
        expect = functools.reduce(np.add, [per_index[:, col] for col in groups.T])
    if weights is not None:
        assert np.signbit(expect[:, -1][expect[:, -1] == 0.0]).any()
    for block in (1 << 17, 21, 40):
        monkeypatch.setattr("mlclt.fields._WINDOW_BLOCK", block)
        for chunk in (1, 7, 4096):
            _, sums = monte_carlo(spec, st, 23, 61, groups=groups, chunk_size=chunk)
            assert sums.tobytes() == expect.tobytes(), (block, chunk)


@pytest.mark.parametrize("d,L,n_comp", [pytest.param(d, L, c, id=f"d{d}-{L}-{c}")
                                        for d, L in ((1, 64), (2, 16), (3, 8), (1, 256))
                                        for c in (1, 2, 3)] + [(2, 256, 1)])
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_grouped_totals_are_plain_totals(name, d, L, n_comp):
    # a grouped run is the plain totals pass plus the groups' runs of
    # values, so its totals keep a plain run's bits whatever the groups and
    # the chunk size.  At K=1, moderate_grouping builds two groups of 64
    # level-0 indices at d=1 L=256 and four of 4096 at d=2 L=256, which take
    # that grouping alone, and none on the smaller lattices.  Realization k
    # does not depend on n, so chunks of one take fewer realizations.
    spec, st = make_preset(name, d, L, K=1.0, n_components=n_comp)
    n_max = 23 if L ** d > 4096 else 100
    plain = monte_carlo(spec, st, n_max, 61)
    grouping = moderate_grouping(st, L // 2)
    assert grouping.degenerate == (L < 256)
    groupings = ([_each_index(st), _some_groups(st),
                  np.arange(len(build_index_set(st)))[None, :]]
                 if grouping.degenerate else [grouping.groups])
    for groups in groupings:
        for chunk in (1, 7, 96, 4096):
            n = 23 if chunk == 1 else n_max
            samples, _ = monte_carlo(spec, st, n, 61, groups=groups, chunk_size=chunk)
            assert samples.tobytes() == plain[:n].tobytes(), (groups.shape, chunk)


def test_grouped_pass_holds_slices_not_chunks_of_values():
    # a grouped chunk adds its group sums straight into the output and holds
    # no buffer that grows with the groups: 3.5 MiB peaks for moderate's two
    # groups of 256 columns and for the all-index group, in chunks of 512
    # realizations.  A buffer of picked values, one per column and
    # realization, took 3.9 and 7.0 MiB in chunks of 256, and whole chunks of
    # float values took a 20.7 MiB peak for moderate's groups.
    spec, st = make_preset("cube", 1, 1024)
    for groups in (moderate_grouping(st, 512).groups, _each_index(st).T):
        tracemalloc.start()
        try:
            monte_carlo(spec, st, 2000, 7, groups=groups)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2 ** 20, (groups.shape, peak / 2 ** 20)


@pytest.mark.parametrize("L,exact", [(65536, np.float64), (131072, np.int64)],
                         ids=["float64", "int64"])
def test_exact_sums_match_python_int_oracle(L, exact):
    # the widest window level picks the type of its exact sums from its
    # worst case n_anchors c^3: 2^52.0 at d=1 L=65536 keeps float64, 2^55.3
    # at L=131072 takes int64.  Plain totals, per-index values and group sums,
    # one group a whole window level, against the Python-int oracle
    spec, st = make_preset("cube", 1, L, n_components=2)
    windows = [lv for lv in _SyntheticTotals(spec, st, 1).levels if lv.radius is not None]
    worst = max(windows, key=lambda lv: lv.n_anchors * lv.count ** 3)
    assert 2 ** 52 <= worst.n_anchors * worst.count ** 3 < 2 ** 56
    assert worst.exact is exact and {lv.exact for lv in windows} <= {np.float64, exact}
    level = np.arange(worst.start, worst.start + worst.n_anchors)[None, :]
    groups = [np.sort(np.random.default_rng(L).choice(worst.start + worst.n_anchors, 9,
                                                      replace=False))]
    oracle = exact_family(spec, st, _draw_rows(1, L, "rademacher", 2026, 0, 2),
                          [level[0], groups[0]])
    totals = monte_carlo(spec, st, 2, 2026)
    assert totals.tobytes() == oracle.totals.tobytes()
    samples, per_index = monte_carlo(spec, st, 2, 2026, groups=_each_index(st))
    assert samples.tobytes() == totals.tobytes()
    assert per_index.tobytes() == oracle.values.tobytes()
    for g, group in enumerate((level, np.array(groups))):
        _, sums = monte_carlo(spec, st, 2, 2026, groups=group, chunk_size=1)
        assert sums[:, 0].tobytes() == oracle.sums[:, g].tobytes(), g


@pytest.mark.parametrize("d,L,refused", [(1, 2 ** 19, False), (1, 2 ** 20, True),
                                         (2, 512, False), (2, 1024, True),
                                         (3, 32, False), (3, 64, True)])
def test_exact_sums_guard_refuses_at_construction(monkeypatch, d, L, refused):
    # a level whose exact sums of v^3 could reach 2^63 is refused before any
    # noise is drawn; the largest lattices below it are accepted
    def no_draw(*args):
        raise AssertionError("noise drawn")

    monkeypatch.setattr("mlclt.fields._draw", no_draw)
    spec, st = make_preset("cube", d, L)
    if refused:
        with pytest.raises(UsageError, match=r"level \d+ of d=.*>= 2\^63"):
            _SyntheticTotals(spec, st, 1)
        with pytest.raises(UsageError, match=r"level \d+ of d="):
            monte_carlo(spec, st, 1, 2026)
    else:
        levels = _SyntheticTotals(spec, st, 1).levels
        assert max(lv.count ** 3 * (1 if lv.radius is None else lv.n_anchors)
                   for lv in levels) < 2 ** 63


@st_h.composite
def _exact_runs(draw):
    """A Rademacher family on a small lattice, n realizations, a chunk size,
    a window block size and a few groups of ascending columns."""
    d = draw(st_h.sampled_from([1, 2]))
    L = draw(st_h.integers(3, 80) if d == 1 else st_h.integers(3, 16))
    weights = draw(st_h.none() | st_h.lists(st_h.sampled_from([0.0, 0.5, 1.0, 2.0]),
                                            min_size=1, max_size=5).map(tuple))
    spec = SyntheticSpec(nonlinearity=draw(st_h.sampled_from(["identity", "cube"])),
                         n_components=draw(st_h.integers(1, 3)), level_weights=weights)
    structure = DependenceStructure(d=d, L=L, K=draw(st_h.sampled_from([1.0, 2.0])))
    n_indices = structure.level_start(structure.max_level + 1)
    group_len = draw(st_h.integers(1, min(12, n_indices)))
    groups = draw(st_h.lists(st_h.lists(st_h.integers(0, n_indices - 1), min_size=group_len,
                                        max_size=group_len, unique=True).map(sorted),
                             min_size=1, max_size=4))
    n = draw(st_h.integers(1, 12))
    return (spec, structure, n, draw(st_h.integers(1, n + 1)),
            draw(st_h.sampled_from([1, 7, 40, 1 << 17])), np.array(groups))


@settings(max_examples=60, deadline=None)
@given(_exact_runs())
def test_exact_totals_agree_across_chunks_and_groups(run):
    # Rademacher totals and group sums are exact integer sums per level times
    # one factor, so plain totals, grouped totals and group sums keep their
    # bits whatever the chunk size and window block
    spec, structure, n, chunk, block, groups = run
    plain = monte_carlo(spec, structure, n, 5).tobytes()
    _, sums = monte_carlo(spec, structure, n, 5, groups=groups)
    with mock.patch("mlclt.fields._WINDOW_BLOCK", block):
        assert monte_carlo(spec, structure, n, 5, chunk_size=chunk).tobytes() == plain
        samples, chunked = monte_carlo(spec, structure, n, 5, groups=groups, chunk_size=chunk)
    assert samples.tobytes() == plain
    assert chunked.tobytes() == sums.tobytes()


def test_add_rows_adds_rows_in_order_for_any_layout():
    # numpy sums the first axis of an F-order array pairwise, column by
    # column; _add_rows must add the rows one after the other whatever the
    # layout, and keep the sign of a column of zeros
    rng = np.random.default_rng(12)
    for k, n in ((1000, 5), (1000, 1), (3, 4), (1, 6)):
        rows = rng.normal(size=(k, n)) * np.exp(rng.normal(scale=8.0, size=(k, n)))
        if n > 1:
            rows[:, 0] = -0.0
        expect = functools.reduce(np.add, list(rows))
        for layout in (rows, np.asfortranarray(rows),
                       np.asfortranarray(np.concatenate([rows, rows]))[:k]):
            out = np.empty(n)
            _add_rows(layout, out)
            assert out.tobytes() == expect.tobytes(), (k, n, layout.strides)


def _oracle_boxes(st):
    """One 0/1 indicator over the C-order cells per index, in build_index_set
    order: the box of (m, y) holds the cells within periodic distance
    box_radius(m) of y on every axis."""
    cells = np.indices((st.L,) * st.d).reshape(st.d, -1).T
    return [np.all(periodic_distance(cells, np.array(idx.y), st.L)
                   <= st.box_radius(idx.m), axis=1).astype(float)
            for idx in build_index_set(st)]


def _box_oracle(spec, st, boxes, noise):
    """(n, n_indices, n_components) values of the (n, cells) noise rows, box
    by box: w_m L^{-d} g(S / sqrt(c)), S the box sum of the component's
    noise over the box's c cells.  A Rademacher S is an exact integer, so
    its value is taken as a Python int S^p times w_m L^{-d} / (c^{(p-1)/2}
    sqrt(c)) for g(x) = x^p."""
    x1 = np.arange(st.L ** st.d) // st.L ** (st.d - 1)
    signs = np.array([np.ones(len(x1))] + [np.where(x1 >> (c - 1) & 1, -1.0, 1.0)
                                           for c in range(1, spec.n_components)])
    signed = noise[:, None, :] * signs
    p = {"identity": 1, "cube": 3}.get(spec.nonlinearity)
    out = []
    for idx, box in zip(build_index_set(st), boxes):
        s, c, scale = signed @ box, int(box.sum()), spec.weight(idx.m) * float(st.L) ** (-st.d)
        if spec.dist == "rademacher":
            powers = np.array([float(int(t) ** p) for t in s.ravel()]).reshape(s.shape)
            out.append(powers * (scale / (c ** ((p - 1) // 2) * math.sqrt(c))))
        else:
            out.append(_apply_map(spec.nonlinearity, s / np.sqrt(c)) * scale)
    return np.stack(out, axis=1)


@pytest.mark.parametrize("d,L,K", [(d, L, K) for d in (2, 3) for L in (8, 12, 16)
                                   for K in (1.0, 2.0)] + [(2, 32, 2.0)])
def test_box_sums_match_cell_loop_oracle(d, L, K):
    # at K=1 level 0 reads windows that wrap around the torus; at K=2 every
    # box of L <= 16 covers the torus, and L=32 adds K=2 windows
    n = 3
    boxes = _oracle_boxes(DependenceStructure(d=d, L=L, K=K))
    for name in PRESET_NAMES:
        spec, st = make_preset(name, d, L, K=K, n_components=3)
        assert (2 * st.box_radius(0) + 1 < L) == (K == 1.0 or L == 32)
        _, got = monte_carlo(spec, st, n, 2026, groups=_each_index(st))
        expect = _box_oracle(spec, st, boxes, _draw_rows(d, L, spec.dist, 2026, 0, n))
        if spec.dist == "rademacher":  # exact integer box sums: bit for bit
            assert got.tobytes() == expect.tobytes()
        else:
            assert np.allclose(got, expect, rtol=1e-12, atol=1e-12 * np.abs(expect).max())


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("L,r,step", [(12, 2, 2), (7, 1, 4)])
def test_box_sums_are_written_in_anchor_order(d, L, r, step):
    # the totals read each block of first-axis anchor rows as C-order rows
    # of anchors, with no copy; anchor a of an axis starts its window at
    # a step - r.  Blocks of one and two rows cut the two strided runs of
    # the first axis, and a buffer holds one block's first-axis windows
    x = np.random.default_rng(d * L).integers(0, 2, size=(L,) * d + (5,), dtype=np.uint8)
    prefix = _periodic_prefix(x, 2 * r + 1)
    expect = x.astype(np.int64)
    for axis in range(d):
        expect = sum(np.roll(expect, r - o, axis=axis) for o in range(2 * r + 1))
    for block in (1, 2, L):
        for buf in (None, np.empty(block * L ** (d - 1) * 5, dtype=prefix.dtype)):
            got = []
            for sums in _box_sums(prefix, d, L, r, step, block, buf):
                assert sums.flags.c_contiguous and len(sums) <= block
                got.append(sums.copy())
            assert np.array_equal(np.concatenate(got), expect[(slice(None, None, step),) * d])


@pytest.mark.parametrize("L", [10, 77, 119])
def test_unextended_integer_prefix_matches_cell_loop_oracle(L):
    # an integer prefix holds 1 + L rows, so a window that passes the end
    # reads its wrapped part from the start.  Every radius and step, in
    # blocks of 1 to 7 starts and of L, some of which split at the first
    # wrapping start, against sums taken cell by cell
    x = np.random.default_rng(L).integers(0, 2, size=(L, 5), dtype=np.uint8)
    prefix = _periodic_prefix(x, L - 1)
    assert prefix.shape == (1 + L, 5) and prefix.dtype == np.int16
    split = set()
    for r in range(L // 2):  # every width w = 2r + 1 < L
        w = 2 * r + 1
        for step in (1, 2, 4, 8):
            expect = np.array([x[(y + np.arange(-r, r + 1)) % L].sum(axis=0, dtype=np.int64)
                               for y in range(0, L, step)])
            for block in (*range(1, 8), L):
                if any(a + w <= L < a + (k - 1) * step + w
                       for a, k in _windows(L, -r % L, step, block)):
                    split.add(step)
                got = np.concatenate(list(_box_sums(prefix, 1, L, r, step, block)))
                assert np.array_equal(got, expect), (r, step, block)
    assert split >= {1, 2, 4}


@pytest.mark.parametrize("L", [10, 77, 119])
def test_packed_components_match_cell_loop_oracle(L):
    # three components XOR their packed sign patterns onto the packed noise;
    # L cells leave 54, 51 and 9 padding bits in a realization's last word,
    # which must never reach a count
    spec, st = make_preset("cube", 1, L, K=1.0, n_components=3)
    assert 2 * st.box_radius(0) + 1 < L
    n = 5
    _, got = monte_carlo(spec, st, n, 2026, groups=_each_index(st))
    expect = _box_oracle(spec, st, _oracle_boxes(st), _draw_rows(1, L, spec.dist, 2026, 0, n))
    assert got.tobytes() == expect.tobytes()
    octets = _draw(1, L, "rademacher", 2026, 0, n)
    padding = np.unpackbits(np.full(len(octets), 255, dtype=np.uint8), bitorder="little")
    padding[:L] = 0
    levels = _SyntheticTotals(spec, st, n)
    for fill in (octets & ~np.packbits(padding, bitorder="little")[:, None],
                 octets | np.packbits(padding, bitorder="little")[:, None]):
        assert levels(fill).tobytes() == levels(octets).tobytes()
    for c, prefix in enumerate(levels.prefixes(octets, 0)):
        assert prefix.shape == (1 + L, n)
        assert np.array_equal(prefix[-1], [2 * int((_draw_bits(1, L, 2026, k, 1)[:, 0]
                                                    ^ (np.arange(L) >> c - 1 & 1 if c else 0))
                                                   .sum()) - L for k in range(n)])


def test_monte_carlo_single_draw_matches_direct_generator():
    spec, st = make_preset("signed-sqrt", 1, 16)
    got = monte_carlo(spec, st, 1, 31)[0]
    direct = _direct_values(spec, st, _draw_rows(1, 16, spec.dist, 31, 0, 1))[0].sum(axis=0)
    # summation order differs (per level vs per index): exact up to one ulp
    assert np.allclose(got, direct, rtol=0.0, atol=1e-14)


def test_monte_carlo_totals_are_centered():
    spec, st = make_preset("cube", 1, 16)
    samples = monte_carlo(spec, st, 40000, 123)
    x = samples[:, 0]
    assert abs(x.mean()) <= 4.0 * x.std() / math.sqrt(len(x))


def test_cube_preset_totals_are_heavy_tailed():
    spec, st = make_preset("cube", 1, 8)
    x = monte_carlo(spec, st, 100000, 123)[:, 0]
    z = (x - x.mean()) / x.std()
    excess_kurtosis = float(np.mean(z ** 4) - 3.0)
    assert excess_kurtosis > 3.0 * math.sqrt(24.0 / len(x))


def test_monte_carlo_guards():
    spec, st = make_preset("cube", 1, 16)
    with pytest.raises(UsageError):
        monte_carlo(spec, st, 0, 1)
    with pytest.raises(UsageError, match="SyntheticSpec"):
        monte_carlo("cube", st, 10, 1)
    big = DependenceStructure(d=1, L=2 ** 14, gamma=1.0)
    with pytest.raises(UsageError):
        monte_carlo(SyntheticSpec(), big, 10 ** 6, 1, groups=_each_index(big))
    # at 2^19 cells a grouped chunk is one realization, whatever the groups
    huge = DependenceStructure(d=1, L=2 ** 19, gamma=1.0)
    _, sums = monte_carlo(SyntheticSpec(), huge, 2, 1, groups=np.arange(2 ** 17 + 1)[None, :])
    assert sums.shape == (2, 1, 1)
    n_indices = len(build_index_set(st))
    # out of range, not 2-d int, empty, and columns not strictly ascending:
    # descending, or one column repeated
    for bad in (np.arange(n_indices), [[0, n_indices]], [[-1, 0]], [[0.0, 1.0]],
                np.empty((2, 0), dtype=int), np.empty((0, 3), dtype=int),
                [[0, 2], [3, 1]], [[4, 4]], np.array([[1, 0]], dtype=np.uint8)):
        with pytest.raises(UsageError):
            monte_carlo(spec, st, 10, 1, groups=bad)


def test_moderate_tail_table_holds_no_per_index_array():
    # all n x n_indices per-index values would take 125 MiB here; group sums
    # are reduced chunk by chunk, so the traced peak stays far below that
    spec, st = make_preset("cube", 1, 1024)
    n, n_indices = 8000, len(build_index_set(st))
    tracemalloc.start()
    try:
        table = moderate_tail_table(st, spec, 512, n, 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table["n_groups"] == 2
    assert peak < n * n_indices * 8 / 4, peak / 2 ** 20


def test_per_index_values_sum_to_totals():
    spec, st = make_preset("exp-tail", 1, 16)
    samples, per_index = monte_carlo(spec, st, 500, 9, groups=_each_index(st))
    assert per_index.shape == (500, len(build_index_set(st)), 1)
    assert np.allclose(per_index.sum(axis=1), samples, atol=1e-12)


def test_per_index_stretched_norms_fit_preset_budget():
    for name in PRESET_NAMES:
        spec, st = make_preset(name, 1, 16)
        _, per_index = monte_carlo(spec, st, 20000, 99, groups=_each_index(st))
        worst = max(stretched_norm(per_index[:, a, 0], st.gamma).value
                    for a in range(per_index.shape[1]))
        assert worst <= st.B / 16.0, (name, worst)


# ---------------------------------------------------------------------------
# presets


def test_make_preset_rejects_unknown_name():
    with pytest.raises(UsageError):
        make_preset("bogus", 1, 16)


def test_vector_components_are_decorrelated():
    spec, st = make_preset("identity-gauss", 1, 32)
    spec2 = SyntheticSpec(nonlinearity=spec.nonlinearity, dist=spec.dist,
                          n_components=2, level_weights=spec.level_weights)
    x = monte_carlo(spec2, st, 20000, 44)
    assert x.shape == (20000, 2)
    corr = np.corrcoef(x.T)[0, 1]
    assert abs(corr) < 0.05
