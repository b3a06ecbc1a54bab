"""Noise draws, pointwise maps, periodic box means, synthetic multilevel
families, exact enumeration of tiny laws, and the reproducible Monte Carlo
driver."""
import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import log1p, ndtri
from support import build_index_set

from mlclt import UsageError
from mlclt._util import (_FLOOR_COUNTER, _MC_STREAM_TAG, _SLICED_W1_TAG,
                         _STEIN_PROBE_TAG, _TAILS_TAG, counter_rng, philox_key)
from mlclt.concentration import moderate_tail_table, stretched_norm
from mlclt.fields import (SyntheticSpec, _SyntheticLevels, _apply_map, _box_sums,
                          _draw, _periodic_prefix, _synthetic_index_values,
                          _synthetic_totals, brute_force_law, make_preset, monte_carlo,
                          PRESET_NAMES)
from mlclt.multilevel import DependenceStructure, LevelIndex, periodic_distance


# ---------------------------------------------------------------------------
# noise


def _draw_rows(d, L, dist, master_seed, k0, count):
    """Noise of realizations k0 .. k0+count-1 as float rows, shape (count,
    L^d): `_draw`'s Rademacher 0/1 counts become -1/+1 cells."""
    noise = _draw(d, L, dist, master_seed, k0, count)
    return noise.T * 2.0 - 1.0 if dist == "rademacher" else noise


def _direct_values(spec, st, rows):
    """(n, n_indices, n_components) values of float noise rows, in
    build_index_set order: the float path of `_SyntheticLevels`, which maps
    the box sums themselves rather than tables of counts."""
    out = np.empty((len(rows), len(build_index_set(st)), spec.n_components))
    _synthetic_index_values(_SyntheticLevels(spec, st), rows, out)
    return out


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
    freq = _draw(1, 64, "rademacher", 2026, 0, n).mean(axis=1)
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
    tags = (_MC_STREAM_TAG, _FLOOR_COUNTER, _STEIN_PROBE_TAG, _TAILS_TAG,
            _SLICED_W1_TAG)
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
    whole-torus level of `_SyntheticLevels` reads its row totals."""
    if r < 0:
        raise UsageError("radius must be nonnegative")
    a = np.asarray(a, dtype=float)
    w = 2 * r + 1
    if w >= L:
        return np.broadcast_to(a.mean(axis=-1, keepdims=True), a.shape).copy()
    grid = a.reshape(-1, L ** d).T.reshape((L,) * d + (-1,))
    sums = _box_sums(_periodic_prefix(grid, w), d, L, r, 1)
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
    # the enumerated bits go through the counts that monte_carlo samples; the
    # float path gives the same totals bit for bit, so the same law
    spec, st = make_preset("cube", d, L, K=K)
    law = brute_force_law(spec, st)
    cells = L ** d
    bits = (np.arange(1 << cells)[:, None] >> np.arange(cells)[None, :]) & 1
    totals = _synthetic_totals(_SyntheticLevels(spec, st), bits * 2.0 - 1.0)[:, 0]
    values, counts = np.unique(np.round(totals, 12), return_counts=True)
    assert np.array_equal(law.values, values)
    assert np.array_equal(law.probs, counts / (1 << cells))


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
        assert np.array_equal(samples.values, runs[0][0].values)
        assert np.array_equal(per_index, runs[0][1])


_PINNED_STREAM = "e247a30a9ab14c5b037881312cf42d5d5703108fbcaef172165efb599ea3486c"
_PINNED_STREAM_D2_FLOAT = ("3dd49393d526782e75625e527fba0a4f"
                           "3a879e7f513c678d51c32cf8b9042bfe")


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
    """The sha256 of totals and per-index values, in chunks smaller than n."""
    digest = hashlib.sha256()
    for spec, st in runs:
        totals = monte_carlo(spec, st, 250, 2026, chunk_size=96)
        samples, per_index = monte_carlo(spec, st, 250, 2026, chunk_size=96,
                                         groups=_each_index(st))
        for arr in (totals.values, samples.values, per_index):
            digest.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return digest.hexdigest()


def test_monte_carlo_stream_is_pinned():
    # any change to the sample bits moves it
    assert _stream_digest(_stream_runs(d2_float=False)) == _PINNED_STREAM


def test_monte_carlo_d2_float_stream_is_pinned():
    # moves with the summation order of float box sums at d >= 2
    assert _stream_digest(_stream_runs(d2_float=True)) == _PINNED_STREAM_D2_FLOAT


_PINNED_WINDOWS = "9f2d2a5546a2af0e36e1d028203147747084129458ee563b13a699f67ccea2da"


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
        arrays = [monte_carlo(gen, st, n, 2026, chunk_size=96).values]
        if n > 3:
            samples, per_index = monte_carlo(gen, st, n, 2026, chunk_size=96,
                                             groups=_each_index(st))
            arrays += [samples.values, per_index]
        for arr in arrays:
            digest.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    assert digest.hexdigest() == _PINNED_WINDOWS


@pytest.mark.parametrize("K", [1.0, 2.0])
@pytest.mark.parametrize("d,L", [(1, 48), (1, 64), (1, 119), (2, 24), (2, 32)],
                         ids=["48", "64", "119", "d2-24", "d2-32"])
def test_count_path_matches_float_path(d, L, K):
    # monte_carlo sums Rademacher boxes as integer counts and maps them
    # through tables; the float path maps the float sums themselves
    for n_comp in (1, 3):
        spec, st = make_preset("cube", d, L, K=K, n_components=n_comp)
        _, per_index = monte_carlo(spec, st, 6, 404, chunk_size=4,
                                   groups=_each_index(st))
        for k in range(6):
            direct = _direct_values(spec, st, _draw_rows(d, L, "rademacher", 404, k, 1))
            assert np.array_equal(per_index[k], direct[0])


def _check_prefix(x, w_max, peak=1):
    """`_periodic_prefix` of integer x against np.cumsum in int64."""
    got = _periodic_prefix(x, w_max, peak=peak)
    expect = np.cumsum(np.concatenate([x, x[:w_max]]), axis=0, dtype=np.int64)
    assert got.shape == (1 + len(x) + w_max,) + x.shape[1:]
    assert not got[0].any()
    assert np.array_equal(got[1:], expect)
    return got


def test_periodic_prefix_entries_are_exact():
    # d=2, L=256, K=2: the second axis of level 2 sums windows of up to 129
    # counts, so its prefix entries reach 129 * 385 = 49,665, past int16
    _check_prefix(np.full((256, 3), 129, dtype=np.int16), 129, peak=129)
    # window sums of up to 7 counts on a d=2 grid, realizations last
    rng = np.random.default_rng(8)
    _check_prefix(rng.integers(0, 8, size=(37, 5, 4)).astype(np.int16), 21, peak=7)
    # 0/1 counts at row totals 1 + L + w_max that no block size divides
    for L, w_max in ((1024, 641), (1000, 9), (97, 0), (119, 57), (30, 29)):
        _check_prefix(rng.integers(0, 2, size=(L, 6), dtype=np.uint8), w_max)
    # one to three rows
    for L in (1, 2, 3):
        _check_prefix(rng.integers(0, 2, size=(L, 4), dtype=np.uint8), L - 1)
    # 0/1 counts keep int16 while 1 + L + w_max < 2^15, at the last entries
    ones = np.ones((32000, 1), dtype=np.uint8)
    assert _check_prefix(ones, 766).dtype == np.int16
    assert _check_prefix(ones, 767).dtype == np.int32
    # float prefixes add row after row: the bits of a sequential cumsum
    x = rng.normal(size=(300, 5))
    expect = np.cumsum(np.concatenate([x, x[:120]]), axis=0)
    assert np.array_equal(_periodic_prefix(x, 120)[1:], expect)


def test_count_path_matches_float_path_past_int16_prefix_entries():
    # d=2, L=256, K=2: level 2 is 129 cells wide, so the second axis sums
    # window sums up to 129 and its prefix entries reach 129 * 385 > 2^15
    spec, st = make_preset("cube", 2, 256)
    assert 2 * st.box_radius(2) + 1 == 129
    _, per_index = monte_carlo(spec, st, 3, 404, groups=_each_index(st))
    for k in range(3):
        direct = _direct_values(spec, st, _draw_rows(2, 256, "rademacher", 404, k, 1))
        assert np.array_equal(per_index[k], direct[0])


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
    runs = [(monte_carlo(spec, st, n, 77, chunk_size=c).values,
             *monte_carlo(spec, st, n, 77, chunk_size=c, groups=_each_index(st)))
            for c in (1, 7, n, n + 1)]
    for totals, samples, per_index in runs:
        assert np.array_equal(totals, runs[0][0])
        assert np.array_equal(samples.values, runs[0][1].values)
        assert np.array_equal(per_index, runs[0][2])


def _some_groups(st, n_groups=5, group_len=9):
    """Groups of distinct columns drawn at random; groups may overlap."""
    rng = np.random.default_rng(3)
    n_indices = len(build_index_set(st))
    return np.array([rng.choice(n_indices, group_len, replace=False)
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
        assert np.array_equal(samples.values, runs[0][0].values)
        assert np.array_equal(sums, runs[0][1])


@pytest.mark.parametrize("name,d,L,K,n_comp", _GROUPED)
def test_group_sums_match_summed_per_index_values(name, d, L, K, n_comp):
    spec, st = make_preset(name, d, L, K=K, n_components=n_comp)
    groups = _some_groups(st)
    samples, sums = monte_carlo(spec, st, 60, 5, chunk_size=16, groups=groups)
    every, per_index = monte_carlo(spec, st, 60, 5, groups=_each_index(st))
    assert np.array_equal(samples.values, every.values)
    assert np.allclose(sums, per_index[:, groups].sum(axis=2), rtol=0.0, atol=1e-12)


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
    by box: w_m L^{-d} g(S / sqrt(cells in the box)), S the box sum of the
    component's noise."""
    x1 = np.arange(st.L ** st.d) // st.L ** (st.d - 1)
    signs = np.array([np.ones(len(x1))] + [np.where(x1 >> (c - 1) & 1, -1.0, 1.0)
                                           for c in range(1, spec.n_components)])
    signed = noise[:, None, :] * signs
    out = [_apply_map(spec.nonlinearity, (signed @ box) / np.sqrt(box.sum()))
           * (spec.weight(idx.m) * float(st.L) ** (-st.d))
           for idx, box in zip(build_index_set(st), boxes)]
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
        if spec.dist == "rademacher":  # integer box sums: bit for bit
            assert np.array_equal(got, expect)
        else:
            assert np.allclose(got, expect, rtol=1e-12, atol=1e-12 * np.abs(expect).max())


def test_monte_carlo_single_draw_matches_direct_generator():
    spec, st = make_preset("signed-sqrt", 1, 16)
    got = monte_carlo(spec, st, 1, 31).values[0]
    direct = _direct_values(spec, st, _draw_rows(1, 16, spec.dist, 31, 0, 1))[0].sum(axis=0)
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
    with pytest.raises(UsageError, match="SyntheticSpec"):
        monte_carlo("cube", st, 10, 1)
    big = DependenceStructure(d=1, L=2 ** 14, gamma=1.0)
    with pytest.raises(UsageError):
        monte_carlo(SyntheticSpec(), big, 10 ** 6, 1, groups=_each_index(big))
    n_indices = len(build_index_set(st))
    for bad in (np.arange(n_indices), [[0, n_indices]], [[-1, 0]], [[0.0, 1.0]],
                np.empty((2, 0), dtype=int)):
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
    assert np.allclose(per_index.sum(axis=1), samples.values, atol=1e-12)


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
    x = monte_carlo(spec2, st, 20000, 44).values
    assert x.shape == (20000, 2)
    corr = np.corrcoef(x.T)[0, 1]
    assert abs(corr) < 0.05
