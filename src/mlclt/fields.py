"""Random fields on the torus and multilevel generators.

Two sample sources feed the experiments:

* a field model: iid noise on (Z mod L)^d mapped cell-wise into a field a,
  decomposed into multilevel contributions via local averages at dyadic radii
  and a smooth partition of unity per level;
* a synthetic family: per-index values w_m L^{-d} g(S(y, m)) where S(y, m) is
  the variance-normalized noise sum over the index's support box and g is an
  odd nonlinearity, so every value is exactly centered for the symmetric
  noise distributions used here.

Realization k of a Monte Carlo run draws its noise from a Philox generator
keyed by (master_seed, k) and started at counter 0, so it can be regenerated
in isolation with `counter_rng(master_seed, k)`.  `monte_carlo` builds one
Philox per chunk and re-keys it for each realization, which draws the same
stream; results are bit-reproducible and independent of chunking or thread
count.
"""
from __future__ import annotations

import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.typing import NDArray

from ._util import UsageError, philox_key
from .distances import DiscreteLaw, SampleSet
from .multilevel import (DependenceStructure, LevelIndex, MultilevelSample,
                         build_index_set)

__all__ = [
    "NoiseLattice",
    "FieldModel",
    "SyntheticSpec",
    "draw_noise",
    "sample_field",
    "local_average",
    "multilevel_decompose",
    "synthetic_multilevel",
    "brute_force_law",
    "monte_carlo",
    "dump_samples",
    "load_samples",
    "make_preset",
    "PRESET_NAMES",
]

_DISTS = ("rademacher", "uniform", "centered-exponential-tail", "gaussian")
_MAPS = ("identity", "cube", "signed-sqrt")


def _apply_map(tag: str, x: NDArray[np.float64]) -> NDArray[np.float64]:
    if tag == "identity":
        return x
    if tag == "cube":
        return x ** 3
    if tag == "signed-sqrt":
        return np.sign(x) * np.sqrt(np.abs(x))
    raise UsageError(f"unknown map {tag!r}; choose from {_MAPS}")


def _draw_rows(d: int, L: int, dist: str, master_seed: int, k0: int,
               count: int) -> NDArray[np.float64]:
    """Noise rows for realizations k0 .. k0+count-1, shape (count, L^d).

    Row i is what `counter_rng(master_seed, k0 + i)` draws.  Instead of
    building that generator, one Philox is re-keyed to (master_seed, k)
    from counter 0 with an empty buffer for each realization.  All
    distributions are symmetric with unit variance.
    """
    if dist not in _DISTS:
        raise UsageError(f"unknown noise distribution {dist!r}; choose from {_DISTS}")
    cells = L ** d
    # counters below 2^53 keep their value through philox_key whatever the seed
    key = philox_key(master_seed, k0).tolist()
    bitgen = np.random.Philox(key=key)
    state = bitgen.state  # counter 0, empty buffer; lists re-key faster than arrays
    state["state"] = {"counter": state["state"]["counter"].tolist(), "key": key}
    state["buffer"] = state["buffer"].tolist()

    def rekey(k: int) -> None:
        key[1] = k
        bitgen.state = state

    if dist == "rademacher":
        # Generator.integers(0, 2) takes the top bit of each 32-bit half of a
        # raw word, low half first; an odd cell count leaves one half unused
        raw = np.empty((count, (cells + 1) // 2), dtype=np.uint64)
        for i in range(count):
            rekey(k0 + i)
            raw[i] = bitgen.random_raw(raw.shape[1])
        out = np.empty((count, 2 * raw.shape[1]))
        out[:, 1::2] = raw >> 63
        raw >>= 31
        raw &= 1
        out[:, 0::2] = raw
        out *= 2.0
        out -= 1.0
        return np.ascontiguousarray(out[:, :cells])
    rng = np.random.Generator(bitgen)
    draw = {
        "uniform": partial(rng.uniform, -np.sqrt(3.0), np.sqrt(3.0), cells),
        "centered-exponential-tail": partial(rng.laplace, 0.0, 1.0 / np.sqrt(2.0), cells),
        "gaussian": partial(rng.standard_normal, cells),
    }[dist]
    out = np.empty((count, cells))
    for i in range(count):
        rekey(k0 + i)
        out[i] = draw()
    return out


@dataclass(frozen=True)
class NoiseLattice:
    """One realization of iid noise on the torus, flattened C-order."""

    d: int
    L: int
    dist: str
    master_seed: int
    realization: int
    values: NDArray[np.float64]

    @property
    def cells(self) -> int:
        return self.L ** self.d


def draw_noise(d: int, L: int, dist: str, master_seed: int,
               realization: int = 0) -> NoiseLattice:
    values = _draw_rows(d, L, dist, master_seed, realization, 1)[0]
    values.setflags(write=False)
    return NoiseLattice(d=d, L=L, dist=dist, master_seed=master_seed,
                        realization=realization, values=values)


@dataclass(frozen=True)
class FieldModel:
    """Cell-local field: a(x) = map(noise(x)).

    The kernel radius must stay at most 1/2 lattice spacing so that field
    values over sets at periodic distance > 1 are genuinely independent; on
    the integer lattice that pins the neighborhood to the cell itself.
    """

    pointwise_map: str = "identity"
    kernel_radius: float = 0.0

    def __post_init__(self):
        if self.pointwise_map not in _MAPS:
            raise UsageError(f"unknown map {self.pointwise_map!r}")
        if not 0.0 <= self.kernel_radius <= 0.5:
            raise UsageError("kernel radius must lie in [0, 1/2] lattice units")


def sample_field(model: FieldModel, noise: NoiseLattice) -> NDArray[np.float64]:
    """Field values on the torus, same flattened layout as the noise."""
    return _apply_map(model.pointwise_map, noise.values)


# ---------------------------------------------------------------------------
# local averages and the smooth partition of unity


def local_average(a: NDArray[np.float64], r: int, d: int, L: int) -> NDArray[np.float64]:
    """Periodic box mean of radius r (window width 2r+1 per axis, clipped to
    the torus).  `a` has shape (..., L^d) flattened C-order; leading axes are
    batch.  Radius covering the torus returns the constant mean field."""
    if r < 0:
        raise UsageError("radius must be nonnegative")
    a = np.asarray(a, dtype=float)
    batch = a.shape[:-1]
    grid = a.reshape(batch + (L,) * d)
    w = 2 * r + 1
    for axis in range(len(batch), len(batch) + d):
        if w >= L:
            grid = np.broadcast_to(grid.mean(axis=axis, keepdims=True),
                                   grid.shape).copy()
            continue
        grid = _axis_box_mean(grid, axis, r, L)
    return grid.reshape(batch + (L ** d,))


def _axis_box_mean(grid, axis: int, r: int, L: int):
    w = 2 * r + 1
    prefix = _periodic_prefix(np.moveaxis(grid, axis, 0), w)
    out = _window_sums(prefix, (np.arange(L) - r) % L, w) / w
    return np.moveaxis(out, 0, axis)


def _periodic_prefix(x: NDArray[np.float64], w_max: int) -> NDArray[np.float64]:
    """Prefix sums along the first axis of x (length L) extended periodically
    by its first w_max < L entries: shape (1 + L + w_max, ...), entry j the
    sum of the first j extended entries.

    Each entry is the previous one plus the next extended entry, exactly as
    in a cumsum, so a window read from the buffer has the bits of a cumsum
    over that window's own extension, whatever w_max is.  The summed axis is
    the slowest in memory: reading a window copies contiguous blocks, and
    adding whole blocks in turn is many times faster than `np.cumsum` along
    a strided axis."""
    L = len(x)
    out = np.empty((1 + L + w_max,) + x.shape[1:])
    out[0] = 0.0
    out[1:L + 1] = x
    out[L + 1:] = x[:w_max]
    for j in range(2, len(out)):
        out[j] += out[j - 1]
    return out


def _window_sums(prefix: NDArray[np.float64], starts: NDArray[np.intp],
                 w: int) -> NDArray[np.float64]:
    """Sums over the periodic windows [s, s + w), s in starts, w <= w_max."""
    return prefix[starts + w] - prefix[starts]


def _smoothstep(t: NDArray[np.float64]) -> NDArray[np.float64]:
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (10.0 + t * (-15.0 + 6.0 * t))


def _partition_axis(L: int, h: int) -> NDArray[np.float64]:
    """(L, L/h) matrix of 1d partition weights: C^2 smoothstep transitions of
    width h/2 straddling each cell boundary; rows sum to 1 exactly."""
    if L % h:
        raise UsageError("partition requires the spacing to divide L")
    x = np.arange(L, dtype=float)
    n_cells = L // h
    own = (x // h).astype(int)
    t = (x % h) / h
    weights = np.zeros((L, n_cells))
    main = np.ones(L)
    lo = t < 0.25
    hi = t > 0.75
    s_lo = _smoothstep(t[lo] * 2.0 + 0.5)
    weights[np.where(lo)[0], (own[lo] - 1) % n_cells] += 1.0 - s_lo
    main[lo] = s_lo
    s_hi = _smoothstep((t[hi] - 0.75) * 2.0)
    weights[np.where(hi)[0], (own[hi] + 1) % n_cells] += s_hi
    main[hi] = 1.0 - s_hi
    weights[np.arange(L), own] += main
    return weights


def _partition_matrix(d: int, L: int, h: int) -> NDArray[np.float64]:
    """(L^d, (L/h)^d) partition-of-unity matrix, tensorized over axes."""
    p = _partition_axis(L, h)
    out = p
    for _ in range(d - 1):
        out = np.einsum("ac,bd->abcd", out.reshape(-1, out.shape[-1]), p).reshape(
            out.shape[0] * L, -1)
    return out


def multilevel_decompose(model: FieldModel, noise: NoiseLattice,
                         structure: DependenceStructure) -> MultilevelSample:
    """Decompose the field into per-index contributions.

    Level 0 carries the radius-1 local average against the spacing-1
    partition; level m+1 carries v_{2^{m+1}} - v_{2^m} against the spacing
    2^{m+1} partition; the single top-level index carries the residual
    a - v_{2^{floor(log2 L)}}.  Summing all values reconstructs
    L^{-d} sum_x a(x) exactly (telescoping plus exact partitions)."""
    if noise.d != structure.d or noise.L != structure.L:
        raise UsageError("noise lattice does not match the structure")
    values = _decompose_rows(model, sample_field(model, noise)[None, :], structure)
    return MultilevelSample(structure=structure,
                            values={i: v[0] for i, v in values.items()})


def _decompose_rows(model: FieldModel, rows: NDArray[np.float64],
                    structure: DependenceStructure) -> dict:
    st = structure
    if st.L & (st.L - 1):
        raise UsageError("field decomposition requires dyadic L")
    d, L = st.d, st.L
    q_top = int(np.log2(L))
    scale = float(L) ** (-d)
    values: dict[LevelIndex, NDArray[np.float64]] = {}
    v_prev = local_average(rows, 1, d, L)
    p = _partition_matrix(d, L, 1)
    level0 = scale * (v_prev @ p)
    for a, y in enumerate(st.lattice(0)):
        values[LevelIndex(0, y)] = level0[:, a, None]
    for m in range(1, q_top + 1):
        v_next = local_average(rows, 1 << m, d, L)
        p = _partition_matrix(d, L, 1 << m)
        lvl = scale * ((v_next - v_prev) @ p)
        for a, y in enumerate(st.lattice(m)):
            values[LevelIndex(m, y)] = lvl[:, a, None]
        v_prev = v_next
    top = scale * (rows - v_prev).sum(axis=1)
    values[LevelIndex(st.max_level, (0,) * d)] = top[:, None]
    return values


# ---------------------------------------------------------------------------
# synthetic multilevel families


@dataclass(frozen=True)
class SyntheticSpec:
    """Per-index generator X(y, m) = w_m L^{-d} g(S(y, m)) with S the
    variance-normalized noise sum over the support box of (y, m).

    Vector components c >= 1 modulate the noise by the deterministic sign
    pattern (-1)^{floor(x_1 / 2^{c-1})} before summing, keeping locality and
    symmetry while decorrelating the components.
    """

    nonlinearity: str = "identity"
    dist: str = "rademacher"
    n_components: int = 1
    level_weights: Optional[tuple] = None  # None = weight 1 on every level

    def __post_init__(self):
        if self.nonlinearity not in _MAPS:
            raise UsageError(f"unknown nonlinearity {self.nonlinearity!r}")
        if self.dist not in _DISTS:
            raise UsageError(f"unknown noise distribution {self.dist!r}")
        if not 1 <= self.n_components <= 3:
            raise UsageError("n_components must be 1, 2 or 3")

    def weight(self, m: int) -> float:
        if self.level_weights is None:
            return 1.0
        return float(self.level_weights[m]) if m < len(self.level_weights) else 0.0


def _component_patterns(spec: SyntheticSpec, d: int, L: int) -> NDArray[np.float64]:
    cells = L ** d
    pats = np.ones((spec.n_components, cells))
    if spec.n_components > 1:
        x1 = (np.arange(cells) // (L ** (d - 1)))  # first coordinate, C-order
        for c in range(1, spec.n_components):
            pats[c] = np.where((x1 // (1 << (c - 1))) % 2 == 0, 1.0, -1.0)
    return pats


def _box_window(structure: DependenceStructure, m: int) -> int:
    """Integer half-width of the level-m support box."""
    return int(np.floor(structure.halfwidth(m)))


def _box_masks(structure: DependenceStructure, m: int) -> NDArray[np.float64]:
    """(cells, n_anchors) indicator of the level-m support boxes (d >= 2)."""
    st = structure
    hw = _box_window(st, m)
    axes = []
    pos = np.arange(st.L)
    anchors = np.arange(0, st.L, 1 << m)
    delta = np.abs(pos[:, None] - anchors[None, :])
    delta = np.minimum(delta, st.L - delta)
    axis_mask = (delta <= min(hw, st.L)) if 2 * hw + 1 < st.L else np.ones_like(delta, bool)
    for _ in range(st.d):
        axes.append(axis_mask)
    mask = axes[0].astype(float)
    for nxt in axes[1:]:
        mask = np.einsum("ac,bd->abcd", mask, nxt.astype(float)).reshape(
            mask.shape[0] * st.L, -1)
    return mask


@dataclass(frozen=True)
class _Level:
    """Noise-independent geometry of one level of a synthetic family.

    A support box holds `count` cells.  At d = 1 a box narrower than the
    torus is the window [s, s + count) for s in `starts`, and a wider one is
    the whole torus (both None); at d >= 2 `mask` is the dense indicator.
    With Rademacher rows every box sum is an integer k in [-count, count],
    and `table[k + count]` holds g(k / sqrt(count)): the same ufuncs on the
    same doubles as mapping the sums themselves.
    """

    m: int
    scale: float  # w_m L^{-d}
    n_anchors: int
    count: int
    starts: Optional[NDArray[np.intp]]
    mask: Optional[NDArray[np.float64]]
    table: Optional[NDArray[np.float64]]


class _SyntheticLevels:
    """Everything about a synthetic family on one structure that does not
    depend on the noise: component sign patterns and per-level geometry.
    Built once per Monte Carlo run; `tabulate` promises Rademacher rows."""

    def __init__(self, spec: SyntheticSpec, structure: DependenceStructure,
                 tabulate: bool = False):
        st = structure
        self.spec = spec
        self.patterns = _component_patterns(spec, st.d, st.L)
        self.levels = []
        for m in st.levels():
            hw = _box_window(st, m)
            starts = mask = None
            if st.d >= 2:
                mask = _box_masks(st, m)
                count = int(mask[:, 0].sum())
            elif 2 * hw + 1 < st.L:
                count = 2 * hw + 1
                starts = (np.arange(0, st.L, 1 << m) - hw) % st.L
            else:
                count = st.L
            table = (_apply_map(spec.nonlinearity,
                                np.arange(-count, count + 1) / np.sqrt(count))
                     if tabulate else None)
            self.levels.append(_Level(
                m=m, scale=spec.weight(m) * float(st.L) ** (-st.d),
                n_anchors=st.lattice_count(m) ** st.d, count=count,
                starts=starts, mask=mask, table=table))

    def values(self, rows: NDArray[np.float64], levels: Sequence[_Level]):
        """Yield the (n_rows, n_anchors, n_components) values of each level.

        Each component reads all its windows from one periodic prefix sum
        and its whole-torus boxes from one row total."""
        # pattern 0 is all ones
        mods = [rows] + [rows * p[None, :] for p in self.patterns[1:]]
        w_max = max((lv.count for lv in levels if lv.starts is not None), default=0)
        prefixes = [_periodic_prefix(mod.T, w_max) for mod in mods] if w_max else None
        totals = [None] * len(mods)
        for lv in levels:
            comps = []
            for c, mod in enumerate(mods):
                if lv.mask is not None:
                    sums = mod @ lv.mask
                elif lv.starts is not None:
                    sums = _window_sums(prefixes[c], lv.starts, lv.count).T
                else:
                    if totals[c] is None:
                        totals[c] = mod.sum(axis=1, keepdims=True)
                    sums = np.repeat(totals[c], lv.n_anchors, axis=1)
                if lv.table is not None:
                    sums += lv.count
                    comps.append(lv.table[sums.astype(np.intp)])
                else:
                    comps.append(_apply_map(self.spec.nonlinearity,
                                            sums / np.sqrt(lv.count)))
            # the memory order of the window sums carries through to `vals`
            # and decides how numpy sums it over anchors, hence the bits
            vals = np.stack(comps, axis=-1)
            vals *= lv.scale
            yield vals


def _synthetic_totals(levels: _SyntheticLevels,
                      rows: NDArray[np.float64]) -> NDArray[np.float64]:
    out = np.zeros((len(rows), levels.spec.n_components))
    active = [lv for lv in levels.levels if levels.spec.weight(lv.m) != 0.0]
    for vals in levels.values(rows, active):
        out += vals.sum(axis=1)
    return out


def _synthetic_index_values(levels: _SyntheticLevels,
                            rows: NDArray[np.float64]) -> NDArray[np.float64]:
    """(n_rows, n_indices, n_components), index order = build_index_set."""
    return np.concatenate(list(levels.values(rows, levels.levels)), axis=1)


def synthetic_multilevel(spec: SyntheticSpec, structure: DependenceStructure,
                         noise: NoiseLattice) -> MultilevelSample:
    """One realization of the synthetic family.  Values are exactly centered:
    the nonlinearities are odd and every supported noise law is symmetric."""
    if noise.d != structure.d or noise.L != structure.L:
        raise UsageError("noise lattice does not match the structure")
    vals = _synthetic_index_values(_SyntheticLevels(spec, structure),
                                   noise.values[None, :])[0]
    values = {idx: vals[a] for a, idx in enumerate(build_index_set(structure))}
    return MultilevelSample(structure=structure, values=values)


def brute_force_law(spec: SyntheticSpec, structure: DependenceStructure) -> DiscreteLaw:
    """Exact law of the scalar total under Rademacher noise by enumerating
    all 2^{L^d} configurations (L^d <= 20)."""
    if spec.dist != "rademacher":
        raise UsageError("exact enumeration requires Rademacher noise")
    if spec.n_components != 1:
        raise UsageError("exact enumeration covers scalar families")
    cells = structure.L ** structure.d
    if cells > 20:
        raise UsageError(f"enumeration over 2^{cells} configurations refused (> 2^20)")
    n_cfg = 1 << cells
    bits = (np.arange(n_cfg)[:, None] >> np.arange(cells)[None, :]) & 1
    rows = bits * 2.0 - 1.0
    totals = _synthetic_totals(_SyntheticLevels(spec, structure, tabulate=True),
                               rows)[:, 0]
    rounded = np.round(totals, 12)
    values, counts = np.unique(rounded, return_counts=True)
    return DiscreteLaw(values=values, probs=counts / n_cfg)


# ---------------------------------------------------------------------------
# Monte Carlo driver


def monte_carlo(generator, structure: DependenceStructure, n: int, master_seed: int,
                dist: Optional[str] = None, return_per_index: bool = False,
                chunk_size: int = 4096, threads: int = 1):
    """Draw n realizations of the total (and optionally all per-index values).

    `generator` is a SyntheticSpec or a FieldModel (the latter needs `dist`).
    Realization k is a pure function of (master_seed, k), so results do not
    depend on chunking or thread count.  Returns a SampleSet, or a tuple
    (SampleSet, per_index_values, indices) with per_index_values of shape
    (n, n_indices, n_components).
    """
    if n < 1:
        raise UsageError("need n >= 1 realizations")
    if isinstance(generator, SyntheticSpec):
        dist = generator.dist
        n_comp = generator.n_components
    elif isinstance(generator, FieldModel):
        if dist is None:
            raise UsageError("field models need an explicit noise distribution")
        n_comp = 1
    else:
        raise UsageError("generator must be a SyntheticSpec or FieldModel")

    indices = build_index_set(structure)
    if return_per_index and n * len(indices) * n_comp > 2 * 10 ** 8:
        raise UsageError("per-index storage for this run would exceed the guard; "
                         "reduce n or the structure size")
    totals = np.empty((n, n_comp))
    per_index = (np.empty((n, len(indices), n_comp)) if return_per_index else None)
    if isinstance(generator, SyntheticSpec):
        levels = _SyntheticLevels(generator, structure, tabulate=dist == "rademacher")

    def run_chunk(k0: int, count: int):
        rows = _draw_rows(structure.d, structure.L, dist, master_seed, k0, count)
        if isinstance(generator, SyntheticSpec):
            if return_per_index:
                vals = _synthetic_index_values(levels, rows)
                return vals.sum(axis=1), vals
            return _synthetic_totals(levels, rows), None
        mapped = _apply_map(generator.pointwise_map, rows)
        values = _decompose_rows(generator, mapped, structure)
        stacked = np.stack([values[i] for i in indices], axis=1)
        return stacked.sum(axis=1), (stacked if return_per_index else None)

    starts = list(range(0, n, chunk_size))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(run_chunk, k0, min(chunk_size, n - k0))
                       for k0 in starts]
            results = [f.result() for f in futures]
    else:
        results = [run_chunk(k0, min(chunk_size, n - k0)) for k0 in starts]
    for k0, (tot, vals) in zip(starts, results):
        totals[k0:k0 + len(tot)] = tot
        if return_per_index:
            per_index[k0:k0 + len(tot)] = vals
    samples = SampleSet(values=totals, master_seed=master_seed)
    if return_per_index:
        return samples, per_index, indices
    return samples


# ---------------------------------------------------------------------------
# realization dumps and presets


def dump_samples(path, samples: SampleSet, structure: DependenceStructure) -> None:
    """Flat little-endian binary: header (d, L, dim, n) as int64, then the
    (n, dim) float64 values in C order."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4q", structure.d, structure.L,
                             samples.dim, samples.n))
        fh.write(samples.values.astype("<f8").tobytes(order="C"))


def load_samples(path) -> tuple:
    with open(path, "rb") as fh:
        d, L, dim, n = struct.unpack("<4q", fh.read(32))
        data = np.frombuffer(fh.read(), dtype="<f8").reshape(n, dim)
    return SampleSet(values=data.copy(), master_seed=-1), {"d": d, "L": L}


_PRESETS = {
    # name: (nonlinearity, dist, level_weights, gamma, B)
    "identity-gauss": ("identity", "gaussian", (1.0,), 2.0, 2.0),
    "cube": ("cube", "rademacher", None, 2.0 / 3.0, 8.0),
    "exp-tail": ("identity", "centered-exponential-tail", None, 1.0, 4.0),
    "signed-sqrt": ("signed-sqrt", "uniform", None, 2.0, 4.0),
}

PRESET_NAMES = tuple(_PRESETS)


def make_preset(name: str, d: int, L: int, K: float = 2.0,
                n_components: int = 1) -> tuple[SyntheticSpec, DependenceStructure]:
    """Named synthetic family plus its matching dependence structure."""
    if name not in _PRESETS:
        raise UsageError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    nonlin, dist, weights, gamma, b = _PRESETS[name]
    spec = SyntheticSpec(nonlinearity=nonlin, dist=dist,
                         n_components=n_components, level_weights=weights)
    structure = DependenceStructure(d=d, L=L, K=K, gamma=gamma, B=b)
    return spec, structure
