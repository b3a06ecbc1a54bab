"""Synthetic multilevel families on the torus and their Monte Carlo driver.

A synthetic family gives each index (m, y) the value w_m L^{-d} g(S(y, m)),
where S(y, m) is the variance-normalized sum of iid noise on (Z mod L)^d over
the index's support box and g is an odd nonlinearity, so every value is
exactly centered for the symmetric noise distributions used here.  Four
presets pair a family with its dependence structure; tiny lattices also
have their exact law by enumeration.

Monte Carlo noise follows sample stream v2: one Philox key per run,
(master_seed, _MC_STREAM_TAG), under which realization k owns a fixed range
of counter blocks (`_draw` gives the layout).  So a chunk of realizations is
one Philox call, realization k regenerates in isolation, and results are
bit-reproducible and independent of the chunk size.
A support box is summed axis by axis at every d: windows along the first
axis come from one periodic prefix per chunk, and each further axis takes
a periodic prefix of the partial sums.  Rademacher noise is summed as 0/1
counts of +1 cells in integer prefixes, scanned in blocks, so box sums are
exact; the other laws use the same prefixes in float64, scanned row by row.
Window levels at d = 1 are summed anchor by anchor, and the other levels
as numpy reduces their C-order arrays.  Group sums are reduced chunk by
chunk: each chunk writes its per-index values into one reused buffer of
about 2^20 doubles, Rademacher counts through one lookup in the levels'
concatenated tables, and sums them over each group's columns there, so no
array grows as n times the number of indices unless its caller asks for
every index as a group.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.typing import NDArray
from scipy.special import log1p, ndtri

from ._util import _MC_STREAM_TAG, UsageError, philox_key
from .distances import DiscreteLaw, SampleSet
from .multilevel import DependenceStructure

__all__ = [
    "SyntheticSpec",
    "brute_force_law",
    "monte_carlo",
    "make_preset",
    "PRESET_NAMES",
]

_DISTS = ("rademacher", "uniform", "centered-exponential-tail", "gaussian")
STREAM_VERSION = 2  # the noise layout of `_draw`; run manifests record it
_MAPS = ("identity", "cube", "signed-sqrt")


def _apply_map(tag: str, x: NDArray[np.float64]) -> NDArray[np.float64]:
    if tag == "identity":
        return x
    if tag == "cube":
        return x ** 3
    if tag == "signed-sqrt":
        return np.sign(x) * np.sqrt(np.abs(x))
    raise UsageError(f"unknown map {tag!r}; choose from {_MAPS}")


def _draw(d: int, L: int, dist: str, master_seed: int, k0: int,
          count: int) -> NDArray:
    """Noise of realizations k0 .. k0+count-1 in sample stream v2:
    Rademacher as positions-major 0/1 counts of the +1 cells, shape (L^d,
    count), the other laws as float rows, shape (count, L^d), all symmetric
    with unit variance.

    One Philox keyed by (master_seed, _MC_STREAM_TAG) serves the run.
    Realization k reads w raw words, w = ceil(cells / 64) for Rademacher and
    w = cells otherwise, from its own counter blocks k B + 1 .. k B + B, B =
    ceil(w / 4); the rest of its 4B words are discarded.  So a chunk is one
    `advance(k0 B)` and one `random_raw(count 4B)`.  Rademacher cell 64j + i
    is +1 where bit i of word j is set.  The float laws take u = ((word >>
    12) + 0.5) 2^-52, exact and symmetric in [2^-53, 1 - 2^-53], and map it
    through the inverse distribution function: sqrt(3) (2u - 1) for uniform,
    copysign(-log1p(-2|u - 1/2|) / sqrt(2), u - 1/2) for Laplace and
    ndtri(u) for Gaussian noise; scipy's ufuncs give the same bits whatever
    the array shape."""
    if dist not in _DISTS:
        raise UsageError(f"unknown noise distribution {dist!r}; choose from {_DISTS}")
    cells = L ** d
    w = -(-cells // 64) if dist == "rademacher" else cells
    blocks = -(-w // 4)
    bitgen = np.random.Philox(key=philox_key(master_seed, _MC_STREAM_TAG))
    raw = bitgen.advance(k0 * blocks).random_raw(count * 4 * blocks)
    raw = raw.reshape(count, 4 * blocks)[:, :w]
    if dist == "rademacher":
        # byte b of a realization's little-endian words holds cells 8b .. 8b+7
        octets = np.ascontiguousarray(raw.astype("<u8", copy=False).view(np.uint8).T)
        bits = np.empty((8 * w, 8, count), dtype=np.uint8)
        for i in range(8):
            np.right_shift(octets, i, out=bits[:, i])
            np.bitwise_and(bits[:, i], 1, out=bits[:, i])
        return bits.reshape(64 * w, count)[:cells]
    u = ((raw >> 12) + 0.5) * 2.0 ** -52
    if dist == "uniform":
        return (2.0 * u - 1.0) * np.sqrt(3.0)
    if dist == "centered-exponential-tail":
        t = u - 0.5
        return np.copysign(-log1p(-2.0 * np.abs(t)) / np.sqrt(2.0), t)
    return ndtri(u)


def _int_dtype(top: int):
    """The narrowest of int16, int32 and int64 that holds 0 .. top."""
    return np.int16 if top < 1 << 15 else np.int32 if top < 1 << 31 else np.int64


def _periodic_prefix(x: NDArray, w_max: int, peak: int = 1) -> NDArray:
    """Prefix sums along the first axis of x (length L) extended periodically
    by its first w_max < L entries: shape (1 + L + w_max, ...), entry j the
    sum of the first j extended entries.

    The summed axis is the slowest in memory, so every step adds whole
    contiguous rows.  Float x gives float64 sums, each entry the previous one
    plus the next extended entry, exactly as in a cumsum: a window read from
    the buffer has the bits of a cumsum over that window's own extension,
    whatever w_max is.  Integer x with entries in [0, peak], the 0/1 counts
    of Rademacher cells or their window sums along earlier axes, gives exact
    sums in int16 while the bound (1 + L + w_max) peak on every entry stays
    below 2^15, else in int32 or int64.  Integer sums are exact in any
    order, so they are scanned in blocks of about sqrt(1 + L + w_max) rows:
    every block at once, row by row, then each block adds the running total
    of the blocks before it, some 2 sqrt(1 + L + w_max) row adds in all."""
    L = len(x)
    size = 1 + L + w_max
    if x.dtype.kind == "f":
        block, dtype = size, np.float64
    else:
        block, dtype = max(1, math.isqrt(size)), _int_dtype(size * peak)
    n_blocks = -(-size // block)
    out = np.zeros((n_blocks * block,) + x.shape[1:], dtype=dtype)
    out[1:L + 1] = x
    out[L + 1:size] = x[:w_max]
    blocks = out.reshape((n_blocks, block) + x.shape[1:])
    for j in range(1, block):
        blocks[:, j] += blocks[:, j - 1]
    for b in range(1, n_blocks):
        blocks[b] += blocks[b - 1, -1]
    return out[:size]


def _window_sums(prefix: NDArray, L: int, start: int, step: int, w: int) -> NDArray:
    """Sums over the periodic windows [s, s + w), w <= w_max, for the starts
    s = (start + a step) mod L, a = 0, 1, ..., in order: two strided runs,
    from `start` up to L and from (start - L) mod step up to `start`."""
    s = (start - L) % step
    return np.concatenate([prefix[start + w:L + w:step] - prefix[start:L:step],
                           prefix[s + w:start + w:step] - prefix[s:start:step]])


def _box_sums(prefix: NDArray, d: int, L: int, r: int, step: int) -> NDArray:
    """Sums over the periodic boxes of radius r (width w = 2r + 1 < L per
    axis) anchored on step Z^d, of an array whose first d axes are the
    torus: one axis of anchors per torus axis, then the other axes.  Axis 0
    reads its `_window_sums` from `prefix`, the array's `_periodic_prefix`;
    each further axis takes the periodic prefix of the partial sums and
    reads the same windows."""
    start, w = -r % L, 2 * r + 1
    for axis in range(d):
        if axis:
            prefix = _periodic_prefix(np.moveaxis(sums, axis, 0), w, w ** axis)
        sums = np.moveaxis(_window_sums(prefix, L, start, step, w), 0, axis)
    return sums


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
    x1 = np.arange(L ** d) // L ** (d - 1)  # first coordinate, C-order
    return np.array([np.ones(L ** d)] + [np.where(x1 >> (c - 1) & 1, -1.0, 1.0)
                                         for c in range(1, spec.n_components)])


@dataclass(frozen=True)
class _Level:
    """Noise-independent geometry of one level of a synthetic family.

    Its indices take the columns `start` .. `start` + `n_anchors` - 1.  A
    support box holds `count` cells: (2 `radius` + 1)^d when that width is
    below L, else the whole torus (radius None).  A Rademacher box with b
    cells at +1 sums to 2b - count, and `table[b]` holds the same double as
    mapping and scaling that sum, w_m L^{-d} g((2b - count) / sqrt(count)),
    and so does entry `offset` + b of the family's concatenated table.
    """

    m: int
    scale: float  # w_m L^{-d}
    start: int
    n_anchors: int
    count: int
    radius: Optional[int]
    offset: int
    table: Optional[NDArray[np.float64]]


class _SyntheticLevels:
    """Everything about a synthetic family on one structure that does not
    depend on the noise: component sign patterns and per-level geometry.
    Built once per Monte Carlo run; `tabulate` promises Rademacher noise
    as the 0/1 counts that `_draw` returns, and concatenates the levels'
    tables into `table`, whose entries `index_dtype` can address."""

    def __init__(self, spec: SyntheticSpec, structure: DependenceStructure,
                 tabulate: bool = False):
        st = structure
        self.spec = spec
        self.d, self.L = st.d, st.L
        self.tabulate = tabulate
        self.patterns = _component_patterns(spec, st.d, st.L)
        self.levels, offset = [], 0
        for m in st.levels():
            hw = st.box_radius(m)
            count = min(2 * hw + 1, st.L) ** st.d
            scale = spec.weight(m) * float(st.L) ** (-st.d)
            table = (_apply_map(spec.nonlinearity, np.arange(-count, count + 1, 2)
                                / np.sqrt(count)) * scale if tabulate else None)
            self.levels.append(_Level(
                m=m, scale=scale, start=st.level_start(m),
                n_anchors=st.lattice_count(m) ** st.d, count=count,
                radius=hw if 2 * hw + 1 < st.L else None, offset=offset, table=table))
            offset += count + 1
        self.n_indices = sum(lv.n_anchors for lv in self.levels)
        if tabulate:
            self.table = np.concatenate([lv.table for lv in self.levels])
            self.index_dtype = _int_dtype(len(self.table) - 1)

    def _map(self, lv: _Level, sums: NDArray, out: NDArray[np.float64]) -> None:
        out = out.reshape(sums.shape)  # a view, one axis of anchors per torus axis
        if lv.table is not None:  # counts lie in [0, count]: clipping never acts
            np.take(lv.table, sums, out=out, mode="clip")
        else:
            np.multiply(_apply_map(self.spec.nonlinearity, sums / np.sqrt(lv.count)),
                        lv.scale, out=out)

    def box_sums(self, noise: NDArray, levels: Sequence[_Level]):
        """Yield (level, component, sums) for each level, component by
        component: the box sums, one axis of anchors per torus axis and then
        the realizations, or on a whole-torus level one sum per realization
        standing for every anchor.

        `noise` is (cells, n) counts when tabulated, and then the sums are
        integer counts of +1 cells; otherwise it is (n, cells) float rows.
        Each component sums the boxes of every level axis by axis, from one
        periodic prefix along the first axis; whole-torus boxes are its row
        totals."""
        if self.tabulate:  # component c counts the cells where its noise is +1
            cols = [noise] + [noise ^ (p < 0).astype(np.uint8)[:, None]
                              for p in self.patterns[1:]]
        else:  # pattern 0 is all ones
            cols = [noise.T] + [(noise * p).T for p in self.patterns[1:]]
        n = cols[0].shape[1]
        w_max = max((2 * lv.radius + 1 for lv in levels if lv.radius is not None),
                    default=0)
        prefixes = [_periodic_prefix(col.reshape((self.L,) * self.d + (n,)), w_max)
                    for col in cols] if w_max else None
        totals = ([col.T.sum(axis=1) for col in cols]
                  if any(lv.radius is None for lv in levels) else None)
        for lv in levels:
            for c in range(len(cols)):
                yield lv, c, (totals[c] if lv.radius is None else
                              _box_sums(prefixes[c], self.d, self.L, lv.radius, 1 << lv.m))

    def values(self, noise: NDArray, levels: Sequence[_Level]):
        """Yield (level, values) for each level, values anchor-major,
        (n_components, n_anchors, n), the `box_sums` mapped; a whole-torus
        level yields one anchor standing for all."""
        for lv, c, sums in self.box_sums(noise, levels):
            if c == 0:
                vals = np.empty((self.spec.n_components,
                                 1 if lv.radius is None else lv.n_anchors, sums.shape[-1]))
            self._map(lv, sums, vals[c])
            if c == len(vals) - 1:
                yield lv, vals


def _synthetic_totals(levels: _SyntheticLevels, noise: NDArray) -> NDArray[np.float64]:
    """(n, n_components) totals: window levels at d = 1 summed anchor by
    anchor, the others as numpy reduces their C-order (n, n_anchors,
    n_components) values.  The bits of the totals are pinned to this order."""
    out = np.zeros((noise.shape[1] if levels.tabulate else len(noise),
                    levels.spec.n_components))
    for lv, vals in levels.values(noise, [lv for lv in levels.levels
                                          if levels.spec.weight(lv.m) != 0.0]):
        if lv.radius is not None and levels.d == 1:
            # anchor by anchor: numpy would sum a lone realization pairwise
            out += (vals.sum(axis=1) if len(out) > 1
                    else np.add.accumulate(vals, axis=1)[:, -1]).T
        else:
            full = np.broadcast_to(vals.T, (len(out), lv.n_anchors, len(vals)))
            out += np.ascontiguousarray(full).sum(axis=1)
    return out


def _synthetic_index_values(levels: _SyntheticLevels, noise: NDArray,
                            out: NDArray[np.float64]) -> None:
    """Write the (n, n_indices, n_components) values to out in the index
    set's column order (`DependenceStructure.positions`): level by level,
    each level's anchors in the C-order that `box_sums` yields them in.

    Tabulated noise makes no float array per level: every box count, plus
    its level's offset into the concatenated table, goes straight into one
    integer array shaped like out, a whole-torus level's one count per
    realization repeated over its anchors, and one np.take of the table
    fills out."""
    if not levels.tabulate:
        for lv, vals in levels.values(noise, levels.levels):
            out[:, lv.start:lv.start + lv.n_anchors] = vals.T
        return
    idx = np.empty(out.shape, dtype=levels.index_dtype)
    for lv, c, sums in levels.box_sums(noise, levels.levels):
        rows = idx[:, lv.start:lv.start + lv.n_anchors, c]
        if lv.radius is None:
            np.add(sums[:, None], lv.offset, out=rows)
        else:  # realizations first, then one axis of anchors per torus axis
            np.add(np.moveaxis(sums, -1, 0), lv.offset,
                   out=rows.reshape((len(out),) + sums.shape[:-1]))
    np.take(levels.table, idx, out=out, mode="clip")


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
    bits = ((np.arange(n_cfg)[None, :] >> np.arange(cells)[:, None]) & 1).astype(np.uint8)
    totals = _synthetic_totals(_SyntheticLevels(spec, structure, tabulate=True),
                               bits)[:, 0]
    values, counts = np.unique(np.round(totals, 12), return_counts=True)
    return DiscreteLaw(values=values, probs=counts / n_cfg)


# ---------------------------------------------------------------------------
# Monte Carlo driver


# doubles in the per-index buffer that one chunk of a grouped run fills
_GROUP_BUFFER = 1 << 20


def monte_carlo(spec: SyntheticSpec, structure: DependenceStructure, n: int,
                master_seed: int, groups=None, chunk_size: int = 4096):
    """Draw n realizations of the total of the synthetic family `spec`, and
    optionally sums of per-index values over groups of indices.

    Realization k is a pure function of (master_seed, k), so results do not
    depend on `chunk_size`, which only bounds the realizations in memory at
    once.  Returns a SampleSet, or with `groups`, an int array of shape
    (n_groups, group_len) holding index columns, a pair (SampleSet, sums):
    sums[k, g] is the sum of realization k's values over the columns
    groups[g], shape (n, n_groups, n_components), and
    `np.arange(n_indices)[:, None]` gives the per-index values themselves.
    The columns run level by level from level 0, each level in the C-order
    of its anchors y / 2^m (`DependenceStructure.positions`).
    A grouped run writes each chunk's per-index values into one buffer of at
    most 2^20 doubles (or one realization's, if larger), with one table
    lookup under Rademacher noise (`_synthetic_index_values`), and reduces
    them there: its totals are those values summed as numpy reduces them;
    its group sums gather the groups' columns once, column j of every group
    in one contiguous row, and add the rows in the order given.
    """
    if n < 1:
        raise UsageError("need n >= 1 realizations")
    if not isinstance(spec, SyntheticSpec):
        raise UsageError(f"monte_carlo samples a SyntheticSpec, got {type(spec).__name__}")
    n_comp = spec.n_components
    levels = _SyntheticLevels(spec, structure, tabulate=spec.dist == "rademacher")

    # at most 2^22 cells per chunk (d=2 L=256 fits; d=1 keeps 4096 up to L=1024)
    chunk_size = max(1, min(chunk_size, (1 << 22) // structure.L ** structure.d))
    n_indices = levels.n_indices
    totals = np.empty((n, n_comp))
    if groups is not None:
        groups = np.asarray(groups)
        if (groups.ndim != 2 or groups.dtype.kind not in "iu" or groups.shape[1] < 1
                or groups.size and not 0 <= groups.min() <= groups.max() < n_indices):
            raise UsageError("groups must be a 2-d int array of index columns "
                             f"in [0, {n_indices}), at least one per group")
        if n * len(groups) * n_comp > 2 * 10 ** 8:
            raise UsageError("group-sum storage for this run would exceed the guard; "
                             "reduce n or the number of groups")
        width = max(n_indices, groups.size) * n_comp
        chunk_size = max(1, min(chunk_size, _GROUP_BUFFER // width))
        buf = np.empty((chunk_size, n_indices, n_comp))
        sums = np.empty((n, len(groups), n_comp))
    for k0 in range(0, n, chunk_size):
        chunk = slice(k0, min(k0 + chunk_size, n))
        noise = _draw(structure.d, structure.L, spec.dist, master_seed, k0,
                      chunk.stop - k0)
        if groups is None:
            totals[chunk] = _synthetic_totals(levels, noise)
            continue
        vals = buf[:chunk.stop - k0]
        _synthetic_index_values(levels, noise, vals)
        totals[chunk] = vals.sum(axis=1)
        # add each group's columns one at a time, in the order given: numpy's
        # sum would pick pairwise or sequential order by the chunk's shape.
        # One gather makes column j of every group one contiguous row.
        cols = vals.transpose(1, 0, 2)[groups.T]  # (group_len, n_groups, chunk, n_comp)
        acc = cols[0]
        for row in cols[1:]:
            acc += row
        sums[chunk] = acc.transpose(1, 0, 2)
    samples = SampleSet(values=totals, master_seed=master_seed)
    if groups is not None:
        return samples, sums
    return samples


# ---------------------------------------------------------------------------
# presets


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
