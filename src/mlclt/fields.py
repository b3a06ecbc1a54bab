"""Synthetic multilevel families on the torus and their Monte Carlo driver.

A synthetic family gives each index (m, y) the value w_m L^{-d} g(S(y, m)),
where S(y, m) is the variance-normalized sum of iid noise on (Z mod L)^d over
the index's support box and g is an odd nonlinearity, so every value is
exactly centered for the symmetric noise distributions used here.  Four
presets pair a family with its dependence structure; tiny lattices also
have their exact law by enumeration.

Monte Carlo output follows sample stream v3: v2's noise, one Philox key per
run, (master_seed, _MC_STREAM_TAG), under which realization k owns a fixed
range of counter blocks (`_draw` gives the layout), with Rademacher totals
formed as exact integer sums.  So a chunk of realizations is one Philox
call, realization k regenerates in isolation, and results are
bit-reproducible and independent of the chunk size, which is at most 2^19
cells of noise but, in a plain run, at least min(256, 2^22 // cells)
realizations, below which numpy's per-call cost outweighs the work.
A support box is summed axis by axis at every d, a window level in blocks
of first-axis anchor rows that stay in cache (`_box_sums`), from one
periodic prefix per chunk and component along the first axis, whose row L
also gives the whole-torus sums; each further axis takes a periodic prefix
of the block's partial sums.  Rademacher noise stays bit-packed until each
component's -1/+1 cells are unpacked straight into its integer prefix,
scanned in blocks with no periodic extension; the other laws use float64
prefixes, scanned row by row and extended periodically, so each window has
the bits of a cumsum over it.

The integer contract: under Rademacher noise every map is a power g(x) =
x^p (identity or cube; any other is refused), so an index's value is its
integer box sum v to the p times one factor per level, w_m L^{-d} / c^{p/2}
for boxes of c cells.  Each level sums v^p over its anchors, or over a
group's columns, exactly, in float64 below 2^53 and in int64 below 2^63 (a
level that could pass 2^63 is refused when the run is set up), and takes
that sum times its factor; totals and group sums add their levels in level
order.  Nothing else rounds, so no summation order, chunk, block, FMA or
SIMD feature set moves a bit.  The float laws keep one pinned order
instead: each block of a window level is mapped and added to the level's
running sum one anchor after the other, and each group run is added onto
its group sum the same way.  A grouped run is the plain pass plus its runs
(`_SyntheticTotals`), so its totals are a plain run's, and no array grows
as n times the number of indices unless its caller asks for every index as
a group.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import numpy.random  # numpy loads it on first use: load it here, not inside a run
from numpy.typing import NDArray

from ._util import _MC_STREAM_TAG, UsageError, _add_rows, log1p, ndtri, philox_key
from .distances import DiscreteLaw, _samples
from .multilevel import DependenceStructure

__all__ = [
    "SyntheticSpec",
    "brute_force_law",
    "monte_carlo",
    "make_preset",
    "PRESET_NAMES",
]

_DISTS = ("rademacher", "uniform", "centered-exponential-tail", "gaussian")
# 3: v2's noise layout (`_draw`), Rademacher totals as exact integer sums
# (`_SyntheticTotals`); run manifests record it
STREAM_VERSION = 3
_MAPS = ("identity", "cube", "signed-sqrt")
_POWERS = {"identity": 1, "cube": 3}  # the maps that are powers x^p


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
    """Noise of realizations k0 .. k0+count-1 in sample stream v2,
    positions-major: Rademacher noise bit-packed, shape (8w, count), byte b
    holding cells 8b .. 8b+7 from its lowest bit, a set bit a +1 cell, and
    bits past the last cell padding; the other laws as floats, shape (L^d,
    count).  All are symmetric with unit variance.

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
        return np.ascontiguousarray(raw.astype("<u8", copy=False).view(np.uint8).T)
    u = ((raw.T >> 12) + 0.5) * 2.0 ** -52
    if dist == "uniform":
        return (2.0 * u - 1.0) * np.sqrt(3.0)
    if dist == "centered-exponential-tail":
        t = u - 0.5
        return np.copysign(-log1p(-2.0 * np.abs(t)) / np.sqrt(2.0), t)
    return ndtri(u)


def _int_dtype(top: int):
    """The narrowest of int16, int32 and int64 that holds -top .. top."""
    return np.int16 if top < 1 << 15 else np.int32 if top < 1 << 31 else np.int64


def _prefix_array(shape: tuple, w_max: int, kind: str, peak: int = 1,
                  buf: Optional[NDArray] = None):
    """(out, size, block): the array that the `_periodic_prefix` of input
    `shape` = (L, ...) of dtype kind `kind`, integer entries in [-peak, peak],
    is scanned in, in the flat `buf` when given, else fresh.  The prefix has
    `size` rows, 1 + L + w_max for floats, scanned row by row, and 1 + L for
    integers, scanned in blocks of `block` rows; `out` has them rounded up
    to whole blocks, in float64 or the narrowest int that holds +-size peak."""
    if kind == "f":
        size = block = 1 + shape[0] + w_max
        dtype = np.float64
    else:
        size = 1 + shape[0]
        block = max(1, math.isqrt(size))
        dtype = _int_dtype(size * peak)
    full = (-(-size // block) * block,) + shape[1:]
    out = (np.empty(full, dtype=dtype) if buf is None
           else buf[:math.prod(full)].reshape(full))
    return out, size, block


def _scan(out: NDArray, size: int, block: int) -> NDArray:
    """Scan `out` in place from its filled rows 1 .. size - 1 into prefix
    sums, row 0 the empty sum, and return its first `size` rows: blocks of
    `block` rows at once, row by row, then each block adds the running total
    of the blocks before it."""
    out[0] = 0
    out[size:] = 0
    blocks = out.reshape((len(out) // block, block) + out.shape[1:])
    for j in range(1, block):
        blocks[:, j] += blocks[:, j - 1]
    for b in range(1, len(blocks)):
        blocks[b] += blocks[b - 1, -1]
    return out[:size]


def _periodic_prefix(x: NDArray, w_max: int, peak: int = 1,
                     buf: Optional[NDArray] = None) -> NDArray:
    """Prefix sums along the first axis of x (length L): shape (1 + L, ...)
    for integer x, and for float x extended periodically by its first w_max
    < L entries, shape (1 + L + w_max, ...); entry j is the sum of the first
    j (extended) entries.

    The summed axis is the slowest in memory, so every step adds whole
    contiguous rows.  Float x gives float64 sums, each entry the previous one
    plus the next extended entry, exactly as in a cumsum: a window read from
    the buffer has the bits of a cumsum over that window's own extension,
    whatever w_max is.  Integer x with entries in [-peak, peak], the -1/+1
    Rademacher cells or their window sums along earlier axes, gives exact
    sums in int16 while the bound (1 + L) peak on every entry stays below
    2^15, else in int32 or int64.  Its windows need no extension: one that
    passes the end reads its wrapped part from the start (`_window_sums`).
    Integer sums are exact in any order, so they are scanned in blocks of
    about sqrt(1 + L) rows (`_scan`), some 2 sqrt(1 + L) row adds in all.
    The sums go into the flat `buf` of the `_prefix_array` dtype, when
    given, and into a fresh array otherwise."""
    L = len(x)
    out, size, block = _prefix_array(x.shape, w_max, x.dtype.kind, peak, buf)
    out[1:L + 1] = x
    out[L + 1:size] = x[:size - L - 1]  # the extension: floats only
    return _scan(out, size, block)


def _sign_prefix(octets: NDArray[np.uint8], shape: tuple,
                 buf: Optional[NDArray] = None) -> NDArray:
    """The `_periodic_prefix` of the -1/+1 cells that `octets` holds packed
    as `_draw` packs them, shape (bytes, n), with the cells in C-order on
    `shape` = (L, ..., L, n).  Cell 8b + i, bit i of byte b, is unpacked
    straight into its place in rows 1 .. L, one bit position at a time, as
    0/1 and then 2 bit - 1; bits past the last cell are never read."""
    out, size, block = _prefix_array(shape, 0, "i", 1, buf)
    cells = out[1:size].reshape(-1, shape[-1])
    shifted = np.empty_like(octets)
    for i in range(8):
        k = len(range(i, len(cells), 8))
        np.right_shift(octets[:k], i, out=shifted[:k])
        np.bitwise_and(shifted[:k], 1, out=cells[i::8])
    cells *= 2
    cells -= 1
    return _scan(out, size, block)


def _windows(L: int, start: int, step: int, block: int):
    """Yield (a, k) for the window starts s = (start + i step) mod L, i = 0,
    1, ..., in order, in blocks of at most `block` starts: the k starts a, a
    + step, ..., each block inside one of two strided runs, from `start` up
    to L and from (start - L) mod step up to `start`."""
    for lo, hi in ((start, L), ((start - L) % step, start)):
        for a in range(lo, hi, block * step):
            yield a, min(block, len(range(a, hi, step)))


def _window_sums(prefix: NDArray, L: int, a: int, k: int, step: int, w: int,
                 out: NDArray) -> None:
    """Write to out the sums over the periodic windows [s, s + w), w < L, of
    the k starts s = a, a + step, ... < L, from `prefix`, the
    `_periodic_prefix` P of the summed array.  A float prefix is extended,
    so each window is its end row minus its start row, with the bits of a
    cumsum over the window.  An integer one is not: a window whose end e
    passes L reads P[e - L] + P[L] - P[s], exact in integers."""
    top = a + (k - 1) * step + 1
    if prefix.dtype.kind == "f":
        np.subtract(prefix[a + w:top + w:step], prefix[a:top:step], out=out)
        return
    j = len(range(a, min(top, L - w + 1), step))  # the windows that end by L
    b = a + j * step
    np.subtract(prefix[a + w:b + w:step], prefix[a:b:step], out=out[:j])
    if j < k:
        np.subtract(prefix[b + w - L:top + w - L:step], prefix[b:top:step], out=out[j:])
        out[j:] += prefix[L]


def _box_sums(prefix: NDArray, d: int, L: int, r: int, step: int, block: int,
              buf: Optional[NDArray] = None):
    """Yield the sums over the periodic boxes of radius r (width w = 2r + 1
    < L per axis) anchored on step Z^d, of an array whose first d axes are
    the torus, in blocks of at most `block` first-axis anchors: C-order
    arrays with one axis of anchors per torus axis, then the other axes,
    which stacked along axis 0 give the level's sums.  A block reads its
    axis-0 `_window_sums` from `prefix`, the array's `_periodic_prefix`,
    into the flat `buf` of the prefix's dtype when given; each further axis
    takes the periodic prefix of the block's partial sums and reads the same
    windows.  Each axis subtracts straight into its place in the block, so
    no axis is copied into order."""
    start, w = -r % L, 2 * r + 1
    anchors = len(range(0, L, step))
    for a, k in _windows(L, start, step, block):
        shape = (k,) + prefix.shape[1:]
        sums = (np.empty(shape, dtype=prefix.dtype) if buf is None
                else buf[:math.prod(shape)].reshape(shape))
        _window_sums(prefix, L, a, k, step, w, sums)
        for axis in range(1, d):
            part = _periodic_prefix(np.moveaxis(sums, axis, 0), w, w ** axis)
            sums = np.empty(part.shape[1:axis + 1] + (anchors,) + part.shape[axis + 1:],
                            dtype=part.dtype)
            into, i = np.moveaxis(sums, axis, 0), 0
            for a2, k2 in _windows(L, start, step, L):
                _window_sums(part, L, a2, k2, step, w, into[i:i + k2])
                i += k2
        yield sums


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
        if self.dist == "rademacher" and self.nonlinearity not in _POWERS:
            raise UsageError(f"{self.nonlinearity!r} under Rademacher noise: Rademacher box "
                             f"sums are summed as exact integers, which takes a power "
                             f"map, one of {tuple(_POWERS)}")
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
    below L, else the whole torus (radius None).  Under Rademacher noise
    with g(x) = x^p a box whose -1/+1 cells sum to v has the value v^p
    `factor`, w_m L^{-d} / (count^{(p-1)/2} sqrt(count)); sums of v^p over
    anchors are exact in `exact`, float64 while n_anchors count^p < 2^53,
    else int64 (always at a whole-torus level, for its one v^p)."""

    m: int
    scale: float  # w_m L^{-d}
    start: int
    n_anchors: int
    count: int
    radius: Optional[int]
    exact: Optional[type]
    factor: float


def _torus_sums(prefix: NDArray, L: int) -> NDArray:
    """One sum over the whole torus per realization: row L of `prefix`, the
    `_periodic_prefix` along the first torus axis, added over the further
    axes one C-order row after the other, by `_periodic_prefix` again."""
    rows = prefix[L].reshape(-1, prefix.shape[-1])
    return _periodic_prefix(rows, 0, peak=L)[-1]


# doubles in the block of mapped box sums that `_SyntheticTotals` fills and
# sums: 1 MiB, which stays in cache while it is reduced
_WINDOW_BLOCK = 1 << 17


def _run_tables(groups: NDArray, levels: list) -> dict:
    """Level m: (runs, lone) for each level that `groups` picks, an int
    array of index columns, (n_groups, group_len), each row strictly
    ascending.  A run of consecutive columns starts at each group's first
    column, after each gap and at each level's first column.  `runs` holds
    its (first anchor, end anchor, group) rows, sorted by first anchor;
    `lone` marks the one-column runs that open their group."""
    starts = np.array([lv.start for lv in levels])
    opens = np.ones(groups.shape, dtype=bool)
    opens[:, 1:] = (groups[:, 1:] != groups[:, :-1] + 1) | np.isin(groups[:, 1:], starts)
    at = np.flatnonzero(opens)  # g group_len + j, each group's first column among them
    first = groups.ravel()[at]
    table = np.stack([first, first + np.diff(at, append=groups.size),
                      at // groups.shape[1]], axis=1)
    lone = (at % groups.shape[1] == 0) & (table[:, 1] == first + 1)
    order = np.argsort(first, kind="stable")
    table, lone = table[order], lone[order]
    tables = {}
    for lv in levels:
        lo, hi = np.searchsorted(table[:, 0], (lv.start, lv.start + lv.n_anchors))
        if hi > lo:
            tables[lv.m] = (table[lo:hi] - (lv.start, lv.start, 0), lone[lo:hi])
    return tables


class _SyntheticTotals:
    """One Monte Carlo run of the synthetic family `spec` on `structure`:
    its noise-independent geometry, component sign patterns and per-level
    `_Level`s, and the (n, n_components) totals of each chunk's noise, each
    component adding its weighted levels in level order.

    Rademacher noise comes bit-packed as `_draw` returns it, with the sign
    patterns packed alike (a bit set where the pattern is -1); each
    component's -1/+1 cells are unpacked into its integer prefix.  A window
    level copies each block of its integer box sums v into the value buffer,
    in its `exact` type, and adds the block's sum of v^p, one `np.einsum`,
    to the level's exact sum; a whole-torus level takes k anchors as k v^p.
    The totals add each level's sum times its `factor`.  Under the other
    laws each window level maps each block of its float box sums into rows
    1 .. k of the value buffer, after the level's running sum in row 0, from
    -0.0 on, and adds the rows in C-order; a whole-torus level adds
    n_anchors times its one value.  A window level's box sums come from
    `_box_sums` in blocks of `block` first-axis anchor rows, about
    `_WINDOW_BLOCK` values over a whole chunk.  The buffers, sized once for
    chunks of up to `chunk` realizations, are reused by every chunk: one
    component's periodic prefix along the first torus axis, and a block's
    first-axis window sums and values.

    With `groups`, a call also writes the group sums into the caller's
    array, each from -0.0 on, which adds to any x as x; the runs of each
    level's `_run_tables` cut the groups' columns.  Under Rademacher noise
    each run's part of a block adds its exact sum of v^p to its group's sum
    over the level, which times the level's factor goes onto the group sum
    once the level is done.  Under the other laws, once a block of values
    has been added to the totals, each run in the block is added onto its
    group's sum: the sum is written into the row just before the run's
    values, row 0 for a run that the block starts with, and those rows are
    added.  Runs go by first anchor, so none reads a row that an earlier one
    wrote; the one-column runs that open their group are copied first, all
    at once, and a whole-torus level fills the buffer with its one value.  A
    level of weight zero adds nothing to the totals, but is still visited
    when a group picks it, so its signed zeros keep their bits."""

    def __init__(self, spec: SyntheticSpec, structure: DependenceStructure, chunk: int,
                 groups: Optional[NDArray] = None):
        st = structure
        self.spec, self.d, self.L = spec, st.d, st.L
        self.packed = spec.dist == "rademacher"
        p = self.power = _POWERS.get(spec.nonlinearity)
        if self.packed:  # v^p of a block of box sums, and its sum over the anchors
            self.power_of = ",".join(("ij",) * p) + "->ij"
            self.power_sum = self.power_of.replace("->ij", "->j")
        self.levels = []
        for m in st.levels():
            hw = st.box_radius(m)
            count = min(2 * hw + 1, st.L) ** st.d
            scale = spec.weight(m) * float(st.L) ** (-st.d)
            radius = hw if 2 * hw + 1 < st.L else None
            n_anchors = st.lattice_count(m) ** st.d
            exact, factor = None, 0.0
            if self.packed:
                worst = count ** p * (1 if radius is None else n_anchors)
                if worst >= 1 << 63:
                    raise UsageError(
                        f"level {m} of d={st.d} L={st.L} K={st.K}: its exact sums of v^{p} "
                        f"reach {'' if radius is None else f'{n_anchors} x '}{count}^{p} "
                        ">= 2^63; choose a smaller L")
                # float64 while exact: its einsums run faster than int64's
                exact = np.float64 if radius is not None and worst < 1 << 53 else np.int64
                factor = scale / (count ** ((p - 1) // 2) * math.sqrt(count))
            self.levels.append(_Level(m=m, scale=scale, start=st.level_start(m),
                                      n_anchors=n_anchors, count=count, radius=radius,
                                      exact=exact, factor=factor))
        self.patterns = _component_patterns(spec, st.d, st.L)
        if self.packed:
            self.patterns = np.packbits(self.patterns < 0, axis=1, bitorder="little")
        self.weighted = {lv.m for lv in self.levels if spec.weight(lv.m) != 0.0}
        self.runs = {}
        if groups is not None:
            for m, (runs, lone) in _run_tables(groups, self.levels).items():
                if self.packed:
                    touched, g = np.unique(runs[:, 2], return_inverse=True)
                    self.runs[m] = (runs[:, 0], runs[:, 1], g, touched)
                else:
                    self.runs[m] = (runs[lone][:, ::2].T, runs[~lone])
        self.visited = [lv for lv in self.levels
                        if lv.m in self.weighted or lv.m in self.runs]
        self.w_max = max((2 * lv.radius + 1 for lv in self.visited
                          if lv.radius is not None), default=0)
        cross = st.L ** (st.d - 1)  # cells of one first-axis row
        self.block = max(1, _WINDOW_BLOCK // (chunk * cross))
        self.prefix = _prefix_array((st.L, cross * chunk), self.w_max,
                                    "i" if self.packed else "f")[0].ravel()
        self.sums = np.empty(self.block * cross * chunk, dtype=self.prefix.dtype)
        self.rows = self.block * cross + 1  # a block's values and the row before them
        self.vals = np.empty(self.rows * chunk)
        self.row = np.empty(chunk)

    def _map(self, lv: _Level, sums: NDArray, out: NDArray[np.float64]) -> None:
        """Write the values of level lv's float box sums s to out, shaped
        like sums: w_m L^{-d} g(s / sqrt(count))."""
        np.divide(sums, np.sqrt(lv.count), out=out)
        np.multiply(_apply_map(self.spec.nonlinearity, out), lv.scale, out=out)

    def prefixes(self, noise: NDArray, w_max: int, buf: Optional[NDArray] = None):
        """Yield each component's `_periodic_prefix` along the first torus
        axis, in `buf` when given: under Rademacher noise the integer prefix
        of its -1/+1 cells, shape (1 + L, L, ..., L, n), its packed sign
        pattern XORed onto the packed noise; else the float prefix of its
        values, extended by w_max."""
        shape = (self.L,) * self.d + noise.shape[1:]
        for c, p in enumerate(self.patterns):  # pattern 0 is all ones
            if self.packed:
                yield _sign_prefix(noise[:len(p)] ^ p[:, None] if c else noise, shape, buf)
            else:
                yield _periodic_prefix((noise * p[:, None] if c else noise).reshape(shape),
                                       w_max, buf=buf)

    def __call__(self, noise: NDArray,
                 sums: Optional[NDArray[np.float64]] = None) -> NDArray[np.float64]:
        """The totals of a chunk's noise, (bytes or cells, n) as `_draw`
        returns it; with groups, its group sums go into `sums`, shape (n,
        n_groups, n_components)."""
        n = noise.shape[1]
        out = np.zeros((n, self.spec.n_components))
        row = self.row[:n]
        vals = self.vals[:self.rows * n].reshape(self.rows, n)
        if sums is not None:
            sums[:] = -0.0
        for c, prefix in enumerate(self.prefixes(noise, self.w_max, self.prefix)):
            acc = None if sums is None else sums[:, :, c].T  # group g's sum: acc[g]
            torus = _torus_sums(prefix, self.L)
            for lv in self.visited:
                if self.packed:
                    self._exact_level(prefix, torus, lv, row, vals, acc)
                elif lv.radius is None:
                    self._map(lv, torus, row)
                    if lv.m in self.runs:  # its one value, in blocks of the buffer
                        for a0 in range(0, lv.n_anchors, self.rows - 1):
                            k = min(self.rows - 1, lv.n_anchors - a0)
                            vals[1:k + 1] = row
                            self._add_runs(self.runs[lv.m], a0, vals[:k + 1], acc)
                    row *= lv.n_anchors
                else:
                    self._window_level(prefix, lv, row, vals, acc)
                if lv.m in self.weighted:
                    out[:, c] += row
        return out

    def _exact_level(self, prefix: NDArray, torus: NDArray, lv: _Level,
                     row: NDArray[np.float64], vals: NDArray[np.float64],
                     acc: Optional[NDArray[np.float64]]) -> None:
        """Visit level lv under Rademacher noise: write its exact sum of v^p
        over its anchors, times its factor, to row, and add each group's
        exact sum over its columns of the level, times the factor, onto
        acc[g]."""
        n, p = len(row), self.power
        runs = self.runs.get(lv.m)
        if lv.radius is None:
            vp = (torus.astype(np.int64) ** p).astype(np.float64)
            total = lv.n_anchors * vp
            if runs is not None:  # each group's anchors on the level, times v^p
                first, end, g, _ = runs
                part = np.bincount(g, weights=end - first)[:, None] * vp
        else:
            x = vals.view(lv.exact)
            total = np.zeros(n, dtype=lv.exact)
            if runs is not None:
                part = np.zeros((len(runs[3]), n), dtype=lv.exact)
            a0 = 0
            for block in _box_sums(prefix, self.d, self.L, lv.radius, 1 << lv.m, self.block,
                                   self.sums):
                v = block.reshape(-1, n)
                k = len(v)
                x[:k] = v
                total += np.einsum(self.power_sum, *(x[:k],) * p)
                if runs is not None:
                    self._exact_runs(runs, a0, x[:k], part)
                a0 += k
        np.multiply(total, lv.factor, out=row)
        if runs is not None:
            acc[runs[3]] += part * lv.factor

    def _exact_runs(self, runs: tuple, a0: int, x: NDArray, part: NDArray) -> None:
        """Add the exact sums of v^p over the parts of a level's runs among
        anchors a0 .. a0 + k - 1, whose box sums v are the k rows of x, onto
        their groups' rows of part: the one-anchor parts all at once, the
        others one by one, since numpy's cumulative sum down a block costs
        several times an einsum per part."""
        first, end, g, _ = runs
        k, p = len(x), self.power
        live = np.flatnonzero(end[:np.searchsorted(first, a0 + k)] > a0)
        s = np.maximum(first[live] - a0, 0)
        e = np.minimum(end[live] - a0, k)
        one = e - s == 1
        np.add.at(part, g[live[one]], np.einsum(self.power_of, *(x[s[one]],) * p))
        for lo, hi, gi in zip(s[~one].tolist(), e[~one].tolist(), g[live[~one]].tolist()):
            part[gi] += np.einsum(self.power_sum, *(x[lo:hi],) * p)

    def _window_level(self, prefix: NDArray, lv: _Level, row: NDArray[np.float64],
                      vals: NDArray[np.float64], acc: Optional[NDArray[np.float64]]) -> None:
        """Visit window level lv: write its sum over its anchors to row, if
        it is weighted, and add its runs onto the group sums in acc.  Each
        block of the level's `_box_sums`, k anchors in C-order, is mapped
        into rows 1 .. k of vals, added after the running row and then
        run by run."""
        n = len(row)
        weighted = lv.m in self.weighted
        runs = self.runs.get(lv.m)
        row[:] = -0.0
        a0 = 0
        for block in _box_sums(prefix, self.d, self.L, lv.radius, 1 << lv.m, self.block,
                               self.sums):
            block = block.reshape(-1, n)
            k = len(block)
            self._map(lv, block, vals[1:k + 1])
            if weighted:
                vals[0] = row
                _add_rows(vals[:k + 1], row)
            if runs is not None:
                self._add_runs(runs, a0, vals[:k + 1], acc)
            a0 += k

    @staticmethod
    def _add_runs(tables: tuple, a0: int, vals: NDArray[np.float64],
                  acc: NDArray[np.float64]) -> None:
        """Add the parts of a level's runs, `_run_tables`' (lone, runs), among
        anchors a0 .. a0 + k - 1, whose values are rows 1 .. k of vals, onto
        their group sums acc[g], overwriting rows 0 .. k - 1."""
        (lone, lone_groups), runs = tables
        k = len(vals) - 1
        lo, hi = np.searchsorted(lone, (a0, a0 + k))
        acc[lone_groups[lo:hi]] = vals[lone[lo:hi] - a0 + 1]
        runs = runs[:np.searchsorted(runs[:, 0], a0 + k)]
        for first, end, g in runs[runs[:, 1] > a0].tolist():
            s = max(first - a0, 0)  # the row before the run's values
            vals[s] = acc[g]
            _add_rows(vals[s:min(end - a0, k) + 1], acc[g])


def _check_enumerable(spec: SyntheticSpec, structure: DependenceStructure) -> None:
    """Refuse a family that `brute_force_law` cannot enumerate: it needs
    scalar Rademacher noise on at most 20 cells."""
    if spec.dist != "rademacher":
        raise UsageError("exact enumeration requires Rademacher noise")
    if spec.n_components != 1:
        raise UsageError("exact enumeration covers scalar families")
    cells = structure.L ** structure.d
    if cells > 20:
        raise UsageError(f"enumeration over 2^{cells} configurations refused (> 2^20)")


def brute_force_law(spec: SyntheticSpec, structure: DependenceStructure) -> DiscreteLaw:
    """Exact law of the scalar total under Rademacher noise by enumerating
    all 2^{L^d} configurations (L^d <= 20)."""
    _check_enumerable(spec, structure)
    cells = structure.L ** structure.d
    n_cfg = 1 << cells
    # configuration k sets cell c where bit c of k is set: packed as `_draw`
    # packs, byte b of k holds cells 8b .. 8b+7
    octets = ((np.arange(n_cfg)[None, :] >> 8 * np.arange(-(-cells // 8))[:, None])
              & 255).astype(np.uint8)
    totals = _SyntheticTotals(spec, structure, n_cfg)(octets)[:, 0]
    values, counts = np.unique(np.round(totals, 12), return_counts=True)
    return DiscreteLaw(values=values, probs=counts / n_cfg)


# ---------------------------------------------------------------------------
# Monte Carlo driver


def monte_carlo(spec: SyntheticSpec, structure: DependenceStructure, n: int,
                master_seed: int, groups=None, chunk_size: int = 4096):
    """Draw n realizations of the total of the synthetic family `spec`, and
    optionally sums of per-index values over groups of indices.

    Realization k is a pure function of (master_seed, k), so results do not
    depend on `chunk_size`, which only bounds the realizations in memory at
    once.  Returns the (n, n_components) totals, of which one that is not
    finite raises UsageError, or with `groups`, an int array of shape
    (n_groups, group_len) holding index columns, a pair (totals, sums):
    sums[k, g] is the sum of realization k's values over the columns
    groups[g], shape (n, n_groups, n_components), added one after the other
    under the float laws, and `np.arange(n_indices)[:, None]` gives the
    per-index values themselves.  The columns run level by level from level
    0, each level in the C-order of its anchors y / 2^m
    (`DependenceStructure.positions`), and each group's columns must be
    strictly ascending, the order of the pass.  A grouped run takes the totals of a plain run, bit for bit, in
    the same pass (`_SyntheticTotals`), which adds each block of a level's
    values onto the group sums that hold them as it maps the level's box
    sums.  Under Rademacher noise each level's part of a total or group sum
    is its exact integer sum of v^p times one factor, so those bits hold on
    any CPU; a level whose sums could reach 2^63 (d=1 L=2^20, d=2 L=1024,
    d=3 L >= 64 at K=2) raises UsageError, naming the level, before any
    noise is drawn.
    """
    if n < 1:
        raise UsageError("need n >= 1 realizations")
    if not isinstance(spec, SyntheticSpec):
        raise UsageError(f"monte_carlo samples a SyntheticSpec, got {type(spec).__name__}")
    sums = None
    if groups is not None:
        groups = np.asarray(groups)
        n_indices = structure.level_start(structure.max_level + 1)
        if (groups.ndim != 2 or groups.dtype.kind not in "iu" or groups.size < 1
                or not 0 <= groups.min() <= groups.max() < n_indices):
            raise UsageError("groups must be a 2-d int array of index columns "
                             f"in [0, {n_indices}): at least one group, each of at "
                             "least one column")
        groups = groups.astype(np.intp)
        if np.any(groups[:, 1:] <= groups[:, :-1]):
            raise UsageError("each group's columns must be strictly ascending")
        if n * len(groups) * spec.n_components > 2 * 10 ** 8:
            raise UsageError("group-sum storage for this run would exceed the guard; "
                             "reduce n or the number of groups")
        sums = np.empty((n, len(groups), spec.n_components))
    # A chunk's noise and periodic prefix grow with its cells, about two
    # bytes a cell under Rademacher noise, so a chunk holds at most 2^19
    # cells, but a plain one at least min(256, 2^22 // cells) realizations,
    # since fewer cost more in numpy's per-call overhead than they save:
    # the plain chunks of d=1 L >= 16384, d=2 L >= 128 and d=3 L >= 32 keep
    # their 2^22 cells.  A grouped chunk writes its group sums straight into
    # `sums` and holds no buffer that grows with the groups, but it takes no
    # floor: under the float laws a floor chunk at d=2 L=256 would trace
    # seven times the peak.  No chunk size moves a bit of the results.
    cells = structure.L ** structure.d
    cap = (1 << 19) // cells
    if groups is None:
        cap = max(cap, min(256, (1 << 22) // cells))
    chunk_size = max(1, min(chunk_size, cap))
    synthetic_totals = _SyntheticTotals(spec, structure, min(n, chunk_size), groups)
    totals = np.empty((n, spec.n_components))
    for k0 in range(0, n, chunk_size):
        count = min(chunk_size, n - k0)
        noise = _draw(structure.d, structure.L, spec.dist, master_seed, k0, count)
        totals[k0:k0 + count] = synthetic_totals(
            noise, None if sums is None else sums[k0:k0 + count])
    _samples(totals, spec.n_components)  # non-finite totals are refused, as in distances
    if groups is not None:
        return totals, sums
    return totals


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
