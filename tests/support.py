"""Test helpers that the library does not ship: a constant-bar stub for
`theorem_bound`; `LevelIndex`, a multilevel index as a named tuple, and the
conversion of `LevelIndex` lists into the (levels, anchors) arrays that
`chi_matrix` takes; the per-level (m, count, mean chi-neighbors) triples of
an explicit index list, from chi row sums, as the reference for the bound's
closed-form neighbor counts; the index set and a grouping's groups as
`LevelIndex` lists, enumerated by loops as the reference for the library's
column positions; the columns that a grouping leaves as remainders, the
check that groups share no noise cell, the box sums, per-index values and
per-level totals of a synthetic family under float noise, the Python-int
oracle of a family under Rademacher noise, the sampled check of a test
function against the restricted test class, the benchmark's three
workloads as CLI arguments, and the environment of a subprocess that imports
`mlclt` from this source tree.
"""
import functools
import itertools
import math
import os
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

import numpy as np
from quadrature_oracle import hermite_grid
from scipy.special import ndtri

import mlclt
from mlclt._util import UsageError
from mlclt.fields import _box_sums, _torus_sums
from mlclt.multilevel import chi_matrix, periodic_distance

# perfbench's workloads, run with --seed 2026 in the tests that use them
WORKLOADS = {
    "rate-d1": "clt-rate --preset cube --d 1 --L 16,32,64,128,256,512 --n-samples 20000",
    "certify": "stein-certify --n-dim 1 --eps 0.25",
    "moderate": "moderate --preset cube --d 1 --L 1024 --ell 512 --n-samples 20000",
}


def source_env(**env) -> dict:
    """`os.environ` for a subprocess that imports `mlclt` from this source
    tree, with `env` set; a None value unsets the name."""
    src = str(Path(mlclt.__file__).resolve().parents[1])
    full = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for name, value in env.items():
        full.pop(name, None)
        if value is not None:
            full[name] = value
    return full


@dataclass(frozen=True)
class FixedBars:
    """Bars of one constant value, read by `theorem_bound` as it reads
    `BarConstants`: calibration and regression values of the bound."""

    value: float = 1.0
    s: float = 1.0

    def _const(self, *levels) -> float:
        return self.value

    xbar = wbar = zbar = zbar2 = ybar = _const


class LevelIndex(NamedTuple):
    """A multilevel index: level m and lattice anchor y (tuple of ints)."""

    m: int
    y: tuple


def index_arrays(structure, indices) -> tuple:
    """Levels, shape (n,), and anchors, shape (n, d), of a LevelIndex list."""
    levels = np.array([i.m for i in indices], dtype=np.int64)
    anchors = np.array([i.y for i in indices], dtype=np.int64)
    return levels, anchors.reshape(len(levels), structure.d)


def neighbor_triples(structure, indices) -> list:
    """(m, count, mean chi-neighbors) of each level that an index list holds,
    levels ascending: the count of its indices and the mean number of them
    that chi pairs with each one, itself included."""
    triples = []
    for m in sorted({i.m for i in indices}):
        at = index_arrays(structure, [i for i in indices if i.m == m])
        triples.append((m, len(at[0]), float(chi_matrix(structure, at).sum()) / len(at[0])))
    return triples


def lattice(structure, m: int) -> list:
    """The level-m anchors, 2^m Z^d cap [0, L)^d, in C-order."""
    return list(itertools.product(range(0, structure.L, 1 << m), repeat=structure.d))


def build_index_set(structure) -> list:
    """Every index (m, y), m = 0 .. 1 + floor(log2 L), level by level, each
    level's anchors in C-order: entry c is the index of column c."""
    return [LevelIndex(m, y) for m in structure.levels() for y in lattice(structure, m)]


def grouping_oracle(structure, ell: int) -> list:
    """The groups of `moderate_grouping(structure, ell)` as LevelIndex lists,
    by the loop that enumerated them: anchors on the ell-lattice in C-order;
    for each, levels m = 0 .. m0 in turn, and the offsets of each level's
    interior window in C-order."""
    st = structure
    klog = st.K * st.log_l
    m0 = int(math.floor(math.log2(ell / (4.0 * klog)))) if ell > 4.0 * klog else -1
    cap = int(math.log2(st.L))
    anchors = list(itertools.product(range(0, st.L, ell), repeat=st.d))
    groups: dict = {}
    for m in range(m0 + 1):
        margin = 1 << min(cap, max(m, int(math.ceil(math.log2(2.0 ** (m + 2) * klog)))))
        for anchor in anchors:
            for offs in itertools.product(range(0, ell, 1 << m), repeat=st.d):
                if all(margin <= o < ell - margin for o in offs):
                    y = tuple((a + o) % st.L for a, o in zip(anchor, offs))
                    groups.setdefault(anchor, []).append(LevelIndex(m, y))
    return list(groups.values())


def remainder_columns(structure, groups) -> np.ndarray:
    """The sorted columns of the index set that no group holds."""
    return np.setdiff1d(np.arange(len(build_index_set(structure))), groups)


def groups_disjoint(structure, groups) -> bool:
    """True iff the noise supports of distinct groups, each a sequence of
    index columns, share no cell (vacuously true with fewer than two
    nonempty groups).  Two support boxes share a cell iff on every axis the
    periodic distance of their anchors is at most the sum of their integer
    half-widths.  It compares every pair of indices of every pair of groups,
    O(pairs x group_len^2)."""
    st = structure
    indices = build_index_set(st)
    boxes = [(np.array([st.box_radius(indices[c].m) for c in g]),
              np.array([indices[c].y for c in g])) for g in groups if len(g)]
    for a, (radius_a, anchors_a) in enumerate(boxes):
        for radius_b, anchors_b in boxes[a + 1:]:
            delta = periodic_distance(anchors_a[:, None, :], anchors_b[None, :, :], st.L)
            reach = radius_a[:, None, None] + radius_b[None, :, None]
            if (delta <= reach).all(axis=2).any():
                return False
    return True


@lru_cache(maxsize=16)
def ball_points(dim: int, m: int = 256):
    """Deterministic low-discrepancy points in the closed unit ball of R^dim:
    an unscrambled Halton sequence mapped through the direction/radius
    construction, with the origin first, shape (m + 1, dim).  Oscillations
    estimated over these points are lower bounds on the true ones."""
    from scipy.stats import qmc  # about a second to import
    h = qmc.Halton(d=dim + 1, scramble=False)
    h.fast_forward(1)  # skip the origin of the sequence
    u = h.random(m)
    direction = ndtri(np.clip(u[:, :dim], 1e-12, 1 - 1e-12))
    norms = np.linalg.norm(direction, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    radius = u[:, dim:] ** (1.0 / dim)
    pts = np.vstack([np.zeros((1, dim)), direction / norms * radius])
    pts.setflags(write=False)
    return pts


@dataclass(frozen=True)
class MembershipReport:
    passed: bool
    worst_osc_ratio: float
    worst_gradient: float


_OSC_SAFETY = 1.05  # sampled oscillations are lower bounds; allow 5% headroom


def class_membership_check(phi, lam, lbar: float, r_grid, x0_grid) -> MembershipReport:
    """Check phi, a callable on (m, dim) arrays, against the restricted test
    class for N(0, lam), lam an `SpdMatrix`: |grad phi| <=
    lbar (central differences at probe points), and the averaged ball
    oscillation, the integral of osc_r phi(x) N_Lambda(x - x0) dx, at most r
    for every r in r_grid and x0 in x0_grid.  Oscillations are sampled over
    257 ball points, so the ratios are lower bounds and the pass threshold
    allows 5%.  A NaN gradient or ratio fails."""
    if lbar <= 0:
        raise UsageError("lbar must be positive")
    dim = lam.dim
    pts, wts = hermite_grid(dim, 32 if dim <= 2 else 16)
    ball = ball_points(dim)
    worst_ratio = worst_grad = 0.0
    for x0 in x0_grid:
        nodes = pts @ lam.sqrt().T + np.atleast_1d(np.asarray(x0, dtype=float))
        worst_grad = float(np.maximum(
            worst_grad, _max_gradient(phi, nodes[::max(1, len(nodes) // 32)])))
        for r in r_grid:
            if r <= 0:
                raise UsageError("oscillation radii must be positive")
            cloud = nodes[:, None, :] + r * ball[None, :, :]
            vals = phi(cloud.reshape(-1, dim)).reshape(len(nodes), -1)
            ratio = float(wts @ (vals.max(axis=1) - vals.min(axis=1))) / r
            worst_ratio = float(np.maximum(worst_ratio, ratio))
    passed = worst_ratio <= _OSC_SAFETY and worst_grad <= lbar * (1.0 + 1e-6)
    return MembershipReport(passed=passed, worst_osc_ratio=worst_ratio,
                            worst_gradient=worst_grad)


def _max_gradient(phi, points, step: float = 1e-5) -> float:
    grads = np.zeros_like(points)
    for k in range(points.shape[1]):
        e = np.zeros(points.shape[1])
        e[k] = step
        grads[:, k] = (phi(points + e) - phi(points - e)) / (2 * step)
    return float(np.max(np.linalg.norm(grads, axis=1)))


def level_box_sums(levels, noise, chosen):
    """Yield (level, component, sums) component by component, each over the
    levels `chosen` in level order: a level's whole array of box sums, one
    axis of anchors per torus axis and then the realizations, or on a
    whole-torus level one sum per realization standing for every anchor.
    `noise` is as `fields._draw` gives it for a float law, (cells, n).  Each
    component's boxes come from one periodic prefix along the first axis
    (`fields._box_sums`, its blocks stacked, and `fields._torus_sums`)."""
    w_max = max((2 * lv.radius + 1 for lv in chosen if lv.radius is not None), default=0)
    for c, prefix in enumerate(levels.prefixes(noise, w_max)):
        torus = _torus_sums(prefix, levels.L)
        for lv in chosen:
            yield lv, c, (torus if lv.radius is None else np.concatenate(list(
                _box_sums(prefix, levels.d, levels.L, lv.radius, 1 << lv.m, levels.L))))


def index_values(levels, noise) -> np.ndarray:
    """The (n, n_indices, n_components) per-index values of float noise in
    the index set's column order, each level's whole array of box sums
    mapped by `levels._map`: the reference for the values that a grouped
    `monte_carlo` picks block by block."""
    n = noise.shape[1]
    n_indices = sum(lv.n_anchors for lv in levels.levels)
    out = np.empty((n, n_indices, levels.spec.n_components))
    for lv, c, sums in level_box_sums(levels, noise, levels.levels):
        vals = np.empty(sums.shape)
        levels._map(lv, sums, vals)
        out[:, lv.start:lv.start + lv.n_anchors, c] = vals.reshape(-1, n).T
    return out


def per_level_totals(levels, noise) -> np.ndarray:
    """The (n, n_components) totals of float noise that
    `fields._SyntheticTotals` must match bit for bit, from each weighted
    level's whole array of values (`level_box_sums` mapped by
    `levels._map`), component by component and on each in level order: a
    window level's anchors added one after the other in C-order, from the
    first anchor's value on, and a whole-torus level as n_anchors times its
    one value."""
    n = noise.shape[1]
    out = np.zeros((n, levels.spec.n_components))
    weighted = [lv for lv in levels.levels if levels.spec.weight(lv.m) != 0.0]
    for lv, c, sums in level_box_sums(levels, noise, weighted):
        vals = np.empty(sums.shape)
        levels._map(lv, sums, vals)
        if lv.radius is None:
            out[:, c] += lv.n_anchors * vals
        else:
            out[:, c] += functools.reduce(np.add, vals.reshape(-1, n))
    return out


class ExactFamily(NamedTuple):
    """A Rademacher family's Monte Carlo output from `exact_family`."""

    totals: np.ndarray  # (n, n_components)
    values: np.ndarray  # (n, n_indices, n_components)
    sums: np.ndarray  # (n, n_groups, n_components); (n, 0, n_components) without groups


def exact_family(spec, structure, rows, groups=()) -> ExactFamily:
    """The Python-int oracle of the Rademacher family `spec` on the (n,
    cells) -1/+1 noise rows, C-order cells, for the map g(x) = x^p.

    Component c >= 1 flips the cells whose first coordinate x_1 has bit c - 1
    set.  Each index's box sum v holds every cell within periodic distance
    box_radius(m) of y on each axis, or the whole torus where the box is L
    wide: read by inclusion-exclusion over the box's 2^d corners from the
    int64 integral image of the torus tiled three times per axis.  Every sum
    of v^p over a level's anchors is a Python int, and only that sum times
    the level's factor, w_m L^{-d} / (c^{(p-1)/2} sqrt(c)) for boxes of c
    cells, is a float.  An index's value is its v^p times the factor; the
    totals add the weighted levels' sums from 0.0 in level order, and each
    group sum the sums over its columns of each level that holds some, from
    -0.0 in level order."""
    st, p = structure, {"identity": 1, "cube": 3}[spec.nonlinearity]
    n, d, L = len(rows), structure.d, structure.L
    x1 = np.arange(L ** d) // L ** (d - 1)
    values = np.empty((n, len(build_index_set(st)), spec.n_components))
    totals = np.zeros((n, spec.n_components))
    sums = np.full((n, len(groups), spec.n_components), -0.0)
    for c in range(spec.n_components):
        signs = np.where(x1 >> (c - 1) & 1, -1, 1) if c else 1
        grid = (rows * signs).astype(np.int64).T.reshape((L,) * d + (n,))
        image = np.pad(np.tile(grid, (3,) * d + (1,)), [(1, 0)] * d + [(0, 0)])
        for axis in range(d):
            np.cumsum(image, axis=axis, out=image)
        for m in st.levels():
            cols = np.arange(st.level_start(m), st.level_start(m + 1))
            r = st.box_radius(m)
            if 2 * r + 1 >= L:
                v = np.broadcast_to(grid.reshape(-1, n).sum(axis=0), (len(cols), n))
            else:
                y = np.array(lattice(st, m)).reshape(len(cols), d)
                v = sum((-1) ** sum(corner) * image[tuple(y[:, a] + L + (r + 1 if hi else -r)
                                                          for a, hi in enumerate(corner))]
                        for corner in itertools.product((0, 1), repeat=d)) * (-1) ** d
            vp = v.T.astype(object) ** p  # (n, anchors) Python ints
            count = min(2 * r + 1, L) ** d
            factor = (spec.weight(m) * float(L) ** (-d)
                      / (count ** ((p - 1) // 2) * math.sqrt(count)))
            values[:, cols, c] = vp.astype(float) * factor
            if spec.weight(m) != 0.0:
                totals[:, c] += vp.sum(axis=1).astype(float) * factor
            for g, group in enumerate(groups):
                mine = np.intersect1d(group, cols) - cols[0]
                if len(mine):
                    sums[:, g, c] += vp[:, mine].sum(axis=1).astype(float) * factor
    return ExactFamily(totals, values, sums)
