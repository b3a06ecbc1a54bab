"""Multilevel local dependence on the discrete torus: index sets, dependency
indicators, neighborhood aggregates, bar-constant budgets, the epsilon/ell
choices, and the assembled normal-approximation bound.

Conventions: the lattice is Z^d mod L; level m lives on the sublattice
2^m Z^d with levels 0 .. 1 + floor(log2 L); the index (m, y) owns the
periodic support box y + K log2(L) [-2^m, 2^m]^d.  All lattice logarithms are
base 2.  Named policy constants (the unspecified C(d, gamma, ...) factors)
default to 1 and are configurable through a single table.

The support-box geometry lives only in this module.  `chi_matrix` broadcasts
the levels and anchors of two index lists into the boolean matrix of pair
indicators; `chi`, `chi3` and `box_distance` are single-pair views of it, and
`periodic_distance` and `box_radius` serve the field sampler and the groups.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np
from numpy.typing import NDArray

from ._util import UsageError
from .gaussians import SpdMatrix

__all__ = [
    "LevelIndex",
    "DependenceStructure",
    "MultilevelSample",
    "build_index_set",
    "box_distance",
    "chi",
    "chi3",
    "chi_matrix",
    "periodic_distance",
    "lift",
    "aggregates",
    "BarConstants",
    "bar_constants",
    "FixedBars",
    "choose_eps_ell",
    "theorem_bound",
    "BoundReport",
    "variance_norm_bound",
    "lambda_matrix",
    "DEFAULT_POLICY",
]

_L_MAX = 2 ** 20  # exact float arithmetic guard for lattice coordinates

DEFAULT_POLICY: dict[str, float] = {
    "c_bar": 1.0,        # bar-constant prefactors
    "c_eps": 1.0,        # prefactor of the epsilon choice
    "c_ell": 1.0,        # prefactor of the ell threshold
    "c_bound": 1.0,      # prefactor of the assembled bound terms
    "c_condition": 1.0,  # condition requires LHS <= 1 / c_condition
    "c_tail": 1.0,       # prefactor of the tail-remainder surrogate
    "c_variance": 1.0,   # prefactor of the variance-norm budget
}


def _policy(policy: Optional[Mapping[str, float]]) -> dict[str, float]:
    table = dict(DEFAULT_POLICY)
    if policy:
        unknown = set(policy) - set(table)
        if unknown:
            raise UsageError(f"unknown policy keys: {sorted(unknown)}")
        table.update({k: float(v) for k, v in policy.items()})
    return table


class LevelIndex(NamedTuple):
    """A multilevel index: level m and lattice anchor y (tuple of ints)."""

    m: int
    y: tuple


@dataclass(frozen=True)
class DependenceStructure:
    """Parameters of a multilevel locally dependent family on (Z mod L)^d."""

    d: int
    L: int
    K: float = 2.0
    gamma: float = 1.0
    B: float = 1.0

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise UsageError(f"d must be 1, 2 or 3, got {self.d}")
        if not (2 <= self.L <= _L_MAX):
            raise UsageError(f"L must lie in [2, {_L_MAX}], got {self.L}")
        if self.K < 1 or self.gamma <= 0 or self.B <= 0:
            raise UsageError("need K >= 1, gamma > 0, B > 0")

    @property
    def log_l(self) -> float:
        """log2(L); all lattice logarithms are base 2."""
        return math.log2(self.L)

    @property
    def max_level(self) -> int:
        return 1 + int(math.floor(math.log2(self.L)))

    def levels(self) -> range:
        return range(self.max_level + 1)

    def lattice_count(self, m: int) -> int:
        """Points per axis of 2^m Z cap [0, L)."""
        return -(-self.L // (1 << m))

    def lattice(self, m: int) -> list[tuple]:
        return list(itertools.product(range(0, self.L, 1 << m), repeat=self.d))

    def halfwidth(self, m):
        """Half-width of the support box of a level-m index (m may be an array)."""
        return self.K * self.log_l * (1 << m)

    def box_radius(self, m: int) -> int:
        """Integer half-width: a level-m box holds the cells this close to its anchor."""
        return int(math.floor(self.halfwidth(m)))


@dataclass(frozen=True)
class MultilevelSample:
    """One realization of a multilevel family: a value in R^N per index."""

    structure: DependenceStructure
    values: dict

    def total(self) -> NDArray[np.float64]:
        return np.sum(list(self.values.values()), axis=0)

    def indices(self) -> list[LevelIndex]:
        return list(self.values.keys())


def build_index_set(structure: DependenceStructure) -> list[LevelIndex]:
    """All indices (m, y), m = 0 .. 1 + floor(log2 L), y in 2^m Z^d cap [0,L)^d."""
    out = []
    for m in structure.levels():
        out.extend(LevelIndex(m, y) for y in structure.lattice(m))
    return out


def periodic_distance(a, b, L: int):
    """Elementwise distance of integer coordinates a and b on Z mod L (broadcasting)."""
    delta = np.abs(a % L - b % L)
    return np.minimum(delta, L - delta)


def _arrays(structure: DependenceStructure, indices: Sequence[LevelIndex]):
    """Levels, shape (n,), and anchors, shape (n, d), of the given indices."""
    levels = np.array([i.m for i in indices], dtype=np.int64)
    anchors = np.array([i.y for i in indices], dtype=np.int64)
    return levels, anchors.reshape(len(levels), structure.d)


def _box_gaps(structure: DependenceStructure, rows, cols) -> NDArray[np.float64]:
    """(n_rows, n_cols) periodic sup-distances between support boxes, given
    (levels, anchors) arrays: per axis max(0, delta - h_row - h_col)."""
    (mr, yr), (mc, yc) = rows, cols
    hr = structure.halfwidth(mr)[:, None]
    hc = structure.halfwidth(mc)[None, :]
    gap = np.zeros((len(mr), len(mc)))
    for a in range(structure.d):
        delta = periodic_distance(yr[:, None, a], yc[None, :, a], structure.L)
        np.maximum(gap, delta - hr - hc, out=gap)
    return gap


def _dependent(structure: DependenceStructure, rows, cols, level: int = 0):
    """Boolean (n_rows, n_cols) matrix: boxes within 2 * 2^top K log2(L), top the
    larger level of the pair or `level` (the larger of the two thresholds)."""
    thresh = [2.0 * (1 << np.maximum(m, level)) * structure.K * structure.log_l
              for m in (rows[0], cols[0])]
    return _box_gaps(structure, rows, cols) <= np.maximum.outer(*thresh)


def chi_matrix(structure: DependenceStructure, rows: Sequence[LevelIndex],
               cols: Optional[Sequence[LevelIndex]] = None) -> NDArray[np.bool_]:
    """Pair dependency indicators chi(i, j), i in rows and j in cols (default
    rows), as a boolean (len(rows), len(cols)) matrix."""
    r = _arrays(structure, rows)
    return _dependent(structure, r, r if cols is None else _arrays(structure, cols))


def box_distance(structure: DependenceStructure, i: LevelIndex, j: LevelIndex) -> float:
    """Periodic sup-distance between the support boxes of i and j."""
    return float(_box_gaps(structure, _arrays(structure, [i]), _arrays(structure, [j]))[0, 0])


def chi(structure: DependenceStructure, i: LevelIndex, j: LevelIndex) -> int:
    """Pair dependency indicator: 1 iff the support boxes come within
    2 * 2^{max(mi, mj)} K log2(L) of each other."""
    return int(chi_matrix(structure, [i], [j])[0, 0])


def chi3(structure: DependenceStructure, i: LevelIndex, j: LevelIndex,
         k: LevelIndex) -> int:
    """Triple dependency indicator: 1 iff k's box comes within
    2 * 2^{max(mi, mj, mk)} K log2(L) of i's box or of j's box."""
    return int(_dependent(structure, _arrays(structure, [i, j]),
                          _arrays(structure, [k]), max(i.m, j.m)).any())


def lift(structure: DependenceStructure, j: LevelIndex, n: int) -> LevelIndex:
    """Lift of index j to level n >= m(j): the level-n cell containing y(j)."""
    if not j.m <= n <= structure.max_level:
        raise UsageError(f"lift level must lie in [{j.m}, {structure.max_level}], got {n}")
    step = 1 << n
    return LevelIndex(n, tuple((c // step) * step % structure.L for c in j.y))


def aggregates(sample: MultilevelSample, i: LevelIndex, j_or_l: LevelIndex,
               expectations: Optional[Mapping] = None) -> dict:
    """Neighborhood aggregates at (i, j_or_l) for one realization.

      z_i  = sum over chi-neighbors j of X_j
      z_ij = sum over k with chi3(i, j, k) = 1 of X_k
      w_ij = X_i (x) X_j - E[X_i (x) X_j]
      y_il = sum over lower-level chi-neighbors j of i whose level-m(i) lift
             is l of (X_i (x) X_j - E[X_i (x) X_j])

    `expectations` maps ordered index pairs to E[X_i (x) X_j]; missing pairs
    count as zero (exactly centered independent pairs).
    """
    st = sample.structure
    exp = expectations or {}
    j = j_or_l
    keys = list(sample.values)
    xs = np.array([np.atleast_1d(v) for v in sample.values.values()], dtype=float)
    xi = np.atleast_1d(np.asarray(sample.values[i], dtype=float))
    xj = np.atleast_1d(np.asarray(sample.values[j], dtype=float))
    levels, anchors = every = _arrays(st, keys)
    near_i = _dependent(st, _arrays(st, [i]), every)[0]
    near_ij = _dependent(st, _arrays(st, [i, j]), every, max(i.m, j.m)).any(axis=0)
    step = 1 << i.m
    lifted = (anchors // step) * step % st.L
    below = near_i & (levels < i.m) & (j.m == i.m) & (lifted == j.y).all(axis=1)
    y_il = (np.outer(xi, xs[below].sum(axis=0))
            - sum(np.asarray(exp.get((i, keys[a]), 0.0)) for a in np.flatnonzero(below)))
    w_ij = np.outer(xi, xj) - np.asarray(exp.get((i, j), 0.0))
    return {"z_i": xs[near_i].sum(axis=0), "z_ij": xs[near_ij].sum(axis=0),
            "w_ij": w_ij, "y_il": y_il}


# ---------------------------------------------------------------------------
# bar constants


@dataclass(frozen=True)
class BarConstants:
    """Level-resolved stretched-norm budgets for the aggregates.

    With gamma1 = gamma/(gamma+1), gamma2 = gamma/(gamma+2) and lattice
    logarithm logL = log2(L):

      xbar       = c B (S logL)^{1/gamma}   L^{-d}
      wbar       = c B^2 (S logL)^{2/gamma} L^{-2d}
      zbar(m)    = c B (S logL)^{1/gamma1} (K logL)^{d+1} 2^{m d/2} L^{-d}
      zbar2(m,m')= zbar(max(m, m'))
      ybar(m)    = c B^2 (S logL)^{1/gamma2} (K logL)^d 2^{m d/2} L^{-2d}
    """

    structure: DependenceStructure
    s: float
    c: float = 1.0

    def __post_init__(self):
        if self.s <= 0:
            raise UsageError("the deviation parameter S must be positive")

    @property
    def gamma1(self) -> float:
        g = self.structure.gamma
        return g / (g + 1.0)

    @property
    def gamma2(self) -> float:
        g = self.structure.gamma
        return g / (g + 2.0)

    def _slog(self) -> float:
        return self.s * self.structure.log_l

    def xbar(self, m: int = 0) -> float:
        st = self.structure
        return self.c * st.B * self._slog() ** (1.0 / st.gamma) * st.L ** (-st.d)

    def wbar(self, mi: int = 0, mj: int = 0) -> float:
        st = self.structure
        return self.c * st.B ** 2 * self._slog() ** (2.0 / st.gamma) * st.L ** (-2 * st.d)

    def zbar(self, m: int) -> float:
        st = self.structure
        klog = st.K * st.log_l
        return (self.c * st.B * self._slog() ** (1.0 / self.gamma1)
                * klog ** (st.d + 1) * 2.0 ** (m * st.d / 2.0) * st.L ** (-st.d))

    def zbar2(self, mi: int, mj: int) -> float:
        return self.zbar(max(mi, mj))

    def ybar(self, m: int) -> float:
        st = self.structure
        klog = st.K * st.log_l
        return (self.c * st.B ** 2 * self._slog() ** (1.0 / self.gamma2)
                * klog ** st.d * 2.0 ** (m * st.d / 2.0) * st.L ** (-2 * st.d))


def bar_constants(structure: DependenceStructure, s: float,
                  policy: Optional[Mapping[str, float]] = None) -> BarConstants:
    return BarConstants(structure=structure, s=s, c=_policy(policy)["c_bar"])


@dataclass(frozen=True)
class FixedBars:
    """Constant bar values, for calibration and regression tests."""

    structure: DependenceStructure
    s: float = 1.0
    value: float = 1.0

    def xbar(self, m: int = 0) -> float:
        return self.value

    def wbar(self, mi: int = 0, mj: int = 0) -> float:
        return self.value

    def zbar(self, m: int) -> float:
        return self.value

    def zbar2(self, mi: int, mj: int) -> float:
        return self.value

    def ybar(self, m: int) -> float:
        return self.value


# ---------------------------------------------------------------------------
# epsilon / ell choices and the assembled bound


@dataclass(frozen=True)
class ChoiceReport:
    eps: float
    ell: int
    eps_raw: float
    ell_raw: int
    eps_clamped: bool
    ell_clamped: bool


def choose_eps_ell(structure: DependenceStructure, lam: SpdMatrix,
                   bars, policy: Optional[Mapping[str, float]] = None) -> ChoiceReport:
    """The mollification scale and level split used by the assembled bound.

    eps is 3-homogeneous in |Lambda^{-1/2}| and decays like L^{-2d} up to
    polylogarithms; it is clamped into (0, 1/2].  ell is the smallest
    nonnegative integer with 2^{ell d / 2} at or above the low-level demand,
    clamped to the maximal level.
    """
    pol = _policy(policy)
    st = structure
    s, logl = bars.s, st.log_l
    inv_sqrt = lam.inv_sqrt_operator_norm()
    g1 = st.gamma / (st.gamma + 1.0)
    g2 = st.gamma / (st.gamma + 2.0)
    eps_raw = (pol["c_eps"] * st.B ** 3 * s ** (1.0 / g2 + 1.0 / g1)
               * st.K ** (3 * st.d + 2)
               * logl ** (3 * st.d + 2 + 1.0 / g2 + 1.0 / g1)
               * inv_sqrt ** 3 * st.L ** (-2 * st.d))
    eps = min(eps_raw, 0.5)
    demand = (pol["c_ell"] * st.B ** 2 * s ** (1.0 / g2) * st.K ** (2 * st.d)
              * lam.inv_operator_norm()
              * abs(math.log(st.B ** 3 * inv_sqrt ** 3 * st.L ** (-2 * st.d)))
              * logl ** (2 * st.d + 1.0 / g2) * st.L ** (-st.d))
    if demand <= 1.0:
        ell_raw = 0
    else:
        ell_raw = int(math.ceil(2.0 * math.log2(demand) / st.d))
    ell = min(ell_raw, st.max_level)
    return ChoiceReport(eps=eps, ell=ell, eps_raw=eps_raw, ell_raw=ell_raw,
                        eps_clamped=eps != eps_raw, ell_clamped=ell != ell_raw)


@dataclass(frozen=True)
class BoundReport:
    gaussian_term: float
    r_lowlevel: float
    r_alllevel: float
    r_tail: float
    condition_lhs: float
    condition_satisfied: bool
    eps: float
    ell: int
    dim: int
    policy: dict

    @property
    def total(self) -> float:
        return self.gaussian_term + self.r_lowlevel + self.r_alllevel + self.r_tail

    def to_json(self) -> str:
        payload = {
            "total": self.total,
            "gaussian_term": self.gaussian_term,
            "r_lowlevel": self.r_lowlevel,
            "r_alllevel": self.r_alllevel,
            "r_tail": self.r_tail,
            "condition_lhs": self.condition_lhs,
            "condition_satisfied": self.condition_satisfied,
            "eps": self.eps,
            "ell": self.ell,
            "dim": self.dim,
            "policy": self.policy,
            "log_base_lattice": 2,
            "log_eps_base": "natural",
        }
        return json.dumps(payload, sort_keys=True)


def _neighbor_count(structure: DependenceStructure, m: int) -> float:
    """Mean number of same-level chi-neighbors of a level-m index, itself
    included: the d-th power of the mean along one axis, since equal
    half-widths make chi a bound on the anchors' periodic distance per axis.
    When 2^m does not divide L, anchors near the wrap have more neighbors."""
    st = structure
    h = st.halfwidth(m)
    # the largest anchor distance that chi's own float test accepts
    reach = np.sum(np.arange(st.L // 2 + 1) - h - h <= 2.0 * (1 << m) * st.K * st.log_l) - 1
    axis = np.arange(0, st.L, 1 << m)
    ext = np.concatenate([axis - st.L, axis, axis + st.L])
    # a window longer than L counts some anchors twice, and all are within
    near = np.searchsorted(ext, axis + reach, "right") - np.searchsorted(ext, axis - reach, "left")
    return float((np.minimum(near, len(axis)).sum() / len(axis)) ** st.d)


def theorem_bound(structure: DependenceStructure, lam: SpdMatrix, bars,
                  eps: float, ell: int,
                  policy: Optional[Mapping[str, float]] = None,
                  indices: Optional[Sequence[LevelIndex]] = None) -> BoundReport:
    """Assemble the normal-approximation bound and its side condition.

    Default mode sums the level-resolved budgets in closed form over the full
    index set (bar values depend only on levels, so same-level neighbor sums
    reduce to counts).  With `indices` given, sums run over that explicit set
    with its own counts and chi row sums - used for calibration on tiny families.

    The tail remainder uses the analytic surrogate
    c_tail |Lambda^{-1}| N^{3/2} eps^{-N} (K log2 L)^{2d} B^3 L^{-2d} L^{-S/2}.
    """
    if not 0.0 < eps < 1.0:
        raise UsageError(f"eps must lie in (0, 1), got {eps}")
    pol = _policy(policy)
    st = structure
    n = lam.dim
    inv_sqrt = lam.inv_sqrt_operator_norm()
    inv = lam.inv_operator_norm()
    log_eps = abs(math.log(eps))
    low_pref = n ** 4.5 * inv_sqrt ** 3 / eps
    high_pref = n ** 4 * inv * log_eps

    if indices is None:
        counts = [(m, st.lattice_count(m) ** st.d, _neighbor_count(st, m))
                  for m in st.levels()]
    else:
        by_level = {m: [i for i in indices if i.m == m] for m in sorted({i.m for i in indices})}
        counts = [(m, len(at), float(chi_matrix(st, at).sum()) / len(at))
                  for m, at in by_level.items()]
    cond = r_low = r_all = 0.0
    for m, cnt, nb in counts:
        pair = nb * (bars.wbar(m, m) + 2.0 * bars.ybar(m))
        zb = bars.zbar(m)
        zb2 = bars.zbar2(m, m)
        if m <= ell:
            cond += cnt * low_pref * (pair * zb2 + bars.xbar(m) * zb ** 2)
            r_low += cnt * (pair * zb2 ** 2 + bars.xbar(m) * zb ** 3)
        else:
            cond += cnt * high_pref * (pair + bars.xbar(m) * zb)
        r_all += cnt * (pair * zb2 + bars.xbar(m) * zb ** 2)

    r_lowlevel = pol["c_bound"] * low_pref * r_low
    r_alllevel = pol["c_bound"] * n ** 4.5 * inv_sqrt ** 2 * log_eps * r_all
    r_tail = (pol["c_tail"] * inv * n ** 1.5 * eps ** (-n)
              * (st.K * st.log_l) ** (2 * st.d) * st.B ** 3
              * st.L ** (-2 * st.d) * st.L ** (-bars.s / 2.0))
    gaussian_term = pol["c_bound"] * math.sqrt(n) * lam.sqrt_operator_norm() * eps
    return BoundReport(
        gaussian_term=gaussian_term,
        r_lowlevel=r_lowlevel,
        r_alllevel=r_alllevel,
        r_tail=r_tail,
        condition_lhs=cond,
        condition_satisfied=cond <= 1.0 / pol["c_condition"],
        eps=eps, ell=ell, dim=n, policy=pol)


def variance_norm_bound(structure: DependenceStructure,
                        policy: Optional[Mapping[str, float]] = None) -> float:
    """Stretched-norm budget for the centered total:
    c B (log2 L)^{d/2} L^{-d/2}."""
    pol = _policy(policy)
    st = structure
    return pol["c_variance"] * st.B * st.log_l ** (st.d / 2.0) * st.L ** (-st.d / 2.0)


def lambda_matrix(structure: DependenceStructure, indices: Sequence[LevelIndex],
                  values: NDArray[np.float64]) -> NDArray[np.float64]:
    """Estimate Lambda = sum over chi-pairs of E[X_i (x) X_j] from per-index
    Monte Carlo values of shape (n, len(indices), dim)."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 3 or values.shape[1] != len(indices):
        raise UsageError("values must have shape (n, n_indices, dim)")
    n, n_idx, dim = values.shape
    centered = values - values.mean(axis=0, keepdims=True)
    flat = centered.reshape(n, n_idx * dim)
    cov = flat.T @ flat / n  # (n_idx * dim, n_idx * dim)
    cov = cov.reshape(n_idx, dim, n_idx, dim)
    lam = np.einsum("aibj,ab->ij", cov, chi_matrix(structure, indices).astype(float))
    return (lam + lam.T) / 2.0
