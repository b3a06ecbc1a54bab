"""Multilevel local dependence on the discrete torus: the index set's column
order, dependency indicators, bar-constant budgets, the epsilon/ell choices,
and the assembled normal-approximation bound.

Conventions: the lattice is Z^d mod L; level m lives on the sublattice
2^m Z^d with levels 0 .. 1 + floor(log2 L); the index (m, y) owns the
periodic support box y + K log2(L) [-2^m, 2^m]^d.  All lattice logarithms are
base 2.  Named policy constants (the unspecified C(d, gamma, ...) factors)
default to 1 and are configurable through a single table.

The index set travels as column positions, in the one order that
`DependenceStructure.positions` defines.  The support-box geometry lives only
in this module.  An index is a level m and an anchor y; a set of indices is a
pair of int arrays (levels, anchors) of shapes (n,) and (n, d).  `chi_matrix`
is the one pair test: it broadcasts two such pairs into the boolean matrix of
pair indicators, from the periodic box gaps that `periodic_distance` gives
per axis.  The bound's same-level neighbour counts read their per-axis reach
from it.  `box_radius` serves the synthetic sampler.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np
from numpy.typing import NDArray

from ._util import UsageError
from .gaussians import SpdMatrix

__all__ = [
    "DependenceStructure",
    "chi_matrix",
    "periodic_distance",
    "BarConstants",
    "bar_constants",
    "choose_eps_ell",
    "theorem_bound",
    "BoundReport",
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
}


def _policy(policy: Optional[Mapping[str, float]]) -> dict[str, float]:
    table = dict(DEFAULT_POLICY)
    if policy:
        unknown = set(policy) - set(table)
        if unknown:
            raise UsageError(f"unknown policy keys: {sorted(unknown)}")
        table.update({k: float(v) for k, v in policy.items()})
        bad = {k: v for k, v in table.items() if not (v > 0 and math.isfinite(v))}
        if bad:
            raise UsageError(f"policy constants must be finite and positive, got {bad}")
    return table


def _check_constants(K: float, gamma: Optional[float], B: Optional[float]) -> None:
    """Refuse structure constants other than finite K >= 1, gamma > 0 and
    B > 0; a gamma or B of None is not given and passes."""
    if not (math.isfinite(K) and K >= 1 and all(
            v is None or (math.isfinite(v) and v > 0) for v in (gamma, B))):
        raise UsageError(f"need finite K >= 1, gamma > 0, B > 0, got "
                         f"K={K}, gamma={gamma}, B={B}")


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
        _check_constants(self.K, self.gamma, self.B)

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

    def level_start(self, m: int) -> int:
        """Column of level m's first index; level_start(max_level + 1) is the
        number of indices."""
        return sum(self.lattice_count(k) ** self.d for k in range(m))

    def positions(self, m: int, y) -> NDArray[np.intp]:
        """Columns of the level-m indices anchored at y, an int array whose
        last axis holds anchors on 2^m Z^d cap [0, L)^d.  This is the index
        set's column order: level by level from level 0, each level in the
        C-order of y / 2^m."""
        y = np.moveaxis(np.asarray(y) >> m, -1, 0)
        return self.level_start(m) + np.ravel_multi_index(
            tuple(y), (self.lattice_count(m),) * self.d)

    def halfwidth(self, m):
        """Half-width of the support box of a level-m index (m may be an array)."""
        return self.K * self.log_l * (1 << m)

    def box_radius(self, m: int) -> int:
        """Integer half-width: a level-m box holds the cells this close to its anchor."""
        return int(math.floor(self.halfwidth(m)))


def periodic_distance(a, b, L: int):
    """Elementwise distance of integer coordinates a and b on Z mod L (broadcasting)."""
    delta = np.abs(a % L - b % L)
    return np.minimum(delta, L - delta)


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


def chi_matrix(structure: DependenceStructure, rows, cols=None) -> NDArray[np.bool_]:
    """Pair dependency indicators chi(i, j), i in rows and j in cols (default
    rows), each a (levels, anchors) pair of int arrays of shapes (n,) and
    (n, d), as a boolean (n_rows, n_cols) matrix: 1 iff the support boxes
    come within 2 * 2^{max(m_i, m_j)} K log2(L)."""
    cols = rows if cols is None else cols
    top = np.maximum.outer(rows[0], cols[0])
    return _box_gaps(structure, rows, cols) <= 2.0 * (1 << top) * structure.K * structure.log_l


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


def _neighbor_count(structure: DependenceStructure, m: int) -> float:
    """Mean number of same-level chi-neighbors of a level-m index, itself
    included: the d-th power of the mean along one axis, since equal
    half-widths make chi a bound on the anchors' periodic distance per axis.
    When 2^m does not divide L, anchors near the wrap have more neighbors."""
    st = structure
    # the largest anchor distance along one axis that chi accepts, from its
    # test of the anchor 0 against delta e_1, delta = 0 .. L // 2
    along = np.zeros((st.L // 2 + 1, st.d), dtype=np.int64)
    along[:, 0] = np.arange(len(along))
    origin = (np.array([m]), np.zeros((1, st.d), dtype=np.int64))
    reach = int(chi_matrix(st, origin, (np.full(len(along), m), along)).sum()) - 1
    axis = np.arange(0, st.L, 1 << m)
    ext = np.concatenate([axis - st.L, axis, axis + st.L])
    # a window longer than L counts some anchors twice, and all are within
    near = np.searchsorted(ext, axis + reach, "right") - np.searchsorted(ext, axis - reach, "left")
    return float((np.minimum(near, len(axis)).sum() / len(axis)) ** st.d)


def theorem_bound(structure: DependenceStructure, lam: SpdMatrix, bars,
                  eps: float, ell: int,
                  policy: Optional[Mapping[str, float]] = None) -> BoundReport:
    """Assemble the normal-approximation bound and its side condition.

    `bars` is any object with the `BarConstants` methods xbar, wbar, zbar,
    zbar2 and ybar and the deviation parameter s.  The level-resolved
    budgets are summed in closed form over the full index set: bar values
    depend only on levels, so same-level neighbor sums reduce to counts.

    The tail remainder uses the analytic surrogate
    c_tail |Lambda^{-1}| N^{3/2} eps^{-N} (K log2 L)^{2d} B^3 L^{-2d} L^{-S/2}.
    """
    st = structure
    counts = [(m, st.lattice_count(m) ** st.d, _neighbor_count(st, m)) for m in st.levels()]
    return _bound_from_counts(st, lam, bars, eps, ell, counts, policy)


def _bound_from_counts(structure: DependenceStructure, lam: SpdMatrix, bars,
                       eps: float, ell: int, counts,
                       policy: Optional[Mapping[str, float]] = None) -> BoundReport:
    """`theorem_bound` summed over (m, count, mean chi-neighbors) triples,
    one per level, in the order given."""
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
