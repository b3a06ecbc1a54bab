"""Stretched-exponential norms, classical and heavy-tail concentration
bounds, and the group/remainder decomposition behind the moderate-deviation
argument."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np
from numpy.typing import NDArray
from scipy.special import ndtr

from ._util import UsageError, counter_rng
from .multilevel import DependenceStructure, LevelIndex, periodic_distance

__all__ = [
    "StretchedNorm",
    "stretched_norm",
    "normal_abs_moment",
    "bennett_bound",
    "iid_tail_bound",
    "sum_norm_certificate",
    "tail_bound_from_norm",
    "Grouping",
    "moderate_grouping",
    "groups_disjoint",
    "remainder_budget_high_levels",
    "remainder_budget_boundary",
    "CloseToGaussianReport",
    "close_to_gaussian_split",
    "moderate_tail_table",
    "bennett_tail_table",
]


# ---------------------------------------------------------------------------
# stretched-exponential norms


@dataclass(frozen=True)
class StretchedNorm:
    """Empirical exp^gamma norm sup_p p^{-1/gamma} E[|X|^p]^{1/p}.

    Estimated on a p-grid capped at log(n)/2: higher moments are not
    resolvable from n samples, so the estimate is a lower bound on the
    population norm with the cap recorded.
    """

    value: float
    gamma: float
    p_cap: float
    argmax_p: float
    n: int


_P_GRID = (1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0)


def stretched_norm(samples, gamma: float) -> StretchedNorm:
    if gamma <= 0:
        raise UsageError("gamma must be positive")
    x = np.abs(np.asarray(samples, dtype=float).ravel())
    if x.size < 2:
        raise UsageError("need at least 2 samples")
    p_cap = max(1.0, math.log(x.size) / 2.0)
    grid = sorted({p for p in _P_GRID if p <= p_cap} | {p_cap})
    best_val, best_p = -np.inf, 1.0
    for p in grid:
        v = p ** (-1.0 / gamma) * float(np.mean(x ** p)) ** (1.0 / p)
        if v > best_val:
            best_val, best_p = v, p
    return StretchedNorm(value=best_val, gamma=gamma, p_cap=p_cap,
                         argmax_p=best_p, n=x.size)


def normal_abs_moment(p: float) -> float:
    """E|Z|^p for Z standard normal: 2^{p/2} Gamma((p+1)/2) / sqrt(pi)."""
    return 2.0 ** (p / 2.0) * math.gamma((p + 1.0) / 2.0) / math.sqrt(math.pi)


def tail_bound_from_norm(t: float, norm: float, gamma: float) -> float:
    """Markov tail bound P[|X| >= t] <= min over p >= 1 of (norm p^{1/gamma} / t)^p,
    optimized numerically over a p-grid.  Clipped to 1."""
    if t <= 0 or norm <= 0:
        return 1.0
    p = np.linspace(1.0, 400.0, 2000)
    vals = p * (np.log(norm) + np.log(p) / gamma - np.log(t))
    return float(min(1.0, np.exp(vals.min())))


# ---------------------------------------------------------------------------
# classical bounds


def bennett_bound(sigma2: float, a: float, r: float, form: str = "exact") -> float:
    """Tail bound for a centered sum with variance sigma2 and increments
    bounded by a:

      exact:      exp(-(sigma2/a^2) h(a r / sigma2)),  h(x) = (1+x)log(1+x) - x
      simplified: exp(-min(r^2 / (3 sigma2), r / (3 a)))

    The exact form is never larger than the simplified form.
    """
    if sigma2 <= 0 or a <= 0:
        raise UsageError("need sigma2 > 0 and a > 0")
    if r < 0:
        raise UsageError("threshold r must be nonnegative")
    if form == "exact":
        x = a * r / sigma2
        h = (1.0 + x) * math.log1p(x) - x
        return math.exp(-sigma2 / a ** 2 * h)
    if form == "simplified":
        return math.exp(-min(r * r / (3.0 * sigma2), r / (3.0 * a)))
    raise UsageError(f"form must be 'exact' or 'simplified', got {form!r}")


def iid_tail_bound(v: float, m: int, b: float, gamma0: float, r: float) -> dict:
    """Tail bound 3 exp(-r^2 / (10 V)) for a sum of M centered independent
    terms with exp^gamma0 norms at most b and variance proxy V.

    Valid only while r <= sqrt(V) * min( sqrt(V) / (b (2 log 2M)^{1/gamma0}),
    (sqrt(V)/b)^{gamma0/(2+gamma0)} ); outside that window the Gaussian-shape
    bound is not justified and `valid` is False.
    """
    if v <= 0 or b <= 0 or m < 1 or gamma0 <= 0:
        raise UsageError("need V > 0, b > 0, M >= 1, gamma0 > 0")
    sv = math.sqrt(v)
    r_max = sv * min(sv / (b * (2.0 * math.log(2.0 * m)) ** (1.0 / gamma0)),
                     (sv / b) ** (gamma0 / (2.0 + gamma0)))
    return {"bound": min(1.0, 3.0 * math.exp(-r * r / (10.0 * v))),
            "valid": bool(r <= r_max), "r_max": r_max}


def sum_norm_certificate(component_norms: Sequence[float], gamma0: float,
                         c: float = 1.0) -> dict:
    """Budget for the exp^{gamma~} norm of a sum of M independent centered
    terms: c sqrt(M) max_i ||X_i||_{exp^gamma0}, gamma~ = gamma0/(gamma0+1)."""
    norms = [float(v) for v in component_norms]
    if not norms or min(norms) < 0:
        raise UsageError("need a nonempty list of nonnegative norms")
    m = len(norms)
    return {"gamma_tilde": gamma0 / (gamma0 + 1.0), "m": m,
            "budget": c * math.sqrt(m) * max(norms)}


# ---------------------------------------------------------------------------
# moderate-deviation grouping


@dataclass(frozen=True)
class Grouping:
    """Partition of the multilevel index set into well-separated groups plus
    remainders.

    Groups live on levels m <= m0 = floor(log2(ell / (4 K log2 L))): group i
    (i on the ell-lattice) collects indices i + j with j in the interior
    window [2^{p(m)}, ell - 2^{p(m)})^d, where p(m) is the smallest integer
    with 2^{p(m)} >= 2^{m+2} K log2(L) (capped at log2 L).  Boundary strips
    of the grouped levels and all levels above m0 are remainders.  The
    grouping is degenerate when it builds no group: when ell <= 4 K log2(L)
    there are no grouped levels at all, and when 2^{p(m)} >= ell / 2 on
    every grouped level every interior window is empty.
    """

    structure: DependenceStructure
    ell: int
    m0: int
    p: dict
    groups: dict
    remainders: dict
    degenerate: bool

    def group_count(self) -> int:
        return sum(1 for g in self.groups.values() if g)

    def all_group_indices(self) -> list:
        return [idx for g in self.groups.values() for idx in g]

    def all_remainder_indices(self) -> list:
        return [idx for r in self.remainders.values() for idx in r]


def moderate_grouping(structure: DependenceStructure, ell: int) -> Grouping:
    st = structure
    if st.L & (st.L - 1):
        raise UsageError("grouping requires dyadic L")
    if ell < 1 or st.L % ell or (ell & (ell - 1)):
        raise UsageError("ell must be a dyadic divisor of L")
    klog = st.K * st.log_l
    m0 = int(math.floor(math.log2(ell / (4.0 * klog)))) if ell > 4.0 * klog else -1
    cap = int(math.log2(st.L))
    p = {m: min(cap, max(m, int(math.ceil(math.log2(2.0 ** (m + 2) * klog)))))
         for m in range(m0 + 1)}

    import itertools
    anchors = list(itertools.product(range(0, st.L, ell), repeat=st.d))
    groups: dict[tuple, tuple] = {}
    remainders: dict[int, list] = {}
    for m in range(m0 + 1):
        margin = 1 << p[m]
        rem_m = []
        for anchor in anchors:
            for offs in itertools.product(range(0, ell, 1 << m), repeat=st.d):
                y = tuple((a + o) % st.L for a, o in zip(anchor, offs))
                idx = LevelIndex(m, y)
                if all(margin <= o < ell - margin for o in offs):
                    groups.setdefault(anchor, []).append(idx)
                else:
                    rem_m.append(idx)
        remainders[m] = rem_m
    for m in range(m0 + 1, st.max_level + 1):
        remainders[m] = [LevelIndex(m, y) for y in st.lattice(m)]
    groups = {a: tuple(g) for a, g in groups.items()}
    remainders_t = {m: tuple(r) for m, r in remainders.items()}
    return Grouping(structure=st, ell=ell, m0=m0, p=p, groups=groups,
                    remainders=remainders_t, degenerate=not groups)


def groups_disjoint(structure: DependenceStructure, grouping: Grouping) -> bool:
    """True iff the noise supports of distinct groups share no cell
    (vacuously true with fewer than two nonempty groups).  Two support boxes
    share a cell iff on every axis the periodic distance of their anchors is
    at most the sum of their integer half-widths."""
    st = structure
    boxes = [(np.array([st.box_radius(i.m) for i in g]), np.array([i.y for i in g]))
             for g in grouping.groups.values() if g]
    for a, (radius_a, anchors_a) in enumerate(boxes):
        for radius_b, anchors_b in boxes[a + 1:]:
            delta = periodic_distance(anchors_a[:, None, :], anchors_b[None, :, :], st.L)
            reach = radius_a[:, None, None] + radius_b[None, :, None]
            if (delta <= reach).all(axis=2).any():
                return False
    return True


def remainder_budget_high_levels(structure: DependenceStructure, ell: int,
                                 c: float = 1.0) -> float:
    """Stretched-norm budget for the sum of all above-m0 level remainders:
    c B (K log2 L)^d ell^{-d/2} L^{-d/2}."""
    st = structure
    return (c * st.B * (st.K * st.log_l) ** st.d
            * ell ** (-st.d / 2.0) * st.L ** (-st.d / 2.0))


def remainder_budget_boundary(structure: DependenceStructure, ell: int,
                              c: float = 1.0) -> float:
    """Stretched-norm budget for the boundary-strip remainders of the grouped
    levels: c B (K log2 L)^{(d+3)/2} ell^{-1/2} L^{-d/2}."""
    st = structure
    return (c * st.B * (st.K * st.log_l) ** ((st.d + 3) / 2.0)
            * ell ** -0.5 * st.L ** (-st.d / 2.0))


# ---------------------------------------------------------------------------
# Gaussian coupling of independent near-Gaussian groups


@dataclass(frozen=True)
class CloseToGaussianReport:
    """Tail control of the coupling error Z between a sum of M independent
    centered groups (each within tau of its Gaussian in smoothed distance,
    with exp^gamma0 norms at most b) and N(0, sum of the group covariances):

        P[|Z| >= r] <= 3 dim exp(-r^2 / (10 V)),
        V = dim tau |log tau|^{1/gamma0} M b^2,

    valid for r <= r_validity; the bound is vacuous (>= 1) below r_vacuous.
    """

    dim: int
    m: int
    tau: float
    b: float
    gamma0: float
    v: float
    r_validity: float
    r_vacuous: float
    lambda_total: NDArray[np.float64]

    def tail_bound(self, r: float) -> float:
        return min(1.0, 3.0 * self.dim * math.exp(-r * r / (10.0 * self.v)))


def close_to_gaussian_split(group_lambdas: Sequence, tau: float, b: float,
                            gamma0: float, dim: int = 1) -> CloseToGaussianReport:
    if not 0.0 < tau <= 0.5:
        raise UsageError(f"tau must lie in (0, 1/2], got {tau}")
    if b <= 0 or gamma0 <= 0:
        raise UsageError("need b > 0 and gamma0 > 0")
    mats = [np.atleast_2d(np.asarray(lam, dtype=float)) for lam in group_lambdas]
    m = len(mats)
    if m < 1:
        raise UsageError("need at least one group")
    total = np.sum(mats, axis=0)
    logtau = abs(math.log(tau)) ** (1.0 / gamma0)
    v = dim * tau * logtau * m * b * b
    sv = math.sqrt(v)
    r_validity = sv * min(math.sqrt(m * tau * logtau)
                          / (2.0 * math.log(2.0 * m)) ** (1.0 / gamma0),
                          (tau * logtau * m) ** (gamma0 / (4.0 + 2.0 * gamma0)))
    r_vacuous = math.sqrt(10.0 * v * math.log(3.0 * dim))
    return CloseToGaussianReport(dim=dim, m=m, tau=tau, b=b, gamma0=gamma0, v=v,
                                 r_validity=r_validity, r_vacuous=r_vacuous,
                                 lambda_total=total)


# ---------------------------------------------------------------------------
# empirical comparison tables


def bennett_tail_table(m: int, n: int, master_seed: int,
                       r_grid: Optional[Sequence[float]] = None) -> list[dict]:
    """Empirical tails of a Rademacher sum of length m against the Bennett
    bounds and the heavy-tail iid bound.  Bounds are one-sided; the empirical
    column is P[S >= r] with Monte Carlo slack reported separately."""
    rng = counter_rng(master_seed, 0xBE77E77)
    sums = (rng.integers(0, 2, size=(n, m)) * 2.0 - 1.0).sum(axis=1)
    if r_grid is None:
        r_grid = [math.sqrt(m) * q for q in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)]
    rows = []
    for r in r_grid:
        emp = float(np.mean(sums >= r))
        slack = 3.0 * math.sqrt(max(emp, 1.0 / n) / n)
        heavy = iid_tail_bound(v=float(m), m=m, b=1.0, gamma0=2.0, r=r)
        rows.append({
            "r": float(r),
            "empirical": emp,
            "mc_slack": slack,
            "bennett_exact": bennett_bound(float(m), 1.0, r, "exact"),
            "bennett_simplified": bennett_bound(float(m), 1.0, r, "simplified"),
            "heavy_tail_bound": heavy["bound"],
            "heavy_tail_valid": heavy["valid"],
        })
    return rows


def moderate_tail_table(structure: DependenceStructure, spec, ell: int, n: int,
                        master_seed: int,
                        r_grid: Optional[Sequence[float]] = None) -> dict:
    """Moderate-deviation style tail comparison for a synthetic family.

    Decomposes X into grouped and remainder parts, then compares the
    empirical tail P[|X - E X| >= r] with the additive budget

        P[|G| >= r - delta] + P[|R| >= delta],

    where G is the Gaussian surrogate with the empirical grouped variance
    (the full empirical variance when the grouping is degenerate) and the
    remainder term comes from the measured stretched norm of R via the
    optimized Markov bound.  The slack delta is chosen as the smallest value
    whose remainder term drops below 1/(4 sqrt(n)).
    """
    from .fields import monte_carlo
    samples, per_index, indices = monte_carlo(spec, structure, n, master_seed,
                                              return_per_index=True)
    grouping = moderate_grouping(structure, ell)
    pos = {idx: a for a, idx in enumerate(indices)}
    x = per_index.sum(axis=1)[:, 0]
    xc = x - x.mean()

    group_cols = [np.array([pos[i] for i in g], dtype=int)
                  for g in grouping.groups.values() if g]
    if group_cols:
        gsum = np.stack([per_index[:, cols, 0].sum(axis=1) for cols in group_cols],
                        axis=1)
        var_g = float(np.sum(np.var(gsum, axis=0)))
        rem = xc - (gsum - gsum.mean(axis=0)).sum(axis=1)
    else:
        var_g = float(np.var(xc))
        rem = np.zeros_like(xc)

    gamma_tilde = structure.gamma / (structure.gamma + 1.0)
    rem_norm = (stretched_norm(rem - rem.mean(), gamma_tilde).value
                if np.any(rem != 0.0) else 0.0)
    target = 0.25 / math.sqrt(n)
    delta = 0.0
    if rem_norm > 0:
        for dlt in np.geomspace(rem_norm / 10.0, rem_norm * 1000.0, 400):
            if tail_bound_from_norm(dlt, rem_norm, gamma_tilde) <= target:
                delta = float(dlt)
                break
        else:  # pragma: no cover - geomspace upper end always suffices
            delta = float(rem_norm * 1000.0)

    sd = math.sqrt(var_g) if var_g > 0 else float(np.std(xc))
    if r_grid is None:
        r_grid = [sd * q for q in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0)]
    rows = []
    for r in r_grid:
        emp = float(np.mean(np.abs(xc) >= r))
        if var_g > 0 and r - delta > 0:
            gauss = float(2.0 * (1.0 - ndtr((r - delta) / sd)))
        else:
            gauss = 1.0
        rem_term = tail_bound_from_norm(delta, rem_norm, gamma_tilde) if rem_norm else 0.0
        rhs = min(1.0, gauss + rem_term)
        rows.append({"r": float(r), "empirical": emp, "gaussian_part": gauss,
                     "remainder_part": rem_term, "rhs": rhs,
                     "dominated": bool(emp <= rhs + 3.0 * math.sqrt(max(emp, 1.0 / n) / n))})
    return {
        "ell": ell,
        "m0": grouping.m0,
        "degenerate": grouping.degenerate,
        "n_groups": grouping.group_count(),
        "grouped_variance": var_g,
        "remainder_norm": rem_norm,
        "delta": delta,
        "rows": rows,
    }
