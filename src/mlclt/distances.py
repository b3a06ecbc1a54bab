"""Ridge test functions with piecewise-polynomial profiles, their Gaussian
mollification and means in closed form, and distances to a centered
Gaussian N(0, Lambda): exact 1d quantile-gap Wasserstein integrals, sliced
multivariate proxies, and the restricted (class-sup) distance.

Lambda is an `SpdMatrix`, passed as `lam`.  Samples are float arrays of
shape (n, dim), in dim 1 also a 1-d array, and every sample array that
enters a distance must be nonempty and finite.  Every test function is
a `TestFunction`: a ridge phi(x) = h(u . x) with a `PiecewisePolynomial`
profile h."""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
import numpy.polynomial  # numpy loads it on first use: load it here, not inside a run
from numpy.typing import NDArray

from ._util import _SLICED_W1_TAG, UsageError, counter_rng, ndtr, ndtri
from .gaussians import SpdMatrix

__all__ = [
    "PiecewisePolynomial",
    "TestFunction",
    "DiscreteLaw",
    "soft_clip_family",
    "mollify",
    "w1_discrete_vs_gaussian",
    "w1_discrete_pair",
    "w1_empirical_gaussian",
    "sliced_w1",
    "restricted_distance",
]


def _horner(coeffs: Sequence[float], t):
    """sum_j coeffs[j] t^j; a constant never multiplies t, so it stays finite
    at t = +-inf."""
    out = np.full(np.shape(t), coeffs[-1])
    for c in reversed(coeffs[:-1]):
        out = out * t + c
    return out


def _knot_terms(knot: float, a, b):
    """(z, phi(z)) at z = (knot - a)/b: the terms besides the mass that a
    finite piece limit contributes to the truncated moments."""
    z = (knot - a) / b
    return z, np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def _truncated_moments(lo, hi, n: int) -> list:
    """M_j = E[Z^j; alpha <= Z < beta], Z ~ N(0, 1), for j = 0..n, from the
    `_knot_terms` of alpha and beta, None standing for alpha = -inf or
    beta = +inf, where the boundary terms z^j phi(z) vanish.

    M_0 = Phi(beta) - Phi(alpha), taken as Phi(-alpha) - Phi(-beta) when alpha
    lies in the upper tail, with one `ndtr` per finite limit: Phi(-|alpha|)
    is the term that alpha's side reads either way.  M_1 = phi(alpha) -
    phi(beta) and M_j = -[z^{j-1} phi(z)]_alpha^beta + (j - 1) M_{j-2}.
    """
    za, da = lo if lo is not None else (0.0, 0.0)
    zb, db = hi if hi is not None else (0.0, 0.0)
    if lo is None:
        mass = 1.0 if hi is None else ndtr(zb)
    else:
        up = np.greater(za, 0.0)
        lower = ndtr(-np.abs(za))
        if hi is None:
            mass = np.where(up, lower, 1.0 - lower)
        else:
            upper = ndtr(np.where(up, -zb, zb))
            mass = np.where(up, lower - upper, upper - lower)
    moments = [mass, da - db]
    ta, tb = da, db  # z^{j-1} phi(z) at each limit
    for j in range(2, n + 1):
        ta, tb = ta * za, tb * zb
        moments.append(ta - tb + (j - 1) * moments[j - 2])
    return moments[:n + 1]


def _taylor_shift(coeffs: Sequence[float], a, lowest: int) -> list:
    """Taylor coefficients q^(j)(a)/j! of q(t) = sum_j coeffs[j] t^j.

    Repeated synthetic division; entries below `lowest` are left unfinished,
    because no entry at or above it depends on them.
    """
    taylor = list(coeffs)
    deg = len(taylor) - 1
    for i in range(deg):
        for j in range(deg - 1, max(i, lowest) - 1, -1):
            taylor[j] = taylor[j] + a * taylor[j + 1]
    return taylor


@dataclass(frozen=True)
class PiecewisePolynomial:
    """A C^2 piecewise polynomial profile h: R -> R.

    `knots` are the increasing finite breakpoints; piece i runs from knot
    i - 1 to knot i, with -inf and +inf at the two ends, and `coeffs[i]`
    holds its ascending coefficients in t.  Calls evaluate by Horner.

    Against a Gaussian every piece integrates in closed form: on a piece,
    h^(k)(a + b z) is a polynomial in z, so E[h^(k)(a + b Z)] is a finite sum
    of truncated normal moments (`gaussian_expectations`).  h must be C^2, so
    that for k <= 3 the piecewise derivative is also the one that Gaussian
    integration by parts, E[f(Z) He_k(Z)] = E[f^(k)(Z)], produces.
    """

    knots: tuple
    coeffs: tuple

    def __post_init__(self):
        knots = tuple(float(t) for t in self.knots)
        coeffs = tuple(tuple(float(c) for c in piece) for piece in self.coeffs)
        if len(coeffs) != len(knots) + 1 or not all(coeffs):
            raise UsageError("a piecewise polynomial needs one nonempty "
                             "coefficient list per piece (one more than knots)")
        if not np.all(np.isfinite(knots)) or np.any(np.diff(knots) <= 0):
            raise UsageError("knots must be finite and strictly increasing")
        if not all(np.isfinite(c) for piece in coeffs for c in piece):
            raise UsageError("piece coefficients must be finite")
        for i, t in enumerate(knots):
            left, right = coeffs[i], coeffs[i + 1]
            for _ in range(3):
                lv, rv = _horner(left, t), _horner(right, t)
                if abs(lv - rv) > 1e-9 * max(1.0, abs(lv), abs(rv)):
                    raise UsageError(f"profile is not C^2 at the knot {t}")
                left = [j * c for j, c in enumerate(left)][1:] or [0.0]
                right = [j * c for j, c in enumerate(right)][1:] or [0.0]
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "coeffs", coeffs)

    def __call__(self, t) -> NDArray[np.float64]:
        t = np.asarray(t, dtype=float)
        piece = np.where(np.isnan(t), -1, np.searchsorted(self.knots, t, side="right"))
        out = np.full(t.shape, np.nan)
        for i, coeffs in enumerate(self.coeffs):
            sel = piece == i
            out[sel] = _horner(coeffs, t[sel])
        return out

    def gaussian_expectations(self, a, b, orders: Sequence[int]) -> list:
        """E[h^(k)(a + b Z)], Z ~ N(0, 1), for each k in `orders`.

        `a` and `b > 0` broadcast together.  All orders share one set of
        truncated moments per piece; on each piece h^(k) is expanded in
        Taylor form around a:

            E[h^(k)(a + bZ); piece] = sum_m (k+m)!/m! T_{k+m}(a) b^m M_m

        with T_j(a) = h^(j)(a)/j! and M_m the piece's truncated moments.
        """
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        shape = np.broadcast_shapes(a.shape, b.shape)
        outs = [np.zeros(shape) for _ in orders]
        limits = [None] * (len(self.knots) + 2)  # knot i - 1 at i; -inf and +inf
        for i, coeffs in enumerate(self.coeffs):
            deg = len(coeffs) - 1
            live = [(out, k) for out, k in zip(outs, orders) if k <= deg]
            if not live:  # h^(k) vanishes on this piece
                continue
            for j in (i, i + 1):  # terms of the knots that bound a live piece
                if 0 < j <= len(self.knots) and limits[j] is None:
                    limits[j] = _knot_terms(self.knots[j - 1], a, b)
            lowest = min(k for _, k in live)
            moments = _truncated_moments(limits[i], limits[i + 1], deg - lowest)
            taylor = _taylor_shift(coeffs, a, lowest)
            scaled, power = [], 1.0  # b^m M_m
            for m in range(deg - lowest + 1):
                scaled.append(power * moments[m])
                power = power * b
            for out, k in live:
                for m in range(deg - k + 1):
                    out += math.perm(k + m, k) * taylor[k + m] * scaled[m]
        return outs


def _points(x, dim: int) -> NDArray[np.float64]:
    """x as a float array of points of R^dim; in dim 1 a 1-d x is a column
    of points."""
    x = np.asarray(x, dtype=float)
    return x[:, None] if x.ndim == 1 and dim == 1 else x


@dataclass(frozen=True)
class TestFunction:
    """Ridge test function phi(x) = profile(direction . x) on R^dim, with a
    declared gradient budget.

    The direction is normalized to unit length and sets dim.  The profile
    must be a `PiecewisePolynomial` (anything else raises UsageError), so
    every Gaussian integral of phi and of its derivatives reduces to a
    closed form in one dimension.  A call takes an (m, dim) array; in dim 1
    a 1-d x is a column of points.
    """

    direction: NDArray[np.float64]
    profile: PiecewisePolynomial
    lipschitz_budget: float
    label: str

    def __post_init__(self):
        if not isinstance(self.profile, PiecewisePolynomial):
            raise UsageError("a ridge profile must be a PiecewisePolynomial, got "
                             f"{type(self.profile).__name__}")
        u = np.asarray(self.direction, dtype=float)
        norm = np.linalg.norm(u)
        if norm == 0 or not np.isfinite(norm):
            raise UsageError("ridge direction must be a nonzero finite vector")
        u = u / norm
        u.setflags(write=False)
        object.__setattr__(self, "direction", u)

    @property
    def dim(self) -> int:
        return self.direction.size

    def sigma2(self, lam: SpdMatrix) -> float:
        """Variance of direction . Z under Z ~ N(0, lam); a lam of another
        dimension raises UsageError."""
        if lam.dim != self.dim:
            raise UsageError(f"dimension mismatch: phi on R^{self.dim}, "
                             f"Lambda on R^{lam.dim}")
        u = self.direction
        return float(u @ lam.entries @ u)

    def __call__(self, x) -> NDArray[np.float64]:
        return np.asarray(self.profile(_points(x, self.dim) @ self.direction), dtype=float)


def softclip_profile(slope: float, width: float, center: float = 0.0
                     ) -> "PiecewisePolynomial":
    """Saturating C^2 ramp with maximal slope `slope`.

    h(t) = slope * width * p((t - center)/width) with p the integrated
    quartic bump p(u) = u - 2u^3/3 + u^5/5 on [-1, 1], constant outside.
    p'(u) = (1 - u^2)^2 peaks at 1, so |h'| <= slope everywhere.

    The ramp is returned as a `PiecewisePolynomial` (a constant, a quintic
    and a constant), so Gaussian integrals of it and of its derivatives,
    in `mollify` and in the ridge Stein engine, are evaluated in closed form.
    """
    p = np.polynomial.Polynomial([0.0, 1.0, 0.0, -2.0 / 3.0, 0.0, 0.2])
    u = np.polynomial.Polynomial([-center / width, 1.0 / width])
    quintic = slope * width * p(u)
    plateau = slope * width * 8.0 / 15.0  # p(1) = 1 - 2/3 + 1/5
    return PiecewisePolynomial(
        knots=(center - width, center + width),
        coeffs=((-plateau,), tuple(quintic.coef), (plateau,)))


def soft_clip_family(dim: int) -> list[TestFunction]:
    """Canonical ridge family of saturating ramps with slope <= 1/2.

    Every member satisfies both the gradient budget (|grad| <= 1/2) and the
    ball-oscillation constraint of the restricted test class, for any
    covariance: an s-Lipschitz function oscillates at most 2 s r <= r over a
    radius-r ball when s <= 1/2.
    """
    directions = [np.eye(dim)[k] for k in range(dim)]
    if dim > 1:
        directions.append(np.ones(dim))
    members = []
    for di, u in enumerate(directions):
        for slope, width, center in ((0.5, 1.0, 0.0), (0.5, 2.0, 0.5), (0.25, 1.0, -0.5)):
            members.append(TestFunction(
                u, softclip_profile(slope, width, center), lipschitz_budget=slope,
                label=f"softclip[s={slope},w={width},c={center},dir={di}]"))
    return members


@dataclass(frozen=True)
class DiscreteLaw:
    """Finitely supported law. `values` has shape (k,) or (k, dim)."""

    values: NDArray[np.float64]
    probs: NDArray[np.float64]

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1 or len(p) != len(v) or len(p) == 0:
            raise UsageError("values and probs must be equal-length and nonempty")
        if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-12:
            raise UsageError(f"probs must be nonnegative and sum to 1 (sum {p.sum()!r})")
        if not np.all(np.isfinite(v)):
            raise UsageError("atom values must be finite")
        v.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "probs", p)

    def mean(self):
        return np.tensordot(self.probs, self.values, axes=(0, 0))

    def sorted_scalar(self) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
        if self.values.ndim != 1:
            raise UsageError("scalar operation on a multivariate discrete law")
        order = np.argsort(self.values, kind="stable")
        return self.values[order], self.probs[order]


def _samples(samples, dim: int) -> NDArray[np.float64]:
    """samples as an (n, dim) float array, in dim 1 a 1-d array being one
    column.  No row, another shape or a value that is not finite raises
    UsageError."""
    v = _points(samples, dim)
    if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] != dim:
        raise UsageError(f"samples must be an (n, {dim}) array with n >= 1, "
                         f"got shape {np.shape(samples)}")
    if not np.all(np.isfinite(v)):
        raise UsageError("samples must be finite")
    return v


# ---------------------------------------------------------------------------
# mollification


def mollify(phi: TestFunction, eps: float,
            lam: SpdMatrix) -> Callable[[NDArray[np.float64]], NDArray[np.float64]]:
    """Gaussian interpolation step: phi_eps(x) = E[phi(sqrt(1-eps^2) x - eps Z)],
    Z ~ N(0, lam), as a function called as phi is.

    The projected noise is a 1d Gaussian with the projected variance, so
    phi_eps(x) = E[h(a u.x - eps sigma Z')], Z' ~ N(0, 1), which the
    `PiecewisePolynomial` profile h evaluates in closed form.
    """
    if not 0.0 < eps < 1.0:
        raise UsageError(f"eps must lie in (0, 1), got {eps}")
    h, u = phi.profile, phi.direction
    a = np.sqrt(1.0 - eps * eps)
    noise_scale = eps * np.sqrt(phi.sigma2(lam))

    def smoothed(x):
        # Z and -Z have the same law
        return h.gaussian_expectations(a * (_points(x, phi.dim) @ u), noise_scale, (0,))[0]

    return smoothed


# ---------------------------------------------------------------------------
# exact quantile-gap Wasserstein integrals (scalar laws)


def _pdf_at_quantile(u: NDArray[np.float64]) -> NDArray[np.float64]:
    """phi(Phi^{-1}(u)) with the correct 0 limits at u in {0, 1}."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    interior = (u > 0.0) & (u < 1.0)
    q = ndtri(u[interior])
    out[interior] = np.exp(-0.5 * q * q) / np.sqrt(2.0 * np.pi)
    return out


@lru_cache(maxsize=8)
def _uniform_grid(n: int) -> tuple:
    """The read-only grid (0, 1/n, ..., 1) of an n-sample empirical quantile
    and its `_pdf_at_quantile`, computed once per n."""
    u = np.arange(n + 1) / n
    pdf = _pdf_at_quantile(u)
    u.setflags(write=False)
    pdf.setflags(write=False)
    return u, pdf


def _abs_quantile_gap(x, grid, pdf, sigma: float) -> NDArray[np.float64]:
    """Closed form of the integral over [a, b] of |x - sigma Phi^{-1}(u)| du,
    elementwise over x and the adjacent cells a = grid[:-1], b = grid[1:] of
    a grid one longer than x, whose points' phi(Phi^{-1}) are `pdf`."""
    x = np.asarray(x, dtype=float)
    a, b = grid[:-1], grid[1:]
    pa, pb = pdf[:-1], pdf[1:]
    fx = ndtr(x / sigma)
    px = _pdf_at_quantile(fx)
    below = fx <= a          # quantile above x on the whole interval
    above = fx >= b          # quantile below x on the whole interval
    mid = ~(below | above)
    out = np.empty_like(x)
    out[below] = sigma * (pa[below] - pb[below]) - x[below] * (b[below] - a[below])
    out[above] = x[above] * (b[above] - a[above]) - sigma * (pa[above] - pb[above])
    # split at fx: x dominates on [a, fx], the quantile dominates on [fx, b]
    out[mid] = (x[mid] * (fx[mid] - a[mid]) - sigma * (pa[mid] - px[mid])
                + sigma * (px[mid] - pb[mid]) - x[mid] * (b[mid] - fx[mid]))
    return out


def w1_discrete_vs_gaussian(law: DiscreteLaw, sigma2: float) -> float:
    """Exact W1 distance between a scalar discrete law and N(0, sigma2),
    by closed-form integration of the quantile gap."""
    if sigma2 <= 0:
        raise UsageError("sigma2 must be positive")
    vals, probs = law.sorted_scalar()
    keep = probs > 0
    vals, probs = vals[keep], probs[keep]
    cum = np.concatenate([[0.0], np.cumsum(probs)])
    cum[-1] = 1.0
    sigma = float(np.sqrt(sigma2))
    return float(np.sum(_abs_quantile_gap(vals, cum, _pdf_at_quantile(cum), sigma)))


def w1_discrete_pair(p: DiscreteLaw, q: DiscreteLaw) -> float:
    """Exact W1 between two scalar discrete laws (piecewise-constant quantiles)."""
    vp, pp = p.sorted_scalar()
    vq, pq = q.sorted_scalar()
    cp = np.cumsum(pp)
    cq = np.cumsum(pq)
    grid = np.unique(np.concatenate([[0.0], cp, cq, [1.0]]))
    mids = (grid[:-1] + grid[1:]) / 2.0
    widths = grid[1:] - grid[:-1]
    qp = vp[np.minimum(np.searchsorted(cp, mids), len(vp) - 1)]
    qq = vq[np.minimum(np.searchsorted(cq, mids), len(vq) - 1)]
    return float(np.sum(np.abs(qp - qq) * widths))


def w1_empirical_gaussian(samples, sigma2: float) -> float:
    """Exact W1 between the empirical law of scalar samples, of shape (n,) or
    (n, 1), and N(0, sigma2).

    Sorts the samples and integrates the quantile gap in closed form on each
    order-statistic interval, so the result is deterministic in the samples
    and exact up to floating point.
    """
    if sigma2 <= 0:
        raise UsageError("sigma2 must be positive")
    x = np.sort(_samples(samples, 1)[:, 0])
    return float(np.sum(_abs_quantile_gap(x, *_uniform_grid(len(x)), float(np.sqrt(sigma2)))))


def sliced_w1(samples, lam: SpdMatrix, n_directions: int = 64, seed: int = 0) -> float:
    """Average of exact 1d W1 distances between projections of the (n, dim)
    samples and of N(0, lam) over random directions.

    Directions are drawn deterministically from `seed`.  For dim = 1 every
    direction is +-1 and the sliced value equals the plain empirical W1.
    """
    if n_directions < 1:
        raise UsageError("need at least one direction")
    x = _samples(samples, lam.dim)
    rng = counter_rng(seed, _SLICED_W1_TAG)
    total = 0.0
    for _ in range(n_directions):
        u = rng.standard_normal(lam.dim)
        norm = np.linalg.norm(u)
        while norm < 1e-12:  # pragma: no cover - probability ~0
            u = rng.standard_normal(lam.dim)
            norm = np.linalg.norm(u)
        u /= norm
        s2 = float(u @ lam.entries @ u)
        total += w1_empirical_gaussian(x @ u, s2)
    return total / n_directions


# ---------------------------------------------------------------------------
# restricted (class-sup) distance


def gaussian_mean(phi: TestFunction, lam: SpdMatrix) -> float:
    """Integral of phi against N(0, lam), in closed form: E[h(sigma Z)] with
    sigma^2 = u . lam u."""
    sigma = float(np.sqrt(phi.sigma2(lam)))
    return float(phi.profile.gaussian_expectations(0.0, sigma, (0,))[0])


def restricted_distance(samples, lam: SpdMatrix, family: Sequence[TestFunction],
                        eps: float = 0.0) -> float:
    """sup over the family of E_emp[phi(X)] - integral of phi dN(0, lam), X
    the (n, dim) samples.

    With eps > 0 each test function is mollified first (Gaussian
    interpolation at scale eps), matching the smoothed distance used by the
    Stein argument; interpolation preserves N(0, lam), so the Gaussian side
    is E[phi(Z)] at every eps.  Note the sup is over the *signed* gap;
    families should be closed under negation if two-sided distance is
    wanted.
    """
    if not family:
        raise UsageError("family must be nonempty")
    x = _samples(samples, lam.dim)
    best = -np.inf
    for phi in family:
        gauss = gaussian_mean(phi, lam)
        test = mollify(phi, eps, lam) if eps > 0 else phi
        best = max(best, float(np.mean(test(x))) - gauss)
    return best
