"""Test functions, the gradient+oscillation function class, and distances to
a centered Gaussian: exact 1d quantile-gap Wasserstein integrals, sliced
multivariate proxies, and the restricted (class-sup) distance."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.typing import NDArray
from scipy.special import ndtr, ndtri

from ._util import (UsageError, ball_points, gaussian_expectation, hermite_1d,
                    hermite_grid)
from .gaussians import GaussianLaw

__all__ = [
    "RidgeProfile",
    "TestFunction",
    "DiscreteLaw",
    "SampleSet",
    "ridge_function",
    "soft_clip_family",
    "mollify",
    "class_membership_check",
    "MembershipReport",
    "w1_discrete_vs_gaussian",
    "w1_discrete_pair",
    "w1_empirical_gaussian",
    "sliced_w1",
    "restricted_distance",
]


@dataclass(frozen=True)
class RidgeProfile:
    """Directional structure phi(x) = profile(direction . x).

    Keeping the ridge structure explicit lets downstream integrals against
    Gaussian kernels reduce exactly to one-dimensional quadrature.
    """

    direction: NDArray[np.float64]
    profile: Callable[[NDArray[np.float64]], NDArray[np.float64]]

    def __post_init__(self):
        u = np.asarray(self.direction, dtype=float)
        norm = np.linalg.norm(u)
        if norm == 0 or not np.isfinite(norm):
            raise UsageError("ridge direction must be a nonzero finite vector")
        u = u / norm
        u.setflags(write=False)
        object.__setattr__(self, "direction", u)

    def sigma2(self, law: GaussianLaw) -> float:
        """Variance of direction . Z under Z ~ law."""
        u = self.direction
        return float(u @ law.covariance.entries @ u)


@dataclass(frozen=True)
class TestFunction:
    """A real test function on R^dim with a declared gradient budget."""

    evaluator: Callable[[NDArray[np.float64]], NDArray[np.float64]]
    lipschitz_budget: float
    label: str
    dim: int
    ridge: Optional[RidgeProfile] = None

    def __call__(self, x) -> NDArray[np.float64]:
        x = np.asarray(x, dtype=float)
        if x.ndim == 1 and self.dim == 1 and x.shape != (1,):
            x = x[:, None]
        return np.asarray(self.evaluator(x), dtype=float)


def ridge_function(direction, profile, lipschitz_budget: float, label: str) -> TestFunction:
    """Test function phi(x) = profile(direction . x) with unit direction."""
    rp = RidgeProfile(np.asarray(direction, dtype=float), profile)

    def evaluator(x):
        x = np.asarray(x, dtype=float)
        return np.asarray(profile(x @ rp.direction))

    return TestFunction(evaluator=evaluator, lipschitz_budget=lipschitz_budget,
                        label=label, dim=rp.direction.size, ridge=rp)


def softclip_profile(slope: float, width: float, center: float = 0.0):
    """Saturating C^2 ramp with maximal slope `slope`.

    h(t) = slope * width * p((t - center)/width) with p the integrated
    quartic bump p(u) = u - 2u^3/3 + u^5/5 on [-1, 1], constant outside.
    p'(u) = (1 - u^2)^2 peaks at 1, so |h'| <= slope everywhere.
    """

    def h(t):
        u = np.clip((np.asarray(t, dtype=float) - center) / width, -1.0, 1.0)
        return slope * width * (u - 2.0 * u ** 3 / 3.0 + u ** 5 / 5.0)

    return h


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
            members.append(ridge_function(
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


@dataclass(frozen=True)
class SampleSet:
    """Monte Carlo draws: values of shape (n, dim), with the master seed that
    produced them recorded for reproducibility."""

    values: NDArray[np.float64]
    master_seed: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if v.ndim != 2 or v.shape[0] < 1:
            raise UsageError(f"samples must be (n, dim) with n >= 1, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise UsageError("samples must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def scalar(self) -> NDArray[np.float64]:
        if self.dim != 1:
            raise UsageError("scalar view of multivariate samples")
        return self.values[:, 0]


# ---------------------------------------------------------------------------
# mollification


def mollify(phi: TestFunction, eps: float, law: GaussianLaw) -> TestFunction:
    """Gaussian interpolation step: phi_eps(x) = E[phi(sqrt(1-eps^2) x - eps Z)],
    Z ~ law.  Preserves ridge structure exactly (the projected noise is a 1d
    Gaussian with the projected variance).

    The expectation uses Gauss-Hermite quadrature verified by node doubling.
    In one effective dimension (ridge or scalar phi), a probe failure falls
    back to adaptive quadrature so that merely-Lipschitz test functions are
    still smoothed to high accuracy; in higher dimension nonconvergence is an
    error.
    """
    if not 0.0 < eps < 1.0:
        raise UsageError(f"eps must lie in (0, 1), got {eps}")
    if phi.dim != law.dim:
        raise UsageError(f"dimension mismatch: phi on R^{phi.dim}, law on R^{law.dim}")
    a = np.sqrt(1.0 - eps * eps)
    label = f"mollify[{eps}]({phi.label})"
    if phi.ridge is not None:
        h_eps = _smoothed_profile(phi.ridge.profile, a,
                                  eps * np.sqrt(phi.ridge.sigma2(law)))
        return ridge_function(phi.ridge.direction, h_eps, phi.lipschitz_budget,
                              label=label)

    if law.dim == 1:
        h = lambda t: np.asarray(phi(np.asarray(t, dtype=float).reshape(-1, 1))
                                 ).reshape(np.shape(t))
        scalar_eps = _smoothed_profile(h, a, eps * np.sqrt(law.covariance.entries[0, 0]))

        def evaluator1(x):
            return scalar_eps(np.atleast_2d(np.asarray(x, dtype=float))[:, 0])
        return TestFunction(evaluator=evaluator1, lipschitz_budget=phi.lipschitz_budget,
                            label=label, dim=1)

    sqrt_cov = law.covariance.sqrt()

    def smoothed(x, n_per_axis=32, check=False):
        x = np.atleast_2d(np.asarray(x, dtype=float))

        def inner(z):
            arg = a * x[None, :, :] - eps * z[:, None, :]
            return phi(arg.reshape(-1, law.dim)).reshape(len(z), len(x))

        return gaussian_expectation(sqrt_cov, inner, n_per_axis=n_per_axis, check=check)

    # convergence probe at a few scale-matched points
    probes = np.vstack([np.zeros(law.dim),
                        sqrt_cov @ np.ones(law.dim),
                        -2.0 * (sqrt_cov @ np.ones(law.dim))])
    smoothed(probes, check=True)

    def evaluator(x):
        return smoothed(x)
    return TestFunction(evaluator=evaluator, lipschitz_budget=phi.lipschitz_budget,
                        label=label, dim=phi.dim)


def _smoothed_profile(h, a: float, noise_scale: float):
    """t -> E[h(a t - noise_scale Z)], Z ~ N(0, 1): the 64-node Gauss-Hermite
    rule if the node-doubling probe settles, adaptive quadrature if not."""
    if not _profile_converged(h, a, noise_scale):
        return _adaptive_profile_mean(h, a, noise_scale)
    nodes, wts = hermite_1d(64)

    def h_eps(t):
        t = np.asarray(t, dtype=float)
        return np.tensordot(wts, h(a * t[None, ...] - noise_scale * nodes.reshape(
            (-1,) + (1,) * t.ndim)), axes=(0, 0))

    return h_eps


def _profile_converged(h, a: float, noise_scale: float) -> bool:
    """Node-doubling probe for the 1d smoothing integral (threshold 1e-6)."""
    nodes, wts = hermite_1d(64)
    nodes2, wts2 = hermite_1d(128)
    probes = np.array([-2.0, 0.0, 1.0, 3.0])
    v1 = np.tensordot(wts, h(a * probes[None, :] - noise_scale * nodes[:, None]), axes=(0, 0))
    v2 = np.tensordot(wts2, h(a * probes[None, :] - noise_scale * nodes2[:, None]), axes=(0, 0))
    return bool(np.max(np.abs(v1 - v2)) <= 1e-6 * max(1.0, float(np.max(np.abs(v2)))))


def _adaptive_profile_mean(h, a: float, noise_scale: float):
    """t -> E[h(a t - noise_scale Z)], Z ~ N(0,1), via adaptive quadrature
    (absolute accuracy ~1e-10; handles kinked profiles)."""
    from scipy.integrate import quad
    root = 1.0 / np.sqrt(2.0 * np.pi)

    def weighted(z, t):
        return float(h(np.asarray([a * t - noise_scale * z]))[0]
                     * root * np.exp(-0.5 * z * z))

    def h_eps(t):
        t = np.asarray(t, dtype=float)
        flat = t.reshape(-1)
        out = np.empty(flat.shape)
        for i, ti in enumerate(flat):
            out[i] = quad(weighted, -14.0, 14.0, args=(ti,),
                          epsabs=1e-11, epsrel=1e-11, limit=400)[0]
        return out.reshape(t.shape)

    return h_eps


# ---------------------------------------------------------------------------
# function-class membership


@dataclass(frozen=True)
class MembershipReport:
    passed: bool
    worst_osc_ratio: float
    worst_gradient: float
    lipschitz_budget: float
    details: tuple = ()


_OSC_SAFETY = 1.05  # sampled oscillations are lower bounds; allow 5% headroom


def class_membership_check(phi: TestFunction, law: GaussianLaw, lbar: float,
                           r_grid: Sequence[float],
                           x0_grid: Sequence) -> MembershipReport:
    """Check phi against the restricted test class for `law`.

    Two conditions: |grad phi| <= lbar (finite differences at probe points),
    and the averaged ball oscillation
        integral of osc_r phi(x) N_Lambda(x - x0) dx <= r
    for every r in r_grid and x0 in x0_grid.  Oscillations are sampled over
    257 low-discrepancy ball points, so the computed ratios are lower bounds;
    the pass threshold therefore includes a 5% allowance.
    """
    if lbar <= 0:
        raise UsageError("lbar must be positive")
    dim = law.dim
    pts, wts = hermite_grid(dim, 32 if dim <= 2 else 16)
    sqrt_cov = law.covariance.sqrt()
    ball = ball_points(dim, 256)
    details = []
    worst_ratio = 0.0
    worst_grad = 0.0
    for x0 in x0_grid:
        x0 = np.atleast_1d(np.asarray(x0, dtype=float))
        nodes = pts @ sqrt_cov.T + x0[None, :]
        worst_grad = float(np.maximum(  # a NaN gradient propagates and fails
            worst_grad, _max_gradient(phi, nodes[::max(1, len(nodes) // 32)])))
        for r in r_grid:
            if r <= 0:
                raise UsageError("oscillation radii must be positive")
            # (n_nodes, n_ball) evaluation of phi around every quadrature node
            cloud = nodes[:, None, :] + r * ball[None, :, :]
            vals = phi(cloud.reshape(-1, dim)).reshape(len(nodes), -1)
            osc = vals.max(axis=1) - vals.min(axis=1)
            ratio = float(wts @ osc) / r
            details.append({"r": float(r), "x0": x0.tolist(), "osc_ratio": ratio})
            worst_ratio = float(np.maximum(worst_ratio, ratio))  # so does a NaN ratio
    passed = worst_ratio <= _OSC_SAFETY and worst_grad <= lbar * (1.0 + 1e-6)
    return MembershipReport(passed=passed, worst_osc_ratio=worst_ratio,
                            worst_gradient=worst_grad, lipschitz_budget=lbar,
                            details=tuple(details))


def _max_gradient(phi: TestFunction, points: NDArray[np.float64], step: float = 1e-5) -> float:
    points = np.atleast_2d(points)
    grads = np.zeros_like(points)
    for k in range(points.shape[1]):
        e = np.zeros(points.shape[1])
        e[k] = step
        grads[:, k] = (phi(points + e) - phi(points - e)) / (2 * step)
    return float(np.max(np.linalg.norm(grads, axis=1)))


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


def _abs_quantile_gap(x, a, b, sigma: float) -> NDArray[np.float64]:
    """Closed form of the integral over [a, b] of |x - sigma Phi^{-1}(u)| du,
    elementwise over equal-shape arrays x, a, b."""
    x = np.asarray(x, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    pa, pb = _pdf_at_quantile(a), _pdf_at_quantile(b)
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
    return float(np.sum(_abs_quantile_gap(vals, cum[:-1], cum[1:], sigma)))


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
    """Exact W1 between the empirical law of scalar samples and N(0, sigma2).

    Sorts the samples and integrates the quantile gap in closed form on each
    order-statistic interval, so the result is deterministic in the samples
    and exact up to floating point.
    """
    if sigma2 <= 0:
        raise UsageError("sigma2 must be positive")
    if isinstance(samples, SampleSet):
        samples = samples.scalar()
    x = np.sort(np.asarray(samples, dtype=float))
    if x.ndim != 1 or len(x) == 0:
        raise UsageError("need a nonempty 1d sample array")
    n = len(x)
    u = np.arange(n + 1) / n
    return float(np.sum(_abs_quantile_gap(x, u[:-1], u[1:], float(np.sqrt(sigma2)))))


def sliced_w1(samples: SampleSet, law: GaussianLaw, n_directions: int = 64,
              seed: int = 0) -> float:
    """Average of exact 1d W1 distances over random projection directions.

    Directions are drawn deterministically from `seed`.  For dim = 1 every
    direction is +-1 and the sliced value equals the plain empirical W1.
    """
    if n_directions < 1:
        raise UsageError("need at least one direction")
    if samples.dim != law.dim:
        raise UsageError("sample/law dimension mismatch")
    from ._util import counter_rng
    rng = counter_rng(seed, 0x511CED)
    total = 0.0
    for _ in range(n_directions):
        u = rng.standard_normal(law.dim)
        norm = np.linalg.norm(u)
        while norm < 1e-12:  # pragma: no cover - probability ~0
            u = rng.standard_normal(law.dim)
            norm = np.linalg.norm(u)
        u /= norm
        s2 = float(u @ law.covariance.entries @ u)
        total += w1_empirical_gaussian(samples.values @ u, s2)
    return total / n_directions


# ---------------------------------------------------------------------------
# restricted (class-sup) distance


def gaussian_mean(phi: TestFunction, law: GaussianLaw) -> float:
    """Integral of phi against N(0, Lambda), with node-doubling verification."""
    if phi.ridge is not None:
        sig = np.sqrt(phi.ridge.sigma2(law))
        nodes, wts = hermite_1d(64)
        nodes2, wts2 = hermite_1d(128)
        v1 = float(wts @ phi.ridge.profile(sig * nodes))
        v2 = float(wts2 @ phi.ridge.profile(sig * nodes2))
        # tolerance matches the merely-C^2 regularity of the profile family
        if not abs(v1 - v2) <= 1e-4 * max(1.0, abs(v2)):  # a NaN fails
            from ._util import QuadratureError
            raise QuadratureError(f"Gaussian mean of {phi.label} failed node doubling")
        return v2
    return float(gaussian_expectation(law.covariance.sqrt(), phi,
                                      n_per_axis=64 if law.dim <= 2 else 32, check=True))


def restricted_distance(samples: SampleSet, law: GaussianLaw,
                        family: Sequence[TestFunction], eps: float = 0.0) -> float:
    """sup over the family of E_emp[phi(X)] - integral of phi dN(0, Lambda).

    With eps > 0 each test function is mollified first (Gaussian
    interpolation at scale eps), matching the smoothed distance used by the
    Stein argument.  Note the sup is over the *signed* gap; families should
    be closed under negation if two-sided distance is wanted.
    """
    if not family:
        raise UsageError("family must be nonempty")
    best = -np.inf
    for phi in family:
        test = mollify(phi, eps, law) if eps > 0 else phi
        emp = float(np.mean(test(samples.values)))
        best = max(best, emp - gaussian_mean(test, law))
    return best
