"""Shared numerical utilities: Gauss-Hermite quadrature grids, deterministic
low-discrepancy ball sampling, tensor norms, and quadrature error reporting."""
from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.typing import NDArray
from scipy.special import ndtri, roots_hermitenorm


class QuadratureError(RuntimeError):
    """Raised when a quadrature rule fails its node-doubling convergence check."""


class UsageError(ValueError):
    """Raised for out-of-contract arguments (dimension mismatch, bad ranges)."""


@lru_cache(maxsize=64)
def hermite_1d(n: int) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Nodes/weights for E[f(Z)], Z ~ N(0, 1).

    Probabilists' Gauss-Hermite rule, weights normalized to sum to 1; the
    cached arrays are read-only.
    """
    if n < 2:
        raise UsageError(f"need at least 2 quadrature nodes, got {n}")
    x, w = roots_hermitenorm(n)
    w = w / w.sum()
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@lru_cache(maxsize=32)
def hermite_grid(dim: int, n_per_axis: int) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Tensorized rule for E[f(Z)], Z ~ N(0, Id_dim).

    Returns (points, weights) with points of shape (n_per_axis**dim, dim).
    Tensorization is only sensible for dim <= 3; the cached arrays are read-only.
    """
    if dim < 1 or dim > 3:
        raise UsageError(f"tensorized Gaussian quadrature supports dim in 1..3, got {dim}")
    x, w = hermite_1d(n_per_axis)
    pts = np.stack([a.ravel() for a in np.meshgrid(*([x] * dim), indexing="ij")], axis=-1)
    wts = np.prod(np.meshgrid(*([w] * dim), indexing="ij"), axis=0).ravel()
    pts.setflags(write=False)
    wts.setflags(write=False)
    return pts, wts


# node-doubling tolerance of gaussian_expectation, relative to max(1, |value|)
_EXPECTATION_RTOL = 1e-6


def gaussian_expectation(sqrt_cov: NDArray[np.float64], fn, n_per_axis: int = 64,
                         check: bool = False):
    """E[fn(Z)] for Z ~ N(0, C) with C = sqrt_cov @ sqrt_cov.T.

    `fn` must accept an (m, dim) array and return an (m, ...) array.
    With check=True the rule is re-run at doubled node count and a
    QuadratureError is raised if the two disagree beyond _EXPECTATION_RTOL.
    """
    dim = sqrt_cov.shape[0]
    pts, wts = hermite_grid(dim, n_per_axis)
    val = np.tensordot(wts, np.asarray(fn(pts @ sqrt_cov.T)), axes=(0, 0))
    if check:
        pts2, wts2 = hermite_grid(dim, 2 * n_per_axis)
        val2 = np.tensordot(wts2, np.asarray(fn(pts2 @ sqrt_cov.T)), axes=(0, 0))
        scale = max(1.0, float(np.max(np.abs(val2))))
        moved = float(np.max(np.abs(val - val2)))
        if not moved <= _EXPECTATION_RTOL * scale:  # a NaN fails
            raise QuadratureError(
                f"Gaussian quadrature did not converge: node doubling moved the "
                f"value by {moved:.3e} (relative tolerance {_EXPECTATION_RTOL:.1e})")
        val = val2
    return val


@lru_cache(maxsize=16)
def ball_points(dim: int, m: int = 256) -> NDArray[np.float64]:
    """Deterministic low-discrepancy points in the closed unit ball of R^dim.

    Uses an unscrambled Halton sequence mapped through the standard
    direction/radius construction; the origin is always included, so the
    returned array has shape (m + 1, dim).  Oscillations estimated over these
    points are lower bounds on the true ball oscillation.
    """
    # scipy.stats takes about a second to import and only this function
    # needs it, so it is imported here rather than at start-up
    from scipy.stats import qmc
    h = qmc.Halton(d=dim + 1, scramble=False)
    h.fast_forward(1)  # skip the origin of the sequence
    u = h.random(m)
    direction = ndtri(np.clip(u[:, :dim], 1e-12, 1 - 1e-12))
    norms = np.linalg.norm(direction, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    direction /= norms
    radius = u[:, dim:] ** (1.0 / dim)
    pts = np.vstack([np.zeros((1, dim)), direction * radius])
    pts.setflags(write=False)
    return pts


def tensor_norm(t: NDArray[np.float64]) -> float:
    """Frobenius norm, used uniformly for derivative tensors of any order."""
    return float(np.sqrt(np.sum(np.square(t))))


def sampled_oscillation(fn, center: NDArray[np.float64], r: float, m: int = 256) -> float:
    """max - min of `fn` over the radius-r ball at `center` (sampled).

    `fn` takes (k, dim) arrays.  This is a lower bound on the true
    oscillation; certificate checks add an explicit safety factor.
    """
    center = np.atleast_1d(np.asarray(center, dtype=float))
    pts = center[None, :] + r * ball_points(center.size, m)
    vals = np.asarray(fn(pts), dtype=float)
    return float(vals.max() - vals.min())


# Philox key tags, the second key word of each consumer's stream: with one
# master seed, no two consumers share a key.
_MC_STREAM_TAG = 0x5A3D1E  # Monte Carlo noise of `fields`, every realization
_FLOOR_COUNTER = 1 << 48  # clt-rate's Gaussian sample for the Monte Carlo floor
_STEIN_PROBE_TAG = 0x57E14  # stein-certify's probe points
_TAILS_TAG = 0xBE77E77  # the tails experiment's iid Rademacher sums
_SLICED_W1_TAG = 0x511CED  # sliced W1's projection directions


def philox_key(master_seed: int, *counters: int) -> NDArray[np.uint64]:
    """Philox key words of (master_seed, counters), each taken modulo 2^64
    and kept exactly: the masked Python ints go straight into a uint64
    array, so seeds of 2^63 and more keep all 64 bits."""
    words = [int(master_seed) & (2**64 - 1)] + [int(c) & (2**64 - 1) for c in counters]
    return np.array(words, dtype=np.uint64)


def counter_rng(master_seed: int, *counters: int) -> np.random.Generator:
    """Deterministic generator keyed by (master_seed, counters), counter 0.

    Counter-based (Philox), so each consumer's stream is a pure function of
    its key, whatever else the process draws.
    """
    return np.random.Generator(np.random.Philox(key=philox_key(master_seed, *counters)))
