"""Shared utilities: the error types, the 1d Gauss-Hermite rule, and the
Philox keys of every random stream.

The Gauss-Hermite rule, of at most 150 nodes, is scipy's `roots_hermitenorm`
algorithm step for step (Golub-Welsch eigenvalues, one Newton step,
log-normalized weights, symmetrization), with numpy's `eigvalsh` in place of
`scipy.linalg.eigvals_banded`: the nodes and weights keep scipy's bits, and
no Stein run pays the start-up time and memory of importing `scipy.linalg`
for one small eigenproblem.  Past 150 nodes scipy switches to an asymptotic
branch, which no caller in the package needs, so larger rules are refused."""
from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.typing import NDArray
from scipy.special import eval_hermitenorm


class QuadratureError(RuntimeError):
    """Raised when a quadrature rule fails its node-doubling convergence check."""


class UsageError(ValueError):
    """Raised for out-of-contract arguments (dimension mismatch, bad ranges)."""


def _golub_welsch(n: int) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """roots_hermitenorm(n), n <= 150, bit for bit, without scipy.linalg."""
    off = np.sqrt(np.arange(1, n, dtype=np.float64))
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    # one Newton step on He_n, whose derivative is n He_{n-1}
    dy = n * eval_hermitenorm(n - 1, x)
    x -= eval_hermitenorm(n, x) / dy
    # He_{n-1} and the derivative span many decades: scale each by the
    # geometric middle of its range before taking the product
    fm = eval_hermitenorm(n - 1, x)
    log_fm, log_dy = np.log(np.abs(fm)), np.log(np.abs(dy))
    fm /= np.exp((log_fm.max() + log_fm.min()) / 2.0)
    dy /= np.exp((log_dy.max() + log_dy.min()) / 2.0)
    w = 1.0 / (fm * dy)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    # scipy's scaling to the mass sqrt(2 pi); the bits of the weights that
    # hermite_1d normalizes depend on it
    w *= np.sqrt(2.0 * np.pi) / w.sum()
    return x, w


@lru_cache(maxsize=64)
def hermite_1d(n: int) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Nodes/weights for E[f(Z)], Z ~ N(0, 1).

    Probabilists' Gauss-Hermite rule of 2 to 150 nodes with the bits of
    scipy's `roots_hermitenorm`, weights normalized to sum to 1; the cached
    arrays are read-only.
    """
    # 150 is roots_hermitenorm's own switch to its asymptotic branch
    if not 2 <= n <= 150:
        raise UsageError(f"need 2 to 150 quadrature nodes, got {n}")
    x, w = _golub_welsch(n)
    w = w / w.sum()
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


# Philox key tags, the second key word of each consumer's stream: with one
# master seed, no two consumers share a key.
_MC_STREAM_TAG = 0x5A3D1E  # Monte Carlo noise of `fields`, every realization
_FLOOR_COUNTER = 1 << 48  # clt-rate's Gaussian sample for the Monte Carlo floor
_STEIN_PROBE_TAG = 0x57E14  # stein-certify's probe points
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
