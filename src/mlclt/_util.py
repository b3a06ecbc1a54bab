"""Shared utilities: the error types, the 1d Gauss-Hermite rule, and the
Philox keys of every random stream."""
from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.typing import NDArray
from scipy.special import roots_hermitenorm


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
