"""Shared utilities: the error types, scipy's special-function ufuncs, the
1d Gauss-Hermite rule, and the Philox keys of every random stream.

The Gauss-Hermite rule, of at most 150 nodes, is scipy's `roots_hermitenorm`
algorithm step for step (Golub-Welsch eigenvalues, one Newton step,
log-normalized weights, symmetrization), with numpy's `eigvalsh` in place of
`scipy.linalg.eigvals_banded`: the nodes and weights keep scipy's bits, and
no Stein run pays the start-up time and memory of importing `scipy.linalg`
for one small eigenproblem.  Past 150 nodes scipy switches to an asymptotic
branch, which no caller in the package needs, so larger rules are refused.

The package's four special functions, `ndtr`, `ndtri`, `log1p` and
`eval_hermitenorm`, are scipy's own ufunc objects, loaded here from the
compiled `scipy.special._ufuncs` without running `scipy.special`'s
`__init__` (`_special_ufuncs`), so every value keeps scipy's bits.  That
`__init__` reaches `scipy._lib._array_api`, whose numpy wrapper loads
`numpy.f2py`, `numpy.testing` and `numpy.ma`: about 0.2 s and 20 MiB of
start-up that no run uses."""
from __future__ import annotations

import importlib.util
import os
import sys
from functools import lru_cache

import numpy as np
import numpy.random  # numpy loads it on first use: load it here, not inside a run
from numpy.typing import NDArray


def _special_ufuncs() -> tuple:
    """(ndtr, ndtri, log1p, eval_hermitenorm), scipy.special's ufuncs.

    When `scipy.special` is already imported they come from it.  Otherwise
    a placeholder parent, the package's module without its `__init__` run,
    stands in `sys.modules` while they are imported from the compiled
    `scipy.special._ufuncs`, and is removed after: a later `import
    scipy.special` runs its `__init__` and finds the same ufunc objects
    (the package then lacks only its already loaded extension submodules as
    attributes, which scipy imports by name and never reads).  `_ufuncs`
    links scipy's own OpenBLAS, whose worker threads start when it
    loads and spin for about 0.1 s each, taking a core from numpy's work.
    No code here calls scipy's BLAS, so it is loaded with
    OPENBLAS_NUM_THREADS=1, and the variable is restored after; numpy's
    OpenBLAS is loaded before and keeps its threads."""
    if "scipy.special" in sys.modules:
        from scipy.special import eval_hermitenorm, log1p, ndtr, ndtri
        return ndtr, ndtri, log1p, eval_hermitenorm
    threads = os.environ.get("OPENBLAS_NUM_THREADS")
    spec = importlib.util.find_spec("scipy.special")
    sys.modules["scipy.special"] = importlib.util.module_from_spec(spec)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        from scipy.special._ufuncs import eval_hermitenorm, log1p, ndtr, ndtri
    finally:
        del sys.modules["scipy.special"]
        if threads is None:
            del os.environ["OPENBLAS_NUM_THREADS"]
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = threads
    return ndtr, ndtri, log1p, eval_hermitenorm


ndtr, ndtri, log1p, eval_hermitenorm = _special_ufuncs()


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
