"""Multilevel local-dependence CLT toolkit.

Verification library and experiment runner for quantitative normal
approximation of lattice sums with multilevel local dependence: mollified
Stein-equation solutions for ridge test functions with certified derivative
bounds, Wasserstein distance estimators, dependence-structure combinatorics
and the assembled bound, synthetic multilevel generators, concentration
bounds, and a reproducible Monte Carlo CLI whose six experiments reach the
library.
"""

from ._util import QuadratureError, UsageError

__version__ = "0.1.0"

__all__ = ["QuadratureError", "UsageError", "__version__"]
