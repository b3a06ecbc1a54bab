"""Experiment runner and report generator.

Configuration, Monte Carlo orchestration, rate fitting of distance-vs-L, and
emission of machine-readable results (CSV tables plus a JSON run manifest).

Config files are flat ``key = value`` text: blank lines and ``#`` comments are
ignored, ``L_list`` is a comma-separated integer list, and policy overrides
use ``policy.NAME = value``.  Command-line flags win over file values.

Reproducibility contract: the CSV bytes are a pure function of (config,
master_seed) for a given numpy and scipy build on a given CPU SIMD feature
set.  numpy picks its exp/log loops by CPU feature: under the SSE baseline
the `mc_floor` cells, one `normalized_w1` and the stein-certify residuals
move in their last digits, while the noise and the totals keep their bits.
Timing lives in the JSON manifest, never in the CSV.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import platform
import sys
import time
import warnings
from dataclasses import asdict, dataclass, field, fields as dc_fields
from typing import Callable, Mapping, Optional, Sequence

import numpy as np
import scipy

from . import __version__
from ._util import (_FLOOR_COUNTER, _STEIN_PROBE_TAG, UsageError,
                    counter_rng)
from .concentration import (_check_grouping, bennett_tail_table, moderate_tail_table,
                            remainder_budget)
from .distances import (DiscreteLaw, soft_clip_family, sliced_w1 as _sliced_w1,
                        w1_discrete_pair, w1_discrete_vs_gaussian, w1_empirical_gaussian)
from .fields import (PRESET_NAMES, STREAM_VERSION, _check_enumerable, brute_force_law,
                     make_preset, monte_carlo)
from .gaussians import SpdMatrix
from .multilevel import (_check_constants, _policy, bar_constants, choose_eps_ell,
                         theorem_bound)
from .stein import (_EPS_MAX, _EPS_MIN, _S_NODES, _S_RULE, SteinSolution,
                    majorant_average_certificate, stein_residual,
                    third_derivative_certificate)

EXPERIMENTS = ("clt-rate", "stein-certify", "bound-calc", "tails",
               "moderate", "oracle")
_STATISTICAL = frozenset({"clt-rate", "moderate", "oracle"})
_SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# configuration


@dataclass
class ExperimentConfig:
    """A fully resolved experiment description.

    `gamma` and `B` default to the preset's values when left as None; `s` is
    the stretched-tail exponent fed to the bar-constant budgets; `m` is the
    iid sum length for the `tails` table; `ell` is the moderate-deviation
    grouping scale (None = sqrt(L) rounded to a power of two).
    """

    experiment: str = "clt-rate"
    d: int = 1
    n_dim: int = 1
    gamma: Optional[float] = None
    K: float = 2.0
    B: Optional[float] = None
    L_list: tuple = ()
    n_samples: int = 1000
    preset: str = "cube"
    master_seed: int = 0
    output_path: Optional[str] = None
    policy: dict = field(default_factory=dict)
    eps: float = 0.25
    s: float = 2.0
    m: int = 64
    ell: Optional[int] = None

    def __post_init__(self):
        if self.experiment == "bound-calculator":  # accepted alias
            self.experiment = "bound-calc"
        if self.experiment not in EXPERIMENTS:
            raise UsageError(f"unknown experiment {self.experiment!r}; "
                             f"choose from {EXPERIMENTS}")
        self.L_list = tuple(int(v) for v in self.L_list)
        if any(b <= a for a, b in zip(self.L_list, self.L_list[1:])):
            raise UsageError("L_list must be strictly increasing")
        if self.experiment in _STATISTICAL and self.n_samples < 1000:
            raise UsageError("statistical experiments need n_samples >= 1000")
        if not 0 <= self.master_seed < 2 ** 64:
            raise UsageError(f"master_seed must be in [0, 2**64), got {self.master_seed}")
        if self.preset not in PRESET_NAMES:
            raise UsageError(f"unknown preset {self.preset!r}; "
                             f"choose from {PRESET_NAMES}")
        _policy(self.policy)  # known keys, each finite and positive
        # checked here too, since an empty L_list builds no structure
        _check_constants(self.K, self.gamma, self.B)
        if self.n_dim < 1:
            raise UsageError(f"n_dim must be at least 1, got {self.n_dim}")
        if self.m < 1:
            raise UsageError(f"m must be at least 1, got {self.m}")
        if self.experiment == "moderate" and self.n_dim != 1:
            raise UsageError(f"moderate compares scalar tails: n_dim must be 1, "
                             f"got {self.n_dim}")
        if (self.experiment in ("clt-rate", "bound-calc")
                and not (self.s > 0 and math.isfinite(self.s))):
            raise UsageError(f"s must be positive and finite, got {self.s}")
        if self.experiment == "stein-certify" and not _EPS_MIN <= self.eps <= _EPS_MAX:
            raise UsageError(f"eps={self.eps} outside the supported range "
                             f"[{_EPS_MIN}, {_EPS_MAX}]")
        exp = _EXPERIMENTS[self.experiment]
        if exp.key == "L":
            # every L's preset, structure, grouping scale and enumeration
            # pass their own checks before any unit samples or the CSV opens
            for L, _ in exp.units(self):
                spec, structure = self.structure_for(L)
                if self.experiment == "moderate":
                    _check_grouping(structure, self.ell_for(L))
                elif self.experiment == "oracle":
                    _check_enumerable(spec, structure)

    def structure_for(self, L: int):
        spec, structure = make_preset(self.preset, self.d, L, K=self.K,
                                      n_components=self.n_dim)
        if self.gamma is not None or self.B is not None:
            structure = type(structure)(
                d=structure.d, L=structure.L, K=structure.K,
                gamma=self.gamma if self.gamma is not None else structure.gamma,
                B=self.B if self.B is not None else structure.B)
        return spec, structure

    def ell_for(self, L: int) -> int:
        return self.ell if self.ell is not None else _default_ell(L)


def _number(key: str, val: str, kind: type = float):
    """val as a `kind`, int or float; a value that does not parse raises a
    UsageError that names the key."""
    try:
        return kind(val)
    except ValueError:
        raise UsageError(f"{key} expects {'an integer' if kind is int else 'a number'}, "
                         f"got {val!r}") from None


def parse_config_file(path: str) -> dict:
    """Flat key/value grammar: one `key = value` per line, `#` comments."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read the config file {path}: {exc.strerror}") from None
    values: dict = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, val = (part.strip() for part in line.split("=", 1))
        if key.partition(".")[0] == "policy":
            name = key[len("policy."):]
            if not name:
                raise UsageError(f"{path}:{lineno}: a policy constant is set as "
                                 f"'policy.NAME = value'")
            values.setdefault("policy", {})[name] = _number(key, val)
        else:
            values[key] = val
    return values


_INT_KEYS = {"d", "n_dim", "n_samples", "master_seed", "m", "ell"}
_FLOAT_KEYS = {"gamma", "K", "B", "eps", "s"}


def _coerce(key: str, val):
    if not isinstance(val, str):
        return val
    if key == "L_list":
        return tuple(_number(key, v, int) for v in val.split(",") if v.strip())
    if key in _INT_KEYS:
        return _number(key, val, int)
    if key in _FLOAT_KEYS:
        return _number(key, val)
    return val


def build_config(file_values: Optional[Mapping] = None,
                 overrides: Optional[Mapping] = None) -> ExperimentConfig:
    """Merge config-file values with flag overrides (flags win)."""
    merged: dict = {}
    policy: dict = {}
    for source in (file_values or {}, overrides or {}):
        for key, val in source.items():
            if val is None:
                continue
            if key == "policy":
                policy.update(val)
            else:
                merged[key] = _coerce(key, val)
    known = {f.name for f in dc_fields(ExperimentConfig)}
    unknown = set(merged) - known
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    merged["policy"] = policy
    return ExperimentConfig(**merged)


# ---------------------------------------------------------------------------
# CSV emission


def _schema_hash(columns: Sequence[str]) -> str:
    blob = "|".join(columns) + f"|v{_SCHEMA_VERSION}"
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _format_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))  # shortest round-trip decimal
    if isinstance(v, np.integer):
        return str(int(v))
    return str(v)


class CsvWriter:
    """Single-writer CSV emitter; each row is written and flushed as one
    line, so interruption leaves a valid partial file.  Cells holding a
    comma or a quote are quoted, as `csv.reader` expects."""

    def __init__(self, path: Optional[str], columns: Sequence[str]):
        self.columns = tuple(columns) + ("schema_hash",)
        self.hash = _schema_hash(self.columns)
        self._own = path is not None
        self._fh = open(path, "w", encoding="utf-8", newline="") if path else sys.stdout
        self._csv = csv.writer(self._fh, lineterminator="\n")
        self._csv.writerow(self.columns)
        self._fh.flush()

    def write_row(self, row: Mapping) -> None:
        cells = [_format_cell(row.get(c)) for c in self.columns[:-1]]
        cells.append(self.hash)
        self._csv.writerow(cells)
        self._fh.flush()

    def close(self) -> None:
        if self._own:
            self._fh.close()


# ---------------------------------------------------------------------------
# the experiments, one unit at a time
#
# A unit runner takes the config and one unit and returns the unit's CSV rows
# (plain dicts) and its manifest records (record name -> list of entries).


CLT_COLUMNS = ("L", "estimated_variance", "normalized_w1", "sliced_w1",
               "mc_floor", "bound_total", "bound_gaussian", "bound_r_lowlevel",
               "bound_r_alllevel", "bound_r_tail", "condition_lhs", "seed")


def row_seed(master_seed: int, L: int) -> int:
    """Deterministic per-row seed; decouples the L-indexed streams."""
    state = np.random.SeedSequence([int(master_seed), int(L)]).generate_state(1, np.uint64)
    return int(state[0] & np.uint64(0x7FFFFFFFFFFFFFFF))


def _bound(config: ExperimentConfig, structure, lam: SpdMatrix):
    """The assembled bound at the eps/ell choice, from the bar constants of
    `structure` under the configured s and policy, and the manifest's
    decision record of that choice, with its raw and used values."""
    bars = bar_constants(structure, s=config.s, policy=config.policy)
    choice = choose_eps_ell(structure, lam, bars, config.policy)
    report = theorem_bound(structure, lam, bars, choice.eps, choice.ell, config.policy)
    return report, {"decision": "eps_ell", "L": structure.L, **asdict(choice)}


def _sample_covariance(vals) -> np.ndarray:
    """Unbiased covariance of (n, dim) samples from numpy reductions alone:
    each column centred by its mean, each entry the pairwise np.sum of a
    product of two centred columns over n - 1.  np.cov takes those sums
    through BLAS, whose threads split them, so its last digits move with
    the thread count."""
    cols = np.array(vals.T, order="C")
    cols -= cols.mean(axis=1, keepdims=True)
    return np.array([[np.sum(a * b) for b in cols] for a in cols]) / (len(vals) - 1)


def _rate_unit(config: ExperimentConfig, L: int):
    """Normalized W1 distance to the Gaussian at one L, beside its Monte
    Carlo floor and the bound at the sample covariance; the record is the
    eps/ell choice with its raw and used values."""
    spec, structure = config.structure_for(L)
    seed = row_seed(config.master_seed, L)
    vals = monte_carlo(spec, structure, config.n_samples, seed)
    sd = vals.std(axis=0, ddof=1)
    if np.any(sd <= 0):
        raise RuntimeError(f"degenerate sample at L={L}: zero variance")
    z = (vals - vals.mean(axis=0)) / sd
    w1 = w1_empirical_gaussian(z[:, 0], 1.0)
    sliced = None
    if config.n_dim > 1:
        sliced = _sliced_w1(z, SpdMatrix(np.eye(config.n_dim)), seed=seed)
    gauss = counter_rng(seed, _FLOOR_COUNTER).standard_normal(config.n_samples)
    floor = w1_empirical_gaussian(gauss, 1.0)
    cov = _sample_covariance(vals)
    report, decision = _bound(config, structure, SpdMatrix(cov))
    row = {
        "L": L,
        "estimated_variance": float(np.mean(np.diag(cov))),
        "normalized_w1": float(w1),
        "sliced_w1": sliced,
        "mc_floor": float(floor),
        "bound_total": report.total,
        "bound_gaussian": report.gaussian_term,
        "bound_r_lowlevel": report.r_lowlevel,
        "bound_r_alllevel": report.r_alllevel,
        "bound_r_tail": report.r_tail,
        "condition_lhs": report.condition_lhs,
        "seed": seed,
    }
    return [row], {"decisions": [decision]}


def _rate_points(rows):
    """Yield (L, normalized_w1, reason) for each row, where reason names why
    the rate fit drops the row and is None if it keeps it."""
    for row in rows:
        L, w1 = row["L"], row["normalized_w1"]
        reason = ("nonpositive" if w1 <= 0
                  else "below 2x mc_floor" if w1 < 2.0 * row["mc_floor"] else None)
        yield L, w1, reason


def fit_rate(rows) -> tuple[float, float, float]:
    """Least-squares fit of log2(normalized_w1) against log2(L) over dict
    rows.

    Rows with nonpositive distance are excluded with a warning; rows whose
    distance sits below twice the recorded Monte Carlo floor are dropped as
    noise.  Returns (slope, intercept, r_squared).
    """
    xs, ys = [], []
    for L, w1, reason in _rate_points(rows):
        if reason == "nonpositive":
            warnings.warn(f"excluding nonpositive distance at L={L}")
        if reason is None:
            xs.append(math.log2(L))
            ys.append(math.log2(w1))
    if len(xs) < 3:
        raise UsageError(f"rate fit needs >= 3 usable rows, got {len(xs)}")
    x = np.asarray(xs)
    y = np.asarray(ys)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    sst = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / sst if sst > 0 else 1.0
    return float(slope), float(intercept), float(r2)


def _certify_units(config: ExperimentConfig):
    """The canonical soft-clip members at the configured dimension, each
    keyed by its label and carrying the covariance, residual grid and probe
    that every member is certified on."""
    n = config.n_dim
    lam = SpdMatrix(np.eye(n))
    pts_1d = np.linspace(-2.0, 2.0, 9 if n == 1 else 3)
    grid = np.stack(np.meshgrid(*([pts_1d] * n), indexing="ij"),
                    axis=-1).reshape(-1, n)
    probe = 2.0 * counter_rng(config.master_seed, _STEIN_PROBE_TAG).standard_normal((200, n))
    return [(phi.label, (phi, lam, grid, probe)) for phi in soft_clip_family(n)]


def _certify_unit(config: ExperimentConfig, unit):
    """Residual, third-derivative, and majorant-average certificates of one
    soft-clip member at the configured eps; one residual call covers the
    grid, and one majorant call gates and builds the member's F_2/F_3 table
    and certifies both majorants from it.  A NaN residual at any grid point
    fails the row.  The record is its
    quadrature: the s-rule, the solution's s budget and node-doubling deltas
    per gated order, and the s budget, grid size and deltas of its majorant
    table."""
    phi, lam, grid, probe = unit
    sol = SteinSolution(phi, lam, config.eps)
    residual = float(np.max(stein_residual(sol, grid)))
    third = third_derivative_certificate(sol, probe)
    maj = majorant_average_certificate(sol, 0.1)
    maj2, maj3 = maj["hessian"], maj["third"]
    ok = (residual <= 1e-3 and third["passed"] and maj2["passed"]
          and maj3["passed"])
    row = {
        "label": phi.label,
        "dim": config.n_dim,
        "eps": config.eps,
        "residual_max": residual,
        "third_derivative_ratio": third["max_ratio"],
        "hessian_average_ratio": maj2["ratio"],
        "third_average_ratio": maj3["ratio"],
        "passed": ok,
    }
    quadrature = {"label": phi.label, "rule": _S_RULE, "s_nodes": _S_NODES,
                  "node_doubling_delta": sol.node_doubling_deltas,
                  "majorant_table": maj2["table"]}
    return [row], {"stein_quadrature": [quadrature]}


_BOUND_FIELDS = ("eps", "ell", "condition_lhs", "condition_satisfied",
                 "gaussian_term", "r_lowlevel", "r_alllevel", "r_tail", "total")


def _bound_calc_unit(config: ExperimentConfig, L: int):
    """The assembled normal-approximation bound at one L (no sampling; unit
    covariance and the configured policy constants).  The record is the
    eps/ell choice with its raw and used values."""
    _, structure = config.structure_for(L)
    report, decision = _bound(config, structure, SpdMatrix(np.eye(config.n_dim)))
    row = {"L": L, **{k: getattr(report, k) for k in _BOUND_FIELDS}}
    return [row], {"decisions": [decision]}


def _tails_unit(config: ExperimentConfig, m: int):
    """The exact tail of an iid Rademacher sum of length m against the
    closed-form bounds (no sampling)."""
    return [{**row, "m": m} for row in bennett_tail_table(m)], {}


def _default_ell(L: int) -> int:
    return 1 << round(math.log2(math.sqrt(L)))


def _moderate_unit(config: ExperimentConfig, L: int):
    """Grouped/remainder tail comparison at one L.  The record is its
    grouping, with the remainder budget beside the measured
    `remainder_norm`."""
    spec, structure = config.structure_for(L)
    ell = config.ell_for(L)
    table = moderate_tail_table(structure, spec, ell, config.n_samples,
                                row_seed(config.master_seed, L))
    decision = {"decision": "grouping", "L": L, "ell": ell,
                "ell_defaulted": config.ell is None,
                **{k: table[k] for k in ("m0", "degenerate", "n_groups",
                                         "group_len")},
                "remainder_budget": remainder_budget(structure, ell)}
    shared = {k: table[k] for k in ("ell", "m0", "degenerate", "n_groups",
                                    "grouped_variance", "remainder_norm",
                                    "delta")}
    rows = [{"L": L, **shared, **entry} for entry in table["rows"]]
    return rows, {"decisions": [decision]}


def _oracle_unit(config: ExperimentConfig, L: int):
    """Brute-force enumeration against Monte Carlo at one tiny L."""
    spec, structure = config.structure_for(L)
    exact = brute_force_law(spec, structure)
    seed = row_seed(config.master_seed, L)
    vals = monte_carlo(spec, structure, config.n_samples, seed)[:, 0]
    atoms, counts = np.unique(vals, return_counts=True)
    empirical = DiscreteLaw(values=atoms, probs=counts / len(vals))
    ev, ep = exact.sorted_scalar()
    mean = float(ep @ ev)
    sigma2 = float(ep @ (ev - mean) ** 2)
    gap = abs(w1_empirical_gaussian(vals, sigma2)
              - w1_discrete_vs_gaussian(empirical, sigma2))
    row = {
        "L": L,
        "n": config.n_samples,
        "exact_atoms": len(ev),
        "exact_variance": sigma2,
        "w1_mc_vs_exact": w1_discrete_pair(empirical, exact),
        "estimator_gap": gap,
        "seed": seed,
    }
    return [row], {}


def _each_L(config: ExperimentConfig):
    return [(L, L) for L in config.L_list]


@dataclass(frozen=True)
class Experiment:
    """One experiment: its CSV columns, the manifest key that names its units
    (`L`, `label` or `m`), its units as (key value, unit) pairs, the runner
    of one unit, and the manifest records that its units fill."""

    columns: tuple
    key: str
    units: Callable[[ExperimentConfig], list]
    run: Callable
    records: tuple = ()


_EXPERIMENTS = {
    "clt-rate": Experiment(CLT_COLUMNS, "L", _each_L, _rate_unit,
                           ("decisions",)),
    "stein-certify": Experiment(
        ("label", "dim", "eps", "residual_max", "third_derivative_ratio",
         "hessian_average_ratio", "third_average_ratio", "passed"),
        "label", _certify_units, _certify_unit, ("stein_quadrature",)),
    "bound-calc": Experiment(("L",) + _BOUND_FIELDS, "L", _each_L,
                             _bound_calc_unit, ("decisions",)),
    "tails": Experiment(
        ("m", "r", "exact_tail", "bennett_exact", "bennett_simplified",
         "heavy_tail_bound", "heavy_tail_valid"),
        "m", lambda config: [(config.m, config.m)], _tails_unit),
    "moderate": Experiment(
        ("L", "ell", "m0", "degenerate", "n_groups", "grouped_variance",
         "remainder_norm", "delta", "r", "empirical", "gaussian_part",
         "remainder_part", "rhs", "dominated"),
        "L", _each_L, _moderate_unit, ("decisions",)),
    "oracle": Experiment(
        ("L", "n", "exact_atoms", "exact_variance", "w1_mc_vs_exact",
         "estimator_gap", "seed"),
        "L", lambda config: [(L, L) for L in config.L_list or (2,)],
        _oracle_unit),
}


# ---------------------------------------------------------------------------
# orchestration


def _write_manifest(path: str, config: ExperimentConfig, writer: CsvWriter,
                    n_rows: int, wallclock: float, failures: list,
                    extra: dict) -> None:
    payload = {
        "config": asdict(config),
        "schema_hash": writer.hash,
        "columns": list(writer.columns),
        "n_rows": n_rows,
        "failures": failures,
        "wallclock_seconds": wallclock,
        "versions": {
            "package": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "log_base_lattice": 2,
        "log_eps_base": "natural",
        **extra,
    }
    with open(path, "w", encoding="utf-8") as fh:
        # numpy scalars, such as a clamping flag, as their Python values
        json.dump(payload, fh, sort_keys=True, indent=2, default=lambda v: v.item())
        fh.write("\n")


def run_cli_experiment(config: ExperimentConfig) -> int:
    """Run a config's experiment unit by unit and emit the manifest.

    Each unit's CSV rows are written as soon as it ends, its runtime goes to
    `row_wallclock_seconds` and its records are merged into the manifest.
    A unit that raises anything but `UsageError` is recorded in `failures`
    under its key, with a warning, and the run goes on.
    """
    t0 = time.perf_counter()
    exp = _EXPERIMENTS[config.experiment]
    rows: list = []
    failures: list = []
    seconds: dict = {}
    extra: dict = {name: [] for name in exp.records}
    if config.experiment in _STATISTICAL:
        extra["stream_version"] = STREAM_VERSION
    writer = CsvWriter(config.output_path, exp.columns)
    try:
        for key, unit in exp.units(config):
            t1 = time.perf_counter()
            try:
                unit_rows, records = exp.run(config, unit)
            except UsageError:
                raise
            except Exception as exc:  # a failed unit must not kill the run
                error = f"{type(exc).__name__}: {exc}"
                failures.append({exp.key: key, "error": error})
                warnings.warn(f"{exp.key}={key} failed: {error}")
                continue
            seconds[str(key)] = time.perf_counter() - t1
            for row in unit_rows:
                writer.write_row(row)
            rows += unit_rows
            for name, entries in records.items():
                extra[name] += entries
    finally:
        writer.close()
    extra["row_wallclock_seconds"] = seconds
    if config.experiment == "clt-rate":
        try:
            slope, intercept, r2 = fit_rate(rows)
            extra["fit"] = {"slope": slope, "intercept": intercept, "r2": r2}
        except UsageError:
            extra["fit"] = None
        extra["decisions"] += [{"decision": "fit_drop", "L": L,
                                "normalized_w1": w1, "reason": reason}
                               for L, w1, reason in _rate_points(rows)
                               if reason is not None]
    if config.output_path:
        _write_manifest(config.output_path + ".manifest.json", config, writer,
                        len(rows), time.perf_counter() - t0, failures, extra)
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="flat key=value config file")
    common.add_argument("--seed", type=int, metavar="U64", dest="master_seed",
                        help="master seed for all randomness")
    common.add_argument("--out", metavar="PATH", dest="output_path",
                        help="CSV output path (stdout if omitted); the JSON "
                             "manifest is written next to it")
    common.add_argument("--policy", action="append", metavar="KEY=VAL",
                        default=None, help="override a policy constant "
                        "(repeatable)")
    common.add_argument("--preset", choices=PRESET_NAMES,
                        help="synthetic generator preset")
    common.add_argument("--d", type=int, help="lattice dimension")
    common.add_argument("--n-dim", type=int, dest="n_dim",
                        help="components of the vector total")
    common.add_argument("--gamma", type=float, help="tail exponent override")
    common.add_argument("--K", type=float, help="dependence-range constant")
    common.add_argument("--B", type=float, help="norm-budget constant")
    common.add_argument("--L", dest="L_list", metavar="L1,L2,...",
                        help="comma-separated lattice sizes")
    common.add_argument("--n-samples", type=int, dest="n_samples",
                        help="Monte Carlo realizations per row")
    common.add_argument("--eps", type=float, help="mollification scale "
                        "(stein-certify)")
    common.add_argument("--s", type=float, help="tail exponent for budgets")
    common.add_argument("--m", type=int, help="iid sum length (tails)")
    common.add_argument("--ell", type=int, help="grouping scale (moderate)")

    parser = argparse.ArgumentParser(
        prog="mlclt",
        description="Normal-approximation experiments for multilevel "
                    "locally dependent lattice sums.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="experiment", required=True)
    helps = {
        "clt-rate": "Wasserstein distance to Gaussian versus lattice size",
        "stein-certify": "certify Stein-solution derivative and residual bounds",
        "bound-calc": "evaluate the theoretical bound and its side condition",
        "tails": "iid tail bounds versus the exact tail",
        "moderate": "grouped moderate-deviation tail comparison",
        "oracle": "brute-force enumeration checks at tiny sizes",
    }
    for name in EXPERIMENTS:
        sub.add_parser(name, parents=[common], help=helps[name])
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    file_values = parse_config_file(args.config) if args.config else {}
    overrides = {k: v for k, v in vars(args).items()
                 if k not in ("config", "policy") and v is not None}
    if args.policy:
        policy = {}
        for item in args.policy:
            if "=" not in item:
                raise UsageError(f"--policy expects KEY=VAL, got {item!r}")
            key, val = (part.strip() for part in item.split("=", 1))
            policy[key] = _number(f"policy.{key}", val)
        overrides["policy"] = policy
    return build_config(file_values, overrides)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
        return run_cli_experiment(config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
