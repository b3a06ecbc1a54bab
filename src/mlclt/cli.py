"""Experiment runner and report generator.

Configuration, Monte Carlo orchestration, rate fitting of distance-vs-L, and
emission of machine-readable results (CSV tables plus a JSON run manifest).

Config files are flat ``key = value`` text: blank lines and ``#`` comments are
ignored, ``L_list`` is a comma-separated integer list, and policy overrides
use ``policy.NAME = value``.  Command-line flags win over file values.

Reproducibility contract: the CSV bytes are a pure function of (config,
master_seed).  Timing therefore lives in the JSON manifest, never in the
CSV.
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
from dataclasses import dataclass, field, fields as dc_fields
from typing import Callable, Mapping, Optional, Sequence

import numpy as np
import scipy

from . import __version__
from ._util import (_FLOOR_COUNTER, _STEIN_PROBE_TAG, UsageError,
                    counter_rng)
from .concentration import bennett_tail_table, moderate_tail_table
from .distances import (DiscreteLaw, SampleSet, soft_clip_family,
                        sliced_w1 as _sliced_w1, w1_discrete_pair,
                        w1_discrete_vs_gaussian, w1_empirical_gaussian)
from .fields import (PRESET_NAMES, STREAM_VERSION, brute_force_law, make_preset,
                     monte_carlo)
from .gaussians import GaussianLaw, SpdMatrix
from .multilevel import (DEFAULT_POLICY, bar_constants, choose_eps_ell,
                         theorem_bound)
from .stein import (SteinSolution, majorant_average_certificate,
                    stein_residual, third_derivative_certificate)

EXPERIMENTS = ("clt-rate", "stein-certify", "bound-calc", "tails",
               "moderate", "oracle")
_STATISTICAL = frozenset({"clt-rate", "tails", "moderate", "oracle"})
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
        for key in self.policy:
            if key not in DEFAULT_POLICY:
                raise UsageError(f"unknown policy constant {key!r}")

    def structure_for(self, L: int):
        spec, structure = make_preset(self.preset, self.d, L, K=self.K,
                                      n_components=self.n_dim)
        if self.gamma is not None or self.B is not None:
            structure = type(structure)(
                d=structure.d, L=structure.L, K=structure.K,
                gamma=self.gamma if self.gamma is not None else structure.gamma,
                B=self.B if self.B is not None else structure.B)
        return spec, structure

    def echo(self) -> dict:
        out = {}
        for f in dc_fields(self):
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out


def parse_config_file(path: str) -> dict:
    """Flat key/value grammar: one `key = value` per line, `#` comments."""
    values: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected 'key = value'")
            key, val = (part.strip() for part in line.split("=", 1))
            if key.startswith("policy."):
                values.setdefault("policy", {})[key[len("policy."):]] = float(val)
            else:
                values[key] = val
    return values


_INT_KEYS = {"d", "n_dim", "n_samples", "master_seed", "m", "ell"}
_FLOAT_KEYS = {"gamma", "K", "B", "eps", "s"}


def _coerce(key: str, val):
    if not isinstance(val, str):
        return val
    if key == "L_list":
        return tuple(int(v) for v in val.split(",") if v.strip()) if val.strip() else ()
    if key in _INT_KEYS:
        return int(val)
    if key in _FLOAT_KEYS:
        return float(val)
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
# the rate experiment


@dataclass(frozen=True)
class ResultRow:
    L: int
    estimated_variance: float
    normalized_w1: float
    sliced_w1: Optional[float]
    mc_floor: float
    theoretical_bound_components: dict
    wallclock_seconds: float
    seed: int

    def csv_cells(self) -> dict:
        b = self.theoretical_bound_components
        return {
            "L": self.L,
            "estimated_variance": self.estimated_variance,
            "normalized_w1": self.normalized_w1,
            "sliced_w1": self.sliced_w1,
            "mc_floor": self.mc_floor,
            "bound_total": b["total"],
            "bound_gaussian": b["gaussian_term"],
            "bound_r_lowlevel": b["r_lowlevel"],
            "bound_r_alllevel": b["r_alllevel"],
            "bound_r_tail": b["r_tail"],
            "condition_lhs": b["condition_lhs"],
            "seed": self.seed,
        }


CLT_COLUMNS = ("L", "estimated_variance", "normalized_w1", "sliced_w1",
               "mc_floor", "bound_total", "bound_gaussian", "bound_r_lowlevel",
               "bound_r_alllevel", "bound_r_tail", "condition_lhs", "seed")


def row_seed(master_seed: int, L: int) -> int:
    """Deterministic per-row seed; decouples the L-indexed streams."""
    state = np.random.SeedSequence([int(master_seed), int(L)]).generate_state(1, np.uint64)
    return int(state[0] & np.uint64(0x7FFFFFFFFFFFFFFF))


def _clt_row(config: ExperimentConfig, L: int) -> ResultRow:
    t0 = time.perf_counter()
    spec, structure = config.structure_for(L)
    seed = row_seed(config.master_seed, L)
    samples = monte_carlo(spec, structure, config.n_samples, seed)
    vals = samples.values
    sd = vals.std(axis=0, ddof=1)
    if np.any(sd <= 0):
        raise RuntimeError(f"degenerate sample at L={L}: zero variance")
    z = (vals - vals.mean(axis=0)) / sd
    w1 = w1_empirical_gaussian(z[:, 0], 1.0)
    sliced = None
    if config.n_dim > 1:
        zset = SampleSet(values=z, master_seed=seed)
        law = GaussianLaw(SpdMatrix(np.eye(config.n_dim)))
        sliced = _sliced_w1(zset, law, seed=seed)
    gauss = counter_rng(seed, _FLOOR_COUNTER).standard_normal(config.n_samples)
    floor = w1_empirical_gaussian(gauss, 1.0)
    cov = np.atleast_2d(np.cov(vals, rowvar=False, ddof=1))
    lam = SpdMatrix(cov)
    bars = bar_constants(structure, s=config.s, policy=config.policy)
    choice = choose_eps_ell(structure, lam, bars, config.policy)
    report = theorem_bound(structure, lam, bars, choice.eps, choice.ell,
                           config.policy)
    components = {
        "total": report.total,
        "gaussian_term": report.gaussian_term,
        "r_lowlevel": report.r_lowlevel,
        "r_alllevel": report.r_alllevel,
        "r_tail": report.r_tail,
        "condition_lhs": report.condition_lhs,
        "eps": report.eps,
        "ell": report.ell,
        "eps_raw": choice.eps_raw,
        "ell_raw": choice.ell_raw,
        "eps_clamped": choice.eps_clamped,
        "ell_clamped": choice.ell_clamped,
    }
    return ResultRow(
        L=L,
        estimated_variance=float(np.mean(np.diag(cov))),
        normalized_w1=float(w1),
        sliced_w1=sliced,
        mc_floor=float(floor),
        theoretical_bound_components=components,
        wallclock_seconds=time.perf_counter() - t0,
        seed=seed,
    )


def run_experiment(config: ExperimentConfig,
                   on_row: Optional[Callable[[ResultRow], None]] = None,
                   failures: Optional[list] = None) -> list[ResultRow]:
    """Run the rate experiment: one ResultRow per L.

    Per-row failures are recorded (in `failures` if given) and the run
    continues with the remaining L values.
    """
    if config.experiment != "clt-rate":
        raise UsageError("run_experiment drives the clt-rate experiment; use "
                         "the dedicated runners for other tags")
    rows: list[ResultRow] = []
    for L in config.L_list:
        try:
            row = _clt_row(config, L)
        except Exception as exc:  # per-row failures must not kill the run
            record = {"L": L, "error": f"{type(exc).__name__}: {exc}"}
            if failures is not None:
                failures.append(record)
            warnings.warn(f"row L={L} failed: {record['error']}")
            continue
        rows.append(row)
        if on_row is not None:
            on_row(row)
    return rows


def _row_value(row, key, default=None):
    if isinstance(row, Mapping):
        return row.get(key, default)
    return getattr(row, key, default)


def _rate_points(rows):
    """Yield (L, normalized_w1, reason) for each row holding both, where
    reason names why the rate fit drops the row and is None if it keeps it."""
    for row in rows:
        L = _row_value(row, "L")
        w1 = _row_value(row, "normalized_w1")
        floor = _row_value(row, "mc_floor", 0.0) or 0.0
        if w1 is None or L is None:
            continue
        reason = ("nonpositive" if w1 <= 0
                  else "below 2x mc_floor" if w1 < 2.0 * floor else None)
        yield L, w1, reason


def fit_rate(rows) -> tuple[float, float, float]:
    """Least-squares fit of log2(normalized_w1) against log2(L).

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


# ---------------------------------------------------------------------------
# the certification / table runners


def run_stein_certify(config: ExperimentConfig):
    """Residual, third-derivative, and majorant-average certificates for the
    canonical soft-clip family at the configured (dimension, eps).

    Each row also carries `quadrature`, a record for the manifest rather than
    a CSV column: the solution's s budget, its node-doubling deltas per gated
    order, and the s budget and grid size of its majorant table.
    """
    n = config.n_dim
    law = GaussianLaw(SpdMatrix(np.eye(n)))
    pts_1d = np.linspace(-2.0, 2.0, 9 if n == 1 else 3)
    grid = np.stack(np.meshgrid(*([pts_1d] * n), indexing="ij"),
                    axis=-1).reshape(-1, n)
    probe = 2.0 * counter_rng(config.master_seed, _STEIN_PROBE_TAG).standard_normal((200, n))
    rows = []
    for phi in soft_clip_family(n):
        sol = SteinSolution(phi, law, config.eps)
        residual = max(stein_residual(sol, x) for x in grid)
        third = third_derivative_certificate(sol, probe)
        maj2 = majorant_average_certificate(sol, 0.1, "hessian")
        maj3 = majorant_average_certificate(sol, 0.1, "third")
        ok = (residual <= 1e-3 and third["passed"] and maj2["passed"]
              and maj3["passed"])
        rows.append({
            "label": phi.label,
            "dim": n,
            "eps": config.eps,
            "residual_max": float(residual),
            "third_derivative_ratio": third["max_ratio"],
            "hessian_average_ratio": maj2["ratio"],
            "third_average_ratio": maj3["ratio"],
            "passed": ok,
            "quadrature": {
                "label": phi.label,
                "s_nodes": sol.s_nodes,
                "node_doubling_delta": sol.node_doubling_deltas,
                "majorant_table": maj2["table"],
            },
        })
    columns = ("label", "dim", "eps", "residual_max", "third_derivative_ratio",
               "hessian_average_ratio", "third_average_ratio", "passed")
    return columns, rows


def run_bound_calc(config: ExperimentConfig):
    """Evaluate the assembled normal-approximation bound per L (no sampling;
    unit covariance and the configured policy constants)."""
    lam = SpdMatrix(np.eye(config.n_dim))
    rows = []
    for L in config.L_list:
        _, structure = config.structure_for(L)
        bars = bar_constants(structure, s=config.s, policy=config.policy)
        choice = choose_eps_ell(structure, lam, bars, config.policy)
        report = theorem_bound(structure, lam, bars, choice.eps, choice.ell,
                               config.policy)
        rows.append({
            "L": L,
            "eps": report.eps,
            "ell": report.ell,
            "condition_lhs": report.condition_lhs,
            "condition_satisfied": report.condition_satisfied,
            "gaussian_term": report.gaussian_term,
            "r_lowlevel": report.r_lowlevel,
            "r_alllevel": report.r_alllevel,
            "r_tail": report.r_tail,
            "total": report.total,
        })
    columns = ("L", "eps", "ell", "condition_lhs", "condition_satisfied",
               "gaussian_term", "r_lowlevel", "r_alllevel", "r_tail", "total")
    return columns, rows


def run_tails(config: ExperimentConfig):
    """Empirical tails of an iid Rademacher sum against the closed-form
    bounds."""
    rows = bennett_tail_table(config.m, config.n_samples, config.master_seed)
    for row in rows:
        row["m"] = config.m
        row["n"] = config.n_samples
    columns = ("m", "n", "r", "empirical", "mc_slack", "bennett_exact",
               "bennett_simplified", "heavy_tail_bound", "heavy_tail_valid")
    return columns, rows


def _default_ell(L: int) -> int:
    return 1 << round(math.log2(math.sqrt(L)))


def run_moderate(config: ExperimentConfig):
    """Grouped/remainder tail comparison per L."""
    rows = []
    for L in config.L_list:
        spec, structure = config.structure_for(L)
        ell = config.ell if config.ell is not None else _default_ell(L)
        table = moderate_tail_table(structure, spec, ell, config.n_samples,
                                    row_seed(config.master_seed, L))
        for entry in table["rows"]:
            rows.append({
                "L": L,
                "ell": table["ell"],
                "m0": table["m0"],
                "degenerate": table["degenerate"],
                "n_groups": table["n_groups"],
                "grouped_variance": table["grouped_variance"],
                "remainder_norm": table["remainder_norm"],
                "delta": table["delta"],
                **entry,
            })
    columns = ("L", "ell", "m0", "degenerate", "n_groups", "grouped_variance",
               "remainder_norm", "delta", "r", "empirical", "gaussian_part",
               "remainder_part", "rhs", "dominated")
    return columns, rows


def run_oracle(config: ExperimentConfig):
    """Brute-force enumeration against Monte Carlo at tiny lattice sizes."""
    rows = []
    for L in (config.L_list or (2,)):
        spec, structure = config.structure_for(L)
        exact = brute_force_law(spec, structure)
        seed = row_seed(config.master_seed, L)
        samples = monte_carlo(spec, structure, config.n_samples, seed)
        vals = samples.scalar()
        atoms, counts = np.unique(vals, return_counts=True)
        empirical = DiscreteLaw(values=atoms, probs=counts / len(vals))
        ev, ep = exact.sorted_scalar()
        mean = float(ep @ ev)
        sigma2 = float(ep @ (ev - mean) ** 2)
        gap = abs(w1_empirical_gaussian(vals, sigma2)
                  - w1_discrete_vs_gaussian(empirical, sigma2))
        rows.append({
            "L": L,
            "n": config.n_samples,
            "exact_atoms": len(ev),
            "exact_variance": sigma2,
            "w1_mc_vs_exact": w1_discrete_pair(empirical, exact),
            "estimator_gap": gap,
            "seed": seed,
        })
    columns = ("L", "n", "exact_atoms", "exact_variance", "w1_mc_vs_exact",
               "estimator_gap", "seed")
    return columns, rows


# ---------------------------------------------------------------------------
# orchestration


def _write_manifest(path: str, config: ExperimentConfig, writer: CsvWriter,
                    n_rows: int, wallclock: float, failures: list,
                    extra: Optional[dict] = None) -> None:
    payload = {
        "config": config.echo(),
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
    }
    if extra:
        payload.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


# the ChoiceReport fields a rate row carries, with their JSON types
_CHOICE_FIELDS = {"eps_raw": float, "eps": float, "eps_clamped": bool,
                  "ell_raw": int, "ell": int, "ell_clamped": bool}


def _clt_decisions(rows) -> list:
    """The numerical decisions of a rate run: each row's eps/ell choice with
    its raw and used values, then each L that the rate fit drops."""
    out = [{"decision": "eps_ell", "L": r.L,
            **{k: cast(r.theoretical_bound_components[k])
               for k, cast in _CHOICE_FIELDS.items()}} for r in rows]
    out += [{"decision": "fit_drop", "L": L, "normalized_w1": float(w1),
             "reason": reason}
            for L, w1, reason in _rate_points(rows) if reason is not None]
    return out


def run_cli_experiment(config: ExperimentConfig) -> int:
    """Dispatch a config to its runner, stream CSV rows, emit the manifest."""
    t0 = time.perf_counter()
    failures: list = []
    extra: dict = {}
    if config.experiment in _STATISTICAL:
        extra["stream_version"] = STREAM_VERSION
    if config.experiment == "clt-rate":
        writer = CsvWriter(config.output_path, CLT_COLUMNS)
        try:
            rows = run_experiment(config,
                                  on_row=lambda r: writer.write_row(r.csv_cells()),
                                  failures=failures)
        finally:
            writer.close()
        n_rows = len(rows)
        extra["row_wallclock_seconds"] = {str(r.L): r.wallclock_seconds
                                          for r in rows}
        try:
            slope, intercept, r2 = fit_rate(rows)
            extra["fit"] = {"slope": slope, "intercept": intercept, "r2": r2}
        except UsageError:
            extra["fit"] = None
        extra["decisions"] = _clt_decisions(rows)
    else:
        runner = {
            "stein-certify": run_stein_certify,
            "bound-calc": run_bound_calc,
            "tails": run_tails,
            "moderate": run_moderate,
            "oracle": run_oracle,
        }[config.experiment]
        columns, table = runner(config)
        if config.experiment == "stein-certify":
            extra["stein_quadrature"] = [row["quadrature"] for row in table]
        writer = CsvWriter(config.output_path, columns)
        try:
            for row in table:
                writer.write_row(row)
        finally:
            writer.close()
        n_rows = len(table)
    if config.output_path:
        _write_manifest(config.output_path + ".manifest.json", config, writer,
                        n_rows, time.perf_counter() - t0, failures, extra)
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
        "tails": "iid tail bounds versus empirical tails",
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
            key, val = item.split("=", 1)
            policy[key.strip()] = float(val)
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
