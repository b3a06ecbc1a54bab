#!/usr/bin/env python3
"""Benchmark of the mlclt CLI experiments, measured from outside the package.

    python3 perfbench/run.py --workload rate-d1 --seed 2026 --seconds 40 --trace 0

Run it from the repository root; `mlclt` is imported from ``./src``.  Every
execution is a fresh interpreter (``perfbench/child.py``) that imports
``mlclt.cli``, parses the workload's arguments and calls
``mlclt.cli.main(argv)`` with ``--seed`` and ``--out`` appended, so its
``ru_maxrss`` belongs to that execution alone.  Executions repeat until the
next one would overrun ``--seconds``, with at least two per run.

``--trace 0`` installs no wrappers and reports the end-to-end metrics:
``wall_s`` (median wall time of ``main(argv)``), ``setup_s`` (median time
from starting the interpreter to a parsed config, over every execution and
`SETUP_PROBES` set-up-only interpreters), ``peak_rss_mib`` (median peak
resident memory of an execution) and ``ok_frac`` (1 - failed rows / rows
attempted).  ``--trace 1`` alternates untraced and traced executions and
reports per-layer metrics from `tracer` spans and ``-X importtime``.

Output checks: a row of the CSV is one operation; it fails when it is
missing, listed in the manifest ``failures``, has a non-finite numeric
cell, has ``passed=0`` (certify) or ``dominated=0`` or ``n_groups < 2``
(moderate); a non-zero exit fails every row of that execution.  The CSV
bytes of all executions in a run must be identical (traced and untraced
alike), or every row of the run fails.  ``csv_matches_reference`` compares
the bytes with ``reference.json`` where it records this seed; it is
reported, not counted.  The last line of stdout is one JSON object.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import MODULES, summarize  # noqa: E402

# No workload passes --threads.  Each "why" is recorded in BENCHMARK.json.
# Three workloads, not four: on a shared 2-core host the machine's speed
# drifts over minutes, and only runs of 40 s keep the run-to-run spread of
# wall_s inside its bound; 40-s runs fit the time budget for three workloads.
WORKLOADS = {
    # the headline experiment: per-realization overhead dominates at L=16,
    # per-cell window sums at L=512
    "rate-d1": "clt-rate --preset cube --d 1 --L 16,32,64,128,256,512 --n-samples 20000",
    # all stein: the no-change control for every Monte Carlo optimisation
    "certify": "stein-certify --n-dim 1 --eps 0.25",
    # per-index values (313 MiB) and the grouped concentration path; ell=512
    # keeps n_groups=2, ell=256 at this L empties the interior window
    "moderate": "moderate --preset cube --d 1 --L 1024 --ell 512 --n-samples 20000",
}
# Rows per lattice size (or per run when the command has no --L).
ROWS_PER_GROUP = {"rate-d1": 1, "certify": 3, "moderate": 10}

SETUP_PROBES = 1
MIN_EXECUTIONS = 2
HARD_LIMIT_S = 170.0

TRACED_FUNCTIONS = (
    "fields.monte_carlo",
    "distances.w1_empirical_gaussian", "distances.mollify",
    "distances.gaussian_mean",
    "stein.SteinSolution", "stein.stein_residual",
    "stein.third_derivative_certificate", "stein.majorant_average_certificate",
    "multilevel.bar_constants", "multilevel.choose_eps_ell",
    "multilevel.theorem_bound", "multilevel.build_index_set",
    "concentration.moderate_tail_table", "concentration.moderate_grouping",
    "concentration.stretched_norm", "concentration.tail_bound_from_norm",
    "gaussians.SpdMatrix",
)
RATE_LS = (16, 32, 64, 128, 256, 512, 1024)
MLCLT_MODULES = ("mlclt", "mlclt._util", "mlclt.gaussians", "mlclt.distances",
                 "mlclt.multilevel", "mlclt.stein", "mlclt.fields",
                 "mlclt.concentration", "mlclt.cli")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB",
              "ok_frac": "ratio"}


def per_layer_spec() -> dict:
    """Every per-layer metric: name -> (unit, better)."""
    spec = {}
    for fn in TRACED_FUNCTIONS:
        spec[f"{fn}.self_s"] = ("s", "lower")
        spec[f"{fn}.calls"] = ("count", "lower")
        spec[f"{fn}.errors"] = ("count", "lower")
    for mod in MODULES:  # cli.self_s: wall time outside the other six
        spec[f"{mod}.self_s"] = ("s", "lower")
    for L in RATE_LS:
        spec[f"fields.us_per_realization.L{L}"] = ("us", "lower")
    spec["fields.ns_per_cell_realization"] = ("ns", "lower")
    spec["fields.per_index_mib"] = ("MiB", "lower")
    spec["stein.third_derivative_certificate.points"] = ("count", "higher")
    spec["stein.ms_per_solution"] = ("ms", "lower")
    for mod in MLCLT_MODULES:
        spec[f"{mod}.import_s"] = ("s", "lower")
    spec["trace.wall_s"] = ("s", "lower")
    spec["trace.overhead_s"] = ("s", "lower")
    return spec


# ---------------------------------------------------------------------------
# executions


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def execute(mode: str, argv: list, workdir: Path, tag: str, timeout: float) -> dict:
    """Start child.py in a fresh interpreter and return what it measured; a
    traced child also runs under -X importtime."""
    result_path = workdir / f"{tag}.json"
    csv_path = workdir / f"{tag}.csv"
    cmd = [sys.executable] + (["-X", "importtime"] if mode == "trace" else [])
    cmd += [str(HERE / "child.py"), str(result_path), mode, *argv]
    if mode != "setup":
        cmd += ["--out", str(csv_path)]
    start = time.monotonic()
    with open(workdir / f"{tag}.stderr", "w+", encoding="utf-8") as err:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), timeout=timeout,
                                  stdout=subprocess.DEVNULL, stderr=err)
        except subprocess.TimeoutExpired:
            return {"rc": "timeout", "wall_s": time.monotonic() - start,
                    "csv": None, "manifest": {}, "maxrss_kib": 0}
        err.seek(0)
        stderr = err.read()
    if not result_path.exists():
        sys.stderr.write(stderr[-4000:])
        raise SystemExit(f"perfbench: {mode} child exited {proc.returncode} "
                         "before reaching the experiment runner")
    out = json.loads(result_path.read_text(encoding="utf-8"))
    out["setup_s"] = out["setup_end"] - start
    if mode != "setup":
        out["csv"] = csv_path.read_bytes() if csv_path.exists() else None
        manifest = Path(str(csv_path) + ".manifest.json")
        out["manifest"] = (json.loads(manifest.read_text(encoding="utf-8"))
                           if manifest.exists() else {})
    if mode == "trace":
        out["import_s"] = parse_importtime(stderr)
    return out


def parse_importtime(stderr: str) -> dict:
    """Cumulative import seconds of each mlclt module from -X importtime."""
    found = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        name = parts[-1].strip()
        if name == "mlclt" or name.startswith("mlclt."):
            found[name] = int(parts[1]) / 1e6
    return found


# ---------------------------------------------------------------------------
# output checks


def _groups(argv: list) -> list:
    return argv[argv.index("--L") + 1].split(",") if "--L" in argv else [None]


def parse_csv(text: str) -> list:
    """Rows as dicts, or None for a row with too few cells.  The CLI writes
    cells unquoted and the stein-certify labels hold commas, so surplus
    cells are folded back into the first column."""
    header, *lines = text.splitlines()
    columns = header.split(",")
    rows = []
    for line in lines:
        cells = line.split(",")
        extra = len(cells) - len(columns)
        if extra > 0:
            cells = [",".join(cells[:extra + 1])] + cells[extra + 1:]
        rows.append(dict(zip(columns, cells)) if extra >= 0 else None)
    return rows


def _row_failed(workload: str, row) -> bool:
    if row is None:
        return True
    for column, cell in row.items():
        if column == "schema_hash":
            continue
        try:
            if not math.isfinite(float(cell)):
                return True
        except (TypeError, ValueError):
            pass
    if workload == "certify" and row.get("passed") != "1":
        return True
    if workload == "moderate":
        return row.get("dominated") != "1" or int(row.get("n_groups") or 0) < 2
    return False


def check_rows(workload: str, argv: list, ex: dict) -> tuple[int, int]:
    """(operations attempted, operations failed) of one execution."""
    groups = _groups(argv)
    per_group = ROWS_PER_GROUP[workload]
    attempted = len(groups) * per_group
    if ex["rc"] != 0 or ex["csv"] is None:
        return attempted, attempted
    rows = parse_csv(ex["csv"].decode("utf-8"))
    listed = {str(f.get("L")) for f in ex["manifest"].get("failures", [])}
    if listed - {str(g) for g in groups}:
        return attempted, attempted  # a failure not tied to a known row
    failed = 0
    for g in groups:
        mine = [r for r in rows if g is None or r is None or r.get("L") == g]
        if g is not None and g in listed:
            failed += per_group
            continue
        failed += max(0, per_group - len(mine))
        failed += sum(_row_failed(workload, r) for r in mine[:per_group])
    return attempted, failed


def _reference_sha(workload: str, seed: int):
    path = HERE / "reference.json"
    if not path.exists():
        return None
    ref = json.loads(path.read_text(encoding="utf-8"))
    return ref.get("csv_sha256", {}).get(workload, {}).get(str(seed))


# ---------------------------------------------------------------------------
# metrics


def layer_metrics(ex: dict) -> tuple[dict, list]:
    """Per-layer metrics of one traced execution, and the traced functions
    that the package no longer has (reported as zeros)."""
    summary = summarize(ex["spans"])
    out = {}
    for fn in TRACED_FUNCTIONS:
        agg = summary.get(fn, {})
        out[f"{fn}.self_s"] = agg.get("self_s", 0.0)
        out[f"{fn}.calls"] = agg.get("calls", 0)
        out[f"{fn}.errors"] = agg.get("errors", 0)
    module_self = {mod: 0.0 for mod in MODULES}
    for name, agg in summary.items():
        module_self[name.split(".")[0]] += agg["self_s"]
    for mod in MODULES:
        out[f"{mod}.self_s"] = module_self[mod]
    out["cli.self_s"] = ex["wall_s"] - sum(v for m, v in module_self.items() if m != "cli")

    mc = [s for s in ex["spans"] if s[0] == "fields.monte_carlo" and s[5]]
    for L in RATE_LS:
        at_l = [s for s in mc if s[5]["L"] == L]
        n = sum(s[5]["n"] for s in at_l)
        out[f"fields.us_per_realization.L{L}"] = (
            1e6 * sum(s[2] - s[1] for s in at_l) / n if n else 0.0)
    cells = sum(s[5]["n"] * s[5]["L"] ** s[5]["d"] for s in mc)
    out["fields.ns_per_cell_realization"] = (
        1e9 * sum(s[2] - s[1] for s in mc) / cells if cells else 0.0)
    out["fields.per_index_mib"] = max(
        [s[5].get("per_index_bytes", 0) / 2 ** 20 for s in mc], default=0.0)
    out["stein.third_derivative_certificate.points"] = sum(
        s[5]["points"] for s in ex["spans"]
        if s[0] == "stein.third_derivative_certificate" and s[5])
    solutions = summary.get("stein.SteinSolution", {}).get("calls", 0)
    out["stein.ms_per_solution"] = (1e3 * module_self["stein"] / solutions
                                    if solutions else 0.0)
    out["trace.wall_s"] = ex["wall_s"]
    missing = [fn for fn in TRACED_FUNCTIONS if fn not in ex["wrapped"]]
    return out, missing


def _median(values):
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# the run


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    argv = WORKLOADS[workload].split() + ["--seed", str(seed)]
    t_start = time.monotonic()
    deadline = t_start + seconds
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=ROOT / ".perfbench_out"))

    def remaining() -> float:
        return max(1.0, HARD_LIMIT_S - (time.monotonic() - t_start))

    try:
        setups, untraced, traced = [], [], []
        if not trace:
            for i in range(SETUP_PROBES):
                setups.append(execute("setup", argv, workdir, f"setup{i}", remaining()))
        i = 0
        while True:
            t = time.monotonic()
            untraced.append(execute("run", argv, workdir, f"run{i}", remaining()))
            if trace:
                traced.append(execute("trace", argv, workdir, f"trace{i}", remaining()))
            i += 1
            step = time.monotonic() - t
            timed_out = any(ex["rc"] == "timeout" for ex in untraced + traced)
            if timed_out or (i >= (1 if trace else MIN_EXECUTIONS)
                             and time.monotonic() + step > deadline):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    executions = untraced + traced
    attempted = failed = 0
    for ex in executions:
        a, f = check_rows(workload, argv, ex)
        attempted += a
        failed += f
    digests = {hashlib.sha256(ex["csv"]).hexdigest() if ex["csv"] is not None else None
               for ex in executions}
    identical = len(digests) == 1 and None not in digests
    if not identical:
        failed = attempted
    digest = next(iter(digests)) if identical else None
    reference = _reference_sha(workload, seed)

    print(f"workload {workload}: mlclt {' '.join(argv)}")
    print(f"  executions {len(untraced)} untraced, {len(traced)} traced; "
          f"run took {time.monotonic() - t_start:.1f} s")
    print(f"  failed_frac {failed / attempted:.6g} ratio ({failed} of {attempted} rows)")
    print(f"  csv_identical {str(identical).lower()}  csv_sha256 {digest}")
    print("  csv_matches_reference "
          + ("null (no reference for this seed)" if reference is None
             else str(digest == reference).lower()))

    if not trace:
        walls = [ex["wall_s"] for ex in untraced]
        setup_samples = [ex["setup_s"] for ex in setups + untraced if "setup_s" in ex]
        rss = [ex["maxrss_kib"] / 1024.0 for ex in untraced]
        values = {
            "wall_s": _median(walls),
            "setup_s": _median(setup_samples),
            "peak_rss_mib": _median(rss),
            "ok_frac": 1.0 - failed / attempted,
        }
        print(f"  wall_s {values['wall_s']:.4f} s (median of {len(walls)}: "
              + ", ".join(f"{w:.3f}" for w in walls) + ")")
        print(f"  setup_s {values['setup_s']:.4f} s (median of {len(setup_samples)}: "
              + ", ".join(f"{s:.3f}" for s in setup_samples) + ")")
        print(f"  peak_rss_mib {values['peak_rss_mib']:.1f} MiB (median of {len(rss)})")
        print(f"  ok_frac {values['ok_frac']:.6g} ratio")
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    else:
        spec = per_layer_spec()
        per_exec, missing = [], set()
        for ex in traced:
            if "spans" in ex:
                m, gone = layer_metrics(ex)
                per_exec.append(m)
                missing.update(gone)
        values = {}
        for name in spec:
            samples = [m[name] for m in per_exec if name in m]
            values[name] = _median(samples)
        for mod in MLCLT_MODULES:
            values[f"{mod}.import_s"] = _median(
                [ex["import_s"].get(mod, 0.0) for ex in traced if "import_s" in ex])
        values["trace.overhead_s"] = (_median([ex["wall_s"] for ex in traced])
                                      - _median([ex["wall_s"] for ex in untraced]))
        if missing:
            print("  not in the package, reported as 0: " + ", ".join(sorted(missing)))
        wall = values["trace.wall_s"] or 1.0
        shares = sorted(((values[f"{m}.self_s"] / wall, m) for m in MODULES), reverse=True)
        print("  layer self-time shares of traced wall: "
              + ", ".join(f"{m} {100 * s:.1f}%" for s, m in shares))
        if per_exec:
            summary = summarize(traced[0]["spans"])
            print("  every wrapped call (first traced execution):")
            for name, agg in sorted(summary.items(), key=lambda kv: -kv[1]["self_s"]):
                print(f"    {name:45s} self {agg['self_s']:9.4f} s  calls {agg['calls']:6d}"
                      f"  errors {agg['errors']}")
        metrics = {k: {"value": values[k], "unit": u} for k, (u, _) in spec.items()}

    return {"correct": identical and failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mlclt" / "cli.py").is_file():
        print(f"perfbench: no mlclt package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
