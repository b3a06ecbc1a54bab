"""Configuration parsing, CSV/manifest emission, rate fitting, and the
experiment runners behind the command-line interface."""
import ast
import csv
import hashlib
import importlib
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from support import WORKLOADS, source_env

from mlclt import UsageError
from mlclt.cli import (CLT_COLUMNS, CsvWriter, ExperimentConfig, _default_ell,
                       _format_cell, _schema_hash, build_config, fit_rate, main,
                       parse_config_file, row_seed, run_cli_experiment)
from mlclt.concentration import remainder_budget
from mlclt.fields import make_preset, monte_carlo


# ---------------------------------------------------------------------------
# configuration


def test_parse_config_file_grammar(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "experiment = clt-rate\n"
        "L_list = 16, 32, 64\n"
        "n_samples = 2000   # trailing comment\n"
        "policy.c_bound = 2.5\n"
        "\n")
    values = parse_config_file(str(path))
    assert values["experiment"] == "clt-rate"
    assert values["policy"] == {"c_bound": 2.5}
    cfg = build_config(values)
    assert cfg.L_list == (16, 32, 64)
    assert cfg.n_samples == 2000
    assert cfg.policy == {"c_bound": 2.5}


def test_parse_config_file_rejects_bad_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("just a line without equals\n")
    with pytest.raises(UsageError):
        parse_config_file(str(path))


def test_flag_overrides_win_over_file_values():
    cfg = build_config({"n_samples": "2000", "preset": "cube"},
                       {"n_samples": 5000})
    assert cfg.n_samples == 5000
    assert cfg.preset == "cube"


def test_build_config_rejects_unknown_keys():
    with pytest.raises(UsageError):
        build_config({"not_a_key": "1"})


def test_config_validation():
    with pytest.raises(UsageError):
        ExperimentConfig(L_list=(32, 16))
    with pytest.raises(UsageError):
        ExperimentConfig(experiment="clt-rate", n_samples=100)
    with pytest.raises(UsageError):
        ExperimentConfig(policy={"bogus": 1.0})
    with pytest.raises(UsageError):
        ExperimentConfig(preset="bogus")
    with pytest.raises(UsageError):
        ExperimentConfig(experiment="bogus")


def test_threads_option_is_rejected():
    # an old command line or config file that still sets it fails loudly
    with pytest.raises(SystemExit) as exc:
        main(["clt-rate", "--L", "16", "--n-samples", "2000", "--threads", "2"])
    assert exc.value.code == 2
    with pytest.raises(UsageError):
        build_config({"threads": "2"})


def test_bound_calculator_alias():
    cfg = ExperimentConfig(experiment="bound-calculator", L_list=(16,))
    assert cfg.experiment == "bound-calc"


def test_config_overrides_gamma_and_b():
    cfg = ExperimentConfig(preset="cube", gamma=1.5, B=3.0, L_list=(16,))
    _, structure = cfg.structure_for(16)
    assert structure.gamma == 1.5 and structure.B == 3.0


def test_default_ell_is_nearest_dyadic_root():
    assert _default_ell(16) == 4
    assert _default_ell(64) == 8
    assert _default_ell(256) == 16


def test_row_seed_is_deterministic_and_l_dependent():
    assert row_seed(7, 16) == row_seed(7, 16)
    assert row_seed(7, 16) != row_seed(7, 32)
    assert row_seed(8, 16) != row_seed(7, 16)
    assert 0 <= row_seed(2 ** 63 - 1, 2 ** 20) < 2 ** 63


# ---------------------------------------------------------------------------
# CSV emission


def test_format_cell_round_trip_and_types():
    assert _format_cell(None) == ""
    assert _format_cell(True) == "1"
    assert _format_cell(np.bool_(False)) == "0"
    assert _format_cell(np.float64(0.1)) == "0.1"
    assert float(_format_cell(1.0 / 3.0)) == 1.0 / 3.0
    assert _format_cell(np.int64(42)) == "42"
    assert _format_cell("text") == "text"


def test_schema_hash_depends_on_columns():
    a = _schema_hash(("x", "y"))
    assert a == _schema_hash(("x", "y"))
    assert a != _schema_hash(("x", "z"))
    assert len(a) == 12


def test_csv_writer_appends_schema_hash(tmp_path):
    path = tmp_path / "t.csv"
    writer = CsvWriter(str(path), ("a", "b"))
    writer.write_row({"a": 1, "b": 0.5})
    writer.write_row({"a": 'f[s=0.5,w=1.0] "x"', "b": 2.0})
    writer.close()
    lines = path.read_text().splitlines()
    assert lines[0] == "a,b,schema_hash"
    assert lines[1] == f"1,0.5,{writer.hash}"
    # cells holding a comma or a quote are quoted, quotes doubled
    assert lines[2] == f'"f[s=0.5,w=1.0] ""x""",2.0,{writer.hash}'


# ---------------------------------------------------------------------------
# rate fitting


def _rows(slope, Ls, scale=1.0):
    return [{"L": L, "normalized_w1": scale * L ** slope, "mc_floor": 0.0}
            for L in Ls]


def test_fit_rate_recovers_exact_power_laws():
    for true_slope in (-0.5, -1.0):
        slope, intercept, r2 = fit_rate(_rows(true_slope, (16, 32, 64, 128)))
        assert math.isclose(slope, true_slope, abs_tol=1e-12)
        assert math.isclose(r2, 1.0)


def test_fit_rate_slope_is_scale_invariant():
    s1, _, _ = fit_rate(_rows(-0.5, (16, 32, 64)))
    s2, i2, _ = fit_rate(_rows(-0.5, (16, 32, 64), scale=7.0))
    assert math.isclose(s1, s2)
    assert math.isclose(i2, math.log2(7.0) + math.log2(16.0) * 0.5
                        + fit_rate(_rows(-0.5, (16, 32, 64)))[1]
                        - math.log2(16.0) * 0.5)


def test_fit_rate_excludes_nonpositive_with_warning():
    rows = _rows(-0.5, (16, 32, 64, 128))
    rows[0]["normalized_w1"] = 0.0
    with pytest.warns(UserWarning):
        slope, _, _ = fit_rate(rows)
    assert math.isclose(slope, -0.5, abs_tol=1e-12)


def test_fit_rate_drops_rows_below_monte_carlo_floor():
    rows = _rows(-0.5, (16, 32, 64, 128))
    rows[-1]["mc_floor"] = rows[-1]["normalized_w1"]  # w1 < 2 * floor
    slope, _, _ = fit_rate(rows)
    assert math.isclose(slope, -0.5, abs_tol=1e-12)
    with pytest.raises(UsageError):
        fit_rate(rows[:2])


# ---------------------------------------------------------------------------
# runners and orchestration


def test_clt_rate_row_matches_direct_monte_carlo(tmp_path):
    out = tmp_path / "rate.csv"
    cfg = ExperimentConfig(experiment="clt-rate", preset="identity-gauss",
                           L_list=(4,), n_samples=2000, master_seed=3,
                           output_path=str(out))
    assert run_cli_experiment(cfg) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    row = rows[0]
    assert float(row["normalized_w1"]) <= 0.05
    spec, structure = cfg.structure_for(4)
    direct = monte_carlo(spec, structure, 2000, row_seed(3, 4))
    # shortest round-trip decimals read back as the same float
    assert float(row["estimated_variance"]) == float(direct[:, 0].var(ddof=1))
    assert int(row["seed"]) == row_seed(3, 4)


def test_failed_unit_is_recorded_and_the_run_goes_on(tmp_path, monkeypatch):
    real = monte_carlo

    def failing_at_8(spec, structure, *args, **kwargs):
        if structure.L == 8:
            raise RuntimeError("injected")
        return real(spec, structure, *args, **kwargs)

    monkeypatch.setattr("mlclt.cli.monte_carlo", failing_at_8)
    out = tmp_path / "rate.csv"
    with pytest.warns(UserWarning, match="L=8 failed: RuntimeError: injected"):
        assert main(["clt-rate", "--L", "4,8,16", "--n-samples", "1000",
                     "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        assert [int(r["L"]) for r in csv.DictReader(fh)] == [4, 16]
    manifest = json.loads(out.with_name("rate.csv.manifest.json").read_text())
    assert manifest["failures"] == [{"L": 8, "error": "RuntimeError: injected"}]
    assert manifest["n_rows"] == 2
    assert set(manifest["row_wallclock_seconds"]) == {"4", "16"}


def test_empty_l_list_writes_header_only_csv(tmp_path):
    out = tmp_path / "empty.csv"
    cfg = ExperimentConfig(experiment="clt-rate", L_list=(),
                           n_samples=1000, output_path=str(out))
    assert run_cli_experiment(cfg) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1
    assert lines[0].split(",")[:-1] == list(CLT_COLUMNS)
    manifest = json.loads((tmp_path / "empty.csv.manifest.json").read_text())
    assert manifest["n_rows"] == 0
    assert manifest["fit"] is None


def test_main_oracle_run_and_manifest(tmp_path):
    out = tmp_path / "oracle.csv"
    rc = main(["oracle", "--preset", "cube", "--L", "2,4",
               "--n-samples", "2000", "--seed", "11", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    header = lines[0].split(",")
    gap = float(lines[1].split(",")[header.index("estimator_gap")])
    assert gap < 1e-9
    manifest = json.loads((tmp_path / "oracle.csv.manifest.json").read_text())
    assert manifest["config"]["preset"] == "cube"
    assert manifest["config"]["L_list"] == [2, 4]
    assert manifest["schema_hash"] == lines[1].split(",")[-1]
    assert set(manifest["versions"]) == {"package", "python", "numpy", "scipy"}
    assert manifest["wallclock_seconds"] > 0.0
    assert set(manifest["row_wallclock_seconds"]) == {"2", "4"}


def test_rerun_is_bit_identical(tmp_path, capsys):
    args = ["tails", "--m", "16", "--n-samples", "2000", "--seed", "5"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
    assert set(manifest["row_wallclock_seconds"]) == {"16"}
    # the same bytes on stdout, where no manifest is written
    capsys.readouterr()
    assert main(args) == 0
    assert capsys.readouterr().out.encode("utf-8") == out1.read_bytes()


def test_bound_calc_runner(tmp_path):
    out = tmp_path / "bc.csv"
    rc = main(["bound-calc", "--preset", "identity-gauss", "--L", "64,256",
               "--out", str(out), "--policy", "c_bound=2.0"])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    header = lines[0].split(",")
    assert {"L", "eps", "ell", "condition_lhs", "total"} <= set(header)
    manifest = json.loads((tmp_path / "bc.csv.manifest.json").read_text())
    assert manifest["config"]["policy"] == {"c_bound": 2.0}
    assert set(manifest["row_wallclock_seconds"]) == {"64", "256"}
    assert "stream_version" not in manifest  # bound-calc samples nothing
    # the eps/ell choice of each row, as clt-rate records it
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    choices = manifest["decisions"]
    assert [d["L"] for d in choices] == [64, 256]
    for d, row in zip(choices, rows):
        assert d["decision"] == "eps_ell"
        assert (repr(d["eps"]), str(d["ell"])) == (row["eps"], row["ell"])
        assert d["eps"] == min(d["eps_raw"], 0.5)
        assert d["eps_clamped"] == (d["eps"] != d["eps_raw"])
        assert d["ell_clamped"] == (d["ell"] != d["ell_raw"])


# sha256 of `bound-calc --preset cube` plus these arguments: the bits of the
# closed-form bound, at L=119 over a level whose anchors do not all have the
# same number of chi-neighbours, and at d=2 with two components
_BOUND_CALC_SHA256 = {
    "--d 1 --L 16,119,4096":
        "8cad313d970aff86569f6f029ba5a01d6c146295dacd2a5a1c7b543cee4d801e",
    "--d 2 --n-dim 2 --L 12,64":
        "d8f5bb760521687c82bc72972aad242b44c7f446a5c91b25c383a8499f20e29f",
}


@pytest.mark.parametrize("args", list(_BOUND_CALC_SHA256))
def test_bound_calc_csv_digest_is_pinned(args, tmp_path):
    out = tmp_path / "bc.csv"
    assert main(["bound-calc", "--preset", "cube", *args.split(),
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _BOUND_CALC_SHA256[args]


def test_moderate_runner(tmp_path):
    out = tmp_path / "mod.csv"
    rc = main(["moderate", "--preset", "cube", "--L", "16",
               "--n-samples", "2000", "--seed", "9", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 11  # header + 10 threshold rows
    header = lines[0].split(",")
    assert float(lines[1].split(",")[header.index("ell")]) == 4
    manifest = json.loads((tmp_path / "mod.csv.manifest.json").read_text())
    assert manifest["decisions"] == [{
        "decision": "grouping", "L": 16, "ell": 4, "ell_defaulted": True,
        "m0": -1, "degenerate": True, "n_groups": 0, "group_len": 0,
        "remainder_budget": 72.0}]


# sha256 of `moderate --preset cube --n-samples 2000 --seed 9` plus these
# arguments in sample stream v3: two groups, and degenerate at d=1 and d=2
_MODERATE_SEED9_SHA256 = {
    "--d 1 --L 1024 --ell 512":
        "e1357ee9af96b048c4263b1c3c2210be45a847992568d94c55849dace948b4e4",
    "--d 1 --L 16,32,64,128 --ell 4":
        "18e2f7338c5d7580c4145182b382749713688fcefdc64ffb974233b9e448a1cf",
    "--d 2 --L 16,32 --ell 16":
        "fdec93bc6c83db75e53603101834e260593c48ea7f32d40e9072af8e024fdda9",
}


@pytest.mark.parametrize("args", list(_MODERATE_SEED9_SHA256))
def test_moderate_csv_digest_is_pinned(args, tmp_path):
    out = tmp_path / "mod.csv"
    assert main(["moderate", "--preset", "cube", *args.split(), "--n-samples",
                 "2000", "--seed", "9", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _MODERATE_SEED9_SHA256[args]
    # the manifest records each L's grouping, as its rows print it
    manifest = json.loads(out.with_name("mod.csv.manifest.json").read_text())
    with open(out, newline="") as fh:
        rows = {int(r["L"]): r for r in csv.DictReader(fh)}
    assert set(manifest["row_wallclock_seconds"]) == {str(L) for L in rows}
    assert all(t > 0.0 for t in manifest["row_wallclock_seconds"].values())
    assert [d["L"] for d in manifest["decisions"]] == list(rows)
    dim = int(args.split()[1])
    for d in manifest["decisions"]:
        row = rows[d["L"]]
        assert d["decision"] == "grouping" and d["ell_defaulted"] is False
        assert [d[k] for k in ("ell", "m0", "degenerate", "n_groups")] == [
            int(row["ell"]), int(row["m0"]), bool(int(row["degenerate"])),
            int(row["n_groups"])]
        assert (d["group_len"] > 0) == (not d["degenerate"])
        # the budget that the measured remainder_norm is held against
        _, structure = make_preset("cube", dim, d["L"])
        assert d["remainder_budget"] == remainder_budget(structure, d["ell"])
        if (d["L"], d["ell"]) == (1024, 512):
            assert math.isclose(d["remainder_budget"], 4.6404, rel_tol=1e-4)


# sha256 of `clt-rate --preset identity-gauss --d 1 --L 4,8,16,32
# --n-samples 3000 --seed 11` in sample stream v2, covariance by numpy sums
_RATE_SEED11_SHA256 = ("476156ce4245b146d87d7d44c5becaa0"
                       "77a2163258c18727989f57d96269ef88")
# sha256 of `clt-rate --preset cube --d 2 --n-dim 2 --L 8,16,32 --n-samples
# 2000 --seed 3` in sample stream v3: two components of d = 2 totals, window
# and whole-torus levels
_RATE_D2_SEED3_SHA256 = ("061687ab0de8a9067d9baffc981276b9"
                         "c022f8e93751f7e01a0b4866978f4ac2")


def test_clt_rate_manifest_records_decisions(tmp_path):
    out = tmp_path / "rate.csv"
    # every row sits below twice its floor, so no rate is fitted
    assert main(["clt-rate", "--preset", "identity-gauss", "--d", "1",
                 "--L", "4,8,16,32", "--n-samples", "3000", "--seed", "11",
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _RATE_SEED11_SHA256
    manifest = json.loads(out.with_name("rate.csv.manifest.json").read_text())
    assert manifest["stream_version"] == 3
    assert manifest["fit"] is None
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    choices = [d for d in manifest["decisions"] if d["decision"] == "eps_ell"]
    assert [d["L"] for d in choices] == [4, 8, 16, 32]
    for d in choices:
        assert d["eps"] == min(d["eps_raw"], 0.5)
        assert d["eps_clamped"] == (d["eps"] != d["eps_raw"])
        assert d["ell_clamped"] == (d["ell"] != d["ell_raw"])
    drops = [d for d in manifest["decisions"] if d["decision"] == "fit_drop"]
    assert [d["L"] for d in drops] == [4, 8, 16, 32]
    for d, row in zip(drops, rows):
        assert d["reason"] == "below 2x mc_floor"
        assert d["normalized_w1"] < 2.0 * float(row["mc_floor"])


def test_clt_rate_runs_at_d2(tmp_path):
    out = tmp_path / "rate.csv"
    assert main(["clt-rate", "--preset", "cube", "--d", "2", "--n-dim", "2",
                 "--L", "8,16,32", "--n-samples", "2000", "--seed", "3",
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _RATE_D2_SEED3_SHA256
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["L"]) for r in rows] == [8, 16, 32]
    assert all(float(r["estimated_variance"]) > 0.0 for r in rows)
    manifest = json.loads(out.with_name("rate.csv.manifest.json").read_text())
    assert manifest["config"]["d"] == 2
    assert manifest["n_rows"] == 3
    assert manifest["failures"] == []
    assert manifest["stream_version"] == 3



def _digests_under_blas_threads(tmp_path, args: list[str]) -> list[str]:
    """sha256 of the CSV of `mlclt <args>`, run in a subprocess under
    OPENBLAS_NUM_THREADS=1 and then =2."""
    code = "import sys\nimport mlclt.cli as cli\nsys.exit(cli.main(sys.argv[1:]))\n"
    digests = []
    for threads in ("1", "2"):
        out = tmp_path / f"run{threads}.csv"
        done = subprocess.run([sys.executable, "-c", code, *args, "--out", str(out)],
                              env=source_env(OPENBLAS_NUM_THREADS=threads),
                              capture_output=True, text=True, timeout=600)
        assert done.returncode == 0, done.stderr
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    return digests


def test_clt_rate_csv_does_not_depend_on_blas_threads(tmp_path):
    # OpenBLAS splits a long dot product across its threads, so a covariance
    # taken through BLAS moves in its last digits with the thread count
    digests = _digests_under_blas_threads(tmp_path, [
        "clt-rate", "--preset", "cube", "--d", "1", "--L", "16,32,64",
        "--n-samples", "12000", "--seed", "2026"])
    assert digests[0] == digests[1]

# sha256 of `stein-certify --n-dim 1 --eps 0.25 --seed 0`: a refactoring of
# the Stein quadrature must keep these bytes.  Taken with the closed-form
# inner integral of the soft-clip profiles, the residual's constant
# E[phi_eps(Z)] taken as the closed-form E[phi(Z)], and the Gauss-Legendre
# s-rule on 128 s-nodes per solution and 48 per majorant table.
_CERTIFY_SEED0_SHA256 = ("147480186879e6d76fe5093438fb33db"
                         "397c53bca8c7ffc4232a72923faa165a")
# the dim-2 and dim-3 members reach mollify along the ridge's unit direction,
# and eps = 0.05 is the smallest eps a solution admits
_CERTIFY_SHA256 = {
    "--n-dim 2 --eps 0.5 --seed 0":
        "ea3b5e0c9e767b7cb0d34e28ea0dbc744867c1d0759b3f72d135ef4d8faa54c4",
    "--n-dim 3 --eps 0.5 --seed 1":
        "8a7a32fe3c1d557e7040082a5c5d32fbd8869231db6b7eb74dc1be11eb53311c",
    "--n-dim 1 --eps 0.05 --seed 0":
        "82730e0fc10f80de746f60ed2a1373ba22d83f65d72fc1a6e0cd49615410e936",
}


@pytest.mark.parametrize("args,expect", [
    pytest.param("--n-dim 1 --eps 0.25", _CERTIFY_SEED0_SHA256, id="--n-dim 1 --eps 0.25"),
    pytest.param("--n-dim 2 --eps 0.5 --seed 0",
                 _CERTIFY_SHA256["--n-dim 2 --eps 0.5 --seed 0"],
                 id="--n-dim 2 --eps 0.5 --seed 0")])
def test_stein_certify_csv_does_not_depend_on_blas_threads(args, expect, tmp_path):
    # each s-block of the Stein quadrature is one BLAS dgemv per order; its
    # sums over s must not move with the thread count
    digests = _digests_under_blas_threads(tmp_path, ["stein-certify", *args.split()])
    assert digests == [expect, expect]


@pytest.fixture(scope="module")
def certify_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("certify") / "certify.csv"
    assert main(["stein-certify", "--n-dim", "1", "--eps", "0.25",
                 "--out", str(out)]) == 0
    return out


def test_stein_certify_csv_rows_match_header(certify_run):
    # the soft-clip labels hold commas
    out = certify_run
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _CERTIFY_SEED0_SHA256
    with open(out, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert len(rows) == 3
    for row in rows:
        assert len(row) == len(header)
        assert "," in row[header.index("label")]
        assert row[header.index("passed")] == "1"


@pytest.mark.parametrize("args", list(_CERTIFY_SHA256))
def test_stein_certify_csv_digest_is_pinned(args, tmp_path):
    out = tmp_path / "certify.csv"
    assert main(["stein-certify", *args.split(), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _CERTIFY_SHA256[args]


def test_stein_certify_manifest_records_quadrature(certify_run):
    manifest = json.loads(certify_run.with_name("certify.csv.manifest.json").read_text())
    records = manifest["stein_quadrature"]
    with open(certify_run, newline="") as fh:
        labels = [row["label"] for row in csv.DictReader(fh)]
    assert [r["label"] for r in records] == labels
    assert set(manifest["row_wallclock_seconds"]) == set(labels)
    for r in records:
        # the inner integral is exact, so no z budget or path is recorded
        assert set(r) == {"label", "rule", "s_nodes", "node_doubling_delta",
                          "majorant_table"}
        assert "z_nodes_per_axis" not in r and "inner_integral" not in r
        assert r["rule"] == "gauss-legendre"
        assert r["s_nodes"] == 128
        assert set(r["node_doubling_delta"]) == {"0", "2"}
        assert all(0.0 <= d <= 1e-4 for d in r["node_doubling_delta"].values())
        table = r["majorant_table"]
        assert set(table) == {"s_nodes", "points", "node_doubling_delta"}
        assert table["s_nodes"] == 48
        assert table["points"] > 1000
        assert set(table["node_doubling_delta"]) == {"2", "3"}
        assert all(0.0 <= d <= 1e-3 for d in table["node_doubling_delta"].values())


def _python(code: str, *args: str, **env: str) -> str:
    """stdout of `python -c code args` in a `source_env(**env)` subprocess."""
    done = subprocess.run([sys.executable, "-c", code, *args], env=source_env(**env),
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return done.stdout


# scipy.stats costs about a second of start-up, scipy.ndimage about 65 ms
# and scipy.linalg about 50 ms and 5 MiB; scipy.special's package import
# reaches scipy._lib._array_api, whose numpy wrapper loads numpy.f2py,
# numpy.testing and numpy.ma, about 0.2 s and 20 MiB.  Nothing shipped
# needs any of them.
_NOT_AT_START_UP = ("scipy.stats", "scipy.ndimage", "scipy.linalg", "scipy._lib._array_api",
                    "numpy.f2py", "numpy.testing", "numpy.ma")


def test_cli_start_up_and_stein_certify_leave_scipy_stats_unimported(tmp_path):
    # none of those modules is imported at start-up or by a benchmark run,
    # and no benchmark run imports anything inside main(), so no import
    # cost moves from start-up into the run
    code = (
        "import sys\n"
        "import mlclt.cli as cli\n"
        f"unwanted = set({_NOT_AT_START_UP!r})\n"
        "assert not unwanted & set(sys.modules), unwanted & set(sys.modules)\n"
        "for args in sys.argv[2:]:\n"
        "    before = set(sys.modules)\n"
        "    assert cli.main(args.split() + ['--seed', '2026', '--out', sys.argv[1]]) == 0\n"
        "    assert set(sys.modules) == before, (args, set(sys.modules) - before)\n"
        "    assert not unwanted & set(sys.modules), (args, unwanted & set(sys.modules))\n")
    _python(code, str(tmp_path / "out.csv"), *WORKLOADS.values())


def test_special_ufuncs_are_scipys_and_leave_scipy_special_whole():
    # the four ufuncs load without scipy.special's __init__; a later import
    # of the package runs it and finds the same objects, and the loader's
    # OPENBLAS_NUM_THREADS=1 neither outlives it nor leaves scipy's OpenBLAS
    # a thread of its own
    names = ("ndtr", "ndtri", "log1p", "eval_hermitenorm")
    code = (
        "import os, sys\n"
        "import numpy\n"
        "tasks = '/proc/self/task'\n"
        "threads = len(os.listdir(tasks)) if os.path.isdir(tasks) else None\n"
        "import mlclt.cli, mlclt._util as util\n"
        "assert 'scipy.special' not in sys.modules\n"
        "if threads is not None:\n"
        "    assert len(os.listdir(tasks)) == threads, (threads, os.listdir(tasks))\n"
        "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
        "import scipy.special, scipy.stats\n"
        f"for name in {names!r}:\n"
        "    assert getattr(util, name) is getattr(scipy.special, name), name\n"
        "assert scipy.special.gamma(5.0) == 24.0\n"
        "assert abs(scipy.stats.norm.ppf(0.975) - 1.959963984540054) < 1e-12\n")
    assert _python(code, OPENBLAS_NUM_THREADS=None).split() == ["None"]
    assert _python(code, OPENBLAS_NUM_THREADS="3").split() == ["3"]
    # with scipy.special imported first, the loader takes the package as it is
    code = (
        "import sys\n"
        "import scipy.special as special\n"
        "import mlclt.cli, mlclt._util as util\n"
        "assert sys.modules['scipy.special'] is special\n"
        f"for name in {names!r}:\n"
        "    assert getattr(util, name) is getattr(special, name), name\n")
    _python(code)


def test_master_seed_outside_u64_is_rejected():
    for seed in (-1, 2 ** 64):
        with pytest.raises(UsageError):
            ExperimentConfig(experiment="tails", master_seed=seed)
    assert ExperimentConfig(experiment="tails", master_seed=2 ** 64 - 1).master_seed == 2 ** 64 - 1
    assert main(["tails", "--seed", "-1"]) == 2
    assert main(["tails", "--seed", str(2 ** 64)]) == 2


def test_main_usage_errors_exit_two(tmp_path, capsys):
    assert main(["clt-rate", "--policy", "nonsense"]) == 2
    assert main(["clt-rate", "--policy", "bogus=1"]) == 2
    assert main(["clt-rate", "--policy", "c_variance=2"]) == 2
    assert main(["clt-rate", "--L", "32,16", "--n-samples", "2000"]) == 2
    assert main(["clt-rate", "--L", "16,2097152", "--n-samples", "1000"]) == 2
    for n_dim in ("0", "-1"):
        assert main(["stein-certify", "--n-dim", n_dim]) == 2
    assert "error:" in capsys.readouterr().err
    # a value that does not parse is named by its key, not a traceback
    cfg = tmp_path / "bad.cfg"
    for args, key in ((["--L", "16,x"], "L_list"),
                      (["--policy", "c_bar=abc"], "policy.c_bar")):
        assert main(["clt-rate", *args]) == 2, args
        assert key in capsys.readouterr().err, args
    for line, key in (("n_samples = 1e4", "n_samples"), ("L_list = 16,a", "L_list"),
                      ("policy.c_bar = x", "policy.c_bar"), ("policy = 3", "policy.NAME")):
        cfg.write_text(line + "\n")
        assert main(["clt-rate", "--config", str(cfg)]) == 2, line
        assert key in capsys.readouterr().err, line
    assert main(["clt-rate", "--config", str(tmp_path / "missing.cfg")]) == 2
    assert "missing.cfg" in capsys.readouterr().err


def test_bad_tails_length_exits_before_the_csv_opens(tmp_path, capsys):
    # m < 1 is a usage error, not a failed row of a run that exits 0
    out = tmp_path / "t.csv"
    for m in ("-3", "0"):
        with pytest.raises(UsageError, match="m must be at least 1"):
            ExperimentConfig(experiment="tails", m=int(m))
        assert main(["tails", "--m", m, "--out", str(out)]) == 2, m
        assert not out.exists() and not (tmp_path / "t.csv.manifest.json").exists()
    assert "m must be at least 1" in capsys.readouterr().err


def test_bad_stein_scale_exits_before_the_csv_opens(tmp_path, capsys):
    # eps outside stein's supported range is refused before any file opens
    out = tmp_path / "c.csv"
    for eps in ("0.01", "0.95", "nan"):
        with pytest.raises(UsageError, match="outside the supported range"):
            ExperimentConfig(experiment="stein-certify", eps=float(eps))
        assert main(["stein-certify", "--eps", eps, "--out", str(out)]) == 2, eps
        assert not out.exists() and not (tmp_path / "c.csv.manifest.json").exists()
    assert "outside the supported range" in capsys.readouterr().err


def test_bad_deviation_parameter_exits_before_any_unit_samples(tmp_path, monkeypatch,
                                                               capsys):
    # s <= 0, NaN or inf is refused before clt-rate samples its first L or
    # any file opens
    calls = []
    monkeypatch.setattr("mlclt.cli.monte_carlo",
                        lambda *args, **kwargs: calls.append(args))
    out = tmp_path / "s.csv"
    for experiment, extra in (("clt-rate", ["--n-samples", "1000"]), ("bound-calc", [])):
        for s in ("0", "-1", "nan", "inf"):
            with pytest.raises(UsageError, match="s must be positive"):
                ExperimentConfig(experiment=experiment, s=float(s))
            assert main([experiment, "--L", "16", "--s", s, *extra, "--out", str(out)]) == 2
            assert not out.exists() and not calls, (experiment, s)
            assert not (tmp_path / "s.csv.manifest.json").exists()
    assert "s must be positive" in capsys.readouterr().err


def test_unenumerable_oracle_exits_before_the_csv_opens(tmp_path, monkeypatch):
    # brute force needs scalar Rademacher noise on at most 20 cells: a float
    # preset, a vector total or a larger lattice is refused before any file
    calls = []
    monkeypatch.setattr("mlclt.cli.brute_force_law",
                        lambda *args, **kwargs: calls.append(args))
    out = tmp_path / "o.csv"
    for args in (["--preset", "identity-gauss"], ["--n-dim", "2"],
                 ["--L", "2,21"], ["--d", "2", "--L", "5"]):
        assert main(["oracle", *args, "--out", str(out)]) == 2, args
        assert not out.exists() and not calls, args
        assert not (tmp_path / "o.csv.manifest.json").exists()


def test_vector_moderate_exits_before_the_csv_opens(tmp_path, monkeypatch, capsys):
    # moderate reads component 0 of the total alone, so n_dim > 1 would only
    # sample components that no row reads
    calls = []
    monkeypatch.setattr("mlclt.fields.monte_carlo",
                        lambda *args, **kwargs: calls.append(args))
    out = tmp_path / "m.csv"
    for n_dim in ("2", "3"):
        assert main(["moderate", "--preset", "cube", "--L", "1024", "--ell", "512",
                     "--n-dim", n_dim, "--n-samples", "1000", "--out", str(out)]) == 2
        assert not out.exists() and not calls
    assert "n_dim must be 1" in capsys.readouterr().err


def test_bad_structure_exits_before_any_unit_samples(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr("mlclt.cli.monte_carlo",
                        lambda *args, **kwargs: calls.append(args))
    out = tmp_path / "x.csv"
    for args in (["--L", "16,2097152"], ["--L", "16", "--K", "0.5"],
                 ["--L", "16", "--K", "nan"], ["--L", "16", "--d", "4"],
                 ["--L", "16", "--n-dim", "4"]):
        assert main(["clt-rate", *args, "--n-samples", "1000", "--out", str(out)]) == 2
        assert not out.exists() and not calls
    assert main(["oracle", "--n-dim", "4", "--out", str(out)]) == 2
    assert not out.exists() and not calls
    # a NaN or inf structure constant once gave bound-calc a header-only CSV
    for flag, value in (("--gamma", "nan"), ("--K", "inf"), ("--B", "nan"),
                        ("--gamma", "inf")):
        assert main(["bound-calc", "--L", "16", flag, value, "--out", str(out)]) == 2
        assert not out.exists() and not (tmp_path / "x.csv.manifest.json").exists()
    # with no --L no structure is built, and these once wrote a header-only CSV
    for experiment, flag in (("clt-rate", "--K"), ("bound-calc", "--gamma"),
                             ("moderate", "--B")):
        assert main([experiment, flag, "nan", "--out", str(out)]) == 2, experiment
        assert not out.exists() and not (tmp_path / "x.csv.manifest.json").exists()
    assert "error:" in capsys.readouterr().err


def test_bad_policy_constant_exits_before_the_csv_opens(tmp_path, capsys):
    # a zero c_condition divided by zero in every row, a negative c_bound
    # gave a negative bound and a NaN c_bar wrote nan cells, all with exit 0
    out = tmp_path / "p.csv"
    for key, value in (("c_condition", "0"), ("c_bound", "-1"), ("c_bar", "nan"),
                       ("c_eps", "inf")):
        with pytest.raises(UsageError, match="finite and positive"):
            ExperimentConfig(experiment="bound-calc", policy={key: float(value)})
        assert main(["bound-calc", "--L", "16", "--policy", f"{key}={value}",
                     "--out", str(out)]) == 2, key
        assert not out.exists() and not (tmp_path / "p.csv.manifest.json").exists()
    assert "finite and positive" in capsys.readouterr().err


def test_bad_grouping_scale_exits_before_the_csv_opens(tmp_path, monkeypatch):
    # every L's grouping preconditions hold, or no L samples and no file opens
    calls = []
    monkeypatch.setattr("mlclt.fields.monte_carlo",
                        lambda *args, **kwargs: calls.append(args))
    out = tmp_path / "m.csv"
    for args in (["--L", "16,32", "--ell", "3"], ["--L", "16,32", "--ell", "0"],
                 ["--L", "16,32", "--ell", "2048"], ["--L", "24"],
                 ["--L", "32,48", "--ell", "16"]):
        assert main(["moderate", "--preset", "cube", *args, "--n-samples", "1000",
                     "--out", str(out)]) == 2, args
        assert not out.exists() and not calls, args


def test_usage_error_inside_a_unit_stops_the_run(tmp_path, monkeypatch):
    # a usage error is not a recorded failure: the run exits 2 at once
    def refuse(spec, structure, *args, **kwargs):
        calls.append(structure.L)
        raise UsageError("injected")

    calls = []
    monkeypatch.setattr("mlclt.cli.monte_carlo", refuse)
    assert main(["clt-rate", "--L", "4,8", "--n-samples", "1000",
                 "--out", str(tmp_path / "rate.csv")]) == 2
    assert calls == [4]
    assert not (tmp_path / "rate.csv.manifest.json").exists()


def test_main_version_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


# Definitions that no experiment reaches yet: clt-rate will print the
# restricted distance beside the bound (ROADMAP item 2)
_NOT_YET_REACHED = {"distances.restricted_distance"}


def _parsed(modname):
    """A module's top-level definitions, name -> statement, and its imports
    from the package, local name -> (module, name)."""
    tree = ast.parse(Path(importlib.import_module(modname).__file__).read_text())
    defs, imports = {}, {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                defs.update((n.id, node) for n in ast.walk(target) if isinstance(n, ast.Name))
        elif isinstance(node, ast.ImportFrom) and node.level:
            imports.update(_imported(node))
    return defs, imports


def _imported(node):
    """local name -> (module, name) of a relative import inside mlclt."""
    source = ".".join(filter(None, ["mlclt", node.module]))
    return {(a.asname or a.name): (source, a.name) for a in node.names}


def test_every_public_name_is_reached_from_the_cli():
    # walk the names each reached definition refers to, from every top-level
    # definition of mlclt.cli, through imports and function-local imports;
    # every public name and every top-level definition, private ones
    # included, must be reached, so no helper outlives its last caller
    modules = ("mlclt", "mlclt._util", "mlclt.gaussians", "mlclt.distances",
               "mlclt.multilevel", "mlclt.stein", "mlclt.fields",
               "mlclt.concentration", "mlclt.cli")
    parsed = {m: _parsed(m) for m in modules}

    def resolve(mod, name):
        """(module, name) of the statement that defines name as seen in mod."""
        defs, imports = parsed[mod]
        if name in defs:
            return mod, name
        return resolve(*imports[name]) if name in imports else None

    todo = [("mlclt.cli", name) for name in parsed["mlclt.cli"][0]]
    reached = set()
    while todo:
        key = todo.pop()
        if key is None or key in reached:
            continue
        reached.add(key)
        mod, name = key
        for node in ast.walk(parsed[mod][0][name]):
            if isinstance(node, ast.Name):
                todo.append(resolve(mod, node.id))
            elif isinstance(node, ast.ImportFrom) and node.level:
                todo += [resolve(*target) for target in _imported(node).values()]
    public = {(m, name) for m in modules
              for name in getattr(importlib.import_module(m), "__all__", ())}
    defined = {(m, name) for m in modules for name in parsed[m][0]
               if not name.startswith("__")}
    unreached = {f"{m.removeprefix('mlclt.')}.{name}" for m, name in public | defined
                 if resolve(m, name) not in reached}
    assert unreached == _NOT_YET_REACHED
