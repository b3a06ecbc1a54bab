"""Configuration parsing, CSV/manifest emission, rate fitting, and the
experiment runners behind the command-line interface."""
import ast
import csv
import hashlib
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mlclt
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
    assert float(row["estimated_variance"]) == float(direct.scalar().var(ddof=1))
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
# arguments in sample stream v2: two groups, and degenerate at d=1 and d=2
_MODERATE_SEED9_SHA256 = {
    "--d 1 --L 1024 --ell 512":
        "97f7b5ac8b6a675169a2850a7d8a4abb0f87db8ceb1e484f2904843cb0095b38",
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
# --n-samples 3000 --seed 11` in sample stream v2
_RATE_SEED11_SHA256 = ("c302d6b01afe83f39a076a04b92981cc"
                       "69ceb465599145c75219f4f25ecf8a7f")


def test_clt_rate_manifest_records_decisions(tmp_path):
    out = tmp_path / "rate.csv"
    # every row sits below twice its floor, so no rate is fitted
    assert main(["clt-rate", "--preset", "identity-gauss", "--d", "1",
                 "--L", "4,8,16,32", "--n-samples", "3000", "--seed", "11",
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _RATE_SEED11_SHA256
    manifest = json.loads(out.with_name("rate.csv.manifest.json").read_text())
    assert manifest["stream_version"] == 2
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
    assert main(["clt-rate", "--d", "2", "--L", "8,16,32", "--n-samples", "1000",
                 "--seed", "3", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["L"]) for r in rows] == [8, 16, 32]
    assert all(float(r["estimated_variance"]) > 0.0 for r in rows)
    manifest = json.loads(out.with_name("rate.csv.manifest.json").read_text())
    assert manifest["config"]["d"] == 2
    assert manifest["n_rows"] == 3
    assert manifest["failures"] == []
    assert manifest["stream_version"] == 2


# sha256 of `stein-certify --n-dim 1 --eps 0.25 --seed 0`: a refactoring of
# the Stein quadrature must keep these bytes.  Taken with the closed-form
# inner integral of the soft-clip profiles and with the residual's constant
# E[phi_eps(Z)] taken as the closed-form E[phi(Z)].
_CERTIFY_SEED0_SHA256 = ("66a3c7107582192d1238a9a7c699d5eb"
                         "ef5bfee9b775eb760bafd260553e88c5")
# the dim-2 and dim-3 members reach mollify's u/|u| direction, and eps = 0.05
# is the smallest eps a solution admits
_CERTIFY_SHA256 = {
    "--n-dim 2 --eps 0.5 --seed 0":
        "72c7f4cf374a84e00df5c470cd3da1aad2b945786788948797744acdda1a1a9a",
    "--n-dim 3 --eps 0.5 --seed 1":
        "718d4ea56f627a95c7902853deeac37142b65be1858ac1dc7795999719d938ed",
    "--n-dim 1 --eps 0.05 --seed 0":
        "6ce11aea5d3d83a2ddab1abb33e2f9792151aadc4b6b8cf8baa344586fc04382",
}


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
        assert set(r) == {"label", "s_nodes", "node_doubling_delta", "majorant_table"}
        assert "z_nodes_per_axis" not in r and "inner_integral" not in r
        assert r["s_nodes"] == 1024
        assert set(r["node_doubling_delta"]) == {"0", "2"}
        assert all(0.0 <= d <= 1e-4 for d in r["node_doubling_delta"].values())
        assert r["majorant_table"]["s_nodes"] == 256
        assert r["majorant_table"]["points"] > 1000


def test_cli_start_up_and_stein_certify_leave_scipy_stats_unimported(tmp_path):
    # scipy.stats costs about a second of start-up and scipy.ndimage about
    # 65 ms, and nothing shipped needs either
    src = str(Path(mlclt.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys\n"
        "import mlclt.cli as cli\n"
        "for mod in ('scipy.stats', 'scipy.ndimage'):\n"
        "    assert mod not in sys.modules, mod + ' imported at start-up'\n"
        "argv = ['stein-certify', '--n-dim', '1', '--eps', '0.5',\n"
        "        '--out', sys.argv[1]]\n"
        "assert cli.main(argv) == 0\n"
        "for mod in ('scipy.stats', 'scipy.ndimage'):\n"
        "    assert mod not in sys.modules, mod + ' imported by stein-certify'\n")
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path / "c.csv")],
                          env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr


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


def test_bad_structure_exits_before_any_unit_samples(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr("mlclt.cli.monte_carlo",
                        lambda *args, **kwargs: calls.append(args))
    out = tmp_path / "x.csv"
    for args in (["--L", "16,2097152"], ["--L", "16", "--K", "0.5"],
                 ["--L", "16", "--d", "4"], ["--L", "16", "--n-dim", "4"]):
        assert main(["clt-rate", *args, "--n-samples", "1000", "--out", str(out)]) == 2
        assert not out.exists() and not calls
    assert main(["oracle", "--n-dim", "4", "--out", str(out)]) == 2
    assert not out.exists() and not calls
    assert "error:" in capsys.readouterr().err


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


# Public names that no experiment reaches yet: clt-rate will print the
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
    # definition of mlclt.cli, through imports and function-local imports
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
    unreached = {f"{m.removeprefix('mlclt.')}.{name}" for m, name in public
                 if resolve(m, name) not in reached}
    assert unreached == _NOT_YET_REACHED
