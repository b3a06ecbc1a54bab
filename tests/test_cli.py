"""Configuration parsing, CSV/manifest emission, rate fitting, and the
experiment runners behind the command-line interface."""
import csv
import json
import math

import numpy as np
import pytest

from mlclt import UsageError
from mlclt.cli import (CLT_COLUMNS, CsvWriter, ExperimentConfig, _default_ell,
                       _format_cell, _schema_hash, build_config, fit_rate, main,
                       parse_config_file, row_seed, run_cli_experiment,
                       run_experiment)
from mlclt.fields import monte_carlo


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


def test_clt_rate_row_matches_direct_monte_carlo():
    cfg = ExperimentConfig(experiment="clt-rate", preset="identity-gauss",
                           L_list=(4,), n_samples=2000, master_seed=3)
    rows = run_experiment(cfg)
    assert len(rows) == 1
    row = rows[0]
    assert row.normalized_w1 <= 0.05
    spec, structure = cfg.structure_for(4)
    direct = monte_carlo(spec, structure, 2000, row_seed(3, 4))
    assert row.estimated_variance == float(direct.scalar().var(ddof=1))
    assert row.seed == row_seed(3, 4)


def test_run_experiment_rejects_other_tags():
    cfg = ExperimentConfig(experiment="oracle", L_list=(2,), n_samples=1000)
    with pytest.raises(UsageError):
        run_experiment(cfg)


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


def test_rerun_is_bit_identical(tmp_path):
    args = ["tails", "--m", "16", "--n-samples", "2000", "--seed", "5"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


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


def test_moderate_runner(tmp_path):
    out = tmp_path / "mod.csv"
    rc = main(["moderate", "--preset", "cube", "--L", "16",
               "--n-samples", "2000", "--seed", "9", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 11  # header + 10 threshold rows
    header = lines[0].split(",")
    assert float(lines[1].split(",")[header.index("ell")]) == 4


def test_stein_certify_csv_rows_match_header(tmp_path):
    # the soft-clip labels hold commas
    out = tmp_path / "certify.csv"
    assert main(["stein-certify", "--n-dim", "1", "--eps", "0.25",
                 "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert len(rows) == 3
    for row in rows:
        assert len(row) == len(header)
        assert "," in row[header.index("label")]
        assert row[header.index("passed")] == "1"


def test_main_usage_errors_exit_two(tmp_path, capsys):
    assert main(["clt-rate", "--policy", "nonsense"]) == 2
    assert main(["clt-rate", "--policy", "bogus=1"]) == 2
    assert main(["clt-rate", "--L", "32,16", "--n-samples", "2000"]) == 2
    assert "error:" in capsys.readouterr().err


def test_main_version_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
