"""Tests of the benchmark itself: python3 -m pytest perfbench

The traced-equals-untraced test runs every workload twice (about a
minute and a half in all).
"""
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import run
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


@pytest.fixture
def workdir():
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="test-", dir=ROOT / ".perfbench_out"))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_metric_names_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == run.per_layer_spec()


def test_tracer_catches_aliases_local_imports_and_classes():
    import mlclt.cli
    import mlclt.concentration
    import mlclt.distances
    import mlclt.fields
    import mlclt.gaussians
    import numpy as np

    original = mlclt.distances.sliced_w1
    tracer = Tracer()
    tracer.install()
    try:
        # cli binds sliced_w1 as _sliced_w1: both names get the one wrapper
        assert mlclt.cli._sliced_w1 is mlclt.distances.sliced_w1
        assert mlclt.cli._sliced_w1 is not original
        assert mlclt.cli._sliced_w1.__wrapped__ is original

        spec, structure = mlclt.fields.make_preset("cube", 1, 16)
        mlclt.concentration.moderate_tail_table(structure, spec, 4, 1000, 7)
        names = [s[0] for s in tracer.spans]
        mc = names.index("fields.monte_carlo")
        parent = tracer.spans[mc][3]
        assert tracer.spans[parent][0] == "concentration.moderate_tail_table"
        attrs = tracer.spans[mc][5]
        assert (attrs["L"], attrs["d"], attrs["n"]) == (16, 1, 1000)
        assert attrs["per_index_bytes"] > 0

        before = len(tracer.spans)
        m = mlclt.gaussians.SpdMatrix(np.eye(2))
        assert isinstance(m, mlclt.gaussians.SpdMatrix)
        assert isinstance(type(m)(np.eye(3)), mlclt.gaussians.SpdMatrix)
        assert [s[0] for s in tracer.spans[before:]] == ["gaussians.SpdMatrix"] * 2
    finally:
        tracer.uninstall()
    assert mlclt.cli._sliced_w1 is original
    assert mlclt.distances.sliced_w1 is original


def test_removed_function_is_reported_not_fatal():
    spans = [["cli.main", 0.0, 2.0, -1, False, None],
             ["fields.monte_carlo", 0.5, 1.5, 0, False,
              {"L": 16, "d": 1, "n": 1000}]]
    wrapped = [fn for fn in run.TRACED_FUNCTIONS if fn != "stein.stein_residual"]
    metrics, missing = run.layer_metrics({"spans": spans, "wrapped": wrapped,
                                          "wall_s": 2.0})
    assert missing == ["stein.stein_residual"]
    assert metrics["stein.stein_residual.calls"] == 0
    assert metrics["fields.monte_carlo.self_s"] == pytest.approx(1.0)
    assert metrics["cli.self_s"] == pytest.approx(1.0)
    assert metrics["fields.us_per_realization.L16"] == pytest.approx(1000.0)


def _ex(text, rc=0, failures=()):
    return {"rc": rc, "csv": text.encode(), "manifest": {"failures": list(failures)}}


def test_row_checks():
    argv = run.WORKLOADS["rate-d1"].split()
    head = "L,normalized_w1,sliced_w1,schema_hash\n"
    good = head + "".join(f"{L},0.5,,h\n" for L in (16, 32, 64, 128, 256, 512))
    assert run.check_rows("rate-d1", argv, _ex(good)) == (6, 0)
    partial = head + "16,0.5,,h\n32,nan,,h\n64,0.5,,h\n128,0.5,,h\n256,0.5,,h\n"
    assert run.check_rows("rate-d1", argv, _ex(partial)) == (6, 2)
    assert run.check_rows("rate-d1", argv, _ex(good, failures=[{"L": 64}])) == (6, 1)
    assert run.check_rows("rate-d1", argv, _ex(good, rc=1)) == (6, 6)

    argv = run.WORKLOADS["certify"].split()
    head = "label,residual_max,passed,schema_hash\n"
    rows = "a,1e-7,1,h\nb,1e-7,0,h\nc,inf,1,h\n"
    assert run.check_rows("certify", argv, _ex(head + rows)) == (3, 2)

    argv = run.WORKLOADS["moderate"].split()
    head = "L,n_groups,rhs,dominated,schema_hash\n"
    rows = ["1024,2,1.0,1,h"] * 8 + ["1024,1,1.0,1,h", "1024,2,1.0,0,h"]
    assert run.check_rows("moderate", argv, _ex(head + "\n".join(rows) + "\n")) == (10, 2)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_traced_csv_equals_untraced(workload, workdir):
    argv = run.WORKLOADS[workload].split() + ["--seed", "2026"]
    plain = run.execute("run", argv, workdir, "plain", 170.0)
    traced = run.execute("trace", argv, workdir, "traced", 170.0)
    assert plain["rc"] == 0 and traced["rc"] == 0
    assert plain["csv"] == traced["csv"]
    assert run.check_rows(workload, argv, plain)[1] == 0
    assert traced["spans"]


def test_exits_nonzero_without_the_program(workdir):
    shutil.copy(ROOT / "BENCHMARK.json", workdir)
    shutil.copytree(ROOT / "perfbench", workdir / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "certify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=workdir, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
