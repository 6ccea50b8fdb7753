"""Tests of the benchmark itself, at toy sizes.

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from stefa import estimator, sieve, simlab  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _spans(rows):
    return [tracing.Span(name, parent, start, end)
            for name, parent, start, end in rows]


def test_self_time_subtracts_union_of_children():
    spans = _spans([
        ("root", None, 0.0, 10.0),
        ("a", 0, 1.0, 4.0),
        ("b", 0, 3.0, 6.0),        # overlaps a
        ("a.child", 1, 2.0, 3.0),
        ("c", 0, 9.0, 12.0),       # runs past the end of root
    ])
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_cli_self_time_splits_main_by_subcommand():
    spans = _spans([
        ("cli.main", None, 0.0, 5.0),
        ("cli.cmd_fit", 0, 1.0, 4.0),
        ("tensor.read_tns", 1, 1.5, 3.5),
        ("cli.main", None, 10.0, 12.0),
        ("cli.cmd_predict", 3, 10.5, 11.0),
    ])
    spans[2].attrs = {"bytes": 2e6}
    m = tracing.layer_metrics(spans, ops=1)
    assert m["cli.fit_s"] == pytest.approx(2.0 + 1.0)
    assert m["cli.predict_s"] == pytest.approx(1.5 + 0.5)
    assert m["tensor.read_tns_s"] == pytest.approx(2.0)
    assert m["tensor.tns_mb"] == pytest.approx(2.0)


def test_tracer_wraps_every_lookup_name_and_restores():
    original = estimator.multi_mode_product
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert estimator.multi_mode_product is not original
        assert simlab.multi_mode_product is estimator.multi_mode_product
        inst = simlab.generate(simlab.SimConfig(dims=(20, 20, 20), rank=2,
                                                alpha=1.0, j_star=2, seed=3))
        designs = [sieve.build_design(x, sieve.BasisSpec(degree=2))
                   for x in inst.covariates]
        tracer.active = True
        estimator.fit_stefa(inst.observed, designs, ranks=(2, 2, 2))
        tracer.active = False
    finally:
        tracer.uninstall()
    assert estimator.multi_mode_product is original
    names = {s.name for s in tracer.spans}
    assert {"estimator.fit_stefa", "estimator.ipsvd_iterate",
            "tensor.mode_product", "sieve.projector_apply"} <= names
    roots = [s for s in tracer.spans if s.parent is None]
    assert [s.name for s in roots] == ["estimator.fit_stefa"]
    mp = next(s for s in tracer.spans if s.name == "tensor.mode_product")
    assert mp.attrs["flop"] > 0 and mp.attrs["bytes"] > 0
    table = tracing.summarize(tracer.spans)
    assert table["estimator.ipsvd_iterate"]["sweeps"] >= 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_operation_passes_its_check(name, tmp_path):
    w = workloads.WORKLOADS[name].toy(seed=5)
    w.setup(str(tmp_path))
    items = w.round_items(0)
    for item in items:
        out, extra = w.operation(item)
        figures = w.check(item, out)
        assert 0.0 < figures["ipsvd_sin_theta"] < 1.0
    if name == "cli_files":
        assert set(extra) == {"cli_fit_s", "cli_predict_s"}
        assert 0.0 < figures["pred_rel_err"] < 1.0


def test_fit_auto_check_rejects_a_loading_outside_the_sieve_span(tmp_path):
    w = workloads.FitAuto.toy(seed=5)
    w.setup(str(tmp_path))
    (fit, designs), _ = w.operation(0)
    fit.g_loadings[1] = fit.g_loadings[1] + 1e-3 * np.random.default_rng(0) \
        .standard_normal(fit.g_loadings[1].shape)
    with pytest.raises(workloads.CheckFailed):
        w.check(0, (fit, designs))


def test_fit_auto_check_rejects_an_unconverged_fit(tmp_path):
    w = workloads.FitAuto.toy(seed=5)
    w.setup(str(tmp_path))
    y, xs, _ = w.draws[0]
    designs = [sieve.build_design(x, w.spec) for x in xs]
    fit = estimator.fit_stefa(y, designs, max_iter=1)
    with pytest.raises(workloads.CheckFailed, match="projected update"):
        w.check(0, (fit, designs))


def test_cli_check_rejects_a_lossy_prediction_file(tmp_path, monkeypatch):
    w = workloads.CliFiles.toy(seed=5)
    w.setup(str(tmp_path))
    real_write = workloads.tensor.write_tns
    monkeypatch.setattr(workloads.cli, "write_tns",
                        lambda path, t: real_write(path, np.round(t, 6)))
    out, _ = w.operation(0)
    with pytest.raises(workloads.CheckFailed, match="read back"):
        w.check(0, out)


def test_run_operations_attempts_whole_rounds(tmp_path):
    w = workloads.FitAuto.toy(seed=5)
    w.n_draws = w.accuracy_ops = 2
    w.setup(str(tmp_path))
    result = run.run_operations(w, seconds=0.0)
    assert result["attempted"] == 2 and result["failed"] == 0
    assert result["correct"] and len(result["accuracy"]) == 2


def test_metric_tables_match_benchmark_json():
    def units(key):
        return {m["name"]: m["unit"] for m in SPEC[key]}
    assert units("end_to_end") == run.END_TO_END
    assert units("per_layer") == run.PER_LAYER
    assert set(workloads.WORKLOADS) == {w["name"] for w in SPEC["workloads"]}


@pytest.mark.parametrize("trace,names", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_every_metric(trace, names):
    cmd = SPEC["command"] + ["--workload", "fit_auto", "--seed", "2",
                             "--seconds", "0", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 2 and result["failed"] == 0
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC[names]}


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    cmd = SPEC["command"] + ["--workload", "fit_auto", "--seed", "1",
                             "--seconds", "1", "--trace", "0"]
    env = dict(os.environ, PYTHONPATH="")
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True,
                          timeout=180, env=env)
    assert proc.returncode != 0
    assert proc.stdout == ""
