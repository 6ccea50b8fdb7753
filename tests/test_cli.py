import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import stefa
from stefa.cli import main
from stefa.estimator import _check_ranks, load_fit
from stefa.sieve import write_covariates_csv
from stefa.simlab import SimConfig, generate
from stefa.tensor import read_tns, write_tns


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A small synthetic tensor with covariate files for every mode."""
    root = tmp_path_factory.mktemp("cli")
    inst = generate(SimConfig(dims=(25, 25, 25), rank=2, alpha=1.0, j_star=3,
                              seed=42))
    write_tns(root / "y.tns", inst.observed)
    for m in range(3):
        write_covariates_csv(root / f"x{m + 1}.csv", inst.covariates[m])
    return root, inst


def cov_args(root):
    return ["--covariates", f"1:{root / 'x1.csv'}",
            "--covariates", f"2:{root / 'x2.csv'}",
            "--covariates", f"3:{root / 'x3.csv'}"]


def test_fit_auto_ranks(workdir, capsys):
    root, inst = workdir
    out = root / "fit_auto"
    code = main(["fit", "--tensor", str(root / "y.tns"), *cov_args(root),
                 "--basis", "legendre:3", "--out", str(out)])
    assert code == 0
    msg = capsys.readouterr().out
    assert "ranks 2,2,2" in msg
    report = json.loads((out / "report.json").read_text())
    assert report["format_version"] == 1
    assert report["ranks"] == [2, 2, 2]
    assert report["converged"]
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["command"] == "fit"
    assert str(root / "y.tns") in manifest["input_digests"]
    stages = {"compress", "ranks", "iterate", "calibrate", "loadings"}
    timings = report["diagnostics"]["timings"]
    assert set(timings) == stages and min(timings.values()) >= 0.0
    timings = manifest["timings_seconds"]
    assert set(timings) == stages | {"total"} and min(timings.values()) >= 0.0


def test_fit_rejects_nonpositive_rank(workdir, capsys):
    root, _ = workdir
    code = main(["fit", "--tensor", str(root / "y.tns"), *cov_args(root),
                 "--ranks", "0,3,3", "--out", str(root / "bad")])
    assert code == 2
    assert "mode 1" in capsys.readouterr().err


@pytest.mark.parametrize("ranks, message", [
    ("30,2,2", "rank 30 for mode 1 not in [1, 25]"),
    ("2,2", "2 ranks given for order-3 tensor")], ids=["extent", "count"])
def test_fit_rejects_ranks_the_tensor_cannot_hold(workdir, capsys, ranks,
                                                  message):
    # the estimator's validator checks CLI ranks and names modes from 1
    root, _ = workdir
    code = main(["fit", "--tensor", str(root / "y.tns"), *cov_args(root),
                 "--ranks", ranks, "--out", str(root / "bad")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_fit_rejects_ranks_before_compressing(workdir, capsys, monkeypatch):
    # given ranks are checked before compress reads the tensor
    import stefa.estimator

    def no_compress(*args, **kwargs):
        raise AssertionError("compress called")

    monkeypatch.setattr(stefa.estimator, "compress", no_compress)
    root, _ = workdir
    code = main(["fit", "--tensor", str(root / "y.tns"), *cov_args(root),
                 "--ranks", "4,1,1", "--out", str(root / "bad")])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: rank 4 for mode 1 exceeds product of the other ranks (1)\n")


# stefa ranks checks its options before reading the tensor too
@pytest.mark.parametrize("command, option, message", [
    ("fit", ["--basis", "fourier:3"], "error: bad --basis 'fourier:3'"),
    ("fit", ["--ranks", "1,a,2"], "error: bad --ranks '1,a,2'"),
    ("fit", ["--max-iter", "0"],
     "error: max_iter must be an integer >= 1, got 0\n"),
    ("fit", ["--tol", "nan"], "error: tol must be finite and >= 0, got nan\n"),
    ("ranks", ["--kmax", "0"],
     "error: k_max must be None or an integer >= 1, got 0\n")],
    ids=["basis", "ranks", "max-iter", "tol", "kmax"])
def test_fit_parses_options_before_reading_the_tensor(workdir, capsys,
                                                      monkeypatch, command,
                                                      option, message):
    import stefa.cli
    calls = []

    def counted_read_tns(path):
        calls.append(path)
        return read_tns(path)

    monkeypatch.setattr(stefa.cli, "read_tns", counted_read_tns)
    root, _ = workdir
    code = main([command, "--tensor", str(root / "y.tns"), *cov_args(root),
                 *option, "--out", str(root / "bad")])
    assert code == 2 and calls == []
    assert capsys.readouterr().err.startswith(message)


def test_predict_checks_the_bandwidth_before_loading_the_fit(workdir, capsys,
                                                             monkeypatch):
    import stefa.cli
    calls = []

    def counted_load_fit(path):
        calls.append(path)
        return load_fit(path)

    monkeypatch.setattr(stefa.cli, "load_fit", counted_load_fit)
    root, _ = workdir
    code = main(["predict", "--fit", str(root / "fit_auto"),
                 "--new-covariates", str(root / "x1.csv"),
                 "--bandwidth=-1", "--out", str(root / "bad")])
    assert code == 2 and calls == []
    assert capsys.readouterr().err == (
        "error: bad --bandwidth '-1': bandwidth must be positive and finite\n")


@pytest.mark.parametrize("command", ["fit", "ranks"])
def test_covariates_outside_the_basis_domain_are_usage_error(
        workdir, tmp_path, capsys, command):
    root, inst = workdir
    wide = tmp_path / "x2_wide.csv"
    write_covariates_csv(wide, 10.0 * inst.covariates[1])
    code = main([command, "--tensor", str(root / "y.tns"),
                 "--covariates", f"1:{root / 'x1.csv'}",
                 "--covariates", f"2:{wide}", "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {wide}: covariate column 1 spans [")
    assert err.endswith("outside the domain [0, 1]\n")


def test_fit_without_covariates_flags_plain_mode(workdir):
    root, _ = workdir
    out = root / "fit_plain"
    code = main(["fit", "--tensor", str(root / "y.tns"),
                 "--ranks", "2,2,2", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert "no sieve projection" in report["flags"]


@pytest.mark.parametrize("option", [["--max-iter", "0"], ["--max-iter", "-3"],
                                    ["--tol", "nan"], ["--tol", "-1"]])
def test_fit_rejects_bad_iteration_controls(workdir, capsys, option):
    root, _ = workdir
    out = root / "bad_controls"
    code = main(["fit", "--tensor", str(root / "y.tns"), *cov_args(root),
                 "--ranks", "2,2,2", *option, "--out", str(out)])
    assert code == 2
    assert option[0][2:].replace("-", "_") in capsys.readouterr().err
    assert not out.exists()


def test_fit_bad_basis_and_bad_covariate_spec(workdir, capsys):
    root, _ = workdir
    base = ["fit", "--tensor", str(root / "y.tns"), "--out", str(root / "x")]
    assert main(base + ["--basis", "fourier:3"]) == 2
    assert main(base + ["--basis", "legendre:3:junk"]) == 2
    assert main(base + ["--covariates", "one:x1.csv"]) == 2
    assert main(base + ["--covariates", f"9:{root / 'x1.csv'}"]) == 2
    assert main(base + ["--covariates", "1:/does/not/exist.csv"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["fit", "ranks"])
def test_covariates_naming_a_mode_twice_is_usage_error(workdir, tmp_path,
                                                       capsys, command):
    # the second file for mode 1 is not silently kept over the first
    root, _ = workdir
    second = f"1:{root / 'x2.csv'}"
    code = main([command, "--tensor", str(root / "y.tns"), *cov_args(root),
                 "--covariates", second, "--out", str(tmp_path / "out")])
    assert code == 2
    assert (capsys.readouterr().err
            == f"error: bad --covariates {second!r}: mode 1 given twice\n")
    assert not (tmp_path / "out").exists()


def test_ranks_command(workdir, capsys):
    root, _ = workdir
    code = main(["ranks", "--tensor", str(root / "y.tns"), *cov_args(root),
                 "--basis", "legendre:3"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "2 2 2"
    assert lines[1] == "mode,k,ratio"
    assert len(lines) > 2


@pytest.mark.parametrize("shape", [(30, 1, 20), (30, 20, 1)])
def test_extent_one_mode_without_designs_selects_rank_one(tmp_path, capsys,
                                                           shape):
    # that mode's Gram has one eigenvalue, so it has one ratio and one rank
    y = np.random.default_rng(0).standard_normal(shape)
    ranks = stefa.estimate_ranks(y)
    one = shape.index(1)
    assert ranks[one] == 1
    assert _check_ranks(shape, [None] * 3, ranks) == ranks
    assert stefa.fit_stefa(y).ranks == ranks
    write_tns(tmp_path / "y.tns", y)
    assert main(["ranks", "--tensor", str(tmp_path / "y.tns")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == " ".join(str(r) for r in ranks)
    assert lines[1] == "mode,k,ratio"
    assert sum(line.startswith(f"{one + 1},") for line in lines[2:]) == 1


def test_ranks_kmax_and_missing_file(workdir, capsys):
    root, _ = workdir
    code = main(["ranks", "--tensor", str(root / "y.tns"), *cov_args(root),
                 "--kmax", "1"])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0] == "1 1 1"
    for kmax in ("0", "-3"):
        code = main(["ranks", "--tensor", str(root / "y.tns"), *cov_args(root),
                     "--kmax", kmax])
        assert code == 2
        assert "k_max must be None or an integer >= 1" in capsys.readouterr().err
    assert main(["ranks", "--tensor", str(root / "missing.tns")]) == 2
    capsys.readouterr()


def test_predict_roundtrip(workdir, capsys):
    root, inst = workdir
    fit_dir = root / "fit_auto"
    out = root / "pred"
    code = main(["predict", "--fit", str(fit_dir),
                 "--new-covariates", str(root / "x1.csv"),
                 "--bandwidth", "1e-8", "--out", str(out)])
    assert code == 0
    pred = read_tns(out / "prediction.tns")
    assert pred.shape == (25, 25, 25)
    # tiny bandwidth at the training rows reproduces the fitted slices
    from stefa.tensor import multi_mode_product
    fit, _ = load_fit(fit_dir)
    expect = multi_mode_product(fit.core, [fit.a_loadings[0],
                                           fit.g_loadings[1],
                                           fit.g_loadings[2]])
    assert np.allclose(pred, expect, atol=1e-6)
    capsys.readouterr()


def test_predict_names_rows_that_fall_back(workdir, capsys):
    root, inst = workdir
    # rows off the training rows: none lies within a bandwidth of 1e-300
    write_covariates_csv(root / "x1_off.csv", 0.999 * inst.covariates[0][:5])
    for method in ("stefa", "vanilla"):
        with pytest.warns(RuntimeWarning, match="5 of 5 new rows have no "
                                                "training row within "
                                                "bandwidth 1e-300"):
            code = main(["predict", "--fit", str(root / "fit_auto"),
                         "--method", method, "--kernel", "epanechnikov",
                         "--bandwidth", "1e-300",
                         "--new-covariates", str(root / "x1_off.csv"),
                         "--out", str(root / f"pred_far_{method}")])
        assert code == 0
    capsys.readouterr()


def test_predict_vanilla_and_errors(workdir, capsys):
    root, _ = workdir
    out = root / "pred_v"
    code = main(["predict", "--fit", str(root / "fit_auto"),
                 "--method", "vanilla", "--kernel", "epanechnikov",
                 "--new-covariates", str(root / "x1.csv"), "--out", str(out)])
    assert code == 0
    assert (out / "prediction.tns").exists()
    assert main(["predict", "--fit", str(root / "nowhere"),
                 "--new-covariates", str(root / "x1.csv"),
                 "--out", str(out)]) == 2
    assert main(["predict", "--fit", str(root / "fit_auto"),
                 "--new-covariates", str(root / "x1.csv"),
                 "--bandwidth", "-2", "--out", str(out)]) == 2
    capsys.readouterr()


def test_predict_on_report_without_required_key_is_usage_error(workdir, capsys):
    root, _ = workdir
    fit_dir = root / "fit_missing_key"
    shutil.copytree(root / "fit_auto", fit_dir)
    report = json.loads((fit_dir / "report.json").read_text())
    del report["identity_modes"]
    (fit_dir / "report.json").write_text(json.dumps(report))
    code = main(["predict", "--fit", str(fit_dir),
                 "--new-covariates", str(root / "x1.csv"),
                 "--out", str(root / "pred_missing_key")])
    assert code == 2
    assert "'identity_modes'" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("basis", []), ("identity_modes", 5), ("identity_modes", [2]),
    ("ranks", 3), ("degree", "x"),
    pytest.param("format_version", 2, id="format_version-2"),
    pytest.param("format_version", "1", id="format_version-str1"),
    ("iterations_used", True)])
def test_predict_on_report_with_wrong_value_type_is_usage_error(
        workdir, tmp_path, capsys, key, value):
    root, _ = workdir
    fit_dir = tmp_path / "fit"
    shutil.copytree(root / "fit_auto", fit_dir)
    report = json.loads((fit_dir / "report.json").read_text())
    if key == "degree":
        report["basis"]["0"]["degree"] = value
    else:
        report[key] = value
    (fit_dir / "report.json").write_text(json.dumps(report))
    code = main(["predict", "--fit", str(fit_dir),
                 "--new-covariates", str(root / "x1.csv"),
                 "--out", str(tmp_path / "pred")])
    err = capsys.readouterr().err
    assert code == 2
    assert f"'{key}'" in err and "Traceback" not in err


def test_predict_on_report_without_format_version_reads_version_1(workdir,
                                                                   capsys):
    root, _ = workdir
    fit_dir = root / "fit_no_version"
    shutil.copytree(root / "fit_auto", fit_dir)
    report = json.loads((fit_dir / "report.json").read_text())
    del report["format_version"]
    (fit_dir / "report.json").write_text(json.dumps(report))
    code = main(["predict", "--fit", str(fit_dir),
                 "--new-covariates", str(root / "x1.csv"),
                 "--out", str(root / "pred_no_version")])
    assert code == 0
    capsys.readouterr()


def test_fit_on_overflowing_tensor_is_numeric_error(tmp_path, capsys):
    # finite entries whose squares overflow: a numeric failure, not bad
    # usage, named before any pass could warn of the overflow
    signs = np.random.default_rng(0).random((10, 10, 10)) < 0.5
    write_tns(tmp_path / "big.tns", np.where(signs, -1e200, 1e200))
    for command in (["fit", "--ranks", "2,2,2", "--out", str(tmp_path / "fit")],
                    ["ranks"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([*command, "--tensor", str(tmp_path / "big.tns")])
        err = capsys.readouterr().err
        assert code == 3
        assert err == ("error: EstimationError: squared norm of the tensor "
                       "overflows; rescale it\n")


def test_fit_on_zero_tensor_is_numeric_error(tmp_path, capsys):
    # with --ranks auto the zero tensor fails before the fit (exit 2); with
    # given ranks its zero core is degenerate
    write_tns(tmp_path / "zero.tns", np.zeros((5, 5, 5)))
    out = tmp_path / "fit"
    code = main(["fit", "--tensor", str(tmp_path / "zero.tns"),
                 "--ranks", "1,1,1", "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err.startswith("error: DegenerateCoreError: ")
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("extent, values", [(2 ** 32, ""), (3037000500, "1\n")])
def test_tensor_header_beyond_int64_counts_exactly(tmp_path, capsys,
                                                   monkeypatch, extent, values):
    # extent ** 2 is 2**64 or just above 2**63: a 64-bit count would wrap.
    # The value bytes hold at most one value, so even with two CPUs the
    # parse starts no worker process
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker process was started")

    monkeypatch.setattr(stefa.tensor.os, "sched_getaffinity",
                        lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(stefa.tensor, "ProcessPoolExecutor", no_pool)
    path = tmp_path / "huge.tns"
    path.write_text(f"2\n{extent} {extent}\n{values}")
    for command in (["fit", "--out", str(tmp_path / "fit")], ["ranks"]):
        code = main([*command, "--tensor", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == (f"error: {path}: expected {extent ** 2} values, "
                       f"found {len(values.split())}\n")


def test_tensor_bad_value_names_the_file(tmp_path, capsys):
    # a 2x2x2 file is parsed in this process; the message keeps the token
    path = tmp_path / "bad.tns"
    path.write_text("3\n2 2 2\n" + "1.0 " * 7 + "1.0x\n")
    for command in (["fit", "--ranks", "1,1,1", "--out", str(tmp_path / "fit")],
                    ["ranks"]):
        code = main([*command, "--tensor", str(path)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {path}: could not convert string to float: '1.0x'\n")


@pytest.mark.parametrize("method", ["stefa", "vanilla"])
def test_predict_without_covariates_is_numeric_error(workdir, capsys, method):
    root, _ = workdir
    code = main(["predict", "--fit", str(root / "fit_plain"),
                 "--new-covariates", str(root / "x1.csv"),
                 "--method", method, "--out", str(root / "pred_plain")])
    assert code == 3
    assert "prediction requires covariate mode" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["fit", "predict", "fit_dir"])
def test_covariate_field_over_the_csv_limit_is_usage_error(workdir,
                                                           fuzz_fit_dir,
                                                           tmp_path, where):
    # one field longer than the csv module's 131072-character limit, and
    # bytes that are not UTF-8
    root, _ = workdir
    fit_dir = tmp_path / "fit"
    shutil.copytree(fuzz_fit_dir, fit_dir)
    bad = (fit_dir / "covariates_mode1.csv" if where == "fit_dir"
           else tmp_path / "bad.csv")
    if where == "fit":
        argv = ["fit", "--tensor", str(root / "y.tns"),
                "--covariates", f"1:{bad}", "--out", str(tmp_path / "out")]
    else:
        new = bad if where == "predict" else root / "x1.csv"
        argv = ["predict", "--fit", str(fit_dir), "--new-covariates",
                str(new), "--out", str(tmp_path / "out")]
    for content, message in [
            (b"x1\n0." + b"1" * 140_000 + b"\n", "field larger than field limit"),
            (b"\xff\xfe", "not UTF-8 text")]:
        bad.write_bytes(content)
        code, err = _run_cli(argv)
        assert code == 2, (code, err)
        assert message in err and str(bad) in err
        assert "Traceback" not in err


def test_predict_on_deeply_nested_report_is_usage_error(workdir, fuzz_fit_dir,
                                                        tmp_path):
    root, _ = workdir
    fit_dir = tmp_path / "fit"
    shutil.copytree(fuzz_fit_dir, fit_dir)
    (fit_dir / "report.json").write_text("[" * 200000)
    code, err = _run_cli(["predict", "--fit", str(fit_dir),
                          "--new-covariates", str(root / "x1.csv"),
                          "--out", str(tmp_path / "pred")])
    assert code == 2, (code, err)
    assert "report.json nests too deeply" in err and "Traceback" not in err


def test_only_simulate_takes_a_seed(workdir, tmp_path, capsys, monkeypatch):
    root, _ = workdir
    fit = ["fit", "--tensor", str(root / "y.tns"), *cov_args(root),
           "--basis", "legendre:3", "--ranks", "2,2,2"]
    ranks = ["ranks", "--tensor", str(root / "y.tns")]
    assert main([*fit, "--seed", "3", "--out", str(tmp_path / "fit")]) == 2
    assert main([*ranks, "--seed", "3", "--out", str(tmp_path / "ranks")]) == 2
    # every command writes one manifest layout; ranks without --out none
    monkeypatch.chdir(tmp_path)
    assert main(ranks) == 0
    assert list(tmp_path.iterdir()) == []
    assert main([*fit, "--out", str(tmp_path / "fit")]) == 0
    assert main([*ranks, "--out", str(tmp_path / "ranks")]) == 0
    assert main(["predict", "--fit", str(tmp_path / "fit"), "--new-covariates",
                 str(root / "x1.csv"), "--out", str(tmp_path / "predict")]) == 0
    assert main(["simulate", "--protocol", "noise_amplify", "--reps", "1",
                 "--seed", "5", "--cells", "amplifier=0.0",
                 "--out", str(tmp_path / "simulate")]) == 0
    capsys.readouterr()
    for command in ("fit", "ranks", "predict", "simulate"):
        manifest = json.loads(
            (tmp_path / command / "run_manifest.json").read_text())
        assert list(manifest) == ["command", "options", "input_digests",
                                  "seed", "timings_seconds", "version"]
        assert manifest["command"] == command
        assert "total" in manifest["timings_seconds"]
        if command == "simulate":
            assert manifest["seed"] == manifest["options"]["seed"] == 5
        else:
            assert manifest["seed"] is None and "seed" not in manifest["options"]


def test_simulate_argument_errors(tmp_path, capsys):
    assert main(["simulate", "--protocol", "table99",
                 "--out", str(tmp_path)]) == 2
    assert main(["simulate", "--protocol", "table1", "--reps", "0",
                 "--out", str(tmp_path)]) == 2
    assert main(["simulate", "--protocol", "table1", "--cells", "nope",
                 "--reps", "1", "--out", str(tmp_path)]) == 2
    assert main(["simulate", "--protocol", "noise_amplify", "--threads", "2",
                 "--reps", "1", "--out", str(tmp_path)]) == 2
    assert "--threads must be 1" in capsys.readouterr().err


def test_simulate_csv_reproducible(tmp_path, capsys):
    args = ["simulate", "--protocol", "noise_amplify", "--reps", "1",
            "--seed", "5", "--cells", "amplifier=0.0"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    a = (tmp_path / "a" / "results.csv").read_bytes()
    b = (tmp_path / "b" / "results.csv").read_bytes()
    assert a == b
    header = a.decode().splitlines()[0]
    assert header == "protocol,cell,method,metric,mean,sd,reps"


def test_version_and_usage_exit_codes(capsys):
    assert main(["--version"]) == 0
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# property tests: whatever the options or the fit directory hold, the CLI
# exits 0, 2 or 3 and prints no traceback

def _run_cli(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err), \
            np.errstate(all="ignore"):
        code = main(argv)
    return code, err.getvalue()


_TEXT = st.text(max_size=12)
_INTS = st.one_of(st.integers(-3, 30), st.integers(-10 ** 30, 10 ** 30))


@st.composite
def _fit_options(draw, root):
    """Options for ``stefa fit`` on the 25 x 25 x 25 fixture, mostly valid so
    that the later checks are reached too."""
    cov = [str(root / f"x{m}.csv") for m in (1, 2, 3)]
    args = []
    if draw(st.booleans()):
        rank = st.one_of(st.integers(1, 6), _INTS)
        ranks = draw(st.one_of(
            st.just("auto"), _TEXT,
            st.lists(rank, min_size=3, max_size=3).map(
                lambda rs: ",".join(map(str, rs))),
            st.lists(rank, min_size=1, max_size=4).map(
                lambda rs: ",".join(map(str, rs)))))
        args += ["--ranks", ranks]
    if draw(st.booleans()):
        # sweeps are bounded so that a never-converging fit still ends soon
        args += ["--max-iter", draw(st.one_of(st.integers(-3, 60).map(str),
                                               _TEXT))]
    if draw(st.booleans()):
        args += ["--tol", draw(st.one_of(st.floats().map(repr), _TEXT))]
    if draw(st.booleans()):
        family = draw(st.sampled_from(["legendre", "bspline"] * 2
                                      + ["", "fourier"]))
        degree = draw(st.one_of(st.integers(1, 12).map(str), _INTS.map(str),
                                _TEXT))
        args += ["--basis", draw(st.sampled_from(
            [f"{family}:{degree}"] * 3 + [family, f"{family}:{degree}:1"]))]
    files = cov * 2 + [str(root / "y.tns"), str(root / "missing.csv"),
                       str(root)]
    for _ in range(draw(st.integers(0, 4))):
        mode = draw(st.one_of(st.integers(1, 3), st.integers(-1, 5), _TEXT))
        args += ["--covariates", f"{mode}:{draw(st.sampled_from(files))}"]
    return args


@settings(deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_fit_options_never_raise(workdir, data):
    root, _ = workdir
    options = data.draw(_fit_options(root))
    with tempfile.TemporaryDirectory() as out:
        code, err = _run_cli(["fit", "--tensor", str(root / "y.tns"),
                              *options, "--out", str(Path(out) / "fit")])
    assert code in (0, 2, 3), (code, err)
    assert "Traceback" not in err


_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), _INTS, st.floats(), _TEXT),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=8)
_REPORT_PATHS = ["format_version", "ranks", "iterations_used",
                 "subspace_change_trace", "converged", "identity_modes",
                 "flags", "diagnostics", "basis", "basis.0", "basis.0.family",
                 "basis.0.degree", "basis.0.include_intercept",
                 "basis.0.domain"]


@pytest.fixture(scope="module")
def fuzz_fit_dir(workdir):
    root, _ = workdir
    out = root / "fit_fuzz"
    assert main(["fit", "--tensor", str(root / "y.tns"), *cov_args(root),
                 "--basis", "legendre:3", "--out", str(out)]) == 0
    return out


@settings(deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.tuples(st.sampled_from(_REPORT_PATHS + [""]), _JSON),
                min_size=1, max_size=3))
def test_predict_on_drawn_report_values_never_raises(workdir, fuzz_fit_dir,
                                                     edits):
    root, _ = workdir
    with tempfile.TemporaryDirectory() as tmp:
        fit_dir = Path(tmp) / "fit"
        shutil.copytree(fuzz_fit_dir, fit_dir)
        report = json.loads((fit_dir / "report.json").read_text())
        for path, value in edits:
            if not path:                      # the whole document
                report = value
                continue
            *parents, key = path.split(".")
            target = report
            for name in parents:
                target = target.get(name) if isinstance(target, dict) else None
            if isinstance(target, dict):
                target[key] = value
        (fit_dir / "report.json").write_text(json.dumps(report))
        code, err = _run_cli(["predict", "--fit", str(fit_dir),
                              "--new-covariates", str(root / "x1.csv"),
                              "--out", str(Path(tmp) / "pred")])
    assert code in (0, 2, 3), (code, err)
    assert "Traceback" not in err


@settings(deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.too_slow])
@given(mode=st.integers(-3, 6),
       bandwidth=st.one_of(
           st.sampled_from(["auto", "nan", "inf", "-inf", "0", "-0.0", "-2",
                            "1e-300", "1e300", "0.5"]),
           st.floats().map(repr), _TEXT),
       kernel=st.sampled_from(["gaussian", "epanechnikov", "cosine", ""]),
       method=st.sampled_from(["stefa", "vanilla", "hooi"]))
def test_predict_options_never_raise(workdir, fuzz_fit_dir, mode, bandwidth,
                                     kernel, method):
    root, _ = workdir
    with tempfile.TemporaryDirectory() as tmp:
        # the "=" form passes values such as "-inf" that look like options
        code, err = _run_cli(["predict", "--fit", str(fuzz_fit_dir),
                              "--new-covariates", str(root / "x1.csv"),
                              f"--mode={mode}", f"--bandwidth={bandwidth}",
                              f"--kernel={kernel}", f"--method={method}",
                              "--out", str(Path(tmp) / "pred")])
    assert code in (0, 2, 3), (code, err)
    assert "Traceback" not in err
    if not 1 <= mode <= 3 and kernel in ("gaussian", "epanechnikov") \
            and method in ("stefa", "vanilla"):
        # the bandwidth is checked before the fit is read, the mode after
        try:
            valid = bandwidth == "auto" or 0 < float(bandwidth) < np.inf
        except ValueError:
            valid = False
        assert (f"--mode {mode} not in [1, 3]" if valid
                else f"bad --bandwidth {bandwidth!r}") in err


_MATRIX_FILES = ["g_loadings", "a_loadings", "gamma", "sieve_coeffs",
                 "covariates"]


@st.composite
def _broken_csv(draw, text, names_matter):
    """``text``, a CSV of a header and numeric rows, with one fault: the file
    deleted (None), an empty file or one without data rows, a wrong header (a
    name missing or extra, the header line dropped or, when ``names_matter``,
    a name changed), a row one value short or long, or a NaN or infinite
    value."""
    header, *rows = text.splitlines()
    names = header.split(",")
    fault = draw(st.sampled_from(["deleted", "empty", "header", "ragged",
                                  "non-finite"]))
    if fault == "deleted":
        return None
    if fault == "empty":
        return draw(st.sampled_from(["", "\n", header + "\n"]))
    if fault == "header":
        kinds = ["missing", "extra", "dropped"] + ["renamed"] * names_matter
        kind = draw(st.sampled_from(kinds))
        if kind == "dropped":
            return "\n".join(rows) + "\n"
        if kind == "missing":
            names = names[:-1] if len(names) > 1 else names + ["extra"]
        elif kind == "extra":
            names = names + [draw(st.sampled_from(["extra", names[-1], ""]))]
        else:
            j = draw(st.integers(0, len(names) - 1))
            names[j] = draw(_TEXT.filter(lambda s: s != names[j]
                                         and "\n" not in s and "\r" not in s))
        header = ",".join(names)
    else:
        i = draw(st.integers(0, len(rows) - 1))
        values = rows[i].split(",")
        if fault == "ragged":
            short = len(values) > 1 and draw(st.booleans())
            values = values[:-1] if short else values + ["0.5"]
        else:
            j = draw(st.integers(0, len(values) - 1))
            values[j] = draw(st.sampled_from(["nan", "NaN", "inf", "-inf",
                                              "1e999"]))
        rows[i] = ",".join(values)
    return "\n".join([header, *rows]) + "\n"


@settings(deadline=None, max_examples=80,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(_MATRIX_FILES), mode=st.integers(1, 3),
       data=st.data())
def test_predict_on_drawn_matrix_files_is_usage_error(workdir, fuzz_fit_dir,
                                                      name, mode, data):
    root, _ = workdir
    with tempfile.TemporaryDirectory() as tmp:
        fit_dir = Path(tmp) / "fit"
        shutil.copytree(fuzz_fit_dir, fit_dir)
        path = fit_dir / f"{name}_mode{mode}.csv"
        text = data.draw(_broken_csv(path.read_text(), name != "covariates"))
        if text is None:
            path.unlink()
        else:
            path.write_text(text)
        code, err = _run_cli(["predict", "--fit", str(fit_dir),
                              "--new-covariates", str(root / "x1.csv"),
                              "--out", str(Path(tmp) / "pred")])
    assert code == 2, (code, err)
    assert "Traceback" not in err and path.name in err


def test_predict_on_non_finite_core_is_usage_error(workdir, fuzz_fit_dir,
                                                   tmp_path):
    root, _ = workdir
    fit_dir = tmp_path / "fit"
    shutil.copytree(fuzz_fit_dir, fit_dir)
    core = read_tns(fit_dir / "core.tns")
    core.flat[-1] = np.nan
    write_tns(fit_dir / "core.tns", core)
    code, err = _run_cli(["predict", "--fit", str(fit_dir),
                          "--new-covariates", str(root / "x1.csv"),
                          "--out", str(tmp_path / "pred")])
    assert code == 2
    assert "core.tns has non-finite values" in err and "Traceback" not in err


def _run_module(args, cwd):
    """``python -m stefa ARGS`` in a fresh interpreter on this checkout."""
    src = str(Path(stefa.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-m", "stefa", *args], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=300)


def test_python_m_stefa_prints_the_version(tmp_path):
    result = _run_module(["--version"], tmp_path)
    assert result.returncode == 0
    assert result.stdout.strip() == stefa.__version__


def test_python_m_stefa_returns_the_exit_code(tmp_path):
    result = _run_module(["fit", "--tensor", str(tmp_path / "missing.tns"),
                          "--ranks", "1,1,1", "--out", str(tmp_path / "fit")],
                         tmp_path)
    assert result.returncode == 2
    assert "missing.tns" in result.stderr
    assert "Traceback" not in result.stderr
