import json
import shutil

import numpy as np
import pytest

from stefa.cli import main
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
    assert report["ranks"] == [2, 2, 2]
    assert report["converged"]
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["command"] == "fit"
    assert str(root / "y.tns") in manifest["input_digests"]


def test_fit_rejects_nonpositive_rank(workdir, capsys):
    root, _ = workdir
    code = main(["fit", "--tensor", str(root / "y.tns"), *cov_args(root),
                 "--ranks", "0,3,3", "--out", str(root / "bad")])
    assert code == 2
    assert "mode 1" in capsys.readouterr().err


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
    assert main(base + ["--covariates", "one:x1.csv"]) == 2
    assert main(base + ["--covariates", f"9:{root / 'x1.csv'}"]) == 2
    assert main(base + ["--covariates", "1:/does/not/exist.csv"]) == 2
    capsys.readouterr()


def test_ranks_command(workdir, capsys):
    root, _ = workdir
    code = main(["ranks", "--tensor", str(root / "y.tns"), *cov_args(root),
                 "--basis", "legendre:3"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "2 2 2"
    assert lines[1] == "mode,k,ratio"
    assert len(lines) > 2


def test_ranks_kmax_and_missing_file(workdir, capsys):
    root, _ = workdir
    code = main(["ranks", "--tensor", str(root / "y.tns"), *cov_args(root),
                 "--kmax", "1"])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0] == "1 1 1"
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
    from stefa.estimator import load_fit
    from stefa.tensor import multi_mode_product
    fit, _ = load_fit(fit_dir)
    expect = multi_mode_product(fit.core, [fit.a_loadings[0],
                                           fit.g_loadings[1],
                                           fit.g_loadings[2]])
    assert np.allclose(pred, expect, atol=1e-6)
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


def test_predict_without_covariates_is_numeric_error(workdir, capsys):
    root, _ = workdir
    code = main(["predict", "--fit", str(root / "fit_plain"),
                 "--new-covariates", str(root / "x1.csv"),
                 "--out", str(root / "pred_plain")])
    assert code == 3
    assert "requires covariate mode" in capsys.readouterr().err


def test_simulate_argument_errors(tmp_path, capsys):
    assert main(["simulate", "--protocol", "table99",
                 "--out", str(tmp_path)]) == 2
    assert main(["simulate", "--protocol", "table1", "--reps", "0",
                 "--out", str(tmp_path)]) == 2
    assert main(["simulate", "--protocol", "table1", "--cells", "nope",
                 "--reps", "1", "--out", str(tmp_path)]) == 2
    capsys.readouterr()


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
