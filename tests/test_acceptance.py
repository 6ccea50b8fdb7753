"""Acceptance gate: one test per release criterion, at pinned tolerances.

Each test prints a single CRITERION line with the measured numbers so the
pytest -v output documents the gate. The Monte-Carlo criteria use 20
replications with the default seed and are deliberately slow.
"""

import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from stefa.cli import main as cli_main
from stefa.estimator import estimate_ranks, fit_stefa, hooi
from stefa.prediction import predict_stefa, predict_vanilla
from stefa.sieve import BasisSpec, build_design
from stefa.simlab import SimConfig, generate, run_experiment

REPS = 20
SEED = 0


def _index(rows):
    return {(r["cell"], r["method"], r["metric"]): r["mean"] for r in rows}


def _report(num, ok, detail):
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def table1_run():
    cells = ["alpha=0.5,I=100", "alpha=0.5,I=200", "alpha=0.5,I=300",
             "alpha=0.3,I=100", "alpha=0.1,I=100"]
    t0 = time.time()
    rows = run_experiment("table1", reps=REPS, seed=SEED, cells=cells)
    return _index(rows), time.time() - t0


def test_criterion_1_strong_signal_row(table1_run):
    means, elapsed = table1_run
    targets = {
        ("alpha=0.5,I=100", "ipsvd"): (0.274, 0.07),
        ("alpha=0.5,I=200", "ipsvd"): (0.195, 0.05),
        ("alpha=0.5,I=300", "ipsvd"): (0.152, 0.05),
        ("alpha=0.5,I=100", "hooi"): (1.581, 0.25),
        ("alpha=0.5,I=200", "hooi"): (1.671, 0.25),
        ("alpha=0.5,I=300", "hooi"): (1.691, 0.25),
    }
    checks = {}
    for (cell, method), (target, tol) in targets.items():
        got = means[(cell, method, "l2_a1")]
        checks[f"{method}@{cell}"] = (got, target, tol,
                                      abs(got - target) <= tol)
    ok = all(c[3] for c in checks.values()) and elapsed <= 900
    detail = "; ".join(f"{k} {got:.3f} (target {t}+-{tol})"
                       for k, (got, t, tol, _) in checks.items())
    _report(1, ok, f"{detail}; runtime {elapsed:.0f}s (cap 900s)")
    for k, (got, t, tol, good) in checks.items():
        assert good, f"{k}: {got:.3f} outside {t}+-{tol}"
    assert elapsed <= 900


def test_criterion_2_orderings(table1_run):
    means, _ = table1_run
    cells = ["alpha=0.5,I=100", "alpha=0.5,I=200", "alpha=0.5,I=300",
             "alpha=0.3,I=100", "alpha=0.1,I=100"]
    beats = all(means[(c, "ipsvd", "l2_a1")] < means[(c, "hooi", "l2_a1")]
                for c in cells)
    in_extent = [means[(f"alpha=0.5,I={i}", "ipsvd", "l2_a1")]
                 for i in (100, 200, 300)]
    in_alpha = [means[(f"alpha={a},I=100", "ipsvd", "l2_a1")]
                for a in (0.1, 0.3, 0.5)]
    dec_extent = in_extent[0] > in_extent[1] > in_extent[2]
    dec_alpha = in_alpha[0] > in_alpha[1] > in_alpha[2]
    ok = beats and dec_extent and dec_alpha
    _report(2, ok, f"projected beats unprojected in all cells: {beats}; "
                   f"decreasing in extent {in_extent}; "
                   f"decreasing in signal strength {in_alpha}")
    assert beats and dec_extent and dec_alpha


def test_criterion_3_fit_degree_sweep():
    rows = run_experiment("table3_J_sweep", reps=REPS, seed=SEED)
    means = _index(rows)
    degrees = (2, 4, 8, 16)

    def argmin(alpha):
        vals = {j: means[(f"alpha={alpha},J={j}", "ipsvd", "l2_a1")]
                for j in degrees}
        return min(vals, key=vals.get), vals

    best_05, vals_05 = argmin(0.5)
    best_03, vals_03 = argmin(0.3)
    ok = best_05 == 8 and best_03 == 4
    _report(3, ok, f"argmin J at alpha=0.5: {best_05} (want 8) {vals_05}; "
                   f"at alpha=0.3: {best_03} (want 4) {vals_03}")
    assert best_05 == 8, vals_05
    assert best_03 == 4, vals_03


def test_criterion_4_orthogonal_part_penalty():
    rows = run_experiment("table4_gamma_sweep", reps=REPS, seed=SEED,
                          cells=["tau=0.0", "tau=1.0"])
    means = _index(rows)
    lo = means[("tau=0.0", "ipsvd", "l2_a1")]
    hi = means[("tau=1.0", "ipsvd", "l2_a1")]
    ok = hi - lo >= 0.2
    _report(4, ok, f"l2 at tau=1.0 {hi:.3f} vs tau=0 {lo:.3f}; "
                   f"gap {hi - lo:.3f} (need >= 0.2)")
    assert hi - lo >= 0.2


def test_criterion_5_multiplicative_misspecification():
    rows = run_experiment("table6_multiplicative", reps=REPS, seed=SEED,
                          cells=["alpha=0.5,I=100"])
    means = _index(rows)
    got = means[("alpha=0.5,I=100", "ipsvd", "l2_a1")]
    ref = means[("alpha=0.5,I=100", "hooi", "l2_a1")]
    ok = abs(got - 0.853) <= 0.2 and got < ref
    _report(5, ok, f"projected {got:.3f} (target 0.853+-0.2), "
                   f"unprojected {ref:.3f}")
    assert abs(got - 0.853) <= 0.2
    assert got < ref


def test_criterion_6_rank_selection_rate():
    spec = BasisSpec(degree=4)
    hits = 0
    for rep in range(REPS):
        ss = np.random.SeedSequence(SEED, spawn_key=(1000, rep))
        inst = generate(SimConfig(dims=(100, 100, 100), rank=3, alpha=0.5,
                                  j_star=4, seed=ss))
        designs = [build_design(X, spec) for X in inst.covariates]
        if estimate_ranks(inst.observed, designs) == (3, 3, 3):
            hits += 1
    rate = hits / REPS
    ok = rate >= 0.9
    _report(6, ok, f"correct-rank rate {rate:.2f} over {REPS} reps "
                   f"(need >= 0.90)")
    assert rate >= 0.9, (
        f"rate {rate:.2f}: at this signal level the third eigenvalue of the "
        f"projected Gram often stays below the noise edge, so the noise-edge "
        f"rule under-selects; see the invariants covered by the "
        f"property suite for the noiseless contract")


def test_criterion_7_property_suite_runtime():
    files = ["tests/test_tensor.py", "tests/test_sieve.py",
             "tests/test_estimator.py", "tests/test_prediction.py",
             "tests/test_simlab.py"]
    root = Path(__file__).resolve().parents[1]
    t0 = time.time()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", *files],
                          cwd=root, capture_output=True, text=True)
    elapsed = time.time() - t0
    ok = proc.returncode == 0 and elapsed <= 120
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    _report(7, ok, f"property suite: {tail}; {elapsed:.1f}s (cap 120s)")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed <= 120


def test_criterion_8_prediction_ordering():
    inst = generate(SimConfig(dims=(100, 100, 100), rank=3, alpha=0.5,
                              j_star=4, seed=123))
    rng = np.random.default_rng(99)
    spec = BasisSpec(degree=4)
    errs_model, errs_smooth = [], []
    for _ in range(10):
        perm = rng.permutation(100)
        train, test = np.sort(perm[:50]), np.sort(perm[50:])
        designs = [build_design(inst.covariates[0][train], spec),
                   build_design(inst.covariates[1], spec),
                   build_design(inst.covariates[2], spec)]
        fit = fit_stefa(inst.observed[train], designs, ranks=(3, 3, 3))
        href = hooi(inst.observed[train], (3, 3, 3))
        truth = inst.signal[test]
        denom = np.linalg.norm(truth)
        pm = predict_stefa(fit, designs, inst.covariates[0][test])
        pv = predict_vanilla(href, inst.covariates[0][train],
                             inst.covariates[0][test])
        errs_model.append(np.linalg.norm(pm - truth) / denom)
        errs_smooth.append(np.linalg.norm(pv - truth) / denom)
    em, es = float(np.mean(errs_model)), float(np.mean(errs_smooth))
    ok = em <= es
    _report(8, ok, f"model-based mean error {em:.3f} vs smoothing {es:.3f} "
                   f"over 10 half-holdout splits")
    assert em <= es


def test_criterion_9_deterministic_csv(tmp_path):
    args = ["simulate", "--protocol", "noise_amplify", "--reps", "2",
            "--seed", "7", "--threads", "1", "--cells", "amplifier=0.0",
            "--cells", "amplifier=2.0"]
    assert cli_main(args + ["--out", str(tmp_path / "a")]) == 0
    assert cli_main(args + ["--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "results.csv").read_bytes()
    b = (tmp_path / "b" / "results.csv").read_bytes()
    ok = a == b
    _report(9, ok, f"two seeded runs wrote identical results.csv "
                   f"({len(a)} bytes)")
    assert a == b
