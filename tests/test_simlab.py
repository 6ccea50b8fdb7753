import json

import numpy as np
import pytest

from stefa.simlab import (PROTOCOLS, SimConfig, generate, loss_function,
                          loss_function_best_linear, loss_remse, loss_subspace,
                          noise_amplify_refit, run_experiment)
from stefa.tensor import multi_mode_product


def small_config(**kw):
    base = dict(dims=(30, 30, 30), rank=2, alpha=0.5, j_star=3, seed=0)
    base.update(kw)
    return SimConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(dims=(0, 10, 10))
    with pytest.raises(ValueError):
        SimConfig(rank=0)
    with pytest.raises(ValueError):
        SimConfig(kappa=1.0)
    with pytest.raises(ValueError):
        SimConfig(alpha=-0.1)
    with pytest.raises(ValueError):
        SimConfig(tau_gamma=-1.0)
    with pytest.raises(ValueError):
        SimConfig(scheme="mixed")
    with pytest.raises(ValueError):
        generate(SimConfig(dims=(5, 30, 30), j_star=4))   # basis > extent


def test_generate_deterministic():
    a = generate(small_config(seed=7))
    b = generate(small_config(seed=7))
    assert np.array_equal(a.observed, b.observed)
    assert np.array_equal(a.core, b.core)
    for m in range(3):
        assert np.array_equal(a.a_loadings[m], b.a_loadings[m])
    c = generate(small_config(seed=8))
    assert not np.array_equal(a.observed, c.observed)


def test_core_scaling_follows_alpha():
    for alpha in (0.0, 0.3, 0.7):
        inst = generate(small_config(alpha=alpha, seed=1))
        lam = min(np.linalg.svd(np.reshape(np.moveaxis(inst.core, m, 0),
                                           (2, -1), order="F"),
                                compute_uv=False)[-1]
                  for m in range(3))
        assert np.isclose(lam, 30.0 ** alpha, atol=1e-8)


def test_loading_orthonormality_and_signal_decomposition():
    inst = generate(small_config(seed=2))
    for m in range(3):
        a = inst.a_loadings[m]
        g = inst.g_loadings[m]
        assert np.allclose(a.T @ a, np.eye(2), atol=1e-10)
        assert np.allclose(g.T @ g, np.eye(2), atol=1e-10)
    # the residual is the standard Gaussian noise: mean and variance within
    # four standard errors of 0 and 1
    noise = inst.observed - inst.signal
    n = noise.size
    assert abs(noise.mean()) <= 4.0 / np.sqrt(n)
    assert abs(noise.var() - 1.0) <= 4.0 * np.sqrt(2.0 / n)


@pytest.mark.parametrize("block", [1, 7 * 30 * 30])
def test_noise_row_blocks_continue_one_draw(monkeypatch, block):
    import stefa.simlab
    # the default block holds the whole 30 x 30 x 30 draw; rows of one and
    # of seven (a ragged last block of two) must give the same bits
    whole = generate(small_config(seed=14)).observed
    monkeypatch.setattr(stefa.simlab, "_BLOCK_VALUES", block)
    blocked = generate(small_config(seed=14)).observed
    assert np.array_equal(blocked.view(np.int64), whole.view(np.int64))


def test_generate_holds_one_observation_sized_array():
    import tracemalloc
    generate(small_config(seed=12))             # warm-up: imports and caches
    tracemalloc.start()
    try:
        inst = generate(small_config(dims=(100, 100, 110), seed=12))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert inst.observed.nbytes >= 8 * 2 ** 20
    # the noise is added to the signal's buffer a row block at a time; a
    # stored signal beside a whole noise draw peaked at 2.0
    assert peak < 1.25 * inst.observed.nbytes


def test_signal_is_formed_on_first_access_and_kept():
    inst = generate(small_config(seed=13))
    assert "signal" not in vars(inst)
    signal = inst.signal
    want = multi_mode_product(inst.core, inst.a_loadings)
    assert np.array_equal(signal.view(np.int64), want.view(np.int64))
    assert inst.signal is signal


def test_tau_zero_means_loadings_are_covariate_driven():
    inst = generate(small_config(seed=3, tau_gamma=0.0))
    for m in range(3):
        assert np.array_equal(inst.gamma[m], np.zeros((30, 2)))
        g = inst.g_loadings[m]
        resid = inst.a_loadings[m] - g @ (g.T @ inst.a_loadings[m])
        assert np.linalg.norm(resid) <= 1e-10


def test_tau_positive_orthogonal_part():
    from stefa.sieve import BasisSpec, eval_basis
    tau = 0.7
    inst = generate(small_config(seed=4, tau_gamma=tau))
    phi = eval_basis(inst.covariates[0], BasisSpec(degree=3))
    gm = inst.gamma[0]
    assert np.allclose(np.linalg.norm(gm, axis=0), tau, atol=1e-10)
    assert np.linalg.norm(phi.T @ gm) <= 1e-8 * np.linalg.norm(phi) * tau


def test_loading_functions_reproduce_g_at_training_rows():
    for scheme in ("additive", "multiplicative"):
        inst = generate(small_config(seed=5, scheme=scheme))
        for m in range(3):
            vals = inst.loading_functions[m](inst.covariates[m])
            assert np.allclose(vals, inst.g_loadings[m], atol=1e-8)


# ---------------------------------------------------------------------------
# losses

def test_loss_subspace_contract():
    rng = np.random.default_rng(0)
    a = np.linalg.qr(rng.standard_normal((12, 2)))[0]
    assert loss_subspace(a, a) <= 1e-10
    with pytest.raises(ValueError):
        loss_subspace(a, a[:, :1] @ np.ones((1, 2)))      # rank deficient
    with pytest.raises(ValueError):
        loss_subspace(a[:6], a)


def test_loss_function_oracles():
    true = lambda x: np.sin(3 * x[:, 0]) + x[:, 1]
    assert loss_function(true, true) <= 1e-14
    neg = lambda x: -true(x)
    assert loss_function(neg, true) <= 1e-14
    zero = lambda x: np.zeros(x.shape[0])
    assert np.isclose(loss_function(zero, true), 1.0, atol=1e-12)
    with pytest.raises(ValueError):
        loss_function(zero, zero)


def test_loss_function_best_linear_oracles():
    f1 = lambda x: x[:, 0]
    f2 = lambda x: x[:, 1]
    target = lambda x: 2 * x[:, 0] - 3 * x[:, 1]
    assert loss_function_best_linear([f1, f2], target) <= 1e-12
    ortho = lambda x: np.ones(x.shape[0])
    loss = loss_function_best_linear([f1], ortho)
    assert loss > 0.05


def test_loss_remse_oracles():
    rng = np.random.default_rng(1)
    s = rng.standard_normal((4, 5, 6))
    assert loss_remse(s, s) == 0.0
    assert np.isclose(loss_remse(np.zeros_like(s), s), 1.0)
    assert np.isclose(loss_remse(2 * s, s), 1.0)
    assert np.isclose(loss_remse(2 * s, s, squared=True), 1.0)
    assert np.isclose(loss_remse(np.zeros_like(s), s, reference=2 * s), 0.5)
    with pytest.raises(ValueError):
        loss_remse(s, np.zeros((4, 5)))
    with pytest.raises(ValueError):
        loss_remse(s, s, reference=np.zeros_like(s))


# ---------------------------------------------------------------------------
# harness

def test_protocol_grids_are_well_formed():
    for name, build in PROTOCOLS.items():
        grid = build()
        assert len(grid) >= 4
        labels = [c["label"] for c in grid]
        assert len(set(labels)) == len(labels)
        for cell in grid:
            assert "config" in cell and "fit_degree" in cell


def test_run_experiment_rejects_bad_arguments():
    with pytest.raises(ValueError, match="unknown protocol"):
        run_experiment("table99")
    with pytest.raises(ValueError, match="unknown cells"):
        run_experiment("table1", reps=1, cells=["alpha=9,I=9"])
    with pytest.raises(ValueError):
        run_experiment("table1", reps=0)


def test_run_experiment_contract_and_determinism(tmp_path):
    kw = dict(reps=2, seed=11, cells=["amplifier=0.0"])
    rows = run_experiment("noise_amplify", out_dir=tmp_path / "out", **kw)
    methods = {r["method"] for r in rows}
    assert methods == {"ipsvd", "hooi"}
    assert all(r["reps"] == 2 for r in rows)
    # refit on the zero-amplified (noise-free) reconstruction is near exact
    for r in rows:
        if r["method"] == "ipsvd":
            assert r["mean"] <= 1e-6
    # the refits report no convergence rows
    assert {r["metric"] for r in rows} == {"remse_sq"}
    assert run_experiment("noise_amplify", **kw) == rows
    assert (tmp_path / "out" / "results.csv").exists()
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert "threads" not in manifest


def test_noise_amplify_refit_monotone():
    cfg = small_config(seed=6)
    inst = generate(cfg)
    from stefa.sieve import BasisSpec, build_design
    designs = [build_design(X, BasisSpec(degree=3)) for X in inst.covariates]
    from stefa.estimator import fit_stefa
    base = fit_stefa(inst.observed, designs, ranks=(2, 2, 2))
    s_hat = base.reconstruct()
    rows = noise_amplify_refit(s_hat, inst.observed - s_hat,
                               [0.0, 1.0, 2.0], designs=designs,
                               ranks=(2, 2, 2))
    # amplifier 0 refits a noise-free low-rank tensor; amplifier 1 refits the
    # original observation, whose fit is the reference itself
    assert rows[0]["ipsvd"] <= 1e-10
    assert rows[1]["ipsvd"] <= 1e-10
    hooi_errs = [r["hooi"] for r in rows]
    assert hooi_errs[0] <= hooi_errs[1] <= hooi_errs[2]
    for r in rows:
        assert r["ipsvd"] <= r["hooi"] + 1e-10
    with pytest.raises(ValueError):
        noise_amplify_refit(s_hat, s_hat[:10], [1.0])


# ---------------------------------------------------------------------------
# block-scored reconstruction errors

@pytest.mark.parametrize("dims, block", [((30, 30, 30), 7 * 30 * 30),
                                         ((13, 10, 10, 10), 3 * 10 * 10 * 10)])
def test_block_scored_remse_matches_dense_loss_remse(monkeypatch, dims, block):
    import stefa.simlab
    from stefa.estimator import fit_stefa, hooi
    from stefa.sieve import BasisSpec, build_design
    # row blocks of 7 (3) rows leave a ragged last block of 2 (1) rows
    monkeypatch.setattr(stefa.simlab, "_BLOCK_VALUES", block)
    assert dims[0] % (block // int(np.prod(dims[1:]))) != 0
    inst = generate(small_config(dims=dims, seed=9))
    metrics = stefa.simlab._fit_metrics(inst, 3, ("ipsvd", "hooi"))
    designs = [build_design(X, BasisSpec(degree=3)) for X in inst.covariates]
    fit = fit_stefa(inst.observed, designs, ranks=(2,) * len(dims))
    h = hooi(inst.observed, (2,) * len(dims))
    dense = {
        ("ipsvd", "remse"): loss_remse(fit.reconstruct_g(), inst.signal),
        ("ipsvd", "remse_obs"): loss_remse(fit.reconstruct_g(), inst.signal,
                                           reference=inst.observed),
        ("hooi", "remse"): loss_remse(h.reconstruct(), inst.signal),
    }
    for key, want in dense.items():
        assert abs(metrics[key] - want) <= 1e-12 * want, key
    assert metrics[("ipsvd", "converged")] == float(fit.converged)
    assert metrics[("hooi", "converged")] == float(h.converged)


def test_table1_replication_holds_under_three_observation_sizes():
    import tracemalloc
    kw = dict(reps=1, seed=4, cells=["alpha=0.5,I=100"])
    run_experiment("table1", **kw)              # warm-up: imports and caches
    tracemalloc.start()
    try:
        run_experiment("table1", **kw)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the observation and the signal are alive throughout (2.0); scoring by
    # dense reconstructions peaked at 4.0
    assert peak < 3 * 100 ** 3 * 8


def test_results_report_convergence_and_manifest_times_each_rep(tmp_path):
    rows = run_experiment("table1", reps=2, seed=2, cells=["alpha=0.5,I=100"],
                          out_dir=tmp_path)
    shares = {r["method"]: r["mean"] for r in rows if r["metric"] == "converged"}
    assert set(shares) == {"ipsvd", "hooi"}
    assert all(v in (0.0, 0.5, 1.0) for v in shares.values())
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    (cell,) = manifest["cells"]
    assert len(cell["rep_seconds"]) == 2 and min(cell["rep_seconds"]) > 0.0
    assert sum(cell["rep_seconds"]) <= cell["seconds"]
