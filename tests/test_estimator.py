import json

import numpy as np
import pytest

from stefa.estimator import (DegenerateCoreError, RankExceedsSpanError,
                             calibrate, estimate_core, estimate_loadings,
                             estimate_ranks, fit_stefa, hooi, ipsvd_init,
                             ipsvd_iterate, load_fit, save_fit,
                             subspace_distance)
from stefa.sieve import BasisSpec, build_design, projector_apply
from stefa.simlab import SimConfig, generate
from stefa.tensor import (matricize, multi_mode_product,
                          top_left_singular_vectors)


def inspan_instance(dims=(20, 20, 20), rank=2, degree=3, alpha=1.0, seed=0,
                    tau=0.0):
    """Noise-free draw whose covariate loadings lie exactly in the fit span."""
    cfg = SimConfig(dims=dims, rank=rank, alpha=alpha, j_star=degree,
                    tau_gamma=tau, seed=seed)
    inst = generate(cfg)
    designs = [build_design(X, BasisSpec(degree=degree))
               for X in inst.covariates]
    return inst, designs


# ---------------------------------------------------------------------------
# subspace distance

def test_subspace_distance_oracles():
    rng = np.random.default_rng(0)
    a = np.linalg.qr(rng.standard_normal((10, 3)))[0]
    o = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    assert subspace_distance(a @ o, a) <= 1e-10
    comp = np.linalg.qr(rng.standard_normal((10, 10)))[0][:, 3:6]
    comp = comp - a @ (a.T @ comp)
    assert np.isclose(subspace_distance(comp, a), np.sqrt(3), atol=1e-8)
    # one-dimensional 30-degree angle has sine 0.5
    v = np.array([[np.cos(np.pi / 6)], [np.sin(np.pi / 6)]])
    e = np.array([[1.0], [0.0]])
    assert np.isclose(subspace_distance(v, e), 0.5, atol=1e-12)


def test_subspace_distance_rank_deficient():
    a = np.eye(6)[:, :3]
    bad = np.zeros((6, 3))
    bad[:, 0] = a[:, 0]          # only one direction recovered
    assert np.isclose(subspace_distance(bad, a), np.sqrt(2), atol=1e-10)


# ---------------------------------------------------------------------------
# HOOI

def test_hooi_objective_monotone():
    rng = np.random.default_rng(1)
    y = rng.standard_normal((12, 13, 14))
    fit = hooi(y, (2, 3, 2), max_iter=10)
    trace = np.array(fit.objective_trace)
    assert np.all(np.diff(trace) >= -1e-8 * trace[0])


def test_hooi_exact_recovery_and_scaling():
    rng = np.random.default_rng(2)
    dims, ranks = (15, 16, 17), (2, 3, 2)
    mats = [np.linalg.qr(rng.standard_normal((d, r)))[0] * np.sqrt(d)
            for d, r in zip(dims, ranks)]
    core = rng.standard_normal(ranks)
    y = multi_mode_product(core, mats)
    fit = hooi(y, ranks)
    assert fit.converged
    for m in range(3):
        assert subspace_distance(fit.loadings[m], mats[m]) <= 1e-8
        gram = fit.loadings[m].T @ fit.loadings[m] / dims[m]
        assert np.allclose(gram, np.eye(ranks[m]), atol=1e-8)
    assert np.linalg.norm(fit.reconstruct() - y) <= 1e-6 * np.linalg.norm(y)


def test_hooi_rejects_bad_input():
    with pytest.raises(ValueError):
        hooi(np.full((4, 4, 4), np.nan), (2, 2, 2))
    with pytest.raises(ValueError):
        hooi(np.zeros((4, 4, 4)), (5, 2, 2))
    y = np.random.default_rng(3).standard_normal((4, 4, 4))
    for bad in (dict(max_iter=0), dict(max_iter=-3), dict(max_iter=2.5),
                dict(tol=np.nan), dict(tol=-1.0), dict(tol=np.inf)):
        with pytest.raises(ValueError, match="max_iter|tol"):
            hooi(y, (2, 2, 2), **bad)


# ---------------------------------------------------------------------------
# projected estimation pipeline

def test_noiseless_exact_recovery():
    inst, designs = inspan_instance()
    fit = fit_stefa(inst.signal, designs, ranks=(2, 2, 2))
    assert fit.converged
    for m in range(3):
        assert subspace_distance(fit.g_loadings[m], inst.a_loadings[m]) <= 1e-8
    # core recovered up to per-mode signs and the 1/sqrt(prod dims) scale
    # implied by the sqrt(I)-normalized loadings
    ratio = fit.core / inst.core * np.sqrt(np.prod(inst.signal.shape))
    assert np.allclose(np.abs(ratio), 1.0, atol=1e-6)
    recon = fit.reconstruct()
    assert np.linalg.norm(recon - inst.signal) <= 1e-6 * np.linalg.norm(inst.signal)


def test_g_orthonormality_and_gamma_orthogonality():
    inst, designs = inspan_instance(seed=3)
    y = inst.observed
    fit = fit_stefa(y, designs, ranks=(2, 2, 2))
    for m in range(3):
        g = fit.g_loadings[m]
        assert np.allclose(g.T @ g / y.shape[m], np.eye(2), atol=1e-8)
        resid = np.linalg.norm(designs[m].phi.T @ fit.gamma[m])
        scale = max(np.linalg.norm(fit.gamma[m]), 1e-12)
        assert resid <= 1e-8 * max(scale, 1.0) * np.linalg.norm(designs[m].phi)


def test_calibration_diagonal_decreasing():
    inst, designs = inspan_instance(seed=4)
    fit = fit_stefa(inst.observed, designs, ranks=(2, 2, 2))
    for m in range(3):
        mat = matricize(fit.core, m)
        gram = mat @ mat.T
        off = gram - np.diag(np.diag(gram))
        assert np.linalg.norm(off) <= 1e-6 * np.linalg.norm(gram)
        d = np.diag(gram)
        assert np.all(np.diff(d) <= 1e-6 * d[0])


def test_calibrate_flags_degenerate_gap():
    core = np.zeros((2, 2, 2))
    core[0, 0, 0] = core[1, 1, 1] = 1.0      # equal mode-Gram eigenvalues
    factors = [np.eye(2)] * 3
    _, _, flags = calibrate(core, factors)
    assert any("identification unstable" in f for f in flags)


def test_projector_identity_reduces_to_hooi():
    # square full-rank sieve design means no projection at all
    rng = np.random.default_rng(5)
    dims = (8, 8, 8)
    y = rng.standard_normal(dims)
    designs = [build_design(rng.uniform(size=(8, 1)), BasisSpec(degree=7))
               for _ in range(3)]
    assert all(d.rank == 8 for d in designs)
    fit = fit_stefa(y, designs, ranks=(2, 2, 2))
    href = hooi(y, (2, 2, 2))
    for m in range(3):
        assert subspace_distance(fit.g_loadings[m], href.loadings[m]) <= 1e-10


def test_no_designs_runs_hooi_semantics():
    rng = np.random.default_rng(6)
    y = rng.standard_normal((10, 10, 10))
    fit = fit_stefa(y, None, ranks=(2, 2, 2))
    assert "no sieve projection" in fit.flags


def test_rank_exceeds_span_error():
    inst, designs = inspan_instance(dims=(12, 12, 12), degree=1)  # span dim 3
    with pytest.raises(RankExceedsSpanError):
        ipsvd_init(inst.observed, designs, (4, 2, 2))


def test_degenerate_core_error_on_overspecified_rank():
    inst, designs = inspan_instance()       # true rank 2
    with pytest.raises(DegenerateCoreError):
        fit_stefa(inst.signal, designs, ranks=(3, 3, 3))


def test_iterate_trace_and_convergence():
    inst, designs = inspan_instance(seed=7)
    init = ipsvd_init(inst.signal, designs, (2, 2, 2))
    factors, trace, converged = ipsvd_iterate(inst.signal, designs, (2, 2, 2),
                                              init)
    assert converged
    assert trace[-1] < 1e-8


def reference_ipsvd_iterate(Y, designs, ranks, init, max_iter=50, tol=1e-8,
                            update_order=None, fixed_modes=()):
    """The projected loop in the full space: every update contracts Y with
    the other modes' factors and projects onto the mode's sieve span."""
    scales = np.sqrt(np.asarray(Y.shape, dtype=float))
    units = [g / s for g, s in zip(init, scales)]
    active = [m for m in range(Y.ndim) if m not in fixed_modes]
    order = list(update_order) if update_order is not None else active
    trace = []
    for _ in range(max_iter):
        prev = list(units)
        for m in order:
            mats = {j: units[j].T for j in range(Y.ndim) if j != m}
            mat = matricize(multi_mode_product(Y, mats), m)
            if designs[m] is not None:
                mat = projector_apply(designs[m], mat)
            units[m] = top_left_singular_vectors(mat, ranks[m])
        trace.append(max(subspace_distance(units[m], prev[m]) for m in active))
        if trace[-1] < tol:
            break
    return [u * s for u, s in zip(units, scales)], trace


@pytest.mark.parametrize("case", ["all_designs", "one_without_design",
                                  "identity_mode", "update_order"])
def test_compressed_iteration_matches_full_space_reference(case):
    dims = (20, 20, 10) if case == "identity_mode" else (30, 30, 30)
    inst, designs = inspan_instance(dims=dims, seed=20, alpha=0.5)
    y = inst.observed
    ranks, kwargs = (2, 2, 2), {}
    if case == "one_without_design":
        designs[1] = None
    elif case == "identity_mode":
        designs[2] = None
    elif case == "update_order":
        kwargs = {"update_order": (2, 0, 1)}
    init = ipsvd_init(y, designs, ranks)
    if case == "identity_mode":
        # as fit_stefa sets it up: full extent and an identity factor
        ranks, kwargs = (2, 2, 10), {"fixed_modes": (2,)}
        init[2] = np.sqrt(10) * np.eye(10)

    factors, trace, converged = ipsvd_iterate(y, designs, ranks, init, **kwargs)
    ref, ref_trace = reference_ipsvd_iterate(y, designs, ranks, init, **kwargs)
    assert len(trace) == len(ref_trace) > 2
    assert converged
    assert np.allclose(trace, ref_trace, rtol=0.0, atol=1e-10)
    for m in range(3):
        assert subspace_distance(factors[m], ref[m]) <= 1e-10
        assert np.allclose(factors[m].T @ factors[m] / dims[m],
                           np.eye(ranks[m]), atol=1e-10)


def test_unconverged_fit_is_flagged():
    inst, designs = inspan_instance(dims=(30, 30, 30), seed=20, alpha=0.5)
    fit = fit_stefa(inst.observed, designs, ranks=(2, 2, 2), max_iter=1)
    assert not fit.converged and fit.iterations_used == 1
    assert "not converged after 1 sweeps" in fit.flags
    fit = fit_stefa(inst.observed, designs, ranks=(2, 2, 2))
    assert fit.converged
    assert not any(f.startswith("not converged") for f in fit.flags)


def test_fit_stefa_rejects_bad_iteration_controls():
    inst, designs = inspan_instance(dims=(12, 12, 12), seed=21)
    for bad in (dict(max_iter=0), dict(max_iter=-3), dict(max_iter=2.5),
                dict(tol=np.nan), dict(tol=-1.0), dict(tol=np.inf)):
        with pytest.raises(ValueError, match="max_iter|tol"):
            fit_stefa(inst.observed, designs, ranks=(2, 2, 2), **bad)


def test_estimate_core_shapes():
    rng = np.random.default_rng(8)
    y = rng.standard_normal((6, 7, 8))
    gs = [np.ones((6, 2)), np.ones((7, 2)), np.ones((8, 2))]
    core = estimate_core(y, gs)
    assert core.shape == (2, 2, 2)
    with pytest.raises(ValueError):
        estimate_core(y, [np.ones((5, 2))] + gs[1:])


def test_identity_mode():
    inst, designs = inspan_instance(dims=(20, 20, 10), seed=9)
    designs = [designs[0], designs[1], None]
    fit = fit_stefa(inst.signal, designs, ranks=(2, 2, 2), identity_modes=(2,))
    assert fit.ranks == (2, 2, 10)
    assert np.array_equal(fit.a_loadings[2], np.eye(10))
    recon = fit.reconstruct()
    assert np.linalg.norm(recon - inst.signal) <= 1e-6 * np.linalg.norm(inst.signal)
    with pytest.raises(ValueError):
        fit_stefa(inst.signal, [designs[0], designs[1], designs[0]],
                  ranks=(2, 2, 2), identity_modes=(2,))


# ---------------------------------------------------------------------------
# rank estimation

def test_estimate_ranks_noiseless():
    inst, designs = inspan_instance(seed=10)
    assert estimate_ranks(inst.signal, designs) == (2, 2, 2)


def test_estimate_ranks_kmax_cap_and_profile():
    inst, designs = inspan_instance(seed=11)
    assert estimate_ranks(inst.signal, designs, k_max=1) == (1, 1, 1)
    ranks, profiles = estimate_ranks(inst.signal, designs, return_profile=True)
    # covariate-mode search stops one below the sieve span dimension (7)
    assert all(len(p) <= 6 for p in profiles)
    # on a noisy draw the profile is lambda_k / noise edge, and the chosen
    # rank counts the eigenvalues above the edge
    ranks, profiles = estimate_ranks(inst.observed, designs, return_profile=True)
    for r, p in zip(ranks, profiles):
        assert r == int(np.sum(p > 1.0))


def test_estimate_ranks_pure_noise_selects_one():
    rng = np.random.default_rng(15)
    y = rng.standard_normal((30, 30, 30))
    designs = [build_design(rng.uniform(size=(30, 2)), BasisSpec(degree=4))
               for _ in range(3)]
    assert estimate_ranks(y, designs) == (1, 1, 1)


def test_estimate_ranks_auto_cap_without_designs():
    rng = np.random.default_rng(12)
    y = rng.standard_normal((10, 10, 10))
    _, profiles = estimate_ranks(y, None, return_profile=True)
    assert all(len(p) == 5 for p in profiles)    # round(min(10, 100)/2)


def test_estimate_ranks_zero_tensor():
    inst, designs = inspan_instance(seed=13)
    with pytest.raises(ValueError):
        estimate_ranks(np.zeros_like(inst.signal), designs)


# ---------------------------------------------------------------------------
# persistence

def test_save_load_roundtrip(tmp_path):
    inst, designs = inspan_instance(seed=14)
    # rank 1 writes one-column loading files, which must read back as columns
    for ranks in [(2, 2, 2), (1, 1, 1)]:
        fit = fit_stefa(inst.observed, designs, ranks=ranks)
        out = tmp_path / f"fit{ranks[0]}"
        save_fit(fit, designs, out)
        back, back_designs = load_fit(out)
        assert back.ranks == fit.ranks
        assert np.allclose(back.core, fit.core, atol=1e-10)
        for m in range(3):
            assert back.g_loadings[m].shape == fit.g_loadings[m].shape
            assert np.allclose(back.g_loadings[m], fit.g_loadings[m], atol=1e-10)
            assert np.allclose(back.a_loadings[m], fit.a_loadings[m], atol=1e-10)
            assert np.allclose(back.sieve_coeffs[m], fit.sieve_coeffs[m],
                               atol=1e-10)
            assert np.allclose(back_designs[m].phi, designs[m].phi, atol=1e-10)


def test_load_fit_rejects_missing_keys_and_inconsistent_shapes(tmp_path):
    inst, designs = inspan_instance(seed=14)
    fit = fit_stefa(inst.observed, designs, ranks=(2, 2, 2))
    out = tmp_path / "fitdir"
    save_fit(fit, designs, out)
    report_path = out / "report.json"
    report = json.loads(report_path.read_text())

    broken = dict(report)
    del broken["flags"]
    report_path.write_text(json.dumps(broken))
    with pytest.raises(ValueError, match="'flags'"):
        load_fit(out)

    broken = json.loads(json.dumps(report))
    del broken["basis"]["1"]["degree"]
    report_path.write_text(json.dumps(broken))
    with pytest.raises(ValueError, match="mode 2 .*'degree'"):
        load_fit(out)

    report_path.write_text(json.dumps(dict(report, ranks=[2, 3, 2])))
    with pytest.raises(ValueError, match="core extents"):
        load_fit(out)

    report_path.write_text(json.dumps(report))
    a_path = out / "a_loadings_mode3.csv"
    lines = a_path.read_text().splitlines()
    a_path.write_text("\n".join(line.rsplit(",", 1)[0] for line in lines) + "\n")
    with pytest.raises(ValueError, match="a_loadings_mode3"):
        load_fit(out)
