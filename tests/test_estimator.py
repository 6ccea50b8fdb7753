import json
import warnings

import numpy as np
import pytest

from stefa.estimator import (DegenerateCoreError, EstimationError,
                             RankExceedsSpanError,
                             _check_ranks, calibrate, compress, estimate_core,
                             estimate_loadings, estimate_ranks, fit_stefa, hooi,
                             ipsvd_iterate, load_fit, save_fit,
                             subspace_distance)
from stefa.sieve import BasisSpec, build_design, projector_apply
from stefa.simlab import SimConfig, generate
from stefa.tensor import matricize, multi_mode_product, top_left_singular_vectors


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


def test_tucker_ranks_are_checked_by_hooi_and_fit_stefa():
    y = np.random.default_rng(16).standard_normal((5, 5, 5))
    for fit in (lambda r: hooi(y, r), lambda r: fit_stefa(y, None, ranks=r)):
        assert fit((1, 3, 3)).ranks == (1, 3, 3)
        for ranks, message in [
                ((1, 2, 3), r"rank 3 for mode 2 exceeds product of the other "
                            r"ranks \(2\)"),
                ((0, 3, 3), r"rank 0 for mode 0 not in \[1, 5\]"),
                ((6, 3, 3), r"rank 6 for mode 0 not in \[1, 5\]"),
                # every range is checked before any product of ranks
                ((2, 10 ** 30, 2), rf"rank {10 ** 30} for mode 1 not in \[1, 5\]"),
                ((2, 2 ** 62, 2 ** 62), r"rank \d+ for mode 1 not in"),
                ((3, 3), "2 ranks given for order-3 tensor")]:
            with pytest.raises(ValueError, match=message):
                fit(ranks)


def test_non_finite_entries_raise_but_overflowing_squares_do_not():
    rng = np.random.default_rng(17)
    y = rng.standard_normal((6, 7, 8))
    designs = [build_design(rng.uniform(size=(n, 1)), BasisSpec(degree=3))
               for n in y.shape]
    fits = (lambda t: fit_stefa(t, designs, ranks=(2, 2, 2)),
            lambda t: hooi(t, (2, 2, 2)))
    for bad in (np.nan, np.inf, -np.inf):
        z = y.copy()
        z[1, 2, 3] = bad
        for fit in fits:
            with pytest.raises(ValueError, match="tensor has non-finite entries"):
                fit(z)
    # every entry is finite, but ||Y||^2 overflows to inf: compress names the
    # overflow before any other pass (so no mode Gram warns of it)
    big = 1e200 * np.sign(y)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fit in fits + (lambda t: compress(t, designs),
                           lambda t: estimate_ranks(t, designs)):
            with pytest.raises(EstimationError, match="overflows"):
                fit(big)


def reference_hooi(Y, ranks, max_iter=50, tol=1e-8):
    """HOOI with four passes over Y per 3-way sweep: every update contracts Y
    with all the other units, and the objective makes its own pass."""
    units = [top_left_singular_vectors(matricize(Y, m), r)
             for m, r in enumerate(ranks)]

    def objective(us):
        compressed = multi_mode_product(Y, {m: u.T for m, u in enumerate(us)})
        return float(np.prod(Y.shape) * np.sum(compressed ** 2))

    trace, changes = [objective(units)], []
    for _ in range(max_iter):
        prev = list(units)
        for m in range(Y.ndim):
            mats = {j: units[j].T for j in range(Y.ndim) if j != m}
            units[m] = top_left_singular_vectors(
                matricize(multi_mode_product(Y, mats), m), ranks[m])
        changes.append(max(subspace_distance(u, p) for u, p in zip(units, prev)))
        trace.append(objective(units))
        if changes[-1] < tol:
            break
    return units, trace, changes


def low_rank_plus_noise(dims, ranks, noise, seed):
    rng = np.random.default_rng(seed)
    mats = [np.linalg.qr(rng.standard_normal((d, r)))[0] * np.sqrt(d)
            for d, r in zip(dims, ranks)]
    signal = multi_mode_product(rng.standard_normal(ranks), mats)
    return signal + noise * rng.standard_normal(dims)


@pytest.mark.parametrize("case", ["unequal_dims", "four_way", "noise_seed0",
                                  "noise_seed1", "noise_seed2", "noise_seed3"])
def test_hooi_matches_four_pass_reference(case):
    if case == "unequal_dims":
        ranks = (2, 3, 2)
        y = low_rank_plus_noise((12, 15, 18), ranks, 0.1, seed=30)
    elif case == "four_way":
        ranks = (2, 2, 3, 2)
        y = low_rank_plus_noise((6, 7, 8, 9), ranks, 0.1, seed=31)
    else:
        # noise only: the sweeps never settle, so differences could grow
        ranks = (3, 3, 3)
        y = np.random.default_rng(40 + int(case[-1])).standard_normal((20, 22, 24))
    fit = hooi(y, ranks)
    units, trace, changes = reference_hooi(y, ranks)
    assert fit.iterations_used == len(changes) == len(fit.subspace_change_trace)
    if case.startswith("noise"):
        assert not fit.converged and fit.iterations_used == 50
    else:
        assert fit.converged and fit.iterations_used > 2
    assert fit.converged == (fit.subspace_change_trace[-1] < 1e-8)
    assert np.allclose(fit.subspace_change_trace, changes, rtol=0.0, atol=1e-10)
    assert np.allclose(fit.objective_trace, trace, rtol=1e-12, atol=0.0)
    for m in range(y.ndim):
        assert subspace_distance(fit.loadings[m], units[m]) <= 1e-10


def _count_tensor_reads(monkeypatch, y):
    """Patch the mode products seen by the estimator and the tensor module;
    return the list that records the mode of each product whose input has
    the shape of ``y``."""
    import stefa.estimator
    import stefa.tensor
    reads = []
    mode_product = stefa.tensor.mode_product

    def counting(t, mat, mode):
        if np.shape(t) == y.shape:
            reads.append(mode)
        return mode_product(t, mat, mode)

    for module in (stefa.tensor, stefa.estimator):
        monkeypatch.setattr(module, "mode_product", counting)
    return reads


@pytest.mark.parametrize("dims, per_sweep", [((12, 13, 14), (3, 2)),
                                             ((6, 7, 8, 9), (4, 3)),
                                             ((15, 16), (2, 1))])
def test_hooi_reads_the_tensor_n_over_n_minus_1_times_per_sweep(
        monkeypatch, dims, per_sweep):
    # the start objective and the final core come from the loop, and one
    # partial product serves N - 1 updates: ceil(N k / (N - 1)) reads in k
    # sweeps (the four-pass-per-sweep reference takes 2 k + 2)
    y = np.random.default_rng(32).standard_normal(dims)
    reads = _count_tensor_reads(monkeypatch, y)
    n, shared = per_sweep
    for k in (1, 2, 3, 5):
        reads.clear()
        fit = hooi(y, (2,) * len(dims), max_iter=k, tol=0.0)
        assert fit.iterations_used == k and len(fit.objective_trace) == k + 1
        assert len(reads) == -(-n * k // shared)


def test_single_active_mode_iterates_on_the_tensor_itself(monkeypatch):
    # two identity modes: the update of the one active mode reads T itself
    # (no mode product); each sweep's energy and the start's contract T once
    y = np.random.default_rng(33).standard_normal((10, 11, 12))
    reads = _count_tensor_reads(monkeypatch, y)
    for k in (1, 3):
        reads.clear()
        factors, trace, _ = ipsvd_iterate(y, None, (2, 1, 1), max_iter=k,
                                          tol=0.0, identity_modes=(1, 2))
        assert len(trace) == k and reads == [0] * (k + 1)
        u = top_left_singular_vectors(matricize(y, 0), 2)
        assert subspace_distance(factors[0], u) <= 1e-10


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
        ipsvd_iterate(inst.observed, designs, (4, 2, 2))


def test_degenerate_core_error_on_overspecified_rank():
    inst, designs = inspan_instance()       # true rank 2
    with pytest.raises(DegenerateCoreError):
        fit_stefa(inst.signal, designs, ranks=(3, 3, 3))


def test_iterate_trace_and_convergence():
    inst, designs = inspan_instance(seed=7)
    factors, trace, converged = ipsvd_iterate(inst.signal, designs, (2, 2, 2))
    assert converged
    assert trace[-1] < 1e-8


def reference_ipsvd_iterate(Y, designs, ranks, max_iter=50, tol=1e-8,
                            identity_modes=()):
    """IP-SVD in the full space: the start of mode m is the top left singular
    vectors of Y projected onto every mode's sieve span (P_j = B_j B_j^T, the
    identity without a design), and every update contracts Y with the other
    modes' factors and projects onto the mode's sieve span.  Identity modes
    keep the identity factor."""
    modes = [m for m in range(Y.ndim) if m not in identity_modes]
    projected = multi_mode_product(Y, {j: d.basis @ d.basis.T
                                       for j, d in enumerate(designs)
                                       if d is not None})
    units = [top_left_singular_vectors(matricize(projected, m), ranks[m])
             if m in modes else np.eye(Y.shape[m]) for m in range(Y.ndim)]
    trace = []
    for _ in range(max_iter):
        prev = list(units)
        for m in modes:
            mats = {j: units[j].T for j in range(Y.ndim) if j != m}
            mat = matricize(multi_mode_product(Y, mats), m)
            if designs[m] is not None:
                mat = projector_apply(designs[m], mat)
            units[m] = top_left_singular_vectors(mat, ranks[m])
        trace.append(max(subspace_distance(units[m], prev[m]) for m in modes))
        if trace[-1] < tol:
            break
    scales = np.sqrt(np.asarray(Y.shape, dtype=float))
    return [u * s for u, s in zip(units, scales)], trace


@pytest.mark.parametrize("case", ["all_designs", "one_without_design",
                                  "identity_mode"])
def test_compressed_iteration_matches_full_space_reference(case):
    dims = (20, 20, 10) if case == "identity_mode" else (30, 30, 30)
    inst, designs = inspan_instance(dims=dims, seed=20, alpha=0.5)
    y = inst.observed
    kwargs = {}
    if case == "one_without_design":
        designs[1] = None
    elif case == "identity_mode":
        # the identity mode's rank is its extent, whatever ranks holds
        designs[2] = None
        kwargs = {"identity_modes": (2,)}

    factors, trace, converged = ipsvd_iterate(y, designs, (2, 2, 2), **kwargs)
    ref, ref_trace = reference_ipsvd_iterate(y, designs, (2, 2, 2), **kwargs)
    assert len(trace) == len(ref_trace) > 2
    assert converged
    assert np.allclose(trace, ref_trace, rtol=0.0, atol=1e-10)
    for m in range(3):
        rank = dims[m] if m in kwargs.get("identity_modes", ()) else 2
        assert factors[m].shape == (dims[m], rank)
        assert subspace_distance(factors[m], ref[m]) <= 1e-10
        assert np.allclose(factors[m].T @ factors[m] / dims[m],
                           np.eye(rank), atol=1e-10)


def test_fixed_rank_fit_compresses_the_tensor_once(monkeypatch):
    # every mode product of a fit, direct or inside a chain, that reads a
    # Y-sized tensor: only the two passes of compress, with or without
    # automatic ranks
    inst, designs = inspan_instance(dims=(20, 22, 24), seed=23, alpha=0.5)
    y = inst.observed
    reads = _count_tensor_reads(monkeypatch, y)
    for ranks in [(2, 2, 2), None]:
        reads.clear()
        fit_stefa(y, designs, ranks=ranks)
        # along the first and the last mode: the middle-mode product reads Y
        # in per-slab GEMMs, slower than either
        assert reads == [0, 2]


def _close(a, b, tol=1e-12):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.max(np.abs(a - b), initial=0.0) <= tol * max(
        np.max(np.abs(b), initial=0.0), 1.0)


@pytest.mark.parametrize("case", ["all_designs", "one_without_design",
                                  "identity_mode", "no_designs"])
def test_stages_take_the_tensor_or_its_sieve_statistics(case):
    dims = (20, 20, 10) if case == "identity_mode" else (24, 26, 28)
    inst, designs = inspan_instance(dims=dims, seed=24, alpha=0.5)
    y = inst.observed
    identity_modes = ()
    if case == "one_without_design":
        designs[1] = None
    elif case == "identity_mode":
        designs[2] = None
        identity_modes = (2,)
    elif case == "no_designs":
        designs = [None] * 3
    stats = compress(y, designs, identity_modes)
    kwargs = {"identity_modes": identity_modes}

    fits = [fit_stefa(t, designs, ranks=(2, 2, 2), **kwargs) for t in (y, stats)]
    assert fits[0].ranks == fits[1].ranks
    assert fits[0].iterations_used == fits[1].iterations_used
    assert _close(fits[0].core, fits[1].core)
    for m in range(3):
        for name in ("g_loadings", "a_loadings", "gamma"):
            assert _close(getattr(fits[0], name)[m], getattr(fits[1], name)[m])

    (f0, t0, c0), (f1, t1, c1) = [ipsvd_iterate(t, designs, (2, 2, 2), **kwargs)
                                  for t in (y, stats)]
    assert c0 == c1 and _close(t0, t1, 0.0)
    assert all(_close(a, b) for a, b in zip(f0, f1))

    # the core from the statistics equals Y contracted with the factors
    direct = multi_mode_product(y, [g.T for g in f0]) / y.size
    assert _close(estimate_core(stats, f0), direct)
    assert _close(estimate_core(y, f0), direct)

    core = estimate_core(stats, f0)
    out = [estimate_loadings(t, designs, core, f0, **kwargs) for t in (y, stats)]
    for part in range(2):
        assert all(_close(a, b) for a, b in zip(out[0][part], out[1][part]))

    if case == "all_designs":
        with pytest.raises(ValueError, match="not compressed with the design"):
            ipsvd_iterate(compress(y), designs, (2, 2, 2))


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


def reference_estimate_loadings(Y, designs, core, g_loadings, identity_modes=()):
    """Full loadings with one contraction of Y per mode."""
    scales = np.sqrt(np.asarray(Y.shape, dtype=float))
    units = [g / s for g, s in zip(g_loadings, scales)]
    a_loadings = []
    for m in range(Y.ndim):
        if m in identity_modes:
            a_loadings.append(np.eye(Y.shape[m]))
            continue
        gram = matricize(core, m) @ matricize(core, m).T
        mats = {j: units[j].T for j in range(Y.ndim) if j != m}
        numer = matricize(multi_mode_product(Y, mats), m) @ matricize(core, m).T
        a_m = numer @ np.linalg.pinv(gram, rcond=1e-12)
        a_loadings.append(a_m / np.sqrt(np.prod(Y.shape) / Y.shape[m]))
    return a_loadings


@pytest.mark.parametrize("identity", [False, True])
def test_estimate_loadings_matches_per_mode_reference(identity):
    inst, designs = inspan_instance(dims=(20, 24, 10), seed=22, alpha=0.5)
    identity_modes = ()
    if identity:
        designs[2] = None
        identity_modes = (2,)
    fit = fit_stefa(inst.observed, designs, ranks=(2, 2, 2),
                    identity_modes=identity_modes)
    # the inputs fit_stefa passes: the identity scale not yet folded into
    # the core, and sqrt(I) times the identity as the identity mode's loading
    core, g = fit.core, list(fit.g_loadings)
    for m in identity_modes:
        core = core / np.sqrt(inst.observed.shape[m])
        g[m] = np.sqrt(inst.observed.shape[m]) * g[m]
    a, _, _ = estimate_loadings(inst.observed, designs, core, g, identity_modes)
    ref = reference_estimate_loadings(inst.observed, designs, core, g,
                                      identity_modes)
    for m in range(3):
        assert np.allclose(a[m], ref[m], rtol=0.0, atol=1e-12)
        assert np.allclose(a[m], fit.a_loadings[m], rtol=0.0, atol=1e-12)


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


@pytest.mark.parametrize("ranks", [None, (3, 4, 1), (3, 3, 12)])
def test_identity_mode_counts_at_its_extent(ranks):
    # the identity mode's extent 12 exceeds the product of the other ranks;
    # its entry in ranks is ignored and it enters the others' products at 12
    inst = generate(SimConfig(dims=(60, 60, 12), rank=3, alpha=0.7, j_star=4,
                              seed=3))
    designs = [build_design(X, BasisSpec(degree=4)) for X in inst.covariates[:2]]
    fit = fit_stefa(inst.observed, designs + [None], ranks=ranks,
                    identity_modes=(2,))
    assert fit.ranks[2] == 12
    if ranks is not None:
        assert fit.ranks[:2] == ranks[:2]
    assert fit.core.shape == fit.ranks
    assert np.array_equal(fit.a_loadings[2], np.eye(12))


def test_every_mode_an_identity_mode_is_rejected():
    y = np.random.default_rng(0).standard_normal((4, 5, 6))
    for ranks in ((1, 1, 1), None):
        with pytest.raises(ValueError, match="every mode is an identity mode"):
            fit_stefa(y, None, ranks=ranks, identity_modes=(0, 1, 2))
    with pytest.raises(ValueError, match="every mode is an identity mode"):
        ipsvd_iterate(y, None, (1, 1, 1), identity_modes=(0, 1, 2))


# ---------------------------------------------------------------------------
# rank estimation

def test_estimate_ranks_noiseless():
    inst, designs = inspan_instance(seed=10)
    assert estimate_ranks(inst.signal, designs) == (2, 2, 2)


def test_estimate_ranks_kmax_cap_and_profile():
    inst, designs = inspan_instance(seed=11)
    assert estimate_ranks(inst.signal, designs, k_max=1) == (1, 1, 1)
    for bad in (0, -3, 2.5):
        with pytest.raises(ValueError, match="k_max must be None or an integer"):
            estimate_ranks(inst.signal, designs, k_max=bad)
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


def test_auto_ranks_are_valid_tucker_ranks():
    # the per-mode counts here are (2, 1, 1), which no Tucker core has
    inst = generate(SimConfig(dims=(100, 100, 100), rank=3, alpha=0.3,
                              j_star=4, seed=12))
    designs = [build_design(X, BasisSpec(degree=4)) for X in inst.covariates]
    ranks, profiles = estimate_ranks(inst.observed, designs, return_profile=True)
    assert [int(np.sum(p > 1.0)) for p in profiles] == [2, 1, 1]
    assert (_check_ranks(inst.observed.shape, [None] * 3, ranks, ())
            == ranks == (1, 1, 1))
    assert fit_stefa(inst.observed, designs).ranks == ranks


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
        timings = fit.diagnostics["timings"]
        assert set(timings) == {"compress", "ranks", "iterate", "core",
                                "calibrate", "loadings"}
        assert min(timings.values()) >= 0.0
        assert back.diagnostics["timings"] == timings
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

    a_path.write_text("\n".join(lines) + "\n")
    (out / "sieve_coeffs_mode2.csv").write_text("b1,b2\n0.5,0.25\n")
    with pytest.raises(ValueError, match=(rf"sieve_coeffs_mode2\.csv has shape "
                                          rf"\(1, 2\), not \({designs[1].n_basis}, 2\)")):
        load_fit(out)
