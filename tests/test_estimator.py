import json
import warnings

import numpy as np
import pytest

from stefa.estimator import (DegenerateCoreError, EstimationError,
                             RankExceedsSpanError,
                             _check_ranks, calibrate, compress,
                             estimate_loadings, estimate_ranks, fit_stefa, hooi,
                             ipsvd_iterate, load_fit, save_fit,
                             subspace_distance)
from stefa.sieve import BasisSpec, build_design, projector_apply
from stefa.simlab import SimConfig, generate
from stefa.tensor import (matricize, mode_product, multi_mode_product,
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


@pytest.mark.parametrize("fit", [
    hooi, lambda y, ranks, **controls: ipsvd_iterate(compress(y), ranks,
                                                      **controls)],
    ids=["hooi", "ipsvd_iterate"])
@pytest.mark.parametrize("key, value", [
    ("max_iter", 0), ("max_iter", -3), ("max_iter", 2.5), ("max_iter", True),
    ("tol", np.nan), ("tol", -1.0), ("tol", np.inf)])
def test_iterations_reject_bad_controls(fit, key, value):
    y = np.random.default_rng(3).standard_normal((4, 4, 4))
    with pytest.raises(ValueError, match=key):
        fit(y, (2, 2, 2), **{key: value})


def test_tucker_ranks_are_checked_by_hooi_and_fit_stefa():
    y = np.random.default_rng(16).standard_normal((5, 5, 5))
    for fit in (lambda r: hooi(y, r), lambda r: fit_stefa(y, None, ranks=r)):
        assert fit((1, 3, 3)).ranks == (1, 3, 3)
        assert fit((np.int64(2), np.int32(2), 2)).ranks == (2, 2, 2)
        for ranks, message in [
                # modes are named from 1
                ((1, 2, 3), r"rank 3 for mode 3 exceeds product of the other "
                            r"ranks \(2\)"),
                ((0, 3, 3), r"rank 0 for mode 1 not in \[1, 5\]"),
                ((6, 3, 3), r"rank 6 for mode 1 not in \[1, 5\]"),
                # every range is checked before any product of ranks
                ((2, 10 ** 30, 2), rf"rank {10 ** 30} for mode 2 not in \[1, 5\]"),
                ((2, 2 ** 62, 2 ** 62), r"rank \d+ for mode 2 not in"),
                ((3, 3), "2 ranks given for order-3 tensor"),
                # a rank must be an integer, not a value int() would accept
                ((2.7, 2, 2), r"rank 2\.7 for mode 1 is not an integer"),
                ((2, "2", 2), r"rank '2' for mode 2 is not an integer"),
                ((2, 2, np.float64(2.0)), r"for mode 3 is not an integer"),
                ((True, 1, 1), r"rank True for mode 1 is not an integer")]:
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


@pytest.mark.parametrize("case", ["noise", "draw", "four_way"])
def test_hooi_is_ipsvd_iterate_without_designs_then_calibrate(case):
    # HOOI is IP-SVD on the statistics of a tensor without designs: the same
    # arithmetic, so the same bits
    if case == "noise":
        ranks = (2, 3, 2)
        y = np.random.default_rng(1).standard_normal((12, 13, 14))
    elif case == "draw":
        ranks = (3, 3, 3)
        y = generate(SimConfig(dims=(60, 70, 80), alpha=0.9, seed=26)).observed
    else:
        ranks = (2, 2, 3, 2)
        y = low_rank_plus_noise((6, 7, 8, 9), ranks, 0.1, seed=31)
    fit = hooi(y, ranks)
    factors, trace, converged, core = ipsvd_iterate(compress(y), ranks)
    core, factors, _ = calibrate(core, factors)
    assert np.array_equal(fit.core, core)
    assert all(np.array_equal(a, b) for a, b in zip(fit.loadings, factors))
    assert np.array_equal(fit.subspace_change_trace, trace)
    assert fit.converged == converged


def _count_tensor_reads(monkeypatch, y):
    """Patch the mode products seen by the estimator and the tensor module,
    and ``np.vdot``; return the list that records each pass over a tensor
    with the shape of ``y``: the mode of a mode product, ``"vdot"`` for a
    dot product such as ``||Y||^2``."""
    import stefa.estimator
    import stefa.tensor
    reads = []
    mode_product = stefa.tensor.mode_product
    vdot = np.vdot

    def counting(t, mat, mode):
        if np.shape(t) == y.shape:
            reads.append(mode)
        return mode_product(t, mat, mode)

    def counting_vdot(a, b):
        if np.shape(a) == y.shape:
            reads.append("vdot")
        return vdot(a, b)

    for module in (stefa.tensor, stefa.estimator):
        monkeypatch.setattr(module, "mode_product", counting)
    monkeypatch.setattr(np, "vdot", counting_vdot)
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
        # plus the pass of ||Y||^2 in compress's finiteness check
        assert reads[0] == "vdot" and len(reads) == 1 + -(-n * k // shared)


def test_single_active_mode_iterates_on_the_tensor_itself(monkeypatch):
    # one covariate mode: its leave-one-out compression is Y itself (no mode
    # product), so Y is read only by ||Y||^2 and the product that forms Z
    rng = np.random.default_rng(33)
    y = rng.standard_normal((10, 11, 12))
    design = build_design(rng.uniform(size=(10, 1)), BasisSpec(degree=3))
    reads = _count_tensor_reads(monkeypatch, y)
    stats = compress(y, [design, None, None])
    assert stats.leave_one_out[0] is y and reads == ["vdot", 0]
    assert np.allclose(stats.compressed, mode_product(y, design.basis.T, 0),
                       rtol=0.0, atol=1e-12)


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
    assert flags == [f"identification unstable (mode {m} eigenvalue gap)"
                     for m in (1, 2, 3)]


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
    with pytest.raises(RankExceedsSpanError, match=r"\(mode 1: rank 4 > span 3\)"):
        ipsvd_iterate(compress(inst.observed, designs), (4, 2, 2))


def test_degenerate_core_error_on_overspecified_rank():
    inst, designs = inspan_instance()       # true rank 2
    with pytest.raises(DegenerateCoreError):
        fit_stefa(inst.signal, designs, ranks=(3, 3, 3))


def test_degenerate_core_error_on_zero_tensor():
    # the zero core's Gram has trace 0, so its smallest eigenvalue is not
    # above 1e-12 times the trace either
    with pytest.raises(DegenerateCoreError):
        fit_stefa(np.zeros((5, 5, 5)), ranks=(1, 1, 1))


def test_iterate_trace_and_convergence():
    inst, designs = inspan_instance(seed=7)
    factors, trace, converged, _ = ipsvd_iterate(
        compress(inst.signal, designs), (2, 2, 2))
    assert converged
    assert trace[-1] < 1e-8


def reference_ipsvd_iterate(Y, designs, ranks, max_iter=50, tol=1e-8):
    """IP-SVD in the full space: the start of mode m is the top left singular
    vectors of Y projected onto every mode's sieve span (P_j = B_j B_j^T, the
    identity without a design), and every update contracts Y with the other
    modes' factors and projects onto the mode's sieve span."""
    modes = range(Y.ndim)
    projected = multi_mode_product(Y, {j: d.basis @ d.basis.T
                                       for j, d in enumerate(designs)
                                       if d is not None})
    units = [top_left_singular_vectors(matricize(projected, m), ranks[m])
             for m in modes]
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


@pytest.mark.parametrize("case", ["all_designs", "one_without_design"])
def test_compressed_iteration_matches_full_space_reference(case):
    dims = (30, 30, 30)
    inst, designs = inspan_instance(dims=dims, seed=20, alpha=0.5)
    y = inst.observed
    if case == "one_without_design":
        designs[1] = None

    factors, trace, converged, _ = ipsvd_iterate(compress(y, designs),
                                                 (2, 2, 2))
    ref, ref_trace = reference_ipsvd_iterate(y, designs, (2, 2, 2))
    assert len(trace) == len(ref_trace) > 2
    assert converged
    assert np.allclose(trace, ref_trace, rtol=0.0, atol=1e-10)
    for m in range(3):
        assert factors[m].shape == (dims[m], 2)
        assert subspace_distance(factors[m], ref[m]) <= 1e-10
        assert np.allclose(factors[m].T @ factors[m] / dims[m],
                           np.eye(2), atol=1e-10)


def test_fixed_rank_fit_compresses_the_tensor_once(monkeypatch):
    # every pass of a fit over a Y-sized tensor, a mode product direct or
    # inside a chain or a dot product: only the three passes of compress,
    # with or without automatic ranks, and none for ranks it rejects
    inst, designs = inspan_instance(dims=(20, 22, 24), seed=23, alpha=0.5)
    y = inst.observed
    reads = _count_tensor_reads(monkeypatch, y)
    for run in [lambda: fit_stefa(y, designs, ranks=(2, 2, 2)),
                lambda: fit_stefa(y, designs),
                lambda: estimate_ranks(y, designs)]:
        reads.clear()
        run()
        # ||Y||^2, then along the first and the last mode: the middle-mode
        # product reads Y in per-slab GEMMs, slower than either
        assert reads == ["vdot", 0, 2]
    reads.clear()
    with pytest.raises(ValueError, match=r"rank 30 for mode 1 not in \[1, 20\]"):
        fit_stefa(y, designs, ranks=(30, 2, 2))
    assert reads == []


@pytest.mark.parametrize("dims, degree, ranks, error, message", [
    ((20, 22, 24), 3, (30, 2, 2), ValueError,
     r"rank 30 for mode 1 not in \[1, 20\]"),
    ((12, 12, 12), 1, (4, 2, 2), RankExceedsSpanError,
     r"\(mode 1: rank 4 > span 3\)")], ids=["extent", "span"])
def test_fit_rejects_given_ranks_before_compressing(monkeypatch, dims, degree,
                                                    ranks, error, message):
    import stefa.estimator
    inst, designs = inspan_instance(dims=dims, degree=degree, seed=23)

    def no_compress(*args, **kwargs):
        raise AssertionError("compress called")

    monkeypatch.setattr(stefa.estimator, "compress", no_compress)
    with pytest.raises(error, match=message):
        fit_stefa(inst.observed, designs, ranks=ranks)


def _close(a, b, tol=1e-12):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.max(np.abs(a - b), initial=0.0) <= tol * max(
        np.max(np.abs(b), initial=0.0), 1.0)


@pytest.mark.parametrize("case", ["all_designs", "one_without_design",
                                  "no_designs"])
def test_stages_take_the_tensor_or_its_sieve_statistics(case):
    inst, designs = inspan_instance(dims=(24, 26, 28), seed=24, alpha=0.5)
    y = inst.observed
    if case == "one_without_design":
        designs[1] = None
    elif case == "no_designs":
        designs = [None] * 3

    # the calibrated core is Y contracted with the calibrated G loadings
    fit = fit_stefa(y, designs, ranks=(2, 2, 2))
    direct = multi_mode_product(y, [g.T for g in fit.g_loadings]) / y.size
    assert _close(fit.core, direct)

    # the core the loop forms equals Y contracted with the factors
    factors, _, _, core = ipsvd_iterate(compress(y, designs), (2, 2, 2))
    direct = multi_mode_product(y, [g.T for g in factors]) / y.size
    assert _close(core, direct)


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


def reference_estimate_loadings(Y, designs, core, g_loadings):
    """Full loadings with one contraction of Y per mode."""
    scales = np.sqrt(np.asarray(Y.shape, dtype=float))
    units = [g / s for g, s in zip(g_loadings, scales)]
    a_loadings = []
    for m in range(Y.ndim):
        gram = matricize(core, m) @ matricize(core, m).T
        mats = {j: units[j].T for j in range(Y.ndim) if j != m}
        numer = matricize(multi_mode_product(Y, mats), m) @ matricize(core, m).T
        a_m = numer @ np.linalg.pinv(gram, rcond=1e-12)
        a_loadings.append(a_m / np.sqrt(np.prod(Y.shape) / Y.shape[m]))
    return a_loadings


def test_estimate_loadings_matches_per_mode_reference():
    inst, designs = inspan_instance(dims=(20, 24, 10), seed=22, alpha=0.5)
    fit = fit_stefa(inst.observed, designs, ranks=(2, 2, 2))
    core, g = fit.core, fit.g_loadings
    a, _, _ = estimate_loadings(compress(inst.observed, designs), core, g)
    ref = reference_estimate_loadings(inst.observed, designs, core, g)
    for m in range(3):
        assert np.allclose(a[m], ref[m], rtol=0.0, atol=1e-12)
        assert np.allclose(a[m], fit.a_loadings[m], rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# rank estimation

def test_estimate_ranks_noiseless():
    inst, designs = inspan_instance(seed=10)
    assert estimate_ranks(inst.signal, designs) == (2, 2, 2)


def test_estimate_ranks_kmax_cap_and_profile():
    inst, designs = inspan_instance(seed=11)
    assert estimate_ranks(inst.signal, designs, k_max=1) == (1, 1, 1)
    for bad in (0, -3, 2.5, True):
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
    assert (_check_ranks(inst.observed.shape, [None] * 3, ranks)
            == ranks == (1, 1, 1))
    assert fit_stefa(inst.observed, designs).ranks == ranks


def test_estimate_ranks_auto_cap_without_designs():
    rng = np.random.default_rng(12)
    y = rng.standard_normal((10, 10, 10))
    _, profiles = estimate_ranks(y, None, return_profile=True)
    assert all(len(p) == 5 for p in profiles)    # round(min(10, 100)/2)


def test_estimate_ranks_without_designs_finds_the_rank():
    # alpha=0.9 lies above the detection threshold of the 100 x 10^4
    # unfolding (alpha > 3/4); sigma2 comes from each mode's median eigenvalue
    hits = 0
    for rep in range(20):
        ss = np.random.SeedSequence(0, spawn_key=(2000, rep))
        inst = generate(SimConfig(dims=(100, 100, 100), rank=3, alpha=0.9,
                                  j_star=4, seed=ss))
        hits += estimate_ranks(inst.observed) == (3, 3, 3)
    assert hits >= 18


@pytest.mark.parametrize("shape", [(100, 100, 100), (50, 50, 50),
                                   (30, 30, 30), (10, 10, 10), (60, 40, 20)])
def test_estimate_ranks_pure_noise_without_designs_selects_one(shape):
    y = np.random.default_rng(0).standard_normal(shape)
    assert estimate_ranks(y) == (1, 1, 1)


def test_estimate_ranks_pure_noise_matrix_selects_one():
    # (sqrt(n) + sqrt(p))^2 is the asymptotic edge; a 20 x 15 noise matrix
    # crosses it on a few draws (4 of 100 seeds here), so this asks for a rate
    ones = sum(estimate_ranks(np.random.default_rng(s).standard_normal((20, 15)))
               == (1, 1) for s in range(40))
    assert ones >= 36


def test_estimate_ranks_without_designs_keeps_noiseless_rank():
    inst, _ = inspan_instance(dims=(40, 40, 40), seed=10)
    assert estimate_ranks(inst.signal) == (2, 2, 2)


def test_estimate_ranks_underflowing_gram():
    # the Gram of a 1e-300-scaled tensor is zero; the 1e-300 edge floor keeps
    # the profile finite
    y = np.random.default_rng(0).standard_normal((5, 5, 5)) * 1e-300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ranks, profiles = estimate_ranks(y, return_profile=True)
    assert ranks == (1, 1, 1)
    assert all(np.array_equal(p, np.zeros(len(p))) for p in profiles)


def test_estimate_ranks_takes_designs_only_with_a_tensor():
    # statistics carry the designs they were compressed with
    inst, designs = inspan_instance(seed=12)
    stats = compress(inst.observed, designs)
    assert estimate_ranks(stats) == estimate_ranks(inst.observed, designs)
    with pytest.raises(ValueError, match="carry their designs"):
        estimate_ranks(stats, designs)


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
        assert set(timings) == {"compress", "ranks", "iterate", "calibrate",
                                "loadings"}
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


def test_load_fit_reads_matrix_files_in_the_savetxt_layout(tmp_path):
    # fit directories were once written by np.savetxt with "%.18e" values
    inst, designs = inspan_instance(seed=14)
    fit = fit_stefa(inst.observed, designs, ranks=(2, 2, 2))
    out = tmp_path / "fitdir"
    save_fit(fit, designs, out)
    files = {"g_loadings": "g", "a_loadings": "a", "gamma": "gamma",
             "sieve_coeffs": "b"}
    for name, prefix in files.items():
        for m, mat in enumerate(getattr(fit, name)):
            header = ",".join(f"{prefix}{j + 1}" for j in range(mat.shape[1]))
            np.savetxt(out / f"{name}_mode{m + 1}.csv", mat, delimiter=",",
                       header=header, comments="")
    back, _ = load_fit(out)
    for name in files:
        for mat, mat_back in zip(getattr(fit, name), getattr(back, name)):
            assert np.array_equal(mat_back, mat)


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
    g_path = out / "g_loadings_mode1.csv"
    rows = g_path.read_text().split("\n", 1)[1]
    for header in (" g1,g2", "g1 ,g2", '"g1",g2', "g1,g2\u3000"):
        g_path.write_text(header + "\n" + rows)
        with pytest.raises(ValueError, match="g_loadings_mode1.csv: the header"):
            load_fit(out)

    g_path.write_text("g1,g2\n" + rows)
    (out / "sieve_coeffs_mode2.csv").write_text("b1,b2\n0.5,0.25\n")
    with pytest.raises(ValueError, match=(rf"sieve_coeffs_mode2\.csv has shape "
                                          rf"\(1, 2\), not \({designs[1].n_basis}, 2\)")):
        load_fit(out)
