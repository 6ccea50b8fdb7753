import warnings

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from stefa.estimator import EstimationError, fit_stefa, hooi
from stefa.prediction import (KernelSpec, kernel_weights, predict_stefa,
                              predict_vanilla)
from stefa.sieve import BasisSpec, build_design
from stefa.simlab import SimConfig, generate


def fitted_instance(dims=(20, 20, 20), rank=2, degree=3, seed=0, alpha=1.0):
    cfg = SimConfig(dims=dims, rank=rank, alpha=alpha, j_star=degree, seed=seed)
    inst = generate(cfg)
    designs = [build_design(X, BasisSpec(degree=degree))
               for X in inst.covariates]
    fit = fit_stefa(inst.observed, designs, ranks=(rank,) * 3)
    return inst, designs, fit


# ---------------------------------------------------------------------------
# kernel weights

def test_weights_row_stochastic_and_nonnegative():
    rng = np.random.default_rng(0)
    Xt = rng.uniform(size=(30, 2))
    Xn = rng.uniform(size=(7, 2))
    for family in ("gaussian", "epanechnikov"):
        wm = kernel_weights(Xn, Xt, KernelSpec(family=family))
        assert wm.W.shape == (7, 30)
        assert np.all(wm.W >= 0)
        assert np.allclose(wm.W.sum(axis=1), 1.0, atol=1e-12)


def test_tiny_bandwidth_selects_nearest_row():
    rng = np.random.default_rng(1)
    Xt = rng.uniform(size=(25, 2))
    wm = kernel_weights(Xt, Xt, KernelSpec(bandwidth=1e-8))
    assert np.allclose(wm.W, np.eye(25), atol=1e-12)


def test_vanishing_bandwidth_is_the_nearest_row_without_fallback():
    rng = np.random.default_rng(6)
    Xt = rng.uniform(size=(25, 2))
    Xn = rng.uniform(size=(7, 2))
    nearest = np.eye(25)[np.argmin(cdist(Xn, Xt), axis=1)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for h in (1e-300, 5e-324):
            wm = kernel_weights(Xn, Xt, KernelSpec(bandwidth=h))
            assert wm.fallback_rows == []
            assert np.array_equal(wm.W, nearest)
            # no training row lies within h: every Epanechnikov row falls back
            wm = kernel_weights(Xn, Xt, KernelSpec(family="epanechnikov",
                                                   bandwidth=h))
            assert wm.fallback_rows == list(range(7))
            assert np.array_equal(wm.W, nearest)


def test_epanechnikov_weights_are_the_clipped_parabola():
    rng = np.random.default_rng(7)
    Xt = rng.uniform(size=(30, 2))
    Xn = rng.uniform(size=(9, 2))
    k = np.maximum(0.0, 1.0 - (cdist(Xn, Xt) / 0.3) ** 2)
    wm = kernel_weights(Xn, Xt, KernelSpec(family="epanechnikov",
                                           bandwidth=0.3))
    assert wm.fallback_rows == []
    assert np.array_equal(wm.W, k / k.sum(axis=1, keepdims=True))


def test_huge_bandwidth_approaches_uniform():
    rng = np.random.default_rng(2)
    Xt = rng.uniform(size=(15, 2))
    wm = kernel_weights(rng.uniform(size=(4, 2)), Xt,
                        KernelSpec(bandwidth=1e6))
    assert np.allclose(wm.W, 1.0 / 15, atol=1e-9)


def test_weights_permutation_equivariance():
    rng = np.random.default_rng(3)
    Xt = rng.uniform(size=(20, 2))
    Xn = rng.uniform(size=(5, 2))
    perm = rng.permutation(20)
    a = kernel_weights(Xn, Xt, KernelSpec(bandwidth=0.3)).W
    b = kernel_weights(Xn, Xt[perm], KernelSpec(bandwidth=0.3)).W
    assert np.allclose(a[:, perm], b, atol=1e-12)


def test_weights_scale_coupling():
    # scaling covariates and bandwidth together leaves the weights unchanged
    rng = np.random.default_rng(4)
    Xt = rng.uniform(size=(20, 2))
    Xn = rng.uniform(size=(6, 2))
    a = kernel_weights(Xn, Xt, KernelSpec(bandwidth=0.2)).W
    b = kernel_weights(10 * Xn, 10 * Xt, KernelSpec(bandwidth=2.0)).W
    assert np.allclose(a, b, atol=1e-12)


def test_auto_bandwidth_is_median_pairwise_distance():
    rng = np.random.default_rng(5)
    Xt = rng.uniform(size=(12, 2))
    wm = kernel_weights(Xt[:3], Xt)
    from scipy.spatial.distance import pdist
    assert wm.bandwidth == np.median(pdist(Xt))


def test_epanechnikov_fallback_rows():
    Xt = np.zeros((4, 1))
    Xt[:, 0] = [0.0, 0.1, 0.2, 0.3]
    far = np.array([[50.0]])
    wm = kernel_weights(far, Xt, KernelSpec(family="epanechnikov",
                                            bandwidth=0.5))
    assert wm.fallback_rows == [0]
    assert np.allclose(wm.W[0], [0, 0, 0, 1.0])


def test_weights_dimension_mismatch():
    with pytest.raises(ValueError):
        kernel_weights(np.zeros((2, 3)), np.zeros((5, 2)))


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec(family="tricube")
    with pytest.raises(ValueError):
        KernelSpec(bandwidth=-1.0)


# ---------------------------------------------------------------------------
# model-based prediction

def test_predict_at_training_rows_matches_fitted_slices():
    # at the training rows with a tiny bandwidth the predicted loading is the
    # full mode-0 loading, contracted with the projected loadings elsewhere
    inst, designs, fit = fitted_instance()
    from stefa.tensor import multi_mode_product
    X = inst.covariates[0]
    pred = predict_stefa(fit, designs, X, KernelSpec(bandwidth=1e-8))
    expect = multi_mode_product(fit.core, [fit.a_loadings[0],
                                           fit.g_loadings[1],
                                           fit.g_loadings[2]])
    assert np.allclose(pred, expect, atol=1e-8)


def test_predict_shapes_and_single_row():
    inst, designs, fit = fitted_instance(seed=1)
    Xn = np.random.default_rng(10).uniform(size=(5, 2))
    pred = predict_stefa(fit, designs, Xn)
    assert pred.shape == (5, 20, 20)
    one = predict_stefa(fit, designs, Xn[:1])
    assert np.allclose(one[0], pred[0], atol=1e-10)


def test_predict_requires_covariate_mode():
    rng = np.random.default_rng(11)
    y = rng.standard_normal((10, 10, 10))
    fit = fit_stefa(y, None, ranks=(2, 2, 2))
    with pytest.raises(EstimationError, match="requires covariate mode"):
        predict_stefa(fit, None, np.zeros((1, 2)))


def test_predict_covariate_dimension_mismatch():
    inst, designs, fit = fitted_instance(seed=2)
    with pytest.raises(ValueError, match="covariate dimension mismatch"):
        predict_stefa(fit, designs, np.zeros((3, 5)))


def test_predict_vanilla_checks_mode_before_reconstructing(monkeypatch):
    inst, _, _ = fitted_instance(seed=3)
    href = hooi(inst.observed, (2, 2, 2))

    def no_reconstruct():
        raise AssertionError("reconstruct called")

    monkeypatch.setattr(href, "reconstruct", no_reconstruct)
    for mode in (3, -1):
        with pytest.raises(ValueError,
                           match=rf"mode {mode} out of range for order-3 fit"):
            predict_vanilla(href, inst.covariates[0], inst.covariates[0][:2],
                            mode=mode)


def test_non_finite_new_rows_raise_before_any_weight():
    # a NaN row has no nearest training row; it must not copy the first one
    inst, designs, fit = fitted_instance(seed=4)
    href = hooi(inst.observed, (2, 2, 2))
    X_new = np.array([[0.2, np.nan], [0.5, 0.5]])
    predictors = (lambda: kernel_weights(X_new, inst.covariates[0]),
                  lambda: predict_stefa(fit, designs, X_new),
                  lambda: predict_vanilla(href, inst.covariates[0], X_new))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for predict in predictors:
            with pytest.raises(ValueError, match="non-finite"):
                predict()


def test_new_rows_outside_the_basis_domain_are_extrapolated():
    # build_design checks the training covariates against the basis domain;
    # new rows are not checked, so prediction may extrapolate
    inst, designs, fit = fitted_instance(seed=5)
    X_new = np.array([[1.5, -0.5], [2.0, 1.0]])
    for family in ("gaussian", "epanechnikov"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)   # fallback rows
            pred = predict_stefa(fit, designs, X_new, KernelSpec(family=family))
        assert pred.shape == (2, 20, 20) and np.all(np.isfinite(pred))


def test_vanilla_predictions_are_convex_combinations():
    inst, _, _ = fitted_instance(seed=3)
    href = hooi(inst.observed, (2, 2, 2))
    recon = href.reconstruct()
    Xn = np.random.default_rng(12).uniform(size=(4, 2))
    pred = predict_vanilla(href, inst.covariates[0], Xn)
    assert pred.shape == (4, 20, 20)
    lo = recon.min(axis=0, keepdims=True)
    hi = recon.max(axis=0, keepdims=True)
    assert np.all(pred >= lo - 1e-10)
    assert np.all(pred <= hi + 1e-10)


def test_predictors_warn_when_rows_fall_back():
    inst, designs, fit = fitted_instance(seed=6)
    href = hooi(inst.observed, (2, 2, 2))
    Xn = np.random.default_rng(13).uniform(size=(3, 2))
    spec = KernelSpec(family="epanechnikov", bandwidth=1e-300)
    nearest = np.argmin(cdist(Xn, inst.covariates[0]), axis=1)
    with pytest.warns(RuntimeWarning, match="3 of 3 new rows have no "
                                            "training row within"):
        pred = predict_vanilla(href, inst.covariates[0], Xn, spec)
    assert np.array_equal(pred, href.reconstruct()[nearest])
    with pytest.warns(RuntimeWarning, match="3 of 3 new rows"):
        predict_stefa(fit, designs, Xn, spec)
    # a vanishing Gaussian bandwidth is the nearest-row limit, not a fallback
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pred = predict_vanilla(href, inst.covariates[0], Xn,
                               KernelSpec(bandwidth=1e-300))
    assert np.array_equal(pred, href.reconstruct()[nearest])


def test_vanilla_row_count_mismatch():
    inst, _, _ = fitted_instance(seed=4)
    href = hooi(inst.observed, (2, 2, 2))
    with pytest.raises(ValueError):
        predict_vanilla(href, inst.covariates[0][:10], np.zeros((1, 2)))


def test_model_predictor_beats_smoothing_on_heldout_slices():
    # with a strong covariate signal, extrapolating the loading functions
    # should beat convex combinations of training slices
    cfg = SimConfig(dims=(40, 20, 20), rank=2, alpha=1.0, j_star=3, seed=5)
    inst = generate(cfg)
    train = np.arange(0, 40, 2)
    test = np.arange(1, 40, 2)
    y_train = inst.observed[train]
    X_train = inst.covariates[0][train]
    X_test = inst.covariates[0][test]
    designs = [build_design(X_train, BasisSpec(degree=3)),
               build_design(inst.covariates[1], BasisSpec(degree=3)),
               build_design(inst.covariates[2], BasisSpec(degree=3))]
    fit = fit_stefa(y_train, designs, ranks=(2, 2, 2))
    href = hooi(y_train, (2, 2, 2))
    truth = inst.signal[test]
    err_model = np.linalg.norm(predict_stefa(fit, designs, X_test) - truth)
    err_vanilla = np.linalg.norm(predict_vanilla(href, X_train, X_test) - truth)
    assert err_model < err_vanilla
