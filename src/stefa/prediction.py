"""Out-of-sample prediction for new covariate rows.

The model-based predictor extrapolates the covariate-explained part of a
loading through its sieve coefficients and kernel-smooths the remainder
(sieve residual plus covariate-orthogonal part) from the training rows.
The baseline predictor kernel-smooths whole reconstructed slices.  Both
warn (``RuntimeWarning``) when new rows have no training row within the
bandwidth and so copy their nearest training row.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .estimator import EstimationError, StefaFit
from .sieve import eval_basis
from .tensor import mode_product, multi_mode_product

__all__ = [
    "KernelSpec",
    "WeightMatrix",
    "kernel_weights",
    "predict_stefa",
    "predict_vanilla",
]

_FAMILIES = ("gaussian", "epanechnikov")


@dataclass(frozen=True)
class KernelSpec:
    family: str = "gaussian"
    bandwidth: float | str = "auto"    # "auto" = median pairwise training distance

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        if self.bandwidth != "auto":
            h = float(self.bandwidth)
            if not np.isfinite(h) or h <= 0:
                raise ValueError("bandwidth must be positive and finite")


@dataclass
class WeightMatrix:
    W: np.ndarray                       # n_new x n_train, rows sum to 1
    bandwidth: float
    fallback_rows: list = field(default_factory=list)


def _resolve_bandwidth(X_train: np.ndarray, spec: KernelSpec) -> float:
    if spec.bandwidth != "auto":
        return float(spec.bandwidth)
    if X_train.shape[0] < 2:
        return 1.0
    from scipy.spatial.distance import pdist
    # the upper triangle of the distance matrix, row by row
    h = float(np.median(pdist(X_train)))
    return h if h > 0 else 1.0


def kernel_weights(X_new: np.ndarray, X_train: np.ndarray,
                   spec: KernelSpec = KernelSpec()) -> WeightMatrix:
    """Row-stochastic kernel weights between new and training covariate rows.

    The Gaussian kernel gives the nearest training row the value 1, so its
    rows are never empty, and a bandwidth tending to 0 tends to the point
    mass on the nearest row.  Epanechnikov rows with no training row within
    the bandwidth fall back to a point mass on the nearest training row;
    rows that fall back are listed in ``fallback_rows``.  Covariates of
    another width, or non-finite ones, raise ``ValueError``.
    """
    X_new = np.atleast_2d(np.asarray(X_new, dtype=float))
    X_train = np.atleast_2d(np.asarray(X_train, dtype=float))
    if X_new.shape[1] != X_train.shape[1]:
        raise ValueError(f"covariate dimension mismatch: {X_new.shape[1]} vs "
                         f"{X_train.shape[1]}")
    if not (np.all(np.isfinite(X_new)) and np.all(np.isfinite(X_train))):
        raise ValueError("covariates contain non-finite entries")
    # scipy is imported on first use, so fits and simulations never load it
    from scipy.spatial.distance import cdist
    h = _resolve_bandwidth(X_train, spec)
    d = cdist(X_new, X_train)
    if spec.family == "gaussian":
        # the exponent (d^2 - min d^2) / (2h^2) is 0 at the nearest row, so
        # the h -> 0 limit is the point mass there (h divides twice because
        # h^2 may underflow; at a tiny h the other exponents overflow to inf,
        # kernel value 0)
        d2 = d * d
        with np.errstate(over="ignore"):
            k = np.exp(-((d2 - d2.min(axis=1, keepdims=True)) / (2.0 * h) / h))
    else:
        # min(d, h) / h is d / h within the bandwidth and 1 beyond it, so it
        # cannot overflow
        u = np.minimum(d, h) / h
        k = 1.0 - u * u
    sums = k.sum(axis=1)
    fallback = []
    W = np.zeros_like(k)
    for i in range(k.shape[0]):
        if sums[i] > 0 and np.isfinite(sums[i]):
            W[i] = k[i] / sums[i]
        else:
            W[i, int(np.argmin(d[i]))] = 1.0
            fallback.append(i)
    return WeightMatrix(W=W, bandwidth=h, fallback_rows=fallback)


def _smoothing_weights(X_new, X_train, spec: KernelSpec) -> np.ndarray:
    """``kernel_weights(X_new, X_train, spec).W``, with a ``RuntimeWarning``
    when rows fall back to their nearest training row."""
    wm = kernel_weights(X_new, X_train, spec)
    if wm.fallback_rows:
        warnings.warn(f"{len(wm.fallback_rows)} of {wm.W.shape[0]} new rows "
                      f"have no training row within bandwidth {wm.bandwidth:g}"
                      "; each copies its nearest training row",
                      RuntimeWarning, stacklevel=3)
    return wm.W


def _check_mode(fit, mode: int) -> None:
    if not 0 <= mode < fit.core.ndim:      # a StefaFit or a HooiFit
        raise ValueError(f"mode {mode} out of range for order-{fit.core.ndim} fit")


def predict_stefa(fit: StefaFit, designs, X_new: np.ndarray,
                  spec: KernelSpec = KernelSpec(), mode: int = 0) -> np.ndarray:
    """Predict tensor slices along ``mode`` for unseen covariate rows.

    The sieve part evaluates the fitted loading functions at the new rows;
    the remainder (full loading minus its sieve fit) is kernel-smoothed from
    the training rows.  Requires the fit to have covariates on ``mode``.
    """
    _check_mode(fit, mode)
    d = designs[mode] if designs is not None else None
    if d is None or fit.sieve_coeffs[mode] is None:
        raise EstimationError("STEFA prediction requires covariate mode")
    # kernel_weights checks X_new before the basis is evaluated at it
    W = _smoothing_weights(X_new, d.covariates, spec)

    # the other modes use the projected loadings: the regression-based full
    # loadings carry an unprojected noise component that inflates prediction
    # variance without adding signal along those modes
    base = multi_mode_product(fit.core, {m: fit.g_loadings[m]
                                         for m in range(fit.order) if m != mode})

    b = fit.sieve_coeffs[mode]
    sieve_new = eval_basis(X_new, d.spec) @ b
    resid_train = fit.a_loadings[mode] - d.phi @ b
    loading_new = sieve_new + W @ resid_train
    return mode_product(base, loading_new, mode)


def predict_vanilla(hooi_fit, X_train: np.ndarray, X_new: np.ndarray,
                    spec: KernelSpec = KernelSpec(), mode: int = 0) -> np.ndarray:
    """Kernel-smoothing baseline: convex combinations of reconstructed slices."""
    _check_mode(hooi_fit, mode)
    s = hooi_fit.reconstruct()
    X_train = np.atleast_2d(np.asarray(X_train, dtype=float))
    if X_train.shape[0] != s.shape[mode]:
        raise ValueError(f"covariate rows {X_train.shape[0]} do not match "
                         f"mode-{mode} extent {s.shape[mode]}")
    W = _smoothing_weights(X_new, X_train, spec)
    return mode_product(s, W, mode)
