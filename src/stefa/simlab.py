"""Synthetic data generator, loss metrics, and Monte-Carlo experiment harness.

The generator draws a Tucker-structured signal whose loadings depend on
uniform covariates through additive (or multiplicative) Legendre expansions,
plus an optional covariate-orthogonal loading part and unit-variance
Gaussian noise.  The noise is added to the signal's own buffer in mode-0
row blocks, so a draw holds one tensor of the observation's size; the
signal is formed again only when :attr:`SimInstance.signal` is read.  The
harness runs named experiment grids over replications with counter-derived
seeds and writes plot-ready CSV summaries.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import __version__
from .estimator import (estimate_ranks, fit_stefa, hooi, subspace_distance)
from .sieve import BasisSpec, build_design, eval_basis, projector_apply
from .tensor import matricize, multi_mode_product, top_left_singular_vectors

__all__ = [
    "SimConfig",
    "SimInstance",
    "generate",
    "loss_subspace",
    "loss_function",
    "loss_function_best_linear",
    "loss_remse",
    "run_experiment",
    "noise_amplify_refit",
    "PROTOCOLS",
]

_SCHEMES = ("additive", "multiplicative")


@dataclass(frozen=True)
class SimConfig:
    """Generator parameters.

    ``alpha`` sets the signal strength: the core is scaled so its smallest
    mode-wise singular value equals ``min(dims) ** alpha``.  ``j_star`` is
    the true Legendre order per covariate and ``kappa`` the geometric decay
    of the higher-order coefficients.  ``tau_gamma`` is the column norm of
    the covariate-orthogonal loading part before the final orthonormalization.
    """

    dims: tuple = (100, 100, 100)
    rank: int = 3
    n_covariates: int = 2
    alpha: float = 0.5
    j_star: int = 4
    kappa: float = 0.5
    tau_gamma: float = 0.0
    scheme: str = "additive"
    seed: object = 0

    def __post_init__(self):
        if any(int(d) < 1 for d in self.dims):
            raise ValueError("all extents must be positive")
        if self.rank < 1 or self.n_covariates < 1 or self.j_star < 1:
            raise ValueError("rank, n_covariates and j_star must be positive")
        if not 0.0 < self.kappa < 1.0:
            raise ValueError("kappa must lie in (0, 1)")
        if self.alpha < 0.0:
            raise ValueError("alpha must be >= 0")
        if self.tau_gamma < 0.0:
            raise ValueError("tau_gamma must be >= 0")
        if self.scheme not in _SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")


@dataclass
class SimInstance:
    """One synthetic draw: observation and all ground-truth parts.

    The signal is not stored: :attr:`signal` forms it from the core and the
    loadings on first access and keeps it, so an instance whose signal is
    never read holds one tensor of the observation's size.
    """

    config: SimConfig
    observed: np.ndarray              # Y = signal + noise
    core: np.ndarray
    a_loadings: list                  # orthonormal columns
    g_loadings: list                  # covariate-driven part, orthonormal columns
    gamma: list                       # orthogonal part, column norm tau (pre-QR)
    covariates: list                  # I_m x D uniforms
    loading_functions: list           # callables X (n x D) -> n x R

    @cached_property
    def signal(self) -> np.ndarray:
        """The core contracted with the loadings, bit-identical to the
        signal inside :attr:`observed`."""
        return multi_mode_product(self.core, self.a_loadings)


def _multiplicative_raw(X, xi, kappa):
    """Product-form loading functions; xi has shape (D, J*+1, R)."""
    n = X.shape[0]
    out = np.ones((n, xi.shape[2]))
    decay = kappa ** np.arange(xi.shape[1] - 1)
    for d in range(xi.shape[0]):
        spec = BasisSpec(degree=xi.shape[1] - 1)
        block = eval_basis(X[:, d][:, None], spec)   # 1, P_1..P_J
        coeffs = np.vstack([xi[d, :1], xi[d, 1:] * decay[:, None]])
        out *= block @ coeffs
    return out


def _additive_coeffs(xi0, xi, kappa):
    """Stack intercept and decayed per-covariate coefficients into one table."""
    decay = kappa ** np.arange(xi.shape[1])
    scaled = xi * decay[None, :, None]
    return np.vstack([xi0[None, :], scaled.reshape(-1, xi.shape[2])])


def generate(config: SimConfig) -> SimInstance:
    """Draw one synthetic instance; bit-identical for identical configs.

    Draw order: core, then per mode (covariates, basis coefficients, and the
    orthogonal-part directions when tau > 0), then the noise tensor, drawn
    in consecutive mode-0 row blocks that continue one stream.
    """
    dims = tuple(int(d) for d in config.dims)
    R, D, J = config.rank, config.n_covariates, config.j_star
    true_spec = BasisSpec(degree=J)
    for m, I in enumerate(dims):
        if true_spec.n_basis(D) > I:
            raise ValueError(f"true basis count {true_spec.n_basis(D)} exceeds "
                             f"mode-{m} extent {I}")
        if R > I:
            raise ValueError(f"rank {R} exceeds mode-{m} extent {I}")

    rng = np.random.default_rng(config.seed)

    # core: orthogonally calibrated small random tensor, scalar-scaled so the
    # smallest mode-wise singular value equals I_min ** alpha
    raw_core = rng.standard_normal((R,) * len(dims))
    us = [top_left_singular_vectors(matricize(raw_core, m), R)
          for m in range(raw_core.ndim)]
    core = multi_mode_product(raw_core, {m: u.T for m, u in enumerate(us)})
    lam_min = min(np.linalg.svd(matricize(core, m), compute_uv=False)[-1]
                  for m in range(core.ndim))
    if lam_min < 1e-12:
        raise ValueError("degenerate random core draw")
    core = core * (min(dims) ** config.alpha / lam_min)

    a_list, g_list, gamma_list, x_list, fun_list = [], [], [], [], []
    for m, I in enumerate(dims):
        X = rng.uniform(size=(I, D))
        if config.scheme == "additive":
            xi0 = rng.standard_normal(R)
            xi = rng.standard_normal((D, J, R))
            coeffs = _additive_coeffs(xi0, xi, config.kappa)
            g_raw = eval_basis(X, true_spec) @ coeffs
        else:
            xi = rng.standard_normal((D, J + 1, R))
            g_raw = _multiplicative_raw(X, xi, config.kappa)

        q, r_up = np.linalg.qr(g_raw)
        diag = np.diag(r_up)
        if np.min(np.abs(diag)) < 1e-10 * max(np.max(np.abs(diag)), 1.0):
            raise ValueError("degenerate true loading functions (collinear draw)")
        signs = np.where(diag < 0, -1.0, 1.0)
        g_unit = q * signs
        mix = np.linalg.solve(r_up, np.diag(signs))  # g_raw @ mix == g_unit

        if config.tau_gamma > 0:
            lam = rng.standard_normal((I, R))
            design = build_design(X, true_spec)
            resid = lam - projector_apply(design, lam)
            norms = np.linalg.norm(resid, axis=0)
            if np.min(norms) < 1e-12:
                raise ValueError("degenerate orthogonal-part draw")
            gamma = config.tau_gamma * resid / norms
        else:
            gamma = np.zeros((I, R))

        qa, ra = np.linalg.qr(g_unit + gamma)
        sa = np.where(np.diag(ra) < 0, -1.0, 1.0)
        a = qa * sa

        if config.scheme == "additive":
            def fun(Xn, coeffs=coeffs, mix=mix, spec=true_spec):
                return eval_basis(np.atleast_2d(Xn), spec) @ coeffs @ mix
        else:
            def fun(Xn, xi=xi, mix=mix, kappa=config.kappa):
                return _multiplicative_raw(np.atleast_2d(Xn), xi, kappa) @ mix

        a_list.append(a)
        g_list.append(g_unit)
        gamma_list.append(gamma)
        x_list.append(X)
        fun_list.append(fun)

    # the noise is added to the signal in mode-0 row blocks: consecutive
    # draws continue the stream of one whole-tensor draw, so the observation
    # is bit-identical to signal + noise with one tensor of its size alive
    observed = multi_mode_product(core, a_list)
    for rows in _row_slices(dims):
        block = observed[rows]
        block += rng.standard_normal(block.shape)
    return SimInstance(config=config, observed=observed,
                       core=core, a_loadings=a_list, g_loadings=g_list,
                       gamma=gamma_list, covariates=x_list,
                       loading_functions=fun_list)


# ---------------------------------------------------------------------------
# loss metrics

def loss_subspace(a_hat: np.ndarray, a_true: np.ndarray) -> float:
    """Schatten-2 sin-theta loss between estimated and true column spaces."""
    a_hat = np.asarray(a_hat, dtype=float)
    a_true = np.asarray(a_true, dtype=float)
    if a_hat.shape != a_true.shape:
        raise ValueError(f"shape mismatch {a_hat.shape} vs {a_true.shape}")
    s = np.linalg.svd(a_true, compute_uv=False)
    if s[-1] < 1e-12 * s[0]:
        raise ValueError("true loading is rank deficient")
    return subspace_distance(a_hat, a_true)


def _loss_grid(n_covariates: int, domain, grid_n):
    if grid_n is None:
        grid_n = int(np.ceil(10_000 ** (1.0 / n_covariates)))
    lo, hi = domain
    axes = [np.linspace(lo, hi, grid_n)] * n_covariates
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.ravel() for m in mesh])


def loss_function(g_hat, g_true, n_covariates: int = 2, domain=(0.0, 1.0),
                  grid_n: int | None = None) -> float:
    """Relative squared approximation error of a loading function on a grid.

    Both arguments are callables mapping (n x D) covariate arrays to length-n
    values.  The loss is sign-aligned: the better of +g_hat and -g_hat counts.
    """
    pts = _loss_grid(n_covariates, domain, grid_n)
    h = np.asarray(g_hat(pts), dtype=float).ravel()
    t = np.asarray(g_true(pts), dtype=float).ravel()
    denom = float(np.mean(t ** 2))
    if denom < 1e-14:
        raise ValueError("degenerate true function")
    plus = float(np.mean((h - t) ** 2))
    minus = float(np.mean((h + t) ** 2))
    return min(plus, minus) / denom


def loss_function_best_linear(g_hats, g_true, n_covariates: int = 2,
                              domain=(0.0, 1.0), grid_n: int | None = None) -> float:
    """Residual ratio of the true function after least-squares projection
    onto the span of the estimated loading functions over the grid."""
    pts = _loss_grid(n_covariates, domain, grid_n)
    H = np.column_stack([np.asarray(g(pts), dtype=float).ravel() for g in g_hats])
    t = np.asarray(g_true(pts), dtype=float).ravel()
    denom = float(np.mean(t ** 2))
    if denom < 1e-14:
        raise ValueError("degenerate true function")
    coef, *_ = np.linalg.lstsq(H, t, rcond=None)
    resid = t - H @ coef
    return float(np.mean(resid ** 2)) / denom


def loss_remse(s_hat: np.ndarray, s_true: np.ndarray, squared: bool = False,
               reference: np.ndarray | None = None) -> float:
    """Relative reconstruction error ||S_hat - S|| / ||ref|| (ref defaults to S).

    ``squared`` returns the ratio of squared norms instead.
    """
    s_hat = np.asarray(s_hat, dtype=float)
    s_true = np.asarray(s_true, dtype=float)
    if s_hat.shape != s_true.shape:
        raise ValueError(f"shape mismatch {s_hat.shape} vs {s_true.shape}")
    ref = s_true if reference is None else np.asarray(reference, dtype=float)
    denom = float(np.linalg.norm(ref))
    if denom == 0.0:
        raise ValueError("reference tensor has zero norm")
    ratio = float(np.linalg.norm(s_hat - s_true)) / denom
    return ratio ** 2 if squared else ratio


# ---------------------------------------------------------------------------
# experiment protocols

def _protocol_table1(scheme="additive"):
    cells = []
    for alpha in (0.1, 0.3, 0.5):
        for extent in (100, 200, 300):
            cells.append({
                "label": f"alpha={alpha},I={extent}",
                "config": {"dims": (extent,) * 3, "rank": 3, "alpha": alpha,
                           "j_star": 4, "tau_gamma": 0.0, "scheme": scheme},
                "fit_degree": 4,
                "methods": ("ipsvd", "hooi"),
            })
    return cells


def _protocol_j_sweep():
    cells = []
    for alpha in (0.3, 0.5):
        for degree in (2, 4, 8, 16):
            cells.append({
                "label": f"alpha={alpha},J={degree}",
                # slower coefficient decay than the default so the true
                # degree-16 functions keep real energy beyond low orders,
                # making the under/over-smoothing trade-off visible
                "config": {"dims": (200,) * 3, "rank": 3, "alpha": alpha,
                           "j_star": 16, "kappa": 0.75, "tau_gamma": 0.0,
                           "scheme": "additive"},
                "fit_degree": degree,
                "methods": ("ipsvd",),
            })
    return cells


def _protocol_gamma_sweep():
    cells = []
    for tau in (0.0, 0.01, 0.1, 1.0):
        cells.append({
            "label": f"tau={tau}",
            "config": {"dims": (200,) * 3, "rank": 3, "alpha": 0.5,
                       "j_star": 4, "tau_gamma": tau, "scheme": "additive"},
            "fit_degree": 4,
            "methods": ("ipsvd",),
        })
    return cells


def _protocol_unbalanced():
    cells = []
    for alpha in (0.3, 0.5):
        for dims in ((100, 100, 200), (100, 100, 400),
                     (100, 200, 200), (100, 200, 400)):
            cells.append({
                "label": f"alpha={alpha},dims={dims[0]}x{dims[1]}x{dims[2]}",
                "config": {"dims": dims, "rank": 3, "alpha": alpha,
                           "j_star": 4, "tau_gamma": 0.0, "scheme": "additive"},
                "fit_degree": 4,
                "methods": ("ipsvd", "hooi"),
            })
    return cells


def _protocol_noise_amplify():
    cells = []
    for amp in (0.0, 0.5, 1.0, 2.0):
        cells.append({
            "label": f"amplifier={amp}",
            "config": {"dims": (50,) * 3, "rank": 3, "alpha": 0.5,
                       "j_star": 4, "tau_gamma": 0.0, "scheme": "additive"},
            "fit_degree": 4,
            "methods": ("ipsvd", "hooi"),
            "amplifier": amp,
        })
    return cells


PROTOCOLS = {
    "table1": _protocol_table1,
    "table3_J_sweep": _protocol_j_sweep,
    "table4_gamma_sweep": _protocol_gamma_sweep,
    "table6_multiplicative": lambda: _protocol_table1("multiplicative"),
    "suppC_unbalanced": _protocol_unbalanced,
    "noise_amplify": _protocol_noise_amplify,
}


# values in one mode-0 row block of the noise draw and of a scored
# reconstruction: about 1 MB
_BLOCK_VALUES = 1 << 17


def _row_slices(dims):
    """Consecutive mode-0 row slices of a tensor of extents ``dims``, each of
    about ``_BLOCK_VALUES`` values and at least one row."""
    step = max(1, _BLOCK_VALUES // math.prod(dims[1:]))
    for start in range(0, dims[0], step):
        yield slice(start, min(start + step, dims[0]))


def _row_blocks(core, loadings):
    """Yield ``(rows, core x_0 loadings[0][rows] x_1 loadings[1] x_2 ...)``
    over the row slices of :func:`_row_slices`, so the Tucker reconstruction
    is never formed whole."""
    for rows in _row_slices([a.shape[0] for a in loadings]):
        yield rows, multi_mode_product(core, [loadings[0][rows], *loadings[1:]])


def _squared_errors(truth, estimates):
    """``(errors, norm)``: ``||S_hat - S||^2`` for each Tucker reconstruction
    in ``estimates`` and ``||S||^2``, where ``truth`` and each estimate are
    ``(core, loadings)`` pairs.  One pass over mode-0 row blocks (see
    :func:`_row_blocks`) holds at most three blocks at a time."""
    streams = [_row_blocks(*e) for e in estimates]
    errors = np.zeros(len(estimates))
    norm = 0.0
    for _, s in _row_blocks(*truth):
        norm += float(np.vdot(s, s))
        for i, stream in enumerate(streams):
            _, b = next(stream)
            b -= s
            errors[i] += float(np.vdot(b, b))
    return errors, norm


def _fit_metrics(inst: SimInstance, fit_degree: int, methods) -> dict:
    """Losses of one replication, keyed ``(method, metric)``.

    IP-SVD (and HOOI when ``methods`` holds it) is fitted to the observation
    and scored by its loading subspaces, its first loading functions, whether
    it converged (1.0 or 0.0, so a cell's mean is the share of converged
    replications) and the relative reconstruction errors ``remse`` (against
    the signal) and ``remse_obs`` (normed by the observation).  The
    reconstruction errors are summed over row blocks from the Tucker factors
    of the fits and of the truth, in one pass after both fits, so besides
    the observation and the signal no tensor of their size is formed.
    """
    spec = BasisSpec(degree=fit_degree)
    designs = [build_design(X, spec) for X in inst.covariates]
    ranks = (inst.config.rank,) * len(inst.config.dims)
    out = {}

    fit = fit_stefa(inst.observed, designs, ranks=ranks)
    # the covariate-projected loading estimate carries the loading subspace;
    # the regression-based full loading adds an unprojected noise component
    # and is reported separately
    for m in range(len(ranks)):
        out[("ipsvd", f"l2_a{m + 1}")] = loss_subspace(
            fit.g_loadings[m], inst.a_loadings[m])
        out[("ipsvd", f"l2_a{m + 1}_reg")] = loss_subspace(
            fit.a_loadings[m], inst.a_loadings[m])
    out[("ipsvd", "converged")] = float(fit.converged)

    scale = np.sqrt(inst.config.dims[0])
    coeffs = fit.sieve_coeffs[0]
    D = inst.config.n_covariates
    hats = [lambda x, r=r: eval_basis(np.atleast_2d(x), spec) @ coeffs[:, r] / scale
            for r in range(ranks[0])]
    for r in range(ranks[0]):
        true_r = lambda x, r=r: inst.loading_functions[0](x)[:, r]
        out[("ipsvd", f"fn_loss_g1_{r + 1}")] = loss_function(
            hats[r], true_r, n_covariates=D)
        if inst.config.scheme == "multiplicative":
            out[("ipsvd", f"fn_loss_best_linear_g1_{r + 1}")] = \
                loss_function_best_linear(hats, true_r, n_covariates=D)

    estimates = {"ipsvd": (fit.core, fit.g_loadings)}
    if "hooi" in methods:
        h = hooi(inst.observed, ranks)
        for m in range(len(ranks)):
            out[("hooi", f"l2_a{m + 1}")] = loss_subspace(
                h.loadings[m], inst.a_loadings[m])
        out[("hooi", "converged")] = float(h.converged)
        estimates["hooi"] = (h.core, h.loadings)

    errors, norm = _squared_errors((inst.core, inst.a_loadings),
                                   list(estimates.values()))
    for method, error in zip(estimates, errors):
        out[(method, "remse")] = float(np.sqrt(error / norm))
    observed = float(np.vdot(inst.observed, inst.observed))
    out[("ipsvd", "remse_obs")] = float(np.sqrt(errors[0] / observed))
    return out


def _run_rep(cell: dict, seed_seq) -> dict:
    cfg = SimConfig(seed=seed_seq, **cell["config"])
    inst = generate(cfg)
    if "amplifier" in cell:
        spec = BasisSpec(degree=cell["fit_degree"])
        designs = [build_design(X, spec) for X in inst.covariates]
        ranks = (cfg.rank,) * len(cfg.dims)
        base = fit_stefa(inst.observed, designs, ranks=ranks)
        s_hat = base.reconstruct()
        rows = noise_amplify_refit(s_hat, inst.observed - s_hat,
                                   [cell["amplifier"]], designs=designs,
                                   ranks=ranks)
        return {("ipsvd", "remse_sq"): rows[0]["ipsvd"],
                ("hooi", "remse_sq"): rows[0]["hooi"]}
    return _fit_metrics(inst, cell["fit_degree"], cell["methods"])


def noise_amplify_refit(s_hat: np.ndarray, e_hat: np.ndarray, alphas,
                        designs=None, ranks=None) -> list:
    """Refit both estimators on ``s_hat + a * e_hat`` for each amplifier ``a``
    and report the squared relative reconstruction error against ``s_hat``."""
    s_hat = np.asarray(s_hat, dtype=float)
    e_hat = np.asarray(e_hat, dtype=float)
    if s_hat.shape != e_hat.shape:
        raise ValueError(f"shape mismatch {s_hat.shape} vs {e_hat.shape}")
    rows = []
    for a in alphas:
        Y = s_hat + float(a) * e_hat
        r = estimate_ranks(Y, designs) if ranks is None else ranks
        fit = fit_stefa(Y, designs, ranks=r)
        h = hooi(Y, r)
        rows.append({
            "amplifier": float(a),
            "ipsvd": loss_remse(fit.reconstruct(), s_hat, squared=True),
            "hooi": loss_remse(h.reconstruct(), s_hat, squared=True),
        })
    return rows


# ---------------------------------------------------------------------------
# harness

def run_experiment(protocol: str, reps: int = 20, seed: int = 0,
                   out_dir=None, cells=None) -> list:
    """Run a named protocol over replications and summarize per cell.

    Per-replication seeds derive from ``SeedSequence(seed, spawn_key=(cell,
    rep))`` with the cell index taken in the full protocol grid, so running a
    subset of cells reproduces exactly the same draws.  Returns result rows
    ``{cell, method, metric, mean, sd, reps}``; with ``out_dir`` also writes
    results.csv and manifest.json, whose per-cell timings hold the cell's
    total seconds and the seconds of each replication.
    """
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}; choose from "
                         f"{sorted(PROTOCOLS)}")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    grid = PROTOCOLS[protocol]()
    if cells is not None:
        wanted = set(cells)
        unknown = wanted - {c["label"] for c in grid}
        if unknown:
            raise ValueError(f"unknown cells for {protocol}: {sorted(unknown)}")
        selected = [(i, c) for i, c in enumerate(grid) if c["label"] in wanted]
    else:
        selected = list(enumerate(grid))

    rows = []
    timings = []
    for idx, cell in selected:
        start = time.perf_counter()
        per_rep, rep_seconds = [], []
        for r in range(reps):
            rep_start = time.perf_counter()
            per_rep.append(_run_rep(
                cell, np.random.SeedSequence(seed, spawn_key=(idx, r))))
            rep_seconds.append(time.perf_counter() - rep_start)

        keys = sorted(per_rep[0], key=lambda k: (k[0], k[1]))
        for method, metric in keys:
            vals = np.array([rep[(method, metric)] for rep in per_rep])
            sd = float(np.std(vals, ddof=1)) if reps > 1 else 0.0
            rows.append({"cell": cell["label"], "method": method,
                         "metric": metric, "mean": float(np.mean(vals)),
                         "sd": sd, "reps": reps})
        timings.append({"cell": cell["label"],
                        "seconds": time.perf_counter() - start,
                        "rep_seconds": rep_seconds})

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "results.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["protocol", "cell", "method", "metric",
                             "mean", "sd", "reps"])
            for row in rows:
                writer.writerow([protocol, row["cell"], row["method"],
                                 row["metric"], f"{row['mean']:.12g}",
                                 f"{row['sd']:.12g}", row["reps"]])
        manifest = {"protocol": protocol, "seed": int(seed), "reps": int(reps),
                    "version": __version__, "cells": timings}
        with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
            json.dump(manifest, fh, indent=2)
    return rows
