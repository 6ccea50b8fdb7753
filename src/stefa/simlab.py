"""Synthetic data generator, loss metrics, and Monte-Carlo experiment harness.

The generator draws a Tucker-structured signal whose loadings depend on
uniform covariates through additive (or multiplicative) Legendre expansions,
plus an optional covariate-orthogonal loading part and unit-variance
Gaussian noise.  The noise is added to the signal's own buffer in mode-0
row blocks, so a draw holds one tensor of the observation's size; the
signal is formed again only when :attr:`SimInstance.signal` is read.  The
harness runs named grids of cells, each naming the scorer of its draws, over
replications with counter-derived seeds and writes plot-ready CSV summaries.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from . import __version__
from .estimator import fit_stefa, hooi, subspace_distance
from .sieve import BasisSpec, build_design, eval_basis, projector_apply
from .tensor import matricize, multi_mode_product, top_left_singular_vectors

__all__ = [
    "SimConfig",
    "SimInstance",
    "generate",
    "loss_function",
    "loss_function_best_linear",
    "run_experiment",
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
                             f"mode-{m + 1} extent {I}")
        if R > I:
            raise ValueError(f"rank {R} exceeds mode-{m + 1} extent {I}")

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
            raw = lambda Xn, c=coeffs: eval_basis(Xn, true_spec) @ c
        else:
            xi = rng.standard_normal((D, J + 1, R))
            raw = lambda Xn, xi=xi: _multiplicative_raw(Xn, xi, config.kappa)
        g_raw = raw(X)

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

        a_list.append(a)
        g_list.append(g_unit)
        gamma_list.append(gamma)
        x_list.append(X)
        fun_list.append(lambda Xn, raw=raw, mix=mix: raw(np.atleast_2d(Xn)) @ mix)

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

def _loss_grid(n_covariates: int) -> np.ndarray:
    """About 10 000 points of a regular grid on the unit cube."""
    axis = np.linspace(0.0, 1.0, int(np.ceil(10_000 ** (1.0 / n_covariates))))
    mesh = np.meshgrid(*[axis] * n_covariates, indexing="ij")
    return np.column_stack([m.ravel() for m in mesh])


def loss_function(g_hat, g_true, n_covariates: int = 2) -> float:
    """Relative squared approximation error of a loading function on a grid
    of about 10 000 points on the unit cube.

    Both arguments are callables mapping (n x D) covariate arrays to length-n
    values.  The loss is sign-aligned: the better of +g_hat and -g_hat counts.
    """
    pts = _loss_grid(n_covariates)
    h = np.asarray(g_hat(pts), dtype=float).ravel()
    t = np.asarray(g_true(pts), dtype=float).ravel()
    denom = float(np.mean(t ** 2))
    if denom < 1e-14:
        raise ValueError("degenerate true function")
    plus = float(np.mean((h - t) ** 2))
    minus = float(np.mean((h + t) ** 2))
    return min(plus, minus) / denom


def loss_function_best_linear(g_hats, g_true, n_covariates: int = 2) -> float:
    """Residual ratio of the true function after least-squares projection
    onto the span of the estimated loading functions over the grid of
    :func:`loss_function`."""
    pts = _loss_grid(n_covariates)
    H = np.column_stack([np.asarray(g(pts), dtype=float).ravel() for g in g_hats])
    t = np.asarray(g_true(pts), dtype=float).ravel()
    denom = float(np.mean(t ** 2))
    if denom < 1e-14:
        raise ValueError("degenerate true function")
    coef, *_ = np.linalg.lstsq(H, t, rcond=None)
    resid = t - H @ coef
    return float(np.mean(resid ** 2)) / denom


# ---------------------------------------------------------------------------
# experiment protocols

_CONFIG_FIELDS = {f.name for f in fields(SimConfig)}


def _cell(label, dims, fit_degree=4, score=None, **params):
    """One grid cell of extents ``dims`` at rank 3.  Keywords that name a
    :class:`SimConfig` field go into ``config``, whose other fields keep their
    defaults; any other keyword (``methods``, ``amplifier``) is a key of the
    cell.  ``score`` defaults to :func:`_score_fit`."""
    config = {"dims": dims, "rank": 3}
    cell = {"label": label, "config": config, "fit_degree": fit_degree,
            "score": score or _score_fit}
    for key, value in params.items():
        (config if key in _CONFIG_FIELDS else cell)[key] = value
    return cell


def _protocol_table1(scheme="additive"):
    return [_cell(f"alpha={alpha},I={extent}", (extent,) * 3, alpha=alpha,
                  scheme=scheme, methods=("ipsvd", "hooi"))
            for alpha in (0.1, 0.3, 0.5) for extent in (100, 200, 300)]


def _protocol_j_sweep():
    # slower coefficient decay than the default so the true degree-16
    # functions keep real energy beyond low orders, making the
    # under/over-smoothing trade-off visible
    return [_cell(f"alpha={alpha},J={degree}", (200,) * 3, fit_degree=degree,
                  alpha=alpha, j_star=16, kappa=0.75, methods=("ipsvd",))
            for alpha in (0.3, 0.5) for degree in (2, 4, 8, 16)]


def _protocol_gamma_sweep():
    return [_cell(f"tau={tau}", (200,) * 3, tau_gamma=tau, methods=("ipsvd",))
            for tau in (0.0, 0.01, 0.1, 1.0)]


def _protocol_unbalanced():
    return [_cell(f"alpha={alpha},dims={'x'.join(map(str, dims))}", dims,
                  alpha=alpha, methods=("ipsvd", "hooi"))
            for alpha in (0.3, 0.5)
            for dims in ((100, 100, 200), (100, 100, 400),
                         (100, 200, 200), (100, 200, 400))]


def _protocol_noise_amplify():
    return [_cell(f"amplifier={amp}", (50,) * 3, amplifier=amp,
                  score=_score_noise_amplify)
            for amp in (0.0, 0.5, 1.0, 2.0)]


PROTOCOLS = {
    "table1": _protocol_table1,
    "table3_J_sweep": _protocol_j_sweep,
    "table4_gamma_sweep": _protocol_gamma_sweep,
    "table6_multiplicative": lambda: _protocol_table1("multiplicative"),
    "suppC_unbalanced": _protocol_unbalanced,
    "noise_amplify": _protocol_noise_amplify,
}


# values in one mode-0 row block of the noise draw: about 1 MB
_BLOCK_VALUES = 1 << 17


def _row_slices(dims):
    """Consecutive mode-0 row slices of a tensor of extents ``dims``, each of
    about ``_BLOCK_VALUES`` values and at least one row."""
    step = max(1, _BLOCK_VALUES // math.prod(dims[1:]))
    for start in range(0, dims[0], step):
        yield slice(start, min(start + step, dims[0]))


def _squared_errors(truth, estimates):
    """``(errors, norm)``: ``||S_hat - S||^2`` for each Tucker reconstruction
    in ``estimates`` and ``||S||^2``; ``truth`` and each estimate are ``(core,
    loadings)`` pairs.  Q_m has orthonormal columns spanning every pair's
    mode-m loadings F_m, so Q_m Q_m^T F_m = F_m and each reconstruction has
    the norms of its small coordinate core ``core x_m Q_m^T F_m``."""
    pairs = [truth, *estimates]
    bases = [np.linalg.qr(np.hstack([f[m] for _, f in pairs]))[0]
             for m in range(len(truth[1]))]
    s, *coords = [multi_mode_product(core, [q.T @ f for q, f in zip(bases, fs)])
                  for core, fs in pairs]
    errors = np.array([float(np.vdot(c - s, c - s)) for c in coords])
    return errors, float(np.vdot(s, s))


def _score_fit(inst: SimInstance, cell: dict) -> dict:
    """Losses of one replication, keyed ``(method, metric)``.

    IP-SVD at sieve degree ``cell["fit_degree"]`` (and HOOI when
    ``cell["methods"]`` holds it) is fitted to the observation and scored by
    its loading subspaces, its first loading functions, whether it converged
    (1.0 or 0.0, so a cell's mean is the share of converged replications) and
    the relative reconstruction errors ``remse`` (against the signal) and
    ``remse_obs`` (normed by the observation).  These come from the Tucker
    cores and loadings of the fits and the truth (see
    :func:`_squared_errors`), so besides the observation no tensor of its
    size is formed.
    """
    spec = BasisSpec(degree=cell["fit_degree"])
    designs = [build_design(X, spec) for X in inst.covariates]
    ranks = (inst.config.rank,) * len(inst.config.dims)
    out = {}

    fit = fit_stefa(inst.observed, designs, ranks=ranks)
    # the covariate-projected loading estimate carries the loading subspace;
    # the regression-based full loading adds an unprojected noise component
    # and is reported separately
    for m in range(len(ranks)):
        out[("ipsvd", f"l2_a{m + 1}")] = subspace_distance(
            fit.g_loadings[m], inst.a_loadings[m])
        out[("ipsvd", f"l2_a{m + 1}_reg")] = subspace_distance(
            fit.a_loadings[m], inst.a_loadings[m])
    out[("ipsvd", "converged")] = float(fit.converged)

    scale = np.sqrt(inst.config.dims[0])
    coeffs = fit.sieve_coeffs[0]
    D = inst.config.n_covariates
    hats = [lambda x, r=r: eval_basis(x, spec) @ coeffs[:, r] / scale
            for r in range(ranks[0])]
    for r in range(ranks[0]):
        true_r = lambda x, r=r: inst.loading_functions[0](x)[:, r]
        out[("ipsvd", f"fn_loss_g1_{r + 1}")] = loss_function(
            hats[r], true_r, n_covariates=D)
        if inst.config.scheme == "multiplicative":
            out[("ipsvd", f"fn_loss_best_linear_g1_{r + 1}")] = \
                loss_function_best_linear(hats, true_r, n_covariates=D)

    estimates = {"ipsvd": (fit.core, fit.g_loadings)}
    if "hooi" in cell["methods"]:
        h = hooi(inst.observed, ranks)
        for m in range(len(ranks)):
            out[("hooi", f"l2_a{m + 1}")] = subspace_distance(
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


def _score_noise_amplify(inst: SimInstance, cell: dict) -> dict:
    """``remse_sq`` of both estimators refitted to ``s_hat + a * (Y - s_hat)``
    at the amplifier ``a = cell["amplifier"]``, where ``s_hat`` is the IP-SVD
    reconstruction of the observation ``Y``, and scored against ``s_hat``
    from the Tucker parts of the three fits (see :func:`_squared_errors`)."""
    designs = [build_design(X, BasisSpec(degree=cell["fit_degree"]))
               for X in inst.covariates]
    ranks = (inst.config.rank,) * len(inst.config.dims)
    first = fit_stefa(inst.observed, designs, ranks=ranks)
    s_hat = first.reconstruct()
    y = s_hat + float(cell["amplifier"]) * (inst.observed - s_hat)
    fit = fit_stefa(y, designs, ranks=ranks)
    h = hooi(y, fit.ranks)
    errors, norm = _squared_errors((first.core, first.a_loadings),
                                   [(fit.core, fit.a_loadings),
                                    (h.core, h.loadings)])
    return {(method, "remse_sq"): float(error / norm)
            for method, error in zip(("ipsvd", "hooi"), errors)}


# ---------------------------------------------------------------------------
# harness

def run_experiment(protocol: str, reps: int = 20, seed: int = 0,
                   out_dir=None, cells=None) -> list:
    """Run a named protocol over replications and summarize per cell.

    Per-replication seeds derive from ``SeedSequence(seed, spawn_key=(cell,
    rep))`` with the cell index taken in the full protocol grid, so running a
    subset of cells reproduces exactly the same draws.  Returns result rows
    ``{cell, method, metric, mean, sd, reps}`` of each cell's ``score``; with
    ``out_dir`` also writes results.csv and manifest.json, whose per-cell
    timings hold the cell's total seconds and the seconds of each replication.
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
            # no name holds the draw, so it is freed before the next one
            per_rep.append(cell["score"](generate(SimConfig(
                seed=np.random.SeedSequence(seed, spawn_key=(idx, r)),
                **cell["config"])), cell))
            rep_seconds.append(time.perf_counter() - rep_start)

        for method, metric in sorted(per_rep[0]):
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
