"""Covariate-projected tensor factor estimation.

Fits the semiparametric tensor factor model by iteratively projected SVD:
every mode update of the classical HOOI power iteration is projected onto
the sieve span of that mode's covariates, and the fitted core is rotated so
its mode-wise Gram matrices are diagonal with decreasing entries.  With B_m
the orthonormal sieve basis of mode m, a projected update satisfies
``P_m Y_(m) (x_j U_j) = B_m Z_(m) (x_j W_j)`` where Z is Y contracted with
every ``B_m^T`` and ``U_j = B_j W_j``; so the iteration runs as HOOI on the
sieve-compressed tensor Z, and its factors are lifted by B_m at the end.
Modes without covariates stay uncompressed (unprojected updates), so with no
designs at all the machinery reduces to plain HOOI, which shares the loop.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .sieve import (BasisSpec, SieveDesign, build_design, projector_apply,
                    read_covariates_csv, write_covariates_csv)
from .tensor import (check_tucker_ranks, eigenvalues_symmetric, fix_signs,
                     matricize, mode_product, multi_mode_product, read_tns,
                     top_left_singular_vectors, write_tns)

__all__ = [
    "EstimationError",
    "DegenerateCoreError",
    "RankExceedsSpanError",
    "HooiFit",
    "StefaFit",
    "orthonormal_basis",
    "subspace_distance",
    "hooi",
    "ipsvd_init",
    "ipsvd_iterate",
    "estimate_core",
    "calibrate",
    "estimate_loadings",
    "fit_stefa",
    "estimate_ranks",
    "save_fit",
    "load_fit",
]


class EstimationError(Exception):
    """Numeric failure during model fitting."""


class DegenerateCoreError(EstimationError):
    """Core matricization Gram is numerically singular (rank misspecification)."""


class RankExceedsSpanError(EstimationError):
    """Requested rank exceeds the dimension of the sieve span."""


def orthonormal_basis(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column space of ``a`` (SVD, rank-revealing)."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return u[:, :0]
    rank = int(np.sum(s > 1e-12 * s[0]))
    return u[:, :rank]


def subspace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Schatten-2 sin-theta distance sqrt(R - ||U^T V||_F^2) between column spaces.

    R is the column count of ``b`` (the reference); a rank-deficient ``a``
    contributes maximal angles for the missing directions.
    """
    u = orthonormal_basis(a)
    v = orthonormal_basis(np.atleast_2d(np.asarray(b, dtype=float)))
    # sines of the principal angles are the singular values of the residual
    # of v after projection onto span(u); this stays accurate near zero where
    # sqrt(R - ||u^T v||^2) loses half the significant digits
    resid = v - u @ (u.T @ v)
    s = np.linalg.svd(resid, compute_uv=False)
    return float(np.linalg.norm(s))


# ---------------------------------------------------------------------------
# fitted-model containers

@dataclass
class HooiFit:
    core: np.ndarray
    loadings: list            # per mode, I_m x R_m with A^T A / I = identity
    ranks: tuple
    iterations_used: int
    objective_trace: list
    converged: bool

    def reconstruct(self) -> np.ndarray:
        """Fitted signal: core contracted with the loadings on every mode."""
        return multi_mode_product(self.core, self.loadings)


@dataclass
class StefaFit:
    core: np.ndarray                  # calibrated core tensor
    g_loadings: list                  # per mode, G^T G / I = identity, in sieve span
    a_loadings: list                  # per mode full loadings
    gamma: list                       # per mode covariate-orthogonal parts
    sieve_coeffs: list                # per mode J x R coefficient matrix or None
    ranks: tuple
    iterations_used: int
    subspace_change_trace: list
    converged: bool
    identity_modes: tuple = ()
    flags: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)

    @property
    def order(self) -> int:
        return self.core.ndim

    def reconstruct(self) -> np.ndarray:
        """Fitted signal: core contracted with the full loadings on every mode."""
        return multi_mode_product(self.core, self.a_loadings)

    def reconstruct_g(self) -> np.ndarray:
        """Covariate-explained signal: core contracted with the G loadings."""
        return multi_mode_product(self.core, self.g_loadings)


# ---------------------------------------------------------------------------
# shared machinery

def _normalize_designs(designs, order) -> list:
    if designs is None:
        return [None] * order
    designs = list(designs)
    if len(designs) != order:
        raise ValueError(f"{len(designs)} designs given for order-{order} tensor")
    return designs


def _check_design_shapes(Y, designs) -> None:
    for m, d in enumerate(designs):
        if d is not None and d.n_rows != Y.shape[m]:
            raise ValueError(f"design for mode {m} has {d.n_rows} rows, tensor "
                             f"extent is {Y.shape[m]}")


def _check_span_ranks(designs, ranks) -> tuple:
    """Per-mode ranks as ints; a covariate mode's rank must fit its sieve span."""
    ranks = tuple(int(r) for r in ranks)
    if len(ranks) != len(designs):
        raise ValueError(f"{len(ranks)} ranks given for order-{len(designs)} tensor")
    for m, d in enumerate(designs):
        if d is not None and ranks[m] > d.rank:
            raise RankExceedsSpanError(
                f"rank exceeds sieve span (mode {m}: rank {ranks[m]} > span {d.rank})")
    return ranks


def _check_iteration_controls(max_iter, tol) -> None:
    if not isinstance(max_iter, (int, np.integer)) or max_iter < 1:
        raise ValueError(f"max_iter must be an integer >= 1, got {max_iter!r}")
    if not (np.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")


def _compress(Y: np.ndarray, designs) -> np.ndarray:
    """Contract every covariate mode with the transpose of its sieve basis."""
    mats = {m: d.basis.T for m, d in enumerate(designs) if d is not None}
    return multi_mode_product(Y, mats) if mats else Y


def _mode_update(T, units, mode, rank):
    """One power-iteration update: orthonormal factor for ``mode``.

    ``T`` is contracted with every other mode's unit; a mode whose unit is
    None is left as it is.
    """
    mats = {j: units[j].T for j in range(T.ndim) if j != mode and units[j] is not None}
    contracted = multi_mode_product(T, mats)
    return top_left_singular_vectors(matricize(contracted, mode), rank)


def _power_iteration(T, units, ranks, order, active, max_iter, tol,
                     objective=None):
    """Gauss-Seidel power iteration (HOOI sweeps) on ``T``; HOOI runs it on
    the observed tensor, IP-SVD on the sieve-compressed one.

    Each sweep replaces ``units[m]``, in place, for every m in ``order``.
    Returns ``(changes, objectives, converged)``: per sweep, the largest
    subspace change over the modes in ``active`` and, when ``objective`` is
    given, ``objective(units)``.  The iteration stops after the first change
    below ``tol`` or after ``max_iter`` sweeps.
    """
    changes, objectives = [], []
    for _ in range(max_iter):
        prev = [units[m] for m in active]
        for m in order:
            units[m] = _mode_update(T, units, m, ranks[m])
        changes.append(max(subspace_distance(units[m], p)
                           for m, p in zip(active, prev)))
        if objective is not None:
            objectives.append(objective(units))
        if changes[-1] < tol:
            return changes, objectives, True
    return changes, objectives, False


# ---------------------------------------------------------------------------
# HOOI baseline

def hooi(Y: np.ndarray, ranks, max_iter: int = 50, tol: float = 1e-8) -> HooiFit:
    """Higher-order orthogonal iteration with HOSVD initialization.

    The sweeps run on the observed tensor itself, in the power-iteration
    loop that :func:`ipsvd_iterate` runs on the sieve-compressed tensor, and
    ``objective_trace`` records the captured energy before the first sweep
    and after each one.  Loadings are scaled so ``A^T A / I_m`` is the
    identity, and the final core is rotated so each mode-wise core Gram is
    diagonal with decreasing entries (the same calibration used by the
    projected estimator).  ``max_iter`` must be an integer >= 1 and ``tol``
    finite and >= 0.
    """
    _check_iteration_controls(max_iter, tol)
    Y = np.asarray(Y, dtype=float)
    if not np.all(np.isfinite(Y)):
        raise ValueError("tensor has non-finite entries")
    ranks = check_tucker_ranks(ranks, Y.shape)
    modes = range(Y.ndim)
    units = [top_left_singular_vectors(matricize(Y, m), ranks[m]) for m in modes]

    def objective(us):
        compressed = multi_mode_product(Y, {m: u.T for m, u in enumerate(us)})
        return float(np.prod(Y.shape) * np.sum(compressed ** 2))

    trace = [objective(units)]
    changes, objectives, converged = _power_iteration(
        Y, units, ranks, modes, modes, max_iter, tol, objective)
    trace += objectives

    scales = np.sqrt(np.asarray(Y.shape, dtype=float))
    loadings = [u * s for u, s in zip(units, scales)]
    core = estimate_core(Y, loadings)
    core, loadings, _ = calibrate(core, loadings)
    return HooiFit(core=core, loadings=loadings, ranks=ranks,
                   iterations_used=len(changes), objective_trace=trace,
                   converged=converged)


# ---------------------------------------------------------------------------
# iteratively projected SVD

def ipsvd_init(Y: np.ndarray, designs, ranks) -> list:
    """Projected spectral initialization: SVD of each matricization of the
    tensor projected onto every mode's sieve span."""
    Y = np.asarray(Y, dtype=float)
    designs = _normalize_designs(designs, Y.ndim)
    _check_design_shapes(Y, designs)
    ranks = _check_span_ranks(designs, ranks)

    compressed = _compress(Y, designs)
    factors = []
    for m, d in enumerate(designs):
        u = top_left_singular_vectors(matricize(compressed, m), ranks[m])
        if d is not None:
            u = fix_signs(d.basis @ u)
        factors.append(u * np.sqrt(Y.shape[m]))
    return factors


def ipsvd_iterate(Y: np.ndarray, designs, ranks, init, max_iter: int = 50,
                  tol: float = 1e-8, update_order=None, fixed_modes=()):
    """Projected power iterations (Gauss-Seidel over modes) from a warm start.

    The sweeps run as HOOI on the sieve-compressed tensor Z, which is Y
    contracted with ``B_m^T`` on every covariate mode m, starting from the
    coordinates ``W_m = B_m^T U_m`` of the warm start ``U_m = init[m] /
    sqrt(I_m)`` (a warm start outside a sieve span enters through its
    projection onto it).  Each sweep's subspace change is measured on the
    W_m, which the orthonormal B_m leaves unchanged, and the factors are
    lifted as ``fix_signs(B_m W_m) * sqrt(I_m)`` at the end.  Modes without
    a design stay uncompressed.  Modes in ``fixed_modes`` keep their warm
    start, which is contracted into Z once instead of in every sweep.
    ``update_order`` lists the updated modes in the order of the sweep.

    Returns ``(factors, trace, converged)`` where ``trace`` holds the maximal
    per-sweep subspace change.
    """
    Y = np.asarray(Y, dtype=float)
    designs = _normalize_designs(designs, Y.ndim)
    ranks = _check_span_ranks(designs, ranks)
    scales = np.sqrt(np.asarray(Y.shape, dtype=float))
    active = [m for m in range(Y.ndim) if m not in fixed_modes]
    order = list(update_order) if update_order is not None else active

    units = [None] * Y.ndim
    mats = {}
    for m, (g, d) in enumerate(zip(init, designs)):
        u = g / scales[m]
        if m not in active:
            mats[m] = u.T
        elif d is not None:
            mats[m] = d.basis.T
            units[m] = d.basis.T @ u
        else:
            units[m] = u
    compressed = multi_mode_product(Y, mats)
    trace, _, converged = _power_iteration(compressed, units, ranks, order,
                                           active, max_iter, tol)

    factors = list(init)
    for m in active:
        d = designs[m]
        u = units[m] if d is None else fix_signs(d.basis @ units[m])
        factors[m] = u * scales[m]
    return factors, trace, converged


def estimate_core(Y: np.ndarray, factors) -> np.ndarray:
    """Least-squares core: Y contracted with every factor, divided by prod(I)."""
    Y = np.asarray(Y, dtype=float)
    for m, g in enumerate(factors):
        if g.shape[0] != Y.shape[m]:
            raise ValueError(f"factor for mode {m} has {g.shape[0]} rows, tensor "
                             f"extent is {Y.shape[m]}")
    contracted = multi_mode_product(Y, {m: g.T for m, g in enumerate(factors)})
    return contracted / float(np.prod(Y.shape))


def calibrate(core: np.ndarray, factors, fixed_modes=()):
    """Rotate core and factors so each mode-wise core Gram is diagonal with
    decreasing entries.  Returns ``(core, factors, flags)``."""
    core = np.asarray(core, dtype=float)
    rotations = []
    flags = []
    for m in range(core.ndim):
        if m in fixed_modes:
            rotations.append(np.eye(core.shape[m]))
            continue
        gram = matricize(core, m)
        gram = gram @ gram.T
        w, v = np.linalg.eigh(gram)
        w, v = w[::-1], v[:, ::-1]
        if w.size > 1 and w[0] > 0 and np.min(w[:-1] - w[1:]) < 1e-10 * w[0]:
            flags.append(f"identification unstable (mode {m} eigenvalue gap)")
        rotations.append(fix_signs(v))
    new_core = multi_mode_product(core, {m: q.T for m, q in enumerate(rotations)})
    new_factors = [g @ q for g, q in zip(factors, rotations)]
    return new_core, new_factors, flags


def estimate_loadings(Y: np.ndarray, designs, core: np.ndarray, g_loadings,
                      identity_modes=()):
    """Full loadings, their covariate-orthogonal parts, and sieve coefficients.

    The mode-m loading regresses the (other-mode projected) observation onto
    the core contracted with the other modes' G loadings; the orthogonal part
    is its residual after sieve projection.
    """
    Y = np.asarray(Y, dtype=float)
    designs = _normalize_designs(designs, Y.ndim)
    scales = np.sqrt(np.asarray(Y.shape, dtype=float))
    units = [g / s for g, s in zip(g_loadings, scales)]

    a_loadings, gammas, coeffs = [], [], []
    for m in range(Y.ndim):
        if m in identity_modes:
            a_loadings.append(np.eye(Y.shape[m]))
            gammas.append(np.zeros((Y.shape[m], Y.shape[m])))
            coeffs.append(None)
            continue
        gram = matricize(core, m)
        gram = gram @ gram.T
        w = eigenvalues_symmetric(gram)
        if w[-1] < 1e-12 * np.trace(gram):
            raise DegenerateCoreError(
                f"degenerate core (mode {m}): rank may be misspecified")
        mats = {j: units[j].T for j in range(Y.ndim) if j != m}
        numer = matricize(multi_mode_product(Y, mats), m) @ matricize(core, m).T
        a_m = numer @ np.linalg.pinv(gram, rcond=1e-12)
        a_m /= np.sqrt(np.prod(Y.shape) / Y.shape[m])
        a_loadings.append(a_m)

        d = designs[m]
        if d is None:
            gammas.append(a_m.copy())
            coeffs.append(None)
        else:
            gammas.append(a_m - projector_apply(d, a_m))
            b_m, *_ = np.linalg.lstsq(d.phi, g_loadings[m], rcond=1e-12)
            coeffs.append(b_m)
    return a_loadings, gammas, coeffs


def fit_stefa(Y: np.ndarray, designs=None, ranks=None, identity_modes=(),
              max_iter: int = 50, tol: float = 1e-8, update_order=None) -> StefaFit:
    """Full pipeline: projected init, projected power iterations, core
    projection, orthogonal calibration, and loading extraction.

    ``designs`` is a per-mode list of :class:`SieveDesign` or None (no
    covariates for that mode, meaning unprojected updates).  Modes listed in
    ``identity_modes`` are not compressed: their loading is the identity and
    their core extent equals the tensor extent.  ``ranks=None`` selects ranks
    with :func:`estimate_ranks`: per mode, the count of projected-Gram
    eigenvalues above the noise edge, with the noise variance measured on the
    complement of the sieve spans (the eigenvalue ratio when no mode has a
    design).  ``max_iter`` must be an integer >= 1 and ``tol`` finite and
    >= 0; a fit that uses all ``max_iter`` sweeps without a subspace change
    below ``tol`` carries the flag ``"not converged after N sweeps"``.
    """
    _check_iteration_controls(max_iter, tol)
    Y = np.asarray(Y, dtype=float)
    if not np.all(np.isfinite(Y)):
        raise ValueError("tensor has non-finite entries")
    order = Y.ndim
    designs = _normalize_designs(designs, order)
    _check_design_shapes(Y, designs)
    identity_modes = tuple(sorted(set(identity_modes)))
    for m in identity_modes:
        if designs[m] is not None:
            raise ValueError(f"mode {m} is both an identity mode and has covariates")

    if ranks is None:
        ranks = estimate_ranks(Y, designs, skip_modes=identity_modes)
    # the pipeline's one rank check; it precedes the identity extents, which
    # may exceed the product of the other ranks
    ranks = list(check_tucker_ranks(ranks, Y.shape))
    for m in identity_modes:
        ranks[m] = Y.shape[m]
    ranks = tuple(ranks)

    # identity modes get a placeholder rank in the init call (their factor is
    # overwritten with the identity just below)
    init_ranks = tuple(1 if m in identity_modes else r
                       for m, r in enumerate(ranks))
    init = ipsvd_init(Y, designs, init_ranks)
    for m in identity_modes:
        init[m] = np.sqrt(Y.shape[m]) * np.eye(Y.shape[m])
    factors, trace, converged = ipsvd_iterate(
        Y, designs, ranks, init, max_iter=max_iter, tol=tol,
        update_order=update_order, fixed_modes=identity_modes)
    core = estimate_core(Y, factors)
    core, factors, flags = calibrate(core, factors, fixed_modes=identity_modes)
    a_loadings, gammas, coeffs = estimate_loadings(
        Y, designs, core, factors, identity_modes=identity_modes)

    # identity modes keep the plain identity loading; fold its sqrt(I) scale
    # into the core so reconstruction conventions match the other modes
    for m in identity_modes:
        core = core * np.sqrt(Y.shape[m])
        factors[m] = np.eye(Y.shape[m])

    if all(d is None for d in designs):
        flags.append("no sieve projection")
    if not converged:
        flags.append(f"not converged after {len(trace)} sweeps")

    diagnostics = _fit_diagnostics(Y, designs, core, factors, gammas, identity_modes)
    return StefaFit(core=core, g_loadings=factors, a_loadings=a_loadings,
                    gamma=gammas, sieve_coeffs=coeffs, ranks=ranks,
                    iterations_used=len(trace), subspace_change_trace=trace,
                    converged=converged, identity_modes=identity_modes,
                    flags=flags, diagnostics=diagnostics)


def _fit_diagnostics(Y, designs, core, factors, gammas, identity_modes):
    per_mode = []
    for m in range(Y.ndim):
        g = factors[m]
        ortho = float(np.linalg.norm(g.T @ g / Y.shape[m] - np.eye(g.shape[1])))
        gram = matricize(core, m)
        gram = gram @ gram.T
        off = gram - np.diag(np.diag(gram))
        entry = {
            "g_orthonormality_residual": ortho,
            "core_gram_offdiagonal_mass": float(np.linalg.norm(off)),
            "identity_mode": m in identity_modes,
        }
        d = designs[m]
        if d is not None:
            gm = gammas[m]
            denom = np.linalg.norm(gm) or 1.0
            entry["gamma_sieve_orthogonality"] = float(
                np.linalg.norm(d.phi.T @ gm) / denom)
        per_mode.append(entry)
    return {"per_mode": per_mode}


# ---------------------------------------------------------------------------
# rank selection

def _round_half_away(x: float) -> int:
    return int(np.floor(x + 0.5))


def estimate_ranks(Y: np.ndarray, designs=None, k_max: int | None = None,
                   skip_modes=(), return_profile: bool = False):
    """Noise-edge rank estimate per mode on the sieve-projected tensor.

    Z is Y contracted with every covariate mode's orthonormal sieve basis.
    The noise variance is estimated from the energy outside the sieve spans,
    ``sigma2 = (||Y||^2 - ||Z||^2) / (N - |Z|)``, which signal inside the
    spans does not reach.  The rank of mode m is the number of eigenvalues of
    the Gram of the n x p matricization Z_(m) above the noise edge
    ``sigma2 * (sqrt(n) + sqrt(p))^2``, the largest eigenvalue a pure-noise
    n x p matrix reaches (in the spirit of Onatski, 2010).  The profile holds
    ``lambda_k / edge``, so the chosen rank is the number of its entries
    above 1, clamped to at least 1.

    The count runs over k up to ``min(I_m, prod I_other) / 2`` (nearest
    integer), further capped one below the structural rank of the projected
    matricization.  A floor of ``1e-12 * lambda_1`` on the edge makes the
    noiseless case select the true rank.

    When no mode has a design (or every design spans its whole mode) there is
    no complement to measure the noise on; the rank is then the eigenvalue
    ratio argmax ``lambda_k / lambda_{k+1}`` over the same range, with the
    floor guarding the denominators, and the profile holds those ratios.
    """
    Y = np.asarray(Y, dtype=float)
    designs = _normalize_designs(designs, Y.ndim)
    _check_design_shapes(Y, designs)
    compressed = _compress(Y, designs)
    if not np.any(compressed):
        raise ValueError("projected tensor is zero; cannot estimate ranks")
    outside = Y.size - compressed.size
    sigma2 = None
    if outside > 0:
        energy = float(np.sum(Y ** 2)) - float(np.sum(compressed ** 2))
        sigma2 = max(energy, 0.0) / outside

    ranks = []
    profiles = []
    for m in range(Y.ndim):
        if m in skip_modes:
            ranks.append(Y.shape[m])
            profiles.append(np.array([]))
            continue
        mat = matricize(compressed, m)
        lam = np.clip(eigenvalues_symmetric(mat @ mat.T), 0.0, None)

        other = int(np.prod(Y.shape, dtype=np.int64)) // Y.shape[m]
        cap = _round_half_away(min(Y.shape[m], other) / 2.0)
        if k_max is not None:
            cap = min(cap, int(k_max))
        structural = min(mat.shape)
        d = designs[m]
        if d is not None:
            structural = min(structural, d.rank)
        cap = max(1, min(cap, structural - 1, lam.size - 1))

        floor = 1e-12 * lam[0] if lam[0] > 0 else 1e-300
        if sigma2 is None:
            profile = lam[:cap] / np.maximum(lam[1:cap + 1], floor)
            rank = int(np.argmax(profile)) + 1
        else:
            n, p = mat.shape
            edge = max(sigma2 * (np.sqrt(n) + np.sqrt(p)) ** 2, floor)
            profile = lam[:cap] / edge
            rank = max(1, int(np.count_nonzero(profile > 1.0)))
        ranks.append(rank)
        profiles.append(profile)
    ranks = tuple(ranks)
    return (ranks, profiles) if return_profile else ranks


# ---------------------------------------------------------------------------
# fit persistence (used by the CLI)

def _write_matrix_csv(path, mat, prefix="c"):
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    header = ",".join(f"{prefix}{j + 1}" for j in range(mat.shape[1]))
    np.savetxt(path, mat, delimiter=",", header=header, comments="")


def _read_matrix_csv(path):
    # ndmin=2 keeps a one-column file (a rank-1 mode) a column
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


_REPORT_KEYS = ("ranks", "iterations_used", "subspace_change_trace",
                "converged", "identity_modes", "flags", "diagnostics", "basis")
_BASIS_KEYS = ("family", "degree", "include_intercept", "domain")


def _require_keys(mapping, keys, where) -> None:
    missing = [k for k in keys if k not in mapping]
    if missing:
        raise ValueError(f"{where} lacks required key(s) "
                         f"{', '.join(repr(k) for k in missing)}")


def save_fit(fit: StefaFit, designs, out_dir) -> None:
    """Write a fit directory: core, per-mode matrices, covariates, report."""
    os.makedirs(out_dir, exist_ok=True)
    write_tns(os.path.join(out_dir, "core.tns"), fit.core)
    basis = {}
    for m in range(fit.order):
        _write_matrix_csv(os.path.join(out_dir, f"g_loadings_mode{m + 1}.csv"),
                          fit.g_loadings[m], "g")
        _write_matrix_csv(os.path.join(out_dir, f"a_loadings_mode{m + 1}.csv"),
                          fit.a_loadings[m], "a")
        _write_matrix_csv(os.path.join(out_dir, f"gamma_mode{m + 1}.csv"),
                          fit.gamma[m], "gamma")
        if fit.sieve_coeffs[m] is not None:
            _write_matrix_csv(os.path.join(out_dir, f"sieve_coeffs_mode{m + 1}.csv"),
                              fit.sieve_coeffs[m], "b")
        d = designs[m] if designs else None
        if d is not None:
            write_covariates_csv(
                os.path.join(out_dir, f"covariates_mode{m + 1}.csv"), d.covariates)
            basis[str(m)] = {"family": d.spec.family, "degree": d.spec.degree,
                             "include_intercept": d.spec.include_intercept,
                             "domain": list(d.spec.domain)}
    report = {
        "ranks": list(fit.ranks),
        "iterations_used": fit.iterations_used,
        "subspace_change_trace": [float(x) for x in fit.subspace_change_trace],
        "converged": fit.converged,
        "identity_modes": list(fit.identity_modes),
        "flags": fit.flags,
        "diagnostics": fit.diagnostics,
        "basis": basis,
    }
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=2)


def load_fit(fit_dir):
    """Read a fit directory back into ``(StefaFit, designs)``.

    Raises ``ValueError`` when ``report.json`` lacks a required key or when
    the core's extents disagree with the ranks or the loading shapes.
    """
    with open(os.path.join(fit_dir, "report.json")) as fh:
        report = json.load(fh)
    _require_keys(report, _REPORT_KEYS, "report.json")
    core = read_tns(os.path.join(fit_dir, "core.tns"))
    if tuple(report["ranks"]) != core.shape:
        raise ValueError(f"report.json ranks {report['ranks']} disagree with "
                         f"the core extents {list(core.shape)}")
    order = core.ndim
    g, a, gamma, coeffs, designs = [], [], [], [], []
    for m in range(order):
        g.append(_read_matrix_csv(os.path.join(fit_dir, f"g_loadings_mode{m + 1}.csv")))
        a.append(_read_matrix_csv(os.path.join(fit_dir, f"a_loadings_mode{m + 1}.csv")))
        gamma.append(_read_matrix_csv(os.path.join(fit_dir, f"gamma_mode{m + 1}.csv")))
        coeff_path = os.path.join(fit_dir, f"sieve_coeffs_mode{m + 1}.csv")
        coeffs.append(_read_matrix_csv(coeff_path) if os.path.exists(coeff_path) else None)
        # every loading is I_m x (core extent); G fixes I_m
        expected = (g[m].shape[0], core.shape[m])
        for name, mat in (("g_loadings", g[m]), ("a_loadings", a[m]),
                          ("gamma", gamma[m])):
            if mat.shape != expected:
                raise ValueError(f"{name}_mode{m + 1}.csv has shape {mat.shape}; "
                                 f"the core extent of mode {m + 1} is "
                                 f"{core.shape[m]}")
        info = report["basis"].get(str(m))
        if info is None:
            designs.append(None)
        else:
            _require_keys(info, _BASIS_KEYS, f"report.json basis for mode {m + 1}")
            spec = BasisSpec(family=info["family"], degree=info["degree"],
                             include_intercept=info["include_intercept"],
                             domain=tuple(info["domain"]))
            X, _ = read_covariates_csv(
                os.path.join(fit_dir, f"covariates_mode{m + 1}.csv"))
            designs.append(build_design(X, spec))
    fit = StefaFit(core=core, g_loadings=g, a_loadings=a, gamma=gamma,
                   sieve_coeffs=coeffs, ranks=tuple(report["ranks"]),
                   iterations_used=report["iterations_used"],
                   subspace_change_trace=report["subspace_change_trace"],
                   converged=report["converged"],
                   identity_modes=tuple(report["identity_modes"]),
                   flags=report["flags"], diagnostics=report["diagnostics"])
    return fit, designs
