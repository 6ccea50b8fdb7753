"""Covariate-projected tensor factor estimation.

Fits the semiparametric tensor factor model by iteratively projected SVD:
every mode update of the classical HOOI power iteration is projected onto
the sieve span of that mode's covariates, and the fitted core is rotated so
its mode-wise Gram matrices are diagonal with decreasing entries.  With B_m
the orthonormal sieve basis of mode m, a projected update satisfies
``P_m Y_(m) (x_j U_j) = B_m Z_(m) (x_j W_j)`` where Z is Y contracted with
every ``B_m^T`` and ``U_j = B_j W_j``; so IP-SVD, its spectral start
included, runs as HOOI on the sieve-compressed tensor Z, and its factors are
lifted by B_m at the end.  Modes without covariates stay uncompressed
(unprojected updates), so with no designs at all the machinery reduces to
plain HOOI, which shares the loop.

Every estimate after the data step lies in the sieve spans, so a fit reads Y
only through its sieve statistics (:func:`compress`, the projected-PCA
argument of Fan, Liao & Wang, 2016): ``||Y||^2``, Z, and per covariate mode
the leave-one-out compression ``L_m = Y x_{j != m} B_j^T``.  The ranks and
the iteration use Z and ``||Y||^2``, the core Z, and the loadings the L_m,
because ``Y x_{j != m} U_j^T = L_m x_{j != m} (B_j^T U_j)^T`` when each U_j
lies in span(B_j).  The L_m come from the contraction schedule of the
sweeps, so forming the statistics reads Y three times, whatever the order
of the tensor: once for ``||Y||^2`` and twice for the L_m.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .sieve import (BasisSpec, SieveDesign, build_design, projector_apply,
                    read_covariates_csv, write_covariates_csv)
from .tensor import (eigenvalues_symmetric, fix_signs, matricize, mode_gram,
                     mode_product, multi_mode_product, read_tns,
                     top_eigenvectors, top_left_singular_vectors, write_tns)

__all__ = [
    "EstimationError",
    "DegenerateCoreError",
    "RankExceedsSpanError",
    "HooiFit",
    "StefaFit",
    "SieveStats",
    "orthonormal_basis",
    "subspace_distance",
    "compress",
    "hooi",
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
    subspace_change_trace: list = field(default_factory=list)  # per sweep, max over modes

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


@dataclass(frozen=True, eq=False)
class SieveStats:
    """What a fit reads of the observed tensor Y; see :func:`compress`."""
    shape: tuple                  # extents of Y
    size: int                     # entry count of Y
    sq_norm: float                # ||Y||^2
    compressed: np.ndarray        # Z: Y contracted with every B_m^T
    leave_one_out: tuple          # per mode m, Y contracted with each B_j^T, j != m
    bases: tuple                  # per mode, the orthonormal sieve basis or None


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


def _check_ranks(dims, designs, ranks, identity_modes) -> tuple:
    """Per-mode ranks as ints, an identity mode's being its extent whatever
    ``ranks`` holds for it.  At least one mode must not be an identity
    mode.  Every other rank must lie in [1, I_m], not
    exceed the product of the other ranks (the Tucker condition, identity
    modes counting at their extent) and, on a covariate mode, fit its sieve
    span."""
    ranks = tuple(int(r) for r in ranks)
    if len(ranks) != len(dims):
        raise ValueError(f"{len(ranks)} ranks given for order-{len(dims)} tensor")
    for m in identity_modes:
        if designs[m] is not None:
            raise ValueError(f"mode {m} is both an identity mode and has covariates")
    ranks = tuple(d if m in identity_modes else r
                  for m, (r, d) in enumerate(zip(ranks, dims)))
    modes = [m for m in range(len(dims)) if m not in identity_modes]
    if not modes:
        raise ValueError("every mode is an identity mode; at least one mode "
                         "must be estimated")
    # every range first: the products below then neither overflow nor name
    # an out-of-range rank as the fault of another mode
    for m in modes:
        if not 1 <= ranks[m] <= dims[m]:
            raise ValueError(f"rank {ranks[m]} for mode {m} not in [1, {dims[m]}]")
    for m in modes:
        other = math.prod(ranks[:m] + ranks[m + 1:])
        if ranks[m] > other:
            raise ValueError(f"rank {ranks[m]} for mode {m} exceeds product of "
                             f"the other ranks ({other})")
    for m in modes:
        d = designs[m]
        if d is not None and ranks[m] > d.rank:
            raise RankExceedsSpanError(
                f"rank exceeds sieve span (mode {m}: rank {ranks[m]} > span {d.rank})")
    return ranks


def _check_iteration_controls(max_iter, tol) -> None:
    if not isinstance(max_iter, (int, np.integer)) or max_iter < 1:
        raise ValueError(f"max_iter must be an integer >= 1, got {max_iter!r}")
    if not (np.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")


@contextmanager
def _stage(timings, name):
    """Record the wall seconds of the ``with`` block as ``timings[name]``."""
    start = time.perf_counter()
    yield
    timings[name] = time.perf_counter() - start


def _contractions(T, units, modes):
    """Cycle through ``modes``, yielding ``(m, T contracted with units[j]^T
    for every j in modes but m)``; other modes are not contracted.  A caller
    may replace ``units[m]`` once m is yielded, as a Gauss-Seidel sweep does.

    T is read through one held partial ``P = T x_c units[c]^T``, c the mode
    before the first one yielded, which serves N - 1 contractions (N modes)
    and is released when c comes round: the first N contractions read T
    twice, every N - 1 more once.  A single mode's contraction is T itself.
    """
    if len(modes) == 1:
        yield from itertools.repeat((modes[0], T))
    held = None
    for k, m in itertools.cycle(enumerate(modes)):
        if held in (None, m):
            # release P before forming the next: both are as large as T / I_c
            partial = None
            held = modes[k - 1]
            partial = mode_product(T, units[held].T, held)
        yield m, multi_mode_product(partial, {j: units[j].T for j in modes
                                              if j != held and j != m})


def _power_iteration(T, ranks, modes, max_iter, tol):
    """Gauss-Seidel power iteration (HOOI sweeps) on ``T``; HOOI runs it on
    the observed tensor, IP-SVD on the sieve-compressed one.

    Each mode in ``modes`` starts from the top eigenvectors of T's mode Gram,
    and each sweep updates them in that order from :func:`_contractions`.

    Returns ``(units, changes, energies, core, converged)``: per mode the
    final unit (None outside ``modes``); per sweep, the largest subspace
    change over ``modes``; the energy ``||T x_m units[m]^T||^2`` the units
    capture before the first sweep and after each one; and the core
    ``T x_m units[m]^T`` of the final units.  The energies and the core come
    from the loop's own contractions.  The iteration stops after the first
    change below ``tol`` or after ``max_iter`` sweeps.
    """
    units = [top_eigenvectors(mode_gram(T, m), ranks[m]) if m in modes
             else None for m in range(T.ndim)]
    contractions = _contractions(T, units, modes)
    m, contracted = next(contractions)
    core = mode_product(contracted, units[m].T, m)
    changes, energies = [], [float(np.vdot(core, core))]
    # the first update takes the contraction the start energy came from
    contractions = itertools.chain([(m, contracted)], contractions)
    for _ in range(max_iter):
        prev = [units[m] for m in modes]
        for m, contracted in itertools.islice(contractions, len(modes)):
            units[m] = top_left_singular_vectors(matricize(contracted, m),
                                                 ranks[m])
        core = mode_product(contracted, units[m].T, m)
        energies.append(float(np.vdot(core, core)))
        changes.append(max(subspace_distance(units[m], p)
                           for m, p in zip(modes, prev)))
        if changes[-1] < tol:
            return units, changes, energies, core, True
    return units, changes, energies, core, False


# ---------------------------------------------------------------------------
# sieve statistics

def compress(Y: np.ndarray, designs=None, identity_modes=()) -> SieveStats:
    """Sieve statistics of the observed tensor Y: all that a fit reads of it.

    With B_m the orthonormal sieve basis of every mode m that has a design
    and is not in ``identity_modes`` (a covariate mode), the statistics hold
    ``||Y||^2``; the leave-one-out compressions ``L_m = Y x_{j != m} B_j^T``,
    one per covariate mode (each I_m x J x J for three covariate modes); the
    sieve-compressed tensor ``Z = L_m x_m B_m^T``; and the bases.  Other
    modes are neither compressed nor contracted, so on a mode without a
    basis the leave-one-out entry is Z itself, and with no designs Z and
    every entry are Y itself, not copies.

    Y is read three times: once by ``||Y||^2`` and twice by the compressions
    (:func:`_contractions`), along the first and the last covariate mode,
    whose products run faster than a middle mode's.  A finite ``||Y||^2``
    shows every entry finite; else a non-finite entry raises ``ValueError``
    and finite entries whose squares overflow :class:`EstimationError`.
    """
    Y = np.ascontiguousarray(Y, dtype=float)
    designs = _normalize_designs(designs, Y.ndim)
    _check_design_shapes(Y, designs)
    sq_norm = float(np.vdot(Y, Y))
    if not np.isfinite(sq_norm):
        if not np.all(np.isfinite(Y)):
            raise ValueError("tensor has non-finite entries")
        raise EstimationError("squared norm of the tensor overflows; rescale it")
    bases = tuple(None if d is None or m in identity_modes else d.basis
                  for m, d in enumerate(designs))
    covariate = [m for m, b in enumerate(bases) if b is not None]
    partial = dict(itertools.islice(
        _contractions(Y, bases, covariate[1:] + covariate[:1]), len(covariate)))
    compressed = Y
    if covariate:
        last = covariate[-1]
        compressed = mode_product(partial[last], bases[last].T, last)
    return SieveStats(shape=Y.shape, size=Y.size, sq_norm=sq_norm,
                      compressed=compressed,
                      leave_one_out=tuple(partial.get(m, compressed)
                                          for m in range(Y.ndim)),
                      bases=bases)


def _statistics(Y, designs, identity_modes):
    """``(stats, designs)``: the sieve statistics of ``Y``, formed here unless
    ``Y`` already is :class:`SieveStats`, and the per-mode designs, which
    must be the ones the statistics were compressed with."""
    stats = (Y if isinstance(Y, SieveStats)
             else compress(Y, designs, identity_modes))
    designs = _normalize_designs(designs, len(stats.shape))
    for m, (b, d) in enumerate(zip(stats.bases, designs)):
        if b is not (None if d is None or m in identity_modes else d.basis):
            raise ValueError(f"sieve statistics were not compressed with the "
                             f"design of mode {m}")
    return stats, designs


# ---------------------------------------------------------------------------
# HOOI baseline

def hooi(Y: np.ndarray, ranks, max_iter: int = 50, tol: float = 1e-8) -> HooiFit:
    """Higher-order orthogonal iteration with HOSVD initialization.

    The start takes the leading eigenvectors of each mode Gram, summed
    without unfolding Y.  The sweeps run on the observed tensor itself, in
    the power-iteration loop that :func:`ipsvd_iterate` runs on the
    sieve-compressed tensor, and read it N / (N - 1) times each for an
    order-N tensor (see :func:`_power_iteration`).  ``objective_trace``
    records the captured energy ``prod(I) * ||Y x_m U_m^T||^2`` before the
    first sweep and after each one, and ``subspace_change_trace`` each
    sweep's largest subspace change over the modes (a fit whose last change
    is not below ``tol`` has not converged).  Loadings are scaled so
    ``A^T A / I_m`` is the identity, and the final core is rotated so each
    mode-wise core Gram is diagonal with decreasing entries (the same
    calibration used by the projected estimator).  The start objective and
    the core come from the loop's contractions, so ``hooi(Y, r, max_iter=k,
    tol=0)`` reads Y in ``ceil(N k / (N - 1))`` mode products.
    ``max_iter`` must be an integer >= 1 and ``tol`` finite and >= 0, and
    Y's entries finite (checked by :func:`compress`).
    """
    _check_iteration_controls(max_iter, tol)
    stats = compress(Y)               # no designs: its tensor is Y itself
    Y = stats.compressed
    ranks = _check_ranks(Y.shape, [None] * Y.ndim, ranks, ())
    units, changes, energies, core, converged = _power_iteration(
        Y, ranks, list(range(Y.ndim)), max_iter, tol)
    trace = [Y.size * e for e in energies]

    # the least-squares core of the loadings sqrt(I_m) U_m is Y x_m U_m^T
    # times prod(sqrt(I_m)) / prod(I_m)
    scales = np.sqrt(np.asarray(Y.shape, dtype=float))
    loadings = [u * s for u, s in zip(units, scales)]
    core, loadings, _ = calibrate(core / np.sqrt(float(Y.size)), loadings)
    return HooiFit(core=core, loadings=loadings, ranks=ranks,
                   iterations_used=len(changes), objective_trace=trace,
                   converged=converged, subspace_change_trace=changes)


# ---------------------------------------------------------------------------
# iteratively projected SVD

def ipsvd_iterate(Y, designs, ranks, max_iter: int = 50, tol: float = 1e-8,
                  identity_modes=()):
    """Iteratively projected SVD: projected spectral start and projected
    power iterations (Gauss-Seidel over modes).

    ``Y`` is the observed tensor or its :class:`SieveStats` (from
    :func:`compress` with the same ``designs`` and ``identity_modes``).  The
    start and the sweeps run as HOOI on the sieve-compressed tensor Z, which
    is Y contracted with ``B_m^T`` on every covariate mode m.  The start
    of mode m is the top eigenvectors of Z's mode-m Gram, the coordinates
    ``W_m`` of the projected spectral start ``B_m W_m``; the sweeps update
    the W_m, whose subspace change the orthonormal B_m leaves unchanged, and
    the factors are lifted as ``fix_signs(B_m W_m) * sqrt(I_m)`` at the end.
    Modes without a design stay uncompressed.  Modes in ``identity_modes``
    (which have no design) are neither contracted nor updated: their rank is
    their extent, whatever ``ranks`` holds for them, and their factor is
    ``sqrt(I_m)`` times the identity.  The ranks of the other modes must be
    valid Tucker ranks, identity modes counting at their extent, and fit
    their sieve spans (:class:`RankExceedsSpanError` otherwise).

    Returns ``(factors, trace, converged)`` where ``trace`` holds the maximal
    per-sweep subspace change.
    """
    stats, designs = _statistics(Y, designs, identity_modes)
    ranks = _check_ranks(stats.shape, designs, ranks, identity_modes)
    scales = np.sqrt(np.asarray(stats.shape, dtype=float))
    modes = [m for m in range(len(stats.shape)) if m not in identity_modes]

    units, trace, _, _, converged = _power_iteration(
        stats.compressed, ranks, modes, max_iter, tol)

    factors = []
    for m, (u, b) in enumerate(zip(units, stats.bases)):
        if u is None:
            u = np.eye(stats.shape[m])
        elif b is not None:
            u = fix_signs(b @ u)
        factors.append(u * scales[m])
    return factors, trace, converged


def estimate_core(Y, factors) -> np.ndarray:
    """Least-squares core: Y contracted with every factor, divided by prod(I).

    From sieve statistics (:func:`compress`) the core is Z contracted with
    each factor's coordinates ``B_m^T G_m`` (``G_m`` itself on a mode without
    a basis), which equals the contraction of Y when each G_m lies in the
    span of B_m, as IP-SVD's factors do.
    """
    stats = Y if isinstance(Y, SieveStats) else compress(Y)
    for m, g in enumerate(factors):
        if g.shape[0] != stats.shape[m]:
            raise ValueError(f"factor for mode {m} has {g.shape[0]} rows, tensor "
                             f"extent is {stats.shape[m]}")
    coords = {m: (g if b is None else b.T @ g).T
              for m, (g, b) in enumerate(zip(factors, stats.bases))}
    return multi_mode_product(stats.compressed, coords) / float(stats.size)


def calibrate(core: np.ndarray, factors, identity_modes=()):
    """Rotate core and factors so each mode-wise core Gram is diagonal with
    decreasing entries.  Returns ``(core, factors, flags)``."""
    core = np.asarray(core, dtype=float)
    rotations = []
    flags = []
    for m in range(core.ndim):
        if m in identity_modes:
            rotations.append(np.eye(core.shape[m]))
            continue
        gram = mode_gram(core, m)
        w, v = np.linalg.eigh(gram)
        w, v = w[::-1], v[:, ::-1]
        if w.size > 1 and w[0] > 0 and np.min(w[:-1] - w[1:]) < 1e-10 * w[0]:
            flags.append(f"identification unstable (mode {m} eigenvalue gap)")
        rotations.append(fix_signs(v))
    new_core = multi_mode_product(core, {m: q.T for m, q in enumerate(rotations)})
    new_factors = [g @ q for g, q in zip(factors, rotations)]
    return new_core, new_factors, flags


def estimate_loadings(Y, designs, core: np.ndarray, g_loadings,
                      identity_modes=()):
    """Full loadings, their covariate-orthogonal parts, and sieve coefficients.

    The mode-m loading regresses the (other-mode projected) observation onto
    the core contracted with the other modes' G loadings; the orthogonal part
    is its residual after sieve projection.  The loading of a mode in
    ``identity_modes`` is the identity, so that mode is not contracted.

    ``Y`` is the observed tensor or its :class:`SieveStats`.  The G loadings
    lie in the sieve spans, so the mode-m contraction ``Y x_{j != m} U_j^T``
    (``U_j = G_j / sqrt(I_j)``) is formed from the statistics as
    ``S_m x_{j != m} c_j^T`` with coordinates ``c_j = B_j^T U_j`` (U_j on a
    mode without a basis), S_m being the leave-one-out compression L_m on a
    covariate mode and Z on a mode without a basis.
    """
    stats, designs = _statistics(Y, designs, identity_modes)
    shape = stats.shape
    scales = np.sqrt(np.asarray(shape, dtype=float))
    modes = [m for m in range(len(shape)) if m not in identity_modes]
    coords = {}
    for m in modes:
        u, b = g_loadings[m] / scales[m], stats.bases[m]
        coords[m] = (u if b is None else b.T @ u).T
    a_loadings, gammas, coeffs = [], [], []
    for m in range(len(shape)):
        if m in identity_modes:
            a_loadings.append(np.eye(shape[m]))
            gammas.append(np.zeros((shape[m], shape[m])))
            coeffs.append(None)
            continue
        gram = mode_gram(core, m)
        w = eigenvalues_symmetric(gram)
        if w[-1] < 1e-12 * np.trace(gram):
            raise DegenerateCoreError(
                f"degenerate core (mode {m}): rank may be misspecified")
        others = {j: c for j, c in coords.items() if j != m}
        contracted = multi_mode_product(stats.leave_one_out[m], others)
        numer = matricize(contracted, m) @ matricize(core, m).T
        a_m = numer @ np.linalg.pinv(gram, rcond=1e-12)
        a_m /= np.sqrt(stats.size / shape[m])
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


def fit_stefa(Y, designs=None, ranks=None, identity_modes=(),
              max_iter: int = 50, tol: float = 1e-8) -> StefaFit:
    """Full pipeline: sieve statistics (:func:`compress`), iteratively
    projected SVD (:func:`ipsvd_iterate`, which also checks the ranks), core
    projection, orthogonal calibration, and loading extraction.  Every stage
    after the first works on the statistics, so the fit reads Y three times;
    ``Y`` may also be statistics already compressed with ``designs`` and
    ``identity_modes``.  ``diagnostics["timings"]`` holds the wall seconds of
    each stage: compress, ranks (0 with given ranks), iterate, core,
    calibrate and loadings.

    ``designs`` is a per-mode list of :class:`SieveDesign` or None (no
    covariates for that mode, meaning unprojected updates).  Modes listed in
    ``identity_modes`` are not compressed: their loading is the identity and
    their core extent, and so their rank, equals the tensor extent (their
    entry in ``ranks`` is ignored).  ``ranks=None`` selects the other ranks
    with :func:`estimate_ranks`: per mode, the count of projected-Gram
    eigenvalues above the noise edge, with the noise variance measured on the
    complement of the sieve spans (the eigenvalue ratio when no mode has a
    design).  ``max_iter`` must be an integer >= 1 and ``tol`` finite and
    >= 0; a fit that uses all ``max_iter`` sweeps without a subspace change
    below ``tol`` carries the flag ``"not converged after N sweeps"``.
    """
    _check_iteration_controls(max_iter, tol)
    identity_modes = tuple(sorted(set(identity_modes)))
    timings = {}
    with _stage(timings, "compress"):
        stats, designs = _statistics(Y, designs, identity_modes)
    with _stage(timings, "ranks"):
        if ranks is None:
            ranks = estimate_ranks(stats, designs, identity_modes=identity_modes)
    with _stage(timings, "iterate"):
        factors, trace, converged = ipsvd_iterate(
            stats, designs, ranks, max_iter=max_iter, tol=tol,
            identity_modes=identity_modes)
    ranks = tuple(g.shape[1] for g in factors)
    with _stage(timings, "core"):
        core = estimate_core(stats, factors)
    with _stage(timings, "calibrate"):
        core, factors, flags = calibrate(core, factors, identity_modes)
    with _stage(timings, "loadings"):
        a_loadings, gammas, coeffs = estimate_loadings(
            stats, designs, core, factors, identity_modes=identity_modes)

    # identity modes keep the plain identity loading; fold its sqrt(I) scale
    # into the core so reconstruction conventions match the other modes
    for m in identity_modes:
        core = core * np.sqrt(stats.shape[m])
        factors[m] = np.eye(stats.shape[m])

    if all(d is None for d in designs):
        flags.append("no sieve projection")
    if not converged:
        flags.append(f"not converged after {len(trace)} sweeps")

    diagnostics = _fit_diagnostics(stats.shape, designs, core, factors, gammas,
                                   identity_modes)
    diagnostics["timings"] = timings
    return StefaFit(core=core, g_loadings=factors, a_loadings=a_loadings,
                    gamma=gammas, sieve_coeffs=coeffs, ranks=ranks,
                    iterations_used=len(trace), subspace_change_trace=trace,
                    converged=converged, identity_modes=identity_modes,
                    flags=flags, diagnostics=diagnostics)


def _fit_diagnostics(shape, designs, core, factors, gammas, identity_modes):
    per_mode = []
    for m in range(len(shape)):
        g = factors[m]
        ortho = float(np.linalg.norm(g.T @ g / shape[m] - np.eye(g.shape[1])))
        gram = mode_gram(core, m)
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


def estimate_ranks(Y, designs=None, k_max: int | None = None,
                   identity_modes=(), return_profile: bool = False):
    """Noise-edge rank estimate per mode on the sieve-projected tensor.

    ``Y`` is the observed tensor or its :class:`SieveStats` (compressed with
    ``designs`` and ``identity_modes``); the estimate reads only Z and
    ``||Y||^2``.  Z is Y contracted with every covariate mode's orthonormal
    sieve basis.  The rank of a mode in ``identity_modes`` is its extent.
    The noise variance is estimated from the energy outside the sieve spans,
    ``sigma2 = (||Y||^2 - ||Z||^2) / (N - |Z|)``, which signal inside the
    spans does not reach.  The rank of mode m is the number of eigenvalues of
    the Gram of the n x p matricization Z_(m) above the noise edge
    ``sigma2 * (sqrt(n) + sqrt(p))^2``, the largest eigenvalue a pure-noise
    n x p matrix reaches (in the spirit of Onatski, 2010).  The profile holds
    ``lambda_k / edge``, so the chosen rank is the number of its entries
    above 1, clamped to at least 1.  A mode whose count exceeds the product
    of the other modes' ranks (an identity mode counting its extent) gets
    that product, so the result is a valid Tucker rank.

    The count runs over k up to ``min(I_m, prod I_other) / 2`` (nearest
    integer) and ``k_max`` (None or an integer >= 1), further capped one below
    the structural rank of the projected matricization.  A floor of
    ``1e-12 * lambda_1`` on the edge makes the noiseless case select the
    true rank.

    When no mode has a design (or every design spans its whole mode) there is
    no complement to measure the noise on; the rank is then the eigenvalue
    ratio argmax ``lambda_k / lambda_{k+1}`` over the same range, with the
    floor guarding the denominators, and the profile holds those ratios.
    """
    if k_max is not None and not (isinstance(k_max, (int, np.integer)) and k_max >= 1):
        raise ValueError(f"k_max must be None or an integer >= 1, got {k_max!r}")
    stats, designs = _statistics(Y, designs, identity_modes)
    shape = stats.shape
    compressed = stats.compressed
    if not np.any(compressed):
        raise ValueError("projected tensor is zero; cannot estimate ranks")
    outside = stats.size - compressed.size
    sigma2 = None
    if outside > 0:
        energy = stats.sq_norm - float(np.vdot(compressed, compressed))
        sigma2 = max(energy, 0.0) / outside

    ranks = []
    profiles = []
    for m in range(len(shape)):
        if m in identity_modes:
            ranks.append(shape[m])
            profiles.append(np.array([]))
            continue
        lam = np.clip(eigenvalues_symmetric(mode_gram(compressed, m)), 0.0, None)
        n = compressed.shape[m]
        p = compressed.size // n

        other = stats.size // shape[m]
        cap = _round_half_away(min(shape[m], other) / 2.0)
        if k_max is not None:
            cap = min(cap, int(k_max))
        structural = min(n, p)
        d = designs[m]
        if d is not None:
            structural = min(structural, d.rank)
        cap = max(1, min(cap, structural - 1, lam.size - 1))

        floor = 1e-12 * lam[0] if lam[0] > 0 else 1e-300
        if sigma2 is None:
            profile = lam[:cap] / np.maximum(lam[1:cap + 1], floor)
            rank = int(np.argmax(profile)) + 1
        else:
            edge = max(sigma2 * (np.sqrt(n) + np.sqrt(p)) ** 2, floor)
            profile = lam[:cap] / edge
            rank = max(1, int(np.count_nonzero(profile > 1.0)))
        ranks.append(rank)
        profiles.append(profile)
    # counts chosen mode by mode can break the Tucker condition; at most one
    # mode can exceed the product of the others, and capping it there keeps
    # the rest valid
    for m in range(len(shape)):
        if m not in identity_modes:
            others = int(np.prod(ranks[:m] + ranks[m + 1:], dtype=np.int64))
            ranks[m] = min(ranks[m], others)
    ranks = tuple(ranks)
    return (ranks, profiles) if return_profile else ranks


# ---------------------------------------------------------------------------
# fit persistence (used by the CLI)

def _write_matrix_csv(path, mat, prefix="c"):
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    header = ",".join(f"{prefix}{j + 1}" for j in range(mat.shape[1]))
    np.savetxt(path, mat, delimiter=",", header=header, comments="")


def _read_matrix_csv(path, prefix):
    """Read a file of :func:`_write_matrix_csv`: the header ``{prefix}1,
    ..., {prefix}k``, then at least one row of k finite numbers."""
    name = os.path.basename(path)
    with open(path) as fh:
        names = fh.readline().rstrip("\r\n").split(",")
        rows = [line for line in fh if line.strip()]
    if names != [f"{prefix}{j + 1}" for j in range(len(names))]:
        raise ValueError(f"{name}: the header is not {prefix}1,{prefix}2,...")
    if not rows:
        raise ValueError(f"{name}: no data rows")
    try:
        # ndmin=2 keeps a one-column file (a rank-1 mode) a column
        mat = np.loadtxt(rows, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None
    if mat.shape[1] != len(names):
        raise ValueError(f"{name}: rows of {mat.shape[1]} values under "
                         f"{len(names)} column names")
    if not np.all(np.isfinite(mat)):
        raise ValueError(f"{name}: non-finite value")
    return mat


def _is(kind):
    return lambda v: isinstance(v, kind)


def _list_of(kind):
    return lambda v: isinstance(v, list) and all(isinstance(x, kind) for x in v)


# the layout of the fit directory that save_fit writes; a report.json without
# the key predates it and has layout 1
_FORMAT_VERSION = 1

# the required keys of report.json and of each mode's basis entry, with the
# type their values must have
_REPORT_KEYS = {
    "ranks": ("a list of integers", _list_of(int)),
    "iterations_used": ("an integer", _is(int)),
    "subspace_change_trace": ("a list of numbers", _list_of((int, float))),
    "converged": ("true or false", _is(bool)),
    "identity_modes": ("a list of integers", _list_of(int)),
    "flags": ("a list of strings", _list_of(str)),
    "diagnostics": ("an object", _is(dict)),
    "basis": ("an object", _is(dict)),
}
_BASIS_KEYS = {
    "family": ("a string", _is(str)),
    "degree": ("an integer", _is(int)),
    "include_intercept": ("true or false", _is(bool)),
    "domain": ("a list of numbers", _list_of((int, float))),
}


def _require_keys(mapping, keys, where) -> None:
    """Raise ``ValueError`` unless ``mapping`` is an object that holds every
    key of ``keys`` with a value of that key's type."""
    if not isinstance(mapping, dict):
        raise ValueError(f"{where} is not an object")
    missing = [k for k in keys if k not in mapping]
    if missing:
        raise ValueError(f"{where} lacks required key(s) "
                         f"{', '.join(repr(k) for k in missing)}")
    for key, (kind, test) in keys.items():
        if not test(mapping[key]):
            raise ValueError(f"{where} key {key!r} must be {kind}, got "
                             f"{mapping[key]!r}")


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
        "format_version": _FORMAT_VERSION,
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

    Raises ``ValueError`` when ``report.json`` lacks a required key, holds a
    value of the wrong type or a ``format_version`` other than 1 (a missing
    one reads as 1); when a matrix file lacks the header ``save_fit``
    writes, has no data rows, rows of unequal length or a non-finite value,
    or the core a non-finite value; or when the core's extents disagree with
    the ranks, the loading shapes or the sieve coefficients' (basis size by
    core extent), or the covariate rows with the loading rows.
    """
    with open(os.path.join(fit_dir, "report.json")) as fh:
        report = json.load(fh)
    _require_keys(report, _REPORT_KEYS, "report.json")
    version = report.get("format_version", _FORMAT_VERSION)
    if type(version) is not int or version != _FORMAT_VERSION:
        raise ValueError(f"report.json key 'format_version' must be "
                         f"{_FORMAT_VERSION}, got {version!r}")
    core = read_tns(os.path.join(fit_dir, "core.tns"))
    if not np.all(np.isfinite(core)):
        raise ValueError("core.tns has non-finite values")
    if tuple(report["ranks"]) != core.shape:
        raise ValueError(f"report.json ranks {report['ranks']} disagree with "
                         f"the core extents {list(core.shape)}")
    order = core.ndim
    g, a, gamma, coeffs, designs = [], [], [], [], []
    for m in range(order):
        g.append(_read_matrix_csv(
            os.path.join(fit_dir, f"g_loadings_mode{m + 1}.csv"), "g"))
        a.append(_read_matrix_csv(
            os.path.join(fit_dir, f"a_loadings_mode{m + 1}.csv"), "a"))
        gamma.append(_read_matrix_csv(
            os.path.join(fit_dir, f"gamma_mode{m + 1}.csv"), "gamma"))
        coeff_path = os.path.join(fit_dir, f"sieve_coeffs_mode{m + 1}.csv")
        coeffs.append(_read_matrix_csv(coeff_path, "b")
                      if os.path.exists(coeff_path) else None)
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
            if X.shape[0] != expected[0]:
                raise ValueError(f"covariates_mode{m + 1}.csv has {X.shape[0]} "
                                 f"rows; the loadings of mode {m + 1} have "
                                 f"{expected[0]}")
            designs.append(build_design(X, spec))
            shape = (designs[m].n_basis, core.shape[m])
            if coeffs[m] is not None and coeffs[m].shape != shape:
                raise ValueError(f"sieve_coeffs_mode{m + 1}.csv has shape "
                                 f"{coeffs[m].shape}, not {shape}")
    fit = StefaFit(core=core, g_loadings=g, a_loadings=a, gamma=gamma,
                   sieve_coeffs=coeffs, ranks=tuple(report["ranks"]),
                   iterations_used=report["iterations_used"],
                   subspace_change_trace=report["subspace_change_trace"],
                   converged=report["converged"],
                   identity_modes=tuple(report["identity_modes"]),
                   flags=report["flags"], diagnostics=report["diagnostics"])
    return fit, designs
