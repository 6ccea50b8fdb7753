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
plain HOOI, which runs the same iteration on the statistics of Y alone.

Every estimate after the data step lies in the sieve spans, so a fit reads Y
only through its sieve statistics (:func:`compress`, the projected-PCA
argument of Fan, Liao & Wang, 2016): ``||Y||^2``, Z, and per covariate mode
the leave-one-out compression ``L_m = Y x_{j != m} B_j^T``.  The ranks and
the iteration use Z and ``||Y||^2``, the core Z, and the loadings the L_m,
because ``Y x_{j != m} U_j^T = L_m x_{j != m} (B_j^T U_j)^T`` when each U_j
lies in span(B_j).  The L_m come from the contraction schedule of the
sweeps, so forming the statistics reads Y three times, whatever the order
of the tensor: once for ``||Y||^2`` and twice for the L_m.  The statistics
carry their designs, so :func:`ipsvd_iterate` and :func:`estimate_loadings`
take statistics only, :func:`fit_stefa` and :func:`hooi` a tensor, and
:func:`estimate_ranks` either.  :func:`fit_stefa`, :func:`hooi` and
:func:`ipsvd_iterate` check given ranks before Y is read, so the iteration
they share checks nothing.
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
from .tensor import (fix_signs, matricize, mode_gram, mode_product,
                     multi_mode_product, read_tns, top_eigenvectors,
                     top_left_singular_vectors, write_tns)

__all__ = [
    "EstimationError",
    "DegenerateCoreError",
    "RankExceedsSpanError",
    "HooiFit",
    "StefaFit",
    "SieveStats",
    "subspace_distance",
    "compress",
    "hooi",
    "ipsvd_iterate",
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


def _orthonormal_basis(a: np.ndarray) -> np.ndarray:
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
    u = _orthonormal_basis(a)
    v = _orthonormal_basis(np.atleast_2d(np.asarray(b, dtype=float)))
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
    flags: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)

    @property
    def order(self) -> int:
        return self.core.ndim

    def reconstruct(self) -> np.ndarray:
        """Fitted signal: core contracted with the full loadings on every mode."""
        return multi_mode_product(self.core, self.a_loadings)


@dataclass(frozen=True, eq=False)
class SieveStats:
    """What a fit reads of the observed tensor Y; see :func:`compress`."""
    shape: tuple                  # extents of Y
    size: int                     # entry count of Y
    sq_norm: float                # ||Y||^2
    compressed: np.ndarray        # Z: Y contracted with every B_m^T
    leave_one_out: tuple          # per mode m, Y contracted with each B_j^T, j != m
    designs: tuple                # per mode, the SieveDesign of B_m or None


# ---------------------------------------------------------------------------
# shared machinery

def _normalize_designs(designs, dims) -> list:
    if designs is None:
        return [None] * len(dims)
    designs = list(designs)
    if len(designs) != len(dims):
        raise ValueError(f"{len(designs)} designs given for order-{len(dims)} tensor")
    for m, d in enumerate(designs):
        if d is not None and d.n_rows != dims[m]:
            raise ValueError(f"design for mode {m + 1} has {d.n_rows} rows, "
                             f"tensor extent is {dims[m]}")
    return designs


def _is_integer(x) -> bool:
    """An int or a numpy integer, but not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _check_ranks(dims, designs, ranks) -> tuple:
    """Per-mode ranks as ints, once ``designs`` (None, or one per mode) fit
    the extents ``dims``.  Each rank must be an int or a numpy integer (not a
    bool), lie in [1, I_m], not exceed the product of the other ranks (the
    Tucker condition) and, on a covariate mode, fit its sieve span."""
    designs = _normalize_designs(designs, dims)
    ranks = tuple(ranks)
    if len(ranks) != len(dims):
        raise ValueError(f"{len(ranks)} ranks given for order-{len(dims)} tensor")
    for m, r in enumerate(ranks):
        if not _is_integer(r):
            raise ValueError(f"rank {r!r} for mode {m + 1} is not an integer")
    ranks = tuple(int(r) for r in ranks)
    # every range first: the products below then neither overflow nor name
    # an out-of-range rank as the fault of another mode
    for m, (r, dim) in enumerate(zip(ranks, dims)):
        if not 1 <= r <= dim:
            raise ValueError(f"rank {r} for mode {m + 1} not in [1, {dim}]")
    for m, r in enumerate(ranks):
        other = math.prod(ranks[:m] + ranks[m + 1:])
        if r > other:
            raise ValueError(f"rank {r} for mode {m + 1} exceeds product of "
                             f"the other ranks ({other})")
    for m, (r, d) in enumerate(zip(ranks, designs)):
        if d is not None and r > d.rank:
            raise RankExceedsSpanError(
                f"rank exceeds sieve span (mode {m + 1}: "
                f"rank {r} > span {d.rank})")
    return ranks


def _check_iteration_controls(max_iter, tol) -> None:
    if not _is_integer(max_iter) or max_iter < 1:
        raise ValueError(f"max_iter must be an integer >= 1, got {max_iter!r}")
    if not (np.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")


def _check_k_max(k_max) -> None:
    if k_max is not None and not (_is_integer(k_max) and k_max >= 1):
        raise ValueError(f"k_max must be None or an integer >= 1, got {k_max!r}")


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


# ---------------------------------------------------------------------------
# sieve statistics

def compress(Y: np.ndarray, designs=None) -> SieveStats:
    """Sieve statistics of the observed tensor Y: all that a fit reads of it.

    With B_m the orthonormal sieve basis of every mode m that has a design
    (a covariate mode), the statistics hold ``||Y||^2``; the leave-one-out
    compressions ``L_m = Y x_{j != m} B_j^T``, one per covariate mode (each
    I_m x J x J for three covariate modes); the sieve-compressed tensor
    ``Z = L_m x_m B_m^T``; and the designs.  Other modes are neither
    compressed nor contracted, so on a mode without a basis the
    leave-one-out entry is Z itself, and with no designs Z and every entry
    are Y itself, not copies.

    Y is read three times: once by ``||Y||^2`` and twice by the compressions
    (:func:`_contractions`), along the first and the last covariate mode,
    whose products run faster than a middle mode's.  A finite ``||Y||^2``
    shows every entry finite; else a non-finite entry raises ``ValueError``
    and finite entries whose squares overflow :class:`EstimationError`.
    """
    Y = np.ascontiguousarray(Y, dtype=float)
    designs = _normalize_designs(designs, Y.shape)
    sq_norm = float(np.vdot(Y, Y))
    if not np.isfinite(sq_norm):
        if not np.all(np.isfinite(Y)):
            raise ValueError("tensor has non-finite entries")
        raise EstimationError("squared norm of the tensor overflows; rescale it")
    bases = tuple(None if d is None else d.basis for d in designs)
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
                      designs=tuple(designs))


# ---------------------------------------------------------------------------
# HOOI baseline

def hooi(Y: np.ndarray, ranks, max_iter: int = 50, tol: float = 1e-8) -> HooiFit:
    """Higher-order orthogonal iteration with HOSVD initialization.

    HOOI is IP-SVD without designs: :func:`ipsvd_iterate`'s iteration on
    ``compress(Y)``, whose tensor is Y itself, then :func:`calibrate`.  The
    start takes the leading eigenvectors of each mode Gram, summed without
    unfolding Y; each sweep reads Y N / (N - 1) times for an order-N tensor.
    ``objective_trace`` records the captured energy ``prod(I) * ||Y x_m
    U_m^T||^2`` before the first sweep and after each one, and
    ``subspace_change_trace`` each sweep's largest subspace change over the
    modes (a fit whose last change is not below ``tol`` has not converged).
    Loadings are scaled so ``A^T A / I_m`` is the identity, and the final
    core is rotated so each mode-wise core Gram is diagonal with decreasing
    entries.  The start objective and the core come from the loop's
    contractions, so ``hooi(Y, r, max_iter=k, tol=0)`` reads Y in ``ceil(N k
    / (N - 1))`` mode products.  The ranks must be valid Tucker ranks, and
    are checked before Y is read; ``max_iter`` must be an integer >= 1 and
    ``tol`` finite and >= 0, and Y's entries finite (checked by
    :func:`compress`).
    """
    _check_iteration_controls(max_iter, tol)
    ranks = _check_ranks(np.shape(Y), None, ranks)
    stats = compress(Y)
    loadings, changes, converged, core, energies = _iterate(
        stats, ranks, max_iter, tol)
    core, loadings, _ = calibrate(core, loadings)
    return HooiFit(core=core, loadings=loadings, ranks=core.shape,
                   iterations_used=len(changes),
                   objective_trace=[stats.size * e for e in energies],
                   converged=converged, subspace_change_trace=changes)


# ---------------------------------------------------------------------------
# iteratively projected SVD

def ipsvd_iterate(stats, ranks, max_iter: int = 50, tol: float = 1e-8):
    """Iteratively projected SVD: projected spectral start and projected
    power iterations (Gauss-Seidel over modes).

    ``stats`` are the sieve statistics of the observed tensor Y, from
    :func:`compress` with the designs they carry.  The start and the sweeps
    run as HOOI on the sieve-compressed tensor Z, which is Y contracted with
    ``B_m^T`` on every covariate mode m.  The start of mode m is the top
    eigenvectors of Z's mode-m Gram, the coordinates ``W_m`` of the projected
    spectral start ``B_m W_m``; the sweeps update the W_m, whose subspace
    change the orthonormal B_m leaves unchanged, and the factors are lifted
    as ``fix_signs(B_m W_m) * sqrt(I_m)`` at the end.  Modes without a
    design stay uncompressed and take the plain HOOI update.  The ranks must
    be valid Tucker ranks that fit their sieve spans
    (:class:`RankExceedsSpanError` otherwise), and are checked before the
    statistics are read; ``max_iter`` must be an integer >= 1 and ``tol``
    finite and >= 0.

    Returns ``(factors, trace, converged, core)`` where ``trace`` holds the
    maximal per-sweep subspace change and ``core`` is the least-squares core
    of the factors, Y contracted with each and divided by prod(I): the
    loop's ``Z x_m W_m^T`` over sqrt(prod(I)), its mode-m slices flipped
    with the lift's column signs.
    """
    _check_iteration_controls(max_iter, tol)
    ranks = _check_ranks(stats.shape, stats.designs, ranks)
    return _iterate(stats, ranks, max_iter, tol)[:4]


def _iterate(stats, ranks, max_iter, tol):
    """Gauss-Seidel power iteration (HOOI sweeps) on the sieve-compressed
    tensor Z of ``stats`` (Y itself for :func:`hooi`), then the lift: the
    body of :func:`ipsvd_iterate` after its checks.  Each mode starts from
    the top eigenvectors of Z's mode Gram; each sweep updates the modes in
    order from :func:`_contractions`, until the first subspace change below
    ``tol`` or ``max_iter`` sweeps.  Returns :func:`ipsvd_iterate`'s
    ``(factors, trace, converged, core)``, then the energies ``||Z x_m
    units[m]^T||^2`` before the first sweep and after each one; they and the
    core come from the loop's own contractions.
    """
    T = stats.compressed
    modes = list(range(T.ndim))
    units = [top_eigenvectors(mode_gram(T, m), ranks[m]) for m in modes]
    contractions = _contractions(T, units, modes)
    m, contracted = next(contractions)
    core = mode_product(contracted, units[m].T, m)
    trace, energies = [], [float(np.vdot(core, core))]
    # the first update takes the contraction the start energy came from
    contractions = itertools.chain([(m, contracted)], contractions)
    for _ in range(max_iter):
        prev = list(units)
        for m, contracted in itertools.islice(contractions, len(modes)):
            units[m] = top_left_singular_vectors(matricize(contracted, m),
                                                 ranks[m])
        core = mode_product(contracted, units[m].T, m)
        energies.append(float(np.vdot(core, core)))
        trace.append(max(subspace_distance(u, p)
                         for u, p in zip(units, prev)))
        if trace[-1] < tol:
            break

    scales = np.sqrt(np.asarray(stats.shape, dtype=float))
    factors = []
    for m, (u, d, s) in enumerate(zip(units, stats.designs, scales)):
        if d is not None:
            lifted = d.basis @ u
            u = fix_signs(lifted)
            signs = np.where((u == lifted).all(axis=0), 1.0, -1.0)
            core = core * signs.reshape((-1,) + (1,) * (core.ndim - m - 1))
        factors.append(u * s)
    return (factors, trace, bool(trace[-1] < tol),
            core / np.sqrt(float(stats.size)), energies)


def calibrate(core: np.ndarray, factors):
    """Rotate core and factors so each mode-wise core Gram is diagonal with
    decreasing entries.  Returns ``(core, factors, flags)``."""
    core = np.asarray(core, dtype=float)
    rotations = []
    flags = []
    for m in range(core.ndim):
        gram = mode_gram(core, m)
        w, v = np.linalg.eigh(gram)
        w, v = w[::-1], v[:, ::-1]
        if w.size > 1 and w[0] > 0 and np.min(w[:-1] - w[1:]) < 1e-10 * w[0]:
            flags.append(f"identification unstable (mode {m + 1} "
                         "eigenvalue gap)")
        rotations.append(fix_signs(v))
    new_core = multi_mode_product(core, {m: q.T for m, q in enumerate(rotations)})
    new_factors = [g @ q for g, q in zip(factors, rotations)]
    return new_core, new_factors, flags


def estimate_loadings(stats: SieveStats, core: np.ndarray, g_loadings):
    """Full loadings, their covariate-orthogonal parts, and sieve coefficients.

    The mode-m loading regresses the (other-mode projected) observation onto
    the core contracted with the other modes' G loadings; the orthogonal part
    is its residual after sieve projection.

    ``stats`` are the sieve statistics of the observed tensor Y (from
    :func:`compress`), whose designs give the projections.  The G loadings
    lie in the sieve spans, so the mode-m contraction ``Y x_{j != m} U_j^T``
    (``U_j = G_j / sqrt(I_j)``) is formed from the statistics as
    ``S_m x_{j != m} c_j^T`` with coordinates ``c_j = B_j^T U_j`` (U_j on a
    mode without a design), S_m being the leave-one-out compression L_m on a
    covariate mode and Z on a mode without a design.
    """
    shape = stats.shape
    scales = np.sqrt(np.asarray(shape, dtype=float))
    coords = {}
    for m, d in enumerate(stats.designs):
        u = g_loadings[m] / scales[m]
        coords[m] = (u if d is None else d.basis.T @ u).T
    a_loadings, gammas, coeffs = [], [], []
    for m in range(len(shape)):
        gram = mode_gram(core, m)
        w = np.linalg.eigvalsh(gram)[::-1]
        if not w[-1] > 1e-12 * np.trace(gram):
            raise DegenerateCoreError(
                f"degenerate core (mode {m + 1}): rank may be misspecified")
        others = {j: c for j, c in coords.items() if j != m}
        contracted = multi_mode_product(stats.leave_one_out[m], others)
        numer = matricize(contracted, m) @ matricize(core, m).T
        a_m = numer @ np.linalg.pinv(gram, rcond=1e-12)
        a_m /= np.sqrt(stats.size / shape[m])
        a_loadings.append(a_m)

        d = stats.designs[m]
        if d is None:
            gammas.append(a_m.copy())
            coeffs.append(None)
        else:
            gammas.append(a_m - projector_apply(d, a_m))
            b_m, *_ = np.linalg.lstsq(d.phi, g_loadings[m], rcond=1e-12)
            coeffs.append(b_m)
    return a_loadings, gammas, coeffs


def fit_stefa(Y: np.ndarray, designs=None, ranks=None, max_iter: int = 50,
              tol: float = 1e-8) -> StefaFit:
    """Full pipeline on the observed tensor Y: sieve statistics
    (:func:`compress`), iteratively projected SVD (:func:`ipsvd_iterate`,
    whose loop also forms the core), orthogonal calibration, and loading
    extraction.  Given ranks are checked before Y is read.  Every stage
    after the first takes the statistics, so the fit reads Y three times.
    ``diagnostics["timings"]`` holds the wall seconds of each stage:
    compress, ranks (0 with given ranks), iterate, calibrate and loadings.

    ``designs`` is a per-mode list of :class:`SieveDesign` or None (no
    covariates for that mode, meaning unprojected updates).  ``ranks=None``
    selects the ranks with :func:`estimate_ranks`: per mode, the count of
    projected-Gram eigenvalues above the noise edge, with the noise variance
    measured on the complement of the sieve spans (on each mode's Gram
    spectrum when there is no complement).  ``max_iter`` must be an integer
    >= 1 and ``tol`` finite and >= 0; a fit that uses all ``max_iter`` sweeps without a
    subspace change below ``tol`` carries the flag ``"not converged after N
    sweeps"``.
    """
    _check_iteration_controls(max_iter, tol)
    if ranks is not None:
        ranks = _check_ranks(np.shape(Y), designs, ranks)
    timings = {}
    with _stage(timings, "compress"):
        stats = compress(Y, designs)
    with _stage(timings, "ranks"):
        if ranks is None:
            ranks = estimate_ranks(stats)
    with _stage(timings, "iterate"):
        factors, trace, converged, core = ipsvd_iterate(
            stats, ranks, max_iter=max_iter, tol=tol)
    with _stage(timings, "calibrate"):
        core, factors, flags = calibrate(core, factors)
    with _stage(timings, "loadings"):
        a_loadings, gammas, coeffs = estimate_loadings(stats, core, factors)

    if all(d is None for d in stats.designs):
        flags.append("no sieve projection")
    if not converged:
        flags.append(f"not converged after {len(trace)} sweeps")

    return StefaFit(core=core, g_loadings=factors, a_loadings=a_loadings,
                    gamma=gammas, sieve_coeffs=coeffs, ranks=ranks,
                    iterations_used=len(trace), subspace_change_trace=trace,
                    converged=converged, flags=flags,
                    diagnostics={"timings": timings})


# ---------------------------------------------------------------------------
# rank selection

def _median_noise_variance(lam, n, p) -> float:
    """Noise variance of an n x p matrix from the median of its nonzero Gram
    eigenvalues ``lam``: that median over the Marchenko-Pastur median of ratio
    min/max, times max(n, p) (Gavish & Donoho, 2014)."""
    beta = min(n, p) / max(n, p)
    # x(theta) sweeps the law's support, where its density is
    # 2 sin(theta)^2 / (pi x) dtheta: smooth, so a midpoint grid integrates it
    theta = (np.arange(4096) + 0.5) * (np.pi / 4096)
    x = 1 + beta - 2 * np.sqrt(beta) * np.cos(theta)
    mass = np.sin(theta) ** 2 / x
    cdf = np.cumsum(mass) - mass / 2
    mp_median = np.interp(0.5 * cdf[-1], cdf, x)
    return float(np.median(lam[:min(n, p)])) / (max(n, p) * mp_median)


def estimate_ranks(Y, designs=None, k_max: int | None = None,
                   return_profile: bool = False):
    """Noise-edge rank estimate per mode on the sieve-projected tensor.

    ``Y`` is the observed tensor, compressed here with ``designs``, or its
    :class:`SieveStats`, which carry their designs (``designs`` given as well
    raises ``ValueError``); the estimate reads only Z and ``||Y||^2``.  Z is
    Y contracted with every covariate mode's orthonormal sieve basis.  The
    noise variance is estimated from the energy outside the sieve spans,
    ``sigma2 = (||Y||^2 - ||Z||^2) / (N - |Z|)``, which signal inside the
    spans does not reach.  When there is no such complement (no mode has a
    design, or every design spans its whole mode), each mode estimates it from
    the median eigenvalue of its own Gram (:func:`_median_noise_variance`),
    which a few signal eigenvalues barely move.  The rank of mode m is the
    number of eigenvalues of the Gram of the n x p matricization Z_(m) above
    the noise edge ``sigma2 * (sqrt(n) + sqrt(p))^2``, the largest eigenvalue
    a pure-noise n x p matrix reaches (in the spirit of Onatski, 2010).  The
    profile holds ``lambda_k / edge``, so the chosen rank is the number of
    its entries above 1, clamped to at least 1.  A mode whose count exceeds
    the product of the other modes' ranks gets that product, so the result
    is a valid Tucker rank.

    The count runs over k up to ``min(I_m, prod I_other) / 2`` (nearest
    integer) and ``k_max`` (None or an integer >= 1), further capped one below
    the structural rank of the projected matricization.  A floor of
    ``1e-12 * lambda_1`` on the edge (``1e-300`` when the Gram underflows to
    zero) makes the noiseless case select the true rank.
    """
    _check_k_max(k_max)
    if isinstance(Y, SieveStats) and designs is not None:
        raise ValueError("sieve statistics carry their designs; pass none")
    stats = Y if isinstance(Y, SieveStats) else compress(Y, designs)
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
        lam = np.clip(np.linalg.eigvalsh(mode_gram(compressed, m))[::-1], 0.0,
                      None)
        n = compressed.shape[m]
        p = compressed.size // n

        other = stats.size // shape[m]
        cap = (min(shape[m], other) + 1) // 2
        if k_max is not None:
            cap = min(cap, k_max)
        cap = max(1, min(cap, min(n, p) - 1))

        noise = _median_noise_variance(lam, n, p) if sigma2 is None else sigma2
        floor = 1e-12 * lam[0] if lam[0] > 0 else 1e-300
        edge = max(noise * (np.sqrt(n) + np.sqrt(p)) ** 2, floor)
        profile = lam[:cap] / edge
        ranks.append(max(1, int(np.count_nonzero(profile > 1.0))))
        profiles.append(profile)
    # counts chosen mode by mode can break the Tucker condition; at most one
    # mode can exceed the product of the others, and capping it there keeps
    # the rest valid
    for m in range(len(shape)):
        others = math.prod(ranks[:m] + ranks[m + 1:])
        ranks[m] = min(ranks[m], others)
    ranks = tuple(ranks)
    return (ranks, profiles) if return_profile else ranks


# ---------------------------------------------------------------------------
# fit persistence (used by the CLI)

def _matrix_names(prefix, k) -> list[str]:
    return [f"{prefix}{j + 1}" for j in range(k)]


def _read_matrix_csv(path, prefix):
    """Read a matrix file of :func:`save_fit`: a numeric CSV whose first line
    is exactly ``{prefix}1,...,{prefix}k``, without quotes or spaces."""
    mat, names = read_covariates_csv(path)
    with open(path) as fh:
        header = fh.readline().rstrip("\r\n")
    if header != ",".join(_matrix_names(prefix, len(names))):
        raise ValueError(f"{path}: the header is not {prefix}1,{prefix}2,...")
    return mat


def _list_of(test):
    return lambda v: isinstance(v, list) and all(map(test, v))


def _is_number(v) -> bool:
    return isinstance(v, float) or _is_integer(v)


# the layout of the fit directory that save_fit writes; a report.json without
# the key predates it and has layout 1
_FORMAT_VERSION = 1

# the per-mode matrix files {field}_mode{m}.csv of a fit directory: the
# StefaFit field each holds and its column-header prefix.  The sieve
# coefficients exist on a mode exactly when report.json has its basis.
_MATRIX_FILES = (("g_loadings", "g"), ("a_loadings", "a"), ("gamma", "gamma"),
                 ("sieve_coeffs", "b"))

# the required keys of report.json and of each mode's basis entry, with the
# type their values must have (JSON's true and false are not numbers)
_REPORT_KEYS = {
    "ranks": ("a list of integers", _list_of(_is_integer)),
    "iterations_used": ("an integer", _is_integer),
    "subspace_change_trace": ("a list of numbers", _list_of(_is_number)),
    "converged": ("true or false", lambda v: isinstance(v, bool)),
    # a layout-1 key from when a fit could hold identity modes; always empty
    "identity_modes": ("an empty list", lambda v: v == []),
    "flags": ("a list of strings", _list_of(lambda v: isinstance(v, str))),
    "diagnostics": ("an object", lambda v: isinstance(v, dict)),
    "basis": ("an object", lambda v: isinstance(v, dict)),
}
_BASIS_KEYS = {
    "family": ("a string", lambda v: isinstance(v, str)),
    "degree": ("an integer", _is_integer),
    "include_intercept": ("true or false", lambda v: isinstance(v, bool)),
    "domain": ("a list of numbers", _list_of(_is_number)),
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
        for name, prefix in _MATRIX_FILES:
            mat = getattr(fit, name)[m]
            if mat is not None:
                write_covariates_csv(
                    os.path.join(out_dir, f"{name}_mode{m + 1}.csv"), mat,
                    _matrix_names(prefix, mat.shape[1]))
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
        "identity_modes": [],
        "flags": fit.flags,
        "diagnostics": fit.diagnostics,
        "basis": basis,
    }
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=2)


def load_fit(fit_dir):
    """Read a fit directory back into ``(StefaFit, designs)``.

    A mode's ``sieve_coeffs_mode{m}.csv`` is read exactly when ``report.json``
    holds that mode's basis: a missing one raises ``OSError``, and one on a
    mode without a basis is not read.  Raises ``ValueError`` when
    ``report.json`` is not JSON, nests too deeply to parse, lacks a required
    key, holds a value of the wrong type (an ``identity_modes`` other than
    the empty list among them) or a ``format_version`` other than 1 (a
    missing one reads as 1); when a matrix file lacks the header ``save_fit``
    writes or is not a numeric CSV that
    :func:`~stefa.sieve.read_covariates_csv` reads, or the core has a
    non-finite value; or when ``iterations_used`` disagrees with the length
    of ``subspace_change_trace``, the core's extents with the ranks, a
    matrix's shape with the core (a loading or gamma is I_m by the core
    extent, with I_m the rows of G; the coefficients are the basis size by
    the core extent), or the covariate rows with the loading rows.  An error
    in building a mode's design names its covariate file.
    """
    with open(os.path.join(fit_dir, "report.json")) as fh:
        try:
            report = json.load(fh)
        except RecursionError:
            raise ValueError("report.json nests too deeply to parse") from None
    _require_keys(report, _REPORT_KEYS, "report.json")
    version = report.get("format_version", _FORMAT_VERSION)
    if type(version) is not int or version != _FORMAT_VERSION:
        raise ValueError(f"report.json key 'format_version' must be "
                         f"{_FORMAT_VERSION}, got {version!r}")
    if report["iterations_used"] != len(report["subspace_change_trace"]):
        raise ValueError("report.json iterations_used disagrees with the "
                         "length of subspace_change_trace")
    core = read_tns(os.path.join(fit_dir, "core.tns"))
    if not np.all(np.isfinite(core)):
        raise ValueError("core.tns has non-finite values")
    if tuple(report["ranks"]) != core.shape:
        raise ValueError(f"report.json ranks {report['ranks']} disagree with "
                         f"the core extents {list(core.shape)}")
    matrices = {name: [] for name, _ in _MATRIX_FILES}
    designs = []
    for m in range(core.ndim):
        info = report["basis"].get(str(m))
        design = None
        if info is not None:
            _require_keys(info, _BASIS_KEYS, f"report.json basis for mode {m + 1}")
            spec = BasisSpec(family=info["family"], degree=info["degree"],
                             include_intercept=info["include_intercept"],
                             domain=tuple(info["domain"]))
            path = os.path.join(fit_dir, f"covariates_mode{m + 1}.csv")
            X, _ = read_covariates_csv(path)
            try:
                design = build_design(X, spec)
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None
        designs.append(design)
        for name, prefix in _MATRIX_FILES:
            if name == "sieve_coeffs" and design is None:
                matrices[name].append(None)
                continue
            file = f"{name}_mode{m + 1}.csv"
            mat = _read_matrix_csv(os.path.join(fit_dir, file), prefix)
            # a loading or gamma is I_m x (core extent), with G (read first)
            # fixing I_m; the coefficients are J x (core extent)
            if name == "g_loadings":
                n_rows = mat.shape[0]
            shape = (design.n_basis if name == "sieve_coeffs" else n_rows,
                     core.shape[m])
            if mat.shape != shape:
                raise ValueError(f"{file} has shape {mat.shape}, not {shape}")
            matrices[name].append(mat)
        if design is not None and design.n_rows != n_rows:
            raise ValueError(f"covariates_mode{m + 1}.csv has {design.n_rows} "
                             f"rows; the loadings of mode {m + 1} have {n_rows}")
    fit = StefaFit(core=core, **matrices, ranks=tuple(report["ranks"]),
                   iterations_used=report["iterations_used"],
                   subspace_change_trace=report["subspace_change_trace"],
                   converged=report["converged"], flags=report["flags"],
                   diagnostics=report["diagnostics"])
    return fit, designs
