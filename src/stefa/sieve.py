"""Sieve design matrices for covariate-driven loadings.

Each mode with covariates gets a design matrix Phi whose rows are additive
basis expansions of that mode's covariate vector: an optional intercept
followed by, for each covariate, the first ``degree`` Legendre polynomials
(or B-splines) evaluated after an affine map of the covariate's domain onto
[-1, 1].  The associated projector onto span(Phi) is kept as an orthonormal
column basis so rank-deficient designs are handled transparently.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import legendre as npleg
from scipy.interpolate import BSpline

__all__ = [
    "BasisSpec",
    "SieveDesign",
    "legendre_eval",
    "build_design",
    "projector_apply",
    "eval_basis",
    "eval_loading_function",
    "read_covariates_csv",
    "write_covariates_csv",
]

_FAMILIES = ("legendre", "bspline")


def legendre_eval(j: int, u) -> np.ndarray | float:
    """Legendre polynomial P_j on [-1, 1] (extrapolates polynomially outside)."""
    if j < 0:
        raise ValueError("degree must be >= 0")
    coeffs = np.zeros(j + 1)
    coeffs[j] = 1.0
    return npleg.legval(u, coeffs)


@dataclass(frozen=True)
class BasisSpec:
    """Additive sieve basis: ``1 + D*degree`` columns when the intercept is on."""

    family: str = "legendre"
    degree: int = 4
    include_intercept: bool = True
    domain: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown basis family {self.family!r}")
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        lo, hi = self.domain
        if not hi > lo:
            raise ValueError(f"empty covariate domain {self.domain}")

    def n_basis(self, n_covariates: int) -> int:
        return int(self.include_intercept) + n_covariates * self.degree


@dataclass
class SieveDesign:
    """Materialized design matrix and the orthonormal basis of its column space."""

    spec: BasisSpec
    covariates: np.ndarray          # I x D
    phi: np.ndarray                 # I x J
    basis: np.ndarray = field(repr=False)  # I x rank, orthonormal columns
    rank: int = 0

    @property
    def n_rows(self) -> int:
        return self.phi.shape[0]

    @property
    def n_basis(self) -> int:
        return self.phi.shape[1]


def _to_unit_interval(x: np.ndarray, domain) -> np.ndarray:
    lo, hi = domain
    return 2.0 * (x - lo) / (hi - lo) - 1.0


def _univariate_block(u: np.ndarray, spec: BasisSpec) -> np.ndarray:
    """Evaluate the ``degree`` univariate basis functions at mapped points u."""
    if spec.family == "legendre":
        cols = [legendre_eval(j, u) for j in range(1, spec.degree + 1)]
        return np.column_stack(cols)
    # cubic B-splines with uniform interior knots on [-1, 1]
    k = min(3, spec.degree - 1)
    n_interior = spec.degree - k - 1
    interior = np.linspace(-1.0, 1.0, n_interior + 2)[1:-1]
    knots = np.concatenate([np.full(k + 1, -1.0), interior, np.full(k + 1, 1.0)])
    uc = np.clip(u, -1.0, 1.0)
    return BSpline.design_matrix(uc, knots, k).toarray()


def eval_basis(X: np.ndarray, spec: BasisSpec) -> np.ndarray:
    """Rows of the design matrix for covariate rows ``X`` (shape n x D)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if not np.all(np.isfinite(X)):
        raise ValueError("covariates contain non-finite entries")
    blocks = []
    if spec.include_intercept:
        blocks.append(np.ones((X.shape[0], 1)))
    for d in range(X.shape[1]):
        u = _to_unit_interval(X[:, d], spec.domain)
        blocks.append(_univariate_block(u, spec))
    return np.hstack(blocks)


def build_design(X: np.ndarray, spec: BasisSpec) -> SieveDesign:
    """Build the sieve design and projector basis for one mode's covariates."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    # checked before the basis is evaluated, whose cost grows with the degree
    n, j = X.shape[0], spec.n_basis(X.shape[1])
    if j > n:
        raise ValueError(f"sieve dimension exceeds mode extent ({j} > {n})")
    phi = eval_basis(X, spec)
    u, s, _ = np.linalg.svd(phi, full_matrices=False)
    rank = int(np.sum(s > 1e-10 * s[0])) if s.size else 0
    return SieveDesign(spec=spec, covariates=X, phi=phi,
                       basis=np.ascontiguousarray(u[:, :rank]), rank=rank)


def projector_apply(design: SieveDesign, mat: np.ndarray) -> np.ndarray:
    """Project ``mat`` (rows indexed like the mode) onto span(Phi)."""
    mat = np.asarray(mat, dtype=float)
    if mat.shape[0] != design.n_rows:
        raise ValueError(f"row count {mat.shape[0]} does not match design "
                         f"extent {design.n_rows}")
    u = design.basis
    return u @ (u.T @ mat)


def eval_loading_function(spec: BasisSpec, B: np.ndarray, x: np.ndarray,
                          n_covariates: int | None = None) -> np.ndarray:
    """Evaluate fitted loading functions phi(x)^T B at covariate vector(s) x."""
    B = np.asarray(B, dtype=float)
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    X = np.atleast_2d(x)
    if n_covariates is not None and X.shape[1] != n_covariates:
        raise ValueError(f"expected {n_covariates} covariates, got {X.shape[1]}")
    phi = eval_basis(X, spec)
    if B.shape[0] != phi.shape[1]:
        raise ValueError(f"coefficient rows {B.shape[0]} do not match basis "
                         f"size {phi.shape[1]}")
    out = phi @ B
    return out[0] if single else out


def read_covariates_csv(path) -> tuple[np.ndarray, list[str]]:
    """Read a covariate CSV: one header row of names, then rows of finite
    numbers, one per name."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = [row for row in reader if row]
    if len(rows) < 2:
        raise ValueError(f"{path}: need a header row and at least one data row")
    names = [c.strip() for c in rows[0]]
    if any(len(row) != len(names) for row in rows[1:]):
        raise ValueError(f"{path}: ragged rows")
    try:
        data = np.array([[float(v) for v in row] for row in rows[1:]])
    except ValueError as exc:
        raise ValueError(f"{path}: non-numeric covariate value ({exc})") from None
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{path}: non-finite covariate value")
    return data, names


def write_covariates_csv(path, X: np.ndarray, names=None) -> None:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    names = names or [f"x{d + 1}" for d in range(X.shape[1])]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        writer.writerows(X.tolist())
