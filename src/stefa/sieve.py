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

__all__ = [
    "BasisSpec",
    "SieveDesign",
    "build_design",
    "projector_apply",
    "eval_basis",
    "read_covariates_csv",
    "write_covariates_csv",
]

_FAMILIES = ("legendre", "bspline")


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

    @property
    def n_rows(self) -> int:
        return self.phi.shape[0]

    @property
    def n_basis(self) -> int:
        return self.phi.shape[1]

    @property
    def rank(self) -> int:
        """Dimension of span(Phi): the column count of ``basis``."""
        return self.basis.shape[1]


def _to_unit_interval(x: np.ndarray, domain) -> np.ndarray:
    lo, hi = domain
    return 2.0 * (x - lo) / (hi - lo) - 1.0


def _univariate_block(u: np.ndarray, spec: BasisSpec) -> np.ndarray:
    """Evaluate the ``degree`` univariate basis functions at mapped points u."""
    if spec.family == "legendre":
        # one coefficient column per degree 1..degree; legval is kept over
        # legvander, whose recurrence rounds differently at high degree
        return npleg.legval(u, np.eye(spec.degree + 1)[:, 1:]).T
    # cubic B-splines with uniform interior knots on [-1, 1]; scipy is
    # imported here, on first use, so Legendre sieves never load it
    from scipy.interpolate import BSpline
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
                       basis=np.ascontiguousarray(u[:, :rank]))


def projector_apply(design: SieveDesign, mat: np.ndarray) -> np.ndarray:
    """Project ``mat`` (rows indexed like the mode) onto span(Phi)."""
    mat = np.asarray(mat, dtype=float)
    if mat.shape[0] != design.n_rows:
        raise ValueError(f"row count {mat.shape[0]} does not match design "
                         f"extent {design.n_rows}")
    u = design.basis
    return u @ (u.T @ mat)


def read_covariates_csv(path) -> tuple[np.ndarray, list[str]]:
    """Read a numeric CSV, UTF-8 encoded: one header row of names, then rows
    of finite numbers, one per name.  A malformed file raises ``ValueError``
    naming ``path``."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            rows = [row for row in csv.reader(fh) if row]
        except csv.Error as exc:
            raise ValueError(f"{path}: {exc}") from None
        except UnicodeDecodeError:
            raise ValueError(f"{path}: not UTF-8 text") from None
    if len(rows) < 2:
        raise ValueError(f"{path}: need a header row and at least one data row")
    names = [c.strip() for c in rows[0]]
    if any(len(row) != len(names) for row in rows[1:]):
        raise ValueError(f"{path}: ragged rows")
    try:
        data = np.array([[float(v) for v in row] for row in rows[1:]])
    except ValueError as exc:
        raise ValueError(f"{path}: non-numeric value ({exc})") from None
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{path}: non-finite value")
    return data, names


def write_covariates_csv(path, X: np.ndarray, names=None) -> None:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    names = names or [f"x{d + 1}" for d in range(X.shape[1])]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        writer.writerows(X.tolist())
