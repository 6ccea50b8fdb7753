"""Dense tensor algebra: matricization, mode products, truncated spectral factorizations.

Tensors are plain numpy arrays in C (row-major) layout, i.e. lexicographic
index order with the last index varying fastest.  Modes are 0-based.

The mode-m matricization puts mode-m fibers as columns; the remaining modes
are cycled in ascending order with the first remaining mode varying fastest.
For a 3-way tensor this gives the classical entry mapping
``unfold(t, 0)[i1, i2 + i3*I2] == t[i1, i2, i3]``.  :func:`matricize` copies
the tensor; the mode products and :func:`mode_gram` work on the C layout
directly and form no unfolding.

Layout contract of :func:`mode_product`: the result is a C-contiguous array,
and the input tensor is copied only when it is not C-contiguous.  So in a
chain of products (:func:`multi_mode_product`) only the first one may copy.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "matricize",
    "tensorize",
    "mode_product",
    "multi_mode_product",
    "mode_gram",
    "top_left_singular_vectors",
    "top_eigenvectors",
    "eigenvalues_symmetric",
    "fix_signs",
    "read_tns",
    "write_tns",
]


def _check_mode(t: np.ndarray, mode: int) -> None:
    if not 0 <= mode < t.ndim:
        raise ValueError(f"mode {mode} out of range for order-{t.ndim} tensor")


def _split_at(shape, mode) -> tuple[int, int, int]:
    """(P, I_mode, Q): the extents before, at and after ``mode``, so that a
    C-contiguous tensor reshapes to (P, I_mode, Q) without a copy."""
    return (int(np.prod(shape[:mode], dtype=np.int64)), shape[mode],
            int(np.prod(shape[mode + 1:], dtype=np.int64)))


def matricize(t: np.ndarray, mode: int) -> np.ndarray:
    """Unfold tensor ``t`` along ``mode`` into an I_m x prod(I_other) matrix."""
    t = np.asarray(t)
    _check_mode(t, mode)
    return np.reshape(np.moveaxis(t, mode, 0), (t.shape[mode], -1), order="F")


def tensorize(mat: np.ndarray, mode: int, dims) -> np.ndarray:
    """Inverse of :func:`matricize`: fold a matrix back into a tensor of shape ``dims``."""
    mat = np.asarray(mat)
    dims = tuple(int(d) for d in dims)
    if not 0 <= mode < len(dims):
        raise ValueError(f"mode {mode} out of range for dims {dims}")
    rest = [d for i, d in enumerate(dims) if i != mode]
    expected = (dims[mode], int(np.prod(rest, dtype=np.int64)))
    if mat.shape != expected:
        raise ValueError(f"matrix shape {mat.shape} does not match mode-{mode} "
                         f"unfolding {expected} of dims {dims}")
    t = np.reshape(mat, [dims[mode]] + rest, order="F")
    return np.moveaxis(t, 0, mode)


def mode_product(t: np.ndarray, mat: np.ndarray, mode: int) -> np.ndarray:
    """Mode-``mode`` product ``t x_mode mat``; ``mat`` has shape (new_dim, I_mode).

    The C-contiguous tensor is viewed as (P, I_mode, Q), P and Q the extents
    before and after the mode, and contracted by one matmul: one GEMM per
    leading index (a single GEMM for the first mode) or, for the last mode,
    one GEMM on the (P, I_mode) view.  The result is C-contiguous; ``t`` is
    copied only when it is not C-contiguous.
    """
    t = np.asarray(t)
    mat = np.asarray(mat)
    _check_mode(t, mode)
    if mat.ndim != 2 or mat.shape[1] != t.shape[mode]:
        raise ValueError(f"matrix shape {mat.shape} incompatible with mode-{mode} "
                         f"extent {t.shape[mode]}")
    t = np.ascontiguousarray(t)
    p, n, q = _split_at(t.shape, mode)
    shape = t.shape[:mode] + (mat.shape[0],) + t.shape[mode + 1:]
    if q > 1:
        out = mat @ t.reshape(p, n, q)
    elif mat.shape[0] < n:
        # narrowing the last mode: BLAS runs (mat @ T^T) faster than
        # (T @ mat^T), and the transposed result is small enough to copy
        out = np.ascontiguousarray((mat @ t.reshape(p, n).T).T)
    else:
        out = t.reshape(p, n) @ mat.T
    return out.reshape(shape)


def multi_mode_product(t: np.ndarray, mats) -> np.ndarray:
    """Apply mode products for several modes; ``mats`` maps mode -> matrix (or None)."""
    if isinstance(mats, dict):
        items = sorted(mats.items())
    else:
        items = list(enumerate(mats))
    # contract the largest reductions first to keep intermediates small
    items = [(m, a) for m, a in items if a is not None]
    items.sort(key=lambda ma: ma[1].shape[0] - ma[1].shape[1])
    out = t
    for mode, mat in items:
        out = mode_product(out, mat, mode)
    return out


def mode_gram(t: np.ndarray, mode: int) -> np.ndarray:
    """Gram matrix ``matricize(t, mode) @ matricize(t, mode).T``, summed over
    the C layout without forming the unfolding."""
    t = np.ascontiguousarray(t, dtype=float)
    _check_mode(t, mode)
    p, n, q = _split_at(t.shape, mode)
    if q == 1:
        flat = t.reshape(p, n)
        return flat.T @ flat
    gram = np.zeros((n, n))
    for block in t.reshape(p, n, q):
        gram += block @ block.T
    return gram


def fix_signs(u: np.ndarray) -> np.ndarray:
    """Flip column signs so each column's largest-magnitude entry is positive."""
    u = np.asarray(u)
    idx = np.argmax(np.abs(u), axis=0)
    signs = np.sign(u[idx, np.arange(u.shape[1])])
    signs[signs == 0] = 1.0
    return u * signs


def top_left_singular_vectors(mat: np.ndarray, r: int) -> np.ndarray:
    """Top-``r`` left singular vectors, sign-fixed for deterministic output.

    For very wide matrices the subspace is computed from the (small) Gram
    matrix instead of a full SVD; the two paths agree on the returned
    subspace whenever the r-th spectral gap is non-degenerate.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2:
        raise ValueError("expected a matrix")
    n, p = mat.shape
    if not 1 <= r <= min(n, p):
        raise ValueError(f"rank {r} not in [1, {min(n, p)}]")
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix has non-finite entries")
    if p > 4 * n:
        return top_eigenvectors(mat @ mat.T, r)
    u, _, _ = np.linalg.svd(mat, full_matrices=False)
    return fix_signs(u[:, :r])


def top_eigenvectors(gram: np.ndarray, r: int) -> np.ndarray:
    """Top-``r`` eigenvectors of a symmetric positive semi-definite matrix,
    sign-fixed; for a Gram ``M M^T`` they are the top left singular vectors
    of ``M``."""
    _, v = np.linalg.eigh(gram)
    return fix_signs(v[:, ::-1][:, :r])


def eigenvalues_symmetric(mat: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix in non-increasing order."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("expected a square matrix")
    scale = np.max(np.abs(mat)) or 1.0
    if np.max(np.abs(mat - mat.T)) > 1e-8 * scale:
        raise ValueError("matrix is not symmetric")
    return np.linalg.eigvalsh((mat + mat.T) / 2.0)[::-1]


def read_tns(path) -> np.ndarray:
    """Read the whitespace tensor text format.

    Line 1: order M.  Line 2: the M extents.  Then prod(dims) values in
    canonical (C, last-index-fastest) order.
    """
    with open(path) as fh:
        tokens = fh.read().split()
    if not tokens:
        raise ValueError(f"{path}: empty tensor file")
    order = int(tokens[0])
    if order < 1 or len(tokens) < 1 + order:
        raise ValueError(f"{path}: malformed header")
    dims = tuple(int(x) for x in tokens[1:1 + order])
    if any(d < 1 for d in dims):
        raise ValueError(f"{path}: non-positive extent in {dims}")
    count = int(np.prod(dims, dtype=np.int64))
    values = tokens[1 + order:]
    if len(values) != count:
        raise ValueError(f"{path}: expected {count} values, found {len(values)}")
    return np.array(values, dtype=float).reshape(dims, order="C")


def write_tns(path, t: np.ndarray) -> None:
    t = np.asarray(t, dtype=float)
    with open(path, "w") as fh:
        fh.write(f"{t.ndim}\n")
        fh.write(" ".join(str(d) for d in t.shape) + "\n")
        flat = t.ravel(order="C")
        for start in range(0, flat.size, 8):
            fh.write(" ".join(repr(float(v)) for v in flat[start:start + 8]) + "\n")
