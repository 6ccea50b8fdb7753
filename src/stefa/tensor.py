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

Text tensor files (:func:`read_tns`, :func:`write_tns`) hold lossless
``repr`` values.  Parsing and formatting them hold the GIL, so a tensor of
more than 2**18 values is split into contiguous chunks, one per started 2**18
values and at most one per CPU this process may run on, each handled by a
worker process started with ``fork``.  Smaller tensors start no process, and
where ``fork`` or ``os.sched_getaffinity`` is missing everything runs in this
process.  A writing worker formats its chunk 2**13 values at a time, the
first straight into the destination and each other into a part file beside
it, and this process appends the parts in order, so no process holds the
text of the file.  The parsed array and the written file are identical for
any number of chunks.
"""

from __future__ import annotations

import multiprocessing
import os
import re
import shutil
import tempfile
from concurrent.futures import ProcessPoolExecutor

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

# text I/O starts one worker per started chunk of this many values: about
# 0.2 s of parsing or formatting, well above the 20-30 ms of a fork
_CHUNK_VALUES = 1 << 18
# values formatted at a time: about 0.2 MB of text and 0.5 MB of strings
_FORMAT_VALUES = 1 << 13
# one whitespace-delimited token (``\s`` is what ``str.split`` splits on)
_TOKEN = re.compile(r"\s*(\S+)")
_SPACE = re.compile(r"\s")


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


def _workers(count: int) -> int:
    """Chunks (and worker processes) for ``count`` values: one per started
    ``_CHUNK_VALUES`` values and at most one per CPU this process may run on;
    1 where ``fork`` is not a start method, the CPU set cannot be read or
    this process is a daemon (which may not start processes)."""
    if ("fork" not in multiprocessing.get_all_start_methods()
            or not hasattr(os, "sched_getaffinity")
            or multiprocessing.current_process().daemon):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), -(-count // _CHUNK_VALUES)))


def _map_chunks(func, chunks) -> list:
    """``[func(c) for c in chunks]``, one forked worker process per chunk when
    there is more than one.  The workers inherit ``func`` and the chunks
    through the fork, so only the results are pickled."""
    if len(chunks) == 1:
        return [func(chunks[0])]
    with ProcessPoolExecutor(max_workers=len(chunks),
                             mp_context=multiprocessing.get_context("fork"),
                             initializer=_inherit, initargs=(func, chunks)) as pool:
        return list(pool.map(_run_inherited, range(len(chunks))))


# (func, chunks) of the map a forked worker serves; set only in workers
_inherited = None


def _inherit(func, chunks) -> None:
    global _inherited
    _inherited = (func, chunks)


def _run_inherited(index: int):
    func, chunks = _inherited
    return func(chunks[index])


def _parse_values(text: str) -> np.ndarray:
    return np.array(text.split(), dtype=float)


def _format_values(values: np.ndarray) -> str:
    """Lines of 8 ``repr``s; the last line may be shorter."""
    items = list(map(repr, values.tolist()))
    return "".join(" ".join(items[i:i + 8]) + "\n"
                   for i in range(0, len(items), 8))


def _read_header(text: str, path) -> tuple[tuple[int, ...], int]:
    """The extents in the header of ``text`` and the offset where its values
    start."""
    token = _TOKEN.match(text)
    if token is None:
        raise ValueError(f"{path}: empty tensor file")
    order = int(token.group(1))
    if order < 1:
        raise ValueError(f"{path}: malformed header")
    extents = []
    for _ in range(order):
        token = _TOKEN.match(text, token.end())
        if token is None:
            raise ValueError(f"{path}: malformed header")
        extents.append(token.group(1))
    dims = tuple(int(x) for x in extents)
    if any(d < 1 for d in dims):
        raise ValueError(f"{path}: non-positive extent in {dims}")
    return dims, token.end()


def read_tns(path) -> np.ndarray:
    """Read the whitespace tensor text format.

    Line 1: order M.  Line 2: the M extents.  Then prod(dims) values in
    canonical (C, last-index-fastest) order.  The value text is cut at
    whitespace into n = min(CPUs this process may run on, ceil(values /
    2**18)) chunks and parsed in n forked worker processes (in this process
    when n == 1, and n is 1 where ``fork`` is not a start method).  The array
    is bit-identical for any n.
    """
    with open(path) as fh:
        text = fh.read()
    dims, start = _read_header(text, path)
    count = int(np.prod(dims, dtype=np.int64))
    n = _workers(count)
    cuts = [start]
    for i in range(1, n):
        space = _SPACE.search(text, max(start + (len(text) - start) * i // n,
                                        cuts[-1]))
        cuts.append(len(text) if space is None else space.start())
    cuts.append(len(text))
    chunks = [text[a:b] for a, b in zip(cuts, cuts[1:])]
    del text
    values = np.concatenate(_map_chunks(_parse_values, chunks))
    if values.size != count:
        raise ValueError(f"{path}: expected {count} values, found {values.size}")
    return values.reshape(dims, order="C")


def _append_values(chunk) -> None:
    """Append the lines of ``values`` to the file at ``path``, where
    ``chunk`` is the pair ``(values, path)``, formatting ``_FORMAT_VALUES``
    values at a time."""
    values, path = chunk
    with open(path, "a") as fh:
        for i in range(0, values.size, _FORMAT_VALUES):
            fh.write(_format_values(values[i:i + _FORMAT_VALUES]))


def write_tns(path, t: np.ndarray) -> None:
    """Write ``t`` in the format of :func:`read_tns`, 8 ``repr`` values a line.

    The values are cut at multiples of 8 into n = min(CPUs this process may
    run on, ceil(values / 2**18)) chunks, formatted in n forked worker
    processes (in this process when n == 1, and n is 1 where ``fork`` is not
    a start method).  The first chunk is appended to ``path`` after the
    header, each other chunk to a part file beside ``path``, and this process
    then appends the parts in order; it removes them, also when a worker
    fails.  No process holds the text of more than 2**13 values, and the file
    is byte-identical for any n.
    """
    t = np.asarray(t, dtype=float)
    flat = t.ravel(order="C")
    step = max(8, -(-flat.size // (8 * _workers(flat.size))) * 8)
    chunks = [flat[i:i + step] for i in range(0, flat.size, step)] or [flat]
    with open(path, "w") as fh:
        fh.write(f"{t.ndim}\n")
        fh.write(" ".join(str(d) for d in t.shape) + "\n")
    folder = os.path.dirname(os.path.abspath(path))
    parts = []
    try:
        for _ in chunks[1:]:
            fd, part = tempfile.mkstemp(suffix=".part", dir=folder)
            os.close(fd)
            parts.append(part)
        _map_chunks(_append_values, list(zip(chunks, [path] + parts)))
        with open(path, "ab") as out:
            for part in parts:
                with open(part, "rb") as src:
                    shutil.copyfileobj(src, out)
    finally:
        for part in parts:
            os.remove(part)
