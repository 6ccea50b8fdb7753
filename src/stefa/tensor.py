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
process.  A file is read through one read-only memory map: this process
matches the header and cuts the values at ASCII whitespace there, and each
reading worker decodes and parses its own slice of the mapping.  A writing
worker formats its chunk 2**13 values at a time, the first straight into the
destination and each other into a part file beside it, and this process
appends the parts in order.  So no process holds the text of the file.  The parsed array and the
written file are identical for any number of chunks.
"""

from __future__ import annotations

import math
import mmap
import multiprocessing
import os
import re
import shutil
import tempfile
from concurrent.futures import ProcessPoolExecutor

import numpy as np

__all__ = [
    "matricize",
    "mode_product",
    "multi_mode_product",
    "mode_gram",
    "top_left_singular_vectors",
    "top_eigenvectors",
    "fix_signs",
    "read_tns",
    "write_tns",
]

# text I/O starts one worker per started chunk of this many values: about
# 0.2 s of parsing or formatting, well above the 20-30 ms of a fork
_CHUNK_VALUES = 1 << 18
# values formatted at a time: about 0.2 MB of text and 0.5 MB of strings
_FORMAT_VALUES = 1 << 13
# numpy's largest number of dimensions
_MAX_ORDER = 64
# one token delimited by ASCII whitespace bytes, which never sit inside a
# UTF-8 sequence
_TOKEN = re.compile(rb"\s*(\S+)")
_SPACE_BYTE = re.compile(rb"\s")


def _check_mode(t: np.ndarray, mode: int) -> None:
    if not 0 <= mode < t.ndim:
        raise ValueError(f"mode {mode} out of range for order-{t.ndim} tensor")


def _split_at(shape, mode) -> tuple[int, int, int]:
    """(P, I_mode, Q): the extents before, at and after ``mode``, so that a
    C-contiguous tensor reshapes to (P, I_mode, Q) without a copy."""
    return math.prod(shape[:mode]), shape[mode], math.prod(shape[mode + 1:])


def matricize(t: np.ndarray, mode: int) -> np.ndarray:
    """Unfold tensor ``t`` along ``mode`` into an I_m x prod(I_other) matrix."""
    t = np.asarray(t)
    _check_mode(t, mode)
    return np.reshape(np.moveaxis(t, mode, 0), (t.shape[mode], -1), order="F")


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
    """Top-``r`` left singular vectors, sign-fixed for deterministic output."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2:
        raise ValueError("expected a matrix")
    n, p = mat.shape
    if not 1 <= r <= min(n, p):
        raise ValueError(f"rank {r} not in [1, {min(n, p)}]")
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix has non-finite entries")
    u, _, _ = np.linalg.svd(mat, full_matrices=False)
    return fix_signs(u[:, :r])


def top_eigenvectors(gram: np.ndarray, r: int) -> np.ndarray:
    """Top-``r`` eigenvectors of a symmetric positive semi-definite matrix,
    sign-fixed; for a Gram ``M M^T`` they are the top left singular vectors
    of ``M``."""
    _, v = np.linalg.eigh(gram)
    return fix_signs(v[:, ::-1][:, :r])


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


def _format_values(values: np.ndarray) -> str:
    """Lines of 8 ``repr``s; the last line may be shorter."""
    items = list(map(repr, values.tolist()))
    return "".join(" ".join(items[i:i + 8]) + "\n"
                   for i in range(0, len(items), 8))


def _read_header(mm, path) -> tuple[tuple[int, ...], int]:
    """The extents in the header of the mapped file ``mm`` and the offset
    where its values start."""
    token = _TOKEN.match(mm)
    if token is None:
        raise ValueError(f"{path}: empty tensor file")
    try:
        order = int(token.group(1).decode())
        if not 1 <= order <= _MAX_ORDER:
            raise ValueError
        dims = []
        for _ in range(order):
            token = _TOKEN.match(mm, token.end())
            if token is None:
                raise ValueError
            dims.append(int(token.group(1).decode()))
    except ValueError:  # also a UnicodeDecodeError
        raise ValueError(f"{path}: malformed header") from None
    dims = tuple(dims)
    if any(d < 1 for d in dims):
        raise ValueError(f"{path}: non-positive extent in {dims}")
    return dims, token.end()


def _parse_range(chunk) -> np.ndarray:
    """Parse the values in bytes ``start:stop`` of the mapped file ``mm``,
    where ``chunk`` is ``(mm, path, start, stop)``."""
    mm, path, start, stop = chunk
    try:
        text = mm[start:stop].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text at byte "
                         f"{start + exc.start}") from None
    try:
        return np.array(text.split(), dtype=float)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def read_tns(path) -> np.ndarray:
    """Read the whitespace tensor text format, UTF-8 encoded.

    Line 1: order M, at most 64.  Line 2: the M extents.  Then prod(dims)
    values in canonical (C, last-index-fastest) order; header tokens are
    separated by ASCII whitespace.  The file is mapped read-only, and its
    value bytes are cut at ASCII whitespace into n = min(CPUs this process
    may run on, ceil(values / 2**18)) slices of the mapping (values counted
    from the header, or as many as the value bytes can hold if fewer), each
    decoded and parsed in one of n forked worker processes (in this process
    when n == 1, and n is 1 where ``fork`` is not a start method), so this
    process never holds the file's text.  The array is bit-identical for any
    n.
    """
    with open(path, "rb") as fh:
        if os.fstat(fh.fileno()).st_size == 0:
            raise ValueError(f"{path}: empty tensor file")
        mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    with mm:
        dims, start = _read_header(mm, path)
        count = math.prod(dims)
        size = len(mm)
        # k values take at least 2k - 1 bytes, so a header cannot start more
        # workers than its value bytes can feed
        n = _workers(min(count, (size - start + 1) // 2))
        cuts = [start]
        for i in range(1, n):
            space = _SPACE_BYTE.search(mm, max(start + (size - start) * i // n,
                                               cuts[-1]))
            cuts.append(space.start() if space else size)
        cuts.append(size)
        ranges = [(mm, path, a, b) for a, b in zip(cuts, cuts[1:])]
        values = np.concatenate(_map_chunks(_parse_range, ranges))
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
    is byte-identical for any n.  A tensor of order 0 or with a zero extent,
    which :func:`read_tns` would reject, raises ``ValueError`` before the
    file is opened.
    """
    t = np.asarray(t, dtype=float)
    if t.ndim == 0 or t.size == 0:
        raise ValueError(f"cannot write a tensor of shape {t.shape}: the "
                         "format needs order >= 1 and positive extents")
    flat = t.ravel(order="C")
    step = max(8, -(-flat.size // (8 * _workers(flat.size))) * 8)
    chunks = [flat[i:i + step] for i in range(0, flat.size, step)]
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
