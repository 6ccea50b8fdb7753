import multiprocessing

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stefa import tensor as tensor_module
from stefa.cli import main
from stefa.tensor import (eigenvalues_symmetric, fix_signs, matricize,
                          mode_gram, mode_product, multi_mode_product, read_tns,
                          tensorize, top_left_singular_vectors, write_tns)


def small_tensor():
    return np.arange(24, dtype=float).reshape(2, 3, 4)


def test_matricize_entry_mapping_mode0():
    t = small_tensor()
    m = matricize(t, 0)
    assert m.shape == (2, 12)
    for i1 in range(2):
        for i2 in range(3):
            for i3 in range(4):
                assert m[i1, i2 + i3 * 3] == t[i1, i2, i3]


def test_matricize_entry_mapping_other_modes():
    # remaining modes ascend, the first remaining one varies fastest
    t = small_tensor()
    m1 = matricize(t, 1)
    m2 = matricize(t, 2)
    for i1 in range(2):
        for i2 in range(3):
            for i3 in range(4):
                assert m1[i2, i1 + i3 * 2] == t[i1, i2, i3]
                assert m2[i3, i1 + i2 * 2] == t[i1, i2, i3]


def test_matricize_mode_out_of_range():
    with pytest.raises(ValueError):
        matricize(small_tensor(), 3)


def test_tensorize_inverse():
    t = small_tensor()
    for mode in range(3):
        assert np.array_equal(tensorize(matricize(t, mode), mode, t.shape), t)


def test_tensorize_shape_mismatch():
    with pytest.raises(ValueError):
        tensorize(np.zeros((2, 11)), 0, (2, 3, 4))


@settings(deadline=None, max_examples=25)
@given(st.lists(st.integers(min_value=1, max_value=5), min_size=2, max_size=4),
       st.integers(min_value=0, max_value=3), st.randoms())
def test_roundtrip_property(dims, mode, rnd):
    mode = mode % len(dims)
    rng = np.random.default_rng(rnd.randrange(2 ** 32))
    t = rng.standard_normal(dims)
    assert np.array_equal(tensorize(matricize(t, mode), mode, dims), t)


def test_mode_product_matches_matricized_form():
    rng = np.random.default_rng(0)
    t = rng.standard_normal((4, 5, 6))
    for mode, new in ((0, 3), (1, 2), (2, 7)):
        a = rng.standard_normal((new, t.shape[mode]))
        out = mode_product(t, a, mode)
        assert np.allclose(matricize(out, mode), a @ matricize(t, mode))


def layout_tensor(rng, dims, layout):
    """A tensor of shape ``dims`` in C order, F order, as a transposed view or
    as a strided slice."""
    if layout == "C":
        return rng.standard_normal(dims)
    if layout == "F":
        return np.asfortranarray(rng.standard_normal(dims))
    if layout == "transposed":
        return rng.standard_normal(dims[::-1]).T
    return rng.standard_normal([2 * d + 1 for d in dims])[
        tuple(slice(1, None, 2) for _ in dims)]


@settings(deadline=None, max_examples=80)
@given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4),
       st.integers(min_value=0, max_value=3), st.integers(min_value=1, max_value=7),
       st.sampled_from(["C", "F", "transposed", "sliced"]), st.randoms())
def test_mode_product_matches_tensordot_on_any_layout(dims, mode, new, layout,
                                                      rnd):
    mode = mode % len(dims)
    rng = np.random.default_rng(rnd.randrange(2 ** 32))
    t = layout_tensor(rng, dims, layout)
    mat = rng.standard_normal((new, dims[mode]))
    out = mode_product(t, mat, mode)
    ref = np.moveaxis(np.tensordot(mat, t, axes=(1, mode)), 0, mode)
    assert out.flags.c_contiguous
    assert out.shape == ref.shape
    scale = np.linalg.norm(mat) * np.linalg.norm(t)
    assert np.linalg.norm(out - ref) <= 1e-12 * scale
    unfolded = matricize(t, mode)
    gram = mode_gram(t, mode)
    assert np.array_equal(gram, gram.T)
    assert (np.linalg.norm(gram - unfolded @ unfolded.T)
            <= 1e-12 * np.linalg.norm(t) ** 2)


def test_mode_product_shape_mismatch():
    with pytest.raises(ValueError):
        mode_product(small_tensor(), np.zeros((2, 5)), 1)


def test_multilinear_product_kron_identity():
    # under this matricization convention the mode-0 unfolding of the
    # multilinear product is A0 M0(F) kron(A2, A1)^T
    rng = np.random.default_rng(1)
    f = rng.standard_normal((2, 3, 4))
    mats = [rng.standard_normal((5, 2)), rng.standard_normal((6, 3)),
            rng.standard_normal((7, 4))]
    s = multi_mode_product(f, mats)
    expect = mats[0] @ matricize(f, 0) @ np.kron(mats[2], mats[1]).T
    assert np.allclose(matricize(s, 0), expect)


def test_multi_mode_product_dict_and_none():
    rng = np.random.default_rng(2)
    t = rng.standard_normal((4, 5, 6))
    a = rng.standard_normal((2, 5))
    assert np.allclose(multi_mode_product(t, {1: a}), mode_product(t, a, 1))
    assert np.allclose(multi_mode_product(t, [None, a, None]),
                       mode_product(t, a, 1))


def test_fix_signs():
    u = np.array([[1.0, -0.1], [-2.0, 0.05]])
    f = fix_signs(u)
    assert np.array_equal(f[:, 0], [-1.0, 2.0])   # largest-magnitude entry positive
    assert np.array_equal(f[:, 1], [0.1, -0.05])
    assert np.array_equal(fix_signs(f), f)


def test_top_left_singular_vectors_basic():
    rng = np.random.default_rng(3)
    mat = rng.standard_normal((8, 5))
    u = top_left_singular_vectors(mat, 3)
    ref, _, _ = np.linalg.svd(mat)
    assert np.allclose(np.abs(u.T @ ref[:, :3]), np.eye(3), atol=1e-10)
    assert np.allclose(u.T @ u, np.eye(3), atol=1e-12)


def test_top_left_singular_vectors_gram_path_agrees():
    rng = np.random.default_rng(4)
    mat = rng.standard_normal((10, 50))      # wide enough for the Gram path
    u_gram = top_left_singular_vectors(mat, 3)
    u_full, _, _ = np.linalg.svd(mat, full_matrices=False)
    overlap = np.linalg.norm(u_gram.T @ u_full[:, :3])
    assert np.isclose(overlap, np.sqrt(3), atol=1e-8)


def test_top_left_singular_vectors_rank_validation():
    with pytest.raises(ValueError):
        top_left_singular_vectors(np.ones((3, 4)), 4)
    with pytest.raises(ValueError):
        top_left_singular_vectors(np.ones((3, 4)), 0)
    with pytest.raises(ValueError):
        top_left_singular_vectors(np.array([[np.nan, 1.0]]), 1)


def test_eigenvalues_symmetric_sorted():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((6, 6))
    sym = a @ a.T
    w = eigenvalues_symmetric(sym)
    assert np.all(np.diff(w) <= 1e-12)
    with pytest.raises(ValueError):
        eigenvalues_symmetric(a)


@settings(deadline=None, max_examples=40)
@given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=4),
       st.data())
def test_tns_roundtrip(tmp_path_factory, dims, data):
    t = np.array(data.draw(st.lists(st.floats(), min_size=int(np.prod(dims)),
                                    max_size=int(np.prod(dims)))),
                 dtype=float).reshape(dims)
    path = tmp_path_factory.mktemp("roundtrip") / "t.tns"
    write_tns(path, t)
    back = read_tns(path)
    assert back.shape == t.shape
    assert np.array_equal(back, t, equal_nan=True)
    assert np.array_equal(np.signbit(back), np.signbit(t) & ~np.isnan(t))


def serial_write_tns(path, t):
    """The single-process writer that ``write_tns`` must match byte for byte."""
    t = np.asarray(t, dtype=float)
    with open(path, "w") as fh:
        fh.write(f"{t.ndim}\n")
        fh.write(" ".join(str(d) for d in t.shape) + "\n")
        flat = t.ravel(order="C")
        for start in range(0, flat.size, 8):
            fh.write(" ".join(repr(float(v)) for v in flat[start:start + 8]) + "\n")


def serial_parse(path):
    tokens = path.read_text().split()
    order = int(tokens[0])
    return np.array(tokens[1 + order:], dtype=float)


@pytest.fixture
def two_workers(monkeypatch):
    """Text I/O sees two CPUs; records the chunk count of every map."""
    monkeypatch.setattr(tensor_module.os, "sched_getaffinity",
                        lambda pid: {0, 1}, raising=False)
    counts = []
    real = tensor_module._map_chunks

    def spy(func, chunks):
        counts.append(len(chunks))
        return real(func, chunks)

    monkeypatch.setattr(tensor_module, "_map_chunks", spy)
    return counts


def extreme_tensor(dims=(65, 64, 64)):
    """More than 2**18 values at every scale, with the special values."""
    rng = np.random.default_rng(7)
    t = rng.standard_normal(dims) * 10.0 ** rng.integers(-300, 301, size=dims)
    special = [np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324, -5e-324,
               1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1e16]
    flat = t.reshape(-1)
    for k, v in enumerate(special):
        flat[k * 1009] = v                  # first chunk
        flat[flat.size - 1 - k * 1013] = v  # second chunk
    return t


def test_tns_two_workers_match_serial_writer_and_parser(tmp_path, two_workers):
    t = extreme_tensor()
    assert t.size > 2 ** 18
    write_tns(tmp_path / "new.tns", t)
    serial_write_tns(tmp_path / "ref.tns", t)
    assert (tmp_path / "new.tns").read_bytes() == (tmp_path / "ref.tns").read_bytes()
    back = read_tns(tmp_path / "ref.tns")
    assert two_workers == [2, 2]
    ref = serial_parse(tmp_path / "ref.tns")
    assert back.shape == t.shape
    assert np.array_equal(back.reshape(-1).view(np.int64), ref.view(np.int64))


def test_tns_small_tensor_starts_no_process(tmp_path, two_workers, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker process was started")

    monkeypatch.setattr(tensor_module, "ProcessPoolExecutor", no_pool)
    t = extreme_tensor((64, 64, 64))        # exactly 2**18 values
    write_tns(tmp_path / "t.tns", t)
    assert np.array_equal(read_tns(tmp_path / "t.tns"), t, equal_nan=True)
    assert two_workers == [1, 1]


def test_tns_in_a_daemonic_pool_worker(tmp_path, two_workers):
    # a daemonic process may not start processes, so it reads in-process
    t = extreme_tensor()
    serial_write_tns(tmp_path / "t.tns", t)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        back = pool.apply(read_tns, (tmp_path / "t.tns",))
    assert np.array_equal(back, t, equal_nan=True)


def test_tns_bad_token_in_second_chunk(tmp_path, two_workers, capsys):
    path = tmp_path / "bad.tns"
    serial_write_tns(path, extreme_tensor())
    text = path.read_text()
    cut = text.rindex(" ")
    path.write_text(text[:cut] + " 1.0x" + text[text.index("\n", cut):])
    with pytest.raises(ValueError, match="1.0x"):
        read_tns(path)
    assert main(["fit", "--tensor", str(path), "--ranks", "1,1,1",
                 "--out", str(tmp_path / "fit")]) == 2
    err = capsys.readouterr().err
    assert "1.0x" in err and "Traceback" not in err
    assert two_workers == [2, 2]


def test_tns_value_count_checks_with_two_chunks(tmp_path, two_workers):
    path = tmp_path / "t.tns"
    serial_write_tns(path, extreme_tensor())
    text = path.read_text()
    count = 65 * 64 * 64
    path.write_text(text + "2.5\n")
    with pytest.raises(ValueError, match=f"expected {count} values, found "
                                         f"{count + 1}"):
        read_tns(path)
    path.write_text(text[:text.rstrip().rindex(" ")] + "\n")
    with pytest.raises(ValueError, match=f"expected {count} values, found "
                                         f"{count - 1}"):
        read_tns(path)


def test_tns_one_line_and_crlf_files_parse_alike(tmp_path, two_workers):
    t = extreme_tensor()
    serial_write_tns(tmp_path / "ref.tns", t)
    text = (tmp_path / "ref.tns").read_text()
    header, _, values = text.partition("\n")
    dims, _, values = values.partition("\n")
    one_line = f"{header}\n{dims}\n{' '.join(values.split())}\n"
    (tmp_path / "one_line.tns").write_text(one_line)
    (tmp_path / "crlf.tns").write_bytes(text.replace("\n", "\r\n").encode())
    ref = read_tns(tmp_path / "ref.tns").view(np.int64)
    for name in ("one_line.tns", "crlf.tns"):
        assert np.array_equal(read_tns(tmp_path / name).view(np.int64), ref)


def test_tns_write_holds_no_text_in_this_process(tmp_path, two_workers):
    import tracemalloc
    t = extreme_tensor()
    tracemalloc.start()
    try:
        write_tns(tmp_path / "t.tns", t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert two_workers == [2]
    # the text of the chunks is about 6 MB
    assert peak < 2 ** 20
    assert [p.name for p in tmp_path.iterdir()] == ["t.tns"]
    assert np.array_equal(read_tns(tmp_path / "t.tns"), t, equal_nan=True)


def test_tns_write_removes_its_parts_when_a_worker_fails(tmp_path, two_workers,
                                                        monkeypatch):
    def fail(values):
        raise RuntimeError("formatting failed")

    # the forked workers inherit the patched module
    monkeypatch.setattr(tensor_module, "_format_values", fail)
    with pytest.raises(RuntimeError, match="formatting failed"):
        write_tns(tmp_path / "t.tns", extreme_tensor())
    assert two_workers == [2]
    assert [p.name for p in tmp_path.iterdir()] == ["t.tns"]


def test_tns_header_and_count_checks(tmp_path):
    path = tmp_path / "bad.tns"
    path.write_text("2\n2 3\n1 2 3 4 5\n")     # five values, six expected
    with pytest.raises(ValueError):
        read_tns(path)
    path.write_text("")
    with pytest.raises(ValueError):
        read_tns(path)
    path.write_text("2\n2 0\n")
    with pytest.raises(ValueError):
        read_tns(path)
