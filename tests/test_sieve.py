import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stefa.sieve import (BasisSpec, build_design, eval_basis,
                         eval_loading_function, legendre_eval, projector_apply,
                         read_covariates_csv, write_covariates_csv)


def test_legendre_closed_forms():
    u = 0.3
    assert legendre_eval(0, u) == 1.0
    assert np.isclose(legendre_eval(1, u), u)
    assert np.isclose(legendre_eval(2, u), (3 * u ** 2 - 1) / 2)
    assert np.isclose(legendre_eval(3, u), (5 * u ** 3 - 3 * u) / 2)
    assert np.isclose(legendre_eval(4, u), (35 * u ** 4 - 30 * u ** 2 + 3) / 8)
    # (63u^5 - 70u^3 + 15u)/8 at u = 0.3
    assert np.isclose(legendre_eval(5, u), 0.345386250, atol=1e-9)


def test_legendre_recurrence():
    u = np.linspace(-1, 1, 7)
    for j in range(1, 6):
        lhs = (j + 1) * legendre_eval(j + 1, u)
        rhs = (2 * j + 1) * u * legendre_eval(j, u) - j * legendre_eval(j - 1, u)
        assert np.allclose(lhs, rhs, atol=1e-12)
    with pytest.raises(ValueError):
        legendre_eval(-1, 0.0)


def test_basis_spec_validation():
    with pytest.raises(ValueError):
        BasisSpec(family="fourier")
    with pytest.raises(ValueError):
        BasisSpec(degree=0)
    with pytest.raises(ValueError):
        BasisSpec(domain=(1.0, 1.0))
    assert BasisSpec(degree=4).n_basis(2) == 9
    assert BasisSpec(degree=3, include_intercept=False).n_basis(2) == 6


def test_eval_basis_columns_are_mapped_legendre():
    rng = np.random.default_rng(0)
    X = rng.uniform(size=(11, 2))
    phi = eval_basis(X, BasisSpec(degree=3))
    assert phi.shape == (11, 7)
    assert np.allclose(phi[:, 0], 1.0)
    for d in range(2):
        for j in range(1, 4):
            col = 1 + d * 3 + (j - 1)
            assert np.allclose(phi[:, col], legendre_eval(j, 2 * X[:, d] - 1))


def test_eval_basis_rejects_nonfinite():
    with pytest.raises(ValueError):
        eval_basis(np.array([[0.1], [np.inf]]), BasisSpec())


def test_domain_remap_invariance():
    rng = np.random.default_rng(1)
    X = rng.uniform(size=(9, 2))
    a = eval_basis(X, BasisSpec(degree=3, domain=(0.0, 1.0)))
    b = eval_basis(X + 5.0, BasisSpec(degree=3, domain=(5.0, 6.0)))
    assert np.allclose(a, b, atol=1e-12)


def test_bspline_family():
    rng = np.random.default_rng(2)
    X = rng.uniform(size=(20, 2))
    spec = BasisSpec(family="bspline", degree=5)
    phi = eval_basis(X, spec)
    assert phi.shape == (20, 11)
    # each covariate's spline block is a partition of unity
    assert np.allclose(phi[:, 1:6].sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(phi[:, 6:11].sum(axis=1), 1.0, atol=1e-12)
    d = build_design(X, spec)
    assert d.rank <= d.n_basis


def test_build_design_and_projector_properties():
    rng = np.random.default_rng(3)
    X = rng.uniform(size=(30, 2))
    d = build_design(X, BasisSpec(degree=4))
    u = d.basis
    p = u @ u.T
    assert np.linalg.norm(p @ p - p) <= 1e-10
    assert np.linalg.norm(p - p.T) <= 1e-12
    assert np.linalg.norm(p @ d.phi - d.phi) <= 1e-10
    assert d.rank == 9


@settings(deadline=None, max_examples=20)
@given(st.integers(min_value=20, max_value=100),
       st.integers(min_value=1, max_value=3),
       st.integers(min_value=1, max_value=5), st.randoms())
def test_projector_property_random_designs(n, D, degree, rnd):
    rng = np.random.default_rng(rnd.randrange(2 ** 32))
    X = rng.uniform(size=(n, D))
    d = build_design(X, BasisSpec(degree=degree))
    p = d.basis @ d.basis.T
    assert np.linalg.norm(p @ p - p) <= 1e-10
    assert np.linalg.norm(p - p.T) <= 1e-12


def test_collinear_design_projector_matches_independent_subset():
    rng = np.random.default_rng(4)
    x = rng.uniform(size=(25, 1))
    X = np.hstack([x, x])                      # duplicated covariate
    d = build_design(X, BasisSpec(degree=3))
    assert d.rank == 4                         # intercept + 3 distinct functions
    d_ind = build_design(x, BasisSpec(degree=3))
    mat = rng.standard_normal((25, 6))
    assert np.allclose(projector_apply(d, mat), projector_apply(d_ind, mat),
                       atol=1e-10)


def test_build_design_dimension_error():
    X = np.random.default_rng(5).uniform(size=(5, 2))
    with pytest.raises(ValueError, match="exceeds mode extent"):
        build_design(X, BasisSpec(degree=4))   # 9 basis functions > 5 rows
    # checked before the basis is evaluated, which a huge degree would stall
    with pytest.raises(ValueError, match=r"\(2000000001 > 5\)"):
        build_design(X, BasisSpec(degree=10 ** 9))


def test_projector_apply_row_mismatch():
    d = build_design(np.random.default_rng(6).uniform(size=(12, 1)), BasisSpec())
    with pytest.raises(ValueError):
        projector_apply(d, np.zeros((11, 2)))


def test_eval_loading_function():
    rng = np.random.default_rng(7)
    X = rng.uniform(size=(15, 2))
    spec = BasisSpec(degree=3)
    B = rng.standard_normal((7, 3))
    out = eval_loading_function(spec, B, X)
    assert np.allclose(out, eval_basis(X, spec) @ B)
    single = eval_loading_function(spec, B, X[0])
    assert single.shape == (3,)
    assert np.allclose(single, out[0])
    with pytest.raises(ValueError):
        eval_loading_function(spec, B, X, n_covariates=3)
    with pytest.raises(ValueError):
        eval_loading_function(spec, B[:5], X)


def test_covariates_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    X = rng.uniform(size=(6, 2))
    path = tmp_path / "x.csv"
    write_covariates_csv(path, X, names=["a", "b"])
    back, names = read_covariates_csv(path)
    assert names == ["a", "b"]
    assert np.allclose(back, X, atol=1e-12)


def test_covariates_csv_rejects_bad_files(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x1,x2\n0.3,oops\n")
    with pytest.raises(ValueError):
        read_covariates_csv(path)
    path.write_text("x1,x2\n")
    with pytest.raises(ValueError):
        read_covariates_csv(path)


@pytest.mark.parametrize("text, message", [
    ("x1,x2\n0.1,0.2\n0.3\n", "ragged rows"),
    ("x1,x2\n0.1\n0.3\n", "ragged rows"),
    ("x1,x2\n0.1,nan\n", "non-finite covariate value"),
    ("x1,x2\n0.1,0.2\n-inf,0.3\n", "non-finite covariate value")],
    ids=["one-short-row", "every-row-short", "nan", "inf"])
def test_covariates_csv_names_ragged_and_non_finite_rows(tmp_path, text,
                                                         message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        read_covariates_csv(path)
