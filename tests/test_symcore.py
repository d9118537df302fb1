import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectracon.errors import InvalidInput
from spectracon.pencil import sym_basis_indices
from spectracon.symcore import (SymMatrix, is_psd, min_eigenvalue, nullspace,
                                orthonormal_complement, smat, spectral_norm,
                                svec, sym)


def test_sym_symmetrizes():
    m = sym([[1.0, 3.0], [1.0, 2.0]])
    assert isinstance(m, SymMatrix)
    assert np.allclose(m.mat, [[1.0, 2.0], [2.0, 2.0]])


def test_symmatrix_rejects_nonsquare():
    with pytest.raises(InvalidInput):
        sym(np.zeros((2, 3)))


def test_eigenvalue_bounds_diag():
    d = sym(np.diag([3.0, -1.0, 0.5]))
    assert min_eigenvalue(d) == pytest.approx(-1.0)
    assert spectral_norm(d) == pytest.approx(3.0)


def test_is_psd():
    assert is_psd(np.eye(3))
    assert not is_psd(np.diag([1.0, -1e-6]))
    assert is_psd(np.diag([1.0, -1e-12]))  # within default tolerance


def test_nullspace_annihilates():
    a = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])
    ns = nullspace(a)
    assert ns.shape == (3, 2)
    assert np.linalg.norm(a @ ns) < 1e-12
    assert np.allclose(ns.T @ ns, np.eye(2))


def test_orthonormal_complement_squares_up():
    v = np.array([[1.0], [0.0], [0.0]])
    c = orthonormal_complement(v)
    q = np.hstack([v, c])
    assert np.allclose(q.T @ q, np.eye(3), atol=1e-12)


@given(st.integers(2, 6), st.integers(0, 2 ** 31 - 1))
def test_rayleigh_quotient_between_extremes(dim, seed):
    rng = np.random.default_rng(seed)
    m = sym(rng.normal(size=(dim, dim)))
    v = rng.normal(size=dim)
    v /= np.linalg.norm(v)
    q = float(v @ m.mat @ v)
    assert min_eigenvalue(m) - 1e-9 <= q <= np.linalg.eigvalsh(m.mat)[-1] + 1e-9


@given(st.integers(2, 5), st.integers(0, 2 ** 31 - 1))
def test_spectral_norm_is_operator_norm(dim, seed):
    rng = np.random.default_rng(seed)
    m = sym(rng.normal(size=(dim, dim)))
    v = rng.normal(size=dim)
    v /= np.linalg.norm(v)
    assert np.linalg.norm(m.mat @ v) <= spectral_norm(m) + 1e-9


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=999))
@settings(max_examples=30)
def test_svec_smat_roundtrip(d, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(d, d))
    m = (m + m.T) / 2
    back = smat(svec(m), d)
    np.testing.assert_allclose(back, m, atol=1e-12)
    # svec is an isometry for the Frobenius inner product
    assert float(svec(m) @ svec(m)) == pytest.approx(
        float(np.sum(m * m)), rel=1e-10)


def test_svec_smat_match_loop_reference():
    d = 4
    m = np.arange(16.0).reshape(d, d)
    m = m + m.T
    want = [m[i, j] * (1.0 if i == j else np.sqrt(2.0))
            for i, j in sym_basis_indices(d)]
    np.testing.assert_array_equal(svec(m), want)
    back = np.zeros((d, d))
    for pos, (i, j) in enumerate(sym_basis_indices(d)):
        back[i, j] = back[j, i] = want[pos] if i == j else want[pos] / np.sqrt(2.0)
    np.testing.assert_array_equal(smat(np.array(want), d), back)


@pytest.mark.parametrize("count", [0, 1, 5])
def test_smat_of_a_stack(count):
    rng = np.random.default_rng(count)
    d = 4
    vecs = rng.normal(size=(count, d * (d + 1) // 2))
    stacked = smat(vecs, d)
    assert stacked.shape == (count, d, d)
    for v, mat in zip(vecs, stacked):
        np.testing.assert_array_equal(mat, smat(v, d))
    # a combination of vectors is the combination of their matrices, as
    # boundedness_certificate forms its witness
    part, theta = rng.normal(size=vecs.shape[1]), rng.normal(size=count)
    witness = smat(part + vecs.T @ theta, d)
    summed = smat(part, d) + sum(t * smat(v, d) for t, v in zip(theta, vecs))
    assert np.max(np.abs(witness - summed)) <= 1e-12 * np.max(np.abs(summed))
