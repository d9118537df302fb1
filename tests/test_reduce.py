import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spectracon.errors import NotContained
from spectracon.pencil import pencil, random_pencil
from spectracon.reduce import lineality_space, split_lineality
from spectracon.symcore import is_psd


def test_lineality_detects_zero_coefficient():
    p = pencil([np.eye(2), np.diag([1.0, -1.0]), np.zeros((2, 2))])
    basis = lineality_space(p)
    assert basis.shape == (2, 1)
    assert abs(abs(basis[1, 0]) - 1.0) < 1e-12


def test_lineality_from_dependent_combination():
    # A3 = A1 - 2 A2 with off-diagonal entries: lineality (1, -2, -1)/sqrt(6)
    a1 = np.array([[1.0, 0.5, 0.0], [0.5, 0.0, -1.0], [0.0, -1.0, 2.0]])
    a2 = np.array([[0.0, 1.0, 0.3], [1.0, -1.0, 0.0], [0.3, 0.0, 0.0]])
    p = pencil([np.eye(3), a1, a2, a1 - 2.0 * a2])
    basis = lineality_space(p)
    assert basis.shape == (3, 1)
    v = np.array([1.0, -2.0, -1.0]) / np.sqrt(6.0)
    assert abs(abs(basis[:, 0] @ v) - 1.0) < 1e-12


def test_lineality_trivial_for_independent():
    p = pencil([np.eye(2), np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    assert lineality_space(p).shape == (2, 0)


def test_split_compatible_reduces_both():
    z = np.zeros((2, 2))
    a = pencil([np.eye(2), np.diag([1.0, -1.0]), z])
    b = pencil([2 * np.eye(2), np.diag([1.0, 1.0]), z])
    split = split_lineality(a, b)
    assert split.a.n == 1 and split.b.n == 1
    assert split.basis.shape == (2, 1)
    # evaluation agrees through the complement embedding
    u = np.array([0.37])
    x = split.complement @ u
    assert np.allclose(split.a.evaluate(u).mat, a.evaluate(x).mat, atol=1e-12)
    assert np.allclose(split.b.evaluate(u).mat, b.evaluate(x).mat, atol=1e-12)


def test_split_incompatible_raises_with_direction():
    a = pencil([np.eye(2), np.diag([1.0, -1.0]), np.zeros((2, 2))])
    b = pencil([np.eye(2), np.zeros((2, 2)), np.diag([1.0, -1.0])])
    with pytest.raises(NotContained) as exc:
        split_lineality(a, b)
    d = exc.value.witness["direction"]
    assert abs(abs(d[1]) - 1.0) < 1e-12


@given(st.integers(1, 3), st.integers(0, 2 ** 31 - 1))
def test_membership_invariant_along_lineality(n, seed):
    rng = np.random.default_rng(seed)
    p0 = random_pencil(n, 3, seed=seed)
    # append a zero coefficient: explicit lineality direction
    p = pencil([c.mat for c in p0.coeffs] + [np.zeros((3, 3))])
    basis = lineality_space(p)
    assert basis.shape[1] >= 1
    x = rng.normal(size=n + 1) * 0.3
    t = float(rng.normal()) * 5.0
    v = basis[:, 0]
    assert is_psd(p.evaluate(x)) == is_psd(p.evaluate(x + t * v))
