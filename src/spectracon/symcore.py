"""Symmetric-matrix primitives used throughout the package.

Everything downstream (pencils, relaxations, the SDP solver) manipulates real
symmetric matrices.  This module fixes the storage convention: a matrix is
symmetrized on construction and kept immutable, so numerical asymmetry from
upstream arithmetic cannot leak into eigenvalue computations.  It also
holds the one svec/smat pair and the one SVD nullspace of the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput, NumericalFailure

# Relative rank cutoff for nullspace computations: singular values at or below
# rank_tol * sigma_max * dim count as zero.
RANK_TOL = 1e-9


def _as_array(m) -> np.ndarray:
    if isinstance(m, SymMatrix):
        return m.mat
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInput(f"expected a square matrix, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class SymMatrix:
    """Immutable real symmetric matrix.

    The stored array is (M + M^T)/2 of the input, so construction is the only
    place asymmetric roundoff gets removed.
    """

    mat: np.ndarray = field(repr=False)

    def __post_init__(self):
        a = np.asarray(self.mat, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InvalidInput(f"SymMatrix needs a square array, got shape {a.shape}")
        if a.shape[0] < 1:
            raise InvalidInput("SymMatrix dimension must be at least 1")
        if not np.all(np.isfinite(a)):
            raise InvalidInput("SymMatrix entries must be finite")
        s = (a + a.T) / 2.0
        s.setflags(write=False)
        object.__setattr__(self, "mat", s)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def __array__(self, dtype=None, copy=None):
        return np.array(self.mat, dtype=dtype)

    def __repr__(self):  # short, array contents are rarely useful in tracebacks
        return f"SymMatrix(dim={self.dim})"


def sym(m) -> SymMatrix:
    """Convenience constructor."""
    return SymMatrix(np.asarray(m, dtype=float))


def min_eigenvalue(m) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    a = _as_array(m)
    a = (a + a.T) / 2.0
    try:
        w = np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigenvalue computation failed: {exc}") from exc
    return float(w[0])


def is_psd(m, tol: float = 1e-9) -> bool:
    """Whether min_eigenvalue(m) >= -tol."""
    if tol < 0:
        raise InvalidInput("tolerance must be nonnegative")
    return min_eigenvalue(m) >= -tol


def spectral_norm(m) -> float:
    a = _as_array(m)
    a = (a + a.T) / 2.0
    w = np.linalg.eigvalsh(a)
    return float(max(abs(w[0]), abs(w[-1])))


def nullspace(a: np.ndarray, rank_tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of the kernel of an arbitrary matrix.

    Cutoff: singular values <= rank_tol * sigma_max * max(shape) are treated
    as zero.  An all-zero input returns the identity.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise InvalidInput("nullspace expects a 2-d array")
    ncols = a.shape[1]
    if a.size == 0 or not np.any(a):
        return np.eye(ncols)
    try:
        _, sv, vt = np.linalg.svd(a, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"SVD failed: {exc}") from exc
    cutoff = rank_tol * sv[0] * max(a.shape)
    rank = int(np.sum(sv > cutoff))
    return vt[rank:].T.copy()


def orthonormal_complement(v: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of span(columns of v)."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 2:
        raise InvalidInput("expected a 2-d array of basis columns")
    return nullspace(v.T)


def svec(mat) -> np.ndarray:
    """Upper triangle of a symmetric matrix as a vector, off-diagonal entries
    times sqrt(2), so that svec(X) @ svec(Y) = <X, Y>.

    Entries follow np.triu_indices, the row-major order of
    :func:`spectracon.pencil.sym_basis_indices`.  A stack of matrices, shape
    (..., d, d), gives the stack of their vectors.
    """
    a = mat.mat if isinstance(mat, SymMatrix) else np.asarray(mat, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise InvalidInput(f"expected square matrices, got shape {a.shape}")
    i, j = np.triu_indices(a.shape[-1])
    out = a[..., i, j]
    off = i != j
    out[..., off] = np.sqrt(2.0) * out[..., off]
    return out


def smat(vec, d: int) -> np.ndarray:
    """Inverse of :func:`svec` for d x d matrices.  A stack of vectors, shape
    (..., d(d+1)/2), gives the stack of their matrices."""
    v = np.asarray(vec, dtype=float)
    i, j = np.triu_indices(d)
    vals = np.where(i != j, v / np.sqrt(2.0), v)
    out = np.zeros(v.shape[:-1] + (d, d))
    out[..., i, j] = vals
    out[..., j, i] = vals
    return out
