"""Lineality splitting of pencils.

Membership in S_A is invariant along the lineality space
{v : sum_p v_p A_p = 0}.  Containment questions therefore restrict both
pencils to its orthogonal complement, or are refuted outright when a
lineality direction moves the outer pencil.  The split is an exact set
operation, not a relaxation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NotContained
from .pencil import LinearPencil, pencil
from .symcore import nullspace, orthonormal_complement

_LINEALITY_TOL = 1e-9


def _coeff_vec_matrix(p: LinearPencil) -> np.ndarray:
    """Columns are the vectorized upper triangles of the linear coefficients."""
    k = p.k
    iu = np.triu_indices(k)
    cols = [c.mat[iu] for c in p.coeffs[1:]]
    if not cols:
        return np.zeros((len(iu[0]), 0))
    return np.stack(cols, axis=1)


def lineality_space(p: LinearPencil) -> np.ndarray:
    """Orthonormal basis (columns) of {v : sum_p v_p A_p = 0}.

    These are the directions along which membership in S_A is invariant.
    An n x 0 result means the linear coefficients are independent.
    """
    if p.n == 0:
        return np.zeros((0, 0))
    m = _coeff_vec_matrix(p)
    if not np.any(m):
        return np.eye(p.n)
    return nullspace(m)


@dataclass(frozen=True)
class LinealitySplit:
    """Common restriction of two pencils to the complement of L_A.

    ``basis`` spans L_A, ``complement`` spans its orthogonal complement; the
    reduced pencils act on coordinates u with x = complement @ u.
    """

    a: LinearPencil
    b: LinearPencil
    basis: np.ndarray
    complement: np.ndarray


def _restrict(p: LinearPencil, v: np.ndarray) -> LinearPencil:
    """Pencil of x = V u in coordinates u, for V with orthonormal columns."""
    coeffs = [p.coeffs[0].mat]
    stacked = p.coeff_array()[1:]
    for q in range(v.shape[1]):
        coeffs.append(np.tensordot(v[:, q], stacked, axes=(0, 0)))
    return pencil(coeffs)


def split_lineality(a: LinearPencil, b: LinearPencil) -> LinealitySplit:
    """Remove the lineality space of the inner pencil from both pencils.

    Containment of S_A in S_B forces L_A to be contained in L_B, so the
    directions in L_A must also annihilate the linear part of b; if one does
    not, containment is refuted and NotContained carries the direction.
    """
    if a.n != b.n:
        raise InvalidInput("pencils must share the variable count")
    basis = lineality_space(a)
    if basis.shape[1] == 0:
        return LinealitySplit(a=a, b=b, basis=basis,
                              complement=np.eye(a.n))
    b_stack = b.coeff_array()[1:]
    for q in range(basis.shape[1]):
        v = basis[:, q]
        resid = np.tensordot(v, b_stack, axes=(0, 0))
        if np.max(np.abs(resid), initial=0.0) > _LINEALITY_TOL:
            raise NotContained(
                "inner lineality direction moves the outer pencil",
                witness={"direction": v.copy(), "residual_norm": float(np.max(np.abs(resid)))},
            )
    comp = orthonormal_complement(basis)
    return LinealitySplit(a=_restrict(a, comp), b=_restrict(b, comp),
                          basis=basis, complement=comp)
