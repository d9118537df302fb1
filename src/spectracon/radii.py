"""Circumradius bounds and boundedness certificates for spectrahedra.

The squared circumradius sup { |x|^2 : A(x) psd } is approached from above
by moment relaxations of the maximization; the order-t value nu2(t) is a
certified upper bound and tightens as t grows.  Boundedness is decided by
one search and its dual: a positive definite W orthogonal to all linear
coefficient matrices rules out recession directions, and where none exists
the search's multiplier gives a direction d with sum_p d_p A_p psd.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput
from .momrelax import _pencil_terms, _scaled_pencil, _x_scale, build_pmi_relaxation
from .pencil import LinearPencil
from .reduce import lineality_space
from .sdpcore import _LMI_STATUS, SdpSolution, _margin_lmi, solve
from .symcore import min_eigenvalue, nullspace, smat, svec

# The search's margin must exceed this for W, and stay below it for d.
_MARGIN_TOL = 1e-7


@dataclass
class RadiusResult:
    value: float  # upper bound on the squared circumradius
    status: str
    order: int
    solution: SdpSolution = field(repr=False)

    @property
    def reliable(self) -> bool:
        """The solve's :attr:`SdpSolution.reliable`."""
        return self.solution.reliable


def circumradius_sq(p: LinearPencil, t: int = 2) -> RadiusResult:
    """Order-t upper bound nu2(t) on the squared circumradius of S_A.

    The relaxation is built in x' with x = D x' (``momrelax._x_scale``), so
    that the moments are O(1); its objective is sum_q D_qq^2 x'_q^2.
    Status "unbounded" signals that the relaxation found no finite bound,
    which happens in particular for unbounded spectrahedra.
    """
    n = p.n
    if n == 0:
        raise InvalidInput("pencil has no variables")
    d = _x_scale(p)
    obj = (2 * np.eye(n, dtype=np.intp), d ** 2)
    problem, value_of, _ = build_pmi_relaxation(
        obj, [_pencil_terms(_scaled_pencil(p, d), n)], t, sense="max",
        metadata={"origin": "circumradius"})
    sol = solve(problem)
    status = _LMI_STATUS[sol.status]
    value = value_of(sol) if sol.has_point else float("inf")
    return RadiusResult(value=float(value), status=status, order=t, solution=sol)


@dataclass(frozen=True)
class BoundednessReport:
    kind: str  # Bounded | Unbounded | Unknown
    certificate: np.ndarray | None  # psd W for Bounded, direction for Unbounded
    margin: float
    details: dict


def boundedness_certificate(p: LinearPencil) -> BoundednessReport:
    """Certify boundedness or unboundedness of a spectrahedron by one search.

    Bounded comes with W positive definite and <A_q, W> = 0 for all linear
    coefficients; any recession direction d then forces sum d_q A_q = 0,
    impossible once the lineality space is trivial.  The search maximizes
    lambda_min(W) over tr W = 1 and <A_q, W> = 0, never above 1/k; when
    every A_q is traceless, W = I/k attains 1/k and nothing is solved.
    Unbounded comes from its dual: the multiplier Y of W - s I psd has
    Y - s* I = sum d_q A_q, psd once the margin s* is at most
    ``_MARGIN_TOL``.  d is its least-squares solution, or, with no solve,
    that of sum d_q A_q = I when I lies in span{A_q} (no W meets the
    equations).  Scaled to max |d_q| = 1, d is reported when
    G = sum d_q A_q is positive definite, or psd to roundoff
    (lambda_min(G) >= -k eps |G|_2) with A(0) positive definite: a
    singular G proves a ray only from a feasible point.  The margin is
    lambda_min(G), 0 for a singular G.  Anything else is Unknown.
    """
    n, k = p.n, p.k
    if n == 0:
        return BoundednessReport("Bounded", np.eye(k), 1.0, {"trivial": True})
    lin = lineality_space(p)
    if lin.shape[1] > 0:
        return BoundednessReport("Unbounded", lin[:, 0], 0.0, {"reason": "lineality direction"})

    # W = I/k has the largest margin any W with tr W = 1 can have, so when
    # it solves the search's equations it is the search's optimum
    lin_coeffs = p.coeff_array()[1:]
    lin_res = float(np.linalg.norm(np.trace(lin_coeffs, axis1=1, axis2=2))) / k
    if lin_res <= 1e-9:
        return BoundednessReport("Bounded", np.eye(k) / k, 1.0 / k,
                                 {"equation_residual": lin_res})

    # W in the orthogonal complement of the linear coefficients, tr W = 1
    rows = np.array([svec(c) for c in p.coeffs[1:]] + [svec(np.eye(k))])
    rhs = np.eye(n + 1)[n]
    part = np.linalg.lstsq(rows, rhs, rcond=None)[0]
    lin_res = float(np.linalg.norm(rows @ part - rhs))
    details = {"equation_residual": lin_res}
    growth = np.eye(k) if lin_res > 1e-9 else None  # what sum d_q A_q should be
    if growth is None:
        null_basis = nullspace(rows, rank_tol=np.finfo(float).eps)
        problem = _margin_lmi(smat(part, k), smat(null_basis.T, k),
                              2.0, metadata={"origin": "boundedness"})
        sol = solve(problem)
        if sol.reliable:
            margin = sol.value
            if margin > _MARGIN_TOL:
                w = smat(part + null_basis @ sol.y[:null_basis.shape[1]], k)
                if min_eigenvalue(w) > 0:
                    return BoundednessReport("Bounded", w, float(margin), details)
            else:
                growth = sol.x_blocks[0] - margin * np.eye(k)
            details["dual_margin"] = float(margin)
    if growth is not None:
        d = np.linalg.lstsq(lin_coeffs.reshape(n, k * k).T, growth.ravel(), rcond=None)[0]
        if np.any(d):
            d /= np.max(np.abs(d))
            eig = np.linalg.eigvalsh(np.tensordot(d, lin_coeffs, axes=1))
            roundoff = k * np.finfo(float).eps * max(-eig[0], eig[-1])
            if eig[0] > 0 or (eig[0] >= -roundoff and min_eigenvalue(p.coeffs[0]) > 0):
                return BoundednessReport("Unbounded", d, max(float(eig[0]), 0.0), details)
    return BoundednessReport("Unknown", None, float("nan"), details)
