"""Circumradius bounds and boundedness certificates for spectrahedra.

The squared circumradius sup { |x|^2 : A(x) psd } is approached from above
by moment relaxations of the maximization; the order-t value nu2(t) is a
certified upper bound and tightens as t grows.  Boundedness itself is
decided by duality: a positive definite W orthogonal to all linear
coefficient matrices rules out recession directions, while a direction d
with sum_p d_p A_p positive semidefinite exhibits one.
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

# Either search's margin must exceed this before its certificate is checked.
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
    """Certify boundedness or unboundedness of a spectrahedron.

    Bounded comes with W positive definite and <A_q, W> = 0 for all linear
    coefficients; any recession direction d then forces sum d_q A_q = 0,
    impossible once the lineality space is trivial.  Unbounded comes with
    an explicit recession direction d, re-checked to make sum d_q A_q
    positive definite.  Degenerate boundary pencils yield Unknown.
    """
    n, k = p.n, p.k
    if n == 0:
        return BoundednessReport("Bounded", np.eye(k), 1.0, {"trivial": True})
    lin = lineality_space(p)
    if lin.shape[1] > 0:
        d = lin[:, 0]
        return BoundednessReport("Unbounded", d, 0.0,
                                 {"reason": "lineality direction"})

    # dual search: W in the orthogonal complement of the linear coefficients
    rows = np.array([svec(c) for c in p.coeffs[1:]] + [svec(np.eye(k))])
    rhs = np.zeros(n + 1)
    rhs[n] = 1.0  # trace normalization
    part = np.linalg.lstsq(rows, rhs, rcond=None)[0]
    lin_res = float(np.linalg.norm(rows @ part - rhs))
    details = {"equation_residual": lin_res}
    if lin_res <= 1e-9:
        null_basis = nullspace(rows, rank_tol=np.finfo(float).eps)
        nullity = null_basis.shape[1]
        problem = _margin_lmi(smat(part, k), smat(null_basis.T, k),
                              2.0, metadata={"origin": "boundedness"})
        sol = solve(problem)
        if sol.reliable:
            margin = sol.value
            if margin > _MARGIN_TOL:
                w = smat(part + null_basis @ sol.y[:nullity], k)
                if min_eigenvalue(w) > 0:
                    return BoundednessReport("Bounded", w, float(margin), details)
            details["dual_margin"] = float(margin)

    # primal search: recession direction within the unit box
    lin_coeffs = p.coeff_array()[1:]
    problem = _margin_lmi(np.zeros((k, k)), list(lin_coeffs), 2.0, box=1.0,
                          metadata={"origin": "recession"})
    sol = solve(problem)
    if sol.reliable:
        smargin = sol.value
        details["recession_margin"] = float(smargin)
        d = sol.y[:n].copy()
        # the solve is trusted only up to its residuals: re-check sum d_q A_q
        if smargin > _MARGIN_TOL and min_eigenvalue(np.tensordot(d, lin_coeffs, axes=1)) > 0:
            return BoundednessReport("Unbounded", d, float(smargin), details)
    return BoundednessReport("Unknown", None, float("nan"), details)
