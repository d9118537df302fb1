"""Feasibility test for the block-matrix containment certificate.

The direct certificate for containment asks for a psd block matrix
C = (C_ij), i, j = 0..k, with l x l blocks, satisfying the linear equations

    sum_ij  a^p_ij C_ij  =  B_p        for p = 0..n

on the extended pencil 1 (+) A.  This is the order-0 level of the Gram
hierarchy, and the test is read off its solve, ``lambda_sos(a, b, 0)``.
The blocks C_0j with j >= 1 enter no equation, so with S = gram_s,
T = gram_t and lambda = value,

    C  =  (T + lambda I_l)  (+)  S

solves the block equations exactly when (S, T, lambda) solves the order-0
Gram identity; S is reordered from the Gram program's B-major positions
(u, a) to the block layout (a, u).  A psd C exists exactly when the optimal
lambda is nonnegative.

The reported margin is lambda / max(1 + tr A_0, 1).  When A's linear
coefficients are traceless, tr A_0 = tr A(x) >= 0 at every x in S_A, and
this is the optimum of the margin program max m s.t. C - mI psd, C solves
the equations: the shift mI adds m tr(A'_p) I to equation p, which is
m (1 + tr A_0) I in equation 0, in the place of lambda I, and nothing in
the others.  On other pencils only the sign, and so the decision, is the
margin program's; the floor of 1 keeps that sign when tr A_0 <= -1.

An order-0 Gram program that is infeasible for every lambda (A has
lineality that B lacks, or S_A has a recession direction along which B
fails), or unbounded because S_A is empty, ends in an infeasibility ray;
rays are never reliable, so such pairs are Inconclusive here, and the
verdict decides them by lineality splitting, refutation or its emptiness
check.  The candidate minimizer CpResult.first_moments is the Gram
solve's.

The same module hosts the symmetrized Choi matrix of a linear matrix map,
whose spectrum refutes complete positivity, and a cross-check that the
implications between computed bounds hold on a given instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvariantViolation
from .pencil import LinearPencil, MapSpec, extend
from .sosrelax import lambda_sos
from .symcore import min_eigenvalue

_EQ_TOL = 1e-7
_FEAS_TOL = 1e-8
_INFEAS_TOL = 1e-6
# Slack allowed in implication_report's comparisons of computed bounds.
_IMPLICATION_TOL = 1e-6


@dataclass
class CpResult:
    """Outcome of the block-certificate feasibility test."""

    kind: str  # Feasible | Infeasible | Inconclusive
    margin: float
    witness: np.ndarray | None
    details: dict = field(default_factory=dict)
    first_moments: np.ndarray | None = None  # candidate minimizer, from the dual


def cp_sdfp(a: LinearPencil, b: LinearPencil) -> CpResult:
    """Decide solvability of the block certificate equations over psd C.

    Feasible results carry a validated witness; Infeasible means the margin
    is decisively negative; anything in the gray band, or an unreliable
    order-0 Gram solve (its message in details["solver_message"]), is
    Inconclusive.
    """
    res = lambda_sos(a, b, 0)
    first = res.first_moments
    details = {"solver_status": res.solution.status.value}
    if not res.reliable:
        return CpResult("Inconclusive", float("nan"), None,
                        {**details, "solver_message": res.solution.message}, first)

    k, l = a.k, b.k
    margin = res.value / max(1.0 + float(np.trace(a.coeffs[0].mat)), 1.0)
    witness = np.zeros(((k + 1) * l, (k + 1) * l))
    witness[:l, :l] = res.gram_t + res.value * np.eye(l)
    witness[l:, l:] = (res.gram_s.reshape(l, k, l, k).transpose(1, 0, 3, 2)
                       .reshape(k * l, k * l))
    u, v = np.triu_indices(l)
    rhs = b.coeff_array()[:, u, v]
    lhs = np.einsum("pij,iujv->puv", extend(a).coeff_array(),
                    witness.reshape(k + 1, l, k + 1, l))[:, u, v]
    scale = 1.0 + float(np.linalg.norm(rhs))
    details["witness_eq_residual"] = float(np.linalg.norm(lhs - rhs))
    details["witness_min_eig"] = min_eigenvalue(witness)

    if margin >= -_FEAS_TOL * scale:
        if (details["witness_eq_residual"] <= _EQ_TOL * scale
                and details["witness_min_eig"] >= -10.0 * _FEAS_TOL * scale):
            return CpResult("Feasible", margin, witness, details, first)
        return CpResult("Inconclusive", margin, witness,
                        {**details, "reason": "witness validation failed"}, first)
    kind = "Infeasible" if margin < -_INFEAS_TOL * scale else "Inconclusive"
    return CpResult(kind, margin, None, details, first)


# ---------------------------------------------------------------------------
# Choi matrix of a matrix map


def choi_matrix(spec: MapSpec) -> np.ndarray:
    """Symmetrized Choi matrix sum_ij E_ij (x) Phi~(E_ij).

    Phi~ feeds the symmetrization (E_ij + E_ji)/2 through the map, which is
    the canonical extension of a map given on symmetric matrices.  A
    negative eigenvalue rules out any completely positive extension.
    """
    k, l = spec.k, spec.l
    out = np.zeros((k * l, k * l))
    for i in range(k):
        for j in range(k):
            e = np.zeros((k, k))
            e[i, j] += 0.5
            e[j, i] += 0.5
            img = spec.apply(e)
            out[i * l:(i + 1) * l, j * l:(j + 1) * l] = img
    return (out + out.T) / 2.0


# ---------------------------------------------------------------------------
# Cross-checks between the machines


def implication_report(moments=(), grid_value: float | None = None,
                       strict: bool = True) -> dict:
    """Verify the provable relations between computed quantities.

    Checks, where the inputs allow: moment bounds are monotone in the
    order; no lower bound exceeds a sampled upper estimate.  With
    strict=True a hard violation raises InvariantViolation; otherwise the
    report only records it.
    """
    report = {"checks": [], "violations": []}

    def record(name, ok, detail):
        report["checks"].append({"name": name, "ok": bool(ok), "detail": detail})
        if not ok:
            report["violations"].append(name)

    ordered = [m for m in moments if getattr(m, "reliable", False)]
    ordered.sort(key=lambda m: m.order)
    for lo, hi in zip(ordered, ordered[1:]):
        record(f"moment_monotone_{lo.order}_{hi.order}",
               lo.value <= hi.value + _IMPLICATION_TOL,
               f"mu({lo.order}) = {lo.value:.6e}, mu({hi.order}) = {hi.value:.6e}")

    if grid_value is not None:
        for m in ordered:
            record(f"moment_below_sampled_{m.order}",
                   m.value <= grid_value + _IMPLICATION_TOL,
                   f"mu({m.order}) = {m.value:.6e}, sampled {grid_value:.6e}")

    if strict and report["violations"]:
        raise InvariantViolation(
            "implication chain violated: " + ", ".join(report["violations"]),
            report=report)
    return report
