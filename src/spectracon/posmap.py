"""Feasibility test for the block-matrix containment certificate.

The direct certificate for containment asks for a psd block matrix
C = (C_ij), i, j = 1..k, with l x l blocks, satisfying the linear equations

    sum_ij  a^p_ij C_ij  =  B_p        for p = 0..n.

Feasibility is decided through the margin program

    max  m   s.t.   C psd shifted by -mI,  C solves the equations,

after parametrizing the affine solution set by a particular solution plus
an orthonormal nullspace basis.  A nonnegative optimal margin produces a
validated witness; a clearly negative one certifies that no psd solution
exists.  By default the test runs on the extended pencil 1 (+) A, which
makes it exactly as strong as the order-0 Gram certificate; the plain and
extended tests agree whenever A_0 = I and the A_p are traceless.

The same module hosts the symmetrized Choi matrix of a linear matrix map,
whose spectrum refutes complete positivity, and a cross-check that the
implications between all computed quantities hold on a given instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput, InvariantViolation, NumericalFailure
from .pencil import LinearPencil, MapSpec, extend
from .sdpcore import _margin_lmi, solve
from .symcore import min_eigenvalue, nullspace, smat, svec

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
    extended: bool
    details: dict = field(default_factory=dict)


def _equation_system(a: LinearPencil, b: LinearPencil):
    """Rows svec(sym(A_p (x) E_uv)) and right-hand sides B_p[u, v], for
    p = 0..n and u <= v: the equations on svec(C)."""
    l = b.k
    u, v = np.triu_indices(l)
    units = np.zeros((u.size, l, l))
    units[np.arange(u.size), u, v] = 1.0
    rows, rhs = [], []
    for ap, bp in zip(a.coeffs, b.coeffs):
        g = np.kron(ap.mat, units)
        rows.append(svec((g + g.swapaxes(1, 2)) / 2.0))
        rhs.append(bp.mat[u, v])
    return np.concatenate(rows), np.concatenate(rhs), a.k * l


def cp_sdfp(a: LinearPencil, b: LinearPencil,
            extended: bool = True) -> CpResult:
    """Decide solvability of the block certificate equations over psd C.

    Feasible results carry a validated witness; Infeasible means the psd
    margin is decisively negative (or the equations themselves are
    inconsistent); anything in the gray band, or a solver breakdown, is
    Inconclusive.
    """
    if a.n != b.n:
        raise InvalidInput("pencils must share the variable count")
    inner = extend(a) if extended else a
    eq, rhs, d = _equation_system(inner, b)
    scale = 1.0 + float(np.linalg.norm(rhs))

    part, _, rank, sv = np.linalg.lstsq(eq, rhs, rcond=None)
    lin_res = float(np.linalg.norm(eq @ part - rhs))
    details = {"equation_residual": lin_res, "rank": int(rank),
               "nullity": eq.shape[1] - int(rank), "dim": d}
    if lin_res > _EQ_TOL * scale:
        return CpResult("Infeasible", float("-inf"), None, extended,
                        {**details, "reason": "linear obstruction"})

    # rank_tol = eps: the cutoff of numpy's matrix_rank
    null_basis = nullspace(eq, rank_tol=np.finfo(float).eps)
    nullity = null_basis.shape[1]
    details["nullity"] = nullity

    c_part = smat(part, d)
    cap = 10.0 * scale + float(np.abs(np.diag(c_part)).max(initial=0.0))
    problem = _margin_lmi(c_part, [smat(z, d) for z in null_basis.T], cap,
                          metadata={"origin": "cp_sdfp", "extended": extended})

    try:
        sol = solve(problem)
    except NumericalFailure as exc:
        return CpResult("Inconclusive", float("nan"), None, extended,
                        {**details, "error": str(exc)})
    details["solver_status"] = sol.status.value
    if not sol.reliable:
        return CpResult("Inconclusive", float("nan"), None, extended, details)

    margin = sol.value
    details["margin"] = margin
    theta = sol.y[:nullity]
    witness = c_part + sum(t * smat(zrow, d)
                           for t, zrow in zip(theta, null_basis.T))
    witness = (witness + witness.T) / 2.0
    details["witness_eq_residual"] = float(np.linalg.norm(eq @ svec(witness) - rhs))
    details["witness_min_eig"] = min_eigenvalue(witness)

    if margin >= -_FEAS_TOL * scale:
        ok = (details["witness_eq_residual"] <= _EQ_TOL * scale
              and details["witness_min_eig"] >= -10.0 * _FEAS_TOL * scale)
        if ok:
            return CpResult("Feasible", float(margin), witness, extended, details)
        return CpResult("Inconclusive", float(margin), witness, extended,
                        {**details, "reason": "witness validation failed"})
    if margin < -_INFEAS_TOL * scale:
        return CpResult("Infeasible", float(margin), None, extended, details)
    return CpResult("Inconclusive", float(margin), None, extended, details)


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


def implication_report(cp: CpResult | None = None, lam0=None, moments=(),
                       grid_value: float | None = None,
                       strict: bool = True) -> dict:
    """Verify the provable relations between computed quantities.

    Checks, where the inputs allow: the block certificate is solvable
    exactly when the order-0 Gram bound is nonnegative; moment bounds are
    monotone in the order; no lower bound exceeds a sampled upper estimate.
    With strict=True a hard violation raises InvariantViolation; otherwise
    the report only records it.
    """
    report = {"checks": [], "violations": []}

    def record(name, ok, detail):
        report["checks"].append({"name": name, "ok": bool(ok), "detail": detail})
        if not ok:
            report["violations"].append(name)

    if cp is not None and lam0 is not None and cp.kind != "Inconclusive" \
            and getattr(lam0, "reliable", False):
        v = lam0.value
        if cp.kind == "Feasible":
            record("certificate_implies_gram", v >= -_IMPLICATION_TOL,
                   f"margin {cp.margin:.2e}, gram bound {v:.2e}")
        else:
            record("gram_implies_certificate", v <= _IMPLICATION_TOL,
                   f"margin {cp.margin:.2e}, gram bound {v:.2e}")

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
