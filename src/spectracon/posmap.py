"""Feasibility test for the block-matrix containment certificate.

The direct certificate for containment asks for a psd block matrix
C = (C_ij), i, j = 1..k, with l x l blocks, satisfying the linear equations

    sum_ij  a^p_ij C_ij  =  B_p        for p = 0..n.

Feasibility is decided through the margin program

    max  m   s.t.   C psd shifted by -mI,  C solves the equations,  m <= cap,

which is solved through its dual, posed on the equations: one variable
w_r per independent equation <E_r, C> = rhs_r, with E_r = sym(A_p (x)
E_uv), so its size is the rank of the equations rather than the dimension
of their solution set.  A nonnegative optimal margin produces a validated
witness, the psd part X of C - mI plus mI, projected onto the equations;
a clearly negative one certifies that no psd solution exists.  The test
runs on the extended pencil 1 (+) A, which makes it exactly as strong as
the order-0 Gram certificate.

The dual variables are the multipliers of the block equations:
sum_r w_r E_r = sum_p A_p (x) Y_p, psd.  For a point mass Y_p = x_p Y_0,
so x_p = tr Y_p / tr Y_0 is a candidate minimizer of the eigenvalue margin,
kept as CpResult.first_moments.

The same module hosts the symmetrized Choi matrix of a linear matrix map,
whose spectrum refutes complete positivity, and a cross-check that the
implications between all computed quantities hold on a given instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .errors import InvalidInput, InvariantViolation
from .pencil import LinearPencil, MapSpec, extend
from .sdpcore import SdpProblem, _block_data, solve
from .symcore import min_eigenvalue, smat, svec

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
    first_moments: np.ndarray | None = None  # candidate minimizer, from y


def _equation_matrices(a: LinearPencil, b: LinearPencil):
    """Matrices sym(A_p (x) E_uv), shape (rows, d, d), and right-hand sides
    B_p[u, v], for p = 0..n and u <= v: the equations <E_r, C> = rhs_r."""
    l = b.k
    u, v = np.triu_indices(l)
    units = np.zeros((u.size, l, l))
    units[np.arange(u.size), u, v] = 1.0
    mats, rhs = [], []
    for ap, bp in zip(a.coeffs, b.coeffs):
        g = np.kron(ap.mat, units)
        mats.append((g + g.swapaxes(1, 2)) / 2.0)
        rhs.append(bp.mat[u, v])
    return np.concatenate(mats), np.concatenate(rhs)


def _certificate_program(mats: np.ndarray, rhs: np.ndarray, cap: float,
                         metadata: dict) -> SdpProblem:
    """The margin program's dual on the equations <E_r, C> = rhs_r:

        min  rhs'w + cap mu   s.t.  sum_r w_r E_r psd,  mu = 1 - t'w >= 0,

    with t_r = tr E_r.  Its canonical primal is the margin program: the
    psd block X and the scalar cap - m, with C = X + m I solving the
    equations, so a solution's margin is cap - ``value``.
    """
    m, d, _ = mats.shape
    # canonical form: C is 0 and 1, A's rows -E_r and t_r, b = cap t - rhs
    row, i, j = np.nonzero(np.triu(mats))
    trace = np.trace(mats, axis1=1, axis2=2)
    traced = np.flatnonzero(trace)
    zeros = np.zeros(traced.size + 1)
    blocks = [_block_data(m, d, row + 1, i, j, -mats[row, i, j]),
              _block_data(m, -1, np.r_[0, traced + 1], zeros, zeros,
                          np.r_[1.0, trace[traced]])]
    c_blocks, a_blocks = zip(*blocks)
    return SdpProblem((d, -1), list(c_blocks), list(a_blocks), cap * trace - rhs,
                      metadata)


def cp_sdfp(a: LinearPencil, b: LinearPencil) -> CpResult:
    """Decide solvability of the block certificate equations over psd C.

    Feasible results carry a validated witness; Infeasible means the psd
    margin is decisively negative (or the equations themselves are
    inconsistent); anything in the gray band, or an unreliable solve (its
    message in details["solver_message"]), is Inconclusive.  first_moments
    is set whenever the margin program returns a point with tr Y_0 > 0.
    """
    if a.n != b.n:
        raise InvalidInput("pencils must share the variable count")
    inner = extend(a)
    mats, rhs = _equation_matrices(inner, b)
    eq = svec(mats)
    d = inner.k * b.k
    scale = 1.0 + float(np.linalg.norm(rhs))

    part, _, rank, _ = np.linalg.lstsq(eq, rhs, rcond=None)
    lin_res = float(np.linalg.norm(eq @ part - rhs))
    details = {"equation_residual": lin_res, "rank": int(rank),
               "nullity": eq.shape[1] - int(rank), "dim": d}
    if lin_res > _EQ_TOL * scale:
        return CpResult("Infeasible", float("-inf"), None,
                        {**details, "reason": "linear obstruction"})

    # the first rank pivots of a column-pivoted QR of eq' are independent rows
    keep = np.sort(sla.qr(eq.T, mode="r", pivoting=True)[1][:rank])
    c_part = smat(part, d)
    cap = 10.0 * scale + float(np.abs(np.diag(c_part)).max(initial=0.0))
    sol = solve(_certificate_program(mats[keep], rhs[keep], cap,
                                     {"origin": "cp_sdfp"}))
    details["solver_status"] = sol.status.value
    first = None
    if sol.has_point:
        # the multipliers Y_p of the block equations, zero on dependent rows
        w = np.zeros(rhs.size)
        w[keep] = sol.y
        u, v = np.triu_indices(b.k)
        tr = w.reshape(inner.n + 1, u.size)[:, u == v].sum(axis=1)
        if tr[0] > 0.0:
            first = tr[1:] / tr[0]
    if not sol.reliable:
        return CpResult("Inconclusive", float("nan"), None,
                        {**details, "solver_message": sol.message}, first)

    margin = cap - sol.value
    details["margin"] = margin
    # X + m I, projected onto the equations
    c = svec(sol.x_blocks[0] + margin * np.eye(d))
    witness = smat(c + np.linalg.lstsq(eq, rhs - eq @ c, rcond=None)[0], d)
    details["witness_eq_residual"] = float(np.linalg.norm(eq @ svec(witness) - rhs))
    details["witness_min_eig"] = min_eigenvalue(witness)

    if margin >= -_FEAS_TOL * scale:
        ok = (details["witness_eq_residual"] <= _EQ_TOL * scale
              and details["witness_min_eig"] >= -10.0 * _FEAS_TOL * scale)
        if ok:
            return CpResult("Feasible", float(margin), witness, details, first)
        return CpResult("Inconclusive", float(margin), witness,
                        {**details, "reason": "witness validation failed"},
                        first)
    if margin < -_INFEAS_TOL * scale:
        return CpResult("Infeasible", float(margin), None, details, first)
    return CpResult("Inconclusive", float(margin), None, details, first)


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
