"""Sum-of-squares certificates for uniform eigenvalue bounds on a pencil.

Searches for psd Gram matrices Q_S (size kl N) and Q_T (size l N), with
N = C(n+t, t) monomials of degree <= t, certifying

    B(x) - lambda I  =  P(x) + T(x)        identically in x,

where P_ij(x) = <S_ij(x), A(x)> contracts the inner pencil against the
Gram-parametrized matrix S(x) and T(x) is an SOS matrix.  Existence proves
lambda <= lambda_min(B(x)) for every x with A(x) psd, so the optimal
lambda_sos(t) is a lower bound on the uniform eigenvalue margin; it is
monotone in t.

The multiplier lambda lives only in the constant diagonal part of the
identity, so it is eliminated: the (constant, top-left) coefficient match
defines lambda, the remaining constant diagonal matches turn into
equalization rows, and maximizing lambda becomes minimizing a linear
functional of the Gram matrices.

The dual of the Gram program is a matrix moment sequence: the multiplier y
of the (gamma, i, j) coefficient match is -L(x^gamma z_i z_j), and the
elimination of lambda normalizes tr L(z z') = 1.  The first moments
x_p = L(x_p |z|^2) = -sum_i y[(e_p, i, i)] are therefore a candidate
minimizer of the eigenvalue margin, kept as SosResult.first_moments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput, OrderTooSmall
from .momrelax import MonomialBasis, basis_size
from .pencil import LinearPencil
from .sdpcore import PrimalBuilder, SdpSolution, SolveStatus, solve


def count_unknowns(n: int, k: int, l: int, t: int) -> dict:
    """Closed-form size bookkeeping for both relaxation machines.

    sos_gram counts the scalar unknowns of the order-t Gram formulation
    (both Gram matrices plus the eigenvalue bound); moment_matrix counts
    the strictly-upper entries of the order-t moment matrix in the joint
    variables.  The remaining keys report what the assembled programs
    actually carry.
    """
    N = basis_size(n, t)
    gram = 1 + N * (k * k * l * l * N + l * l * N + k * l + l) // 2
    M = basis_size(n + l, t)
    return {
        "sos_gram": gram,
        "sos_equations": basis_size(n, 2 * t + 1) * l * (l + 1) // 2,
        "moment_matrix": M * (M - 1) // 2,
        "moment_total": basis_size(n + l, 2 * t) - 1,
    }


@dataclass
class SosInfo:
    order: int
    n: int
    k: int
    l: int
    basis_n: int
    gram_s_dim: int
    gram_t_dim: int
    n_equations: int
    # constraint index of the (x_p, z_i z_i) coefficient match, shape (n, l)
    point_rows: np.ndarray = field(repr=False)


@dataclass
class SosResult:
    """Order-t SOS lower bound on min eigenvalue of B over the first set."""

    value: float
    status: str  # optimal | infeasible | unbounded | inaccurate | iterlimit
    order: int
    info: SosInfo
    gram_s: np.ndarray | None
    gram_t: np.ndarray | None
    solution: SdpSolution = field(repr=False)
    first_moments: np.ndarray | None = None  # candidate minimizer, from the dual

    @property
    def reliable(self) -> bool:
        """The solve's :attr:`SdpSolution.reliable`."""
        return self.solution.reliable


def sos_relaxation(a: LinearPencil, b: LinearPencil, t: int):
    """Assemble the order-t Gram program; returns (problem, info)."""
    if a.n != b.n:
        raise InvalidInput("pencils must share the variable count")
    if t < 0:
        raise OrderTooSmall("order must be nonnegative")
    n, k, l = a.n, a.k, b.k
    basis = MonomialBasis(n, t)
    N = len(basis)
    kl = k * l

    def qs_idx(alpha, i, aa):
        return alpha * kl + i * k + aa

    def qt_idx(alpha, i):
        return alpha * l + i

    zero = tuple(0 for _ in range(n))
    a_coeffs = {zero: a.coeffs[0].mat}
    b_coeffs = {zero: b.coeffs[0].mat}
    for p in range(1, n + 1):
        e = [0] * n
        e[p - 1] = 1
        a_coeffs[tuple(e)] = a.coeffs[p].mat
        b_coeffs[tuple(e)] = b.coeffs[p].mat

    def a_coeff(gamma):
        if sum(gamma) <= 1:
            return a_coeffs.get(gamma)
        return None

    builder = PrimalBuilder()
    qs = builder.add_block(kl * N)
    qt = builder.add_block(l * N)

    def row_entries(con, gamma, i, j, sign=1.0):
        # Q_S part: [P]_{gamma,(ij)} summed over ordered basis pairs
        for alpha in range(N):
            ea = basis.exponents[alpha]
            for beta in range(N):
                rest = tuple(g - x - y for g, x, y in
                             zip(gamma, ea, basis.exponents[beta]))
                if any(v < 0 for v in rest):
                    continue
                amat = a_coeff(rest)
                if amat is None:
                    continue
                for aa in range(k):
                    for bb in range(k):
                        v = amat[aa, bb]
                        if v != 0.0:
                            builder.add_entry(con, qs, qs_idx(alpha, i, aa),
                                              qs_idx(beta, j, bb), sign * v)
        # Q_T part: [T]_{gamma,(ij)}
        for alpha in range(N):
            ea = basis.exponents[alpha]
            rest = tuple(g - x for g, x in zip(gamma, ea))
            if any(v < 0 for v in rest):
                continue
            beta = basis.index.get(rest)
            if beta is not None:
                builder.add_entry(con, qt, qt_idx(alpha, i),
                                  qt_idx(beta, j), sign)

    monomials = MonomialBasis(n, 2 * t + 1).exponents
    n_eq = 0
    point_rows = np.empty((n, l), dtype=int)
    for gamma in monomials:
        bmat = b_coeffs.get(gamma) if sum(gamma) <= 1 else None
        for i in range(l):
            for j in range(i, l):
                rhs = 0.0 if bmat is None else bmat[i, j]
                if gamma == zero and i == j == 0:
                    continue  # defines lambda; eliminated
                if gamma == zero and i == j:
                    con = builder.new_constraint(rhs - b_coeffs[zero][0, 0])
                    row_entries(con, gamma, i, i)
                    row_entries(con, zero, 0, 0, sign=-1.0)
                else:
                    con = builder.new_constraint(rhs)
                    row_entries(con, gamma, i, j)
                    if i == j and sum(gamma) == 1:
                        point_rows[gamma.index(1), i] = con
                n_eq += 1

    # objective: minimize the constant (0,0) coefficient of P + T
    amat0 = a_coeffs[zero]
    for aa in range(k):
        for bb in range(k):
            if amat0[aa, bb] != 0.0:
                builder.add_cost(qs, qs_idx(0, 0, aa), qs_idx(0, 0, bb),
                                 amat0[aa, bb])
    builder.add_cost(qt, qt_idx(0, 0), qt_idx(0, 0), 1.0)

    problem = builder.build(metadata={"origin": "sos_gram", "order": t})
    info = SosInfo(order=t, n=n, k=k, l=l, basis_n=N, gram_s_dim=kl * N,
                   gram_t_dim=l * N, n_equations=n_eq,
                   point_rows=point_rows)
    return problem, info


_STATUS = {
    SolveStatus.OPTIMAL: "optimal",
    SolveStatus.PRIMAL_INFEASIBLE: "infeasible",
    SolveStatus.DUAL_INFEASIBLE: "unbounded",
    SolveStatus.INACCURATE: "inaccurate",
    SolveStatus.ITER_LIMIT: "iterlimit",
}


def lambda_sos(a: LinearPencil, b: LinearPencil, t: int = 0) -> SosResult:
    """Best eigenvalue bound certified by an order-t Gram pair.

    Returns -inf with status "infeasible" when no certificate of this order
    exists for any lambda.  first_moments is None when the solve returns no
    point.
    """
    problem, info = sos_relaxation(a, b, t)
    sol = solve(problem)
    status = _STATUS[sol.status]
    first = None
    if sol.has_point:
        value = b.coeffs[0].mat[0, 0] - sol.value
        gram_s = sol.x_blocks[0]
        gram_t = sol.x_blocks[1]
        first = -sol.y[info.point_rows].sum(axis=1)
    elif status == "infeasible":
        value = float("-inf")
        gram_s = gram_t = None
    else:
        value = float("inf")
        gram_s = gram_t = None
    return SosResult(value=float(value), status=status, order=t, info=info,
                     gram_s=gram_s, gram_t=gram_t, solution=sol,
                     first_moments=first)


def certificate_gap(a: LinearPencil, b: LinearPencil, result: SosResult,
                    points) -> float:
    """Worst deviation of B(x) - lambda I - P(x) - T(x) from zero.

    Evaluates the certified identity at the given points; a sound
    certificate keeps this at solver-accuracy level everywhere.
    """
    if result.gram_s is None:
        raise InvalidInput("result carries no certificate")
    n, k, l = result.info.n, result.info.k, result.info.l
    basis = MonomialBasis(n, result.order)
    worst = 0.0
    for x in np.atleast_2d(np.asarray(points, dtype=float)):
        w = np.array([float(np.prod(x ** np.array(e))) for e in basis.exponents])
        vs = np.kron(w, np.eye(k * l))  # (kl, N*kl), row blocks scaled by w
        s_eval = vs @ result.gram_s @ vs.T
        vt = np.kron(w, np.eye(l))
        t_eval = vt @ result.gram_t @ vt.T
        amat = a.evaluate(x).mat
        p_eval = np.empty((l, l))
        for i in range(l):
            for j in range(l):
                blockij = s_eval[i * k:(i + 1) * k, j * k:(j + 1) * k]
                p_eval[i, j] = float(np.sum(blockij * amat))
        resid = b.evaluate(x).mat - result.value * np.eye(l) - p_eval - t_eval
        worst = max(worst, float(np.max(np.abs(resid))))
    return worst
