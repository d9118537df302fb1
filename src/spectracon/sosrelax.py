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
from .momrelax import _exponent_array, _positions, basis_size, monomials_upto
from .pencil import LinearPencil
from .sdpcore import SdpProblem, SdpSolution, SolveStatus, _block_data, solve


def count_unknowns(n: int, k: int, l: int, t: int) -> dict:
    """Closed-form size bookkeeping for both relaxation machines.

    sos_gram counts the scalar unknowns of the order-t Gram formulation
    (both Gram matrices plus the eigenvalue bound); moment_matrix counts
    the strictly-upper entries of the order-t moment matrix in the joint
    variables; sos_equations counts every coefficient match of the Gram
    identity, and moment_total every moment of degree <= 2t but the pinned
    constant.  These are the unreduced closed forms, not the sizes of the
    assembled programs: the Gram program eliminates the match that defines
    lambda (SosInfo.n_equations is sos_equations - 1), and the moment
    relaxation drops the moments that a sign symmetry makes odd
    (RelaxationInfo.n_moments <= moment_total).
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
    """Assemble the order-t Gram program; returns (problem, info).

    The (gamma, i, j) coefficient match, i <= j, is row gamma * l(l+1)/2 +
    pair(i, j) of the assembly, with gamma numbered as in monomials_upto(n,
    2t+1) and the pairs (i, j) in row-major order.  Row 0, the (1, 0, 0)
    match that defines lambda, is the cost, and its entries are subtracted
    in every (1, i, i) match; row r > 0 is equation r - 1.  A coefficient
    at an off-diagonal position (p, q) of a Gram matrix enters its match as
    two halves, at (p, q) and at (q, p).
    """
    if a.n != b.n:
        raise InvalidInput("pencils must share the variable count")
    if t < 0:
        raise OrderTooSmall("order must be nonnegative")
    n, k, l = a.n, a.k, b.k
    kl = k * l
    basis = _exponent_array(monomials_upto(n, t), n)
    N = len(basis)
    gammas = _exponent_array(monomials_upto(n, 2 * t + 1), n)
    units = np.vstack((np.zeros(n, dtype=np.intp), np.eye(n, dtype=np.intp)))
    unit_rows = _positions(gammas, units)  # the monomials 1, x_1, ..., x_n
    pi, pj = np.triu_indices(l)
    npair = len(pi)
    diag = np.flatnonzero(pi == pj)  # pair(i, i)
    n_eq = len(gammas) * npair - 1
    alpha, beta = np.divmod(np.arange(N * N), N)  # ordered basis pairs

    def gram_block(size, stride, gamma, p, q, v):
        # the (0, 0) positions p, q of the entries, moved by (i, j) * stride
        # into every (gamma, i, j) match, then the cost entries negated in
        # the (1, i, i) matches, i > 0
        cost = gamma == 0
        row = np.concatenate(((gamma[:, None] * npair + np.arange(npair)).ravel(),
                              np.tile(diag[1:], np.count_nonzero(cost))))
        p = np.concatenate(((p[:, None] + pi * stride).ravel(), np.repeat(p[cost], l - 1)))
        q = np.concatenate(((q[:, None] + pj * stride).ravel(), np.repeat(q[cost], l - 1)))
        v = np.concatenate((np.repeat(v, npair), np.repeat(-v[cost], l - 1)))
        return _block_data(n_eq, size, row, p, q, np.where(p == q, v, v / 2.0))

    # Q_S: coefficient entry (aa, bb) of A's x^u term at basis pair
    # (alpha, beta) matches x^(alpha + beta + u)
    coeffs = a.coeff_array()
    match = _positions(gammas, (basis[alpha][:, None] + basis[beta][:, None] + units)
                       .reshape(N * N * (n + 1), n)).reshape(N * N, n + 1)
    r, aa, bb = np.nonzero(coeffs)
    c_s, a_s = gram_block(kl * N, k, match[:, r].ravel(),
                          (alpha[:, None] * kl + aa).ravel(),
                          (beta[:, None] * kl + bb).ravel(),
                          np.tile(coeffs[r, aa, bb], N * N))
    # Q_T: entry (alpha, beta) matches x^(alpha + beta)
    c_t, a_t = gram_block(l * N, 1, _positions(gammas, basis[alpha] + basis[beta]),
                          alpha * l, beta * l, np.ones(N * N))

    rhs = np.zeros((len(gammas), npair))
    rhs[unit_rows] = b.coeff_array()[:, pi, pj]
    rhs[0, diag[1:]] -= rhs[0, 0]
    problem = SdpProblem((kl * N, l * N), [c_s, c_t], [a_s, a_t], rhs.ravel()[1:],
                         {"origin": "sos_gram", "order": t})
    info = SosInfo(order=t, n=n, k=k, l=l, basis_n=N, gram_s_dim=kl * N,
                   gram_t_dim=l * N, n_equations=n_eq,
                   point_rows=unit_rows[1:, None] * npair + diag - 1)
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
    basis = monomials_upto(n, result.order)
    worst = 0.0
    for x in np.atleast_2d(np.asarray(points, dtype=float)):
        w = np.array([float(np.prod(x ** np.array(e))) for e in basis])
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
