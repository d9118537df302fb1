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

The program is assembled reduced exactly by its sign flips, those of
momrelax's moment relaxation of the pair with B's indices for z: they
negate some x_p together with some indices of A and of B and fix every
coefficient.  Averaged over them, an optimal Gram pair is zero across flip
classes, so Q_S and Q_T split into one block per class and the equations
between classes hold trivially and are left out.  lambda_sos maps the
solution back to the full Gram matrices and equation index.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput, OrderTooSmall
from .momrelax import (_exponent_array, _flip_classes, _monomial_classes, _positions,
                       basis_size, monomials_upto)
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
    lambda (SosInfo.n_equations is sos_equations - 1) and keeps the
    equations SosInfo.rows, and the moment relaxation drops the moments
    that a sign symmetry makes odd (RelaxationInfo.n_moments <=
    moment_total).
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
    # equation index of the (x_p, z_i z_i) coefficient match, shape (n, l)
    point_rows: np.ndarray = field(repr=False)
    # per Gram matrix, the positions of each flip class (one program block
    # each, in block order), and the equations the program keeps
    parts: list = field(default=None, repr=False)
    rows: np.ndarray = field(default=None, repr=False)


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
    """Assemble the order-t Gram program, split by its sign flips; returns
    (problem, info).

    The (gamma, i, j) coefficient match, i <= j, is row gamma * l(l+1)/2 +
    pair(i, j) of the assembly, with gamma numbered as in monomials_upto(n,
    2t+1) and the pairs (i, j) in row-major order.  Row 0, the (1, 0, 0)
    match that defines lambda, is the cost, and its entries are subtracted
    in every (1, i, i) match; row r > 0 is equation r - 1.  A coefficient
    at an off-diagonal position (p, q) of a Gram matrix enters its match as
    two halves, at (p, q) and at (q, p).

    The program keeps the equations ``info.rows``, in order, and has one
    block per part of ``info.parts`` (Q_S's parts, then Q_T's), on that
    part's positions in order (:func:`_flip_split`); entries on the other
    equations or joining two parts are left out.
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
    info = SosInfo(order=t, n=n, k=k, l=l, basis_n=N, gram_s_dim=kl * N,
                   gram_t_dim=l * N, n_equations=n_eq,
                   point_rows=unit_rows[1:, None] * npair + diag - 1)
    info.parts, info.rows = _flip_split(a, b, info)
    m = info.rows.size
    program_row = np.full(n_eq + 1, -1)  # -1 on the equations left out
    program_row[np.r_[0, info.rows + 1]] = np.arange(m + 1)
    alpha, beta = np.divmod(np.arange(N * N), N)  # ordered basis pairs

    def gram_blocks(parts, stride, gamma, p, q, v):
        # the (0, 0) positions p, q of the entries, moved by (i, j) * stride
        # into every (gamma, i, j) match, then the cost entries negated in
        # the (1, i, i) matches, i > 0
        cost = gamma == 0
        row = np.concatenate(((gamma[:, None] * npair + np.arange(npair)).ravel(),
                              np.tile(diag[1:], np.count_nonzero(cost))))
        p = np.concatenate(((p[:, None] + pi * stride).ravel(), np.repeat(p[cost], l - 1)))
        q = np.concatenate(((q[:, None] + pj * stride).ravel(), np.repeat(q[cost], l - 1)))
        v = np.concatenate((np.repeat(v, npair), np.repeat(-v[cost], l - 1)))
        v = np.where(p == q, v, v / 2.0)
        # each position's part and its index there
        part = np.empty(sum(idx.size for idx in parts), dtype=np.intp)
        local = np.empty_like(part)
        for c, idx in enumerate(parts):
            part[idx] = c
            local[idx] = np.arange(idx.size)
        row, cls = program_row[row], part[p]
        kept = (row >= 0) & (cls == part[q])
        return [_block_data(m, idx.size, row[sel], local[p[sel]], local[q[sel]], v[sel])
                for c, idx in enumerate(parts) for sel in [kept & (cls == c)]]

    # Q_S: coefficient entry (aa, bb) of A's x^u term at basis pair
    # (alpha, beta) matches x^(alpha + beta + u)
    coeffs = a.coeff_array()
    match = _positions(gammas, (basis[alpha][:, None] + basis[beta][:, None] + units)
                       .reshape(N * N * (n + 1), n)).reshape(N * N, n + 1)
    r, aa, bb = np.nonzero(coeffs)
    blocks = gram_blocks(info.parts[0], k, match[:, r].ravel(),
                         (alpha[:, None] * kl + aa).ravel(),
                         (beta[:, None] * kl + bb).ravel(),
                         np.tile(coeffs[r, aa, bb], N * N))
    # Q_T: entry (alpha, beta) matches x^(alpha + beta)
    blocks += gram_blocks(info.parts[1], 1,
                          _positions(gammas, basis[alpha] + basis[beta]),
                          alpha * l, beta * l, np.ones(N * N))

    rhs = np.zeros((len(gammas), npair))
    rhs[unit_rows] = b.coeff_array()[:, pi, pj]
    rhs[0, diag[1:]] -= rhs[0, 0]
    c_blocks, a_blocks = zip(*blocks)
    problem = SdpProblem(tuple(idx.size for parts in info.parts for idx in parts),
                         list(c_blocks), list(a_blocks), rhs.ravel()[1:][info.rows],
                         {"origin": "sos_gram", "order": t})
    return problem, info


_STATUS = {
    SolveStatus.OPTIMAL: "optimal",
    SolveStatus.PRIMAL_INFEASIBLE: "infeasible",
    SolveStatus.DUAL_INFEASIBLE: "unbounded",
    SolveStatus.INACCURATE: "inaccurate",
    SolveStatus.ITER_LIMIT: "iterlimit",
}


def _flip_split(a: LinearPencil, b: LinearPencil, info: SosInfo):
    """(parts, rows): the positions of Q_S and Q_T split by the sign flips.

    The flips are those of ``momrelax._flip_classes`` on the bits x_p, then
    A's indices, then B's: they fix the pair when they meet the row masks
    x_p ^ A_i ^ A_j of the nonzero A_p[i, j] and x_p ^ B_u ^ B_v of the
    nonzero B_p[u, v] evenly.  A Q_S position (alpha, u, a) has mask
    parity(alpha) ^ B_u ^ A_a and a Q_T position (alpha, u) parity(alpha) ^
    B_u; the positions of one class modulo the rows are a part of their
    Gram matrix.  The flips map an optimal Gram pair to optimal ones, so
    their average, zero across classes, is optimal too; then an equation
    (gamma, u, v) whose mask parity(gamma) ^ B_u ^ B_v is not in the row
    space holds trivially (its right-hand side is 0), and ``rows`` are the
    other equations.
    """
    n, k, l = info.n, info.k, info.l
    units = np.vstack((np.zeros(n, dtype=np.intp), np.eye(n, dtype=np.intp)))
    rep = _flip_classes(n, [(units, a.coeff_array()), (units, b.coeff_array())])
    x_rep, a_rep, b_rep = rep[:n], rep[n:n + k], rep[n + k:]

    def monomial_classes(degree):
        return _monomial_classes(_exponent_array(monomials_upto(n, degree), n), x_rep)

    alpha = monomial_classes(info.order)
    parts = []
    for cls in (alpha[:, None, None] ^ b_rep[:, None] ^ a_rep, alpha[:, None] ^ b_rep):
        _, label = np.unique(cls.ravel(), return_inverse=True)
        parts.append([np.flatnonzero(label == c) for c in range(label.max() + 1)])
    pi, pj = np.triu_indices(l)
    eq_cls = monomial_classes(2 * info.order + 1)[:, None] ^ b_rep[pi] ^ b_rep[pj]
    rows = np.flatnonzero(eq_cls.ravel()[1:] == 0)
    return parts, rows


def lambda_sos(a: LinearPencil, b: LinearPencil, t: int = 0) -> SosResult:
    """Best eigenvalue bound certified by an order-t Gram pair.

    Solves the program of :func:`sos_relaxation`, one block per flip class,
    and maps the solution back: gram_s and gram_t are the full Gram matrices
    (zero across classes), and the multipliers of the equations left out
    are 0.  ``solution`` is the solve of that program.

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
        blocks = iter(sol.x_blocks)
        gram_s, gram_t = (_unsplit(size, parts, blocks) for size, parts
                          in zip((info.gram_s_dim, info.gram_t_dim), info.parts))
        y = np.zeros(info.n_equations)
        y[info.rows] = sol.y
        first = -y[info.point_rows].sum(axis=1)
    elif status == "infeasible":
        value = float("-inf")
        gram_s = gram_t = None
    else:
        value = float("inf")
        gram_s = gram_t = None
    return SosResult(value=float(value), status=status, order=t, info=info,
                     gram_s=gram_s, gram_t=gram_t, solution=sol,
                     first_moments=first)


def _unsplit(size: int, parts, blocks) -> np.ndarray:
    """The size x size matrix with the next of ``blocks`` on each part's
    principal submatrix, zero elsewhere."""
    out = np.zeros((size, size))
    for idx in parts:
        out[np.ix_(idx, idx)] = next(blocks)
    return out


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
