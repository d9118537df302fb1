"""Sum-of-squares certificates for uniform eigenvalue bounds on a pencil.

Searches for psd Gram matrices Q_S (size kl N) and Q_T (size l N), with
N = C(n+t, t) monomials of degree <= t, certifying

    B(x) - lambda I  =  P(x) + T(x)        identically in x,

where P_ij(x) = <S_ij(x), A(x)> contracts the inner pencil against the
Gram-parametrized matrix S(x) and T(x) is an SOS matrix.  Existence proves
lambda <= lambda_min(B(x)) for every x with A(x) psd, so the optimal
lambda_sos(t) is a lower bound on the uniform eigenvalue margin; it is
monotone in t.

The Gram program is the dual side of a moment relaxation in the joint
variables (x, z).  On the basis x^alpha z_u, Q_S is the localizing matrix
of A(x) and Q_T that of the constant 1, the moment matrix, and the
(gamma, u, v) coefficient match is the moment x^gamma z_u z_v: its entries
are those of momrelax._localizing_entries, the assembler of the moment
relaxations.  Two steps are the Gram program's own.  A u != v match reads
the (u, v) and (v, u) entries of the identity at once, so it takes half of
each entry.  And the multiplier lambda, which lives only in the constant
diagonal part of the identity, is eliminated: the (1, 0, 0) match defines
it and becomes the cost, and its entries are subtracted in every other
(1, u, u) match, so maximizing lambda becomes minimizing a linear
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
classes, so Q_S and Q_T split into one block per class
(momrelax._position_blocks) and the equations between classes hold
trivially and are left out.  lambda_sos maps the solution back to the full
Gram matrices and equation index.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput, OrderTooSmall
from .momrelax import (_exponent_array, _flip_classes, _localizing_entries,
                       _monomial_classes, _pencil_terms, _position_blocks, _positions,
                       monomials_upto)
from .pencil import LinearPencil
from .sdpcore import SdpProblem, SdpSolution, SolveStatus, _program_data, solve


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

    The (gamma, u, v) coefficient match, u <= v, is the moment x^gamma z_u
    z_v of the joint variables (x, z), row gamma * l(l+1)/2 + pair(u, v) of
    the equation table, with gamma numbered as in monomials_upto(n, 2t+1)
    and the pairs (u, v) in row-major order.  Q_S is the localizing matrix
    of A(x) and Q_T that of the constant 1, both on the basis x^alpha z_u
    (alpha-major, then u), their entries from
    :func:`momrelax._localizing_entries`; a u != v match takes half of
    each.  Row 0, the (1, 0, 0) match that defines lambda, is the cost, and
    its entries are subtracted in every (1, u, u) match; row r > 0 is
    equation r - 1.

    The program keeps the equations ``info.rows``, in order, and has one
    block per part of ``info.parts`` (Q_S's parts, then Q_T's), on that
    part's positions in order: the flip classes of
    :func:`momrelax._position_blocks`, for the flips of
    :func:`momrelax._flip_classes` on the bits x_p, then A's indices, then
    B's, with B's index u for z_u.  The kept equations are those of class
    0; entries on the others or joining two parts are left out.
    """
    if a.n != b.n:
        raise InvalidInput("pencils must share the variable count")
    if t < 0:
        raise OrderTooSmall("order must be nonnegative")
    n, k, l = a.n, a.k, b.k
    z = np.eye(l, dtype=np.intp)
    pi, pj = np.triu_indices(l)
    npair = len(pi)
    diag = np.flatnonzero(pi == pj)  # pair(u, u)
    xbasis = _exponent_array(monomials_upto(n, t), n)
    gammas = _exponent_array(monomials_upto(n, 2 * t + 1), n)
    N = len(xbasis)
    basis = _joint(xbasis, z)
    table = _joint(gammas, z[pi] + z[pj])
    a_exps, a_coeffs = _pencil_terms(a, n + l)
    unit_rows = _positions(gammas, a_exps[:, :n])  # the monomials 1, x_1, ..., x_n
    info = SosInfo(order=t, n=n, k=k, l=l, basis_n=N, gram_s_dim=k * l * N,
                   gram_t_dim=l * N, n_equations=len(table) - 1,
                   point_rows=unit_rows[1:, None] * npair + diag - 1, parts=[])
    rep = _flip_classes(n, [(a_exps[:, :n], a_coeffs), _pencil_terms(b, n)])
    x_rep, b_rep = rep[:n], rep[n + k:]
    # x^gamma z_u z_v has the class of x^gamma ^ B_u ^ B_v, and x^alpha z_u that
    # of x^alpha ^ B_u
    kept = (_monomial_classes(gammas, x_rep)[:, None] ^ b_rep[pi] ^ b_rep[pj]).ravel() == 0
    info.rows = np.flatnonzero(kept[1:])
    table = table[kept]
    half = np.where(table[:, n:].max(axis=1) == 1, 0.5, 1.0)  # the u != v matches
    lam_rows = np.cumsum(kept)[diag[1:]] - 1  # the (1, u, u) matches, u > 0
    basis_rep = (_monomial_classes(xbasis, x_rep)[:, None] ^ b_rep).ravel()
    sizes, entries = [], []
    for exps, mats, index_rep in ((a_exps, a_coeffs, rep[n:n + k]),
                                  (np.zeros((1, n + l), dtype=np.intp), np.ones((1, 1, 1)),
                                   np.zeros(1, dtype=object))):
        block = _position_blocks(basis_rep, index_rep)
        blk, moment, i, j, v = _localizing_entries(exps, mats, basis, block, table)
        v = v * half[moment]
        # lambda: the cost entries, negated, in every (1, u, u) match, u > 0
        cost = np.flatnonzero(moment == 0)
        blk, i, j = (np.concatenate((x, np.repeat(x[cost], l - 1))) for x in (blk, i, j))
        moment = np.concatenate((moment, np.tile(lam_rows, cost.size)))
        v = np.concatenate((v, np.repeat(-v[cost], l - 1)))
        info.parts.append([np.flatnonzero(block == c) for c in range(block.max() + 1)])
        entries.append((blk + len(sizes), moment, i, j, v))
        sizes += np.bincount(block).tolist()

    c, a = _program_data(info.rows.size, sizes, *map(np.concatenate, zip(*entries)))
    rhs = np.zeros((len(gammas), npair))
    rhs[unit_rows] = b.coeff_array()[:, pi, pj]
    rhs[0, diag[1:]] -= rhs[0, 0]
    problem = SdpProblem(sizes, c, a, rhs.ravel()[1:][info.rows],
                         {"origin": "sos_gram", "order": t})
    return problem, info


def _joint(x_exps: np.ndarray, z_exps: np.ndarray) -> np.ndarray:
    """The exponent rows of x^alpha z^beta, alpha-major, for the rows alpha
    of ``x_exps`` and beta of ``z_exps``."""
    out = np.empty((len(x_exps), len(z_exps), x_exps.shape[1] + z_exps.shape[1]), dtype=np.intp)
    out[:, :, :x_exps.shape[1]] = x_exps[:, None]
    out[:, :, x_exps.shape[1]:] = z_exps
    return out.reshape(-1, out.shape[2])


_STATUS = {
    SolveStatus.OPTIMAL: "optimal",
    SolveStatus.PRIMAL_INFEASIBLE: "infeasible",
    SolveStatus.DUAL_INFEASIBLE: "unbounded",
    SolveStatus.INACCURATE: "inaccurate",
    SolveStatus.ITER_LIMIT: "iterlimit",
}


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
