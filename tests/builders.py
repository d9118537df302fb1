"""Term-by-term problem builders and loop assemblies of the relaxations.

``LmiBuilder`` and ``PrimalBuilder`` assemble a problem one entry at a time;
the tests build small fixtures with them and use them as references for the
array assembly of the package.  ``as_terms`` writes a polynomial given as
{exponent: coefficient} in the term arrays that ``build_pmi_relaxation``
reads.  ``moment_relaxation_by_terms`` and
``gram_program_by_terms`` are the unreduced relaxations assembled by Python
loops over basis pairs and matrix entries through these builders;
``principal_split`` cuts them by their sign flips (``moment_flip_split``,
``SosInfo.parts`` and ``rows``), and the package's relaxations must be equal to
the cut programs, entry for entry.  ``cp_sdfp_by_nullspace`` decides the
block certificate through its margin program, posed as an LMI over the
nullspace of the block equations that ``equation_system`` writes out; it
is the reference for ``cp_sdfp``, which reads the decision, the margin and
the witness off the order-0 Gram solve.  ``criterion6_balls`` are the balls
in polytopes of acceptance criterion 6, and ``shifted_disks`` is a
refutable disk pair whose inner set misses the origin.
"""

import numpy as np
import scipy.sparse as sp

from spectracon import posmap
from spectracon.errors import InvalidInput
from spectracon.momrelax import _flip_classes, monomials_upto
from spectracon.families import disk_pair
from spectracon.pencil import ellipsoid_pencil, extend, pencil, polytope_pencil
from spectracon.sdpcore import (SdpProblem, SdpSolution, SolveStatus,
                                _block_veclen, _margin_lmi, solve)
from spectracon.symcore import min_eigenvalue, nullspace, smat, svec


class LmiBuilder:
    """Assembles  opt c'y + c0  s.t.  F0 + sum_q y_q F_q  psd (block diagonal).

    Internally mapped to the canonical form with the y living on the dual
    side: C = F0, A_q = -F_q, b = +-c depending on the sense.  The optimal
    value of the original problem is recovered by :meth:`value_from`.
    """

    def __init__(self, nvars: int, sense: str = "min"):
        if nvars < 1:
            raise InvalidInput("need at least one variable")
        if sense not in ("min", "max"):
            raise InvalidInput("sense must be 'min' or 'max'")
        self.nvars = nvars
        self.sense = sense
        self.offset = 0.0
        self.obj = np.zeros(nvars)
        self.block_sizes = []
        self._const = []
        self._coo = []  # per block: (rows var, i, j, val) lists

    def add_block(self, size: int) -> int:
        """New dense block (size > 0) or diagonal block (size < 0)."""
        if size == 0:
            raise InvalidInput("block size must be nonzero")
        self.block_sizes.append(size)
        if size > 0:
            self._const.append(np.zeros((size, size)))
        else:
            self._const.append(np.zeros(-size))
        self._coo.append(([], [], [], []))
        return len(self.block_sizes) - 1

    def add_const(self, block: int, i: int, j: int, val: float):
        """Add to the constant term F0; dense entries mirror automatically."""
        if self.block_sizes[block] > 0:
            self._const[block][i, j] += val
            if i != j:
                self._const[block][j, i] += val
        else:
            if i != j:
                raise InvalidInput("diagonal block entries need i == j")
            self._const[block][i] += val

    def add_term(self, block: int, var: int, i: int, j: int, val: float):
        """Add val to entry (i, j) (and (j, i)) of F_var in this block."""
        vs, is_, js_, vals = self._coo[block]
        vs.append(var)
        is_.append(i)
        js_.append(j)
        vals.append(val)

    def set_objective(self, var: int, coeff: float):
        self.obj[var] = coeff

    def add_objective(self, var: int, coeff: float):
        self.obj[var] += coeff

    def build(self, metadata=None) -> SdpProblem:
        m = self.nvars
        a_blocks = []
        c_blocks = []
        for size, const, (vs, is_, js_, vals) in zip(
                self.block_sizes, self._const, self._coo):
            veclen = _block_veclen(size)
            if size > 0:
                s = size
                rows = []
                cols = []
                data = []
                for var, i, j, val in zip(vs, is_, js_, vals):
                    rows.append(var)
                    cols.append(i * s + j)
                    data.append(-val)  # A_q = -F_q
                    if i != j:
                        rows.append(var)
                        cols.append(j * s + i)
                        data.append(-val)
                a = sp.coo_matrix((data, (rows, cols)), shape=(m, veclen)).tocsr()
                a.sum_duplicates()
            else:
                rows = list(vs)
                cols = list(is_)
                data = [-v for v in vals]
                a = sp.coo_matrix((data, (rows, cols)), shape=(m, veclen)).tocsr()
                a.sum_duplicates()
            a_blocks.append(a)
            c_blocks.append(const)
        b = self.obj if self.sense == "max" else -self.obj
        return SdpProblem(tuple(self.block_sizes), c_blocks, a_blocks, b,
                          dict(metadata or {}))

    def value_from(self, solution: SdpSolution) -> float:
        """Optimal value of the original LMI problem."""
        v = solution.value
        return self.offset + v if self.sense == "max" else self.offset - v

    @staticmethod
    def interpret(solution: SdpSolution) -> str:
        """Status of the original LMI problem.

        The LMI variables live on the canonical dual side, so canonical
        dual infeasibility means the LMI has no feasible point, and
        canonical primal infeasibility means the LMI objective is unbounded.
        """
        return {
            SolveStatus.OPTIMAL: "optimal",
            SolveStatus.DUAL_INFEASIBLE: "infeasible",
            SolveStatus.PRIMAL_INFEASIBLE: "unbounded",
            SolveStatus.INACCURATE: "inaccurate",
            SolveStatus.ITER_LIMIT: "iterlimit",
        }[solution.status]


class PrimalBuilder:
    """Assembles  min <C, X>  s.t.  <A_i, X> = b_i  over block psd X.

    Entry coefficients are given on matrix positions (i, j) of a symmetric
    block; off-diagonal contributions are split over the two mirror
    positions so that <G, X> reproduces the stated functional.
    """

    def __init__(self):
        self.block_sizes = []
        self._cost = []
        self._rows = []  # per constraint: list of (block, i, j, val)
        self._rhs = []

    def add_block(self, size: int) -> int:
        if size == 0:
            raise InvalidInput("block size must be nonzero")
        self.block_sizes.append(size)
        self._cost.append(np.zeros((size, size)) if size > 0 else np.zeros(-size))
        return len(self.block_sizes) - 1

    def add_cost(self, block: int, i: int, j: int, val: float):
        c = self._cost[block]
        if self.block_sizes[block] > 0:
            if i == j:
                c[i, i] += val
            else:
                c[i, j] += val / 2.0
                c[j, i] += val / 2.0
        else:
            if i != j:
                raise InvalidInput("diagonal block entries need i == j")
            c[i] += val

    def new_constraint(self, rhs: float) -> int:
        self._rows.append([])
        self._rhs.append(float(rhs))
        return len(self._rhs) - 1

    def add_entry(self, con: int, block: int, i: int, j: int, val: float):
        self._rows[con].append((block, i, j, val))

    def build(self, metadata=None) -> SdpProblem:
        m = len(self._rhs)
        if m == 0:
            raise InvalidInput("no constraints")
        per_block = [([], [], []) for _ in self.block_sizes]
        for con, row in enumerate(self._rows):
            for block, i, j, val in row:
                rows, cols, data = per_block[block]
                size = self.block_sizes[block]
                if size > 0:
                    if i == j:
                        rows.append(con)
                        cols.append(i * size + i)
                        data.append(val)
                    else:
                        rows.append(con)
                        cols.append(i * size + j)
                        data.append(val / 2.0)
                        rows.append(con)
                        cols.append(j * size + i)
                        data.append(val / 2.0)
                else:
                    if i != j:
                        raise InvalidInput("diagonal block entries need i == j")
                    rows.append(con)
                    cols.append(i)
                    data.append(val)
        a_blocks = []
        for size, (rows, cols, data) in zip(self.block_sizes, per_block):
            a = sp.coo_matrix((data, (rows, cols)),
                              shape=(m, _block_veclen(size))).tocsr()
            a.sum_duplicates()
            a_blocks.append(a)
        return SdpProblem(tuple(self.block_sizes), list(self._cost), a_blocks,
                          np.array(self._rhs), dict(metadata or {}))


def _eadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def as_terms(poly, k=None):
    """A polynomial given as {exponent tuple: coefficient} as the term arrays
    (exps, coeffs) that ``build_pmi_relaxation`` reads: coeffs of shape (T,)
    when k is None (an objective), else (T, k, k) (a constraint; k = 1 for a
    scalar one)."""
    exps = np.array(list(poly), dtype=np.intp)
    coeffs = np.array(list(poly.values()), dtype=float)
    return exps, (coeffs if k is None else coeffs.reshape(len(exps), k, k))


def _constant_one(nvars):
    """The constant polynomial 1, whose localizing matrix is the moment matrix."""
    return np.zeros((1, nvars), dtype=np.intp), np.ones((1, 1, 1))


def _degree(exps, coeffs):
    """Total degree over the terms with a nonzero coefficient."""
    return max((sum(e) for e, c in zip(exps.tolist(), coeffs) if np.any(c != 0.0)),
               default=0)


def moment_relaxation_by_terms(objective, constraints, t, sense="min", metadata=None):
    """The order-t moment relaxation over every moment, one LmiBuilder term
    per entry: the moment matrix, then one full block per constraint.
    Objective and constraints are term arrays, as ``build_pmi_relaxation``
    takes them.  Returns (problem, builder)."""
    nvars = objective[0].shape[1]
    full = monomials_upto(nvars, 2 * t)
    index = {e: i for i, e in enumerate(full)}
    builder = LmiBuilder(nvars=max(len(full) - 1, 1), sense=sense)

    def term(blk, e, i, j, c):
        if sum(e) == 0:
            builder.add_const(blk, i, j, c)
        else:
            builder.add_term(blk, index[e] - 1, i, j, c)

    # the moment matrix is the localizing matrix of the constant 1
    for exps, coeffs in (_constant_one(nvars), *constraints):
        loc = monomials_upto(nvars, t - (_degree(exps, coeffs) + 1) // 2)
        kk = coeffs.shape[1]
        blk = builder.add_block(len(loc) * kk)
        for i in range(len(loc)):
            for j in range(i, len(loc)):
                for eg, mat in zip(exps.tolist(), coeffs):
                    e = _eadd(_eadd(loc[i], loc[j]), eg)
                    for a in range(kk):
                        for b in (range(a, kk) if i == j else range(kk)):
                            if mat[a, b] != 0.0:
                                term(blk, e, i * kk + a, j * kk + b, mat[a, b])

    for e, c in zip(objective[0].tolist(), objective[1]):
        if sum(e) == 0:
            builder.offset += c
        else:
            builder.add_objective(index[tuple(e)] - 1, c)
    return builder.build(metadata=metadata), builder


def monomial_class(e, var_classes):
    """The XOR of the classes of the odd variables of exponent e."""
    out = 0
    for c, power in zip(var_classes, e):
        if power % 2:
            out ^= c
    return out


def moment_flip_split(objective, constraints, t):
    """(parts, rows): ``moment_relaxation_by_terms``'s blocks cut by the sign
    flips, the reference for the split that ``build_pmi_relaxation``
    assembles.

    The kept rows are the moments of class 0.  Position (u, a) of a block
    (index i * k + a there for basis monomial i) has class u ^ a; the parts
    of a block are its classes, in order of first appearance over the
    positions taken index by index.
    """
    obj_exps, obj_coeffs = objective
    nvars = obj_exps.shape[1]
    polys = [_constant_one(nvars), *constraints]
    classes = _flip_classes(nvars, [*polys, (obj_exps, obj_coeffs.reshape(-1, 1, 1))])

    def cls(e):
        return monomial_class(e, classes)

    full = monomials_upto(nvars, 2 * t)
    rows = np.array([i - 1 for i, e in enumerate(full) if i and cls(e) == 0])
    parts, first = [], nvars
    for exps, coeffs in polys:
        loc = monomials_upto(nvars, t - (_degree(exps, coeffs) + 1) // 2)
        kk = coeffs.shape[1]
        groups = {}
        for a in range(kk):
            for i, u in enumerate(loc):
                groups.setdefault(cls(u) ^ classes[first + a], []).append(i * kk + a)
        parts.append([np.array(sorted(p)) for p in groups.values()])
        first += kk
    return parts, rows


def gram_program_by_terms(a, b, t):
    """``sos_relaxation``'s Gram program, one PrimalBuilder entry per
    coefficient match.  Returns (problem, n_equations, point_rows)."""
    n, k, l = a.n, a.k, b.k
    exponents = monomials_upto(n, t)
    index = {e: i for i, e in enumerate(exponents)}
    N = len(exponents)
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
            ea = exponents[alpha]
            for beta in range(N):
                rest = tuple(g - x - y for g, x, y in
                             zip(gamma, ea, exponents[beta]))
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
            ea = exponents[alpha]
            rest = tuple(g - x for g, x in zip(gamma, ea))
            if any(v < 0 for v in rest):
                continue
            beta = index.get(rest)
            if beta is not None:
                builder.add_entry(con, qt, qt_idx(alpha, i),
                                  qt_idx(beta, j), sign)

    n_eq = 0
    point_rows = np.empty((n, l), dtype=int)
    for gamma in monomials_upto(n, 2 * t + 1):
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
    return problem, n_eq, point_rows


def principal_split(problem, parts, rows):
    """The problem on the constraints ``rows`` (increasing), with dense block
    bi cut into the principal sub-blocks on the index arrays ``parts[bi]``.

    Entries outside the sub-blocks are dropped, so this is exact only when
    they vanish at some optimum and the dropped constraints hold there, as
    for a sign symmetry's classes.  Every block of ``problem`` must be dense.
    """
    sizes, c_blocks, a_blocks = [], [], []
    for size, c, a, idx_list in zip(problem.block_sizes, problem.c_blocks,
                                    problem.a_blocks, parts):
        a = a[rows]
        for idx in idx_list:
            sizes.append(idx.size)
            c_blocks.append(c[np.ix_(idx, idx)])
            a_blocks.append(a[:, (idx[:, None] * size + idx).ravel()])
    return SdpProblem(tuple(sizes), c_blocks, a_blocks, problem.b[rows],
                      dict(problem.metadata))


def equation_system(a, b):
    """Rows svec(sym(A_p (x) E_uv)) and right-hand sides B_p[u, v], for
    p = 0..n and u <= v: the equations <E_r, C> = rhs_r on svec(C)."""
    l = b.k
    u, v = np.triu_indices(l)
    units = np.zeros((u.size, l, l))
    units[np.arange(u.size), u, v] = 1.0
    mats, rhs = [], []
    for ap, bp in zip(a.coeffs, b.coeffs):
        g = np.kron(ap.mat, units)
        mats.append((g + g.swapaxes(1, 2)) / 2.0)
        rhs.append(bp.mat[u, v])
    return svec(np.concatenate(mats)), np.concatenate(rhs), a.k * l


def cp_sdfp_by_nullspace(a, b):
    """``cp_sdfp``'s decision from the margin program posed as an LMI over
    the nullspace of the block equations: max s  s.t.  C_part + sum_q
    theta_q N_q - s I psd,  s <= cap, for a particular solution C_part and
    an orthonormal nullspace basis N_q; inconsistent equations are
    Infeasible.  Same tolerances and witness validation as ``cp_sdfp``;
    returns (kind, margin)."""
    eq, rhs, d = equation_system(extend(a), b)
    scale = 1.0 + float(np.linalg.norm(rhs))
    part = np.linalg.lstsq(eq, rhs, rcond=None)[0]
    if np.linalg.norm(eq @ part - rhs) > posmap._EQ_TOL * scale:
        return "Infeasible", float("-inf")
    null_basis = nullspace(eq, rank_tol=np.finfo(float).eps)
    c_part = smat(part, d)
    cap = 10.0 * scale + float(np.abs(np.diag(c_part)).max(initial=0.0))
    sol = solve(_margin_lmi(c_part, smat(null_basis.T, d), cap))
    if not sol.reliable:
        return "Inconclusive", float("nan")
    margin = sol.value
    witness = smat(part + null_basis @ sol.y[:null_basis.shape[1]], d)
    if margin >= -posmap._FEAS_TOL * scale:
        ok = (np.linalg.norm(eq @ svec(witness) - rhs) <= posmap._EQ_TOL * scale
              and min_eigenvalue(witness) >= -10.0 * posmap._FEAS_TOL * scale)
        return ("Feasible" if ok else "Inconclusive"), margin
    if margin < -posmap._INFEAS_TOL * scale:
        return "Infeasible", margin
    return "Inconclusive", margin


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_problem(got, want):
    """The two problems hold the same blocks, C, A and b, bit for bit, and
    the same metadata."""
    assert got.block_sizes == want.block_sizes
    assert got.metadata == want.metadata
    assert _same_bits(got.b, want.b)
    for cg, cw, ag, aw in zip(got.c_blocks, want.c_blocks, got.a_blocks,
                              want.a_blocks):
        assert _same_bits(cg, cw)
        assert ag.shape == aw.shape
        for part in ("indptr", "indices", "data"):
            assert _same_bits(getattr(ag, part), getattr(aw, part))


def criterion6_balls():
    """The 25 balls in polytopes of acceptance criterion 6, drawn as there,
    each as (ball, polytope, margin, amat, nu): the ball of radius nu in
    {x : 1 + amat x >= 0}, contained exactly when margin < 1."""
    rng = np.random.default_rng(606)
    out = []
    for i in range(25):
        n = 2 + i % 2
        k = 3 + i % 3
        amat = rng.normal(size=(k, n))
        nu = rng.uniform(0.4, 1.0)
        margin = rng.uniform(0.3, 1.7)
        while abs(margin - 1.0) < 0.05:
            margin = rng.uniform(0.3, 1.7)
        amat *= margin / (nu * float(np.linalg.norm(amat, axis=1).max()))
        out.append((ellipsoid_pencil([nu] * n), polytope_pencil(amat, np.ones(k)),
                    margin, amat, nu))
    return out


def shifted_disks():
    """A radius-1.2 disk around (3, 0), which misses the origin, against
    the unit disk there: ``disk_pair(1.2)`` with x replaced by x - (3, 0)."""
    center = np.array([3.0, 0.0])
    out = []
    for p in disk_pair(1.2):
        c = p.coeff_array()
        out.append(pencil([c[0] - np.tensordot(center, c[1:], axes=1), *c[1:]]))
    return tuple(out)
