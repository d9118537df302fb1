"""Moment relaxations for polynomial matrix inequality problems.

The central object is the truncated moment sequence y = (y_gamma) indexed by
monomials in the joint variables.  Order-t relaxation of

    inf  p(v)   s.t.  G_j(v) psd

replaces p by its linearization sum_gamma c_gamma y_gamma, constrains the
moment matrix M_t(y) and the localizing matrices M_{t-d_j}(G_j y) to be psd,
and fixes y_0 = 1.  Values are monotone nondecreasing in t and bound the
true infimum from below (above for sup problems).

Containment of one spectrahedron in another is the special case

    inf  z' B(x) z   s.t.  A(x) psd,  r^2 <= |z|^2 <= R^2,

whose optimum mu is positive iff the first set is contained in the interior
of the second (over the searched annulus), and negative iff some point of
the first set escapes the second.

Two exact reductions shrink every relaxation without moving its bound.
Moments that are odd under a sign flip of the problem, which negates some
variables together with some indices of its matrix constraints (for
containment, at least z -> -z), vanish at some optimum and are dropped,
which splits each moment and localizing matrix into one block per class;
the Gram programs of sosrelax split by the same flips.  And
containment_relaxation and radii.circumradius_sq rescale x so that its
moments are O(1); the first moments and moment matrix are mapped back to
the original x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations_with_replacement

import numpy as np

from .errors import InvalidInput, OrderTooSmall
from .pencil import LinearPencil, pencil
from .sdpcore import _LMI_STATUS, SdpProblem, SdpSolution, _block_data, solve
from .symcore import spectral_norm

Exponent = tuple


# ---------------------------------------------------------------------------
# Monomial bookkeeping


def monomials_upto(nvars: int, degree: int) -> list:
    """All exponent tuples with total degree <= degree, graded, then lex."""
    if nvars < 0 or degree < 0:
        raise InvalidInput("nonnegative variable count and degree required")
    out = []
    for d in range(degree + 1):
        level = []
        for combo in combinations_with_replacement(range(nvars), d):
            e = [0] * nvars
            for v in combo:
                e[v] += 1
            level.append(tuple(e))
        level.sort()
        out.extend(level)
    return out


def basis_size(nvars: int, degree: int) -> int:
    return math.comb(nvars + degree, degree)


def _exponent_array(exponents, nvars: int) -> np.ndarray:
    """Exponent tuples as the rows of an integer array."""
    return np.array(exponents, dtype=np.intp).reshape(len(exponents), nvars)


def _positions(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Index in ``table`` (distinct rows) of each of ``rows``, all of which
    occur in it."""
    # one void scalar per row; a leading 0 column keeps empty rows sortable
    both = np.zeros((len(table) + len(rows), table.shape[1] + 1), dtype=table.dtype)
    both[:, 1:] = np.concatenate((table, rows))
    keys = both.view(np.dtype((np.void, both.itemsize * both.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return first[inverse[len(table):]]


# ---------------------------------------------------------------------------
# Sparse polynomials


class Poly:
    """Scalar polynomial as {exponent tuple: coefficient}."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        self.terms = {}
        for e, c in (terms or {}).items():
            if len(e) != nvars:
                raise InvalidInput("exponent length disagrees with nvars")
            if c != 0.0:
                self.terms[tuple(int(v) for v in e)] = float(c)

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def __call__(self, point) -> float:
        point = np.asarray(point, dtype=float)
        total = 0.0
        for e, c in self.terms.items():
            total += c * float(np.prod(point ** np.array(e)))
        return total


class MatPoly:
    """Symmetric-matrix-valued polynomial as {exponent tuple: (k, k) array}."""

    __slots__ = ("nvars", "k", "terms")

    def __init__(self, nvars: int, k: int, terms=None):
        self.nvars = nvars
        self.k = k
        self.terms = {}
        for e, m in (terms or {}).items():
            m = np.asarray(m, dtype=float)
            if m.shape != (k, k):
                raise InvalidInput("coefficient shape disagrees with k")
            if np.any(m != 0.0):
                self.terms[tuple(int(v) for v in e)] = (m + m.T) / 2.0

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def __call__(self, point) -> np.ndarray:
        point = np.asarray(point, dtype=float)
        total = np.zeros((self.k, self.k))
        for e, m in self.terms.items():
            total += m * float(np.prod(point ** np.array(e)))
        return total


def pencil_as_matpoly(p: LinearPencil, nvars: int, offset: int = 0) -> MatPoly:
    """Embed a linear pencil into a polynomial in nvars joint variables.

    Pencil variable q maps to joint variable offset + q.
    """
    if offset + p.n > nvars:
        raise InvalidInput("pencil does not fit into the joint variable range")
    terms = {tuple(0 for _ in range(nvars)): p.coeffs[0].mat}
    for q in range(1, p.n + 1):
        e = [0] * nvars
        e[offset + q - 1] = 1
        terms[tuple(e)] = p.coeffs[q].mat
    return MatPoly(nvars, p.k, terms)


def quadratic_objective(b: LinearPencil, nvars: int, z_offset: int) -> Poly:
    """The polynomial z' B(x) z in the joint variables (x, z)."""
    l = b.k
    terms = {}

    def bump(e_list, c):
        e = tuple(e_list)
        terms[e] = terms.get(e, 0.0) + c

    for q in range(b.n + 1):
        coeff = b.coeffs[q].mat
        for ia in range(l):
            for ib in range(ia, l):
                c = coeff[ia, ib]
                if c == 0.0:
                    continue
                e = [0] * nvars
                if q > 0:
                    e[q - 1] += 1
                e[z_offset + ia] += 1
                e[z_offset + ib] += 1
                bump(e, c if ia == ib else 2.0 * c)
    return Poly(nvars, terms)


def annulus_constraints(nvars: int, z_offset: int, l: int, r: float, R: float):
    """The polynomials |z|^2 - r^2 and R^2 - |z|^2."""
    zero = tuple(0 for _ in range(nvars))
    lo = {zero: -r * r}
    hi = {zero: R * R}
    for a in range(l):
        e = [0] * nvars
        e[z_offset + a] = 2
        lo[tuple(e)] = 1.0
        hi[tuple(e)] = -1.0
    return Poly(nvars, lo), Poly(nvars, hi)


# ---------------------------------------------------------------------------
# Sign symmetry
#
# A sign flip negates some variables and some indices of the matrix
# polynomials at once.  In GF(2) bit masks (the variables, then the indices)
# it fixes a term v^e G_e when it meets the row mask parity(e) ^ bit(i) ^
# bit(j) of each nonzero entry (i, j) of G_e in an even number of bits (a
# scalar term counts as 1 x 1), parity(e) being the set of odd exponents.
# Two masks change sign alike under all such flips iff they differ by an
# element of the row space; a mask's class is its coset representative with
# every leading bit of the row space cleared (zero for the invariant masks),
# and is linear in the mask.  A flip maps a feasible moment sequence to a
# feasible one of the same value (a localizing matrix M goes to D M D, D a
# diagonal of signs), so the average over the flips is optimal too.  It
# zeroes every moment of nonzero class and every entry of a localizing matrix
# between positions (u, a) and (w, b), u, w basis monomials and a, b indices,
# whose classes u ^ a and w ^ b differ: the relaxation keeps the class-zero
# moments and has one block per position class.


def _monomial_classes(exps: np.ndarray, var_classes: np.ndarray) -> np.ndarray:
    """Class of each exponent row: the XOR of its odd variables' classes."""
    return np.bitwise_xor.reduce(np.where(exps % 2 == 1, var_classes, 0), axis=1)


def _flip_classes(nvars: int, polys) -> np.ndarray:
    """The class of every bit under the sign flips that fix ``polys``.

    ``polys`` are matrix polynomials as (exponents, coefficients), their
    terms stacked as (T, nvars) and (T, k, k) arrays; a scalar one counts as
    1 x 1.  Bit q < nvars is variable q, and each polynomial's k indices
    take the next k bits.  Returns an object array of int masks.
    """
    bits = np.array([1 << q for q in range(nvars + sum(c.shape[1] for _, c in polys))],
                    dtype=object)
    masks, first = set(), nvars
    for exps, coeffs in polys:
        term, i, j = np.nonzero(coeffs)
        upper = i <= j
        term, i, j = term[upper], first + i[upper], first + j[upper]
        masks.update((_monomial_classes(exps, bits[:nvars])[term] ^ bits[i] ^ bits[j]).tolist())
        first += coeffs.shape[1]
    # the row space's reduced echelon basis by leading bit: no row holds
    # another's leading bit, so a mask's class is the mask with every leading
    # bit it holds cleared by that bit's row
    rows = {}
    for mask in masks:
        for lead, row in rows.items():
            if mask >> lead & 1:
                mask ^= row
        if mask:
            lead = mask.bit_length() - 1
            for q, row in rows.items():
                if row >> lead & 1:
                    rows[q] = row ^ mask
            rows[lead] = mask
    return np.array([rows.get(q, 0) ^ 1 << q for q in range(len(bits))], dtype=object)


def _position_blocks(basis_classes: np.ndarray, index_classes: np.ndarray) -> np.ndarray:
    """Block of each position (u, a) of a localizing matrix, u-major: one
    block per class u ^ a, numbered in order of first appearance over the
    positions taken index-major, so that a block-diagonal constraint's
    blocks come index group by index group."""
    cls = basis_classes[None, :] ^ index_classes[:, None]
    _, first, label = np.unique(cls.ravel(), return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[label].reshape(cls.shape).T.ravel()


# ---------------------------------------------------------------------------
# Relaxation assembly


@dataclass
class RelaxationInfo:
    """Sizes of an order-t relaxation and the moments it keeps.

    ``moments`` are the kept exponents, the zero exponent first; the solve's
    y[i] is the moment of moments[i + 1].  Every other monomial is odd under
    a sign symmetry of the problem and has moment 0.  The relaxation is
    built in variables v' with v = scale * v' (scale is all ones unless
    :func:`containment_relaxation` rescaled x).
    """

    order: int
    nvars: int
    n_moments: int
    block_sizes: tuple
    moments: tuple = field(repr=False)
    scale: np.ndarray = field(repr=False)

    def __post_init__(self):
        self._index = {e: i for i, e in enumerate(self.moments)}

    def moment(self, y, e: Exponent) -> float:
        """The moment of v^e in the original variables, from the solve's y."""
        i = self._index.get(e)
        if i is None:
            return 0.0
        value = 1.0 if i == 0 else float(y[i - 1])
        return value * float(np.prod(self.scale ** np.array(e)))


def _stacked_terms(g, nvars: int):
    """(exponents, coefficients) of g's terms as (T, nvars) and (T, k, k)
    arrays; a Poly counts as 1 x 1."""
    k = 1 if isinstance(g, Poly) else g.k
    return (_exponent_array(list(g.terms), nvars),
            np.array(list(g.terms.values()), dtype=float).reshape(len(g.terms), k, k))


def _localizing_entries(exps, mats, basis, block, moments: np.ndarray):
    """The localizing matrix of the terms (exps, mats) on ``basis``, as
    entries (block, moment, i, j, value) on position pairs P <= P' of one
    block.

    Position P = u k + a is basis monomial u and index a; ``block`` labels
    the positions, and i, j are the indices of P and P' in their block's
    positions.  Entry (a, b) of the coefficient of v^e sits at (P, P') on
    the moment of basis[u] + basis[w] + e: row ``moment`` of ``moments``.
    """
    k = mats.shape[1]
    order = np.argsort(block, kind="stable")
    counts = np.bincount(block)
    local = np.empty_like(order)
    local[order] = np.arange(block.size) - np.repeat(np.cumsum(counts) - counts, counts)
    u, w = np.triu_indices(len(basis))
    term, a, b = np.nonzero(mats)
    # both triangles of an off-diagonal basis pair, the upper one of a diagonal pair
    pair, nz = np.nonzero((u < w)[:, None] | (a <= b))
    term, a, b, u, w = term[nz], a[nz], b[nz], u[pair], w[pair]
    P, Q = u * k + a, w * k + b
    same = block[P] == block[Q]
    term, a, b, u, w, P, Q = (v[same] for v in (term, a, b, u, w, P, Q))
    moment = _positions(moments, basis[u] + basis[w] + exps[term])
    return block[P], moment, local[P], local[Q], mats[term, a, b]


def build_pmi_relaxation(objective: Poly, constraints, t: int,
                         sense: str = "min", metadata=None):
    """Order-t moment relaxation of optimizing objective over psd constraints.

    ``constraints`` is a list of Poly (scalar inequalities g >= 0) and
    MatPoly (matrix inequalities G psd).  Moments that are odd under a sign
    flip of the problem are dropped and the moment matrix and each
    localizing matrix are split into one block per position class (see
    above and :func:`_position_blocks`), each block on its positions (u, a)
    ordered by u, then a; the bound is the unreduced relaxation's.  Returns
    (problem, value, info); the bound is value(solve(problem)).
    """
    nvars = objective.nvars
    if t < 1:
        raise OrderTooSmall("relaxation order must be at least 1")
    if sense not in ("min", "max"):
        raise InvalidInput("sense must be 'min' or 'max'")
    if objective.degree() > 2 * t:
        raise OrderTooSmall(
            f"order {t} cannot linearize a degree-{objective.degree()} objective")
    half_degs = []
    for g in constraints:
        if g.nvars != nvars:
            raise InvalidInput("constraint variable count disagrees with objective")
        d = (g.degree() + 1) // 2
        if t < d:
            raise OrderTooSmall(
                f"order {t} below half-degree {d} of a constraint")
        half_degs.append(d)

    # the moment matrix is the localizing matrix of the constant 1, and a
    # scalar constraint is a 1 x 1 matrix one
    full = monomials_upto(nvars, 2 * t)
    terms = [_stacked_terms(g, nvars)
             for g in (Poly(nvars, {full[0]: 1.0}), *constraints)]
    obj_exps, obj_coeffs = _stacked_terms(objective, nvars)
    classes = _flip_classes(nvars, [*terms, (obj_exps, obj_coeffs)])
    kept = _monomial_classes(_exponent_array(full, nvars), classes[:nvars]) == 0
    moments = [e for e, keep in zip(full, kept) if keep]
    table = _exponent_array(moments, nvars)
    m = max(len(moments) - 1, 1)  # y_0 is pinned to 1
    # The moments y are the canonical dual's variables: C = F0 (the entries
    # on moment 0), A = -F and b = +-objective, and the bound is the
    # objective's constant +- the solve's value.
    sign = 1.0 if sense == "max" else -1.0
    sizes, c_blocks, a_blocks = [], [], []
    first = nvars  # the bit of the next index
    for (exps, mats), d in zip(terms, (0, *half_degs)):
        k = mats.shape[1]
        basis = _exponent_array(monomials_upto(nvars, t - d), nvars)
        block = _position_blocks(_monomial_classes(basis, classes[:nvars]),
                                 classes[first:first + k])
        first += k
        blk, moment, i, j, v = _localizing_entries(exps, mats, basis, block, table)
        v = np.where(moment == 0, v, -v)
        for label, size in enumerate(np.bincount(block)):
            sel = blk == label
            sizes.append(int(size))
            c, a = _block_data(m, sizes[-1], moment[sel], i[sel], j[sel], v[sel])
            c_blocks.append(c)
            a_blocks.append(a)
    obj = np.zeros(m + 1)
    np.add.at(obj, _positions(table, obj_exps), obj_coeffs.ravel())
    offset = obj[0]
    problem = SdpProblem(tuple(sizes), c_blocks, a_blocks, sign * obj[1:],
                         dict(metadata or {}))
    info = RelaxationInfo(order=t, nvars=nvars, n_moments=len(moments) - 1,
                          block_sizes=tuple(sizes), moments=tuple(moments),
                          scale=np.ones(nvars))
    return problem, (lambda sol: offset + sign * sol.value), info


# ---------------------------------------------------------------------------
# Containment bound


@dataclass
class MomentResult:
    """Order-t moment bound for the containment margin."""

    value: float
    status: str  # optimal | inaccurate | unbounded | infeasible | iterlimit
    order: int
    r: float
    R: float
    info: RelaxationInfo
    first_moments: np.ndarray | None  # candidate minimizer (x part)
    solution: SdpSolution = field(repr=False)

    @property
    def reliable(self) -> bool:
        """The solve's :attr:`SdpSolution.reliable`."""
        return self.solution.reliable


def _x_scale(a: LinearPencil) -> np.ndarray:
    """D_pp = max(1, |A_0| / |A_p|) in the spectral norm, 1 where either
    norm is 0.

    |A_0| / |A_p| estimates how far S_A reaches along x_p.  Coordinates
    reaching beyond 1 are scaled down to O(1); the others are left alone,
    since their moments are already at most about 1, and scaling them up
    inflates the degree-2t moments by the t-th power of any underestimate
    (Choi's order-3 slice, reach 0.54-0.67 against estimates 0.41-0.47,
    then ends Inaccurate instead of Optimal).
    """
    norm0 = spectral_norm(a.coeffs[0])
    d = np.ones(a.n)
    for p in range(a.n):
        norm_p = spectral_norm(a.coeffs[p + 1])
        if norm0 > 0 and norm_p > 0:
            d[p] = max(1.0, norm0 / norm_p)
    return d


def _scaled_pencil(p: LinearPencil, d: np.ndarray) -> LinearPencil:
    """The pencil x' -> p(D x'), D = diag(d)."""
    return pencil([p.coeffs[0].mat] + [dp * c.mat for dp, c in zip(d, p.coeffs[1:])])


def containment_relaxation(a: LinearPencil, b: LinearPencil, t: int,
                           r: float = 1.0, R: float = 2.0):
    """Assemble the order-t moment program for  inf z'B(x)z  over
    A(x) psd, r <= |z| <= R.

    The program is built in x' with x = D x' (see _x_scale), an exact
    change of variables that brings the moments of x to O(1); info.scale
    records D (and 1 for z).
    """
    if a.n != b.n:
        raise InvalidInput("pencils must share the variable count")
    if not (0 < r <= R):
        raise InvalidInput("need 0 < r <= R")
    if t < 2:
        raise OrderTooSmall("containment bounds need order t >= 2")
    n, l = a.n, b.k
    nvars = n + l
    d = _x_scale(a)
    a, b = _scaled_pencil(a, d), _scaled_pencil(b, d)
    obj = quadratic_objective(b, nvars, z_offset=n)
    ga = pencil_as_matpoly(a, nvars)
    lo, hi = annulus_constraints(nvars, n, l, r, R)
    # for r == R the two one-sided blocks together pin |z|^2 to the sphere
    constraints = [ga, lo, hi]
    meta = {"origin": "containment_moment", "order": t, "r": r, "R": R}
    problem, value, info = build_pmi_relaxation(obj, constraints, t,
                                                sense="min", metadata=meta)
    info.scale = np.concatenate((d, np.ones(l)))
    return problem, value, info


def solve_mu_mom(a: LinearPencil, b: LinearPencil, t: int, r: float = 1.0,
                 R: float = 2.0) -> MomentResult:
    """Order-t lower bound on the containment margin mu.

    mu >= 0 certifies that every point of the first spectrahedron stays
    inside the second (witnessed over the annulus r <= |z| <= R); the
    bound is monotone in t.  first_moments, the x part of the optimal
    moments, is the minimizer when the relaxation is exact at a point
    mass; it is None when the solve returns no point.
    """
    problem, value_of, info = containment_relaxation(a, b, t, r, R)
    sol = solve(problem)
    status = _LMI_STATUS[sol.status]
    value = value_of(sol) if sol.has_point else float("nan")
    first = None
    if sol.has_point:
        units = [tuple(int(q == p) for q in range(info.nvars)) for p in range(a.n)]
        first = np.array([info.moment(sol.y, e) for e in units])
    return MomentResult(value=float(value), status=status, order=t, r=r, R=R,
                        info=info, first_moments=first, solution=sol)


def moment_matrix(result: MomentResult) -> np.ndarray:
    """The optimal truncated moment matrix M_t(y), including y_0 = 1, in
    the original variables; dropped moments are 0."""
    info = result.info
    top = _exponent_array(monomials_upto(info.nvars, info.order), info.nvars)
    return np.array([[info.moment(result.solution.y, tuple(ea + eb))
                      for eb in top] for ea in top])


def shrink_pencil(p: LinearPencil, factor: float) -> LinearPencil:
    """Pencil of the scaled set factor * S_A (constant part untouched)."""
    if factor <= 0:
        raise InvalidInput("scale factor must be positive")
    return pencil([p.coeffs[0].mat]
                  + [c.mat / factor for c in p.coeffs[1:]])


_SHRINK_TOL = 1e-7
_SHRINK_STEPS = 12


@dataclass
class ShrinkResult:
    factor: float  # largest certified scale, nan when even `lo` fails
    value: float   # relaxation bound at that scale
    order: int
    certified: bool
    evaluations: int
    history: list = field(default_factory=list)


def shrink_to_certify(a: LinearPencil, b: LinearPencil, t: int = 2,
                      lo: float = 2.0 ** -10, hi: float = 1.0,
                      r: float = 1.0, R: float = 2.0) -> ShrinkResult:
    """Bisect for the largest factor nu with nu*S_A certifiably inside S_B.

    Certification means a reliable order-t bound >= -``_SHRINK_TOL`` (1e-7)
    for the shrunken inner set.  The search keeps the invariant that `lo`
    certifies and `hi` does not, so the returned factor always carries a
    certificate (unless even `lo` fails, flagged by certified=False), and
    bisects ``_SHRINK_STEPS`` (12) times.
    """
    if not (0 < lo < hi):
        raise InvalidInput("need 0 < lo < hi")
    history = []

    def attempt(nu):
        res = solve_mu_mom(shrink_pencil(a, nu), b, t, r=r, R=R)
        ok = res.reliable and res.value >= -_SHRINK_TOL
        history.append((nu, res.value, ok))
        return ok, res.value

    ok_hi, v_hi = attempt(hi)
    if ok_hi:
        return ShrinkResult(hi, v_hi, t, True, len(history), history)
    ok_lo, v_lo = attempt(lo)
    if not ok_lo:
        return ShrinkResult(float("nan"), v_lo, t, False, len(history), history)
    for _ in range(_SHRINK_STEPS):
        mid = 0.5 * (lo + hi)
        ok, v = attempt(mid)
        if ok:
            lo, v_lo = mid, v
        else:
            hi = mid
    return ShrinkResult(lo, v_lo, t, True, len(history), history)
