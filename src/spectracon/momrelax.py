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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations_with_replacement

import numpy as np

from .errors import InvalidInput, OrderTooSmall
from .pencil import LinearPencil, pencil
from .sdpcore import LmiBuilder, SdpSolution, solve

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


class MonomialBasis:
    """Monomials of degree <= t in nvars variables, with index lookup."""

    def __init__(self, nvars: int, degree: int):
        self.nvars = nvars
        self.degree = degree
        self.exponents = monomials_upto(nvars, degree)
        self.index = {e: i for i, e in enumerate(self.exponents)}

    def __len__(self):
        return len(self.exponents)


def _eadd(a: Exponent, b: Exponent) -> Exponent:
    return tuple(x + y for x, y in zip(a, b))


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

    def diagonal_components(self) -> list:
        """Index groups whose cross entries vanish in every coefficient.

        A localizing matrix built from a block-diagonal constraint splits
        into one psd block per group; the split is exact (it is a
        permutation of the unsplit matrix).
        """
        parent = list(range(self.k))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for m in self.terms.values():
            nz = np.argwhere(m != 0.0)
            for i, j in nz:
                ri, rj = find(int(i)), find(int(j))
                if ri != rj:
                    parent[ri] = rj
        groups = {}
        for i in range(self.k):
            groups.setdefault(find(i), []).append(i)
        return sorted(groups.values())

    def restricted(self, idx) -> "MatPoly":
        idx = list(idx)
        sub = {e: m[np.ix_(idx, idx)] for e, m in self.terms.items()}
        return MatPoly(self.nvars, len(idx), sub)


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
# Relaxation assembly


@dataclass
class RelaxationInfo:
    order: int
    nvars: int
    n_moments: int
    block_sizes: tuple
    basis: MonomialBasis = field(repr=False)


def build_pmi_relaxation(objective: Poly, constraints, t: int,
                         sense: str = "min", metadata=None):
    """Order-t moment relaxation of optimizing objective over psd constraints.

    ``constraints`` is a list of Poly (scalar inequalities g >= 0) and
    MatPoly (matrix inequalities G psd).  Returns (problem, builder, info);
    the bound is builder.value_from(solve(problem)).
    """
    nvars = objective.nvars
    if t < 1:
        raise OrderTooSmall("relaxation order must be at least 1")
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

    full = MonomialBasis(nvars, 2 * t)
    nmom = len(full) - 1  # y_0 is pinned to 1
    builder = LmiBuilder(nvars=max(nmom, 1), sense=sense)

    def term(blk, e, i, j, c):
        if sum(e) == 0:
            builder.add_const(blk, i, j, c)
        else:
            builder.add_term(blk, full.index[e] - 1, i, j, c)

    top = MonomialBasis(nvars, t)
    blk = builder.add_block(len(top))
    for i in range(len(top)):
        for j in range(i, len(top)):
            term(blk, _eadd(top.exponents[i], top.exponents[j]), i, j, 1.0)

    for g, d in zip(constraints, half_degs):
        loc = MonomialBasis(nvars, t - d)
        nloc = len(loc)
        if isinstance(g, Poly):
            blk = builder.add_block(nloc)
            for i in range(nloc):
                for j in range(i, nloc):
                    ebase = _eadd(loc.exponents[i], loc.exponents[j])
                    for eg, c in g.terms.items():
                        term(blk, _eadd(ebase, eg), i, j, c)
        else:
            for group in g.diagonal_components():
                sub = g.restricted(group) if len(group) < g.k else g
                kk = sub.k
                blk = builder.add_block(nloc * kk)
                for i in range(nloc):
                    for j in range(i, nloc):
                        ebase = _eadd(loc.exponents[i], loc.exponents[j])
                        for eg, mat in sub.terms.items():
                            e = _eadd(ebase, eg)
                            for a in range(kk):
                                brange = range(a, kk) if i == j else range(kk)
                                for b in brange:
                                    c = mat[a, b]
                                    if c != 0.0:
                                        term(blk, e, i * kk + a, j * kk + b, c)

    for e, c in objective.terms.items():
        if sum(e) == 0:
            builder.offset += c
        else:
            builder.add_objective(full.index[e] - 1, c)

    problem = builder.build(metadata=metadata)
    info = RelaxationInfo(order=t, nvars=nvars, n_moments=nmom,
                          block_sizes=tuple(builder.block_sizes), basis=full)
    return problem, builder, info


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


def containment_relaxation(a: LinearPencil, b: LinearPencil, t: int,
                           r: float = 1.0, R: float = 2.0):
    """Assemble the order-t moment program for  inf z'B(x)z  over
    A(x) psd, r <= |z| <= R."""
    if a.n != b.n:
        raise InvalidInput("pencils must share the variable count")
    if not (0 < r <= R):
        raise InvalidInput("need 0 < r <= R")
    if t < 2:
        raise OrderTooSmall("containment bounds need order t >= 2")
    n, l = a.n, b.k
    nvars = n + l
    obj = quadratic_objective(b, nvars, z_offset=n)
    ga = pencil_as_matpoly(a, nvars)
    lo, hi = annulus_constraints(nvars, n, l, r, R)
    # for r == R the two one-sided blocks together pin |z|^2 to the sphere
    constraints = [ga, lo, hi]
    meta = {"origin": "containment_moment", "order": t, "r": r, "R": R}
    return build_pmi_relaxation(obj, constraints, t, sense="min", metadata=meta)


def solve_mu_mom(a: LinearPencil, b: LinearPencil, t: int, r: float = 1.0,
                 R: float = 2.0) -> MomentResult:
    """Order-t lower bound on the containment margin mu.

    mu >= 0 certifies that every point of the first spectrahedron stays
    inside the second (witnessed over the annulus r <= |z| <= R); the
    bound is monotone in t.  first_moments, the x part of the optimal
    moments, is the minimizer when the relaxation is exact at a point
    mass; it is None when the solve returns no point.
    """
    problem, builder, info = containment_relaxation(a, b, t, r, R)
    sol = solve(problem)
    status = LmiBuilder.interpret(sol)
    value = builder.value_from(sol) if sol.has_point else float("nan")
    first = None
    if sol.has_point:
        first = np.empty(a.n)
        for p in range(a.n):
            e = [0] * info.nvars
            e[p] = 1
            first[p] = sol.y[info.basis.index[tuple(e)] - 1]
    return MomentResult(value=float(value), status=status, order=t, r=r, R=R,
                        info=info, first_moments=first, solution=sol)


def moment_matrix(result: MomentResult) -> np.ndarray:
    """The optimal truncated moment matrix M_t(y), including y_0 = 1."""
    info = result.info
    top = MonomialBasis(info.nvars, info.order)
    m = np.empty((len(top), len(top)))
    for i in range(len(top)):
        for j in range(i, len(top)):
            e = _eadd(top.exponents[i], top.exponents[j])
            idx = info.basis.index[e]
            v = 1.0 if idx == 0 else result.solution.y[idx - 1]
            m[i, j] = m[j, i] = v
    return m


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
