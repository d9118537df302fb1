"""Sampling-based probes of spectrahedra.

Containment relaxations return one-sided bounds; the routines here supply
the other side.  boundary_witness tries the ends of chords through the
origin, where the concave lambda_min(B(x)) has its minimum over S_A, at
the cost of one dsygv per chord and one stacked eigvalsh.  A hit-and-run
walk draws points from the interior of S_A, mu_grid evaluates the
containment functional on those points to get an upper bound on mu, and
refutation_search polishes the worst point into an explicit violation
witness when one exists.

The walk stacks the pencil once as A0 and the (k^2, n) matrix F of its
linear coefficients, so A(x) = A0 + F x and the direction matrix U = F u.
The chord through x along u is {t : A(x) + t U psd}; with A(x) positive
definite its ends are -1/lambda for the extreme generalized eigenvalues
lambda of U v = lambda A(x) v, so each step costs one LAPACK call (dsygv:
one Cholesky factorization of A(x) and one small eigenvalue problem).  A
point where A(x) does not factor gets the empty chord and the walk stays
put.  The smallest eigenvalue of B at all sample points comes from one
stacked eigvalsh over the same flattened coefficients; confirm_witness is
the one rule that turns a point into a witness, checked on the pencils
themselves.

The polish is Nelder-Mead (Nelder and Mead 1965) on a penalized margin,
each margin one dsyevd call.  _nelder_mead is an in-package copy of
scipy.optimize's non-adaptive, unbounded variant, step for step, so it
returns scipy's points bit for bit.  Owning it keeps scipy.optimize, which
loads about 200 more modules, out of every process that runs a search,
and keeps the polish from changing with the installed scipy.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dsyevd, dsygv

from .errors import InvalidInput, NoInteriorPoint
from .pencil import LinearPencil
from .sdpcore import feasibility_probe
from .symcore import min_eigenvalue

# A witness must lie in S_A up to this much negative eigenvalue.
WITNESS_FEAS_TOL = 1e-9

# The walk discards its first _BURN steps and keeps every _THIN-th after.
_BURN = 50
_THIN = 3

# The Nelder-Mead polish runs at most _POLISH_ITER iterations per variable
# and stops once the simplex spans at most _POLISH_XATOL in every coordinate
# and _POLISH_FATOL in value.
_POLISH_ITER = 400
_POLISH_XATOL = 1e-10
_POLISH_FATOL = 1e-12

# A chord with no end on one side (a recession direction) is cut here.
_CHORD_CAP = 1e6

# Random chords through the origin that boundary_witness tries besides the
# coordinate axes.
_BOUNDARY_CHORDS = 16


def interior_point(p: LinearPencil) -> np.ndarray:
    """A strictly feasible point of S_A, via the feasibility probe.

    Raises NoInteriorPoint carrying the probe's answer otherwise.
    """
    probe = feasibility_probe(p)
    if probe.kind != "NonEmpty":
        raise NoInteriorPoint(
            f"no interior point found (probe says {probe.kind})", probe.kind)
    return probe.point


def _flatten(p: LinearPencil) -> tuple[np.ndarray, np.ndarray]:
    """A0 and the (k^2, n) matrix F with A(x) = A0 + (F x).reshape(k, k)."""
    c = p.coeff_array()
    return c[0], c[1:].reshape(p.n, p.k * p.k).T


def _margins(a0: np.ndarray, f: np.ndarray, x) -> np.ndarray:
    """Smallest eigenvalue of the flattened pencil at x, or at each row of x."""
    x = np.asarray(x, dtype=float)
    mats = a0 + (x @ f.T).reshape(x.shape[:-1] + a0.shape)
    return np.linalg.eigvalsh(mats)[..., 0]


def _chord(a0: np.ndarray, f: np.ndarray, x: np.ndarray,
           u: np.ndarray) -> tuple[float, float]:
    """Feasible parameter interval of the line x + t*u inside S_A.

    The generalized eigenvalues lambda of (U, A(x)) are those of
    A(x)^{-1/2} U A(x)^{-1/2}, so the segment {t : I + t lambda >= 0} ends
    at -1/lambda_max and -1/lambda_min; a side with no eigenvalue beyond
    1e-12 in magnitude is open up to _CHORD_CAP.  A point where A(x) is not
    positive definite gets the empty chord (0, 0).
    """
    k = a0.shape[0]
    w, _, info = dsygv((f @ u).reshape(k, k), a0 + (f @ x).reshape(k, k),
                       jobz="N")
    if info != 0:
        return 0.0, 0.0
    lo = -1.0 / w[-1] if w[-1] > 1e-12 else -_CHORD_CAP
    hi = -1.0 / w[0] if w[0] < -1e-12 else _CHORD_CAP
    return float(lo), float(hi)


def sample_spectrahedron(p: LinearPencil, count: int, seed: int = 0,
                         x0: np.ndarray | None = None) -> np.ndarray:
    """Hit-and-run samples from the interior of S_A, shape (count, n).

    Deterministic for a fixed seed.  The walk shrinks each chord slightly
    so iterates stay strictly feasible.
    """
    if count <= 0:
        raise InvalidInput("count must be positive")
    n = p.n
    if x0 is None:
        x0 = interior_point(p)
    x = np.asarray(x0, dtype=float).copy()
    if min_eigenvalue(p.evaluate(x)) <= 0:
        raise InvalidInput("starting point is not strictly feasible")
    a0, f = _flatten(p)
    rng = np.random.default_rng(seed)
    out = np.empty((count, n))
    kept = 0
    step = 0
    while kept < count:
        u = rng.standard_normal(n)
        u /= np.linalg.norm(u)
        lo, hi = _chord(a0, f, x, u)
        # stay off the boundary
        t = rng.uniform(0.999 * lo, 0.999 * hi)
        x = x + t * u
        step += 1
        if step > _BURN and (step - _BURN) % _THIN == 0:
            out[kept] = x
            kept += 1
    return out


def eigen_margin(p: LinearPencil, x: np.ndarray) -> float:
    """Smallest eigenvalue of the pencil at x."""
    return min_eigenvalue(p.evaluate(x))


def confirm_witness(a: LinearPencil, b: LinearPencil, x,
                    tol: float) -> dict | None:
    """x as a containment witness, or None if it is not one.

    A witness has A(x) psd up to WITNESS_FEAS_TOL and B(x) with an
    eigenvalue below -tol; the result is {"x", "b_margin", "a_margin"}.
    """
    am = eigen_margin(a, x)
    bm = eigen_margin(b, x)
    if am >= -WITNESS_FEAS_TOL and bm < -tol:
        return {"x": np.asarray(x, dtype=float), "b_margin": float(bm),
                "a_margin": float(am)}
    return None


def boundary_witness(a: LinearPencil, b: LinearPencil, tol: float,
                     seed: int) -> dict | None:
    """A witness among boundary points of S_A, or None; solves no SDP.

    lambda_min(B(x)) is concave in x, so its minimum over S_A lies on the
    boundary.  When the origin is strictly inside S_A, the chords through
    it along the n coordinate axes and _BOUNDARY_CHORDS random unit
    directions end on the boundary; both ends are pulled 0.1% inside, as in
    the walk, and a capped end (a recession direction) is used as it is.  B
    is evaluated at all the ends at once, and the most negative one goes
    through confirm_witness.  Without variables the origin is the set's
    only point, and it goes through confirm_witness itself.
    """
    origin = np.zeros(a.n)
    if eigen_margin(a, origin) <= 0:
        return None
    if a.n == 0:
        return confirm_witness(a, b, origin, tol)
    a0, f = _flatten(a)
    rand = np.random.default_rng(seed).standard_normal((_BOUNDARY_CHORDS, a.n))
    dirs = np.vstack((np.eye(a.n), rand / np.linalg.norm(rand, axis=1, keepdims=True)))
    ends = np.array([_chord(a0, f, origin, u) for u in dirs])
    ends = np.where(np.abs(ends) >= _CHORD_CAP, ends, 0.999 * ends)
    points = (ends[:, :, None] * dirs[:, None, :]).reshape(-1, a.n)
    worst = points[np.argmin(_margins(*_flatten(b), points))]
    return confirm_witness(a, b, worst, tol)


def mu_grid(a: LinearPencil, b: LinearPencil, r: float = 1.0, R: float = 2.0,
            samples: int = 400, seed: int = 0) -> float:
    """Sampling upper bound on mu: min over drawn x of the z-profile value.

    For fixed x the inner minimum of z^T B(x) z over r <= |z| <= R is
    r^2 lam_min when lam_min >= 0 and R^2 lam_min otherwise.
    """
    points = sample_spectrahedron(a, samples, seed=seed)
    lam = _margins(*_flatten(b), points)
    vals = np.where(lam >= 0, (r * r) * lam, (R * R) * lam)
    return float(np.min(vals, initial=np.inf))


def _penalized_margin(flat_a, flat_b):
    """The polish objective: lambda_min(B(x)) + 1e4 * max(0, -lambda_min(A(x))).

    Each margin is one dsyevd call on the flattened pencil at x, which gives
    eigvalsh's eigenvalues on these exactly symmetric matrices.
    """
    def margin(a0, f, x):
        k = a0.shape[0]
        w, _, info = dsyevd(a0 + (x @ f.T).reshape(k, k), compute_v=0, lower=1)
        if info != 0:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return float(w[0])

    def objective(x):
        return margin(*flat_b, x) + 1e4 * max(0.0, -margin(*flat_a, x))
    return objective


def _nelder_mead(func, x0, maxiter: int, xatol: float,
                 fatol: float) -> np.ndarray:
    """Best vertex of a Nelder-Mead minimization of func from x0.

    Step for step scipy.optimize.minimize(method="Nelder-Mead") with
    adaptive=False, no bounds, and maxiter, xatol and fatol as given: the
    same initial simplex, coefficients, trial points and reordering, and no
    cap on evaluations.  func must not modify its argument.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    n = len(x0)
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        y = np.array(x0, copy=True)
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    fsim = np.array([func(v) for v in sim])
    # scipy sorts the initial simplex twice; argsort need not be stable
    for _ in range(2):
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)

    iterations = 1
    while iterations < maxiter:
        if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = (1 + rho) * xbar - rho * sim[-1]
        fxr = func(xr)
        if fxr < fsim[0]:
            xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
            fxe = func(xe)
            if fxe < fxr:
                sim[-1], fsim[-1] = xe, fxe
            else:
                sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            shrink = False
            if fxr < fsim[-1]:  # outside contraction
                xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                fxc = func(xc)
                if fxc <= fxr:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    shrink = True
            else:  # inside contraction
                xcc = (1 - psi) * xbar + psi * sim[-1]
                fxcc = func(xcc)
                if fxcc < fsim[-1]:
                    sim[-1], fsim[-1] = xcc, fxcc
                else:
                    shrink = True
            if shrink:
                for j in range(1, n + 1):
                    sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                    fsim[j] = func(sim[j])
        iterations += 1
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)
    return sim[0]


def refutation_search(a: LinearPencil, b: LinearPencil, tol: float = 1e-7,
                      samples: int = 400, seed: int = 0,
                      x0: np.ndarray | None = None) -> dict | None:
    """Search for x with A(x) psd and B(x) not psd.

    The walk starts at x0, a strictly feasible point of S_A, or at
    interior_point(a) when x0 is None.  The three samples with the smallest
    B-margin are tried as they are, then polished by _nelder_mead, scipy's
    Nelder-Mead copied step for step so that the package never imports
    scipy.optimize, on lambda_min(B) plus a penalty of 1e4 times A's
    violation; a polished point outside S_A is pulled back toward its
    sample.  Returns confirm_witness's dict for a confirmed witness, None
    otherwise; unconfirmed negatives are never reported.
    """
    points = sample_spectrahedron(a, samples, seed=seed, x0=x0)
    flat_a, flat_b = _flatten(a), _flatten(b)
    order = np.argsort(_margins(*flat_b, points))

    for idx in order[:3]:
        hit = confirm_witness(a, b, points[idx], tol)
        if hit is not None:
            return hit

    # penalized local descent from the most negative candidates
    objective = _penalized_margin(flat_a, flat_b)
    for idx in order[:3]:
        x = _nelder_mead(objective, points[idx], _POLISH_ITER * a.n,
                         _POLISH_XATOL, _POLISH_FATOL)
        hit = confirm_witness(a, b, x, tol)
        if hit is not None:
            return hit
        # pull slightly inside A if the polish drifted out
        if _margins(*flat_a, x) < 0:
            base = points[idx]
            for frac in (0.999, 0.99, 0.9, 0.5):
                cand = base + frac * (x - base)
                hit = confirm_witness(a, b, cand, tol)
                if hit is not None:
                    return hit
    return None
