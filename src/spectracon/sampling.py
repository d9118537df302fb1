"""Sampling-based probes of spectrahedra.

Containment relaxations return one-sided bounds; the routines here supply
the other side.  A hit-and-run walk draws points from the interior of S_A,
mu_grid evaluates the containment functional on those points to get an
upper bound on mu, and refutation_search polishes the worst point into an
explicit violation witness when one exists.

The walk stacks the pencil once as A0 and the (k^2, n) matrix F of its
linear coefficients, so A(x) = A0 + F x and the direction matrix U = F u.
The chord through x along u is {t : A(x) + t U psd}; with A(x) positive
definite its ends are -1/lambda for the extreme generalized eigenvalues
lambda of U v = lambda A(x) v, so each step costs one LAPACK call (dsygv:
one Cholesky factorization of A(x) and one small eigenvalue problem).  A
point where A(x) does not factor gets the empty chord and the walk stays
put.  The smallest eigenvalue of B at all sample points comes from one
stacked eigvalsh over the same flattened coefficients, and so do the
margins that the polish evaluates; confirm_witness is the one rule that
turns a point into a witness, checked on the pencils themselves.
"""

from __future__ import annotations

import numpy as np
from scipy import optimize
from scipy.linalg.lapack import dsygv

from .errors import InvalidInput
from .pencil import LinearPencil
from .sdpcore import feasibility_probe
from .symcore import min_eigenvalue

# A witness must lie in S_A up to this much negative eigenvalue.
WITNESS_FEAS_TOL = 1e-9

# The walk discards its first _BURN steps and keeps every _THIN-th after.
_BURN = 50
_THIN = 3

# A chord with no end on one side (a recession direction) is cut here.
_CHORD_CAP = 1e6


def interior_point(p: LinearPencil) -> np.ndarray:
    """A strictly feasible point of S_A, via the feasibility probe."""
    probe = feasibility_probe(p)
    if probe.kind != "NonEmpty":
        raise InvalidInput(
            f"no interior point found (probe says {probe.kind})")
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


def refutation_search(a: LinearPencil, b: LinearPencil, tol: float = 1e-7,
                      samples: int = 400, seed: int = 0) -> dict | None:
    """Search for x with A(x) psd and B(x) not psd.

    Returns confirm_witness's dict for a confirmed witness, None otherwise;
    unconfirmed negatives are never reported.
    """
    points = sample_spectrahedron(a, samples, seed=seed)
    flat_a, flat_b = _flatten(a), _flatten(b)
    order = np.argsort(_margins(*flat_b, points))

    for idx in order[:3]:
        hit = confirm_witness(a, b, points[idx], tol)
        if hit is not None:
            return hit

    # penalized local descent from the most negative candidates
    def objective(x):
        am = float(_margins(*flat_a, x))
        bm = float(_margins(*flat_b, x))
        return bm + 1e4 * max(0.0, -am)

    for idx in order[:3]:
        res = optimize.minimize(objective, points[idx], method="Nelder-Mead",
                                options={"maxiter": 400 * a.n,
                                         "xatol": 1e-10, "fatol": 1e-12})
        hit = confirm_witness(a, b, res.x, tol)
        if hit is not None:
            return hit
        # pull slightly inside A if the polish drifted out
        if _margins(*flat_a, res.x) < 0:
            base = points[idx]
            for frac in (0.999, 0.99, 0.9, 0.5):
                cand = base + frac * (res.x - base)
                hit = confirm_witness(a, b, cand, tol)
                if hit is not None:
                    return hit
    return None
