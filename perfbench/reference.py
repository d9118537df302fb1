"""Independent answer checks, written against numpy only.

Nothing here calls spectracon: pencils are read through their coefficient
matrices, eigenvalues come from ``numpy.linalg.eigvalsh``, and points of a
spectrahedron come from the benchmark's own hit-and-run walk started at the
origin, which every benchmark instance has in its interior.
"""

from __future__ import annotations

import numpy as np

WITNESS_A_TOL = 1e-8   # a witness may sit this far outside S_A
CONTRADICTION = 1e-6   # relative margin a sampled point must violate B by
CHORD_CAP = 1e3        # walk steps are clipped to [-CHORD_CAP, CHORD_CAP]


def coefficients(p) -> np.ndarray:
    """Stacked coefficient matrices (n+1, k, k) of a pencil."""
    return np.stack([np.asarray(c.mat, dtype=float) for c in p.coeffs])


def pencil_at(coeffs: np.ndarray, x) -> np.ndarray:
    return coeffs[0] + np.tensordot(np.asarray(x, dtype=float), coeffs[1:], axes=1)


def min_eig(coeffs: np.ndarray, x) -> float:
    return float(np.linalg.eigvalsh(pencil_at(coeffs, x))[0])


def scale(coeffs: np.ndarray) -> float:
    return 1.0 + max(float(np.abs(np.linalg.eigvalsh(c)).max()) for c in coeffs)


def hit_and_run(coeffs: np.ndarray, count: int, seed: int) -> np.ndarray:
    """Interior points of {x : A(x) psd} from a walk started at the origin.

    Each step picks a random direction u, reads the feasible chord from the
    eigenvalues of L^-1 U L^-T (A(x) = L L^T, U = sum u_q A_q), clips it to
    [-CHORD_CAP, CHORD_CAP] and moves to a uniform point of it.
    """
    n = coeffs.shape[0] - 1
    x = np.zeros(n)
    if min_eig(coeffs, x) <= 0.0:
        raise ValueError("the origin is not an interior point")
    rng = np.random.default_rng(seed)
    out = np.empty((count, n))
    for step in range(count):
        u = rng.normal(size=n)
        u /= np.linalg.norm(u)
        chol = np.linalg.cholesky(pencil_at(coeffs, x))
        inv = np.linalg.inv(chol)
        w = np.linalg.eigvalsh(inv @ np.tensordot(u, coeffs[1:], axes=1) @ inv.T)
        hi = min(CHORD_CAP, -1.0 / w[0]) if w[0] < 0 else CHORD_CAP
        lo = max(-CHORD_CAP, -1.0 / w[-1]) if w[-1] > 0 else -CHORD_CAP
        x = x + rng.uniform(lo, hi) * u
        out[step] = x
    return out


def witness_error(a, b, x) -> str | None:
    """Why x is not a point of S_A outside S_B, or None when it is."""
    ca, cb = coefficients(a), coefficients(b)
    am, bm = min_eig(ca, x), min_eig(cb, x)
    if am < -WITNESS_A_TOL * scale(ca):
        return f"witness leaves S_A (min eig {am:.3e})"
    if bm >= 0.0:
        return f"witness lies in S_B (min eig {bm:.3e})"
    return None


def contradiction(a, b, points) -> str | None:
    """A sampled point of S_A that lies clearly outside S_B, if any."""
    ca, cb = coefficients(a), coefficients(b)
    limit = -CONTRADICTION * scale(cb)
    for x in points:
        bm = min_eig(cb, x)
        if bm < limit and min_eig(ca, x) >= 0.0:
            return f"sampled x={np.round(x, 6).tolist()} has B min eig {bm:.3e}"
    return None


def sampled_mu(a, b, points, r: float, R: float) -> float:
    """Upper bound on inf z'B(x)z over S_A x {r <= |z| <= R} from samples."""
    cb = coefficients(b)
    best = np.inf
    for x in points:
        lam = min_eig(cb, x)
        best = min(best, r * r * lam if lam >= 0 else R * R * lam)
    return float(best)


def max_norm_sq(points) -> float:
    return float(np.max(np.sum(np.square(points), axis=1)))


def boundedness_error(p, report) -> str | None:
    """Re-check a Bounded or Unbounded certificate from its matrices."""
    coeffs = coefficients(p)
    if report.kind == "Bounded":
        w = np.asarray(report.certificate, dtype=float)
        if np.linalg.eigvalsh(w)[0] <= 0.0:
            return "boundedness certificate W is not positive definite"
        worst = max(abs(float(np.sum(c * w))) for c in coeffs[1:])
        if worst > 1e-6 * (1.0 + np.linalg.norm(w)):
            return f"<A_q, W> = {worst:.3e}, expected 0"
    elif report.kind == "Unbounded":
        d = np.asarray(report.certificate, dtype=float)
        if np.linalg.norm(d) == 0.0:
            return "recession direction is zero"
        lam = float(np.linalg.eigvalsh(np.tensordot(d, coeffs[1:], axes=1))[0])
        if lam < -1e-7 * scale(coeffs) * np.linalg.norm(d):
            return f"recession direction is not one (min eig {lam:.3e})"
    return None
