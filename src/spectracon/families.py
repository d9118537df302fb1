"""Reference instance families shared by tests and experiment scripts.

All constructions here are deterministic.  The disk family mixes pencil
representations on purpose: the inner disk uses the 3x3 arrow form while
the outer unit disk uses the 2x2 rotation form, which makes the low-order
relaxations genuinely lossy and exercises the gap between the hierarchy
levels.
"""

from __future__ import annotations

from math import comb

import numpy as np

from .pencil import (LinearPencil, MapSpec, ellipsoid_pencil, elliptope_pencil,
                     map_from_callable, map_to_pencils, pencil, random_pencil)
from .reduce import lineality_space
from .symcore import min_eigenvalue

_FILTER_MARGIN = 1e-4
_MAX_TRIES = 60


def disk_rotation_pencil(radius: float = 1.0) -> LinearPencil:
    """The disk |x| <= radius as the 2x2 pencil [[1+x/r, y/r], [y/r, 1-x/r]]."""
    return pencil([np.eye(2), np.diag([1.0, -1.0]) / radius,
                   np.array([[0.0, 1.0], [1.0, 0.0]]) / radius])


def disk_pair(nu: float) -> tuple[LinearPencil, LinearPencil]:
    """Disk of radius nu (arrow form) against the unit disk (rotation form).

    Contained iff nu <= 1; the order-2 machines lose track beyond
    nu = 1/sqrt(2) while order 3 is exact.
    """
    return ellipsoid_pencil(np.array([nu, nu])), disk_rotation_pencil(1.0)


def ball_elliptope_pair(l: int, radius: float = 0.5
                        ) -> tuple[LinearPencil, LinearPencil]:
    """Ball of the given radius against the l x l elliptope.

    Shares the variable count n = l(l-1)/2 with the elliptope pencil.
    """
    n = comb(l, 2)
    return ellipsoid_pencil(np.full(n, radius)), elliptope_pencil(l)


def choi_phi(m) -> np.ndarray:
    """The positivity-improving but not completely positive 3x3 map."""
    m = np.asarray(m, dtype=float)
    d = 2.0 * np.diag([m[0, 0] + m[1, 1], m[1, 1] + m[2, 2],
                       m[2, 2] + m[0, 0]])
    return d - m


def choi_map_spec() -> MapSpec:
    return map_from_callable(3, choi_phi)


def choi_pair() -> tuple[LinearPencil, LinearPencil]:
    """Unit-trace slice pencils of the map, n = 5 slice variables."""
    return map_to_pencils(choi_map_spec())


def random_pair(seed: int) -> tuple[LinearPencil, LinearPencil]:
    """A well-conditioned random containment instance.

    Draws (A, B) with k, l in {3, 4} and n in {1, 2, 3}, rejecting
    degenerate candidates: a vanishing linear coefficient, nontrivial
    lineality, a barely-interior origin, or an order-0 eigenvalue bound
    within ``_FILTER_MARGIN`` (1e-4) of zero, too close for threshold
    comparisons to be meaningful.  Gives up after ``_MAX_TRIES`` (60) draws.
    """
    from .sosrelax import lambda_sos

    rng = np.random.default_rng(seed)
    for _ in range(_MAX_TRIES):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(3, 5))
        l = int(rng.integers(3, 5))
        sub = int(rng.integers(0, 2 ** 31))
        a = random_pencil(n, k, seed=sub)
        b = random_pencil(n, l, diag0=1.0 + float(rng.uniform(0.5, 2.0)),
                          seed=sub + 1)
        if any(not np.any(c.mat) for c in a.coeffs[1:] + b.coeffs[1:]):
            continue
        if lineality_space(a).shape[1] or lineality_space(b).shape[1]:
            continue
        if min(min_eigenvalue(a.coeffs[0]), min_eigenvalue(b.coeffs[0])) <= 0.05:
            continue
        res = lambda_sos(a, b, 0)
        if not np.isfinite(res.value) or abs(res.value) < _FILTER_MARGIN:
            continue
        return a, b
    raise RuntimeError(f"no acceptable instance after {_MAX_TRIES} draws")
