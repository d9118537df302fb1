import numpy as np
import pytest
from scipy import optimize

from builders import criterion6_balls, shifted_disks
from spectracon.errors import InvalidInput
from spectracon.families import ball_elliptope_pair, disk_pair, random_pair
from spectracon.pencil import (ellipsoid_pencil, pencil, polytope_pencil,
                               random_pencil)
from spectracon.sampling import (_CHORD_CAP, _POLISH_FATOL, _POLISH_ITER,
                                 _POLISH_XATOL, WITNESS_FEAS_TOL, _chord, _flatten,
                                 _margins, _nelder_mead, _penalized_margin,
                                 boundary_witness, confirm_witness,
                                 eigen_margin, interior_point, mu_grid,
                                 refutation_search, sample_spectrahedron)
from spectracon.symcore import min_eigenvalue


def test_interior_point_strictly_feasible():
    p = ellipsoid_pencil([1.0, 2.0])
    x = interior_point(p)
    assert eigen_margin(p, x) > 0


def test_interior_point_empty_set_raises():
    empty = pencil([np.diag([-1.0, -1.0]), np.diag([1.0, -1.0])])
    with pytest.raises(InvalidInput):
        interior_point(empty)


def test_samples_feasible_and_deterministic():
    p = ellipsoid_pencil([1.0, 0.5])
    xs = sample_spectrahedron(p, 40, seed=3)
    ys = sample_spectrahedron(p, 40, seed=3)
    np.testing.assert_array_equal(xs, ys)
    assert xs.shape == (40, 2)
    for x in xs:
        assert eigen_margin(p, x) > 0
    # a different seed explores different points
    zs = sample_spectrahedron(p, 40, seed=4)
    assert np.max(np.abs(zs - xs)) > 1e-6


def test_samples_cover_the_set():
    # the chain should not stay near the start: spread over the ellipsoid
    p = ellipsoid_pencil([1.0, 1.0])
    xs = sample_spectrahedron(p, 200, seed=0)
    assert np.std(xs[:, 0]) > 0.2
    assert np.std(xs[:, 1]) > 0.2


def test_mu_grid_upper_bounds_relaxation():
    a, b = disk_pair(0.9)
    g = mu_grid(a, b)
    # the sampled estimate sits above the true margin 1 - nu = 0.1 and
    # far above the lossy frozen order-2 bound -0.5456
    assert g >= (1.0 - 0.9) - 1e-9
    assert g <= 0.15


def test_refutation_search_finds_witness_outside():
    a, b = disk_pair(1.2)
    hit = refutation_search(a, b)
    assert hit is not None
    assert hit["b_margin"] < 0
    assert hit["a_margin"] >= -1e-9


def test_refutation_search_empty_handed_inside():
    a, b = disk_pair(0.8)
    assert refutation_search(a, b) is None


# -- reference walk: the eigh chord that the generalized-eigenvalue chord
# replaced, kept here to pin the walk to the same points

def _reference_chord(p, x, u, cap=1e6):
    m = p.evaluate(x).mat
    w, v = np.linalg.eigh(m)
    w = np.maximum(w, 1e-14)
    isqrt = v * (1.0 / np.sqrt(w))
    u_mat = np.zeros_like(m)
    for q in range(p.n):
        if u[q] != 0.0:
            u_mat += u[q] * p.coeffs[q + 1].mat
    g = isqrt.T @ u_mat @ isqrt
    g = (g + g.T) / 2.0
    ev = np.linalg.eigvalsh(g)
    pos = ev[ev > 1e-12]
    neg = ev[ev < -1e-12]
    lo = -1.0 / pos.max() if pos.size else -cap
    hi = 1.0 / (-neg.min()) if neg.size else cap
    return lo, hi


def _reference_walk(p, count, seed, x0, burn=50, thin=3):
    x = np.asarray(x0, dtype=float).copy()
    rng = np.random.default_rng(seed)
    out = np.empty((count, p.n))
    kept = step = 0
    while kept < count:
        u = rng.standard_normal(p.n)
        u /= np.linalg.norm(u)
        lo, hi = _reference_chord(p, x, u)
        x = x + rng.uniform(0.999 * lo, 0.999 * hi) * u
        step += 1
        if step > burn and (step - burn) % thin == 0:
            out[kept] = x
            kept += 1
    return out


def _interior_pencil(n, k, seed):
    """Diagonally dominant random pencil and a strictly interior point."""
    p = random_pencil(n, k, density=0.6, diag0=float(k), seed=seed)
    rng = np.random.default_rng(seed)
    x = 0.3 * rng.standard_normal(n)
    while eigen_margin(p, x) <= 1e-3:
        x = 0.5 * x
    return p, x


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("k", [3, 4])
def test_chord_matches_eigh_reference(n, k):
    rng = np.random.default_rng(100 * n + k)
    for seed in range(5):
        p, x = _interior_pencil(n, k, seed=1000 * n + 10 * k + seed)
        a0, f = _flatten(p)
        for _ in range(4):
            u = rng.standard_normal(n)
            u /= np.linalg.norm(u)
            lo, hi = _chord(a0, f, x, u)
            np.testing.assert_allclose((lo, hi), _reference_chord(p, x, u),
                                       rtol=1e-10, atol=0.0)
            assert lo < 0.0 < hi
            for t in (lo, hi):
                if abs(t) < 1e6:
                    assert eigen_margin(p, x + 0.999 * t * u) > 0
                    assert eigen_margin(p, x + 1.001 * t * u) < 0


def test_chord_recession_direction_and_outside_point():
    # half-plane 1 + x_1 >= 0 in R^2: +e_1 and +-e_2 never leave it
    half = polytope_pencil(np.array([[1.0, 0.0]]), np.array([1.0]))
    a0, f = _flatten(half)
    x = np.zeros(2)
    assert _chord(a0, f, x, np.array([1.0, 0.0])) == (-1.0, 1e6)
    assert _chord(a0, f, x, np.array([0.0, 1.0])) == (-1e6, 1e6)
    assert _chord(a0, f, x, np.array([-1.0, 0.0])) == (-1e6, 1.0)
    # a point outside S_A has the empty chord
    assert _chord(a0, f, np.array([-2.0, 0.0]), np.array([1.0, 0.0])) == (0.0, 0.0)
    disk = disk_pair(1.0)[0]
    a0, f = _flatten(disk)
    assert _chord(a0, f, np.array([1.5, 0.0]), np.array([0.0, 1.0])) == (0.0, 0.0)


@pytest.mark.parametrize("p", [disk_pair(1.2)[0], random_pair(1)[0],
                               ball_elliptope_pair(3)[0]],
                         ids=["disk", "random_pair_1", "ball"])
def test_walk_matches_reference_walk(p):
    x0 = interior_point(p)
    xs = sample_spectrahedron(p, 400, seed=0, x0=x0)
    ref = _reference_walk(p, 400, 0, x0)
    scale = 1.0 + np.max(np.abs(ref))
    assert np.max(np.abs(xs - ref)) <= 1e-9 * scale


def test_batched_margins_match_pointwise():
    for a, b in (disk_pair(1.2), random_pair(1), ball_elliptope_pair(3)):
        points = sample_spectrahedron(a, 60, seed=5)
        want = np.array([min_eigenvalue(b.evaluate(x)) for x in points])
        flat = _flatten(b)
        np.testing.assert_allclose(_margins(*flat, points), want,
                                   rtol=0.0, atol=1e-12)
        single = [float(_margins(*flat, x)) for x in points]
        np.testing.assert_allclose(single, want, rtol=0.0, atol=1e-12)


def test_confirm_witness_rule():
    a, b = disk_pair(1.2)
    tol = 1e-7
    hit = confirm_witness(a, b, np.array([1.1, 0.0]), tol)
    assert set(hit) == {"x", "b_margin", "a_margin"}
    assert hit["b_margin"] < -tol and hit["a_margin"] >= -WITNESS_FEAS_TOL
    # inside both sets, and outside A, are not witnesses
    assert confirm_witness(a, b, np.array([0.5, 0.0]), tol) is None
    assert confirm_witness(a, b, np.array([1.3, 0.0]), tol) is None


# -- boundary points on chords through the origin

QUADRANT = pencil([np.eye(2), np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])


@pytest.mark.parametrize("pair", [disk_pair(1.2), random_pair(12)],
                         ids=["disk", "random_pair_12"])
def test_boundary_witness_refutes(pair):
    a, b = pair
    hit = boundary_witness(a, b, 1e-7, 0)
    assert hit is not None
    assert hit["b_margin"] < -1e-7
    # 0.1% inside the boundary of S_A, not on it
    assert hit["a_margin"] > 0


def test_boundary_witness_uses_a_capped_end():
    # the quadrant x >= -1 is unbounded, so chords into it end at the cap
    hit = boundary_witness(QUADRANT, disk_pair(1.0)[1], 1e-7, 0)
    assert hit is not None
    assert np.linalg.norm(hit["x"]) == pytest.approx(_CHORD_CAP)


def test_boundary_witness_none_when_contained():
    pairs = [disk_pair(nu) for nu in (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)]
    balls = [(a, b) for a, b, margin, *_ in criterion6_balls() if margin < 1.0]
    assert len(balls) == 17
    for a, b in pairs + balls:
        assert boundary_witness(a, b, 1e-7, 0) is None


def test_boundary_witness_none_without_the_origin_inside():
    # the inner disk overhangs the outer one, but the chords need the origin
    a, b = shifted_disks()
    assert eigen_margin(a, np.zeros(2)) < 0
    assert boundary_witness(a, b, 1e-7, 0) is None
    assert refutation_search(a, b) is not None


# -- the polish: scipy's Nelder-Mead, step for step, on exact margin reads

DISKS = [disk_pair(nu) for nu in (0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2)]
RANDOM_PAIRS = [random_pair(seed) for seed in range(1, 31)]


def _margin_objective(flat_a, flat_b):
    """The polish objective as it read its margins through _margins."""
    def objective(x):
        am = float(_margins(*flat_a, x))
        bm = float(_margins(*flat_b, x))
        return bm + 1e4 * max(0.0, -am)
    return objective


def test_penalized_margin_reads_the_margins_exactly():
    balls = [(a, b) for a, b, *_ in criterion6_balls()]
    assert len(balls) == 25
    for a, b in DISKS + balls + RANDOM_PAIRS:
        flat = (_flatten(a), _flatten(b))
        got, want = _penalized_margin(*flat), _margin_objective(*flat)
        points = sample_spectrahedron(a, 200, seed=2)
        # twice a walk point may leave S_A, where the penalty counts
        for x in np.vstack((points, 2.0 * points)):
            assert got(x).hex() == want(x).hex()


class _Logged:
    """An objective that records the values it returns."""

    def __init__(self, func):
        self.func, self.values = func, []

    def __call__(self, x):
        value = self.func(x)
        self.values.append(value)
        return value


def _branches(values, n):
    """Nelder-Mead branches taken, replayed from the values of one run."""
    fsim, i, seen = sorted(values[:n + 1]), n + 1, set()
    while i < len(values):
        fxr, shrink = values[i], False
        if fxr < fsim[0]:
            seen.add("expansion")
            fsim[-1] = min(values[i + 1], fxr)
            i += 2
        elif fxr < fsim[-2]:
            seen.add("reflection")
            fsim[-1] = fxr
            i += 1
        elif fxr < fsim[-1]:
            seen.add("outside contraction")
            shrink = not values[i + 1] <= fxr
            fsim[-1] = values[i + 1]
            i += 2
        else:
            seen.add("inside contraction")
            shrink = not values[i + 1] < fsim[-1]
            fsim[-1] = values[i + 1]
            i += 2
        if shrink:
            seen.add("shrink")
            fsim[1:] = values[i:i + n]
            i += n
        fsim.sort()
    assert i == len(values)
    return seen


def _rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def _terraces(x):
    # flat steps, so trial values tie and the strict and weak tests differ
    return float(np.floor(np.sum(x ** 2)))


def _polish_corpus():
    """(objective, start, maxiter): margin objectives from walk samples and
    from the origin (a zero coordinate), Rosenbrock cut by maxiter, and a
    terraced bowl whose values tie."""
    cases = []
    for a, b in DISKS + RANDOM_PAIRS:
        objective = _penalized_margin(_flatten(a), _flatten(b))
        starts = [*sample_spectrahedron(a, 20, seed=1)[::10], np.zeros(a.n)]
        cases += [(objective, x0, _POLISH_ITER * a.n) for x0 in starts]
    cases += [(_rosenbrock, np.array([-1.2, 1.0, 0.5]), 40),
              (_rosenbrock, np.array([0.0, 2.0]), 25),
              (_terraces, np.array([2.1, -2.8]), 200),
              (_terraces, np.array([-2.4, 0.8, 2.6]), 200)]
    return cases


def test_nelder_mead_is_scipys_step_for_step():
    branches, exits = set(), set()
    for objective, x0, maxiter in _polish_corpus():
        want = optimize.minimize(objective, x0, method="Nelder-Mead",
                                 options={"maxiter": maxiter,
                                          "xatol": _POLISH_XATOL,
                                          "fatol": _POLISH_FATOL})
        logged = _Logged(objective)
        got = _nelder_mead(logged, x0, maxiter, _POLISH_XATOL, _POLISH_FATOL)
        assert np.array_equal(got, want.x)
        assert len(logged.values) == want.nfev
        branches |= _branches(logged.values, len(x0))
        exits.add(want.status)
    assert branches == {"reflection", "expansion", "outside contraction",
                        "inside contraction", "shrink"}
    assert exits == {0, 2}  # the tolerance test and the iteration limit
