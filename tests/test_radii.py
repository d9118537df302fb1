import numpy as np
import pytest

from spectracon import radii, sdpcore
from spectracon.families import random_pair
from spectracon.pencil import elliptope_pencil, ellipsoid_pencil, pencil, polytope_pencil
from spectracon.radii import boundedness_certificate, circumradius_sq
from spectracon.sdpcore import _margin_lmi
from spectracon.symcore import nullspace, smat, svec

# {1 + 2x >= 0, 1 + 2y >= 0, 1 - x - y >= 0}: tr A_1 = tr A_2 = 1
_TRIANGLE = polytope_pencil(np.array([[2.0, 0.0], [0.0, 2.0], [-1.0, -1.0]]), np.ones(3))


def test_ellipsoid_radius_is_largest_semiaxis():
    res = circumradius_sq(ellipsoid_pencil([1.0, 2.0]))
    assert res.reliable
    assert res.value == pytest.approx(4.0, abs=1e-6)


@pytest.mark.parametrize("l,ref", [(3, 3.0), (4, 6.0)])
def test_elliptope_radius(l, ref):
    res = circumradius_sq(elliptope_pencil(l))
    assert res.reliable
    assert res.value == pytest.approx(ref, abs=1e-5)


def test_unbounded_radius_is_not_certified():
    halfline = pencil([np.diag([1.0, 1.0]), np.diag([1.0, 0.0])])  # x >= -1
    res = circumradius_sq(halfline)
    assert not res.reliable


def test_bounded_certificate_ellipsoid():
    p = ellipsoid_pencil([1.0, 2.0])
    rep = boundedness_certificate(p)
    assert rep.kind == "Bounded"
    assert rep.margin > 0
    w = rep.certificate
    assert float(np.linalg.eigvalsh(w).min()) > 0
    # W annihilates every linear coefficient, which forces compactness
    for q in range(1, p.n + 1):
        assert abs(float(np.sum(w * p.coeffs[q].mat))) <= 1e-7


def test_bounded_certificate_elliptope():
    rep = boundedness_certificate(elliptope_pencil(3))
    assert rep.kind == "Bounded"
    assert rep.margin > 0


def test_unbounded_by_recession_direction():
    for p in (pencil([np.eye(2), np.eye(2)]),
              pencil([np.eye(2), np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])):
        rep = boundedness_certificate(p)
        assert rep.kind == "Unbounded"
        d = rep.certificate
        # the direction certifies growth: sum d_q A_q strictly psd
        growth = np.tensordot(d, p.coeff_array()[1:], axes=1)
        assert float(np.linalg.eigvalsh(growth).min()) > 0


def test_unbounded_by_lineality():
    rep = boundedness_certificate(pencil([np.eye(2), np.zeros((2, 2))]))
    assert rep.kind == "Unbounded"


def test_trivial_pencil_bounded():
    rep = boundedness_certificate(pencil([np.eye(2)]))
    assert rep.kind == "Bounded"


def test_halfline_is_unbounded_along_its_psd_singular_direction():
    # without lineality one of the two certificates always exists; here
    # sum d_q A_q = diag(1, 0) is psd but singular, and A(0) = I
    halfline = pencil([np.diag([1.0, 1.0]), np.diag([1.0, 0.0])])
    rep = boundedness_certificate(halfline)
    assert rep.kind == "Unbounded"
    np.testing.assert_array_equal(rep.certificate, [1.0])
    assert rep.margin == 0.0


def test_strip_is_unbounded_along_its_open_side():
    # {1 +- x >= 0, 1 + y >= 0}
    strip = polytope_pencil(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]), np.ones(3))
    rep = boundedness_certificate(strip)
    assert rep.kind == "Unbounded"
    np.testing.assert_allclose(rep.certificate, [0.0, 1.0], atol=1e-12)
    assert rep.margin == 0.0


def test_identity_in_the_span_gives_the_direction_without_a_solve(monkeypatch):
    monkeypatch.setattr(radii, "solve", _no_solve)
    quadrant = pencil([np.eye(2), np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    wedge = pencil([np.eye(2), np.eye(2)])
    for p, d in ((quadrant, [1.0, 1.0]), (wedge, [1.0])):
        rep = boundedness_certificate(p)
        assert rep.kind == "Unbounded"
        np.testing.assert_allclose(rep.certificate, d, rtol=1e-12)
        assert rep.margin == pytest.approx(1.0, rel=1e-12)


def test_psd_singular_direction_of_an_empty_set_is_unknown():
    # {diag(-1, x) psd} is empty: diag(0, 1) is a direction, but of no ray
    empty = pencil([np.diag([-1.0, 0.0]), np.diag([0.0, 1.0])])
    assert boundedness_certificate(empty).kind == "Unknown"


def _planted_and_perturbed():
    """Pencils with a planted diagonal psd A_1 (a zero on its diagonal, so
    A_1 is singular), and random_pair pencils shifted to A0 + 0.3 I with
    A_q + 0.5 diag(N(0, 1))."""
    rng = np.random.default_rng(7)
    out = []
    for _ in range(30):
        k, n = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        diag = np.abs(rng.standard_normal(k))
        diag[rng.integers(k)] = 0.0
        coeffs = [np.eye(k) + 0.1 * np.diag(rng.standard_normal(k)), np.diag(diag)]
        for _ in range(n - 1):
            m = rng.standard_normal((k, k))
            coeffs.append(0.3 * (m + m.T))
        out.append(pencil(coeffs))
    for seed in range(1, 31):
        for p in random_pair(seed):
            c = p.coeff_array()
            c[0] += 0.3 * np.eye(p.k)
            c[1:] += 0.5 * np.stack([np.diag(rng.standard_normal(p.k)) for _ in range(p.n)])
            out.append(pencil(list(c)))
    return out


def test_every_certificate_holds_and_one_solve_decides(monkeypatch):
    kinds = []
    for p in _planted_and_perturbed():
        solves = []
        with monkeypatch.context() as mp:
            mp.setattr(radii, "solve", lambda prob: solves.append(prob) or sdpcore.solve(prob))
            rep = boundedness_certificate(p)
        assert len(solves) <= 1
        kinds.append(rep.kind)
        lin = p.coeff_array()[1:]
        if rep.kind == "Bounded":
            w = rep.certificate
            assert np.linalg.eigvalsh(w)[0] > 0
            assert max(abs(float(np.sum(w * c))) for c in lin) <= 1e-7
        elif rep.kind == "Unbounded":
            d = rep.certificate
            assert np.max(np.abs(d)) == 1.0
            eig = np.linalg.eigvalsh(np.tensordot(d, lin, axes=1))
            assert rep.margin == max(eig[0], 0.0)
            if eig[0] <= 0:
                assert eig[0] >= -p.k * np.finfo(float).eps * max(-eig[0], eig[-1])
                assert np.linalg.eigvalsh(p.coeffs[0].mat)[0] > 0
    # every planted pencil is unbounded, and both answers occur
    assert kinds[:30] == ["Unbounded"] * 30
    assert "Bounded" in kinds[30:] and "Unbounded" in kinds[30:]


def test_unknown_after_the_one_search_when_its_solve_is_unreliable(monkeypatch):
    origins = []
    real = radii.solve

    def recorded(problem):
        origins.append(problem.metadata["origin"])
        return real(problem)

    monkeypatch.setattr(radii, "solve", recorded)
    monkeypatch.setattr(sdpcore, "_MAX_CONSTRAINTS", 0)
    # a bounded triangle whose coefficients have trace 1, so the dual search
    # needs its solve
    rep = boundedness_certificate(_TRIANGLE)
    assert rep.kind == "Unknown"
    assert origins == ["boundedness"]


def test_triangle_is_bounded_by_the_margin_lmi():
    rep = boundedness_certificate(_TRIANGLE)
    assert rep.kind == "Bounded"
    assert 0 < rep.margin < 1.0 / 3.0
    w = rep.certificate
    for q in range(1, _TRIANGLE.n + 1):
        assert abs(float(np.sum(w * _TRIANGLE.coeffs[q].mat))) <= 1e-7


def _solved_dual_margin(p):
    """The optimum of the dual search's margin LMI: the largest lambda_min(W)
    over tr W = 1 and <A_q, W> = 0."""
    k = p.k
    rows = np.array([svec(c) for c in p.coeffs[1:]] + [svec(np.eye(k))])
    part = np.linalg.lstsq(rows, np.eye(p.n + 1)[p.n], rcond=None)[0]
    null = nullspace(rows, rank_tol=np.finfo(float).eps)
    sol = sdpcore.solve(_margin_lmi(smat(part, k), smat(null.T, k), 2.0))
    assert sol.reliable
    return sol.value


def _no_solve(problem):
    raise AssertionError("this pencil needs no solve")


def test_traceless_pencils_are_bounded_at_the_known_optimum(monkeypatch):
    pencils = [p for seed in range(1, 31) for p in random_pair(seed)]
    pencils += [elliptope_pencil(3), ellipsoid_pencil([1.0, 2.0])]
    for p in pencils:
        assert np.all(np.trace(p.coeff_array()[1:], axis1=1, axis2=2) == 0)
        with monkeypatch.context() as mp:
            mp.setattr(radii, "solve", _no_solve)
            rep = boundedness_certificate(p)
        assert rep.kind == "Bounded"
        np.testing.assert_array_equal(rep.certificate, np.eye(p.k) / p.k)
        assert rep.margin == 1.0 / p.k
        assert abs(rep.margin - _solved_dual_margin(p)) <= 1e-7
