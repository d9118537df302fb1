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


def test_unknown_when_neither_certificate_exists():
    halfline = pencil([np.diag([1.0, 1.0]), np.diag([1.0, 0.0])])
    assert boundedness_certificate(halfline).kind == "Unknown"


def test_unknown_after_both_searches_when_no_solve_is_reliable(monkeypatch):
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
    assert origins == ["boundedness", "recession"]


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
    raise AssertionError("a traceless pencil needs no solve")


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
