import numpy as np
import pytest

from spectracon import radii, sdpcore
from spectracon.pencil import elliptope_pencil, ellipsoid_pencil, pencil
from spectracon.radii import boundedness_certificate, circumradius_sq


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
    rep = boundedness_certificate(ellipsoid_pencil([1.0, 2.0]))
    assert rep.kind == "Unknown"
    assert origins == ["boundedness", "recession"]
