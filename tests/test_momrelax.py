import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectracon.errors import InvalidInput, OrderTooSmall
from spectracon.families import disk_pair
from spectracon.momrelax import (MatPoly, Poly,
                                 annulus_constraints, basis_size,
                                 build_pmi_relaxation, containment_relaxation,
                                 moment_matrix, monomials_upto,
                                 pencil_as_matpoly, quadratic_objective,
                                 shrink_pencil, shrink_to_certify,
                                 solve_mu_mom)
from spectracon.pencil import ellipsoid_pencil, random_pencil


def test_monomials_graded_then_lex():
    ms = monomials_upto(2, 2)
    assert len(ms) == 6
    assert ms[0] == (0, 0)
    degs = [sum(e) for e in ms]
    assert degs == sorted(degs)
    assert len(set(ms)) == len(ms)


@given(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=5))
@settings(max_examples=30)
def test_basis_size_counts_enumeration(nvars, degree):
    assert len(monomials_upto(nvars, degree)) == basis_size(nvars, degree)


def test_poly_eval_degree_and_pruning():
    p = Poly(2, {(0, 0): 1.0, (2, 1): 3.0})
    assert p([2.0, -1.0]) == pytest.approx(1.0 - 12.0)
    assert p.degree() == 3
    assert Poly(2, {(1, 0): 0.0}).terms == {}
    with pytest.raises(InvalidInput):
        Poly(2, {(1,): 1.0})


def test_matpoly_symmetrizes_coefficients():
    m = MatPoly(1, 2, {(0,): [[0.0, 2.0], [0.0, 0.0]]})
    np.testing.assert_allclose(m.terms[(0,)], [[0.0, 1.0], [1.0, 0.0]])


def test_diagonal_components_and_restriction():
    terms = {
        (0, 0): np.diag([1.0, 2.0, 3.0]),
        (1, 0): np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
    }
    m = MatPoly(2, 3, terms)
    assert m.diagonal_components() == [[0, 1], [2]]
    sub = m.restricted([0, 1])
    x = [0.3, -0.8]
    np.testing.assert_allclose(sub(x), m(x)[:2, :2])


def test_pencil_as_matpoly_matches_pencil():
    p = random_pencil(2, 3, seed=5)
    mp = pencil_as_matpoly(p, 4, offset=1)
    pt = np.array([0.3, 0.1, -0.4, 0.7])
    np.testing.assert_allclose(mp(pt), p.evaluate(pt[1:3]).mat, atol=1e-12)
    with pytest.raises(InvalidInput):
        pencil_as_matpoly(p, 2, offset=1)


def test_quadratic_objective_matches_bilinear_form():
    b = random_pencil(2, 3, seed=9)
    obj = quadratic_objective(b, 5, z_offset=2)
    rng = np.random.default_rng(1)
    for _ in range(4):
        pt = rng.normal(size=5)
        x, z = pt[:2], pt[2:]
        assert obj(pt) == pytest.approx(float(z @ b.evaluate(x).mat @ z),
                                        rel=1e-10, abs=1e-10)


def test_annulus_polynomials():
    lo, hi = annulus_constraints(3, 1, 2, 1.0, 2.0)
    pt = [0.5, 1.2, 0.3]
    z2 = 1.2 ** 2 + 0.3 ** 2
    assert lo(pt) == pytest.approx(z2 - 1.0)
    assert hi(pt) == pytest.approx(4.0 - z2)


def test_order_gates():
    a, b = disk_pair(0.8)
    with pytest.raises(OrderTooSmall):
        solve_mu_mom(a, b, 1)  # objective is cubic in the joint variables
    obj = Poly(1, {(4,): 1.0})
    with pytest.raises(OrderTooSmall):
        build_pmi_relaxation(obj, [], 1)


def test_relaxation_dimensions_disk():
    a, b = disk_pair(0.7)
    _, _, info = containment_relaxation(a, b, 2)
    assert info.nvars == a.n + b.k == 4
    assert info.n_moments == basis_size(4, 4) - 1 == 69
    assert info.block_sizes == (15, 15, 5, 5)


@pytest.mark.parametrize("nu,ref", [
    (0.70, 0.010051),
    (1.00, -0.828427),
])
def test_disk_order2_reference(nu, ref):
    res = solve_mu_mom(*disk_pair(nu), 2)
    assert res.reliable
    assert res.value == pytest.approx(ref, abs=1e-4)


def test_disk_order2_transition():
    res = solve_mu_mom(*disk_pair(1.0 / np.sqrt(2.0)), 2)
    assert res.reliable
    assert abs(res.value) <= 1e-5


def test_disk_order3_closes_gap():
    nu = 0.8
    res = solve_mu_mom(*disk_pair(nu), 3)
    assert res.reliable
    assert res.value == pytest.approx(1.0 - nu, abs=2e-3)


def test_order_monotonicity_small_random():
    a = ellipsoid_pencil([1.0])
    b = random_pencil(1, 2, diag0=2.0, seed=12)
    lo = solve_mu_mom(a, b, 2)
    hi = solve_mu_mom(a, b, 3)
    assert lo.reliable and hi.reliable
    assert lo.value <= hi.value + 1e-6


def test_sphere_restriction_runs():
    # r == R keeps both annulus blocks; bound can only drop vs the true value
    res = solve_mu_mom(*disk_pair(0.9), 2, r=1.0, R=1.0)
    assert res.reliable
    assert res.value <= (1.0 - 0.9) + 1e-6


def test_moment_matrix_psd_and_normalized():
    res = solve_mu_mom(*disk_pair(0.7), 2)
    m = moment_matrix(res)
    assert m[0, 0] == pytest.approx(1.0, abs=1e-7)
    assert float(np.linalg.eigvalsh(m).min()) >= -1e-6


def test_shrink_pencil_rescales_argument():
    p = random_pencil(2, 3, seed=3)
    q = shrink_pencil(p, 0.5)
    x = np.array([0.4, -0.2])
    np.testing.assert_allclose(q.evaluate(x).mat, p.evaluate(x / 0.5).mat,
                               atol=1e-12)


def test_shrink_to_certify_finds_disk_boundary():
    a, b = disk_pair(0.9)
    sr = shrink_to_certify(a, b, t=2)
    assert sr.certified
    # certified radius should land at the order-2 exactness threshold
    assert sr.factor * 0.9 == pytest.approx(1.0 / np.sqrt(2.0), abs=5e-3)
    assert sr.factor <= 1.0
