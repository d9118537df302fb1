import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from builders import LmiBuilder, assert_same_problem, moment_relaxation_by_terms
from spectracon import momrelax, radii
from spectracon.errors import InvalidInput, OrderTooSmall
from spectracon.families import choi_pair, disk_pair, random_pair
from spectracon.momrelax import (MatPoly, Poly,
                                 annulus_constraints, basis_size,
                                 build_pmi_relaxation, containment_relaxation,
                                 moment_matrix, monomials_upto,
                                 pencil_as_matpoly, quadratic_objective,
                                 shrink_pencil, shrink_to_certify,
                                 solve_mu_mom)
from spectracon.pencil import (elliptope_pencil, ellipsoid_pencil,
                               polytope_pencil, random_pencil)
from spectracon.sdpcore import solve


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
    # the moments even in z, and every block split into its even and odd part
    assert info.n_moments == 37
    assert info.block_sizes == (9, 6, 9, 6, 3, 2, 3, 2)


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


# ---------------------------------------------------------------------------
# The sign-symmetry split and the scaling of x against the plain assembly


def _unreduced_relaxation(objective, constraints, t, sense="min", metadata=None):
    """The order-t relaxation over every moment, one block per constraint
    component, in the given variables."""
    nvars = objective.nvars
    full = monomials_upto(nvars, 2 * t)
    index = {e: i for i, e in enumerate(full)}
    builder = LmiBuilder(nvars=max(len(full) - 1, 1), sense=sense)

    def term(blk, e, i, j, c):
        if sum(e) == 0:
            builder.add_const(blk, i, j, c)
        else:
            builder.add_term(blk, index[e] - 1, i, j, c)

    def add(x, y):
        return tuple(u + v for u, v in zip(x, y))

    top = monomials_upto(nvars, t)
    blk = builder.add_block(len(top))
    for i in range(len(top)):
        for j in range(i, len(top)):
            term(blk, add(top[i], top[j]), i, j, 1.0)
    for g in constraints:
        loc = monomials_upto(nvars, t - (g.degree() + 1) // 2)
        nloc = len(loc)
        if isinstance(g, Poly):
            blk = builder.add_block(nloc)
            for i in range(nloc):
                for j in range(i, nloc):
                    for eg, c in g.terms.items():
                        term(blk, add(add(loc[i], loc[j]), eg), i, j, c)
            continue
        for group in g.diagonal_components():
            sub = g.restricted(group) if len(group) < g.k else g
            kk = sub.k
            blk = builder.add_block(nloc * kk)
            for i in range(nloc):
                for j in range(i, nloc):
                    for eg, mat in sub.terms.items():
                        e = add(add(loc[i], loc[j]), eg)
                        for a in range(kk):
                            for b in (range(a, kk) if i == j else range(kk)):
                                if mat[a, b] != 0.0:
                                    term(blk, e, i * kk + a, j * kk + b, mat[a, b])
    for e, c in objective.terms.items():
        if sum(e) == 0:
            builder.offset += c
        else:
            builder.add_objective(index[e] - 1, c)
    return builder.build(metadata=metadata), builder


def _unreduced_bound(a, b, t=2, r=1.0, R=2.0):
    nvars = a.n + b.k
    lo, hi = annulus_constraints(nvars, a.n, b.k, r, R)
    problem, builder = _unreduced_relaxation(
        quadratic_objective(b, nvars, z_offset=a.n),
        [pencil_as_matpoly(a, nvars), lo, hi], t)
    sol = solve(problem)
    assert sol.reliable
    return builder.value_from(sol)


def _criterion6_ball(i):
    """Case i of acceptance criterion 6's ball-in-polytope draws."""
    rng = np.random.default_rng(606)
    for case in range(i + 1):
        n, k = 2 + case % 2, 3 + case % 3
        amat = rng.normal(size=(k, n))
        nu = rng.uniform(0.4, 1.0)
        target = rng.uniform(0.3, 1.7)
        while abs(target - 1.0) < 0.05:
            target = rng.uniform(0.3, 1.7)
    amat *= target / (nu * float(np.linalg.norm(amat, axis=1).max()))
    return ellipsoid_pencil([nu] * n), polytope_pencil(amat, np.ones(k))


def _ball_problem(i):
    a, b = _criterion6_ball(i)
    nvars = a.n + b.k
    lo, hi = annulus_constraints(nvars, a.n, b.k, 1.0, 2.0)
    return (quadratic_objective(b, nvars, z_offset=a.n),
            [pencil_as_matpoly(a, nvars), lo, hi])


@pytest.mark.parametrize("make", [
    # x1 and x2 flip on their own
    lambda: (Poly(2, {(2, 0): 1.0, (0, 2): 1.0}),
             [Poly(2, {(0, 0): 1.0, (2, 0): -1.0, (0, 2): -1.0})]),
    # x1 and x2 flip together, x3 on its own
    lambda: (Poly(3, {(1, 1, 0): 1.0, (0, 0, 2): 1.0}),
             [Poly(3, {(0, 0, 0): 1.0, (2, 0, 0): -1.0, (0, 2, 0): -1.0,
                       (0, 0, 2): -1.0})]),
    # a diagonal B: every z_i flips on its own
    lambda: _ball_problem(0),
], ids=["independent", "joint", "ball"])
def test_kept_moments_are_those_every_sign_symmetry_fixes(make):
    objective, constraints = make()
    nvars = objective.nvars
    _, _, info = build_pmi_relaxation(objective, constraints, 2)
    terms = [e for g in (objective, *constraints) for e in g.terms]

    def fixes(mask, e):
        return sum(v for i, v in enumerate(e) if mask >> i & 1) % 2 == 0

    flips = [mask for mask in range(2 ** nvars)
             if all(fixes(mask, e) for e in terms)]
    assert len(flips) > 1
    assert list(info.moments) == [e for e in monomials_upto(nvars, 4)
                                  if all(fixes(mask, e) for mask in flips)]
    assert info.n_moments == len(info.moments) - 1


@pytest.mark.parametrize("make", [
    lambda: disk_pair(0.7), lambda: disk_pair(1.0), lambda: disk_pair(1.2),
    lambda: _criterion6_ball(0), lambda: _criterion6_ball(5),
    lambda: random_pair(1), lambda: random_pair(12), lambda: random_pair(18),
], ids=["disk-0.7", "disk-1.0", "disk-1.2", "ball-0", "ball-5",
        "random-1", "random-12", "random-18"])
def test_reduced_scaled_bound_equals_unreduced(make):
    a, b = make()
    want = _unreduced_bound(a, b)
    res = solve_mu_mom(a, b, 2)
    assert res.reliable
    assert res.info.n_moments < basis_size(a.n + b.k, 4) - 1
    assert abs(res.value - want) <= 1e-6 * (1.0 + abs(want))


def test_moment_matrix_puts_back_the_dropped_moments():
    a, b = disk_pair(0.7)
    res = solve_mu_mom(a, b, 2)
    m = moment_matrix(res)
    assert m[0, 0] == 1.0
    assert float(np.linalg.eigvalsh(m).min()) >= -1e-6
    top = monomials_upto(a.n + b.k, 2)
    z_degree = np.array([sum(e[a.n:]) for e in top])
    odd = (z_degree[:, None] + z_degree[None, :]) % 2 == 1
    assert odd.any() and np.all(m[odd] == 0.0)


def test_first_moments_and_moment_matrix_undo_the_scaling():
    # the disk reaches 0.7 along each axis and is left alone; in x / 5 and
    # x / 10 it reaches 3.5 and 7, both are rescaled to the same program in
    # x', and their moments of x come back 2^|e| apart
    a, b = disk_pair(0.7)
    assert np.all(solve_mu_mom(a, b, 2).info.scale == 1.0)
    five = solve_mu_mom(shrink_pencil(a, 5.0), shrink_pencil(b, 5.0), 2)
    ten = solve_mu_mom(shrink_pencil(a, 10.0), shrink_pencil(b, 10.0), 2)
    np.testing.assert_allclose(five.info.scale, [3.5, 3.5, 1.0, 1.0])
    np.testing.assert_allclose(ten.info.scale, [7.0, 7.0, 1.0, 1.0])
    assert ten.value == pytest.approx(five.value, abs=1e-9)
    np.testing.assert_allclose(ten.first_moments, 2.0 * five.first_moments,
                               atol=1e-9)
    top = monomials_upto(a.n + b.k, 2)
    growth = np.array([2.0 ** sum(e[:a.n]) for e in top])
    np.testing.assert_allclose(moment_matrix(ten),
                               moment_matrix(five) * np.outer(growth, growth),
                               rtol=1e-7, atol=1e-9)


@pytest.mark.parametrize("make", [lambda: random_pair(1)[0],
                                  lambda: elliptope_pencil(3)],
                         ids=["random-1", "elliptope-3"])
def test_circumradius_program_is_unchanged_without_symmetry(make, monkeypatch):
    p = make()
    built = []

    def capture(problem):
        built.append(problem)
        return solve(problem)

    monkeypatch.setattr(radii, "solve", capture)
    radii.circumradius_sq(p)
    obj = Poly(p.n, {tuple(2 * np.eye(p.n, dtype=int)[q]): 1.0
                     for q in range(p.n)})
    want, _ = _unreduced_relaxation(obj, [pencil_as_matpoly(p, p.n)], 2,
                                    sense="max",
                                    metadata={"origin": "circumradius"})
    got, = built
    assert got.block_sizes == want.block_sizes
    assert np.array_equal(got.b, want.b)
    for cg, cw, ag, aw in zip(got.c_blocks, want.c_blocks, got.a_blocks,
                              want.a_blocks):
        assert np.array_equal(cg, cw)
        assert ag.shape == aw.shape
        assert np.array_equal(ag.indptr, aw.indptr)
        assert np.array_equal(ag.indices, aw.indices)
        assert np.array_equal(ag.data, aw.data)


_PAIRS = {"disk-0.7": lambda: disk_pair(0.7), "disk-1.2": lambda: disk_pair(1.2),
          "ball-0": lambda: _criterion6_ball(0), "random-1": lambda: random_pair(1),
          "random-12": lambda: random_pair(12), "random-18": lambda: random_pair(18),
          "choi": choi_pair}


@pytest.mark.parametrize("name,t", [(name, t) for name in _PAIRS for t in (2, 3)
                                    if name != "choi" or t == 2])
def test_moment_program_equals_loop_assembly(name, t, monkeypatch):
    calls = []
    build = momrelax.build_pmi_relaxation

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        return build(*args, **kwargs)

    monkeypatch.setattr(momrelax, "build_pmi_relaxation", record)
    got = containment_relaxation(*_PAIRS[name](), t)[0]
    (args, kwargs), = calls
    assert_same_problem(got, moment_relaxation_by_terms(*args, **kwargs)[0])
