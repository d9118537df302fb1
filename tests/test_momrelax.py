import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from builders import (as_terms, assert_same_problem, moment_flip_split,
                      moment_relaxation_by_terms, principal_split)
from spectracon import momrelax, radii
from spectracon.errors import InvalidInput, OrderTooSmall
from spectracon.families import ball_elliptope_pair, choi_pair, disk_pair, random_pair
from spectracon.momrelax import (basis_size, build_pmi_relaxation, containment_relaxation,
                                 moment_matrix, monomials_upto, shrink_pencil,
                                 shrink_to_certify, solve_mu_mom)
from spectracon.pencil import (elliptope_pencil, ellipsoid_pencil, pencil,
                               polytope_pencil, random_pencil)
from spectracon.sdpcore import solve


def _evaluate(terms, v):
    """sum_t c_t v^(e_t) of the term arrays (exps, coeffs)."""
    exps, coeffs = terms
    return np.tensordot(np.prod(np.asarray(v) ** exps, axis=1), coeffs, axes=1)


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


def test_zero_terms_do_not_count_toward_the_degree():
    # a zero quartic term neither trips the order gate nor shrinks the
    # localizing basis of the quadratic constraint
    objective = as_terms({(2, 0): 1.0, (0, 2): 1.0})
    g = {(0, 0): 1.0, (2, 0): -1.0, (0, 2): -1.0}
    want = build_pmi_relaxation(objective, [as_terms(g, 1)], 1)
    got = build_pmi_relaxation(
        as_terms({(2, 0): 1.0, (0, 2): 1.0, (4, 0): 0.0}),
        [as_terms({**g, (0, 4): 0.0}, 1)], 1)
    assert_same_problem(got[0], want[0])
    assert got[2].block_sizes == want[2].block_sizes
    with pytest.raises(InvalidInput):
        build_pmi_relaxation(objective, [(np.zeros((1, 3), dtype=int), np.ones((1, 1, 1)))], 1)
    with pytest.raises(InvalidInput):
        build_pmi_relaxation(objective, [(np.zeros((2, 2), dtype=int), np.ones((1, 1, 1)))], 1)
    with pytest.raises(InvalidInput):
        build_pmi_relaxation(objective, [(np.zeros((1, 2), dtype=int), np.ones((1, 2, 1)))], 1)


def test_builder_symmetrizes_coefficients():
    objective = as_terms({(2,): 1.0})
    asymmetric = as_terms({(0,): np.eye(2), (1,): [[0.0, 2.0], [0.0, 0.0]]}, 2)
    symmetric = as_terms({(0,): np.eye(2), (1,): [[0.0, 1.0], [1.0, 0.0]]}, 2)
    assert_same_problem(build_pmi_relaxation(objective, [asymmetric], 1)[0],
                        build_pmi_relaxation(objective, [symmetric], 1)[0])


def _built_terms(monkeypatch, a, b, r=1.0, R=2.0):
    """The (objective, constraints, info) that containment_relaxation builds."""
    calls = []
    build = momrelax.build_pmi_relaxation

    def record(objective, constraints, *args, **kwargs):
        calls.append((objective, constraints))
        return build(objective, constraints, *args, **kwargs)

    monkeypatch.setattr(momrelax, "build_pmi_relaxation", record)
    info = containment_relaxation(a, b, 2, r=r, R=R)[2]
    (objective, constraints), = calls
    return objective, constraints, info


def test_pencil_terms_match_pencil():
    p = random_pencil(2, 3, seed=5)
    terms = momrelax._pencil_terms(p, 4)
    rng = np.random.default_rng(3)
    for _ in range(4):
        pt = rng.normal(size=4)
        np.testing.assert_allclose(_evaluate(terms, pt), p.evaluate(pt[:2]).mat, atol=1e-12)


def test_quadratic_objective_matches_bilinear_form(monkeypatch):
    # the objective is built in x' with x = D x'
    a, b = shrink_pencil(ellipsoid_pencil([1.0, 1.0]), 5.0), random_pencil(2, 3, seed=9)
    objective, constraints, info = _built_terms(monkeypatch, a, b)
    assert not np.all(info.scale == 1.0)
    rng = np.random.default_rng(1)
    for _ in range(4):
        pt = rng.normal(size=5)
        x, z = info.scale[:2] * pt[:2], pt[2:]
        assert _evaluate(objective, pt) == pytest.approx(float(z @ b.evaluate(x).mat @ z),
                                                         rel=1e-10, abs=1e-10)
        np.testing.assert_allclose(_evaluate(constraints[0], pt), a.evaluate(x).mat,
                                   atol=1e-12)


def test_annulus_polynomials(monkeypatch):
    _, (_, lo, hi), _ = _built_terms(monkeypatch, *disk_pair(0.7), r=1.0, R=2.0)
    pt = [0.5, -0.3, 1.2, 0.3]
    z2 = 1.2 ** 2 + 0.3 ** 2
    assert _evaluate(lo, pt)[0, 0] == pytest.approx(z2 - 1.0)
    assert _evaluate(hi, pt)[0, 0] == pytest.approx(4.0 - z2)


def test_order_gates():
    a, b = disk_pair(0.8)
    with pytest.raises(OrderTooSmall):
        solve_mu_mom(a, b, 1)  # objective is cubic in the joint variables
    obj = as_terms({(4,): 1.0})
    with pytest.raises(OrderTooSmall):
        build_pmi_relaxation(obj, [], 1)


def test_relaxation_dimensions_disk():
    a, b = disk_pair(0.7)
    _, _, info = containment_relaxation(a, b, 2)
    assert info.nvars == a.n + b.k == 4
    # the moments fixed by z -> -z and by x2 -> -x2 with z1 -> -z1 (and an
    # index of A), every block split into the classes of both flips
    assert info.n_moments == 21
    assert info.block_sizes == (6, 3, 3, 3, 5, 3, 3, 4, 2, 1, 1, 1, 2, 1, 1, 1)


@pytest.mark.parametrize("make,t,moments,largest", [
    (choi_pair, 3, 447, 32),
    (lambda: ball_elliptope_pair(4), 2, 90, 11),
], ids=["choi-3", "ball-elliptope-4"])
def test_index_flips_shrink_the_relaxation(make, t, moments, largest):
    _, _, info = containment_relaxation(*make(), t)
    assert info.n_moments == moments
    assert max(info.block_sizes) == largest


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


def test_moment_matrix_needs_a_solution_point():
    # an empty interval: the relaxation is infeasible and returns no point
    res = solve_mu_mom(pencil([np.diag([1.0, -2.0]), np.diag([1.0, -1.0])]),
                       pencil([np.eye(2), np.diag([1.0, -1.0])]), 2)
    assert res.status == "infeasible" and res.first_moments is None
    with pytest.raises(InvalidInput):
        moment_matrix(res)


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


def _unreduced_bound(a, b, t=2, r=1.0, R=2.0):
    problem, builder = moment_relaxation_by_terms(*_containment_problem(a, b, r, R), t)
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


def _containment_problem(a, b, r=1.0, R=2.0):
    """inf z'B(x)z over A(x) psd and r^2 <= |z|^2 <= R^2 in the joint
    variables (x, z), written out term by term."""
    n, l = a.n, b.k
    unit = np.eye(n + l, dtype=int)
    xs = [0 * unit[0], *unit[:n]]  # the monomials 1, x_1, ..., x_n
    objective = {}
    for x, bq in zip(xs, b.coeffs):
        for i in range(l):
            for j in range(i, l):
                if bq.mat[i, j] != 0.0:
                    objective[tuple(x + unit[n + i] + unit[n + j])] = \
                        bq.mat[i, j] if i == j else 2.0 * bq.mat[i, j]
    lo = {tuple(xs[0]): -r * r, **{tuple(2 * unit[n + i]): 1.0 for i in range(l)}}
    hi = {tuple(xs[0]): R * R, **{tuple(2 * unit[n + i]): -1.0 for i in range(l)}}
    inner = {tuple(x): aq.mat for x, aq in zip(xs, a.coeffs)}
    return as_terms(objective), [as_terms(inner, a.k), as_terms(lo, 1), as_terms(hi, 1)]


def _two_component_problem():
    # indices 0 and 1 are joined by the x1 term, index 2 stands alone
    g = as_terms({(0, 0): np.diag([1.0, 2.0, 3.0]),
                  (1, 0): [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]}, 3)
    return as_terms({(2, 0): 1.0, (0, 2): 1.0}), [g]


@pytest.mark.parametrize("make", [
    # x1 and x2 flip on their own
    lambda: (as_terms({(2, 0): 1.0, (0, 2): 1.0}),
             [as_terms({(0, 0): 1.0, (2, 0): -1.0, (0, 2): -1.0}, 1)]),
    # x1 and x2 flip together, x3 on its own
    lambda: (as_terms({(1, 1, 0): 1.0, (0, 0, 2): 1.0}),
             [as_terms({(0, 0, 0): 1.0, (2, 0, 0): -1.0, (0, 2, 0): -1.0,
                        (0, 0, 2): -1.0}, 1)]),
    # a diagonal B: every z_i flips on its own
    lambda: _containment_problem(*_criterion6_ball(0)),
    # x2 flips with z1 and an index of A
    lambda: _containment_problem(*disk_pair(0.7)),
    # the localizing matrix splits by index component
    _two_component_problem,
], ids=["independent", "joint", "ball", "disk", "two-component"])
def test_kept_moments_are_those_every_sign_symmetry_fixes(make):
    # brute force over every flip of the variables and the constraint
    # indices: the kept moments are those every fixing flip fixes, and each
    # localizing matrix splits into the position classes of the flips
    objective, constraints = make()
    nvars = objective[0].shape[1]
    t = 2
    _, _, info = build_pmi_relaxation(objective, constraints, t)
    ks = [coeffs.shape[1] for _, coeffs in constraints]
    nbits = nvars + sum(ks)
    signs = 1 - 2 * (np.arange(2 ** nbits)[:, None] >> np.arange(nbits) & 1)

    def sign_of(e, flips):
        return np.prod(flips[:, :nvars] ** np.array(e), axis=1)

    fixing = np.ones(len(signs), dtype=bool)
    for e in objective[0]:
        fixing &= sign_of(e, signs) == 1
    first = nvars
    for (exps, coeffs), k in zip(constraints, ks):
        for e, c in zip(exps, coeffs):
            i, j = np.nonzero(c)
            idx = signs[:, first:first + k]
            fixing &= np.all(sign_of(e, signs)[:, None] * idx[:, i] * idx[:, j] == 1, axis=1)
        first += k
    flips = signs[fixing]
    assert len(flips) > 1
    assert list(info.moments) == [e for e in monomials_upto(nvars, 2 * t)
                                  if np.all(sign_of(e, flips) == 1)]
    assert info.n_moments == len(info.moments) - 1

    # the moment matrix has one index that no flip negates
    sizes, first = [], nvars
    degrees = [0, *(int(exps.sum(axis=1).max()) for exps, _ in constraints)]
    for degree, k in zip(degrees, [0, *ks]):
        basis = monomials_upto(nvars, t - (degree + 1) // 2)
        idx = flips[:, first:first + k] if k else np.ones((len(flips), 1), dtype=int)
        first += k
        blocks = {}
        for a in range(idx.shape[1]):
            for u in basis:
                key = (sign_of(u, flips) * idx[:, a]).tobytes()
                blocks[key] = blocks.get(key, 0) + 1
        sizes += blocks.values()
    assert info.block_sizes == tuple(sizes)


@pytest.mark.parametrize("make", [
    lambda: disk_pair(0.7), lambda: disk_pair(1.0), lambda: disk_pair(1.2),
    lambda: _criterion6_ball(0), lambda: _criterion6_ball(5),
    lambda: random_pair(1), lambda: random_pair(12), lambda: random_pair(18),
    lambda: ball_elliptope_pair(3),
], ids=["disk-0.7", "disk-1.0", "disk-1.2", "ball-0", "ball-5",
        "random-1", "random-12", "random-18", "ball-elliptope-3"])
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
                                  lambda: elliptope_pencil(3),
                                  lambda: shrink_pencil(elliptope_pencil(3), 4.0)],
                         ids=["random-1", "elliptope-3", "elliptope-3-x4"])
def test_circumradius_program_equals_loop_assembly(make, monkeypatch):
    # solved in x' with x = D x': objective sum D_qq^2 x'_q^2 over the
    # pencil x' -> A(D x'), cut by its sign flips
    p = make()
    built = []

    def capture(problem):
        built.append(problem)
        return solve(problem)

    monkeypatch.setattr(radii, "solve", capture)
    radii.circumradius_sq(p)
    d = momrelax._x_scale(p)
    obj = as_terms({tuple(2 * np.eye(p.n, dtype=int)[q]): d[q] ** 2 for q in range(p.n)})
    scaled = pencil([p.coeffs[0].mat] + [dq * c.mat for dq, c in zip(d, p.coeffs[1:])])
    units = [(0,) * p.n] + [tuple(np.eye(p.n, dtype=int)[q]) for q in range(p.n)]
    constraints = [as_terms(dict(zip(units, scaled.coeff_array())), p.k)]
    want, _ = moment_relaxation_by_terms(obj, constraints, 2, sense="max",
                                         metadata={"origin": "circumradius"})
    got, = built
    assert_same_problem(got, principal_split(want, *moment_flip_split(obj, constraints, 2)))


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
    # the assembled program is the loop assembly cut by the sign flips
    want, _ = moment_relaxation_by_terms(*args, **kwargs)
    assert_same_problem(got, principal_split(want, *moment_flip_split(*args)))
