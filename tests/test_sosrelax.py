import numpy as np
import pytest

from builders import (assert_same_problem, gram_program_by_terms, monomial_class,
                      principal_split)
from spectracon import sosrelax
from spectracon.errors import InvalidInput
from spectracon.families import ball_elliptope_pair, choi_pair, disk_pair, random_pair
from spectracon.momrelax import _flip_classes, containment_relaxation, monomials_upto
from spectracon.sdpcore import solve
from spectracon.sosrelax import certificate_gap, count_unknowns, lambda_sos, sos_relaxation
from test_momrelax import _criterion6_ball


def test_count_unknowns_closed_forms():
    c = count_unknowns(2, 3, 2, 0)
    assert c["sos_gram"] == 25
    c = count_unknowns(2, 3, 2, 2)
    assert c["moment_matrix"] == 105
    # moment_total counts all moments except the pinned constant
    assert c["moment_total"] == 69


def test_disk_order0_reference():
    res = lambda_sos(*disk_pair(1.0), 0)
    assert res.reliable
    assert res.value == pytest.approx(1.0 - np.sqrt(2.0), abs=1e-5)


def test_disk_order0_matches_order2_moment_when_nonnegative():
    # on certifiable instances the order-0 Gram bound and the order-2
    # moment bound agree; 0.7 sits just inside the threshold
    res = lambda_sos(*disk_pair(0.7), 0)
    assert res.reliable
    assert res.value == pytest.approx(0.010051, abs=1e-4)


def test_disk_order1_exact():
    nu = 0.8
    res = lambda_sos(*disk_pair(nu), 1)
    assert res.reliable
    assert res.value == pytest.approx(1.0 - nu, abs=1e-5)


@pytest.mark.parametrize("l,ref", [(3, 0.292893), (4, 0.133975)])
def test_ball_in_elliptope_order0(l, ref):
    res = lambda_sos(*ball_elliptope_pair(l), 0)
    assert res.reliable
    assert res.value == pytest.approx(ref, abs=1e-5)


def test_gram_blocks_are_psd():
    res = lambda_sos(*disk_pair(0.8), 1)
    for g in (res.gram_s, res.gram_t):
        assert float(np.linalg.eigvalsh(g).min()) >= -1e-7


def test_certificate_identity_holds_off_sample():
    a, b = disk_pair(0.8)
    res = lambda_sos(a, b, 1)
    rng = np.random.default_rng(7)
    pts = rng.uniform(-1.5, 1.5, size=(25, a.n))
    assert certificate_gap(a, b, res, pts) <= 1e-6


def test_certificate_gap_requires_grams():
    a, b = disk_pair(0.8)
    res = lambda_sos(a, b, 0)
    bare = type(res)(value=res.value, status="infeasible", order=0,
                     info=res.info, gram_s=None, gram_t=None,
                     solution=res.solution)
    with pytest.raises(InvalidInput):
        certificate_gap(a, b, bare, np.zeros((1, a.n)))


def test_info_dimensions():
    a, b = disk_pair(0.7)
    _, info = sos_relaxation(a, b, 1)
    assert (info.n, info.k, info.l) == (2, 3, 2)
    assert info.basis_n == 3  # 1, x1, x2
    assert info.gram_s_dim == info.basis_n * a.k * b.k
    assert info.gram_t_dim == info.basis_n * b.k


@pytest.mark.parametrize("make", [lambda: disk_pair(0.7), lambda: random_pair(1)],
                         ids=["disk-0.7", "random-1"])
def test_count_unknowns_are_the_unreduced_sizes(make):
    a, b = make()
    n, k, l = a.n, a.k, b.k
    _, info = sos_relaxation(a, b, 1)
    assert info.n_equations == count_unknowns(n, k, l, 1)["sos_equations"] - 1
    _, _, moments = containment_relaxation(a, b, 2)
    assert moments.n_moments <= count_unknowns(n, k, l, 2)["moment_total"]


@pytest.mark.parametrize("t", [0, 1])
@pytest.mark.parametrize("make", [
    lambda: disk_pair(0.8), lambda: ball_elliptope_pair(3), lambda: random_pair(1),
    lambda: random_pair(18), choi_pair, lambda: _criterion6_ball(0),
    lambda: _criterion6_ball(5), lambda: disk_pair(1.2), lambda: ball_elliptope_pair(4),
    lambda: random_pair(12), lambda: _criterion6_ball(11), lambda: random_pair(37),
], ids=["disk-0.8", "ball-elliptope-3", "random-1", "random-18", "choi", "ball-0",
        "ball-5", "disk-1.2", "ball-elliptope-4", "random-12", "ball-11", "random-37"])
def test_gram_program_equals_loop_assembly(make, t):
    # the assembled program is the loop assembly cut by the sign flips
    a, b = make()
    got, info = sos_relaxation(a, b, t)
    want, n_equations, point_rows = gram_program_by_terms(a, b, t)
    assert_same_problem(got, principal_split(want, info.parts, info.rows))
    assert info.n_equations == n_equations
    assert np.array_equal(info.point_rows, point_rows)


@pytest.mark.parametrize("make", [
    lambda: disk_pair(0.7), lambda: ball_elliptope_pair(3), choi_pair,
    lambda: random_pair(2), lambda: random_pair(30), lambda: random_pair(47),
], ids=["disk-0.7", "ball-elliptope-3", "choi", "random-2", "random-30", "random-47"])
def test_both_hierarchies_share_one_flip_group(make, monkeypatch):
    # the moment relaxation keeps exactly the (x, z) monomials of class 0
    # under the Gram program's flips, with B's index u for z_u
    a, b = make()
    n, k = a.n, a.k
    seen = []

    def record(*args):
        seen.append(_flip_classes(*args))
        return seen[-1]

    monkeypatch.setattr(sosrelax, "_flip_classes", record)
    sos_relaxation(a, b, 0)
    gram, = seen
    var_classes = list(gram[:n]) + list(gram[n + k:])
    _, _, info = containment_relaxation(a, b, 2)
    assert list(info.moments) == [e for e in monomials_upto(n + b.k, 4)
                                  if monomial_class(e, var_classes) == 0]


_SPLIT_PAIRS = {
    "ball-0": lambda: _criterion6_ball(0), "ball-5": lambda: _criterion6_ball(5),
    "disk-0.8": lambda: disk_pair(0.8), "disk-1.2": lambda: disk_pair(1.2),
    "ball-elliptope-3": lambda: ball_elliptope_pair(3),
    "random-1": lambda: random_pair(1), "random-18": lambda: random_pair(18),
    "choi": choi_pair,
}


@pytest.mark.parametrize("t", [0, 1])
@pytest.mark.parametrize("name", sorted(_SPLIT_PAIRS))
def test_split_gram_program_keeps_the_value(name, t):
    a, b = _SPLIT_PAIRS[name]()
    problem, _, _ = gram_program_by_terms(a, b, t)
    whole = solve(problem)
    assert whole.reliable
    want = b.coeffs[0].mat[0, 0] - whole.value
    res = lambda_sos(a, b, t)
    assert res.reliable
    assert res.value == pytest.approx(want, abs=1e-6 * (1.0 + abs(want)))
    # the Gram pair, mapped back, solves the unsplit equations
    resid = problem.apply_a([res.gram_s, res.gram_t]) - problem.b
    assert np.linalg.norm(resid) <= 1e-7 * (1.0 + problem.norm_b())


def test_polytope_gram_pair_splits_by_the_outer_index():
    # B is diagonal: Q_S and Q_T split by B's index, and only the u = v
    # equations remain
    a, b = _criterion6_ball(5)
    res = lambda_sos(a, b, 1)
    assert sorted(x.shape[0] for x in res.solution.x_blocks) == [4] * 5 + [16] * 5
    assert res.solution.y.size == 99
    assert res.info.n_equations == 299


def test_trivial_flips_solve_the_assembled_program():
    a, b = random_pair(1)
    problem, info = sos_relaxation(a, b, 1)
    assert [len(p) for p in info.parts] == [1, 1]
    assert info.rows.size == problem.m
    whole = solve(problem)
    res = lambda_sos(a, b, 1)
    assert res.solution.iterations == whole.iterations
    assert res.solution.value == whole.value


@pytest.mark.parametrize("make", [lambda: _criterion6_ball(5), lambda: random_pair(1)],
                         ids=["ball-5", "random-1"])
def test_lambda_sos_solves_the_assembled_program(make, monkeypatch):
    a, b = make()
    solved = []

    def record(problem):
        solved.append(problem)
        return solve(problem)

    monkeypatch.setattr(sosrelax, "solve", record)
    lambda_sos(a, b, 1)
    assert len(solved) == 1
    assert_same_problem(solved[0], sos_relaxation(a, b, 1)[0])
