import dataclasses
import math

import numpy as np
import pytest

from builders import criterion6_balls, shifted_disks
from spectracon import momrelax, sampling, sdpcore, sosrelax, verdict
from spectracon.errors import InvalidInput, OrderTooSmall
from spectracon.families import disk_pair, random_pair
from spectracon.momrelax import solve_mu_mom
from spectracon.pencil import ellipsoid_pencil, pencil
from spectracon.posmap import cp_sdfp
from spectracon.sdpcore import SolveStatus
from spectracon.sosrelax import lambda_sos
from spectracon.verdict import (Verdict, certification_tolerance,
                                check_containment)

# (method, order); sdfp ignores the order
MACHINES = [("moment", 2), ("sos", 0), ("sos", 1), ("sdfp", 2)]


def test_disk_certified_order2():
    # order 0 certifies the disk, so the order-2 relaxation is never built;
    # the order-2 bound itself is pinned on the relaxation
    v = check_containment(*disk_pair(0.7))
    assert v.status == "Certified"
    assert v.exit_code == 0
    assert v.method == "sos"
    assert v.order == 0
    assert solve_mu_mom(*disk_pair(0.7), 2).value == pytest.approx(0.010051, abs=1e-4)


def test_disk_inconclusive_order2():
    # contained, but order 2 cannot see it and no witness exists
    v = check_containment(*disk_pair(0.9))
    assert v.status == "Inconclusive"
    assert v.exit_code == 2
    assert v.witness is None


def test_disk_certified_order3():
    v = check_containment(*disk_pair(0.9), order=3)
    assert v.status == "Certified"
    assert v.value == pytest.approx(0.1, abs=2e-3)


def test_disk_refuted_with_witness():
    a, b = disk_pair(1.2)
    v = check_containment(a, b)
    assert v.status == "Refuted"
    assert v.exit_code == 1
    x = v.witness["x"]
    assert float(np.linalg.eigvalsh(a.evaluate(x).mat).min()) >= -1e-8
    assert float(np.linalg.eigvalsh(b.evaluate(x).mat).min()) < 0


def test_sos_method_certifies():
    v = check_containment(*disk_pair(0.8), order=1, method="sos")
    assert v.status == "Certified"
    assert v.method == "sos"


def test_sos_method_stays_inconclusive_without_witness():
    v = check_containment(*disk_pair(0.9), order=0, method="sos", refute=False)
    assert v.status == "Inconclusive"


def test_sdfp_method_both_sides():
    assert check_containment(*disk_pair(0.7), method="sdfp").status == "Certified"
    v = check_containment(*disk_pair(1.2), method="sdfp")
    assert v.status == "Refuted"


def _skip_boundary(monkeypatch):
    """Pass over the boundary points, to test the stages after them."""
    monkeypatch.setattr(verdict, "boundary_witness", lambda *args: None)


def test_sdfp_refutes_an_unbounded_inner_set_by_sampling(monkeypatch):
    # the quadrant x >= -1 leaves the unit disk along (1, 1), so no order-0
    # Gram pair exists for any lambda and the block test ends on a ray
    _skip_boundary(monkeypatch)
    quadrant = pencil([np.eye(2), np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    v = check_containment(quadrant, disk_pair(1.0)[1], method="sdfp")
    assert v.status == "Refuted"
    assert v.details["sdfp_kind"] == "Inconclusive"
    assert v.details["witness_source"] == "sampling"


def test_lineality_mismatch_refutes():
    # inner is the whole line, outer a bounded interval
    inner = pencil([np.eye(2), np.zeros((2, 2))])
    outer = ellipsoid_pencil([1.0])
    v = check_containment(inner, outer)
    assert v.status == "Refuted"
    assert v.method == "lineality"
    assert float(np.linalg.eigvalsh(outer.evaluate(v.witness["x"]).mat).min()) < 0


def test_compatible_lineality_reduces():
    # both pencils ignore the variable entirely
    inner = pencil([np.eye(2), np.zeros((2, 2))])
    outer = pencil([2.0 * np.eye(2), np.zeros((2, 2))])
    v = check_containment(inner, outer)
    assert v.status == "Certified"


def test_empty_inner_set_is_vacuously_contained():
    empty = pencil([np.diag([-1.0, -1.0]), np.diag([1.0, -1.0])])
    outer = pencil([-np.eye(2), np.zeros((2, 2))])  # empty outer too
    v = check_containment(empty, outer)
    assert v.status == "Certified"
    assert v.value == float("inf")


def test_mismatched_variable_counts_rejected():
    with pytest.raises(InvalidInput):
        check_containment(ellipsoid_pencil([1.0]), ellipsoid_pencil([1.0, 1.0]))
    with pytest.raises(InvalidInput):
        check_containment(*disk_pair(0.5), method="nosuch")


def test_samples_must_be_positive():
    # the disk is refuted by sampling; without samples that is bad input,
    # not a failed search
    with pytest.raises(InvalidInput):
        check_containment(*disk_pair(1.2), samples=0)


@pytest.mark.parametrize("option", [{"order": 2.0}, {"seed": -1}, {"seed": 0.5},
                                    {"samples": 400.0}], ids=str)
def test_integer_options_are_checked_before_any_solve(monkeypatch, option):
    _no_solves(monkeypatch)
    with pytest.raises(InvalidInput):
        check_containment(*disk_pair(0.5), **option)


@pytest.mark.parametrize("method, order", MACHINES,
                         ids=[f"{m}{o}" for m, o in MACHINES])
def test_a_set_outside_the_probe_box_is_not_empty(method, order):
    # S_A = {x >= 2e4} lies outside the probe's box |x| <= 1e4 and is not
    # inside S_B = {x <= 1}
    a = pencil([[[-2e4]], [[1.0]]])
    b = pencil([[[1.0]], [[-1.0]]])
    v = check_containment(a, b, method=method, order=order)
    assert v.status != "Certified"
    assert v.details.get("note") != "inner set is empty"


def _no_solves(monkeypatch):
    def no_solve(problem):
        raise AssertionError("solved before the input check")

    for mod in (sdpcore, momrelax, sosrelax):
        monkeypatch.setattr(mod, "solve", no_solve)


def test_certification_tolerance_scales_with_outer():
    b = disk_pair(0.5)[1]
    tol = certification_tolerance(b)
    assert tol == pytest.approx(1e-7 * 2.0, rel=1e-6)


def test_verdict_string_and_exit_codes():
    v = Verdict(status="Certified", value=0.25, order=2, method="moment",
                witness=None, details={})
    assert v.exit_code == 0
    s = str(v)
    assert "Certified" in s and "moment" in s


def _count_solves(monkeypatch):
    """The origins of the solves that follow, in order."""
    origins = []
    real = sdpcore.solve

    def counted(problem):
        origins.append(problem.metadata.get("origin"))
        return real(problem)

    for mod in (sdpcore, momrelax, sosrelax):
        monkeypatch.setattr(mod, "solve", counted)
    return origins


def test_empty_inner_set_solves_the_probe_once(monkeypatch):
    origins = _count_solves(monkeypatch)
    empty = pencil([np.diag([-1.0, -1.0]), np.diag([1.0, -1.0])])
    outer = pencil([-np.eye(2), np.zeros((2, 2))])
    v = check_containment(empty, outer)
    assert v.status == "Certified"
    assert origins == ["sos_gram", "containment_moment", "feasibility_probe"]


def _overhanging_balls():
    """The criterion-6 balls with margin > 1, each with its unique minimizer
    -nu a_i / |a_i| of the containment functional, a_i the longest row."""
    out = []
    for a, b, margin, amat, nu in criterion6_balls():
        if margin > 1.0:
            far = amat[np.argmax(np.linalg.norm(amat, axis=1))]
            out.append((a, b, -nu * far / np.linalg.norm(far)))
    return out


def test_first_moments_are_the_closed_form_minimizer():
    balls = _overhanging_balls()
    assert len(balls) == 8
    for a, b, x_star in balls:
        points = [solve_mu_mom(a, b, 2).first_moments,
                  lambda_sos(a, b, 0).first_moments,
                  lambda_sos(a, b, 1).first_moments,
                  cp_sdfp(a, b).first_moments]
        for x in points:
            assert np.abs(x - x_star).max() <= 1e-4


def _no_search(*args, **kwargs):
    raise AssertionError("refutation_search should not run")


@pytest.mark.parametrize("method, order", MACHINES,
                         ids=["moment", "sos0", "sos1", "sdfp"])
def test_solution_point_refutes_without_search(monkeypatch, method, order):
    _skip_boundary(monkeypatch)
    monkeypatch.setattr(verdict, "refutation_search", _no_search)
    a, b = random_pair(12)
    v = check_containment(a, b, order=order, method=method)
    assert v.status == "Refuted"
    assert v.details["witness_source"] == "solution"
    assert float(np.linalg.eigvalsh(a.evaluate(v.witness["x"]).mat).min()) >= -1e-9
    assert v.witness["b_margin"] < -certification_tolerance(b)


def test_disk_solution_point_falls_back_to_sampling(monkeypatch):
    # the minimizers form a circle, so the first moments are its center
    _skip_boundary(monkeypatch)
    v = check_containment(*disk_pair(1.2))
    assert v.status == "Refuted"
    assert v.details["witness_source"] == "sampling"


def _no_probe(p):
    raise AssertionError("the walk should start at the solution point")


@pytest.mark.parametrize("method, order", MACHINES,
                         ids=["moment", "sos0", "sos1", "sdfp"])
def test_disk_walk_starts_at_the_solution_point(monkeypatch, method, order):
    # every machine's first moments are the center, inside the disk
    _skip_boundary(monkeypatch)
    monkeypatch.setattr(sampling, "interior_point", _no_probe)
    v = check_containment(*disk_pair(1.2), order=order, method=method)
    assert v.status == "Refuted"
    assert v.details["witness_source"] == "sampling"


@pytest.mark.parametrize("method, order", MACHINES,
                         ids=["moment", "sos0", "sos1", "sdfp"])
def test_refute_false_ignores_the_solution_point(monkeypatch, method, order):
    monkeypatch.setattr(verdict, "refutation_search", _no_search)
    a, b = random_pair(12)
    v = check_containment(a, b, order=order, method=method, refute=False)
    assert v.status == "Inconclusive"
    assert v.witness is None
    assert "witness_source" not in v.details


@pytest.mark.parametrize("method, order", MACHINES,
                         ids=["moment", "sos0", "sos1", "sdfp"])
def test_unreliable_bound_is_inconclusive_with_the_solver_message(
        monkeypatch, method, order):
    monkeypatch.setattr(sdpcore, "_MAX_CONSTRAINTS", 0)
    v = check_containment(*disk_pair(0.7), order=order, method=method)
    assert v.status == "Inconclusive"
    assert "exceeds the dense Schur limit of 0" in v.details["solver_message"]
    assert math.isnan(v.value)


def test_polish_refutes_a_barely_wider_disk():
    # no sample lands outside the unit disk; the local descent from the
    # most negative ones does
    v = check_containment(*disk_pair(1.0001))
    assert v.status == "Refuted"
    assert v.details["witness_source"] == "sampling"


def test_direct_path_refutes_a_fixed_point():
    # the only variable is lineality of both sets, so each is one point
    inner = pencil([np.eye(2), np.zeros((2, 2))])
    v = check_containment(inner, pencil([np.diag([1.0, -1.0]), np.zeros((2, 2))]))
    assert v.status == "Refuted"
    assert v.method == "direct"
    assert v.witness["b_margin"] == pytest.approx(-1.0)


def test_direct_path_certifies_an_empty_inner_set():
    empty = pencil([np.diag([-1.0, 1.0]), np.zeros((2, 2))])
    v = check_containment(empty, pencil([np.diag([1.0, -1.0]), np.zeros((2, 2))]))
    assert v.status == "Certified"
    assert v.method == "direct"
    assert v.details["note"] == "inner set is empty"


def _no_relaxation(*args, **kwargs):
    raise AssertionError("no relaxation should be built")


def _no_boundary(*args):
    raise AssertionError("boundary_witness should not run")


@pytest.mark.parametrize("pair", [disk_pair(1.2), random_pair(12)],
                         ids=["disk", "random_pair_12"])
@pytest.mark.parametrize("method, order", MACHINES,
                         ids=["moment", "sos0", "sos1", "sdfp"])
def test_boundary_point_refutes_before_any_machine(monkeypatch, pair, method, order):
    monkeypatch.setattr(verdict, "_bound", _no_relaxation)
    a, b = pair
    v = check_containment(a, b, order=order, method=method)
    assert v.status == "Refuted"
    assert v.method == "boundary"
    assert v.order is None
    assert v.details["witness_source"] == "boundary"
    assert v.value == v.witness["b_margin"] < -certification_tolerance(b)
    assert float(np.linalg.eigvalsh(a.evaluate(v.witness["x"]).mat).min()) >= 0


def test_refute_false_skips_the_boundary_points(monkeypatch):
    monkeypatch.setattr(verdict, "boundary_witness", _no_boundary)
    v = check_containment(*disk_pair(1.2), refute=False)
    assert v.status == "Inconclusive"
    assert v.method == "moment"


def test_inner_set_off_the_origin_is_refuted_by_the_machine_path():
    a, b = shifted_disks()
    v = check_containment(a, b)
    assert v.status == "Refuted"
    assert v.method == "moment"
    assert v.details["witness_source"] in ("solution", "sampling")


@pytest.mark.parametrize("method, order", [("moment", 1), ("moment", 0), ("sos", -1)])
def test_order_gates_come_before_any_solve(monkeypatch, method, order):
    # order 0 certifies this disk, so a gate after it would never be reached
    _no_solves(monkeypatch)
    with pytest.raises(OrderTooSmall):
        check_containment(*disk_pair(0.5), order=order, method=method)


def _order0_certified_pairs():
    """Two disks below the 1/sqrt(2) threshold, a criterion-6 ball inside its
    polytope, and a random pair, each certified by order 0."""
    ball = next((a, b) for a, b, margin, *_ in criterion6_balls() if margin < 1.0)
    return [disk_pair(0.5), disk_pair(0.7), ball, random_pair(2)]


def _no_lift_above_order0(a, b, t=0):
    assert t == 0, "the requested relaxation should not be built"
    return lambda_sos(a, b, t)


@pytest.mark.parametrize("method, order", [("moment", 2), ("moment", 3), ("sos", 1)])
def test_order0_certificate_spares_the_requested_machine(monkeypatch, method, order):
    monkeypatch.setattr(verdict, "solve_mu_mom", _no_relaxation)
    monkeypatch.setattr(verdict, "lambda_sos", _no_lift_above_order0)
    for a, b in _order0_certified_pairs():
        v = check_containment(a, b, order=order, method=method)
        assert v.status == "Certified"
        assert (v.method, v.order) == ("sos", 0)
        assert v.details["solve_status"] == "optimal"
        assert v.value == v.details["value"] >= -certification_tolerance(b)
        assert "order0" not in v.details


@pytest.mark.parametrize("method, order", [("sos", 0), ("sdfp", 2)])
def test_bottom_requests_solve_one_gram_program(monkeypatch, method, order):
    # each of these requests is a single rung on the order-0 Gram program
    origins = _count_solves(monkeypatch)
    for nu in (0.7, 0.9):
        origins.clear()
        check_containment(*disk_pair(nu), order=order, method=method, refute=False)
        assert origins == ["sos_gram"]


def _bypass_order0(monkeypatch):
    """Let the order-0 stage run but never certify."""
    real = verdict._bound

    def bound(a, b, method, order, *rest):
        det, certified, point = real(a, b, method, order, *rest)
        return det, certified and (method, order) != ("sos", 0), point

    monkeypatch.setattr(verdict, "_bound", bound)


@pytest.mark.parametrize("method, order", [("moment", 2), ("sos", 1)])
def test_unreliable_order0_falls_through_to_the_requested_machine(
        monkeypatch, method, order):
    pair = disk_pair(0.7)
    with monkeypatch.context() as m:
        _bypass_order0(m)
        today = check_containment(*pair, order=order, method=method)
    real = sosrelax.solve

    def order0_stalls(problem):
        sol = real(problem)
        if problem.metadata["order"] > 0:
            return sol
        return dataclasses.replace(sol, status=SolveStatus.ITER_LIMIT,
                                   residuals={**sol.residuals, "gap_rel": 1.0})

    monkeypatch.setattr(sosrelax, "solve", order0_stalls)
    v = check_containment(*pair, order=order, method=method)
    assert (v.status, v.method, v.order) == ("Certified", method, order)
    assert v.value == today.value
    assert v.details["solve_status"] == today.details["solve_status"] == "optimal"
    assert math.isnan(v.details["order0"]["value"])
    assert v.details["order0"]["solve_status"] == "iterlimit"


def test_inconclusive_verdict_reports_the_order0_bound():
    v = check_containment(*disk_pair(0.9))
    assert (v.status, v.method, v.order) == ("Inconclusive", "moment", 2)
    order0 = v.details["order0"]
    assert order0["solve_status"] == "optimal"
    # the solitary criterion's margin 1 - nu sqrt(2); the top-level reading
    # stays the order-2 bound's
    assert order0["value"] == pytest.approx(1.0 - 0.9 * math.sqrt(2.0), abs=1e-6)
    assert v.value == v.details["value"] == solve_mu_mom(*disk_pair(0.9), 2).value


def _withhold_order0_point(monkeypatch):
    """Let the order-0 stage run but hand back no solution point."""
    real = verdict._bound

    def bound(a, b, method, order, *rest):
        det, certified, point = real(a, b, method, order, *rest)
        return det, certified, None if (method, order) == ("sos", 0) else point

    monkeypatch.setattr(verdict, "_bound", bound)


def test_order0_stage_keeps_every_status():
    pairs = [(a, b) for a, b, *_ in criterion6_balls()]
    pairs += [disk_pair(nu / 10) for nu in range(5, 14)]
    pairs += [random_pair(seed) for seed in range(1, 31)]
    for method, order in (("moment", 2), ("sos", 1)):
        def statuses():
            return [check_containment(a, b, order=order, method=method).status
                    for a, b in pairs]

        staged = statuses()
        with pytest.MonkeyPatch.context() as m:
            _bypass_order0(m)
            assert statuses() == staged
        # the stage's point may only refute what would stay Inconclusive
        with pytest.MonkeyPatch.context() as m:
            _withhold_order0_point(m)
            withheld = statuses()
        for got, before in zip(staged, withheld):
            assert got == before or (before, got) == ("Inconclusive", "Refuted")


def _assert_confirmed(v, a, b):
    x = v.witness["x"]
    assert len(x) == a.n
    assert float(np.linalg.eigvalsh(a.evaluate(x).mat).min()) >= -1e-9
    assert float(np.linalg.eigvalsh(b.evaluate(x).mat).min()) < -certification_tolerance(b)


# pairs that the boundary points miss and the order-0 stage's point refutes
_ORDER0_REFUTED = [11, 2021, 3006]


@pytest.mark.parametrize("seed", _ORDER0_REFUTED)
@pytest.mark.parametrize("method, order", [("moment", 2), ("moment", 3), ("sos", 1)])
def test_order0_point_refutes_before_the_requested_machine(monkeypatch, seed,
                                                           method, order):
    monkeypatch.setattr(verdict, "solve_mu_mom", _no_relaxation)
    monkeypatch.setattr(verdict, "lambda_sos", _no_lift_above_order0)
    monkeypatch.setattr(verdict, "refutation_search", _no_search)
    a, b = random_pair(seed)
    v = check_containment(a, b, order=order, method=method)
    assert v.status == "Refuted"
    assert (v.method, v.order) == ("sos", 0)
    assert v.details["witness_source"] == "solution"
    assert v.value == v.details["value"] < 0
    assert "order0" not in v.details
    _assert_confirmed(v, a, b)


def _with_unused_variable(p):
    """p with a new first variable that no coefficient uses."""
    c = [m.mat for m in p.coeffs]
    return pencil([c[0], np.zeros_like(c[0]), *c[1:]])


def test_order0_point_is_mapped_back_through_the_lineality_split(monkeypatch):
    monkeypatch.setattr(verdict, "solve_mu_mom", _no_relaxation)
    a, b = (_with_unused_variable(p) for p in random_pair(11))
    v = check_containment(a, b)
    assert (v.status, v.method, v.order) == ("Refuted", "sos", 0)
    assert v.details["lineality_dim"] == 1
    assert v.details["witness_source"] == "solution"
    _assert_confirmed(v, a, b)


def test_refute_false_confirms_no_order0_point(monkeypatch):
    def no_confirm(*args):
        raise AssertionError("no point should be confirmed")

    pair = random_pair(11)
    monkeypatch.setattr(verdict, "confirm_witness", no_confirm)
    origins = _count_solves(monkeypatch)
    v = check_containment(*pair, refute=False)
    assert origins == ["sos_gram", "containment_moment"]
    assert (v.status, v.method, v.order) == ("Inconclusive", "moment", 2)
    assert v.details["order0"]["solve_status"] == "optimal"

