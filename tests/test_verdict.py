import math

import numpy as np
import pytest

from spectracon import momrelax, sampling, sdpcore, sosrelax, verdict
from spectracon.errors import InvalidInput
from spectracon.families import disk_pair, random_pair
from spectracon.momrelax import solve_mu_mom
from spectracon.pencil import ellipsoid_pencil, pencil, polytope_pencil
from spectracon.posmap import cp_sdfp
from spectracon.sosrelax import lambda_sos
from spectracon.verdict import (Verdict, certification_tolerance,
                                check_containment)

# (method, order); sdfp ignores the order
MACHINES = [("moment", 2), ("sos", 0), ("sos", 1), ("sdfp", 2)]


def test_disk_certified_order2():
    v = check_containment(*disk_pair(0.7))
    assert v.status == "Certified"
    assert v.exit_code == 0
    assert v.method == "moment"
    assert v.value == pytest.approx(0.010051, abs=1e-4)


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


def test_sdfp_refutes_an_unbounded_inner_set_by_sampling():
    # the quadrant x >= -1 leaves the unit disk along (1, 1), so no order-0
    # Gram pair exists for any lambda and the block test ends on a ray
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


def test_empty_inner_set_solves_the_probe_once(monkeypatch):
    origins = []
    real = sdpcore.solve

    def counted(problem):
        origins.append(problem.metadata.get("origin"))
        return real(problem)

    for mod in (sdpcore, momrelax, sosrelax):
        monkeypatch.setattr(mod, "solve", counted)
    empty = pencil([np.diag([-1.0, -1.0]), np.diag([1.0, -1.0])])
    outer = pencil([-np.eye(2), np.zeros((2, 2))])
    v = check_containment(empty, outer)
    assert v.status == "Certified"
    assert origins == ["containment_moment", "feasibility_probe"]


def _overhanging_balls():
    """The criterion-6 balls with margin > 1, each with its unique minimizer
    -nu a_i / |a_i| of the containment functional, a_i the longest row."""
    rng = np.random.default_rng(606)
    out = []
    for i in range(25):
        n = 2 + i % 2
        k = 3 + i % 3
        amat = rng.normal(size=(k, n))
        nu = rng.uniform(0.4, 1.0)
        margin = rng.uniform(0.3, 1.7)
        while abs(margin - 1.0) < 0.05:
            margin = rng.uniform(0.3, 1.7)
        amat *= margin / (nu * float(np.linalg.norm(amat, axis=1).max()))
        if margin > 1.0:
            far = amat[np.argmax(np.linalg.norm(amat, axis=1))]
            out.append((ellipsoid_pencil([nu] * n),
                        polytope_pencil(amat, np.ones(k)),
                        -nu * far / np.linalg.norm(far)))
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
    monkeypatch.setattr(verdict, "refutation_search", _no_search)
    a, b = random_pair(12)
    v = check_containment(a, b, order=order, method=method)
    assert v.status == "Refuted"
    assert v.details["witness_source"] == "solution"
    assert float(np.linalg.eigvalsh(a.evaluate(v.witness["x"]).mat).min()) >= -1e-9
    assert v.witness["b_margin"] < -certification_tolerance(b)


def test_disk_solution_point_falls_back_to_sampling():
    # the minimizers form a circle, so the first moments are its center
    v = check_containment(*disk_pair(1.2))
    assert v.status == "Refuted"
    assert v.details["witness_source"] == "sampling"


def _no_probe(p):
    raise AssertionError("the walk should start at the solution point")


@pytest.mark.parametrize("method, order", MACHINES,
                         ids=["moment", "sos0", "sos1", "sdfp"])
def test_disk_walk_starts_at_the_solution_point(monkeypatch, method, order):
    # every machine's first moments are the center, inside the disk
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
