from types import SimpleNamespace

import numpy as np
import pytest

from builders import cp_sdfp_by_nullspace, equation_system
from spectracon import sdpcore
from spectracon.errors import InvariantViolation
from spectracon.families import (ball_elliptope_pair, choi_map_spec, choi_pair,
                                 disk_pair, random_pair)
from spectracon.posmap import choi_matrix, cp_sdfp, implication_report
from spectracon.pencil import extend, pencil
from spectracon.symcore import svec
from test_momrelax import _criterion6_ball


def test_disk_transition():
    lo = cp_sdfp(*disk_pair(0.707))
    hi = cp_sdfp(*disk_pair(0.708))
    assert lo.kind == "Feasible"
    assert hi.kind == "Infeasible"
    assert lo.margin > 0 > hi.margin


def test_elliptope_pair_feasible():
    res = cp_sdfp(*ball_elliptope_pair(3))
    assert res.kind == "Feasible"


def test_choi_matrix_not_psd():
    c = choi_matrix(choi_map_spec())
    assert float(np.linalg.eigvalsh(c).min()) == pytest.approx(-0.118034, abs=1e-5)


def test_choi_slices_infeasible():
    res = cp_sdfp(*choi_pair())
    assert res.kind == "Infeasible"
    assert res.margin == pytest.approx(-0.048584, abs=1e-4)


def test_implication_report_consistent_inputs():
    mlo = SimpleNamespace(reliable=True, value=0.4, order=2)
    mhi = SimpleNamespace(reliable=True, value=0.5, order=3)
    rep = implication_report(moments=[mhi, mlo], grid_value=0.6)
    assert rep["violations"] == []
    names = {c["name"] for c in rep["checks"]}
    assert "moment_monotone_2_3" in names
    assert "moment_below_sampled_2" in names


def test_implication_report_strict_raises():
    # the order-2 bound above the order-3 one breaks monotonicity
    mlo = SimpleNamespace(reliable=True, value=0.6, order=2)
    mhi = SimpleNamespace(reliable=True, value=0.5, order=3)
    with pytest.raises(InvariantViolation):
        implication_report(moments=[mlo, mhi])
    rep = implication_report(moments=[mlo, mhi], strict=False)
    assert rep["violations"] == ["moment_monotone_2_3"]


def test_unreliable_solve_is_inconclusive(monkeypatch):
    monkeypatch.setattr(sdpcore, "_MAX_CONSTRAINTS", 0)
    res = cp_sdfp(*disk_pair(0.5))
    assert res.kind == "Inconclusive"
    assert res.witness is None
    assert res.details["solver_status"] == "Inaccurate"
    assert "exceeds the dense Schur limit of 0" in res.details["solver_message"]


_PAIRS = {
    "ball-0": lambda: _criterion6_ball(0), "ball-5": lambda: _criterion6_ball(5),
    "disk-0.5": lambda: disk_pair(0.5), "disk-0.707": lambda: disk_pair(0.707),
    "disk-0.708": lambda: disk_pair(0.708), "disk-0.8": lambda: disk_pair(0.8),
    "disk-1.2": lambda: disk_pair(1.2),
    "ball-elliptope-3": lambda: ball_elliptope_pair(3),
    "ball-elliptope-4": lambda: ball_elliptope_pair(4),
    **{f"random-{seed}": (lambda seed=seed: random_pair(seed)) for seed in range(1, 41)},
    "choi": choi_pair,
    # x_2 repeats x_1 in both pencils: the equations of p = 1 and 2 coincide
    "dependent": lambda: tuple(pencil([p.coeffs[0].mat, p.coeffs[1].mat, p.coeffs[1].mat])
                               for p in disk_pair(0.6)),
}
_FEASIBLE = ["ball-elliptope-3", "ball-elliptope-4", "dependent", "disk-0.5", "disk-0.707",
             *(f"random-{seed}" for seed in (2, 7, 8, 9, 14, 17, 20, 21, 22, 23, 24, 25,
                                             27, 28, 29, 30, 34, 35, 36, 37, 38, 39, 40))]


@pytest.mark.parametrize("name", sorted(_PAIRS))
def test_equation_form_matches_nullspace_form(name):
    a, b = _PAIRS[name]()
    got = cp_sdfp(a, b)
    kind, margin = cp_sdfp_by_nullspace(a, b)
    assert got.kind == kind
    assert got.margin == pytest.approx(margin, abs=1e-6 * (1.0 + abs(margin)))


@pytest.mark.parametrize("name", _FEASIBLE)
def test_feasible_witness_solves_equations(name):
    a, b = _PAIRS[name]()
    res = cp_sdfp(a, b)
    assert res.kind == "Feasible"
    c = res.witness
    assert float(np.linalg.eigvalsh(c).min()) >= -1e-8
    eq, rhs, d = equation_system(extend(a), b)
    assert c.shape == (d, d)
    assert float(np.linalg.norm(eq @ svec(c) - rhs)) <= 1e-6 * (1 + np.linalg.norm(rhs))


def _congruent(p, g):
    """G A(x) G', the same spectrahedron for an invertible G."""
    return pencil([g @ c.mat @ g.T for c in p.coeffs])


@pytest.mark.parametrize("name", ["disk-0.5", "disk-0.708", "disk-1.2", "random-2", "random-3"])
def test_congruent_inner_pencil_keeps_the_decision(name):
    # G A G' has linear coefficients that are not traceless, where the
    # margin is no longer the margin program's, but the decision still is
    a, b = _PAIRS[name]()
    ag = _congruent(a, np.random.default_rng(7).normal(size=(a.k, a.k)))
    got = cp_sdfp(ag, b)
    assert got.kind == cp_sdfp(a, b).kind
    assert got.kind == cp_sdfp_by_nullspace(ag, b)[0]


def test_margin_keeps_its_sign_below_unit_divisor():
    # the interval [1, 2] as diag(4x - 4, 2 - x): 1 + tr A_0 = -1
    a = _congruent(pencil([np.diag([-1.0, 2.0]), np.diag([1.0, -1.0])]), np.diag([2.0, 1.0]))
    b = pencil([np.zeros((1, 1)), np.ones((1, 1))])  # x >= 0
    got = cp_sdfp(a, b)
    assert got.kind == cp_sdfp_by_nullspace(a, b)[0] == "Feasible"
    assert got.margin > 0
