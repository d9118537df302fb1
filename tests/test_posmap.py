from types import SimpleNamespace

import numpy as np
import pytest

from builders import cp_sdfp_by_nullspace
from spectracon import sdpcore
from spectracon.errors import InvariantViolation
from spectracon.families import (ball_elliptope_pair, choi_map_spec, choi_pair,
                                 disk_pair, random_pair)
from spectracon.posmap import (_equation_system, choi_matrix, cp_sdfp,
                               implication_report)
from spectracon.pencil import extend, pencil
from spectracon.symcore import svec
from test_momrelax import _criterion6_ball


def test_disk_transition():
    lo = cp_sdfp(*disk_pair(0.707))
    hi = cp_sdfp(*disk_pair(0.708))
    assert lo.kind == "Feasible"
    assert hi.kind == "Infeasible"
    assert lo.margin > 0 > hi.margin


def test_feasible_witness_solves_equations():
    a, b = disk_pair(0.5)
    res = cp_sdfp(a, b)
    assert res.kind == "Feasible"
    c = res.witness
    assert float(np.linalg.eigvalsh(c).min()) >= -1e-8
    eq, rhs, d = _equation_system(extend(a), b)
    assert c.shape == (d, d)
    assert float(np.linalg.norm(eq @ svec(c) - rhs)) <= 1e-6 * (1 + np.linalg.norm(rhs))


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
    a, b = disk_pair(0.5)
    cp = cp_sdfp(a, b)
    lam0 = SimpleNamespace(reliable=True, value=0.5, order=0)
    mlo = SimpleNamespace(reliable=True, value=0.4, order=2)
    mhi = SimpleNamespace(reliable=True, value=0.5, order=3)
    rep = implication_report(cp=cp, lam0=lam0, moments=[mhi, mlo],
                             grid_value=0.6)
    assert rep["violations"] == []
    names = {c["name"] for c in rep["checks"]}
    assert "certificate_implies_gram" in names
    assert "moment_monotone_2_3" in names
    assert "moment_below_sampled_2" in names


def test_implication_report_strict_raises():
    a, b = disk_pair(0.5)
    cp = cp_sdfp(a, b)  # Feasible
    bad = SimpleNamespace(reliable=True, value=-0.5, order=0)
    with pytest.raises(InvariantViolation):
        implication_report(cp=cp, lam0=bad)
    rep = implication_report(cp=cp, lam0=bad, strict=False)
    assert rep["violations"] == ["certificate_implies_gram"]


def test_unreliable_solve_is_inconclusive(monkeypatch):
    monkeypatch.setattr(sdpcore, "_MAX_CONSTRAINTS", 0)
    res = cp_sdfp(*disk_pair(0.5))
    assert res.kind == "Inconclusive"
    assert res.witness is None
    assert res.details["solver_status"] == "Inaccurate"
    assert "exceeds the dense Schur limit of 0" in res.details["solver_message"]


_PAIRS = {
    "ball-0": lambda: _criterion6_ball(0), "ball-5": lambda: _criterion6_ball(5),
    "disk-0.8": lambda: disk_pair(0.8), "disk-1.2": lambda: disk_pair(1.2),
    "ball-elliptope-3": lambda: ball_elliptope_pair(3),
    "random-1": lambda: random_pair(1), "random-18": lambda: random_pair(18),
    "choi": choi_pair,
    # x_2 repeats x_1 in both pencils: the equations of p = 1 and 2 coincide
    "dependent": lambda: tuple(pencil([p.coeffs[0].mat, p.coeffs[1].mat, p.coeffs[1].mat])
                               for p in disk_pair(0.6)),
}


@pytest.mark.parametrize("name", sorted(_PAIRS))
def test_equation_form_matches_nullspace_form(name):
    a, b = _PAIRS[name]()
    got = cp_sdfp(a, b)
    kind, margin = cp_sdfp_by_nullspace(a, b)
    assert got.kind == kind
    assert got.margin == pytest.approx(margin, abs=1e-6 * (1.0 + abs(margin)))


def test_dependent_equations_are_dropped():
    res = cp_sdfp(*_PAIRS["dependent"]())
    # three of the nine equations repeat others
    assert res.details["rank"] == 6
    assert res.kind == "Feasible"
