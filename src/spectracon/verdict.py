"""Containment decisions with explicit outcomes.

check_containment runs the full pipeline: exact lineality preprocessing,
then, with refute=True, the boundary points of the reduced inner set on
chords through the origin (sampling.boundary_witness); a confirmed one
refutes at once with method "boundary", and no relaxation is built.
Then the verdict climbs a ladder of rungs on the reduced pair.  The
bottom rung is the order-0 Gram program (method "sos", order 0), the
solitary criterion and the cheapest certificate; a request above it
(moment, or sos at order >= 1) adds its relaxation as the top rung.
"sdfp" reads the same program as a block certificate (posmap.cp_sdfp)
and is a ladder of that one rung.  Each rung runs through one call,
_bound, which says whether it certifies; otherwise, with refute=True,
the x part of the rung's solution (its first moments, the minimizer
whenever the relaxation is exact at a point mass) refutes when
confirm_witness confirms it.  A bottom rung that decides nothing leaves
its reading in details["order0"].  After the top rung, a hit-and-run
search of the inner set starts at that rung's point when it is strictly
inside, and solves a feasibility probe for a start point otherwise.
details["witness_source"] says which one refuted ("boundary", "solution"
or "sampling").  Every verdict is one of Certified / Refuted /
Inconclusive; Refuted always carries a confirmed point, never just a
negative bound.  A verdict's method, order and value name the rung that
decided, or the top rung; a bound that is not reliable has value nan and
carries its solve's message in details["solver_message"].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (InvalidInput, NoInteriorPoint, NotContained, NumericalFailure,
                     OrderTooSmall)
from .momrelax import solve_mu_mom
from .pencil import LinearPencil
from .posmap import cp_sdfp
from .reduce import split_lineality
from .sampling import (WITNESS_FEAS_TOL, boundary_witness, confirm_witness,
                       eigen_margin, interior_point, refutation_search)
from .sosrelax import lambda_sos
from .symcore import min_eigenvalue, spectral_norm

_METHODS = ("moment", "sos", "sdfp")
_EXIT = {"Certified": 0, "Refuted": 1, "Inconclusive": 2}
_TOL_FACTOR = 1e-7


@dataclass(frozen=True)
class Verdict:
    status: str          # Certified | Refuted | Inconclusive
    value: float         # bound of the rung that decided
    order: int | None
    method: str
    witness: dict | None
    details: dict

    @property
    def exit_code(self) -> int:
        return _EXIT[self.status]

    def __str__(self):
        head = f"{self.status} (method={self.method}"
        if self.order is not None:
            head += f", order={self.order}"
        head += f", value={self.value:+.6e})"
        return head


def certification_tolerance(b: LinearPencil) -> float:
    """Scale-aware zero threshold: ``_TOL_FACTOR`` (1e-7) times 1 plus the
    largest coefficient norm of the outer pencil."""
    scale = max(spectral_norm(c) for c in b.coeffs)
    return _TOL_FACTOR * (1.0 + scale)


def _lineality_witness(a: LinearPencil, b: LinearPencil, direction, tol):
    """Turn a lineality violation direction into an explicit point.

    Membership in S_A is invariant along the direction while B moves, so
    walking far enough from any feasible base point must expose a negative
    eigenvalue of B.
    """
    try:
        x0 = interior_point(a)
    except InvalidInput:
        return None
    for mag in (1.0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8):
        for sign in (1.0, -1.0):
            hit = confirm_witness(a, b, x0 + sign * mag * direction, tol)
            if hit is not None:
                return hit
    return None


def _bound(a: LinearPencil, b: LinearPencil, method: str, order: int | None,
           r: float, R: float, tol: float):
    """(details, certified, point) of one rung on the pair: moment and sos
    certify with a reliable value >= -tol, sdfp with a Feasible block
    certificate; point is the x part of the rung's solution or None."""
    if method == "sdfp":
        try:
            res = cp_sdfp(a, b)
        except NumericalFailure as exc:
            # a LAPACK failure outside the solve: the block witness's eigenvalues
            return ({"value": float("nan"), "order": None,
                     "solver_error": str(exc)}, False, None)
        det = {"value": res.margin, "order": None, "sdfp_kind": res.kind}
        if "solver_message" in res.details:
            det["solver_message"] = res.details["solver_message"]
        return det, res.kind == "Feasible", res.first_moments
    if method == "moment":
        res = solve_mu_mom(a, b, order, r=r, R=R)
        det = {"value": res.value, "order": order, "solve_status": res.status,
               "r": r, "R": R, "moments": res.info.n_moments,
               "block_sizes": list(res.info.block_sizes)}
    else:
        res = lambda_sos(a, b, order)
        det = {"value": res.value, "order": order, "solve_status": res.status}
    if not res.reliable:
        # an unreliable solve's value bounds nothing
        det.update(value=float("nan"), solver_message=res.solution.message)
    return det, res.reliable and res.value >= -tol, res.first_moments


def check_containment(a: LinearPencil, b: LinearPencil, order: int = 2,
                      method: str = "moment", r: float = 1.0, R: float = 2.0,
                      refute: bool = True, samples: int = 400,
                      seed: int = 0) -> Verdict:
    """Decide whether S_A is contained in S_B.

    method and order name the requested relaxation on the lineality-reduced
    pair: "moment" (order-t bound on the containment functional), "sos"
    (order-t eigenvalue certificate), or "sdfp" (the order-0 Gram program
    read as a block certificate; order ignored).  With refute=True,
    boundary points of the inner set are tried before any relaxation.
    Then the rungs run from the bottom, the order-0 Gram program, to the
    request: the first one that certifies, or whose confirmed solution
    point refutes, decides, and the rest are never built.  The bottom
    rung's reading is kept in details["order0"] when a rung follows it.
    After the top rung, a sampling search looks for a witness.  Only a
    confirmed point yields Refuted; the verdict's method, order and value
    are those of the rung that decided, or of the top one.  An order
    below the requested relaxation's least (2 for moment, 0 for sos)
    raises OrderTooSmall before anything runs.
    """
    if method not in _METHODS:
        raise InvalidInput(f"unknown method {method!r}, expected {_METHODS}")
    if a.n != b.n:
        raise InvalidInput("pencils must share the variable count")
    if samples < 1:
        raise InvalidInput("samples must be positive")
    if not (0 < r <= R):
        raise InvalidInput("need 0 < r <= R")
    # the relaxations' own order gates, checked before any rung can decide
    if method == "moment" and order < 2:
        raise OrderTooSmall("containment bounds need order t >= 2")
    if method == "sos" and order < 0:
        raise OrderTooSmall("order must be nonnegative")
    tol = certification_tolerance(b)
    details: dict = {"tolerance": tol}

    try:
        split = split_lineality(a, b)
    except NotContained as exc:
        direction = exc.witness["direction"]
        hit = _lineality_witness(a, b, direction, tol)
        if hit is not None:
            return Verdict("Refuted", hit["b_margin"], None, "lineality", hit,
                           {**details, "direction": direction})
        return Verdict("Inconclusive", float("nan"), None, "lineality", None,
                       {**details, "direction": direction,
                        "note": "lineality violation without a confirmed point"})
    ar, br = split.a, split.b
    if split.basis.shape[1] > 0:
        details["lineality_dim"] = int(split.basis.shape[1])

    def to_original(u):
        return split.complement @ np.asarray(u, dtype=float)

    if ar.n == 0:
        # inner set is a single point (plus lineality) or empty
        lam_a = min_eigenvalue(ar.coeffs[0])
        if lam_a < -WITNESS_FEAS_TOL:
            return Verdict("Certified", float("inf"), None, "direct", None,
                           {**details, "note": "inner set is empty"})
        lam = min_eigenvalue(br.coeffs[0])
        if lam >= -tol:
            return Verdict("Certified", float(lam), None, "direct", None, details)
        hit = confirm_witness(a, b, np.zeros(a.n), tol)
        if hit is not None:
            return Verdict("Refuted", float(lam), None, "direct", hit, details)
        return Verdict("Inconclusive", float(lam), None, "direct", None, details)

    if refute:
        # a boundary point that refutes spares the relaxation; like the
        # lineality and direct paths, no machine ran, so no bound is reported
        hit = boundary_witness(ar, br, tol, seed)
        if hit is not None:
            hit = confirm_witness(a, b, to_original(hit["x"]), tol)
        if hit is not None:
            return Verdict("Refuted", hit["b_margin"], None, "boundary", hit,
                           {**details, "witness_source": "boundary"})

    rungs = [("sdfp", None) if method == "sdfp" else ("sos", 0)]
    if method == "moment" or (method == "sos" and order >= 1):
        rungs.append((method, order))
    for step, (rung_method, rung_order) in enumerate(rungs, 1):
        det, certified, point = _bound(ar, br, rung_method, rung_order, r, R, tol)
        if certified:
            return Verdict("Certified", det["value"], rung_order, rung_method,
                           None, {**details, **det})
        # absence of a certificate at this order never refutes by itself
        if refute and point is not None:
            hit = confirm_witness(a, b, to_original(point), tol)
            if hit is not None:
                return Verdict("Refuted", det["value"], rung_order, rung_method,
                               hit, {**details, **det, "witness_source": "solution"})
        if step < len(rungs):
            details["order0"] = {"value": det["value"],
                                 "solve_status": det["solve_status"]}

    # past the loop, rung_method and rung_order name the top rung
    if not refute:
        return Verdict("Inconclusive", det["value"], rung_order, rung_method,
                       None, {**details, **det, "note": "refutation disabled"})
    start = point if point is not None and eigen_margin(ar, point) > 0 else None
    try:
        hit = refutation_search(ar, br, tol=tol, samples=samples, seed=seed,
                                x0=start)
    except InvalidInput as exc:
        # no strictly feasible point; an empty inner set certifies vacuously
        if isinstance(exc, NoInteriorPoint) and exc.kind == "Empty":
            return Verdict("Certified", float("inf"), rung_order, rung_method, None,
                           {**details, **det, "note": "inner set is empty"})
        hit = None
        det = {**det, "refutation_error": str(exc)}
    if hit is not None:
        hit = confirm_witness(a, b, to_original(hit["x"]), tol)
    if hit is not None:
        return Verdict("Refuted", det["value"], rung_order, rung_method, hit,
                       {**details, **det, "witness_source": "sampling"})
    return Verdict("Inconclusive", det["value"], rung_order, rung_method, None,
                   {**details, **det,
                    "note": "negative bound without a confirmed point"})
