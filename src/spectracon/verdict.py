"""Containment decisions with explicit outcomes.

check_containment runs the full pipeline: exact lineality preprocessing,
then, with refute=True, the boundary points of the reduced inner set on
chords through the origin (sampling.boundary_witness); a confirmed one
refutes at once with method "boundary", and no relaxation is built.  A
request above the bottom of the hierarchy (moment, or sos at order >= 1)
then solves the order-0 Gram program, the cheapest certificate.  When it
certifies, the verdict is Certified with method "sos" and order 0; with
refute=True, when the x part of its solution (the first moments of its
dual) is a confirmed point, the verdict is Refuted with method "sos",
order 0 and witness source "solution".  Either way the requested
relaxation is never built.  A stage that decides nothing leaves its
reading in details["order0"].  Otherwise the requested one of the three
semidefinite machines runs on the reduced pair, then a refutation pass
when the bound comes back negative or unreliable.  The pass tries
witness sources in order: first the x part of the machine's own solution
(the first moments of the moment relaxation or of the Gram program's
dual, the order-0 one for the block certificate), which is the minimizer
whenever the relaxation is exact at a point mass; then, only if that
point is not confirmed, a hit-and-run search of the inner set, which
starts at the solution point when that is strictly inside it and solves
a feasibility probe for a start point otherwise.
details["witness_source"] says which one refuted ("boundary", "solution"
or "sampling").  Every verdict is one of Certified / Refuted /
Inconclusive; Refuted always carries a point that confirm_witness
confirmed, never just a negative bound.  A verdict's method, order and
value always name the stage that decided.  Every machine runs through one
call, _bound; a bound that is not reliable has value nan and carries its
solve's message in details["solver_message"].
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
    value: float         # bound produced by the chosen machine
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


def _bound(a: LinearPencil, b: LinearPencil, method: str, order: int,
           r: float, R: float, tol: float):
    """(details, certified, point) of one machine on the pair: moment and
    sos certify with a reliable value >= -tol, sdfp with a Feasible block
    certificate; point is the x part of the machine's solution or None."""
    if method == "sdfp":
        res = cp_sdfp(a, b)
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

    method selects the machine run on the lineality-reduced pair:
    "moment" (order-t bound on the containment functional), "sos"
    (order-t eigenvalue certificate), or "sdfp" (positivity-map feasibility,
    order ignored).  With refute=True, boundary points of the inner set are
    tried before any machine runs.  A moment request, or an sos request at
    order >= 1, first tries the order-0 Gram certificate and returns its
    Certified verdict (method "sos", order 0) without building the
    requested relaxation; with refute=True, a confirmed solution point of
    that program returns Refuted from the same stage.  Otherwise its value
    and solve status are kept in details["order0"].  The verdict's method,
    order and value are those of the stage that decided.  A negative or
    failed bound of the requested machine triggers a refutation pass: the
    machine's own solution point first, the sampling search only if that
    point is not confirmed.  Only a confirmed point yields Refuted.  An
    order below the requested relaxation's least (2 for moment, 0 for sos)
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
    # the relaxations' own order gates, checked before any stage can decide
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

    if method == "moment" or (method == "sos" and order >= 1):
        # the order-0 Gram program is the bottom of both hierarchies and the
        # cheapest certificate; when it certifies, the requested relaxation
        # is never built, and neither is it when the stage's point refutes
        det, certified, point = _bound(ar, br, "sos", 0, r, R, tol)
        if certified:
            return Verdict("Certified", det["value"], 0, "sos", None,
                           {**details, **det})
        if refute and point is not None:
            hit = confirm_witness(a, b, to_original(point), tol)
            if hit is not None:
                return Verdict("Refuted", det["value"], 0, "sos", hit,
                               {**details, **det, "witness_source": "solution"})
        details["order0"] = {"value": det["value"],
                             "solve_status": det["solve_status"]}

    def refutation(det, point):
        """Verdict for a bound that did not certify; point is the x part of
        the machine's solution on the reduced pair, or None."""
        if not refute:
            return Verdict("Inconclusive", det["value"], det.get("order"),
                           method, None, {**details, **det,
                                          "note": "refutation disabled"})

        def refuted(x, source):
            hit = confirm_witness(a, b, to_original(x), tol)
            if hit is None:
                return None
            return Verdict("Refuted", det["value"], det.get("order"), method,
                           hit, {**details, **det, "witness_source": source})

        start = None
        if point is not None:
            verdict = refuted(point, "solution")
            if verdict is not None:
                return verdict
            if eigen_margin(ar, point) > 0:
                start = point
        try:
            hit = refutation_search(ar, br, tol=tol, samples=samples, seed=seed,
                                    x0=start)
        except InvalidInput as exc:
            # no strictly feasible point; an empty inner set certifies vacuously
            if isinstance(exc, NoInteriorPoint) and exc.kind == "Empty":
                return Verdict("Certified", float("inf"), det.get("order"),
                               method, None,
                               {**details, **det, "note": "inner set is empty"})
            hit = None
            det = {**det, "refutation_error": str(exc)}
        if hit is not None:
            verdict = refuted(hit["x"], "sampling")
            if verdict is not None:
                return verdict
        return Verdict("Inconclusive", det["value"], det.get("order"), method,
                       None, {**details, **det,
                              "note": "negative bound without a confirmed point"})

    try:
        det, certified, point = _bound(ar, br, method, order, r, R, tol)
    except NumericalFailure as exc:
        # a LAPACK failure outside the solve, such as a witness's eigenvalues
        return refutation({"value": float("nan"), "order": None if method == "sdfp"
                           else order, "solver_error": str(exc)}, None)
    if certified:
        return Verdict("Certified", det["value"], det["order"], method, None,
                       {**details, **det})
    # absence of a certificate at this order never refutes by itself
    return refutation(det, point)
