"""Containment decisions with explicit outcomes.

check_containment runs the full pipeline: exact lineality preprocessing,
then one of the three semidefinite machines on the reduced pair, then a
sampling refutation pass when the bound comes back negative.  Every verdict
is one of Certified / Refuted / Inconclusive; Refuted always carries a
numerically confirmed violation point, never just a negative bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NotContained, NumericalFailure
from .momrelax import solve_mu_mom
from .pencil import LinearPencil
from .posmap import cp_sdfp
from .reduce import split_lineality
from .sampling import (WITNESS_FEAS_TOL, confirm_witness, interior_point,
                       refutation_search)
from .sdpcore import feasibility_probe
from .sosrelax import lambda_sos
from .symcore import min_eigenvalue, spectral_norm

_METHODS = ("moment", "sos", "sdfp")
_EXIT = {"Certified": 0, "Refuted": 1, "Inconclusive": 2}


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


def certification_tolerance(b: LinearPencil, factor: float = 1e-7) -> float:
    """Scale-aware zero threshold: factor * (1 + largest coefficient norm)."""
    scale = max(spectral_norm(c) for c in b.coeffs)
    return factor * (1.0 + scale)


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


def check_containment(a: LinearPencil, b: LinearPencil, order: int = 2,
                      method: str = "moment", r: float = 1.0, R: float = 2.0,
                      refute: bool = True, samples: int = 400,
                      seed: int = 0) -> Verdict:
    """Decide whether S_A is contained in S_B.

    method selects the machine run on the lineality-reduced pair:
    "moment" (order-t bound on the containment functional), "sos"
    (order-t eigenvalue certificate), or "sdfp" (positivity-map feasibility,
    order ignored).  A negative or failed bound triggers a sampling
    refutation pass when refute=True; only a confirmed point yields Refuted.
    """
    if method not in _METHODS:
        raise InvalidInput(f"unknown method {method!r}, expected {_METHODS}")
    if a.n != b.n:
        raise InvalidInput("pencils must share the variable count")
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

    def refutation(det):
        if not refute:
            return Verdict("Inconclusive", det["value"], det.get("order"),
                           method, None, {**details, **det,
                                          "note": "refutation disabled"})
        try:
            hit = refutation_search(ar, br, tol=tol, samples=samples, seed=seed)
        except InvalidInput as exc:
            # no strictly feasible point; an empty inner set certifies vacuously
            if feasibility_probe(ar).kind == "Empty":
                return Verdict("Certified", float("inf"), det.get("order"),
                               method, None,
                               {**details, **det, "note": "inner set is empty"})
            hit = None
            det = {**det, "refutation_error": str(exc)}
        if hit is not None:
            hit = {**hit, "x": to_original(hit["x"])}
            confirmed = confirm_witness(a, b, hit["x"], tol)
            if confirmed is not None:
                return Verdict("Refuted", det["value"], det.get("order"),
                               method, confirmed, {**details, **det})
        return Verdict("Inconclusive", det["value"], det.get("order"), method,
                       None, {**details, **det,
                              "note": "negative bound without a confirmed point"})

    if method == "moment":
        try:
            res = solve_mu_mom(ar, br, order, r=r, R=R)
        except NumericalFailure as exc:
            return refutation({"value": float("nan"), "order": order,
                               "solver_error": str(exc)})
        det = {"value": res.value, "order": order, "solve_status": res.status,
               "r": r, "R": R}
        if res.reliable and res.value >= -tol:
            return Verdict("Certified", res.value, order, method, None,
                           {**details, **det})
        if res.reliable:
            return refutation(det)
        return refutation({**det, "note_solver": "bound not reliable"})

    if method == "sos":
        try:
            res = lambda_sos(ar, br, order)
        except NumericalFailure as exc:
            return refutation({"value": float("nan"), "order": order,
                               "solver_error": str(exc)})
        det = {"value": res.value, "order": order, "solve_status": res.status}
        if res.reliable and np.isfinite(res.value) and res.value >= -tol:
            return Verdict("Certified", res.value, order, method, None,
                           {**details, **det})
        # absence of a certificate at this order never refutes by itself
        return refutation(det)

    try:
        res = cp_sdfp(ar, br)
    except NumericalFailure as exc:
        return refutation({"value": float("nan"), "order": None,
                           "solver_error": str(exc)})
    det = {"value": res.margin, "order": None, "sdfp_kind": res.kind}
    if res.kind == "Feasible":
        return Verdict("Certified", res.margin, None, method, None,
                       {**details, **det})
    return refutation(det)
