"""Instance sets and fixed request lists of the benchmark workloads.

Every instance is generated from the workload seed during set-up; the
package then receives only the generated pencils.  Random pairs come from
``random_pair``, scanning seeds upward from the workload seed.
Each request is one call of a public spectracon function plus an
independent check of its answer (see reference.py).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, sqrt
from typing import Callable

import numpy as np

import spectracon as sc
from spectracon import families

import reference as ref

ORDER2_THRESHOLD = 1.0 / sqrt(2.0)  # disk pairs: order-2 machines certify up to here
DISK_NUS = tuple(round(0.5 + 0.1 * i, 1) for i in range(9))  # 0.5 .. 1.3
O3_DISK_NUS = (0.7, 0.8, 0.9, 1.0, 1.1)
SAMPLES = 200           # hit-and-run points per reference check
MAX_SCAN = 10_000       # random_pair seeds a quota may scan before giving up
ORDER2_METHODS = {("moment", 2), ("sos", 0), ("sdfp", None)}


@dataclass
class Instance:
    label: str
    a: object
    b: object | None = None
    facts: dict = field(default_factory=dict)  # closed-form truth, if any

    def sizes(self) -> dict:
        out = {"n": self.a.n, "k": self.a.k}
        if self.b is not None:
            out["l"] = self.b.k
        return out


@dataclass
class Request:
    label: str
    kind: str                      # verdict | moment | radius | bounded
    call: Callable[[], object]
    check: Callable[[object], str | None]
    sizes: dict


# ---------------------------------------------------------------------------
# Instance sets


def refutable(a, b, seed: int) -> bool:
    """Whether the benchmark's own sampler finds a point of S_A outside S_B."""
    points = ref.hit_and_run(ref.coefficients(a), SAMPLES, seed)
    return ref.contradiction(a, b, points) is not None


def random_pairs(seed: int, quota: dict) -> list[Instance]:
    """Random pairs stratified by size and by containment.

    Scans random_pair seeds upward from ``seed`` and keeps the first
    ``quota[(n + l, refutable)]`` pairs of each class: n + l relaxation
    variables (x and z) set the relaxation size, and a pair the sampler can
    refute costs every verdict machine a refutation search.  So every
    workload seed gives the same mix of sizes and outcomes, which set most
    of the time.  A class (n + l, None) takes pairs of either outcome.
    """
    want = dict(quota)
    out = []
    for s in range(seed, seed + MAX_SCAN):
        if not any(want.values()):
            return out
        a, b = families.random_pair(s)
        size = a.n + b.k
        if want.get((size, None)):
            key = (size, None)
        elif want.get((size, False)) or want.get((size, True)):
            key = (size, refutable(a, b, s))
        else:
            continue
        if want.get(key, 0) > 0:
            want[key] -= 1
            out.append(Instance(f"random_pair({s})", a, b))
    raise RuntimeError(f"quota {quota} not met within {MAX_SCAN} seeds")


def criterion6_balls() -> list[Instance]:
    """The ball-in-polytope instances of acceptance criterion 6.

    The ball of radius nu sits in {x : 1 + a_i x >= 0} iff the margin
    nu * max |a_i| is at most 1; margins are drawn at least 0.05 away
    from 1.  The set is fixed, as in the criterion.
    """
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
        out.append(Instance(f"ball({i})", sc.ellipsoid_pencil([nu] * n),
                            sc.polytope_pencil(amat, np.ones(k)),
                            {"margin": margin}))
    return out


def disk_pairs(nus) -> list[Instance]:
    return [Instance(f"disk({nu})", *families.disk_pair(nu), {"nu": nu})
            for nu in nus]


# ---------------------------------------------------------------------------
# Answer checks


def _verdict_check(inst: Instance, method: str, order, seed: int):
    order2 = (method, order) in ORDER2_METHODS
    samples = {}

    def points():
        if "x" not in samples:
            samples["x"] = ref.hit_and_run(ref.coefficients(inst.a), SAMPLES, seed)
        return samples["x"]

    def check(v) -> str | None:
        if v.status not in ("Certified", "Refuted", "Inconclusive"):
            return f"unknown status {v.status!r}"
        if v.status == "Refuted":
            if v.witness is None:
                return "Refuted without a witness"
            err = ref.witness_error(inst.a, inst.b, v.witness["x"])
            if err:
                return err
        facts = inst.facts
        if "margin" in facts:
            contained = facts["margin"] < 1.0
        elif "nu" in facts:
            contained = facts["nu"] <= 1.0
            if (v.status == "Certified" and order2
                    and facts["nu"] > ORDER2_THRESHOLD + 1e-3):
                return f"order-2 machine certified nu = {facts['nu']} > 1/sqrt(2)"
        else:
            contained = None
        if contained is not None:
            want = "Certified" if contained else "Refuted"
            if v.status not in (want, "Inconclusive"):
                return f"{v.status}, but the closed form says {want}"
        elif v.status == "Certified":
            return ref.contradiction(inst.a, inst.b, points())
        return None

    return check


def _moment_check(inst: Instance, seed: int, r: float, R: float):
    def check(res) -> str | None:
        facts = inst.facts
        if "nu" in facts:
            nu = facts["nu"]
            want = (1.0 - nu) * (r * r if nu <= 1.0 else R * R)
            if not abs(res.value - want) <= 2e-3:
                return f"bound {res.value:.6f}, closed form {want:.6f}"
        elif "choi" in facts:
            if not abs(res.value) <= 1e-3:
                return f"Choi bound {res.value:.3e}, expected 0 within 1e-3"
        elif res.reliable:
            pts = ref.hit_and_run(ref.coefficients(inst.a), SAMPLES, seed)
            ub = ref.sampled_mu(inst.a, inst.b, pts, r, R)
            if res.value > ub + 1e-4 * (1.0 + abs(ub)):
                return f"bound {res.value:.6e} above sampled value {ub:.6e}"
        return None

    return check


def _radius_check(inst: Instance, seed: int):
    def check(res) -> str | None:
        if "dim" in inst.facts:
            if not (res.reliable and abs(res.value - inst.facts["dim"]) <= 1e-3):
                return (f"squared circumradius {res.value:.6f} ({res.status}), "
                        f"expected {inst.facts['dim']}")
        elif res.reliable:
            pts = ref.hit_and_run(ref.coefficients(inst.a), SAMPLES, seed)
            far = ref.max_norm_sq(pts)
            if res.value < far - 1e-6 * (1.0 + far):
                return f"bound {res.value:.6e} below sampled |x|^2 = {far:.6e}"
        return None

    return check


def _bounded_check(inst: Instance):
    def check(rep) -> str | None:
        if inst.facts.get("bounded") and rep.kind == "Unbounded":
            return "a compact set reported Unbounded"
        return ref.boundedness_error(inst.a, rep)

    return check


# ---------------------------------------------------------------------------
# Requests


def verdict_request(inst: Instance, method: str, order, seed: int) -> Request:
    kwargs = {"method": method}
    if order is not None:
        kwargs["order"] = order
    tag = method if order is None else f"{method}{order}"
    # pencils and options bound now; the function is looked up at call
    # time so that a traced run sees the rebound name
    return Request(f"{inst.label}/{tag}", "verdict",
                   lambda: sc.check_containment(inst.a, inst.b, **kwargs),
                   _verdict_check(inst, method, order, seed), inst.sizes())


def moment_request(inst: Instance, order: int, seed: int,
                   r: float = 1.0, R: float = 2.0) -> Request:
    return Request(f"{inst.label}/mu{order}", "moment",
                   lambda: sc.solve_mu_mom(inst.a, inst.b, order, r=r, R=R),
                   _moment_check(inst, seed, r, R), inst.sizes())


def radius_requests(inst: Instance, seed: int) -> list[Request]:
    return [Request(f"{inst.label}/circumradius", "radius",
                    lambda: sc.circumradius_sq(inst.a),
                    _radius_check(inst, seed), inst.sizes()),
            Request(f"{inst.label}/boundedness", "bounded",
                    lambda: sc.boundedness_certificate(inst.a),
                    _bounded_check(inst), inst.sizes())]


def outcome(kind: str, result) -> dict:
    """What a request answered: status, whether it decided, solver status.

    decided: a verdict is Certified or Refuted, a bound is reliable, a
    boundedness report is Bounded or Unbounded.  solver: the status of the
    machine's own solve where the result reports one.
    """
    if kind == "verdict":
        return {"status": result.status,
                "decided": result.status in ("Certified", "Refuted"),
                "solver": result.details.get("solve_status"),
                "value": result.value}
    if kind in ("moment", "radius"):
        return {"status": result.status, "decided": result.reliable,
                "solver": result.status, "value": result.value}
    return {"status": result.kind, "decided": result.kind != "Unknown",
            "solver": None, "value": result.margin}


# ---------------------------------------------------------------------------
# Workloads


@dataclass
class Workload:
    name: str
    build: Callable[[int], list[Request]]
    warmup: Callable[[], object]
    layers: tuple  # layers every run of this workload must reach


# Instance counts, sized so that one pass takes 25 to 30 s on a 2-core
# x86-64 container with one BLAS thread.  Random-pair quotas are keyed by
# (n + l, refutable).  random_pair draws n + l = 4, 5, 6, 7 about 23%, 41%,
# 27% and 9% of the time, and about 6%, 27%, 60% and 74% of each can be
# refuted; the verdict quotas follow those shares.
VERDICT_PAIRS = {(4, False): 10, (5, False): 13, (5, True): 5, (6, False): 5,
                 (6, True): 7, (7, False): 1, (7, True): 4}
CERT_PAIRS = {(4, False): 6, (5, False): 8, (5, True): 3, (6, False): 3,
              (6, True): 5, (7, False): 1, (7, True): 2}
# Order 3 has 209 moments at n + l = 4, 461 at 5 and 923 at 6.  Solve time
# follows the iteration count, which varies 12 to 82 between pairs of one
# size; only at 209 moments do many pairs fit in a run.  The larger sizes
# are in moment-o3-large.
O3_PAIRS = {(4, None): 32}
O3_LARGE_PAIRS = {(5, None): 2, (6, None): 2}


def _verdict_moment(seed: int) -> list[Request]:
    insts = (random_pairs(seed, VERDICT_PAIRS) + criterion6_balls()
             + disk_pairs(DISK_NUS))
    return [verdict_request(i, "moment", 2, seed) for i in insts]


def _verdict_certificates(seed: int) -> list[Request]:
    pairs = random_pairs(seed, CERT_PAIRS)
    insts = pairs + criterion6_balls() + disk_pairs(DISK_NUS)
    reqs = [verdict_request(i, method, order, seed)
            for i in insts for method, order in (("sos", 0), ("sos", 1), ("sdfp", None))]
    shapes = [Instance(f"elliptope({l})", sc.elliptope_pencil(l), None,
                       {"dim": comb(l, 2), "bounded": True}) for l in (3, 4)]
    shapes += [Instance(f"{p.label}.{side}", getattr(p, side)) for p in pairs
               for side in ("a", "b")]
    for inst in shapes:
        reqs += radius_requests(inst, seed)
    return reqs


def _moment_o3(seed: int) -> list[Request]:
    insts = disk_pairs(O3_DISK_NUS) + random_pairs(seed, O3_PAIRS)
    return [moment_request(i, 3, seed) for i in insts]


def _moment_o3_large(seed: int) -> list[Request]:
    choi = Instance("choi", *families.choi_pair(), {"choi": True})
    reqs = [moment_request(choi, 3, seed, r=1.0, R=1.0)]
    reqs += [moment_request(i, 3, seed) for i in random_pairs(seed, O3_LARGE_PAIRS)]
    return reqs


def _warm_verdict():
    return sc.check_containment(*families.disk_pair(1.2))


def _warm_certificates():
    a, b = families.disk_pair(1.2)
    return [sc.check_containment(a, b, method="sos", order=0),
            sc.check_containment(a, b, method="sdfp"), sc.circumradius_sq(a)]


def _warm_moment():
    return sc.solve_mu_mom(*families.disk_pair(0.7), 2)


WORKLOADS = {w.name: w for w in (
    Workload("verdict-moment", _verdict_moment, _warm_verdict,
             ("sdpcore", "momrelax", "sampling", "reduce", "verdict", "families")),
    Workload("verdict-certificates", _verdict_certificates, _warm_certificates,
             ("sdpcore", "sosrelax", "posmap", "radii", "sampling", "reduce",
              "verdict", "families")),
    # moment-o3 and moment-o3-large are not in BENCHMARK.json: their wall
    # time moves too much with the seeded pairs' iteration counts, and a
    # moment-o3-large pass takes over a minute
    Workload("moment-o3", _moment_o3, _warm_moment,
             ("sdpcore", "momrelax", "families")),
    Workload("moment-o3-large", _moment_o3_large, _warm_moment,
             ("sdpcore", "momrelax", "families")),
)}
