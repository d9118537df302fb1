"""End-to-end acceptance checks, one numbered criterion per test.

Each test prints a single PASS/FAIL line (visible in the -rP summary)
and keeps its tolerances and wall-clock budget next to the assertions.
"""

import time

import numpy as np

from spectracon.families import (ball_elliptope_pair, choi_map_spec,
                                 choi_pair, disk_pair, random_pair)
from spectracon.momrelax import shrink_to_certify, solve_mu_mom
from spectracon.pencil import (ellipsoid_pencil, elliptope_pencil, pencil,
                               polytope_pencil, random_pencil)
from spectracon.posmap import choi_matrix, cp_sdfp, implication_report
from spectracon.radii import boundedness_certificate, circumradius_sq
from spectracon.sampling import mu_grid
from spectracon.sdpa import export_sdpa, parse_sdpa
from spectracon.sdpcore import (LmiBuilder, PrimalBuilder, SolveStatus,
                                compute_residuals, solve)
from spectracon.sosrelax import lambda_sos
from spectracon.verdict import check_containment


def _line(num, failures, desc):
    ok = not failures
    tail = "" if ok else " | " + "; ".join(failures)
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {desc}{tail}")
    assert ok, f"criterion {num}: {failures}"


def test_criterion_1_disk_family():
    t0 = time.perf_counter()
    bad = []

    m2 = solve_mu_mom(*disk_pair(0.70), 2)
    if not (m2.reliable and abs(m2.value - 0.0101) <= 2e-3):
        bad.append(f"mu2(0.70) = {m2.value:.6f}, wanted 0.0101 +- 2e-3")
    m2c = solve_mu_mom(*disk_pair(1.0 / np.sqrt(2.0)), 2)
    if not (m2c.reliable and abs(m2c.value) <= 1e-5):
        bad.append(f"mu2 at the threshold = {m2c.value:.2e}, wanted |.| <= 1e-5")
    for nu in (0.70, 0.80, 1.00):
        m3 = solve_mu_mom(*disk_pair(nu), 3)
        if not (m3.reliable and abs(m3.value - (1.0 - nu)) <= 2e-3):
            bad.append(f"mu3({nu}) = {m3.value:.6f}, wanted {1 - nu:.2f} +- 2e-3")
    for nu, kind in ((0.707, "Feasible"), (0.708, "Infeasible")):
        res = cp_sdfp(*disk_pair(nu))
        if res.kind != kind:
            bad.append(f"sdfp({nu}) = {res.kind}, wanted {kind}")

    dt = time.perf_counter() - t0
    if dt > 10.0:
        bad.append(f"took {dt:.1f}s, budget 10s")
    _line(1, bad, f"disk family: order-2 threshold, order-3 exactness, "
                  f"certificate flip at 0.707/0.708 ({dt:.1f}s)")


def test_criterion_2_ball_in_elliptope():
    t0 = time.perf_counter()
    bad = []
    refs = {3: 0.292893, 4: 0.133975}
    for l, ref in refs.items():
        m2 = solve_mu_mom(*ball_elliptope_pair(l), 2)
        if not (m2.reliable and abs(m2.value - ref) <= 2e-3):
            bad.append(f"mu2(l={l}) = {m2.value:.6f}, wanted {ref} +- 2e-3")
        lam = lambda_sos(*ball_elliptope_pair(l), 0)
        if not (lam.reliable and abs(lam.value - ref) <= 2e-3):
            bad.append(f"lambda0(l={l}) = {lam.value:.6f}, wanted {ref} +- 2e-3")
    dt = time.perf_counter() - t0
    if dt > 60.0:
        bad.append(f"took {dt:.1f}s, budget 60s")
    _line(2, bad, f"ball-in-elliptope margins agree across machines ({dt:.1f}s)")


def test_criterion_3_elliptope_circumradius():
    t0 = time.perf_counter()
    bad = []
    for l in (3, 4, 5):
        n = l * (l - 1) // 2
        res = circumradius_sq(elliptope_pencil(l))
        if not (res.reliable and abs(res.value - n) <= 1e-3):
            bad.append(f"nu^2(l={l}) = {res.value:.6f}, wanted {n} +- 1e-3")
    dt = time.perf_counter() - t0
    if dt > 120.0:
        bad.append(f"took {dt:.1f}s, budget 120s")
    _line(3, bad, f"elliptope squared circumradius equals the dimension ({dt:.1f}s)")


def test_criterion_4_choi_map():
    t0 = time.perf_counter()
    bad = []
    eig = float(np.linalg.eigvalsh(choi_matrix(choi_map_spec())).min())
    if not eig < 0:
        bad.append(f"Choi matrix min eig = {eig:.6f}, wanted < 0")
    a, b = choi_pair()
    res = cp_sdfp(a, b, extended=True)
    if res.kind != "Infeasible":
        bad.append(f"extended certificate test = {res.kind}, wanted Infeasible")
    m3 = solve_mu_mom(a, b, 3, r=1.0, R=1.0)
    if not (m3.reliable and m3.value > 0):
        bad.append(f"mu3 on the sphere = {m3.value:.2e}, wanted > 0")
    dt = time.perf_counter() - t0
    if dt > 120.0:
        bad.append(f"took {dt:.1f}s, budget 120s")
    _line(4, bad, f"positive map with nonpositive Choi matrix: slice "
                  f"containment holds, block certificate does not ({dt:.1f}s)")


def test_criterion_5_random_instance_invariants():
    t0 = time.perf_counter()
    bad = []
    n_pairs = 50
    agree_checked = 0
    for seed in range(n_pairs):
        a, b = random_pair(seed)
        cp = cp_sdfp(a, b)
        lam = lambda_sos(a, b, 0)
        m2 = solve_mu_mom(a, b, 2)
        m3 = solve_mu_mom(a, b, 3)
        g = mu_grid(a, b, samples=200, seed=seed)
        tag = f"seed {seed}"

        if cp.kind == "Feasible":
            if lam.reliable and lam.value < -1e-6:
                bad.append(f"{tag}: certificate solvable but lambda0 = {lam.value:.2e}")
            if m2.reliable and m2.value < -1e-6:
                bad.append(f"{tag}: certificate solvable but mu2 = {m2.value:.2e}")
        if cp.kind != "Inconclusive" and lam.reliable:
            if (lam.value >= -1e-6) != (cp.kind == "Feasible"):
                bad.append(f"{tag}: lambda0 = {lam.value:.2e} vs "
                           f"certificate {cp.kind}")
        if m2.reliable and m3.reliable and m2.value > m3.value + 1e-6:
            bad.append(f"{tag}: mu2 = {m2.value:.6e} above mu3 = {m3.value:.6e}")
        for m in (m2, m3):
            if m.reliable and m.value > g + 1e-6:
                bad.append(f"{tag}: mu{m.order} = {m.value:.6e} above "
                           f"sampled {g:.6e}")
        try:
            implication_report(cp=cp, lam0=lam, moments=[m2, m3], grid_value=g)
        except Exception as exc:
            bad.append(f"{tag}: implication report raised {exc!r}")
        # the order-0 Gram bound and order-2 moment bound coincide on
        # certifiable instances (both machines see the same extremal point)
        if (m2.status == "optimal" and lam.status == "optimal"
                and lam.value >= 0):
            agree_checked += 1
            if abs(m2.value - lam.value) > 5e-3:
                bad.append(f"{tag}: mu2 = {m2.value:.6e} vs "
                           f"lambda0 = {lam.value:.6e}")
    dt = time.perf_counter() - t0
    _line(5, bad, f"{n_pairs} random pairs: implication chain, order "
                  f"monotonicity, sampled upper bounds, {agree_checked} "
                  f"cross-machine agreements ({dt:.1f}s)")


def test_criterion_6_ball_in_polytope_verdicts():
    t0 = time.perf_counter()
    bad = []
    rng = np.random.default_rng(606)
    n_cases = 25
    for i in range(n_cases):
        n = 2 + i % 2
        k = 3 + i % 3
        amat = rng.normal(size=(k, n))
        nu = rng.uniform(0.4, 1.0)
        target = rng.uniform(0.3, 1.7)
        while abs(target - 1.0) < 0.05:  # keep clear of the decision boundary
            target = rng.uniform(0.3, 1.7)
        worst = nu * float(np.linalg.norm(amat, axis=1).max())
        amat *= target / worst
        ball = ellipsoid_pencil([nu] * n)
        poly = polytope_pencil(amat, np.ones(k))
        expected = "Certified" if target < 1.0 else "Refuted"
        v = check_containment(ball, poly, order=2, seed=i)
        if v.status != expected:
            bad.append(f"case {i}: margin {target:.3f} gave {v.status}, "
                       f"wanted {expected}")
    dt = time.perf_counter() - t0
    _line(6, bad, f"{n_cases} ball-in-polytope instances match the "
                  f"closed-form criterion ({dt:.1f}s)")


def _monic(p):
    return pencil([np.eye(p.k)] + [c.mat for c in p.coeffs[1:]])


def test_criterion_7_shrink_always_certifies():
    t0 = time.perf_counter()
    bad = []
    found = 0
    seed = 0
    while found < 10 and seed < 200:
        seed += 1
        n = 1 + seed % 2
        inner = _monic(random_pencil(n, 2 + seed % 2, seed=1000 + seed))
        if boundedness_certificate(inner).kind != "Bounded":
            continue
        outer = _monic(random_pencil(n, 2 + (seed // 2) % 2, seed=2000 + seed))
        found += 1
        sr = shrink_to_certify(inner, outer, t=2)
        if not sr.certified:
            bad.append(f"seed {seed}: no certified factor above 2^-10")
        elif not (2.0 ** -10 <= sr.factor <= 1.0):
            bad.append(f"seed {seed}: factor {sr.factor:.6f} out of range")
    if found < 10:
        bad.append(f"only {found} bounded monic pairs drawn")
    dt = time.perf_counter() - t0
    _line(7, bad, f"bisection certifies a shrink factor for {found} monic "
                  f"bounded pairs ({dt:.1f}s)")


def _feasible_problem(seed, blocks=(3, -2), m=6):
    rng = np.random.default_rng(seed)
    pb = PrimalBuilder()
    handles = [pb.add_block(s) for s in blocks]
    for h, s in zip(handles, blocks):
        d = abs(s)
        for i in range(d):
            for j in range(i, (i + 1 if s < 0 else d)):
                pb.add_cost(h, i, j, float(rng.normal()))
    x0 = []
    for s in blocks:
        d = abs(s)
        if s > 0:
            g = rng.normal(size=(d, d))
            x0.append(g @ g.T + 0.1 * np.eye(d))
        else:
            x0.append(np.diag(rng.uniform(0.5, 2.0, size=d)))
    for _ in range(m):
        rhs = 0.0
        rows = []
        for h, s, xb in zip(handles, blocks, x0):
            d = abs(s)
            for i in range(d):
                for j in range(i, (i + 1 if s < 0 else d)):
                    if rng.uniform() < 0.4:
                        v = float(rng.normal())
                        rows.append((h, i, j, v))
                        rhs += v * xb[i, j]
        con = pb.new_constraint(rhs)
        for h, i, j, v in rows:
            pb.add_entry(con, h, i, j, v)
    return pb.build()


def test_criterion_8_solver_unit_suite(tmp_path):
    t0 = time.perf_counter()
    bad = []

    # analytic: largest eigenvalue of a fixed diagonal matrix, exact
    lb = LmiBuilder(nvars=1, sense="min")
    blk = lb.add_block(2)
    for i, d in enumerate((1.0, -0.5)):
        lb.add_const(blk, i, i, -d)
        lb.add_term(blk, 0, i, i, 1.0)
    lb.set_objective(0, 1.0)
    sol = solve(lb.build())
    if abs(lb.value_from(sol) - 1.0) > 1e-8:
        bad.append(f"analytic eigenvalue program off by "
                   f"{abs(lb.value_from(sol) - 1.0):.2e}")

    for seed in (0, 1, 2):
        prob = _feasible_problem(seed)
        sol = solve(prob)
        if sol.status is not SolveStatus.OPTIMAL:
            bad.append(f"seed {seed}: status {sol.status}")
            continue
        res = sol.residuals
        if res["primal_obj"] - res["dual_obj"] < -1e-7:
            bad.append(f"seed {seed}: weak duality violated by "
                       f"{res['dual_obj'] - res['primal_obj']:.2e}")
        again = compute_residuals(prob, sol.x_blocks, sol.y, sol.s_blocks)
        for key, val in res.items():
            if not np.isclose(again[key], val, rtol=1e-9, atol=1e-12):
                bad.append(f"seed {seed}: residual {key} not reproducible")

    prob = _feasible_problem(7)
    p1 = tmp_path / "a.dat-s"
    p2 = tmp_path / "b.dat-s"
    export_sdpa(prob, p1)
    parsed = parse_sdpa(p1)
    export_sdpa(parsed, p2)
    if p1.read_bytes() != p2.read_bytes():
        bad.append("sdpa export is not idempotent under parse/export")
    v0 = solve(prob).value
    v1 = solve(parsed).value
    if abs(v0 - v1) > 1e-8:
        bad.append(f"round-tripped problem value drifted by {abs(v0 - v1):.2e}")

    dt = time.perf_counter() - t0
    _line(8, bad, f"solver unit suite: analytic program, weak duality, "
                  f"residual recomputation, file round trip ({dt:.1f}s)")
