import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

from builders import LmiBuilder, PrimalBuilder, as_terms
from spectracon import momrelax, sdpcore

from spectracon.errors import InvalidInput
from spectracon.families import disk_pair, random_pair
from spectracon.momrelax import build_pmi_relaxation, containment_relaxation
from spectracon.pencil import (elliptope_pencil, ellipsoid_pencil, pencil,
                               polytope_pencil)
from spectracon.radii import circumradius_sq
from spectracon.sdpa import export_sdpa, parse_sdpa
from spectracon.sosrelax import sos_relaxation
from spectracon.sdpcore import (_LMI_STATUS, SdpProblem, SdpSolution,
                                SolveStatus, _margin_lmi, compute_residuals,
                                feasibility_probe, solve)

TOL = 1e-8


def _max_t_below_diag(d):
    """max t with t I <= diag(d), analytic optimum min(d)."""
    lb = LmiBuilder(nvars=1, sense="max")
    blk = lb.add_block(-len(d))
    for i, v in enumerate(d):
        lb.add_const(blk, i, i, v)
        lb.add_term(blk, 0, i, i, -1.0)
    lb.set_objective(0, 1.0)
    return lb, lb.build()


def test_analytic_diag_lmi():
    lb, prob = _max_t_below_diag([3.0, 1.0, 2.0])
    sol = solve(prob)
    assert sol.status is SolveStatus.OPTIMAL
    assert lb.value_from(sol) == pytest.approx(1.0, abs=TOL)


def test_lambda_max_dense():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(5, 5))
    m = (m + m.T) / 2
    lb = LmiBuilder(nvars=1, sense="min")
    blk = lb.add_block(5)
    for i in range(5):
        for j in range(i, 5):
            lb.add_const(blk, i, j, -m[i, j])
        lb.add_term(blk, 0, i, i, 1.0)
    lb.set_objective(0, 1.0)
    sol = solve(lb.build())
    assert sol.status is SolveStatus.OPTIMAL
    assert lb.value_from(sol) == pytest.approx(
        float(np.linalg.eigvalsh(m).max()), abs=1e-7)


def test_primal_builder_min_eig():
    rng = np.random.default_rng(4)
    c = rng.normal(size=(4, 4))
    c = (c + c.T) / 2
    pb = PrimalBuilder()
    blk = pb.add_block(4)
    for i in range(4):
        for j in range(4):
            if c[i, j] != 0.0:
                pb.add_cost(blk, i, j, c[i, j])
    con = pb.new_constraint(1.0)
    for i in range(4):
        pb.add_entry(con, blk, i, i, 1.0)
    sol = solve(pb.build())
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.primal_value == pytest.approx(
        float(np.linalg.eigvalsh(c).min()), abs=1e-7)


def _random_problem(seed, blocks=(3, -2), m=6):
    rng = np.random.default_rng(seed)
    pb = PrimalBuilder()
    handles = [pb.add_block(s) for s in blocks]
    for h, s in zip(handles, blocks):
        d = abs(s)
        for i in range(d):
            for j in range((i if s > 0 else i), (i + 1 if s < 0 else d)):
                pb.add_cost(h, i, j, float(rng.normal()))
    # feasible by construction: random PSD target X0, b = A(X0)
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


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_weak_duality_and_residuals(seed):
    prob = _random_problem(seed)
    sol = solve(prob)
    assert sol.status is SolveStatus.OPTIMAL
    res = sol.residuals
    assert res["primal_res"] <= 1e-7
    assert res["dual_res"] <= 1e-7
    # weak duality at the returned pair
    assert res["primal_obj"] - res["dual_obj"] >= -1e-7

    # independent recomputation of every reported residual
    again = compute_residuals(prob, sol.x_blocks, sol.y, sol.s_blocks)
    for key, val in sol.residuals.items():
        assert again[key] == pytest.approx(val, rel=1e-9, abs=1e-12)

    # primal residual by hand: || A(X) - b || / (1 + ||b||)
    ax = prob.apply_a(sol.x_blocks)
    prim = float(np.linalg.norm(ax - prob.b)) / (1.0 + prob.norm_b())
    assert prim == pytest.approx(res["primal_res"], rel=1e-6, abs=1e-12)
    # dual residual by hand: || A'y + S - C ||_F over all blocks
    at = prob.apply_at(sol.y)
    sq = 0.0
    for q, size in enumerate(prob.block_sizes):
        diff = at[q] + sol.s_blocks[q] - prob.c_blocks[q]
        sq += float(np.sum(np.square(diff)))
    assert np.sqrt(sq) / (1.0 + prob.norm_c()) == pytest.approx(
        res["dual_res"], rel=1e-6, abs=1e-12)


def test_determinism():
    prob = _random_problem(7)
    s1 = solve(prob)
    s2 = solve(prob)
    assert np.array_equal(s1.y, s2.y)
    assert s1.iterations == s2.iterations
    for a, b in zip(s1.x_blocks, s2.x_blocks):
        assert np.array_equal(a, b)


def test_primal_infeasible_certificate():
    pb = PrimalBuilder()
    blk = pb.add_block(2)
    pb.add_cost(blk, 0, 0, 1.0)
    con = pb.new_constraint(-1.0)
    pb.add_entry(con, blk, 0, 0, 1.0)
    pb.add_entry(con, blk, 1, 1, 1.0)  # trace X = -1, impossible
    prob = pb.build()
    sol = solve(prob)
    assert sol.status is SolveStatus.PRIMAL_INFEASIBLE
    # Farkas ray: b'y > 0
    assert float(sol.y @ prob.b) > 0


def test_lmi_infeasible_maps_through_interpret():
    lb = LmiBuilder(nvars=1, sense="max")
    blk = lb.add_block(-2)
    # x - 1 >= 0 and -x - 1 >= 0 cannot hold together
    lb.add_const(blk, 0, 0, -1.0)
    lb.add_term(blk, 0, 0, 0, 1.0)
    lb.add_const(blk, 1, 1, -1.0)
    lb.add_term(blk, 0, 1, 1, -1.0)
    lb.set_objective(0, 1.0)
    sol = solve(lb.build())
    assert _LMI_STATUS[sol.status] == "infeasible"


def test_lmi_unbounded_maps_through_interpret():
    lb = LmiBuilder(nvars=1, sense="max")
    blk = lb.add_block(-1)
    lb.add_const(blk, 0, 0, 1.0)
    lb.add_term(blk, 0, 0, 0, 1.0)  # 1 + x >= 0, maximize x
    lb.set_objective(0, 1.0)
    sol = solve(lb.build())
    assert _LMI_STATUS[sol.status] == "unbounded"


def test_sdpa_round_trip_exact(tmp_path):
    prob = _random_problem(11)
    path1 = tmp_path / "p1.dat-s"
    path2 = tmp_path / "p2.dat-s"
    export_sdpa(prob, path1)
    parsed = parse_sdpa(path1)
    assert parsed.block_sizes == prob.block_sizes
    assert np.array_equal(parsed.b, prob.b)
    for a, b in zip(parsed.c_blocks, prob.c_blocks):
        assert np.array_equal(a, b)
    # idempotence: writing the parsed problem reproduces the file verbatim
    export_sdpa(parsed, path2)
    assert path1.read_text() == path2.read_text()
    # and the parsed problem solves to the same value
    v1 = solve(prob).value
    v2 = solve(parsed).value
    assert v2 == pytest.approx(v1, abs=TOL)


def test_parse_sdpa_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.dat-s"
    bad.write_text("2\n2\n3\n1.0 2.0\n")  # two blocks declared, one size given
    with pytest.raises(InvalidInput):
        parse_sdpa(bad)


def test_probe_nonempty_and_empty():
    probe = feasibility_probe(elliptope_pencil(3))
    assert probe.kind == "NonEmpty"
    assert probe.point.shape == (3,)
    empty = pencil([np.diag([-1.0, -1.0]), np.diag([1.0, -1.0])])
    assert feasibility_probe(empty).kind == "Empty"


def _solution(status, primal_res, dual_res, gap_rel):
    res = {"primal_res": primal_res, "dual_res": dual_res, "gap_rel": gap_rel}
    return SdpSolution(status=status, x_blocks=[], y=np.zeros(0), s_blocks=[],
                       primal_value=0.0, dual_value=0.0, residuals=res,
                       iterations=1, hsd={})


_IN, _OUT = 0.99, 1.01  # factors just inside and just outside a threshold


@pytest.mark.parametrize("status,res,want", [
    (SolveStatus.OPTIMAL, (1.0, 1.0, 1.0), True),
    (SolveStatus.PRIMAL_INFEASIBLE, (0.0, 0.0, 0.0), False),
    (SolveStatus.DUAL_INFEASIBLE, (0.0, 0.0, 0.0), False),
] + [
    (status, res, want)
    for status in (SolveStatus.INACCURATE, SolveStatus.ITER_LIMIT)
    for res, want in [
        ((_IN * 1e-6, _IN * 1e-6, _IN * 1e-5), True),
        ((1e-6, 1e-6, 1e-5), True),
        ((_OUT * 1e-6, 0.0, 0.0), False),
        ((0.0, _OUT * 1e-6, 0.0), False),
        ((0.0, 0.0, _OUT * 1e-5), False),
    ]
])
def test_reliable_policy(status, res, want):
    sol = _solution(status, *res)
    assert sol.reliable is want
    assert sol.has_point is (status in (SolveStatus.OPTIMAL,
                                        SolveStatus.INACCURATE,
                                        SolveStatus.ITER_LIMIT))


@pytest.mark.parametrize("box", [None, 3.5])
def test_margin_lmi_slack_is_the_pencil(box):
    rng = np.random.default_rng(7)
    k, nq, cap = 3, 2, 1.5

    def symmetric():
        m = rng.normal(size=(k, k))
        m = m + m.T
        m[0, 2] = m[2, 0] = 0.0
        return m

    f0, fs = symmetric(), [symmetric() for _ in range(nq)]
    prob = _margin_lmi(f0, fs, cap, box=box)
    assert prob.block_sizes == ((k, -1) if box is None else (k, -1, -2 * nq))
    np.testing.assert_array_equal(prob.b, [0.0] * nq + [1.0])  # max s
    y, s = rng.normal(size=nq), float(rng.normal())
    slack = [c - at for c, at in zip(prob.c_blocks,
                                     prob.apply_at(np.append(y, s)))]
    want = f0 + sum(yq * fq for yq, fq in zip(y, fs)) - s * np.eye(k)
    np.testing.assert_allclose(slack[0], want, atol=1e-12)
    np.testing.assert_allclose(slack[1], [cap - s], atol=1e-12)
    if box is not None:
        rows = np.ravel([[box - yq, box + yq] for yq in y])
        np.testing.assert_allclose(slack[2], rows, atol=1e-12)


def test_problem_validation():
    with pytest.raises(InvalidInput):
        SdpProblem(block_sizes=(2,), c_blocks=[np.zeros((3, 3))],
                   a_blocks=[np.zeros((1, 4))], b=np.zeros(1))


def test_program_without_constraints_is_rejected():
    with pytest.raises(InvalidInput, match="at least one constraint"):
        SdpProblem((2,), [np.eye(2)], [sp.csr_matrix((0, 4))], np.zeros(0))


def test_parse_sdpa_rejects_a_file_without_constraints(tmp_path):
    path = tmp_path / "empty.dat-s"
    path.write_text("0\n1\n2\n{}\n0 1 1 1 1.0\n")
    with pytest.raises(InvalidInput, match="at least one constraint"):
        parse_sdpa(path)


def _schur_fixture(seed):
    """Random blocks covering every row class of the assembly plan.

    Dense block of size 6: rows empty in the block, thin rows of several
    stored-entry counts, and dense rows with r > 2s.  Plus a dense block
    with no stored entries and a diagonal block with empty rows.
    """
    rng = np.random.default_rng(seed)
    m, s = 40, 6
    dense_rows = []
    for i in range(m):
        mat = np.zeros((s, s))
        kind = i % 5
        if kind == 1:  # r up to 2s: a few mirrored positions
            for _ in range(int(rng.integers(1, 5))):
                a, b = rng.integers(0, s, size=2)
                mat[a, b] = mat[b, a] = rng.normal()
        elif kind >= 2:  # r > 2s: a full random symmetric matrix
            g = rng.normal(size=(s, s))
            mat = g + g.T
        dense_rows.append(mat.ravel())
    a_dense = sp.csr_matrix(np.array(dense_rows))
    a_empty = sp.csr_matrix((m, 9))
    diag = rng.normal(size=(m, 4)) * (rng.random((m, 4)) < 0.4)
    a_diag = sp.csr_matrix(diag)
    prob = SdpProblem((s, 3, -4), [np.zeros((s, s)), np.zeros((3, 3)), np.zeros(4)],
                      [a_dense, a_empty, a_diag], np.zeros(m))
    scal = []
    for size in prob.block_sizes:
        if size > 0:
            g = rng.normal(size=(size, size))
            scal.append({"w": g @ g.T + size * np.eye(size)})
        else:
            scal.append({"w": rng.uniform(0.5, 2.0, size=-size)})
    return prob, scal


def _schur_reference(prob, scal):
    """M_ij = sum_b <A_ib, W_b A_jb W_b> with dense matrices."""
    m = prob.m
    mat = np.zeros((m, m))
    for size, a, sc in zip(prob.block_sizes, prob.a_blocks, scal):
        w = sc["w"]
        rows = a.toarray()
        for i in range(m):
            for j in range(m):
                if size > 0:
                    ai = rows[i].reshape(size, size)
                    aj = rows[j].reshape(size, size)
                    mat[i, j] += np.sum(ai * (w @ aj @ w))
                else:
                    mat[i, j] += np.sum(rows[i] * w * w * rows[j])
    return mat


@pytest.mark.parametrize("small_chunks", [False, True])
def test_schur_plan_matches_definition(monkeypatch, small_chunks):
    if small_chunks:
        # two rows of the size-6 block per chunk
        monkeypatch.setattr(sdpcore, "_CHUNK_TARGET", 2 * 36)
    prob, scal = _schur_fixture(5)
    plan = sdpcore._schur_plan(prob)
    assert [bp.block for bp in plan] == [0, 2]  # the empty block is skipped
    counts = np.diff(prob.a_blocks[0].indptr)
    assert np.any(counts == 0) and np.any(counts > 12)
    assert np.unique(counts[(counts > 0) & (counts <= 12)]).size >= 3
    if small_chunks:
        # groups are split across chunks, and chunks span groups
        assert len(plan[0].chunks) > np.unique(counts[counts > 0]).size
        assert any(len(parts) > 1 for _, parts in plan[0].chunks)
    ref = _schur_reference(prob, scal)
    got = sdpcore._schur_matrix(prob.m, plan, scal)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def _mirrored_rows(rng, m, s, covered):
    """CSR rows of mirrored s x s matrices: rows ``covered`` get entries.

    Every third covered row is dense (r > 2s); the others hold a few
    mirrored off-diagonal pairs and diagonal entries, so the stored-entry
    counts and the off-diagonal weights vary.
    """
    rows = np.zeros((m, s * s))
    for i in covered:
        mat = np.zeros((s, s))
        if i % 3 == 0:
            g = rng.normal(size=(s, s))
            mat = g + g.T
        else:
            for _ in range(int(rng.integers(1, 4))):
                a, b = rng.choice(s, size=2, replace=False)
                mat[a, b] = mat[b, a] = rng.normal() * 10.0 ** rng.integers(-2, 3)
            d = int(rng.integers(0, s))
            mat[d, d] = rng.normal()
        rows[i] = mat.ravel()
    return sp.csr_matrix(rows)


def test_schur_fold_matches_definition(monkeypatch):
    # block 0 has entries in every row (rows added into M directly), block 1
    # in every other row (rows added through the row/column index); M is
    # symmetrized in tiles that do not divide m
    monkeypatch.setattr(sdpcore, "_SYM_TILE", 7)
    rng = np.random.default_rng(11)
    m = 30
    a0 = _mirrored_rows(rng, m, 5, range(m))
    a1 = _mirrored_rows(rng, m, 4, range(0, m, 2))
    prob = SdpProblem((5, 4), [np.zeros((5, 5)), np.zeros((4, 4))], [a0, a1],
                      np.zeros(m))
    plan = sdpcore._schur_plan(prob)
    assert plan[0].rows.size == m and 0 < plan[1].rows.size < m
    work = np.empty((m, m))
    for _ in range(2):  # the second assembly reuses the work array
        scal = []
        for size in prob.block_sizes:
            g = rng.normal(size=(size, size))
            scal.append({"w": g @ g.T + size * np.eye(size)})
        ref = _schur_reference(prob, scal)
        got = sdpcore._schur_matrix(m, plan, scal, out=work)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        np.testing.assert_array_equal(got, got.T)


def _class_scalings(prob, rng):
    """Random NT-like scalings of every class of a problem, as ``solve``
    holds them, and the same scalings split per block for the references."""
    sizes = prob.block_sizes
    by_class, by_block = [], [None] * len(sizes)
    for size, members in sdpcore._class_members(sizes):
        if size:
            g = rng.normal(size=(len(members), size, size))
            w = g @ g.transpose(0, 2, 1) + size * np.eye(size)
            for bi, wb in zip(members, w):
                by_block[bi] = {"w": wb}
        else:
            w = rng.uniform(0.5, 2.0, size=sum(abs(sizes[bi]) for bi in members))
            lo = 0
            for bi in members:
                d = abs(sizes[bi])
                part = w[lo:lo + d]
                by_block[bi] = {"w": part.reshape(1, 1) if sizes[bi] == 1 else part}
                lo += d
        by_class.append({"w": w})
    return by_class, by_block


def _assert_schur_matches(got, want):
    assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), 1e-300)
    np.testing.assert_array_equal(got, got.T)


@st.composite
def _class_ordered_problems(draw):
    """A problem whose blocks are in class order: dense classes of several
    blocks, blocks whose entries cover all, some or none of the rows, thin
    rows of several stored-entry counts and rows with r > 2s, then the
    merged diagonal class; plus a chunk target and a seed for the values."""
    m = draw(st.integers(1, 12))
    sizes = []
    for s in draw(st.lists(st.integers(2, 5), min_size=1, max_size=3, unique=True)):
        sizes += [s] * draw(st.integers(1, 3))
    sizes += draw(st.lists(st.sampled_from([-3, -2, -1, 1]), max_size=3))
    cover = draw(st.lists(st.sampled_from(["all", "some", "none"]),
                          min_size=len(sizes), max_size=len(sizes)))
    return m, sizes, cover, draw(st.integers(1, 120)), draw(st.integers(0, 2**32 - 1))


def _covered_rows(rng, m, size, cover):
    rows = {"all": range(m), "none": [],
            "some": rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False)}[cover]
    out = np.zeros((m, size * size if size > 0 else -size))
    for i in rows:
        if size < 0:
            out[i] = rng.normal(size=-size) * (rng.random(-size) < 0.6)
            continue
        mat = np.zeros((size, size))
        if rng.random() < 0.3:  # r > 2s: a full symmetric matrix
            mat = _sym(rng, size) + np.eye(size)
        else:  # a few mirrored entries: counts from 1 to about 2s
            for _ in range(int(rng.integers(1, size + 1))):
                a, b = rng.integers(0, size, size=2)
                mat[a, b] = mat[b, a] = rng.normal()
        out[i] = mat.ravel()
    return sp.csr_matrix(out)


@given(_class_ordered_problems())
def test_class_plan_matches_definition(case):
    m, sizes, cover, target, seed = case
    rng = np.random.default_rng(seed)
    a_blocks = [_covered_rows(rng, m, s, c) for s, c in zip(sizes, cover)]
    c_blocks = [np.zeros((s, s)) if s > 0 else np.zeros(-s) for s in sizes]
    prob = SdpProblem(tuple(sizes), c_blocks, a_blocks, np.zeros(m))
    by_class, by_block = _class_scalings(prob, rng)
    with pytest.MonkeyPatch.context() as mp:
        # chunks of a few pairs, so that they span blocks and count groups
        mp.setattr(sdpcore, "_CHUNK_TARGET", target)
        plan = sdpcore._schur_plan(prob)
    got = sdpcore._schur_matrix(m, plan, by_class)
    _assert_schur_matches(got, _schur_reference(prob, by_block))


def _dense_assembly(prob, by_class):
    """M from the dense path, into an array that starts as NaN."""
    rows = sdpcore._dense_rows(prob, sdpcore._class_members(prob.block_sizes))[1]
    return sdpcore._dense_schur(rows, by_class, np.full((prob.m, prob.m), np.nan))


def test_dense_assembly_matches_definition():
    # the fixture's blocks are one per class, in class order
    prob, scal = _schur_fixture(5)
    _assert_schur_matches(_dense_assembly(prob, scal), _schur_reference(prob, scal))


@given(_class_ordered_problems())
def test_dense_class_assembly_matches_definition(case):
    m, sizes, cover, _, seed = case
    rng = np.random.default_rng(seed)
    a_blocks = [_covered_rows(rng, m, s, c) for s, c in zip(sizes, cover)]
    c_blocks = [np.zeros((s, s)) if s > 0 else np.zeros(-s) for s in sizes]
    prob = SdpProblem(tuple(sizes), c_blocks, a_blocks, np.zeros(m))
    by_class, by_block = _class_scalings(prob, rng)
    _assert_schur_matches(_dense_assembly(prob, by_class), _schur_reference(prob, by_block))


def _schur_by_batched_products(prob, by_block):
    """M_ij = <A_ib, W_b A_jb W_b> summed over blocks, with W_b A_jb W_b
    formed densely for every row j in one batched product."""
    m = prob.m
    mat = np.zeros((m, m))
    for size, a, sc in zip(prob.block_sizes, prob.a_blocks, by_block):
        rows, w = a.toarray(), sc["w"]
        if size > 0:
            waw = w @ rows.reshape(m, size, size) @ w
            mat += rows @ waw.reshape(m, -1).T
        else:
            mat += (rows * (w * w)) @ rows.T
    return mat


def _ball_in_polytope():
    """A criterion-6 pair: a disk of radius 0.6 in a triangle."""
    amat = np.array([[1.0, 0.2], [-0.6, 1.1], [-0.5, -1.2]])
    return ellipsoid_pencil([0.6, 0.6]), polytope_pencil(amat, np.ones(3))


_REAL_PROGRAMS = {
    "disk-order2": lambda: containment_relaxation(*disk_pair(0.7), 2)[0],
    "random11-order2": lambda: containment_relaxation(*random_pair(11), 2)[0],
    "ball-order2": lambda: containment_relaxation(*_ball_in_polytope(), 2)[0],
    "gram10-order1": lambda: sos_relaxation(*random_pair(10), 1)[0],
    "probe-lmi": lambda: _probe_lmi(),
}


@pytest.mark.parametrize("name", sorted(_REAL_PROGRAMS))
def test_schur_matrix_matches_batched_definition(name):
    prob = _REAL_PROGRAMS[name]()
    by_class, by_block = _class_scalings(prob, np.random.default_rng(3))
    want = _schur_by_batched_products(prob, by_block)
    _assert_schur_matches(sdpcore._schur_matrix(prob.m, sdpcore._schur_plan(prob), by_class),
                          want)


def test_class_chunks_span_blocks_and_count_groups(monkeypatch):
    prob = _REAL_PROGRAMS["random11-order2"]()
    assert prob.m == 109
    monkeypatch.setattr(sdpcore, "_CHUNK_TARGET", 40 * 144)
    plan = sdpcore._schur_plan(prob)
    chunks = [chunk for cp in plan if cp.sub_dense is None for chunk in cp.chunks]
    assert any(gather.slot is not None for gather, _ in chunks)
    assert any(len(parts) > 1 for _, parts in chunks)
    by_class, by_block = _class_scalings(prob, np.random.default_rng(4))
    _assert_schur_matches(sdpcore._schur_matrix(prob.m, plan, by_class),
                          _schur_by_batched_products(prob, by_block))


@pytest.mark.parametrize("make", [
    lambda: sos_relaxation(*random_pair(10), 1)[0],
    lambda: containment_relaxation(*random_pair(15), 3)[0],
], ids=["gram10-order1", "random15-order3"])
def test_schur_plan_buffers_stay_within_the_chunk_target(make):
    prob = make()
    plan = sdpcore._schur_plan(prob)
    dense = [cp for cp in plan if cp.sub_dense is None]
    assert len(dense) > 1
    # the dense classes share one chunk buffer and one gather buffer
    assert all(cp.u is dense[0].u and cp.g is dense[0].g for cp in dense)
    pair = max(s * s for s in prob.block_sizes)
    assert dense[0].u.size <= max(sdpcore._CHUNK_TARGET, pair)
    assert dense[0].g.size <= max(sdpcore._CHUNK_TARGET, pair)
    for cp in dense:
        s = int(np.sqrt(cp.tri_pos[-1] + 1))
        cap = max(1, sdpcore._CHUNK_TARGET // (s * s))
        for gather, _ in cp.chunks:
            assert gather.n * s * s <= dense[0].u.size
            # a gather holds no more triangles than a chunk of products
            slots = gather.tri.shape[1] // cp.tri_pos.size
            assert slots * gather.out.size <= cap or gather.n == 1


def test_dense_path_stays_within_a_plan_chunk():
    # the dense A and its stack of products W A_i W, m times the iterate
    # length floats each, hold no more than one chunk buffer of the plan
    assert sdpcore._DENSE_FLOATS <= sdpcore._CHUNK_TARGET


def _sym(rng, n):
    g = rng.normal(size=(n, n))
    return (g + g.T) / 2.0


def _pd(rng, n, floor):
    g = rng.normal(size=(n, n))
    return g @ g.T + floor * np.eye(n)


def _cholesky_step(p, d):
    """Reference step to the boundary of P + alpha D: -1/lam_min(L^-1 D L^-T)."""
    l = np.linalg.cholesky(p)
    u = sla.solve_triangular(l, sla.solve_triangular(l, d, lower=True).T,
                             lower=True)
    lam_min = np.linalg.eigvalsh((u + u.T) / 2.0)[0]
    return -1.0 / lam_min if lam_min < 0 else np.inf


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_scaled_step_matches_cholesky_reference(seed):
    rng = np.random.default_rng(seed)
    n = 6
    op = sdpcore._DenseBlock(n)
    x, s = _pd(rng, n, 1.0), _pd(rng, n, 0.1)
    sc = op.nt_scaling(x, s)
    psd = _pd(rng, n, 1.0)  # no boundary along it
    for _ in range(3):
        d = _sym(rng, n)
        # each side alone, the other moving along a psd direction
        got_x = op.frame_step(sc, d, psd)[1]
        got_s = op.frame_step(sc, psd, d)[1]
        assert got_x == pytest.approx(_cholesky_step(x, d), rel=1e-10)
        assert got_s == pytest.approx(_cholesky_step(s, d), rel=1e-10)
        both = op.frame_step(sc, d, -d)[1]
        assert both == pytest.approx(
            min(_cholesky_step(x, d), _cholesky_step(s, -d)), rel=1e-10)
    assert op.frame_step(sc, psd, psd)[1] == np.inf
    # R lam^-1 R' is S^-1: the corrector with a zero predictor term
    sinv = op.corrector(sc, np.zeros((2, n, n)), 1.0)
    np.testing.assert_allclose(sinv, np.linalg.inv(s), rtol=0,
                               atol=1e-10 * np.max(np.abs(np.linalg.inv(s))))

    diag = sdpcore._DiagBlock(n)
    xd, sd = rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, n)
    dd = rng.normal(size=n)
    scd = diag.nt_scaling(xd, sd)
    assert diag.frame_step(scd, dd, np.ones(n))[1] == pytest.approx(
        -1.0 / np.min(dd / xd), rel=1e-12)
    assert diag.frame_step(scd, np.ones(n), np.ones(n))[1] == np.inf
    np.testing.assert_allclose(diag.corrector(scd, np.zeros((2, n)), 1.0), 1.0 / sd,
                               rtol=1e-12)


def _rel_close(got, want, rel=1e-12):
    scale = max(float(np.max(np.abs(want))), 1e-300)
    return float(np.max(np.abs(got - want))) <= rel * scale


@pytest.mark.parametrize("nb", [1, 3])
@pytest.mark.parametrize("n", [1, 4, 7])
def test_stacked_ops_match_per_block_ops(nb, n):
    rng = np.random.default_rng(10 * nb + n)
    op = sdpcore._DenseBlock(n)
    x = np.stack([_pd(rng, n, 1.0) for _ in range(nb)])
    s = np.stack([_pd(rng, n, 0.1) for _ in range(nb)])
    dx = np.stack([_sym(rng, n) for _ in range(nb)])
    ds = np.stack([_sym(rng, n) for _ in range(nb)])
    sc = op.nt_scaling(x, s)
    hat, step = op.frame_step(sc, dx, ds)
    corr = op.corrector(sc, hat, 0.7)
    cong = op.congruence(sc["w"], dx)
    steps = []
    for i in range(nb):
        sci = op.nt_scaling(x[i], s[i])
        assert _rel_close(sc["w"][i], sci["w"])
        assert _rel_close(sc["lam"][i], sci["lam"])
        hat_i, step_i = op.frame_step(sci, dx[i], ds[i])
        assert _rel_close(hat[:, i], hat_i)
        assert _rel_close(corr[i], op.corrector(sci, hat_i, 0.7))
        assert _rel_close(cong[i], op.congruence(sci["w"], dx[i]))
        steps.append(step_i)
    assert step == pytest.approx(min(steps), rel=1e-12)

    # diagonal blocks merged into one class act as the blocks one by one
    sizes = (2, 3)
    xd, sd = rng.uniform(0.5, 2.0, 5), rng.uniform(0.5, 2.0, 5)
    dxd, dsd = rng.normal(size=5), rng.normal(size=5)
    merged = sdpcore._DiagBlock(5)
    scd = merged.nt_scaling(xd, sd)
    hatd, stepd = merged.frame_step(scd, dxd, dsd)
    corrd = merged.corrector(scd, hatd, 0.7)
    lo, parts = 0, []
    for size in sizes:
        part = sdpcore._DiagBlock(size)
        cut = slice(lo, lo + size)
        sci = part.nt_scaling(xd[cut], sd[cut])
        hat_i, step_i = part.frame_step(sci, dxd[cut], dsd[cut])
        np.testing.assert_array_equal(hatd[:, cut], hat_i)
        np.testing.assert_array_equal(corrd[cut], part.corrector(sci, hat_i, 0.7))
        parts.append(step_i)
        lo += size
    assert stepd == min(parts)


def test_chol_with_jitter_factors_a_singular_psd_matrix():
    v = np.array([1.0, 2.0, -1.0])
    mat = np.outer(v, v)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(mat)
    low = sdpcore._chol_with_jitter(mat)
    # the first jitter is 1e-13 of the largest diagonal entry, 4
    np.testing.assert_allclose(low @ low.T, mat + 4e-13 * np.eye(3), rtol=0,
                               atol=1e-12)
    with pytest.raises(np.linalg.LinAlgError):
        sdpcore._chol_with_jitter(-np.eye(3))


@pytest.mark.parametrize("side", ["x", "s"])
def test_nt_scaling_rejects_an_iterate_outside_the_cone(side):
    # "iterate left the cone interior" rests on these errors
    rng = np.random.default_rng(3)
    op = sdpcore._DenseBlock(4)
    x = np.stack([_pd(rng, 4, 1.0) for _ in range(3)])
    s = np.stack([_pd(rng, 4, 1.0) for _ in range(3)])
    bad = x if side == "x" else s
    bad[1] = -bad[1]
    with pytest.raises(np.linalg.LinAlgError):
        op.nt_scaling(x, s)

    diag = sdpcore._DiagBlock(5)
    xd, sd = rng.uniform(0.5, 2.0, 5), rng.uniform(0.5, 2.0, 5)
    (xd if side == "x" else sd)[2] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        diag.nt_scaling(xd, sd)


def _permuted(prob, perm):
    return SdpProblem(tuple(prob.block_sizes[i] for i in perm),
                      [prob.c_blocks[i] for i in perm],
                      [prob.a_blocks[i] for i in perm], prob.b)


def test_block_order_round_trip():
    sizes = (3, -2, 5, 3, -1, 5)
    prob = _random_problem(21, blocks=sizes, m=30)
    sol = solve(prob)
    assert sol.status is SolveStatus.OPTIMAL
    shapes = [(s, s) if s > 0 else (-s,) for s in sizes]
    assert [xb.shape for xb in sol.x_blocks] == shapes
    assert [sb.shape for sb in sol.s_blocks] == shapes
    # each returned block pairs with its own constraint and objective block
    res = compute_residuals(prob, sol.x_blocks, sol.y, sol.s_blocks)
    assert max(res["primal_res"], res["dual_res"], res["gap_rel"]) <= 1e-8
    for size, xb, sb in zip(sizes, sol.x_blocks, sol.s_blocks):
        if size > 0:
            assert np.linalg.eigvalsh(xb)[0] > 0 and np.linalg.eigvalsh(sb)[0] > 0
        else:
            assert np.all(xb > 0) and np.all(sb > 0)
    perm = [4, 2, 0, 5, 1, 3]
    again = solve(_permuted(prob, perm))
    assert again.status is SolveStatus.OPTIMAL
    assert again.value == pytest.approx(sol.value, rel=1e-9, abs=1e-9)


def _as_unit_blocks(prob):
    """The problem with every diagonal block written as 1 x 1 dense blocks."""
    sizes, c_blocks, a_blocks = [], [], []
    for size, c, a in zip(prob.block_sizes, prob.c_blocks, prob.a_blocks):
        if size > 0:
            sizes.append(size)
            c_blocks.append(c)
            a_blocks.append(a)
            continue
        for j in range(-size):
            sizes.append(1)
            c_blocks.append(c[j:j + 1, None])
            a_blocks.append(a[:, [j]])
    return SdpProblem(tuple(sizes), c_blocks, a_blocks, prob.b, prob.metadata)


@pytest.mark.parametrize("make", [
    lambda: _random_problem(3, blocks=(-3, 2, -2), m=24),
    lambda: _probe_lmi(),
], ids=["random", "probe-lmi"])
def test_unit_dense_blocks_solve_as_diagonal_entries(make):
    prob = make()
    unit = _as_unit_blocks(prob)
    assert 1 in unit.block_sizes and all(s > 0 for s in unit.block_sizes)
    want, got = solve(prob), solve(unit)
    assert got.status is want.status is SolveStatus.OPTIMAL
    assert got.iterations == want.iterations
    assert got.value == pytest.approx(want.value, rel=1e-12, abs=1e-12)


def _probe_lmi():
    a, _ = random_pair(1)
    return _margin_lmi(a.coeffs[0].mat, [c.mat for c in a.coeffs[1:]], 1.0, box=1e4)


_CORPUS = {
    **{f"random-{seed}": (lambda seed=seed, blocks=blocks:
                          _random_problem(seed, blocks=blocks, m=24))
       for seed, blocks in [(0, (3, -2)), (1, (4, 4, 4)), (2, (3, -2, 5, 3, -1, 5)),
                            (3, (-3, 2, -2)), (4, (1, 1, 6))]},
    "diag-lmi": lambda: _max_t_below_diag([3.0, 1.0, 2.0])[1],
    "probe-lmi": _probe_lmi,
    "moment-order2": lambda: containment_relaxation(*disk_pair(0.7), 2)[0],
    "gram-order1": lambda: sos_relaxation(*random_pair(1), 1)[0],
}


@pytest.mark.parametrize("name", sorted(_CORPUS))
def test_optimal_means_recomputed_residuals_pass(name):
    prob = _CORPUS[name]()
    sol = solve(prob)
    assert sol.status is SolveStatus.OPTIMAL
    res = compute_residuals(prob, sol.x_blocks, sol.y, sol.s_blocks)
    assert max(res["primal_res"], res["dual_res"], res["gap_rel"]) <= 1e-8


@pytest.mark.parametrize("name", sorted(_CORPUS))
def test_returned_dense_blocks_are_exactly_symmetric(name):
    sol = solve(_CORPUS[name]())
    for blk in sol.x_blocks + sol.s_blocks:
        if blk.ndim == 2:
            assert np.array_equal(blk, blk.T)


def _margin_lmi_by_terms(f0, fs, cap, box=None, metadata=None):
    """The margin LMI assembled one LmiBuilder term per nonzero entry."""
    nq = len(fs)
    k = f0.shape[0]
    builder = LmiBuilder(nvars=nq + 1, sense="max")
    blk = builder.add_block(k)
    for i, j in zip(*np.nonzero(np.triu(f0))):
        builder.add_const(blk, i, j, f0[i, j])
    for q, fq in enumerate(fs):
        for i, j in zip(*np.nonzero(np.triu(fq))):
            builder.add_term(blk, q, i, j, fq[i, j])
    for i in range(k):
        builder.add_term(blk, nq, i, i, -1.0)
    capblk = builder.add_block(-1)
    builder.add_const(capblk, 0, 0, cap)
    builder.add_term(capblk, nq, 0, 0, -1.0)
    if box is not None and nq > 0:
        boxblk = builder.add_block(-(2 * nq))
        for q in range(nq):
            builder.add_const(boxblk, 2 * q, 2 * q, box)
            builder.add_term(boxblk, q, 2 * q, 2 * q, -1.0)
            builder.add_const(boxblk, 2 * q + 1, 2 * q + 1, box)
            builder.add_term(boxblk, q, 2 * q + 1, 2 * q + 1, 1.0)
    builder.set_objective(nq, 1.0)
    return builder.build(metadata=metadata)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("k,nq,box", [(3, 2, None), (3, 2, 1e4), (3, 0, None),
                                      (3, 0, 2.0), (20, 12, None), (20, 12, 1.0)])
def test_margin_lmi_matches_term_assembly(k, nq, box):
    rng = np.random.default_rng(100 * k + nq)

    def symmetric():
        m = rng.normal(size=(k, k))
        m = m + m.T
        zero = rng.random((k, k)) < 0.3  # zero coefficient entries
        m[zero | zero.T] = 0.0
        return m

    f0 = symmetric()
    fs = [symmetric() for _ in range(nq)]
    if nq:
        fs[0] = np.zeros((k, k))  # a coefficient with no entries at all
    meta = {"origin": "test"}
    got = _margin_lmi(f0, fs, 1.5, box=box, metadata=meta)
    want = _margin_lmi_by_terms(f0, fs, 1.5, box=box, metadata=meta)
    assert got.block_sizes == want.block_sizes
    assert got.metadata == want.metadata
    assert _same_bits(got.b, want.b)
    for cg, cw in zip(got.c_blocks, want.c_blocks):
        assert _same_bits(cg, cw)
    for ag, aw in zip(got.a_blocks, want.a_blocks):
        assert ag.shape == aw.shape
        for part in ("indptr", "indices", "data"):
            assert _same_bits(getattr(ag, part), getattr(aw, part))


def _coo_reference(m, size, row, i, j, val):
    """The CSR rows of one block built by scipy's COO conversion, with its
    own index types: the entries mirrored off the diagonal, row 0 (C)
    dropped, duplicates summed."""
    row, i, j, val = (np.asarray(v) for v in (row, i, j, val))
    off = (i != j) if size > 0 else np.zeros(i.size, dtype=bool)
    col = i * size + j if size > 0 else i
    row = np.concatenate((row, row[off]))
    col = np.concatenate((col, j[off] * size + i[off]))
    val = np.concatenate((val, val[off]))
    body = row > 0
    veclen = size * size if size > 0 else -size
    return sp.coo_matrix((val[body], (row[body] - 1, col[body])),
                         shape=(m, veclen)).tocsr()


@pytest.mark.parametrize("build", [
    lambda: containment_relaxation(*disk_pair(0.7), 2),
    lambda: sos_relaxation(*random_pair(10), 1)],
    ids=["moment_disk_0.7", "gram_random_pair_10"])
def test_block_rows_match_scipy_conversion(monkeypatch, build):
    # _block_data hands scipy int32 indices; the rows it builds are those of
    # scipy's own conversion, whatever their index type
    calls = []
    real = momrelax._block_data

    def recorded(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    monkeypatch.setattr(momrelax, "_block_data", recorded)
    build()
    assert len(calls) > 1
    for args, (_, got) in calls:
        want = _coo_reference(*args)
        assert got.shape == want.shape
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, part), getattr(want, part))


# ---------------------------------------------------------------------------
# Every exit of solve: a status, its reason and recomputed residuals


def _stalling_problem():
    """The order-2 circumradius program of the half-line x >= -1: its
    supremum is +inf, and the solve stalls instead of certifying that."""
    halfline = as_terms({(0,): np.diag([1.0, 1.0]), (1,): np.diag([1.0, 0.0])}, 2)
    problem, _, _ = build_pmi_relaxation(as_terms({(2,): 1.0}), [halfline], 2,
                                         sense="max")
    return problem


def _no_factor(mat):
    raise np.linalg.LinAlgError("Schur complement factorization failed")


def _nan_factor(mat):
    return np.full_like(mat, np.nan)


def _no_plan(problem):
    raise AssertionError("the Schur plan should not be built")


def _no_dense(problem, members):
    raise AssertionError("A should not be made dense")


def _force_path(mp, path):
    """Make solve take the dense or the plan path, and fail on the other."""
    if path == "dense":
        mp.setattr(sdpcore, "_DENSE_FLOATS", float("inf"))
        mp.setattr(sdpcore, "_schur_plan", _no_plan)
    else:
        mp.setattr(sdpcore, "_DENSE_FLOATS", 0)
        mp.setattr(sdpcore, "_dense_rows", _no_dense)


_EXITS = [
    (None, SolveStatus.INACCURATE, "progress stalled", None),
    # steps go half again past the cone boundary
    (("_STEP_FRAC", 1.5), SolveStatus.INACCURATE, "iterate left the cone interior",
     None),
    (("_STEP_FRAC", 1e-12), SolveStatus.INACCURATE, "step length collapsed", 1),
    (("_chol_with_jitter", _no_factor), SolveStatus.INACCURATE,
     "Schur factorization failed at iteration 1", 1),
    (("_chol_with_jitter", _nan_factor), SolveStatus.INACCURATE,
     "degenerate reduced system at iteration 1", 1),
    (("_MAX_CONSTRAINTS", 5), SolveStatus.INACCURATE,
     "constraint count 6 exceeds the dense Schur limit of 5", 0),
    (("_MAX_ITER", 3), SolveStatus.ITER_LIMIT, "no convergence within 3 iterations", 3),
]
_EXIT_IDS = ["stall", "cone", "collapse", "schur", "reduced", "oversize", "iterlimit"]


# the plain ids are the dense path, which these small programs take unforced
@pytest.mark.parametrize("patch, status, reason, iterations, path", [
    pytest.param(*case, path, id=name if path == "dense" else f"{name}-plan")
    for name, case in zip(_EXIT_IDS, _EXITS) for path in ("dense", "plan")])
def test_every_exit_returns_the_best_iterate(monkeypatch, patch, status, reason,
                                             iterations, path):
    _force_path(monkeypatch, path)
    if patch is None:
        prob = _stalling_problem()
    else:
        prob = _random_problem(0)
        monkeypatch.setattr(sdpcore, *patch)
    sol = solve(prob)
    assert sol.status is status
    assert sol.message == f"{reason}; returning best iterate"
    if iterations is not None:
        assert sol.iterations == iterations
    assert sol.residuals == compute_residuals(prob, sol.x_blocks, sol.y, sol.s_blocks)
    assert sol.value == pytest.approx(0.5 * (sol.residuals["primal_obj"]
                                             + sol.residuals["dual_obj"]))
    assert not sol.reliable


def test_oversize_returns_the_start_point_before_any_schur_work(monkeypatch):
    prob = _random_problem(0)
    monkeypatch.setattr(sdpcore, "_MAX_CONSTRAINTS", prob.m - 1)
    monkeypatch.setattr(sdpcore, "_schur_plan", _no_plan)
    monkeypatch.setattr(sdpcore, "_dense_rows", _no_dense)
    # below and above the dense limit
    for dense_floats in (sdpcore._DENSE_FLOATS, 0):
        monkeypatch.setattr(sdpcore, "_DENSE_FLOATS", dense_floats)
        sol = solve(prob)
        # the start point X = S = I, y = 0, de-scaled
        sigma_b, sigma_c = max(1.0, prob.norm_b()), max(1.0, prob.norm_c())
        assert np.array_equal(sol.x_blocks[0], sigma_b * np.eye(3))
        assert np.array_equal(sol.x_blocks[1], sigma_b * np.ones(2))
        assert np.array_equal(sol.s_blocks[0], sigma_c * np.eye(3))
        assert np.array_equal(sol.y, np.zeros(prob.m))


_real_plan = sdpcore._schur_plan


def test_dense_path_selection_follows_size(monkeypatch):
    prob = _random_problem(0)
    floats = prob.m * sum(sdpcore._block_veclen(s) for s in prob.block_sizes)
    # at the limit: A dense, no plan
    monkeypatch.setattr(sdpcore, "_DENSE_FLOATS", floats)
    monkeypatch.setattr(sdpcore, "_schur_plan", _no_plan)
    dense = solve(prob)
    assert dense.status is SolveStatus.OPTIMAL
    # one float over it: the plan, and A kept sparse
    planned = []
    monkeypatch.setattr(sdpcore, "_DENSE_FLOATS", floats - 1)
    monkeypatch.setattr(sdpcore, "_schur_plan",
                        lambda problem: planned.append(problem) or _real_plan(problem))
    monkeypatch.setattr(sdpcore, "_dense_rows", _no_dense)
    sol = solve(prob)
    assert planned == [prob]
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.value == pytest.approx(dense.value, rel=1e-7)


def test_dense_and_plan_paths_agree(monkeypatch):
    pairs = [random_pair(seed) for seed in range(1, 31)]
    runs = [lambda a=a, b=b: solve(sos_relaxation(a, b, 0)[0]) for a, b in pairs]
    runs += [lambda p=p: circumradius_sq(p).solution for pair in pairs for p in pair]
    runs += [lambda nu=nu: solve(containment_relaxation(*disk_pair(nu / 10), 2)[0])
             for nu in range(5, 14)]
    for run in runs:
        sols = []
        for path in ("dense", "plan"):
            with monkeypatch.context() as mp:
                _force_path(mp, path)
                sols.append(run())
        dense, plan = sols
        assert dense.status is plan.status
        assert dense.reliable == plan.reliable
        if plan.reliable:
            assert abs(dense.value - plan.value) <= 1e-7 * (1.0 + abs(plan.value))


def test_probe_is_unknown_when_the_solve_is_oversize(monkeypatch):
    monkeypatch.setattr(sdpcore, "_MAX_CONSTRAINTS", 0)
    probe = feasibility_probe(elliptope_pencil(3))
    assert probe.kind == "Unknown"
    assert probe.details["status"] == "Inaccurate"
