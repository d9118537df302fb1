"""Block-structured semidefinite programming core.

Canonical form used throughout the package:

    primal:  min <C, X>   s.t.  <A_i, X> = b_i (i = 1..m),  X psd
    dual:    max b' y     s.t.  sum_i y_i A_i + S = C,      S psd

with X block diagonal.  Positive block sizes are dense symmetric blocks,
negative sizes are diagonal (componentwise nonnegative) blocks.

The solver is a Mehrotra-style predictor-corrector interior-point method on
the homogeneous self-dual embedding, with Nesterov-Todd scaling for the
semidefinite blocks.  The embedding makes infeasibility detectable: a
vanishing homogenizing variable with positive duality-gap slack yields an
improving-ray certificate for one of the two sides.

Each iteration assembles the Schur complement M_ij = sum_b <A_ib, W_b A_jb W_b>
for the NT scalings W_b.  The sparsity pattern does not change during a
solve, so the assembly plan is built once per solve, before the first
iteration.  Per block it keeps only the constraint rows with stored entries
there, sorts them by their stored-entry count r and cuts them into chunks of
at most ``_CHUNK_TARGET`` floats of vec(W A_i W) (at least one row).  Within
a chunk, the rows of each count r are done in one batched numpy call: the
thin product (W[:, p] * v) @ W[q, :] over the stored entries for r <= 2s,
the full congruence W A_i W for denser rows.  The A_i are symmetric, so
W A_i W is too, and <A_j, W A_i W> needs only its upper triangle: the plan
also keeps each dense block's rows folded onto the s(s+1)/2 positions
p <= q (weight a_pq + a_qp off the diagonal), and one sparse product of
those folded rows with a C-ordered gather of the chunk's triangle gives the
chunk's rows of M.  A block whose rows cover all m constraints adds them
into M directly.  Diagonal blocks use A diag(w)^2 A' on their rows.
Memory: the plan holds the rows with stored entries twice (as given and
folded) plus two indices per thin-row entry, and one chunk buffer (at most
``_CHUNK_TARGET`` floats, or s^2 for a single row) with its triangle
gather (about half that), which the dense blocks share.  The solve holds M
itself; it and the buffers are allocated once and overwritten by every
assembly, and M is symmetrized in place in tiles.  Besides those, an
assembly makes the product of the folded rows with one gather and
thin-product operands of at most 6 * ``_CHUNK_TARGET`` floats (at r = 2s).

Step lengths and the corrector work in the NT frame.  With W = R R' the
scaling gives R^-1 X R^-T = R' S R = lam, a diagonal.  A direction maps to
dX^ = R^-1 dX R^-T and dS^ = R' dS R, and the largest step that keeps a
side psd is -1 / lam_min(lam^-1/2 d^ lam^-1/2), so no factor of X or S
is solved against.  The predictor's dX^ and dS^ serve both its step
length and the corrector's second-order term, and S^-1 = R lam^-1 R'.
The Schur factor is used as the F-ordered upper factor that LAPACK's
solver reads without a copy.

Problems whose natural variables sit on the dual side (one free variable per
monomial or subspace coordinate, constrained by a linear matrix inequality)
are assembled through :class:`LmiBuilder`; the margin LMI shared by the
interior probe, the block certificate and the boundedness searches comes
from ``_margin_lmi``.  Whether a returned iterate may be used is decided in
one place, :attr:`SdpSolution.reliable`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .errors import InvalidInput, NumericalFailure
from .pencil import LinearPencil
from .symcore import min_eigenvalue

# solve's fixed settings, described in its docstring
_TOL_GAP = 1e-8
_TOL_FEAS = 1e-8
_MAX_ITER = 200
_STEP_FRAC = 0.98

# Dense Schur complements beyond this constraint count do not fit the
# desk-scale memory budget this solver is designed for.
_MAX_CONSTRAINTS = 8000

# Floats of vec(W A_i W) per Schur assembly chunk: 2 MB, so the chunk and
# the transposed copy the sparse product makes of it stay in cache.
_CHUNK_TARGET = 250_000

# Side of the tiles the Schur matrix is symmetrized in: 115 KB, below
# glibc's default 128 KB mmap threshold, so no tile is mapped afresh.
_SYM_TILE = 120


class SolveStatus(Enum):
    OPTIMAL = "Optimal"
    PRIMAL_INFEASIBLE = "PrimalInfeasible"
    DUAL_INFEASIBLE = "DualInfeasible"
    INACCURATE = "Inaccurate"
    ITER_LIMIT = "IterLimit"


# ---------------------------------------------------------------------------
# Problem container


def _block_veclen(size: int) -> int:
    return size * size if size > 0 else -size


@dataclass
class SdpProblem:
    """Canonical block SDP data.

    ``a_blocks[bi]`` is a CSR matrix of shape (m, s*s) for a dense block of
    size s (rows are fully mirrored vectorized constraint matrices) or
    (m, d) for a diagonal block of size d.  ``c_blocks[bi]`` is the dense
    (s, s) objective matrix, respectively a length-d vector.  ``sense`` is
    the direction of the primal objective.
    """

    block_sizes: tuple
    c_blocks: list
    a_blocks: list
    b: np.ndarray
    sense: str = "min"
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.block_sizes = tuple(int(s) for s in self.block_sizes)
        if not self.block_sizes:
            raise InvalidInput("problem needs at least one block")
        if any(s == 0 for s in self.block_sizes):
            raise InvalidInput("block sizes must be nonzero")
        if self.sense not in ("min", "max"):
            raise InvalidInput("sense must be 'min' or 'max'")
        self.b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if self.b.ndim != 1:
            raise InvalidInput("right-hand side must be a vector")
        if not np.all(np.isfinite(self.b)):
            raise InvalidInput("right-hand side has non-finite entries")
        m = self.b.size
        if len(self.c_blocks) != len(self.block_sizes):
            raise InvalidInput("one objective block per cone block required")
        if len(self.a_blocks) != len(self.block_sizes):
            raise InvalidInput("one constraint block per cone block required")
        cleaned_c = []
        cleaned_a = []
        for size, c, a in zip(self.block_sizes, self.c_blocks, self.a_blocks):
            c = np.asarray(c, dtype=float)
            if size > 0:
                if c.shape != (size, size):
                    raise InvalidInput(f"objective block must be {size} x {size}")
                c = (c + c.T) / 2.0
            else:
                if c.shape != (-size,):
                    raise InvalidInput(f"diagonal objective block must have length {-size}")
            if not np.all(np.isfinite(c)):
                raise InvalidInput("objective has non-finite entries")
            a = sp.csr_matrix(a)
            if a.shape != (m, _block_veclen(size)):
                raise InvalidInput(
                    f"constraint block shape {a.shape} does not match "
                    f"(m={m}, veclen={_block_veclen(size)})")
            if a.nnz and not np.all(np.isfinite(a.data)):
                raise InvalidInput("constraints have non-finite entries")
            cleaned_c.append(c)
            cleaned_a.append(a)
        self.c_blocks = cleaned_c
        self.a_blocks = cleaned_a

    @property
    def m(self) -> int:
        return self.b.size

    @property
    def cone_dim(self) -> int:
        return sum(s if s > 0 else -s for s in self.block_sizes)

    def norm_b(self) -> float:
        return float(np.linalg.norm(self.b))

    def norm_c(self) -> float:
        return float(np.sqrt(sum(float(np.sum(np.square(c))) for c in self.c_blocks)))

    def apply_a(self, x_blocks) -> np.ndarray:
        """A(X): vector of <A_i, X>."""
        out = np.zeros(self.m)
        for size, a, x in zip(self.block_sizes, self.a_blocks, x_blocks):
            out += a @ np.ravel(x)
        return out

    @cached_property
    def _a_t(self) -> list:
        """CSR transposes of the constraint blocks, built on first use."""
        return [a.T.tocsr() for a in self.a_blocks]

    def apply_at(self, y) -> list:
        """A*(y): list of blocks sum_i y_i A_{i,b}."""
        out = []
        for size, a_t in zip(self.block_sizes, self._a_t):
            v = a_t @ y
            if size > 0:
                mat = v.reshape(size, size)
                out.append((mat + mat.T) / 2.0)
            else:
                out.append(v)
        return out

    def inner_c(self, x_blocks) -> float:
        return float(sum(np.sum(c * x) for c, x in zip(self.c_blocks, x_blocks)))


@dataclass
class SdpSolution:
    """Solver output; all residuals are recomputed from the returned iterate.

    For infeasible statuses the primal/dual fields hold the normalized
    improving ray instead of a feasible point.
    """

    status: SolveStatus
    x_blocks: list
    y: np.ndarray
    s_blocks: list
    primal_value: float
    dual_value: float
    residuals: dict
    iterations: int
    hsd: dict
    message: str = ""
    metadata: dict = field(default_factory=dict)

    @property
    def value(self) -> float:
        """Midpoint of the primal and dual objective values."""
        return 0.5 * (self.primal_value + self.dual_value)

    @property
    def has_point(self) -> bool:
        """Whether the solve returned an iterate rather than an improving ray."""
        return self.status in (SolveStatus.OPTIMAL, SolveStatus.INACCURATE,
                               SolveStatus.ITER_LIMIT)

    @property
    def reliable(self) -> bool:
        """Whether the returned iterate may be used; the package's one policy.

        Optimal is reliable.  Inaccurate and IterLimit are reliable when the
        residuals recomputed from the returned iterate pass:
        max(primal_res, dual_res) <= 1e-6 and gap_rel <= 1e-5.  Both statuses
        return the best iterate seen, with residuals recomputed from scratch,
        so they are judged alike.  Infeasibility rays are never reliable.

        This is a residual test, not an error bound: it does not bound the
        distance of ``value`` from the optimal value, which also scales with
        the size of the iterate.
        """
        if self.status is SolveStatus.OPTIMAL:
            return True
        if not self.has_point:
            return False
        res = self.residuals
        return (max(res["primal_res"], res["dual_res"]) <= 1e-6
                and res["gap_rel"] <= 1e-5)


def compute_residuals(problem: SdpProblem, x_blocks, y, s_blocks) -> dict:
    """Feasibility and gap measures of an iterate, recomputed from scratch."""
    ax = problem.apply_a(x_blocks)
    primal_res = float(np.linalg.norm(ax - problem.b)) / (1.0 + problem.norm_b())
    aty = problem.apply_at(y)
    dual_sq = 0.0
    for c, at, s in zip(problem.c_blocks, aty, s_blocks):
        dual_sq += float(np.sum(np.square(at + s - c)))
    dual_res = np.sqrt(dual_sq) / (1.0 + problem.norm_c())
    pobj = problem.inner_c(x_blocks)
    dobj = float(problem.b @ y)
    gap = abs(pobj - dobj) / (1.0 + max(abs(pobj), abs(dobj)))
    return {
        "primal_res": primal_res,
        "dual_res": float(dual_res),
        "gap_rel": float(gap),
        "gap_abs": float(abs(pobj - dobj)),
        "primal_obj": pobj,
        "dual_obj": dobj,
    }


# ---------------------------------------------------------------------------
# Per-block cone arithmetic


class _DenseBlock:
    def __init__(self, size):
        self.size = size

    def identity(self):
        return np.eye(self.size)

    def inner(self, x, s):
        return float(np.sum(x * s))

    def nt_scaling(self, x, s):
        # W S W = X with W = R R'; in the NT frame R^-1 X R^-T = R' S R is
        # the diagonal lam.  From Ls' Lx = U lam V': R = Lx V lam^-1/2 and
        # R^-1 = lam^-1/2 U' Ls', both without a triangular solve.  ``frame``
        # stacks R^-1 and R', the maps of the two sides into the frame;
        # ``isqrt`` is 1 / sqrt(lam_i lam_j).
        lx = np.linalg.cholesky(x)
        ls = np.linalg.cholesky(s)
        u, sv, vt = np.linalg.svd(ls.T @ lx)
        if np.any(sv <= 0):
            raise np.linalg.LinAlgError("vanishing singular value in scaling")
        root = np.sqrt(sv)
        r = (lx @ vt.T) / root[None, :]
        rinv = (ls @ u).T / root[:, None]
        return {"r": r, "w": r @ r.T, "lam": sv,
                "frame": np.stack((rinv, r.T)),
                "isqrt": 1.0 / (root[:, None] * root[None, :])}

    def congruence(self, w, m):
        out = w @ m @ w
        return (out + out.T) / 2.0

    def to_frame(self, sc, dx, ds):
        """R^-1 dX R^-T and R' dS R, stacked: the directions in the NT frame."""
        f = sc["frame"]
        return f @ np.stack((dx, ds)) @ f.transpose(0, 2, 1)

    def max_step(self, sc, dhat):
        """Largest alpha keeping lam + alpha dhat psd on both sides (inf if
        there is no boundary): -1 / lam_min(lam^-1/2 dhat lam^-1/2)."""
        lam_min = float(np.min(np.linalg.eigvalsh(dhat * sc["isqrt"])[:, 0]))
        if lam_min >= -1e-14:
            return np.inf
        return -1.0 / lam_min

    def corrector(self, sc, dhat, target):
        """R (target lam^-1 - E) R' for the predictor's frame directions
        dhat, where lam E + E lam = dX^ dS^ + dS^ dX^; R lam^-1 R' is S^-1."""
        lam = sc["lam"]
        h = dhat[0] @ dhat[1]
        e = -(h + h.T) / (lam[:, None] + lam[None, :])
        e[np.diag_indices_from(e)] += target / lam
        out = sc["r"] @ e @ sc["r"].T
        return (out + out.T) / 2.0


class _DiagBlock:
    def __init__(self, size):
        self.size = size

    def identity(self):
        return np.ones(self.size)

    def inner(self, x, s):
        return float(np.dot(x, s))

    def nt_scaling(self, x, s):
        # here ``w`` is W itself, R = W^1/2
        if np.any(x <= 0) or np.any(s <= 0):
            raise np.linalg.LinAlgError("nonpositive diagonal entry")
        return {"w": np.sqrt(x / s), "lam": np.sqrt(x * s)}

    def congruence(self, w, m):
        return w * m * w

    def to_frame(self, sc, dx, ds):
        return np.stack((dx / sc["w"], sc["w"] * ds))

    def max_step(self, sc, dhat):
        # the ratio test: dhat / lam is dx / x and ds / s
        worst = float(np.min(dhat / sc["lam"]))
        if worst >= -1e-14:
            return np.inf
        return -1.0 / worst

    def corrector(self, sc, dhat, target):
        e = dhat[0] * dhat[1] / sc["lam"]
        return sc["w"] * (target / sc["lam"] - e)


def _block_ops(sizes):
    return [_DenseBlock(s) if s > 0 else _DiagBlock(-s) for s in sizes]


# ---------------------------------------------------------------------------
# Schur complement assembly


@dataclass
class _BlockPlan:
    """Schur assembly plan of one block with stored entries.

    ``rows`` are the constraint rows with stored entries in the block and
    ``sub`` their CSR rows.  A diagonal block keeps ``sub_t``, the transpose
    of ``sub``.  A dense block keeps ``chunks`` of (sel, parts): ``sel``
    indexes ``rows`` and each part (lo, hi, p, q, vals) covers sel[lo:hi],
    rows of one stored-entry count r.  A thin part (r <= 2s) holds the entry
    positions p, q and values; a dense part (r > 2s) has p None and holds
    the CSR rows in ``vals``.  It also keeps ``tri``, its rows folded onto
    the upper-triangle positions ``tri_pos`` (flat p*s + q, p <= q), and
    the flat chunk and gather buffers ``u`` and ``g``, which all dense
    blocks of the plan share and every assembly overwrites.
    """

    block: int
    rows: np.ndarray
    sub: sp.csr_matrix
    sub_t: sp.csr_matrix | None = None
    chunks: list = field(default_factory=list)
    tri: sp.csr_matrix | None = None
    tri_pos: np.ndarray | None = None
    u: np.ndarray | None = None
    g: np.ndarray | None = None


def _schur_plan(problem):
    """Per-block assembly plan; it depends only on the sparsity pattern."""
    plan = []
    u_len = g_len = 0  # the largest chunk and gather over the dense blocks
    for bi, (size, a) in enumerate(zip(problem.block_sizes, problem.a_blocks)):
        nnz_row = np.diff(a.indptr)
        rows = np.flatnonzero(nnz_row)
        if rows.size == 0:
            continue
        sub = a[rows]
        if size < 0:
            plan.append(_BlockPlan(bi, rows, sub, sub_t=sub.T.tocsr()))
            continue
        s = size
        counts = nnz_row[rows]
        order = np.argsort(counts, kind="stable")
        cap = max(1, _CHUNK_TARGET // (s * s))
        chunks = []
        for start in range(0, order.size, cap):
            sel = order[start:start + cap]
            r_sel = counts[sel]
            cuts = [0, *(np.flatnonzero(np.diff(r_sel)) + 1), sel.size]
            parts = []
            for lo, hi in zip(cuts[:-1], cuts[1:]):
                r = int(r_sel[lo])
                if r > 2 * s:
                    parts.append((lo, hi, None, None, sub[sel[lo:hi]]))
                    continue
                pos = sub.indptr[sel[lo:hi]][:, None] + np.arange(r)
                cols = sub.indices[pos]
                parts.append((lo, hi, cols // s, cols % s, sub.data[pos]))
            chunks.append((sel, parts))
        # fold: entries (p, q) and (q, p) add onto triangle position p <= q
        iu = np.triu_indices(s)
        tri_of = np.empty((s, s), dtype=np.intp)
        tri_of[iu] = np.arange(iu[0].size)
        tri_of[iu[1], iu[0]] = tri_of[iu]
        coo = sub.tocoo()
        tri = sp.csr_matrix((coo.data, (coo.row, tri_of.ravel()[coo.col])),
                            shape=(rows.size, iu[0].size))
        plan.append(_BlockPlan(bi, rows, sub, chunks=chunks, tri=tri,
                               tri_pos=iu[0] * s + iu[1]))
        u_len = max(u_len, min(cap, rows.size) * s * s)
        g_len = max(g_len, min(cap, rows.size) * iu[0].size)
    # one chunk buffer and one gather buffer serve the dense blocks in turn
    u, g = np.empty(u_len), np.empty(g_len)
    for bp in plan:
        if bp.tri is not None:
            bp.u, bp.g = u, g
    return plan


def _schur_matrix(m, plan, scal, out=None):
    """M_ij = sum_b <A_ib, W_b A_jb W_b>, assembled blockwise from the plan.

    ``out`` is an optional (m, m) array that receives M; the solve
    allocates it once and every assembly overwrites it.
    """
    mat = np.empty((m, m)) if out is None else out
    # Every block adds the transpose of its contribution, which the final
    # symmetrization undoes exactly; a chunk then fills rows of ``mat``
    # instead of scattering into columns.
    mat.fill(0.0)
    for bp in plan:
        w = scal[bp.block]["w"]
        rows = bp.rows
        if bp.sub_t is not None:
            prod = (bp.sub.multiply((w * w)[None, :]) @ bp.sub_t).tocoo()
            mat[rows[prod.col], rows[prod.row]] += prod.data
            continue
        s = w.shape[0]
        for sel, parts in bp.chunks:
            u = bp.u[:sel.size * s * s].reshape(sel.size, s, s)
            for lo, hi, p, q, vals in parts:
                if p is None:
                    dense = vals.toarray().reshape(hi - lo, s, s)
                    np.matmul(np.matmul(w, dense), w, out=u[lo:hi])
                else:
                    # W A_i W as thin products over the stored entries; rows
                    # are fully mirrored so this covers both triangles.
                    np.matmul((w[:, p] * vals).transpose(1, 0, 2), w[q], out=u[lo:hi])
            # W A_i W is symmetric, so its upper triangle against the folded
            # rows gives <A_j, W A_i W>; the gather is C-ordered as the
            # sparse product needs it
            g = bp.g[:bp.tri_pos.size * sel.size].reshape(-1, sel.size)
            np.take(u.reshape(sel.size, s * s).T, bp.tri_pos, axis=0, out=g,
                    mode="clip")
            contrib = (bp.tri @ g).T
            if rows.size == m:
                mat[sel] += contrib
            else:
                mat[np.ix_(rows[sel], rows)] += contrib
    _symmetrize(mat)
    return mat


def _symmetrize(a):
    """a <- (a + a') / 2 in place, one pair of tiles at a time."""
    t = _SYM_TILE
    for i in range(0, a.shape[0], t):
        for j in range(i, a.shape[0], t):
            avg = a[i:i + t, j:j + t] + a[j:j + t, i:i + t].T
            avg *= 0.5
            a[i:i + t, j:j + t] = avg
            a[j:j + t, i:i + t] = avg.T


def _chol_with_jitter(mat):
    jitter = 0.0
    scale = float(np.max(np.abs(np.diag(mat)))) or 1.0
    for attempt in range(4):
        try:
            return np.linalg.cholesky(
                mat if attempt == 0 else mat + jitter * np.eye(mat.shape[0]))
        except np.linalg.LinAlgError:
            jitter = scale * (1e-13 if attempt == 0 else jitter / scale * 100.0)
    raise np.linalg.LinAlgError("Schur complement factorization failed")


# ---------------------------------------------------------------------------
# Main solver


def solve(problem: SdpProblem) -> SdpSolution:
    """Solve the canonical problem; deterministic for identical inputs.

    Returns Optimal with a feasible primal-dual pair, an infeasibility status
    with a validated improving ray, or Inaccurate / IterLimit with the best
    iterate found.  Raises NumericalFailure only on hard breakdown.

    The settings are fixed: Optimal means a relative gap of at most
    ``_TOL_GAP`` (1e-8) and relative primal and dual residuals of at most
    ``_TOL_FEAS`` (1e-8); IterLimit comes after ``_MAX_ITER`` (200)
    iterations; each step goes ``_STEP_FRAC`` (0.98) of the way to the
    cone boundary.
    """
    if problem.m > _MAX_CONSTRAINTS:
        raise NumericalFailure(
            f"constraint count {problem.m} exceeds the dense Schur limit")
    flip = problem.sense == "max"
    c_blocks = [(-c if flip else c) for c in problem.c_blocks]
    base = SdpProblem(problem.block_sizes, c_blocks, problem.a_blocks,
                      problem.b, "min", dict(problem.metadata))
    # normalize data scales; solutions are de-scaled on exit
    sigma_b = max(1.0, base.norm_b())
    sigma_c = max(1.0, base.norm_c())
    work = SdpProblem(base.block_sizes, [c / sigma_c for c in base.c_blocks],
                      base.a_blocks, base.b / sigma_b, "min", dict(base.metadata))

    ops = _block_ops(work.block_sizes)
    plan = _schur_plan(work)
    schur_work = np.empty((work.m, work.m))
    nu = work.cone_dim + 1.0
    norm_b = work.norm_b()
    norm_c = work.norm_c()

    x = [op.identity() for op in ops]
    s = [op.identity() for op in ops]
    y = np.zeros(work.m)
    tau, kappa = 1.0, 1.0

    best = None
    best_phi = np.inf
    log = []
    start_time = time.perf_counter()

    def dehomogenize():
        xh = [xb / tau for xb in x]
        sh = [sb / tau for sb in s]
        return xh, y / tau, sh

    def finish(status, message, ray=None):
        if status in (SolveStatus.PRIMAL_INFEASIBLE, SolveStatus.DUAL_INFEASIBLE):
            xb, yv, sb, res = ray
            pv = dv = np.nan
        else:
            xb, yv, sb = dehomogenize()
            xb = [v * sigma_b for v in xb]
            yv = yv * sigma_c
            sb = [v * sigma_c for v in sb]
            res = compute_residuals(base, xb, yv, sb)
            pv, dv = res["primal_obj"], res["dual_obj"]
            if flip:
                pv, dv = -pv, -dv
        hsd = {"tau": tau, "kappa": kappa, "mu": mu, "time_s": time.perf_counter() - start_time}
        return SdpSolution(status=status, x_blocks=xb, y=yv, s_blocks=sb,
                           primal_value=pv, dual_value=dv, residuals=res,
                           iterations=it, hsd=hsd, message=message,
                           metadata=dict(problem.metadata))

    mu = 1.0
    it = 0
    stall = 0
    for it in range(1, _MAX_ITER + 1):
        # residuals of the homogeneous system
        p_res = work.apply_a(x) - work.b * tau
        aty = work.apply_at(y)
        d_res = [at + sb - cb * tau for at, sb, cb in zip(aty, s, work.c_blocks)]
        cx = work.inner_c(x)
        by = float(work.b @ y)
        g_res = -cx + by - kappa
        mu = (sum(op.inner(xb, sb) for op, xb, sb in zip(ops, x, s)) + tau * kappa) / nu

        # convergence on the de-homogenized, de-scaled iterate, so the
        # decision is made on the same residuals the caller will see
        xh, yh, sh = dehomogenize()
        xh = [v * sigma_b for v in xh]
        yh = yh * sigma_c
        sh = [v * sigma_c for v in sh]
        res = compute_residuals(base, xh, yh, sh)
        phi = max(res["primal_res"], res["dual_res"], res["gap_rel"])
        log.append({"iter": it, "mu": mu, "tau": tau, "kappa": kappa, "phi": phi})
        if phi < best_phi:
            best_phi = phi
            best = ([xb.copy() for xb in x], y.copy(), [sb.copy() for sb in s],
                    tau, kappa)
            stall = 0
        else:
            stall += 1
        if (res["primal_res"] <= _TOL_FEAS and res["dual_res"] <= _TOL_FEAS
                and res["gap_rel"] <= _TOL_GAP):
            return finish(SolveStatus.OPTIMAL, f"converged in {it} iterations")

        # infeasibility certificates from the homogeneous iterate
        if by > 0:
            ray_sq = 0.0
            for at, sb in zip(aty, s):
                ray_sq += float(np.sum(np.square(at + sb)))
            ray_res = np.sqrt(ray_sq) / by
            if ray_res <= _TOL_FEAS * (1.0 + norm_c) and tau <= 1e-6 * max(1.0, kappa):
                by_base = float(base.b @ y)
                yr = y / by_base
                sr = [sb / by_base for sb in s]
                xr = [np.zeros_like(xb) for xb in x]
                cert = {"ray_res": np.sqrt(ray_sq) / by_base, "ray_obj": 1.0,
                        "kind": "dual_improving_ray"}
                return finish(SolveStatus.PRIMAL_INFEASIBLE,
                              "primal infeasibility certified by dual ray",
                              ray=(xr, yr, sr, cert))
        if cx < 0:
            ax_norm = float(np.linalg.norm(work.apply_a(x)))
            ray_res = ax_norm / (-cx)
            if ray_res <= _TOL_FEAS * (1.0 + norm_b) and tau <= 1e-6 * max(1.0, kappa):
                cx_base = base.inner_c(x)
                xr = [xb / (-cx_base) for xb in x]
                cert = {"ray_res": ax_norm / (-cx_base), "ray_obj": -1.0,
                        "kind": "primal_improving_ray"}
                return finish(SolveStatus.DUAL_INFEASIBLE,
                              "dual infeasibility certified by primal ray",
                              ray=(xr, np.zeros(work.m), [np.zeros_like(sb) for sb in s], cert))

        if stall >= 25 or mu > 1e12:
            x, y, s, tau, kappa = best[0], best[1], best[2], best[3], best[4]
            return finish(SolveStatus.INACCURATE,
                          "progress stalled; returning best iterate")

        # NT scaling
        try:
            scal = [op.nt_scaling(xb, sb) for op, xb, sb in zip(ops, x, s)]
        except np.linalg.LinAlgError:
            x, y, s, tau, kappa = best[0], best[1], best[2], best[3], best[4]
            return finish(SolveStatus.INACCURATE,
                          "iterate left the cone interior; returning best iterate")

        try:
            schur = _schur_matrix(work.m, plan, scal, out=schur_work)
            l_schur = _chol_with_jitter(schur)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(f"Schur factorization failed at iteration {it}",
                                   report={"log": log}) from exc
        # the F-ordered upper factor L' reaches potrs without a copy; it
        # came out of a successful potrf, so only right-hand sides are checked
        factor = (l_schur.T, False)

        def schur_solve(rhs):
            return sla.cho_solve(factor, np.asarray_chkfinite(rhs), check_finite=False)

        wcw = [op.congruence(sc["w"], cb) for op, sc, cb in zip(ops, scal, work.c_blocks)]
        v_vec = work.apply_a(wcw)
        gb, gv = schur_solve(np.column_stack((work.b, v_vec))).T
        g2 = gb + gv
        # den = kappa/tau + b'M^{-1}b + (<C,WCW> - v'M^{-1}v); the bracket is a
        # squared distance to a subspace, so clamping it at zero only removes
        # roundoff-induced cancellation.
        den = (kappa / tau + float(work.b @ gb)
               + max(0.0, work.inner_c(wcw) - float(v_vec @ gv)))
        if den <= 0 or not np.isfinite(den):
            raise NumericalFailure(f"degenerate reduced system at iteration {it}",
                                   report={"log": log})

        r1 = -p_res
        r2 = d_res
        r3 = -g_res
        wr2w = [op.congruence(sc["w"], r2b) for op, sc, r2b in zip(ops, scal, r2)]

        def newton_dir(r4, r5):
            q = [a + r4b for a, r4b in zip(wr2w, r4)]
            h1 = r1 - work.apply_a(q)
            h2 = r3 + work.inner_c(q) + r5 / tau
            g1 = schur_solve(h1)
            dtau = (h2 - float((work.b - v_vec) @ g1)) / den
            dy = g1 + g2 * dtau
            at_dy = work.apply_at(dy)
            dx = []
            ds = []
            for bi, op in enumerate(ops):
                dxb = q[bi] + op.congruence(scal[bi]["w"], at_dy[bi]) - wcw[bi] * dtau
                if work.block_sizes[bi] > 0:
                    dxb = (dxb + dxb.T) / 2.0
                dx.append(dxb)
                ds.append(work.c_blocks[bi] * dtau - at_dy[bi] - r2[bi])
            dkappa = (r5 - kappa * dtau) / tau
            return dx, dy, ds, dtau, dkappa

        # predictor; its directions in the NT frame also give the corrector
        r4_aff = [-xb for xb in x]
        r5_aff = -tau * kappa
        dxa, dya, dsa, dtaua, dkappaa = newton_dir(r4_aff, r5_aff)
        hat_a = [op.to_frame(sc, dxb, dsb)
                 for op, sc, dxb, dsb in zip(ops, scal, dxa, dsa)]

        alpha_aff = 1.0
        for op, sc, hb in zip(ops, scal, hat_a):
            alpha_aff = min(alpha_aff, op.max_step(sc, hb))
        if dtaua < 0:
            alpha_aff = min(alpha_aff, -tau / dtaua)
        if dkappaa < 0:
            alpha_aff = min(alpha_aff, -kappa / dkappaa)
        alpha_aff = min(alpha_aff, 1.0)

        mu_aff = (sum(op.inner(xb + alpha_aff * dxb, sb + alpha_aff * dsb)
                      for op, xb, sb, dxb, dsb in zip(ops, x, s, dxa, dsa))
                  + (tau + alpha_aff * dtaua) * (kappa + alpha_aff * dkappaa)) / nu
        sigma = min(0.99999, max(1e-8, (max(mu_aff, 0.0) / mu) ** 3))

        # corrector in the NT frame
        r4 = [op.corrector(sc, hb, sigma * mu) - xb
              for op, sc, hb, xb in zip(ops, scal, hat_a, x)]
        r5 = sigma * mu - tau * kappa - dtaua * dkappaa

        dx, dy, ds, dtau, dkappa = newton_dir(r4, r5)

        alpha = 1.0 / _STEP_FRAC
        for op, sc, dxb, dsb in zip(ops, scal, dx, ds):
            alpha = min(alpha, op.max_step(sc, op.to_frame(sc, dxb, dsb)))
        if dtau < 0:
            alpha = min(alpha, -tau / dtau)
        if dkappa < 0:
            alpha = min(alpha, -kappa / dkappa)
        alpha = min(_STEP_FRAC * alpha, 1.0)
        if alpha < 1e-9:
            x, y, s, tau, kappa = best[0], best[1], best[2], best[3], best[4]
            return finish(SolveStatus.INACCURATE,
                          "step length collapsed; returning best iterate")

        for bi, op in enumerate(ops):
            x[bi] = x[bi] + alpha * dx[bi]
            s[bi] = s[bi] + alpha * ds[bi]
            if work.block_sizes[bi] > 0:
                x[bi] = (x[bi] + x[bi].T) / 2.0
                s[bi] = (s[bi] + s[bi].T) / 2.0
        y = y + alpha * dy
        tau += alpha * dtau
        kappa += alpha * dkappa

    x, y, s, tau, kappa = best[0], best[1], best[2], best[3], best[4]
    return finish(SolveStatus.ITER_LIMIT, f"no convergence within {_MAX_ITER} iterations")


# ---------------------------------------------------------------------------
# LMI assembly (dual-side problems)


class LmiBuilder:
    """Assembles  opt c'y + c0  s.t.  F0 + sum_q y_q F_q  psd (block diagonal).

    Internally mapped to the canonical form with the y living on the dual
    side: C = F0, A_q = -F_q, b = +-c depending on the sense.  The optimal
    value of the original problem is recovered by :meth:`value_from`.
    """

    def __init__(self, nvars: int, sense: str = "min"):
        if nvars < 1:
            raise InvalidInput("need at least one variable")
        if sense not in ("min", "max"):
            raise InvalidInput("sense must be 'min' or 'max'")
        self.nvars = nvars
        self.sense = sense
        self.offset = 0.0
        self.obj = np.zeros(nvars)
        self.block_sizes = []
        self._const = []
        self._coo = []  # per block: (rows var, i, j, val) lists

    def add_block(self, size: int) -> int:
        """New dense block (size > 0) or diagonal block (size < 0)."""
        if size == 0:
            raise InvalidInput("block size must be nonzero")
        self.block_sizes.append(size)
        if size > 0:
            self._const.append(np.zeros((size, size)))
        else:
            self._const.append(np.zeros(-size))
        self._coo.append(([], [], [], []))
        return len(self.block_sizes) - 1

    def add_const(self, block: int, i: int, j: int, val: float):
        """Add to the constant term F0; dense entries mirror automatically."""
        if self.block_sizes[block] > 0:
            self._const[block][i, j] += val
            if i != j:
                self._const[block][j, i] += val
        else:
            if i != j:
                raise InvalidInput("diagonal block entries need i == j")
            self._const[block][i] += val

    def add_term(self, block: int, var: int, i: int, j: int, val: float):
        """Add val to entry (i, j) (and (j, i)) of F_var in this block."""
        vs, is_, js_, vals = self._coo[block]
        vs.append(var)
        is_.append(i)
        js_.append(j)
        vals.append(val)

    def set_objective(self, var: int, coeff: float):
        self.obj[var] = coeff

    def add_objective(self, var: int, coeff: float):
        self.obj[var] += coeff

    def build(self, metadata=None) -> SdpProblem:
        m = self.nvars
        a_blocks = []
        c_blocks = []
        for size, const, (vs, is_, js_, vals) in zip(
                self.block_sizes, self._const, self._coo):
            veclen = _block_veclen(size)
            if size > 0:
                s = size
                rows = []
                cols = []
                data = []
                for var, i, j, val in zip(vs, is_, js_, vals):
                    rows.append(var)
                    cols.append(i * s + j)
                    data.append(-val)  # A_q = -F_q
                    if i != j:
                        rows.append(var)
                        cols.append(j * s + i)
                        data.append(-val)
                a = sp.coo_matrix((data, (rows, cols)), shape=(m, veclen)).tocsr()
                a.sum_duplicates()
            else:
                rows = list(vs)
                cols = list(is_)
                data = [-v for v in vals]
                a = sp.coo_matrix((data, (rows, cols)), shape=(m, veclen)).tocsr()
                a.sum_duplicates()
            a_blocks.append(a)
            c_blocks.append(const)
        b = self.obj if self.sense == "max" else -self.obj
        meta = dict(metadata or {})
        meta.update({"lmi_sense": self.sense, "lmi_offset": self.offset})
        return SdpProblem(tuple(self.block_sizes), c_blocks, a_blocks, b,
                          "min", meta)

    def value_from(self, solution: SdpSolution) -> float:
        """Optimal value of the original LMI problem."""
        v = solution.value
        return self.offset + v if self.sense == "max" else self.offset - v

    @staticmethod
    def interpret(solution: SdpSolution) -> str:
        """Status of the original LMI problem.

        The LMI variables live on the canonical dual side, so canonical
        dual infeasibility means the LMI has no feasible point, and
        canonical primal infeasibility means the LMI objective is unbounded.
        """
        return {
            SolveStatus.OPTIMAL: "optimal",
            SolveStatus.DUAL_INFEASIBLE: "infeasible",
            SolveStatus.PRIMAL_INFEASIBLE: "unbounded",
            SolveStatus.INACCURATE: "inaccurate",
            SolveStatus.ITER_LIMIT: "iterlimit",
        }[solution.status]


class PrimalBuilder:
    """Assembles  min <C, X>  s.t.  <A_i, X> = b_i  over block psd X.

    Entry coefficients are given on matrix positions (i, j) of a symmetric
    block; off-diagonal contributions are split over the two mirror
    positions so that <G, X> reproduces the stated functional.
    """

    def __init__(self):
        self.block_sizes = []
        self._cost = []
        self._rows = []  # per constraint: list of (block, i, j, val)
        self._rhs = []

    def add_block(self, size: int) -> int:
        if size == 0:
            raise InvalidInput("block size must be nonzero")
        self.block_sizes.append(size)
        self._cost.append(np.zeros((size, size)) if size > 0 else np.zeros(-size))
        return len(self.block_sizes) - 1

    def add_cost(self, block: int, i: int, j: int, val: float):
        c = self._cost[block]
        if self.block_sizes[block] > 0:
            if i == j:
                c[i, i] += val
            else:
                c[i, j] += val / 2.0
                c[j, i] += val / 2.0
        else:
            if i != j:
                raise InvalidInput("diagonal block entries need i == j")
            c[i] += val

    def new_constraint(self, rhs: float) -> int:
        self._rows.append([])
        self._rhs.append(float(rhs))
        return len(self._rhs) - 1

    def add_entry(self, con: int, block: int, i: int, j: int, val: float):
        self._rows[con].append((block, i, j, val))

    def build(self, metadata=None) -> SdpProblem:
        m = len(self._rhs)
        if m == 0:
            raise InvalidInput("no constraints")
        per_block = [([], [], []) for _ in self.block_sizes]
        for con, row in enumerate(self._rows):
            for block, i, j, val in row:
                rows, cols, data = per_block[block]
                size = self.block_sizes[block]
                if size > 0:
                    if i == j:
                        rows.append(con)
                        cols.append(i * size + i)
                        data.append(val)
                    else:
                        rows.append(con)
                        cols.append(i * size + j)
                        data.append(val / 2.0)
                        rows.append(con)
                        cols.append(j * size + i)
                        data.append(val / 2.0)
                else:
                    if i != j:
                        raise InvalidInput("diagonal block entries need i == j")
                    rows.append(con)
                    cols.append(i)
                    data.append(val)
        a_blocks = []
        for size, (rows, cols, data) in zip(self.block_sizes, per_block):
            a = sp.coo_matrix((data, (rows, cols)),
                              shape=(m, _block_veclen(size))).tocsr()
            a.sum_duplicates()
            a_blocks.append(a)
        return SdpProblem(tuple(self.block_sizes), list(self._cost), a_blocks,
                          np.array(self._rhs), "min", dict(metadata or {}))


def _margin_lmi(f0, fs, cap: float, box: float | None = None,
                metadata=None) -> SdpProblem:
    """The margin LMI:  max s  s.t.  F0 + sum_q y_q F_q - s I psd,  s <= cap,
    and |y_q| <= box for every q when a box is given.

    F0 and the F_q are symmetric arrays of one size; only their upper
    triangles are read.  The variables are y_0..y_{len(fs)-1}, then s, so a
    solution's ``value`` is the margin and ``y[:len(fs)]`` the point.  Blocks
    in order: the pencil, the cap, and the 2 len(fs) box rows if any.
    """
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


# ---------------------------------------------------------------------------
# Interior / emptiness probe

# feasibility_probe's fixed settings, described in its docstring
_PROBE_BOX = 1e4
_PROBE_TOL = 1e-7


@dataclass(frozen=True)
class ProbeResult:
    kind: str  # "NonEmpty" | "Empty" | "Unknown"
    point: np.ndarray | None
    margin: float | None
    value: float | None
    details: dict


def feasibility_probe(p: LinearPencil) -> ProbeResult:
    """Decide whether the spectrahedron of a pencil has an interior point.

    Maximizes the smallest eigenvalue margin s subject to A(x) - s I psd,
    s <= 1, within the coordinate box |x_p| <= ``_PROBE_BOX`` (1e4).  An
    optimum above ``_PROBE_TOL`` (1e-7) times 1 + max|A0| (and above 1e-9)
    certifies an interior point once A is re-checked positive definite
    there; a margin below -1/(2 ``_PROBE_BOX``) reports emptiness within
    the box.  Everything else is Unknown.  The box makes weakly infeasible
    pencils (empty sets at zero distance from feasibility) detectable at
    desk scale, at the price that "Empty" refers to the searched box.
    """
    n = p.n
    a0 = p.coeffs[0].mat
    prob = _margin_lmi(a0, [c.mat for c in p.coeffs[1:]], cap=1.0,
                       box=_PROBE_BOX, metadata={"origin": "feasibility_probe"})

    try:
        sol = solve(prob)
    except NumericalFailure as exc:
        return ProbeResult("Unknown", None, None, None,
                           {"error": str(exc)})
    details = {"status": sol.status.value, "residuals": sol.residuals}
    if not sol.reliable:
        return ProbeResult("Unknown", None, None, None, details)
    s_star = sol.value
    xj = sol.y[:n].copy()
    scale = 1.0 + float(np.max(np.abs(a0)))
    details["margin"] = s_star
    if s_star > max(_PROBE_TOL * scale, 1e-9):
        # confirm the candidate point
        margin = min_eigenvalue(p.evaluate(xj))
        if margin > 0:
            return ProbeResult("NonEmpty", xj, float(margin), float(s_star), details)
        return ProbeResult("Unknown", xj, float(margin), float(s_star), details)
    if s_star < -0.5 / _PROBE_BOX:
        return ProbeResult("Empty", None, None, float(s_star), details)
    return ProbeResult("Unknown", None, None, float(s_star), details)
