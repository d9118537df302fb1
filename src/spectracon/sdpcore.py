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

A solve works on one flat iterate in class order: the dense blocks grouped
by size, each size a contiguous (nb, s, s) stack, then all diagonal blocks
and 1 x 1 dense blocks merged into one.  A is one CSR matrix with its
transpose, so A(X), A*(y), <C, X> and <X, S> are one product each, and the
cone arithmetic runs once per class.  The rows of A are fully mirrored, so
A*(y) is exactly symmetric, and so is every direction and iterate built
from it and from the symmetrized congruences: none is symmetrized again.
The de-scaled residuals are the homogeneous ones, formed once per
iteration, times a scalar; Optimal also needs those compute_residuals
recomputes on exit to pass.  Late on, the Schur complement M (below) is
ill-conditioned, and a corrector that misses its primal or gap equation by
more than ``_TOL_FEAS`` of the right-hand side is refined with M's factor.

Each iteration assembles the Schur complement
M_ij = sum_b <A_ib, W_b A_jb W_b> for the NT scalings W_b, read from their
class stacks.  The sparsity pattern does not change during a solve, so the
assembly plan is built once per solve, on the class-ordered problem,
before the first iteration.  Per block it keeps only the constraint rows
with stored entries there, sorts them by their stored-entry count r and
cuts them into chunks of at most ``_CHUNK_TARGET`` floats of vec(W A_i W)
(at least one row).  Within a chunk, the rows of each count r are done in
one batched numpy call: the thin product (W[:, p] * v) @ W[q, :] over the
stored entries for r <= 2s, the full congruence W A_i W for denser rows.
The A_i are symmetric, so W A_i W is too, and <A_j, W A_i W> needs only
its upper triangle: the plan also keeps each dense block's rows folded
onto the s(s+1)/2 positions p <= q (weight a_pq + a_qp off the diagonal),
and one sparse product of those folded rows with a C-ordered gather of the
chunk's triangle gives the chunk's rows of M.  A block whose rows cover all
m constraints adds them into M directly.  The merged diagonal block adds
A diag(w)^2 A' on its rows, kept as one dense (rows, d) array.
Memory: the plan holds a dense block's rows with stored entries twice (as
given and folded) plus two indices per thin-row entry, the diagonal rows
once more as a dense array, and one chunk buffer (at most
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
potrs, called directly, reads without a copy.

Every program is assembled one block at a time from entry arrays by
``_block_data``; outside the solver and the SDPA writer, it is the only
code that knows the vectorized layout.  The moment relaxations, the Gram
programs, SDPA files and the margin LMI shared by the interior probe and
the boundedness searches (``_margin_lmi``) are built through it.  ``solve`` returns every outcome,
breakdowns included, as a status with the reason in ``message``; whether a
returned iterate may be used is decided in one place,
:attr:`SdpSolution.reliable`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpotrs

from .errors import InvalidInput
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
    (s, s) objective matrix, respectively a length-d vector.  The primal
    objective is minimized.
    """

    block_sizes: tuple
    c_blocks: list
    a_blocks: list
    b: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.block_sizes = tuple(int(s) for s in self.block_sizes)
        if not self.block_sizes:
            raise InvalidInput("problem needs at least one block")
        if any(s == 0 for s in self.block_sizes):
            raise InvalidInput("block sizes must be nonzero")
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

    def apply_at(self, y) -> list:
        """A*(y): list of blocks sum_i y_i A_{i,b}."""
        out = []
        for size, a in zip(self.block_sizes, self.a_blocks):
            v = a.T @ y
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
# Cone arithmetic, one call per class


def _t(a):
    """Transpose of the last two axes: of one matrix or of every matrix of a stack."""
    return a.swapaxes(-1, -2)


class _DenseBlock:
    """Dense psd blocks of one size: one (s, s) block or an (nb, s, s) stack."""

    def __init__(self, size):
        self.size = size

    def nt_scaling(self, x, s):
        # W S W = X with W = R R'; in the NT frame R^-1 X R^-T = R' S R is
        # the diagonal lam.  From Ls' Lx = U lam V': R = Lx V lam^-1/2 and
        # R^-1 = lam^-1/2 U' Ls', both without a triangular solve.  ``frame``
        # stacks R^-1 and R', the maps of the two sides into the frame;
        # ``isqrt`` is 1 / sqrt(lam_i lam_j).
        lx = np.linalg.cholesky(x)
        ls = np.linalg.cholesky(s)
        u, sv, vt = np.linalg.svd(_t(ls) @ lx)
        if np.any(sv <= 0):
            raise np.linalg.LinAlgError("vanishing singular value in scaling")
        root = np.sqrt(sv)
        r = (lx @ _t(vt)) / root[..., None, :]
        rinv = _t(ls @ u) / root[..., :, None]
        return {"r": r, "w": r @ _t(r), "lam": sv,
                "frame": np.stack((rinv, _t(r))),
                "isqrt": 1.0 / (root[..., :, None] * root[..., None, :])}

    def congruence(self, w, m):
        out = w @ m @ w
        return (out + _t(out)) / 2.0

    def to_frame(self, sc, dx, ds):
        """R^-1 dX R^-T and R' dS R, stacked: the directions in the NT frame."""
        f = sc["frame"]
        return f @ np.stack((dx, ds)) @ _t(f)

    def max_step(self, sc, dhat):
        """Largest alpha keeping lam + alpha dhat psd on both sides of every
        block (inf if there is no boundary): -1 / lam_min(lam^-1/2 dhat lam^-1/2)."""
        lam_min = float(np.min(np.linalg.eigvalsh(dhat * sc["isqrt"])[..., 0]))
        if lam_min >= -1e-14:
            return np.inf
        return -1.0 / lam_min

    def corrector(self, sc, dhat, target):
        """R (target lam^-1 - E) R' for the predictor's frame directions
        dhat, where lam E + E lam = dX^ dS^ + dS^ dX^; R lam^-1 R' is S^-1."""
        lam = sc["lam"]
        h = dhat[0] @ dhat[1]
        e = -(h + _t(h)) / (lam[..., :, None] + lam[..., None, :])
        diag = np.arange(self.size)
        e[..., diag, diag] += target / lam
        out = sc["r"] @ e @ _t(sc["r"])
        return (out + _t(out)) / 2.0


class _DiagBlock:
    """Componentwise nonnegative blocks: all diagonal and 1 x 1 blocks, as
    one vector."""

    def __init__(self, size):
        self.size = size

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


# ---------------------------------------------------------------------------
# Schur complement assembly


@dataclass
class _BlockPlan:
    """Schur assembly plan of one block with stored entries.

    ``rows`` are the constraint rows with stored entries in the block.  A
    diagonal block keeps ``sub_dense``, those rows as a dense (rows, d)
    array.  A dense block keeps ``chunks`` of (sel, parts): ``sel`` indexes
    ``rows`` and each part (lo, hi, p, q, vals) covers sel[lo:hi],
    rows of one stored-entry count r.  A thin part (r <= 2s) holds the entry
    positions p, q and values; a dense part (r > 2s) has p None and holds
    the CSR rows in ``vals``.  It also keeps ``tri``, its rows folded onto
    the upper-triangle positions ``tri_pos`` (flat p*s + q, p <= q), and
    the flat chunk and gather buffers ``u`` and ``g``, which all dense
    blocks of the plan share and every assembly overwrites.
    """

    block: int
    rows: np.ndarray
    sub_dense: np.ndarray | None = None
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
        if size < 0:
            plan.append(_BlockPlan(bi, rows, sub_dense=a.toarray()[rows]))
            continue
        sub = a if rows.size == a.shape[0] else a[rows]
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
        plan.append(_BlockPlan(bi, rows, chunks=chunks, tri=tri,
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
        if bp.sub_dense is not None:
            mat[np.ix_(rows, rows)] += (bp.sub_dense * (w * w)) @ bp.sub_dense.T
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
    iterate found, residuals recomputed and the reason in ``message``.  It
    raises nothing of its own: a failed Schur factorization, a degenerate
    reduced system and more than ``_MAX_CONSTRAINTS`` (8000) constraints
    are Inaccurate too, the last from the start point before any m x m work.

    The settings are fixed: Optimal means a relative gap of at most
    ``_TOL_GAP`` (1e-8) and relative primal and dual residuals of at most
    ``_TOL_FEAS`` (1e-8), both on the iterate's residuals and on the
    residuals recomputed from the returned blocks; IterLimit comes after
    ``_MAX_ITER`` (200) iterations; each step goes ``_STEP_FRAC`` (0.98) of
    the way to the cone boundary.
    """
    start_time = time.perf_counter()
    # normalize data scales; solutions are de-scaled on exit
    size_b, size_c = problem.norm_b(), problem.norm_c()
    sigma_b, sigma_c = max(1.0, size_b), max(1.0, size_c)
    norm_b_res, norm_c_res = 1.0 + size_b, 1.0 + size_c

    # class order: the dense blocks grouped by size, sizes in order of first
    # appearance, then every diagonal block and every 1 x 1 dense block (a
    # nonnegative entry), merged into one
    sizes = problem.block_sizes
    groups = {}
    for bi, size in enumerate(sizes):
        groups.setdefault(size if size > 1 else 0, []).append(bi)
    diag = groups.pop(0, [])
    dense = [bi for members in groups.values() for bi in members]
    order = dense + diag
    classes = [(_DenseBlock(size), (len(members), size, size))
               for size, members in groups.items()]
    if diag:
        d = sum(_block_veclen(sizes[bi]) for bi in diag)
        classes.append((_DiagBlock(d), (d,)))
    # the flat iterate: every class, and so every block, is a contiguous slice
    ends = np.cumsum([np.prod(shape) for _, shape in classes])
    classes = [(op, slice(end - np.prod(shape), end), shape)
               for (op, shape), end in zip(classes, ends)]
    starts = dict(zip(order, np.cumsum([0] + [_block_veclen(sizes[bi]) for bi in order])))

    m = problem.m

    def views(v):
        return [v[sl].reshape(shape) for _, sl, shape in classes]

    def per_class(fn, *parts):
        """fn(op, *items) for every class, joined into one flat vector."""
        return np.concatenate([np.ravel(fn(op, *items))
                               for (op, _, _), *items in zip(classes, *parts)])

    def blocks(v):
        """The blocks of a flat vector, in the problem's block order."""
        return [v[starts[bi]:starts[bi] + _block_veclen(size)]
                .reshape((size, size) if size > 0 else (-size,)).copy()
                for bi, size in enumerate(sizes)]

    x = np.concatenate([np.broadcast_to(np.eye(shape[-1]) if len(shape) == 3 else 1.0,
                                        shape).ravel() for _, _, shape in classes])
    s = x.copy()
    y = np.zeros(m)
    tau, kappa = 1.0, 1.0
    mu = 1.0
    it = 0

    def finish(status, message, point):
        """The answer at point: a ray (x, y, s, certificate) for the
        infeasibility statuses, else an iterate (x, y, s, tau, kappa),
        de-scaled here and with its residuals recomputed."""
        if status in (SolveStatus.PRIMAL_INFEASIBLE, SolveStatus.DUAL_INFEASIBLE):
            xf, yv, sf, res = point
            xb, sb = blocks(xf), blocks(sf)
            pv = dv = np.nan
            t, k = tau, kappa
        else:
            xf, yf, sf, t, k = point
            xb = blocks(xf / t * sigma_b)
            yv = yf / t * sigma_c
            sb = blocks(sf / t * sigma_c)
            res = compute_residuals(problem, xb, yv, sb)
            pv, dv = res["primal_obj"], res["dual_obj"]
        hsd = {"tau": t, "kappa": k, "mu": mu, "time_s": time.perf_counter() - start_time}
        return SdpSolution(status=status, x_blocks=xb, y=yv, s_blocks=sb,
                           primal_value=pv, dual_value=dv, residuals=res,
                           iterations=it, hsd=hsd, message=message,
                           metadata=dict(problem.metadata))

    # the exits without a ray or convergence return the best iterate seen
    best = (x, y, s, tau, kappa)
    best_phi = np.inf

    def give_up(status, reason):
        return finish(status, f"{reason}; returning best iterate", best)

    if m > _MAX_CONSTRAINTS:
        return give_up(SolveStatus.INACCURATE, f"constraint count {m} exceeds the "
                       f"dense Schur limit of {_MAX_CONSTRAINTS}")

    a_mat = sp.hstack([problem.a_blocks[bi] for bi in order], format="csr")
    a_t = a_mat.T.tocsr()
    b = problem.b / sigma_b
    c = np.concatenate([problem.c_blocks[bi].ravel() for bi in order]) / sigma_c
    # the plan sees the dense blocks as given, the diagonal class as one block
    plan_sizes = [sizes[bi] for bi in dense] + ([-d] if diag else [])
    plan_a = [problem.a_blocks[bi] for bi in dense] + ([a_mat[:, -d:]] if diag else [])
    plan = _schur_plan(SimpleNamespace(block_sizes=plan_sizes, a_blocks=plan_a))
    schur_work = np.empty((m, m))
    nu = problem.cone_dim + 1.0
    norm_b = float(np.linalg.norm(b))
    norm_c = float(np.linalg.norm(c))

    def converged(primal_res, dual_res, gap_rel, **_):
        return primal_res <= _TOL_FEAS and dual_res <= _TOL_FEAS and gap_rel <= _TOL_GAP

    stall = 0
    for it in range(1, _MAX_ITER + 1):
        # residuals of the homogeneous system
        ax = a_mat @ x
        p_res = ax - b * tau
        aty = a_t @ y
        d_res = aty + s - c * tau
        cx = float(c @ x)
        by = float(b @ y)
        g_res = -cx + by - kappa
        mu = (float(x @ s) + tau * kappa) / nu

        # the de-homogenized, de-scaled residuals the caller will see are
        # the homogeneous ones times a scalar
        primal_res = sigma_b / tau * float(np.linalg.norm(p_res)) / norm_b_res
        dual_res = sigma_c / tau * float(np.linalg.norm(d_res)) / norm_c_res
        pobj = sigma_b * sigma_c / tau * cx
        dobj = sigma_b * sigma_c / tau * by
        gap_rel = abs(pobj - dobj) / (1.0 + max(abs(pobj), abs(dobj)))
        phi = max(primal_res, dual_res, gap_rel)
        if phi < best_phi:
            best_phi = phi
            best = (x.copy(), y.copy(), s.copy(), tau, kappa)
            stall = 0
        else:
            stall += 1
        if converged(primal_res, dual_res, gap_rel):
            # Optimal only if the recomputed residuals pass as well
            sol = finish(SolveStatus.OPTIMAL, f"converged in {it} iterations",
                         (x, y, s, tau, kappa))
            if converged(**sol.residuals):
                return sol

        # infeasibility certificates from the homogeneous iterate
        if by > 0:
            ray_norm = float(np.linalg.norm(aty + s))
            if (ray_norm / by <= _TOL_FEAS * (1.0 + norm_c)
                    and tau <= 1e-6 * max(1.0, kappa)):
                by_base = sigma_b * by
                cert = {"ray_res": ray_norm / by_base, "ray_obj": 1.0,
                        "kind": "dual_improving_ray"}
                return finish(SolveStatus.PRIMAL_INFEASIBLE,
                              "primal infeasibility certified by dual ray",
                              (np.zeros_like(x), y / by_base, s / by_base, cert))
        if cx < 0:
            ax_norm = float(np.linalg.norm(ax))
            if (ax_norm / (-cx) <= _TOL_FEAS * (1.0 + norm_b)
                    and tau <= 1e-6 * max(1.0, kappa)):
                cx_base = sigma_c * cx
                cert = {"ray_res": ax_norm / (-cx_base), "ray_obj": -1.0,
                        "kind": "primal_improving_ray"}
                return finish(SolveStatus.DUAL_INFEASIBLE,
                              "dual infeasibility certified by primal ray",
                              (x / (-cx_base), np.zeros(m), np.zeros_like(s), cert))

        if stall >= 25 or mu > 1e12:
            return give_up(SolveStatus.INACCURATE, "progress stalled")

        # NT scaling
        try:
            scal = [op.nt_scaling(xv, sv)
                    for (op, _, _), xv, sv in zip(classes, views(x), views(s))]
        except np.linalg.LinAlgError:
            return give_up(SolveStatus.INACCURATE, "iterate left the cone interior")
        ws = [sc["w"] for sc in scal]
        block_w = [{"w": w} for wc in ws for w in (wc if wc.ndim == 3 else (wc,))]

        try:
            schur = _schur_matrix(m, plan, block_w, out=schur_work)
            l_schur = _chol_with_jitter(schur)
        except np.linalg.LinAlgError:
            return give_up(SolveStatus.INACCURATE,
                           f"Schur factorization failed at iteration {it}")
        # the F-ordered upper factor L' reaches potrs without a copy; it
        # came out of a successful potrf, so only right-hand sides are checked
        upper = l_schur.T

        def schur_solve(rhs):
            return dpotrs(upper, np.asarray_chkfinite(rhs), lower=0)[0]

        def congruence(v):
            return per_class(lambda op, w, vb: op.congruence(w, vb), ws, views(v))

        wcw = congruence(c)
        v_vec = a_mat @ wcw
        gb, gv = schur_solve(np.column_stack((b, v_vec))).T
        g2 = gb + gv
        # den = kappa/tau + b'M^{-1}b + (<C,WCW> - v'M^{-1}v); the bracket is a
        # squared distance to a subspace, so clamping it at zero only removes
        # roundoff-induced cancellation.
        den = (kappa / tau + float(b @ gb)
               + max(0.0, float(c @ wcw) - float(v_vec @ gv)))
        if den <= 0 or not np.isfinite(den):
            return give_up(SolveStatus.INACCURATE,
                           f"degenerate reduced system at iteration {it}")

        r1 = -p_res
        r2 = d_res
        r3 = -g_res
        wr2w = congruence(r2)

        def reduced_solve(h1, h2):
            # dy and dtau of the Schur system bordered by the tau row
            g1 = schur_solve(h1)
            dtau = (h2 - float((b - v_vec) @ g1)) / den
            return g1 + g2 * dtau, dtau

        def newton_dir(r4, r5):
            q = wr2w + r4
            dy, dtau = reduced_solve(r1 - a_mat @ q, r3 + float(c @ q) + r5 / tau)
            at_dy = a_t @ dy
            dx = q + congruence(at_dy) - wcw * dtau
            ds = c * dtau - at_dy - r2
            dkappa = (r5 - kappa * dtau) / tau
            return dx, dy, ds, dtau, dkappa

        def leftover(dx, dy, ds, dtau, dkappa):
            # what a direction leaves of A dx - b dtau = r1 and b'dy - c'dx - dkappa = r3
            return r1 + b * dtau - a_mat @ dx, r3 - float(b @ dy) + float(c @ dx) + dkappa

        def refine(direction, with_tau):
            """The direction plus the solution, with the same factor, for its
            leftovers (the primal one alone, dtau kept, without ``with_tau``)."""
            dx, dy, ds, dtau, dkappa = direction
            e1, e3 = leftover(*direction)
            ey, et = reduced_solve(e1, e3) if with_tau else (schur_solve(e1), 0.0)
            at_ey = a_t @ ey
            return (dx + congruence(at_ey) - wcw * et, dy + ey,
                    ds + c * et - at_ey, dtau + et, dkappa - kappa * et / tau)

        def max_step(hats):
            return min(op.max_step(sc, hb) for (op, _, _), sc, hb in zip(classes, scal, hats))

        def frame(dx, ds):
            return [op.to_frame(sc, dxv, dsv) for (op, _, _), sc, dxv, dsv
                    in zip(classes, scal, views(dx), views(ds))]

        # predictor; its directions in the NT frame also give the corrector
        dxa, dya, dsa, dtaua, dkappaa = newton_dir(-x, -tau * kappa)
        hat_a = frame(dxa, dsa)

        alpha_aff = min(1.0, max_step(hat_a))
        if dtaua < 0:
            alpha_aff = min(alpha_aff, -tau / dtaua)
        if dkappaa < 0:
            alpha_aff = min(alpha_aff, -kappa / dkappaa)

        mu_aff = (float((x + alpha_aff * dxa) @ (s + alpha_aff * dsa))
                  + (tau + alpha_aff * dtaua) * (kappa + alpha_aff * dkappaa)) / nu
        sigma = min(0.99999, max(1e-8, (max(mu_aff, 0.0) / mu) ** 3))

        # corrector in the NT frame
        r4 = per_class(lambda op, sc, hb: op.corrector(sc, hb, sigma * mu),
                       scal, hat_a) - x
        r5 = sigma * mu - tau * kappa - dtaua * dkappaa

        # refined on both equations, then on the primal one that dtau's correction disturbs
        direction = newton_dir(r4, r5)
        e1, e3 = leftover(*direction)
        if np.linalg.norm(e1) > _TOL_FEAS * np.linalg.norm(r1) or abs(e3) > _TOL_FEAS * abs(r3):
            direction = refine(refine(direction, True), False)
        dx, dy, ds, dtau, dkappa = direction

        alpha = min(1.0 / _STEP_FRAC, max_step(frame(dx, ds)))
        if dtau < 0:
            alpha = min(alpha, -tau / dtau)
        if dkappa < 0:
            alpha = min(alpha, -kappa / dkappa)
        alpha = min(_STEP_FRAC * alpha, 1.0)
        if alpha < 1e-9:
            return give_up(SolveStatus.INACCURATE, "step length collapsed")

        x = x + alpha * dx
        s = s + alpha * ds
        y = y + alpha * dy
        tau += alpha * dtau
        kappa += alpha * dkappa

    return give_up(SolveStatus.ITER_LIMIT, f"no convergence within {_MAX_ITER} iterations")


# ---------------------------------------------------------------------------
# Block assembly from entry arrays


def _block_data(m: int, size: int, row, i, j, val):
    """One block's C and A rows from entry arrays.

    Entry n adds val[n] at (i[n], j[n]) of matrix row[n], and off the
    diagonal at (j[n], i[n]) as well; entries at one position are summed.
    Matrix 0 is C, returned as an (s, s) array (a length-d vector for a
    diagonal block of size -d, whose entries need i == j); matrix r in 1..m
    is constraint r - 1, returned as row r - 1 of the block's CSR rows in
    :class:`SdpProblem`'s layout.
    """
    row, i, j = (np.asarray(v, dtype=np.intp) for v in (row, i, j))
    val = np.asarray(val, dtype=float)
    col = i
    if size > 0:
        off = i != j
        row = np.concatenate((row, row[off]))
        col = np.concatenate((i * size + j, j[off] * size + i[off]))
        val = np.concatenate((val, val[off]))
    veclen = _block_veclen(size)
    head = row == 0
    c = np.zeros(veclen)
    np.add.at(c, col[head], val[head])
    # canonical CSR: entries sorted by (row, column), the entries at one
    # position summed in the order given
    body = ~head
    row, col, val = row[body] - 1, col[body], val[body]
    order = np.lexsort((col, row))
    row, col = row[order], col[order]
    first = np.flatnonzero(np.diff(row * veclen + col, prepend=-1))
    indptr = np.searchsorted(row[first], np.arange(m + 1))
    a = sp.csr_matrix((np.add.reduceat(val[order], first), col[first], indptr),
                      shape=(m, veclen))
    return c.reshape(size, size) if size > 0 else c, a


# the statuses of a program whose variables are the canonical dual's y (an
# LMI): canonical dual infeasibility means the LMI has no feasible point,
# canonical primal infeasibility that its objective is unbounded
_LMI_STATUS = {
    SolveStatus.OPTIMAL: "optimal",
    SolveStatus.DUAL_INFEASIBLE: "infeasible",
    SolveStatus.PRIMAL_INFEASIBLE: "unbounded",
    SolveStatus.INACCURATE: "inaccurate",
    SolveStatus.ITER_LIMIT: "iterlimit",
}


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
    # an LMI's canonical form: C is F0, A's rows -F_q and +I for s
    pencil_mats = np.concatenate((np.asarray(f0, dtype=float)[None],
                                  -np.asarray(fs, dtype=float).reshape(nq, k, k),
                                  np.eye(k)[None]))
    row, i, j = np.nonzero(np.triu(pencil_mats))
    sizes = [k, -1]
    blocks = [_block_data(nq + 1, k, row, i, j, pencil_mats[row, i, j]),
              _block_data(nq + 1, -1, [0, nq + 1], [0, 0], [0, 0], [cap, 1.0])]
    if box is not None and nq > 0:
        # C holds box twice per q; row q has +y_q and -y_q, none for s
        pos = np.arange(2 * nq)
        sizes.append(-2 * nq)
        blocks.append(_block_data(
            nq + 1, -2 * nq, np.concatenate((np.zeros(2 * nq), pos // 2 + 1)),
            np.tile(pos, 2), np.tile(pos, 2),
            np.concatenate((np.full(2 * nq, float(box)), np.tile([1.0, -1.0], nq)))))
    c_blocks, a_blocks = zip(*blocks)
    return SdpProblem(tuple(sizes), list(c_blocks), list(a_blocks), np.eye(nq + 1)[nq],
                      dict(metadata or {}))


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

    sol = solve(prob)
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
