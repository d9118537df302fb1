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
and 1 x 1 dense blocks merged into one.  A is one matrix with its
transpose, so A(X), A*(y), <C, X> and <X, S> are one product each, and the
cone arithmetic runs once per class.  A program whose A would hold at most
``_DENSE_FLOATS`` floats stored dense (m times the iterate length) keeps
A as one dense array; a larger one keeps it as one CSR matrix.  The rows
of A are fully mirrored, so A*(y) is exactly symmetric, and so is every
direction and iterate built from it and from the symmetrized congruences:
none is symmetrized again.
The de-scaled residuals are the homogeneous ones, formed once per
iteration, times a scalar; Optimal also needs those compute_residuals
recomputes on exit to pass.  Late on, the Schur complement M (below) is
ill-conditioned, and a corrector that misses its primal or gap equation by
more than ``_TOL_FEAS`` of the right-hand side is refined with M's factor.

Each iteration assembles the Schur complement
M_ij = sum_b <A_ib, W_b A_jb W_b> for the NT scalings W_b, read from their
class stacks.  With A dense no plan is built: a dense class's rows, an
(m, nb, s, s) view of A, take one batched congruence W A_i W and one
product with those rows, and the merged diagonal class adds
A diag(w)^2 A'.  With A sparse, the sparsity pattern does not change during
a solve, so the assembly plan is built once per solve, before the first
iteration, in one pass per class over the class's constraint rows.  Its
unit of work is a pair (constraint row i, block b) with stored entries,
whose product is W_b A_ib W_b.  In row and then block order, a class's
pairs are cut into chunks of at most ``_CHUNK_TARGET`` floats of products
(at least one pair).  Within a chunk the pairs are grouped by their
stored-entry count r rounded up to a power of two, R, and each group is
one batched numpy call across
the blocks of the class: the thin product (W[:, p] * v) @ W[q, :] over the
stored entries, padded to R with value 0 (which adds exact zeros), for
r <= 2s, and the full congruence W A_i W for denser rows.  The A_i are
symmetric, so W A_i W is too, and <A_j, W A_i W> needs only its upper
triangle: the plan keeps the class's rows folded onto the s(s+1)/2
positions p <= q of each block (weight a_pq + a_qp off the diagonal), and
one sparse product of those folded rows, restricted to the blocks the chunk
has pairs in, with a C-ordered gather of the chunk's triangles gives the
chunk's rows of M.  The products of one row in several blocks share a
gather column, so the sparse product sums them.  The folded rows span all
m constraints, so a chunk adds whole rows of M, which costs less than a
scatter into the class's rows and columns.  The merged diagonal class adds
A diag(w)^2 A' on its rows, kept as one dense (rows, d) array.
Memory: with A dense, A (at most ``_DENSE_FLOATS`` floats) and, during an
assembly, one class's products W A_i W, no more floats than A.  With A
sparse, for each dense class the plan holds two indices and a value per
padded entry (padding at most doubles the entries), the folded rows once
per set of blocks that a chunk covers (once when the class fits in one
chunk), the diagonal rows once more as a dense array, one chunk buffer (at
most ``_CHUNK_TARGET`` floats, or s^2 for a single pair) and one gather
buffer (no more triangles than a full chunk of products, or one pair's),
which the dense classes share.  The solve holds M itself; it and the
buffers are allocated once and overwritten by every assembly, and M is
symmetrized in place in tiles.  It holds one factor of M at a time: the
last iteration's is released before the next assembly.  Besides those, an
assembly makes the product of the folded rows with one gather (m floats a
column), the gather's tiles before they are transposed into it, and the
operands of each batched product, at most ``_CHUNK_TARGET`` floats
together (or one pair's).

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

import math
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

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

# Programs whose A, stored dense, holds at most this many floats (m times
# the iterate length) keep A dense and assemble M without a plan.  Below
# it, the plan's set-up and per-chunk calls cost more than the dense work;
# above it, padding the sparse rows to dense costs more than they save.
_DENSE_FLOATS = 20_000

# Side of the tiles the Schur matrix is symmetrized in, and the square root
# of the float count of the tiles a chunk's gather is filled in: 115 KB,
# below glibc's default 128 KB mmap threshold, so no tile is mapped afresh.
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
        if m == 0:
            raise InvalidInput("problem needs at least one constraint")
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
        lx, ls = np.linalg.cholesky(np.stack((x, s)))
        u, sv, vt = np.linalg.svd(_t(ls) @ lx)
        if (sv <= 0).any():
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

    def frame_step(self, sc, dx, ds):
        """The directions in the NT frame, R^-1 dX R^-T and R' dS R stacked
        as dhat, and the largest alpha keeping lam + alpha dhat psd on both
        sides of every block (inf if there is no boundary):
        -1 / lam_min(lam^-1/2 dhat lam^-1/2)."""
        f = sc["frame"]
        dhat = f @ np.stack((dx, ds)) @ _t(f)
        lam_min = float(np.linalg.eigvalsh(dhat * sc["isqrt"])[..., 0].min())
        return dhat, (np.inf if lam_min >= -1e-14 else -1.0 / lam_min)

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
        if (x <= 0).any() or (s <= 0).any():
            raise np.linalg.LinAlgError("nonpositive diagonal entry")
        return {"w": np.sqrt(x / s), "lam": np.sqrt(x * s)}

    def congruence(self, w, m):
        return w * m * w

    def frame_step(self, sc, dx, ds):
        # the ratio test: dhat / lam is dx / x and ds / s
        dhat = np.stack((dx / sc["w"], sc["w"] * ds))
        worst = float((dhat / sc["lam"]).min())
        return dhat, (np.inf if worst >= -1e-14 else -1.0 / worst)

    def corrector(self, sc, dhat, target):
        e = dhat[0] * dhat[1] / sc["lam"]
        return sc["w"] * (target / sc["lam"] - e)


# ---------------------------------------------------------------------------
# Schur complement assembly


def _class_members(sizes):
    """The classes of a block list, in class order, as (size, blocks): the
    dense blocks grouped by size, sizes in order of first appearance, then
    every diagonal block and every 1 x 1 dense block (a nonnegative entry),
    merged into one class of size 0."""
    groups = {}
    for bi, size in enumerate(sizes):
        groups.setdefault(size if size > 1 else 0, []).append(bi)
    diag = groups.pop(0, [])
    return list(groups.items()) + ([(0, diag)] if diag else [])


def _entries(a_blocks, m):
    """The stored entries of blocks of one width as (block, row, column,
    value) arrays, blocks numbered in the order given."""
    counts = [np.diff(a.indptr) for a in a_blocks]
    blk = np.repeat(np.arange(len(a_blocks)), [a.indptr[-1] for a in a_blocks])
    row = np.concatenate([np.repeat(np.arange(m), c) for c in counts])
    col = np.concatenate([a.indices[:a.indptr[-1]] for a in a_blocks])
    val = np.concatenate([a.data[:a.indptr[-1]] for a in a_blocks])
    return blk, row, col, val


def _triangle(s):
    """Of an s x s block: the triangle position of every flat position
    p*s + q (row-major over p <= q, folding (q, p) onto (p, q)), and the
    flat positions of the triangle, in triangle order."""
    p, q = np.divmod(np.arange(s * s), s)
    lo, hi = np.minimum(p, q), np.maximum(p, q)
    return lo * (2 * s - lo + 1) // 2 + hi - lo, np.flatnonzero(p <= q)


def _runs(key):
    """The bounds of the runs of equal values of a sorted array: run i is
    key[bounds[i]:bounds[i + 1]]."""
    new = np.empty(key.size + 1, dtype=bool)
    new[0] = new[-1] = True
    np.not_equal(key[1:], key[:-1], out=new[1:-1])
    return np.flatnonzero(new)


def _first_counts(v):
    """How many distinct values each prefix of v holds."""
    seen = np.zeros(v.size, dtype=np.intp)
    seen[np.unique(v, return_index=True)[1]] = 1
    return np.cumsum(seen)


class _Gather(NamedTuple):
    """Where the ``n`` products W A_i W of a chunk go.

    ``tri`` holds the folded rows of all m constraints on the
    upper-triangle positions of the blocks the chunk has pairs in, one slot
    of s(s+1)/2 columns per block, and the gather holds one column per row
    ``out[c]`` of M.  With one slot, product k is column k (``slot`` and
    ``col`` are None); with several, product k fills slot slot[k] of column
    col[k], so the products of one constraint row in several blocks share a
    column, and the rest of the gather is zero.
    """

    n: int
    out: np.ndarray
    slot: np.ndarray | None
    col: np.ndarray | None
    tri: sp.csr_matrix


@dataclass
class _ClassPlan:
    """Schur assembly plan of one class with stored entries.

    ``block`` is the class's index, which selects its scaling, and ``rows``
    are the constraint rows with stored entries in the class.  The diagonal
    class keeps ``sub_dense``, those rows as a dense (rows, d) array.  A
    dense class keeps ``chunks`` of (sel, parts): ``sel`` is the chunk's
    :class:`_Gather` and each part (lo, hi, p, q, vals) covers its products
    lo..hi-1, pairs of one group.  A thin part holds the entry rows p and q
    of the class's stacked W (block * s + position) and the values as a
    (pairs, R, 1) array, zero on padding; a dense part has p None, the
    pairs' blocks in q and (flat positions, values) of their entries in
    ``vals``.  ``tri_pos`` are the
    flat upper-triangle positions p*s + q, p <= q, of one block, and ``u``
    and ``g`` the flat chunk and gather buffers, which all dense classes of
    the plan share and every assembly overwrites.
    """

    block: int
    rows: np.ndarray
    sub_dense: np.ndarray | None = None
    chunks: list = field(default_factory=list)
    tri_pos: np.ndarray | None = None
    u: np.ndarray | None = None
    g: np.ndarray | None = None


def _operand_slices(cuts, group, s):
    """The runs cuts[i]..cuts[i+1] of one group, sliced so that the operands
    of each batched product fit in ``_CHUNK_TARGET`` floats together (or
    hold one pair): per pair both thin factors of R x s, or W, A_i and
    W A_i of a dense pair."""
    for a, b in zip(cuts[:-1], cuts[1:]):
        width = int(group[a])
        per_pair = 3 * s * s if width == 4 * s else 2 * width * s
        step = max(1, _CHUNK_TARGET // per_pair)
        for lo in range(a, b, step):
            yield lo, min(lo + step, b)


def _schur_plan(problem):
    """Per-class assembly plan; it depends only on the sparsity pattern.

    The unit of work is a pair (constraint row, block) with stored entries.
    A class's pairs, in row and then block order, are cut into chunks of at
    most ``_CHUNK_TARGET`` floats of products W A_i W (s^2 floats a pair)
    whose gather, slots times columns, holds no more triangles than that;
    a chunk holds at least one pair.  Within a chunk the pairs with r <= 2s
    stored entries are grouped by r rounded up to a power of two, R, and
    padded to R entries of value 0; the pairs with r > 2s form one dense
    group.
    """
    m = problem.m
    plan = []
    u_len = g_len = 0  # the largest chunk and gather over the dense classes
    for ci, (size, members) in enumerate(_class_members(problem.block_sizes)):
        a_blocks = [problem.a_blocks[bi] for bi in members]
        if not any(a.indptr[-1] for a in a_blocks):
            continue
        blk, row, col, val = _entries(a_blocks, m)
        if size == 0:
            offsets = np.cumsum([0] + [a.shape[1] for a in a_blocks])
            dense = np.zeros((m, offsets[-1]))
            np.add.at(dense, (row, offsets[blk] + col), val)
            rows = np.unique(row)
            plan.append(_ClassPlan(ci, rows, sub_dense=dense[rows]))
            continue
        s, ss = size, size * size
        tri_of, tri_pos = _triangle(s)
        tri_len = tri_pos.size
        # canonical entries, sorted by (row, block, position) and summed
        key = (row * len(members) + blk) * ss + col
        order = np.argsort(key, kind="stable")
        key = key[order]
        first = _runs(key)[:-1]
        val = np.add.reduceat(val[order], first)
        pair, pos = np.divmod(key[first], ss)
        bounds = _runs(pair)
        start, count = bounds[:-1], np.diff(bounds)
        pair_row, pair_blk = np.divmod(pair[start], len(members))
        rows = pair_row[_runs(pair_row)[:-1]]
        # fold: entries (p, q) and (q, p) add onto triangle position p <= q,
        # on (block, position) columns
        fkey = ((np.repeat(pair_row, count) * len(members)
                 + np.repeat(pair_blk, count)) * tri_len + tri_of[pos])
        forder = np.argsort(fkey, kind="stable")
        fkey = fkey[forder]
        ffirst = _runs(fkey)[:-1]
        fval = np.add.reduceat(val[forder], ffirst)
        frow, fcol = np.divmod(fkey[ffirst], len(members) * tri_len)

        def folded(blocks):
            """The folded rows on the columns of ``blocks``, in that order."""
            slot_of = np.full(len(members), -1)
            slot_of[blocks] = np.arange(blocks.size)
            slot = slot_of[fcol // tri_len]
            keep = slot >= 0
            # int32 indices, which scipy would otherwise check the entries for
            return sp.csr_matrix(
                (fval[keep], (slot[keep] * tri_len + fcol[keep] % tri_len).astype(np.int32),
                 np.searchsorted(frow[keep], np.arange(m + 1)).astype(np.int32)),
                shape=(m, blocks.size * tri_len))

        tris = {}  # the folded rows of each chunk's block set
        # groups: R for a thin pair (r <= 2s, so R < 4s), 4s for a dense one
        padded = 1 << np.ceil(np.log2(count)).astype(np.intp)
        group = np.where(count <= 2 * s, padded, 4 * s)
        cap = max(1, _CHUNK_TARGET // ss)
        chunks = []
        lo = 0
        while lo < start.size:
            sel = np.arange(lo, min(lo + cap, start.size))
            if len(members) * rows.size > cap:
                # slots times columns, at most the cap's pairs of one block
                gather = _first_counts(pair_blk[sel]) * _first_counts(pair_row[sel])
                sel = sel[:max(1, int(np.searchsorted(gather, cap, side="right")))]
            lo += sel.size
            sel = sel[np.argsort(group[sel], kind="stable")]
            blocks = np.unique(pair_blk[sel])
            if blocks.size == 1:
                out, slot, col = pair_row[sel], None, None
            else:
                out, col = np.unique(pair_row[sel], return_inverse=True)
                slot = np.searchsorted(blocks, pair_blk[sel])
            if blocks.tobytes() not in tris:
                tris[blocks.tobytes()] = folded(blocks)
            tri = tris[blocks.tobytes()]
            g_sel = group[sel]
            cuts = [0, *(np.flatnonzero(np.diff(g_sel)) + 1), sel.size]
            # the thin pairs come first; their entries padded to R, repeating
            # the last with value 0, pair after pair
            n_thin = int(np.searchsorted(g_sel, 4 * s))
            end = np.cumsum(g_sel[:n_thin])
            pad_of = np.repeat(sel[:n_thin], g_sel[:n_thin])
            t = np.arange(pad_of.size) - np.repeat(end - g_sel[:n_thin], g_sel[:n_thin])
            ent = start[pad_of] + np.minimum(t, count[pad_of] - 1)
            pad_p, pad_q = np.divmod(pos[ent], s)
            pad_p += pair_blk[pad_of] * s
            pad_q += pair_blk[pad_of] * s
            pad_v = np.where(t < count[pad_of], val[ent], 0.0)
            parts = []
            for a, b in _operand_slices(cuts, g_sel, s):
                if a < n_thin:
                    width = int(g_sel[a])
                    cut = slice(end[a] - width, end[b - 1])
                    parts.append((a, b, pad_p[cut].reshape(-1, width),
                                  pad_q[cut].reshape(-1, width),
                                  pad_v[cut].reshape(-1, width, 1)))
                    continue
                # dense: the entries of every pair, at their flat positions
                ks = sel[a:b]
                ent = np.repeat(start[ks] - np.cumsum(count[ks]) + count[ks],
                                count[ks]) + np.arange(int(count[ks].sum()))
                flat = np.repeat(np.arange(ks.size) * ss, count[ks]) + pos[ent]
                parts.append((a, b, None, pair_blk[ks], (flat, val[ent])))
            chunks.append((_Gather(sel.size, out, slot, col, tri), parts))
            u_len = max(u_len, sel.size * ss)
            g_len = max(g_len, blocks.size * out.size * tri_len)
        plan.append(_ClassPlan(ci, rows, chunks=chunks, tri_pos=tri_pos))
    # one chunk buffer and one gather buffer serve the dense classes in turn
    u, g = np.empty(u_len), np.empty(g_len)
    for cp in plan:
        if cp.sub_dense is None:
            cp.u, cp.g = u, g
    return plan


def _schur_matrix(m, plan, scal, out=None):
    """M_ij = sum_b <A_ib, W_b A_jb W_b>, assembled classwise from the plan.

    ``scal`` holds each class's scaling: ``w`` is the class's (nb, s, s)
    stack, an (s, s) array for a class of one block, or the diagonal
    class's vector.  ``out`` is an optional (m, m) array that receives M;
    the solve allocates it once and every assembly overwrites it.
    """
    mat = np.empty((m, m)) if out is None else out
    # Every class adds the transpose of its contribution, which the final
    # symmetrization undoes exactly; a chunk then fills rows of ``mat``
    # instead of scattering into columns.
    mat.fill(0.0)
    for cp in plan:
        w = scal[cp.block]["w"]
        if cp.sub_dense is not None:
            mat[np.ix_(cp.rows, cp.rows)] += (cp.sub_dense * (w * w)) @ cp.sub_dense.T
            continue
        s = w.shape[-1]
        ss = s * s
        w = w.reshape(-1, s, s)
        # W is symmetric: row b*s + p of the stack is row and column p of W_b
        w_rows = w.reshape(-1, s)
        for (n, out_rows, slot, col, tri), parts in cp.chunks:
            u = cp.u[:n * ss].reshape(n, s, s)
            for lo, hi, p, q, vals in parts:
                if p is None:
                    flat, v = vals
                    dense = np.zeros((hi - lo) * ss)
                    dense[flat] = v
                    wb = w[q]
                    np.matmul(wb @ dense.reshape(-1, s, s), wb, out=u[lo:hi])
                else:
                    # W A_i W as thin products over the stored entries; rows
                    # are fully mirrored so this covers both triangles.
                    left = np.take(w_rows, p, axis=0)
                    left *= vals
                    np.matmul(_t(left), np.take(w_rows, q, axis=0), out=u[lo:hi])
            # W A_i W is symmetric, so its upper triangle against the folded
            # rows gives <A_j, W A_i W>; the gather is C-ordered as the
            # sparse product needs it, and is filled a tile at a time
            g = cp.g[:tri.shape[1] * out_rows.size].reshape(-1, cp.tri_pos.size,
                                                             out_rows.size)
            if slot is not None:
                g.fill(0.0)
            step = max(1, _SYM_TILE * _SYM_TILE // cp.tri_pos.size)
            for k in range(0, n, step):
                upper = np.take(u[k:k + step].reshape(-1, ss), cp.tri_pos, axis=1)
                if slot is None:
                    g[0, :, k:k + step] = upper.T
                else:
                    g[slot[k:k + step], :, col[k:k + step]] = upper
            mat[out_rows] += (tri @ g.reshape(tri.shape[1], -1)).T
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


def _dense_rows(problem, members):
    """A in class order as one dense (m, N) array, and the rows of each
    class with stored entries as (class index, view of A): (m, nb, s, s) for
    a dense class, (m, d) for the merged diagonal class."""
    m, a_blocks = problem.m, problem.a_blocks
    a_mat = np.hstack([a_blocks[bi].toarray() for _, blocks in members for bi in blocks])
    rows, lo = [], 0
    for ci, (size, blocks) in enumerate(members):
        view = a_mat[:, lo:lo + sum(a_blocks[bi].shape[1] for bi in blocks)]
        lo += view.shape[1]
        if any(a_blocks[bi].nnz for bi in blocks):
            rows.append((ci, view.reshape(m, len(blocks), size, size) if size else view))
    return a_mat, rows


def _dense_schur(rows, scal, out):
    """M_ij = sum_b <A_ib, W_b A_jb W_b> from ``_dense_rows``' class rows,
    one batched congruence and one product per class, into ``out``."""
    out.fill(0.0)
    for ci, a_c in rows:
        w = scal[ci]["w"]
        if a_c.ndim == 2:
            out += (a_c * (w * w)) @ a_c.T
        else:
            m = a_c.shape[0]
            out += a_c.reshape(m, -1) @ (w @ a_c @ w).reshape(m, -1).T
    _symmetrize(out)
    return out


def _norm(v):
    """The 2-norm of a vector, sqrt(v'v) as np.linalg.norm forms it, without
    its argument handling."""
    return math.sqrt(v @ v)


def _chol_with_jitter(mat):
    """The Cholesky factor of mat, else of mat plus a jitter of 1e-13, 1e-11
    and then 1e-9 times its largest diagonal entry on the diagonal."""
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        pass
    scale = float(np.abs(mat.diagonal()).max()) or 1.0
    jitter = scale * 1e-13
    for _ in range(3):
        try:
            return np.linalg.cholesky(mat + jitter * np.eye(mat.shape[0]))
        except np.linalg.LinAlgError:
            jitter = scale * (jitter / scale * 100.0)
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
    members = _class_members(sizes)
    order = [bi for _, blocks in members for bi in blocks]
    classes = []
    for size, blocks in members:
        if size:
            classes.append((_DenseBlock(size), (len(blocks), size, size)))
        else:
            d = sum(_block_veclen(sizes[bi]) for bi in blocks)
            classes.append((_DiagBlock(d), (d,)))
    # the flat iterate: every class, and so every block, is a contiguous slice
    ends = np.cumsum([np.prod(shape) for _, shape in classes])
    classes = [(op, slice(end - np.prod(shape), end), shape)
               for (op, shape), end in zip(classes, ends)]
    starts = dict(zip(order, np.cumsum([0] + [_block_veclen(sizes[bi]) for bi in order])))

    m = problem.m

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

    schur_work = np.empty((m, m))
    if m * x.size <= _DENSE_FLOATS:
        a_mat, class_rows = _dense_rows(problem, members)
        a_t = a_mat.T

        def assemble(scal):
            return _dense_schur(class_rows, scal, schur_work)
    else:
        a_mat = sp.hstack([problem.a_blocks[bi] for bi in order], format="csr")
        a_t = a_mat.T.tocsr()
        plan = _schur_plan(problem)

        def assemble(scal):
            return _schur_matrix(m, plan, scal, out=schur_work)
    b = problem.b / sigma_b
    c = np.concatenate([problem.c_blocks[bi].ravel() for bi in order]) / sigma_c
    nu = problem.cone_dim + 1.0
    norm_b = _norm(b)
    norm_c = _norm(c)

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
        primal_res = sigma_b / tau * _norm(p_res) / norm_b_res
        dual_res = sigma_c / tau * _norm(d_res) / norm_c_res
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
            ray_norm = _norm(aty + s)
            if (ray_norm / by <= _TOL_FEAS * (1.0 + norm_c)
                    and tau <= 1e-6 * max(1.0, kappa)):
                by_base = sigma_b * by
                cert = {"ray_res": ray_norm / by_base, "ray_obj": 1.0,
                        "kind": "dual_improving_ray"}
                return finish(SolveStatus.PRIMAL_INFEASIBLE,
                              "primal infeasibility certified by dual ray",
                              (np.zeros_like(x), y / by_base, s / by_base, cert))
        if cx < 0:
            ax_norm = _norm(ax)
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
            scal = [op.nt_scaling(x[sl].reshape(shape), s[sl].reshape(shape))
                    for op, sl, shape in classes]
        except np.linalg.LinAlgError:
            return give_up(SolveStatus.INACCURATE, "iterate left the cone interior")

        # the last iteration's factor goes before this one's is formed
        l_schur = upper = None
        try:
            schur = assemble(scal)
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
            """W V W for every class, written into one flat vector."""
            out = np.empty(v.size)
            for (op, sl, shape), sc in zip(classes, scal):
                out[sl] = op.congruence(sc["w"], v[sl].reshape(shape)).ravel()
            return out

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

        def framed(dx, ds):
            """Every class's directions in the NT frame, and the largest step
            that keeps every class in its cone."""
            hats = [op.frame_step(sc, dx[sl].reshape(shape), ds[sl].reshape(shape))
                    for (op, sl, shape), sc in zip(classes, scal)]
            return [hat for hat, _ in hats], min(step for _, step in hats)

        # predictor; its directions in the NT frame also give the corrector
        dxa, dya, dsa, dtaua, dkappaa = newton_dir(-x, -tau * kappa)
        hat_a, step_a = framed(dxa, dsa)

        alpha_aff = min(1.0, step_a)
        if dtaua < 0:
            alpha_aff = min(alpha_aff, -tau / dtaua)
        if dkappaa < 0:
            alpha_aff = min(alpha_aff, -kappa / dkappaa)

        mu_aff = (float((x + alpha_aff * dxa) @ (s + alpha_aff * dsa))
                  + (tau + alpha_aff * dtaua) * (kappa + alpha_aff * dkappaa)) / nu
        sigma = min(0.99999, max(1e-8, (max(mu_aff, 0.0) / mu) ** 3))

        # corrector in the NT frame, written classwise into -x
        r4 = -x
        for (op, sl, _), sc, hb in zip(classes, scal, hat_a):
            r4[sl] += op.corrector(sc, hb, sigma * mu).ravel()
        r5 = sigma * mu - tau * kappa - dtaua * dkappaa

        # refined on both equations, then on the primal one that dtau's correction disturbs
        direction = newton_dir(r4, r5)
        e1, e3 = leftover(*direction)
        if _norm(e1) > _TOL_FEAS * _norm(r1) or abs(e3) > _TOL_FEAS * abs(r3):
            direction = refine(refine(direction, True), False)
        dx, dy, ds, dtau, dkappa = direction

        alpha = min(1.0 / _STEP_FRAC, framed(dx, ds)[1])
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
    key = row * veclen + col
    order = np.argsort(key, kind="stable")
    row, col = row[order], col[order]
    first = np.flatnonzero(np.diff(key[order], prepend=-1))
    indptr = np.searchsorted(row[first], np.arange(m + 1))
    # int32 indices unless they could overflow, so that scipy does not check
    # the entries to choose the index type itself
    index = np.int32 if max(first.size, veclen) < 2**31 else np.int64
    a = sp.csr_matrix((np.add.reduceat(val[order], first), col[first].astype(index),
                       indptr.astype(index)), shape=(m, veclen))
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
