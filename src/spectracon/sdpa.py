"""SDPA sparse format (.dat-s) import and export.

The file encodes  min c'x  s.t.  sum_i x_i F_i - F_0  psd.  Our canonical
dual  max b'y  s.t.  C - sum_i y_i A_i  psd  matches it under x = -y,
F_i = A_i, F_0 = -C, c = b, so the canonical data maps to the format
without reshuffling.  Diagonal blocks are recorded with negative sizes, as
usual for the format.  Only the upper triangle is written; values use 17
significant digits so a write/read cycle reproduces the binary doubles.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput
from .sdpcore import SdpProblem, _program_data, _starts


def export_sdpa(problem: SdpProblem, path, comment: str = "") -> None:
    """Write a canonical problem to an SDPA sparse file."""
    lines = []
    if comment:
        for part in comment.splitlines():
            lines.append(f"* {part}")
    lines.append(f"{problem.m}")
    lines.append(f"{len(problem.block_sizes)}")
    lines.append(" ".join(str(s) for s in problem.block_sizes))
    lines.append(" ".join(f"{v:.17g}" for v in problem.b))

    def emit(matno, blkno, size, entries):
        for i, j, v in entries:
            if v != 0.0:
                lines.append(f"{matno} {blkno} {i + 1} {j + 1} {v:.17g}")

    starts = _starts(problem.block_sizes)
    for bi, size in enumerate(problem.block_sizes):
        c = problem.c[starts[bi]:starts[bi + 1]]
        if size > 0:
            c = c.reshape(size, size)
            entries = [(i, j, -c[i, j]) for i in range(size) for j in range(i, size)]
        else:
            entries = [(i, i, -c[i]) for i in range(-size)]
        emit(0, bi + 1, size, entries)
    for bi, size in enumerate(problem.block_sizes):
        coo = problem.a[:, starts[bi]:starts[bi + 1]].tocoo()
        if size > 0:
            for row, col, v in zip(coo.row, coo.col, coo.data):
                i, j = divmod(int(col), size)
                if i <= j:
                    lines.append(f"{row + 1} {bi + 1} {i + 1} {j + 1} {v:.17g}")
        else:
            for row, col, v in zip(coo.row, coo.col, coo.data):
                lines.append(f"{row + 1} {bi + 1} {col + 1} {col + 1} {v:.17g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _tokens(line: str):
    for ch in "{}(),\"":
        line = line.replace(ch, " ")
    return line.split()


def parse_sdpa(path) -> SdpProblem:
    """Read an SDPA sparse file into canonical form."""
    raw = []
    with open(path) as fh:
        for line in fh:
            stripped = line.strip()
            if not stripped or stripped.startswith("*") or stripped.startswith('"'):
                continue
            raw.append(stripped)
    if len(raw) < 4:
        raise InvalidInput("truncated SDPA file")
    try:
        m = int(_tokens(raw[0])[0])
        nblocks = int(_tokens(raw[1])[0])
        sizes = [int(t) for t in _tokens(raw[2])]
        b = np.array([float(t) for t in _tokens(raw[3])])
    except (ValueError, IndexError) as exc:
        raise InvalidInput(f"malformed SDPA header: {exc}") from exc
    if len(sizes) != nblocks:
        raise InvalidInput("block size count disagrees with block count")
    if b.size != m:
        raise InvalidInput("objective vector length disagrees with constraint count")
    if any(s == 0 for s in sizes):
        raise InvalidInput("zero block size")

    entries = ([], [], [], [], [])  # block, matrix, i, j, value
    for lineno, line in enumerate(raw[4:], start=5):
        toks = _tokens(line)
        if len(toks) != 5:
            raise InvalidInput(f"line {lineno}: expected 5 fields, got {len(toks)}")
        try:
            matno = int(toks[0])
            blkno = int(toks[1]) - 1
            i = int(toks[2]) - 1
            j = int(toks[3]) - 1
            val = float(toks[4])
        except ValueError as exc:
            raise InvalidInput(f"line {lineno}: {exc}") from exc
        if not 0 <= blkno < nblocks:
            raise InvalidInput(f"line {lineno}: block {blkno + 1} out of range")
        if not 0 <= matno <= m:
            raise InvalidInput(f"line {lineno}: matrix {matno} out of range")
        size = sizes[blkno]
        dim = size if size > 0 else -size
        if not (0 <= i < dim and 0 <= j < dim):
            raise InvalidInput(f"line {lineno}: entry ({i + 1}, {j + 1}) out of range")
        if size < 0 and i != j:
            raise InvalidInput(f"line {lineno}: off-diagonal entry in diagonal block")
        for column, v in zip(entries, (blkno, matno, i, j, val)):
            column.append(v)
    c, a = _program_data(m, sizes, *entries)
    # F_0 = -C
    return SdpProblem(tuple(sizes), -c, a, b, {"source": str(path)})
