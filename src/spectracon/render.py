"""Deterministic SVG rasterization of spectrahedron slices and shadows.

Membership is evaluated on a regular grid and emitted as run-length merged
rectangles, so the output is small, diff-stable, and needs no drawing
libraries.  Slices fix all but two coordinates; projections decide each
cell by checking feasibility of the remaining variables.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput
from .pencil import LinearPencil, pencil
from .sdpcore import feasibility_probe
from .symcore import is_psd

_FILL = "#346d9e"
_EDGE = "#1d3d59"


def _axis_box(box) -> tuple[float, float]:
    if box is None:
        return (-2.0, 2.0)
    lo, hi = float(box[0]), float(box[1])
    if not lo < hi:
        raise InvalidInput("box must satisfy lo < hi")
    return lo, hi


def _grid(box, res):
    if res < 1:
        raise InvalidInput("grid resolution must be positive")
    lo, hi = box
    # cell centers
    return lo + (hi - lo) * (np.arange(res) + 0.5) / res


def slice_mask(p: LinearPencil, axes=(0, 1), base=None, box=None,
               res: int = 160) -> np.ndarray:
    """Boolean membership grid of a 2d coordinate slice, shape (res, res).

    Row index runs over the second axis (plot ordinate), column over the
    first.  Coordinates off the chosen axes are held at `base` (default 0).
    """
    i, j = axes
    if not (0 <= i < p.n and 0 <= j < p.n and i != j):
        raise InvalidInput("axes must be two distinct coordinate indices")
    x = np.zeros(p.n) if base is None else np.asarray(base, dtype=float).copy()
    if x.shape != (p.n,):
        raise InvalidInput(f"base point needs {p.n} coordinates")
    ticks = _grid(_axis_box(box), res)
    const = p.evaluate(x).mat - x[i] * p.coeffs[i + 1].mat \
        - x[j] * p.coeffs[j + 1].mat
    ai, aj = p.coeffs[i + 1].mat, p.coeffs[j + 1].mat
    mask = np.zeros((res, res), dtype=bool)
    for r, v in enumerate(ticks):
        row_const = const + v * aj
        for c, u in enumerate(ticks):
            mask[r, c] = is_psd(row_const + u * ai)
    return mask


def projection_mask(p: LinearPencil, axes=(0, 1), box=None,
                    res: int = 60) -> np.ndarray:
    """Membership grid of the shadow of S_A on two coordinates.

    Each cell center (u, v) is marked when the pencil restricted to the
    remaining variables stays feasible; those small feasibility problems
    dominate the cost, hence the coarser default grid.
    """
    i, j = axes
    if not (0 <= i < p.n and 0 <= j < p.n and i != j):
        raise InvalidInput("axes must be two distinct coordinate indices")
    rest = [q for q in range(p.n) if q not in (i, j)]
    ticks = _grid(_axis_box(box), res)
    mask = np.zeros((res, res), dtype=bool)
    for r, v in enumerate(ticks):
        for c, u in enumerate(ticks):
            const = p.coeffs[0].mat + u * p.coeffs[i + 1].mat \
                + v * p.coeffs[j + 1].mat
            if not rest:
                mask[r, c] = is_psd(const)
                continue
            sub = pencil([const] + [p.coeffs[q + 1].mat for q in rest])
            probe = feasibility_probe(sub)
            mask[r, c] = probe.kind == "NonEmpty"
    return mask


def mask_to_svg(mask: np.ndarray, box=None, size: int = 480,
                title: str = "") -> str:
    """Run-length encoded SVG of a boolean grid, origin bottom-left."""
    if np.ndim(mask) != 2 or np.size(mask) == 0:
        raise InvalidInput("mask must be a nonempty 2d grid")
    res_r, res_c = mask.shape
    lo, hi = box if box is not None else (-2.0, 2.0)
    cw = size / res_c
    ch = size / res_r
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{size}" viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    if title:
        parts.append(f"<title>{title}</title>")
    fmt = "{:.2f}"
    for r in range(res_r):
        y = fmt.format(size - (r + 1) * ch)  # flip so the ordinate grows upward
        c = 0
        row = mask[r]
        while c < res_c:
            if not row[c]:
                c += 1
                continue
            start = c
            while c < res_c and row[c]:
                c += 1
            parts.append(
                f'<rect x="{fmt.format(start * cw)}" y="{y}" '
                f'width="{fmt.format((c - start) * cw)}" '
                f'height="{fmt.format(ch)}" fill="{_FILL}"/>')
    parts.append(f'<rect width="{size}" height="{size}" fill="none" '
                 f'stroke="{_EDGE}" stroke-width="2"/>')
    parts.append(f'<!-- box [{lo:g},{hi:g}]^2, grid {res_c}x{res_r} -->')
    parts.append("</svg>")
    return "\n".join(parts)


def render_slice(p: LinearPencil, path=None, axes=(0, 1), base=None,
                 box=None, res: int = 160) -> str:
    box = _axis_box(box)
    svg = mask_to_svg(slice_mask(p, axes, base, box, res), box,
                      title=f"slice axes {axes}")
    if path is not None:
        with open(path, "w") as fh:
            fh.write(svg)
    return svg


def render_projection(p: LinearPencil, path=None, axes=(0, 1), box=None,
                      res: int = 60) -> str:
    box = _axis_box(box)
    svg = mask_to_svg(projection_mask(p, axes, box, res), box,
                      title=f"projection axes {axes}")
    if path is not None:
        with open(path, "w") as fh:
            fh.write(svg)
    return svg
