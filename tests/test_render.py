import numpy as np
import pytest

from spectracon.errors import InvalidInput
from spectracon.pencil import ellipsoid_pencil, elliptope_pencil
from spectracon.render import (mask_to_svg, projection_mask, render_slice,
                               slice_mask)


def test_slice_mask_fill_fraction_matches_area():
    p = ellipsoid_pencil([1.0, 1.0])
    mask = slice_mask(p, box=(-1.5, 1.5), res=60)
    frac = float(mask.mean())
    assert abs(frac - np.pi / 9.0) < 0.02  # unit disk inside a 3x3 box


def test_slice_mask_respects_base_point():
    # slicing a 3-variable ellipsoid off center shrinks the disk
    p = ellipsoid_pencil([1.0, 1.0, 1.0])
    full = slice_mask(p, axes=(0, 1), base=np.zeros(3), box=(-1.2, 1.2), res=50)
    off = slice_mask(p, axes=(0, 1), base=np.array([0.0, 0.0, 0.8]),
                     box=(-1.2, 1.2), res=50)
    assert off.sum() < full.sum()


def test_projection_mask_covers_slice():
    p = elliptope_pencil(3)
    box = (-1.1, 1.1)
    sl = slice_mask(p, axes=(0, 1), base=np.zeros(3), box=box, res=16)
    pr = projection_mask(p, axes=(0, 1), box=box, res=16)
    assert np.all(pr[sl])  # projection contains every feasible slice cell


def test_svg_output_shape():
    p = ellipsoid_pencil([1.0, 0.5])
    svg = render_slice(p, box=(-1.2, 1.2), res=40)
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("-->") or "</svg>" in svg
    assert svg.count("<rect") > 5


def test_render_is_deterministic(tmp_path):
    p = ellipsoid_pencil([1.0, 0.5])
    a = render_slice(p, box=(-1.2, 1.2), res=30)
    b = render_slice(p, path=tmp_path / "out.svg", box=(-1.2, 1.2), res=30)
    assert a == b
    assert (tmp_path / "out.svg").read_text() == a


def test_mask_to_svg_handles_empty_mask():
    svg = mask_to_svg(np.zeros((8, 8), dtype=bool), (-1.0, 1.0))
    assert "<svg" in svg
    assert svg.count('class="cell"') == 0 or svg.count("<rect") <= 1


def test_mask_to_svg_rejects_a_mask_without_cells():
    with pytest.raises(InvalidInput):
        mask_to_svg(np.zeros((0, 0), dtype=bool), (-1.0, 1.0))
