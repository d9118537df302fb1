import json

import numpy as np
import pytest

from spectracon import sdpcore
from spectracon.cli import build_parser, main
from spectracon.families import disk_pair
from spectracon.momrelax import solve_mu_mom
from spectracon.pencil import (elliptope_pencil, ellipsoid_pencil, load_pencil, pencil,
                               save_pencil)
from spectracon.sdpa import parse_sdpa
from spectracon.sdpcore import SolveStatus, solve
from spectracon.sosrelax import lambda_sos


@pytest.fixture
def disk_files(tmp_path):
    prefix = str(tmp_path / "disk")
    assert main(["gen", "disk", "--nu", "0.7", "--out", prefix]) == 0
    return prefix + "_a.json", prefix + "_b.json"


def test_gen_writes_pencil_pair(disk_files):
    for path, expected in zip(disk_files, disk_pair(0.7)):
        p = load_pencil(path)
        assert (p.n, p.k) == (expected.n, expected.k)
        for got, want in zip(p.coeffs, expected.coeffs):
            assert np.array_equal(got.mat, want.mat)


def test_check_certified_exit_zero(disk_files, capsys):
    a, b = disk_files
    code = main(["check", a, b])
    out = capsys.readouterr().out
    assert code == 0
    assert "Certified" in out


def test_check_json_output(disk_files, tmp_path, capsys):
    # order 0 certifies nu = 0.7, and the verdict names that machine
    a, b = disk_files
    code = main(["check", a, b, "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["status"] == "Certified"
    assert (payload["method"], payload["order"]) == ("sos", 0)
    assert payload["value"] == pytest.approx(0.010051, abs=1e-4)
    assert payload["details"]["solve_status"] == "optimal"
    # nu = 0.9 needs the order-3 moment relaxation
    prefix = str(tmp_path / "mid")
    main(["gen", "disk", "--nu", "0.9", "--out", prefix])
    capsys.readouterr()
    code = main(["check", prefix + "_a.json", prefix + "_b.json", "--order", "3",
                 "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert (payload["method"], payload["order"]) == ("moment", 3)
    assert payload["value"] == pytest.approx(0.1, abs=2e-3)
    assert payload["details"]["solve_status"] == "optimal"
    assert payload["details"]["order0"]["solve_status"] == "optimal"
    # the size of the solved relaxation, reduced by its sign flips
    assert payload["details"]["moments"] == 59
    assert payload["details"]["block_sizes"] == [11, 8, 8, 8, 15, 9, 9, 12, 6, 3, 3, 3,
                                                 6, 3, 3, 3]


def test_check_json_emits_details(tmp_path, capsys):
    prefix = str(tmp_path / "wide")
    main(["gen", "disk", "--nu", "1.2", "--out", prefix])
    capsys.readouterr()
    code = main(["check", prefix + "_a.json", prefix + "_b.json", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    # refuted on the boundary, before any relaxation is solved
    assert payload["method"] == "boundary"
    assert payload["details"]["witness_source"] == "boundary"
    assert payload["details"]["tolerance"] == pytest.approx(2e-7)
    assert len(payload["witness"]["x"]) == 2


def test_check_json_names_the_order0_point(tmp_path, capsys):
    prefix = str(tmp_path / "rand")
    main(["gen", "random", "--seed", "11", "--out", prefix])
    capsys.readouterr()
    code = main(["check", prefix + "_a.json", prefix + "_b.json", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    # the boundary points miss; the order-0 Gram program's point refutes, so
    # the order-2 relaxation is never built
    assert payload["status"] == "Refuted"
    assert (payload["method"], payload["order"]) == ("sos", 0)
    assert payload["details"]["witness_source"] == "solution"
    assert "order0" not in payload["details"]
    assert len(payload["witness"]["x"]) == 3
    assert payload["witness"]["b_margin"] < -payload["details"]["tolerance"]


def test_check_json_arrays_and_non_finite_values(tmp_path, capsys):
    # lineality mismatch: details carry the direction array
    inner = pencil([np.eye(2), np.zeros((2, 2))])
    save_pencil(inner, str(tmp_path / "line.json"))
    save_pencil(ellipsoid_pencil([1.0]), str(tmp_path / "interval.json"))
    main(["check", str(tmp_path / "line.json"), str(tmp_path / "interval.json"),
          "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "lineality"
    direction = payload["details"]["direction"]
    assert isinstance(direction, list) and len(direction) == 1
    # empty inner set: the value is +inf, emitted as null
    empty = pencil([np.diag([-1.0, -1.0]), np.diag([1.0, -1.0])])
    save_pencil(empty, str(tmp_path / "empty.json"))
    main(["check", str(tmp_path / "empty.json"), str(tmp_path / "interval.json"),
          "--json"])
    text = capsys.readouterr().out
    payload = json.loads(text)
    assert payload["status"] == "Certified"
    assert payload["value"] is None
    assert "Infinity" not in text and "NaN" not in text


def test_check_refuted_exit_one(tmp_path, capsys):
    prefix = str(tmp_path / "wide")
    main(["gen", "disk", "--nu", "1.2", "--out", prefix])
    code = main(["check", prefix + "_a.json", prefix + "_b.json"])
    assert code == 1
    assert "Refuted" in capsys.readouterr().out


def test_check_inconclusive_exit_two(tmp_path, capsys):
    prefix = str(tmp_path / "mid")
    main(["gen", "disk", "--nu", "0.9", "--out", prefix])
    code = main(["check", prefix + "_a.json", prefix + "_b.json"])
    assert code == 2


def test_missing_file_is_usage_error(capsys):
    assert main(["check", "/nonexistent_a.json", "/nonexistent_b.json"]) == 64


def test_check_without_samples_is_usage_error(tmp_path, capsys):
    prefix = str(tmp_path / "wide")
    main(["gen", "disk", "--nu", "1.1", "--out", prefix])
    code = main(["check", prefix + "_a.json", prefix + "_b.json", "--samples", "0"])
    assert code == 64
    assert "samples" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["moment", "sos", "sdfp"])
def test_check_with_a_bad_annulus_is_usage_error(disk_files, capsys, method):
    a, b = disk_files
    assert main(["check", a, b, "--method", method, "--r", "-1"]) == 64
    assert "0 < r <= R" in capsys.readouterr().err


def test_shrink_reports_factor(tmp_path, capsys):
    prefix = str(tmp_path / "mid")
    main(["gen", "disk", "--nu", "0.9", "--out", prefix])
    code = main(["shrink", prefix + "_a.json", prefix + "_b.json"])
    out = capsys.readouterr().out
    assert code == 0
    assert "certified factor" in out
    factor = float(out.split("certified factor")[1].split()[0])
    assert factor * 0.9 == pytest.approx(1.0 / np.sqrt(2.0), abs=5e-3)


def _is_float(tok):
    try:
        float(tok)
        return True
    except ValueError:
        return False


def test_radius_command(tmp_path, capsys):
    prefix = str(tmp_path / "el")
    main(["gen", "ball-elliptope", "--l", "3", "--out", prefix])
    code = main(["radius", prefix + "_b.json"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Bounded" in out
    assert any(abs(float(t) - 3.0) < 1e-4 for t in out.split() if _is_float(t))


def test_radius_below_order_one_is_usage_error_before_any_solve(disk_files, capsys):
    a, _ = disk_files
    assert main(["radius", a, "--order", "0"]) == 64
    captured = capsys.readouterr()
    assert "boundedness:" not in captured.out
    assert "order" in captured.err


def test_render_command(tmp_path, disk_files):
    a, _ = disk_files
    out = str(tmp_path / "a.svg")
    code = main(["render", a, "--out", out, "--res", "24", "--box", "1.2"])
    assert code == 0
    assert open(out).read().startswith("<svg")


@pytest.mark.parametrize("mode", ["slice", "projection"])
def test_render_without_a_grid_is_usage_error(tmp_path, disk_files, capsys, mode):
    a, _ = disk_files
    out = tmp_path / "a.svg"
    code = main(["render", a, "--out", str(out), "--mode", mode, "--res", "0"])
    assert code == 64
    assert "resolution" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("machine, order, blocks",
                         [("moment", 2, (6, 3, 3, 3, 5, 3, 3, 4, 2, 1, 1, 1, 2, 1, 1, 1)),
                          ("sos", 0, (3, 3, 1, 1))],
                         ids=["moment", "sos"])
def test_export_round_trips_through_sdpa(tmp_path, disk_files, machine, order,
                                         blocks):
    a, b = disk_files
    out = str(tmp_path / "m.dat-s")
    assert main(["export", a, b, "--machine", machine, "--order", str(order),
                 "--out", out]) == 0
    prob = parse_sdpa(out)
    assert tuple(prob.block_sizes) == blocks
    assert solve(prob).status is SolveStatus.OPTIMAL


@pytest.mark.parametrize("machine, order, solution", [
    ("moment", 2, lambda a, b: solve_mu_mom(a, b, 2).solution),
    ("sos", 0, lambda a, b: lambda_sos(a, b, 0).solution),
], ids=["moment", "sos"])
def test_export_writes_the_solved_program(tmp_path, disk_files, machine, order,
                                          solution):
    out = str(tmp_path / "m.dat-s")
    assert main(["export", *disk_files, "--machine", machine, "--order", str(order),
                 "--out", out]) == 0
    prob = parse_sdpa(out)
    sol = solution(*disk_pair(0.7))
    assert prob.block_sizes == tuple(x.shape[0] if x.ndim == 2 else -x.size
                                     for x in sol.x_blocks)
    assert prob.m == sol.y.size


def test_reproduce_single_table(tmp_path, capsys):
    code = main(["reproduce", "--table", "circumradius",
                 "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "circumradius.csv").exists()


def test_radius_without_a_reliable_bound_exits_70(tmp_path, capsys, monkeypatch):
    path = str(tmp_path / "el.json")
    save_pencil(elliptope_pencil(3), path)
    monkeypatch.setattr(sdpcore, "_MAX_CONSTRAINTS", 5)
    code = main(["radius", path])
    out = capsys.readouterr().out
    assert code == 70
    assert "no reliable bound (order 2, inaccurate)" in out
    assert "exceeds the dense Schur limit of 5" in out
    assert "<=" not in out


def test_check_options_all_have_help():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    check = sub.choices["check"]
    assert all(action.help for action in check._actions)
