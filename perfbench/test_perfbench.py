"""Self-tests of the benchmark.

    python3 -m pytest perfbench -q

The traced-run tests run every workload listed in BENCHMARK.json, and
moment-o3, twice at seed 0 (about six minutes on two cores); the rest take
seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

wl_mod = run._import_workloads()

import reference as ref  # noqa: E402
import spans  # noqa: E402
from spectracon import families  # noqa: E402
from spectracon.verdict import Verdict  # noqa: E402

LISTED_WORKLOADS = ("verdict-moment", "verdict-certificates")
TRACED_WORKLOADS = LISTED_WORKLOADS + ("moment-o3",)
REPEATED_COUNTS = ("sdpcore.iterations", "sdpcore.solve.calls",
                   "momrelax.moments", "sdpcore.schur_factor_gflop")


@pytest.fixture(scope="module")
def traced():
    """Two traced runs per workload, same seed."""
    return {name: [run.run(name, 0, 0.0, trace=True) for _ in range(2)]
            for name in TRACED_WORKLOADS}


@pytest.mark.parametrize("name", TRACED_WORKLOADS)
def test_every_listed_layer_is_reached(traced, name):
    record = traced[name][0]
    calls = {layer: rec["calls"] for layer, rec in record["layers"].items()}
    for layer, rec in record["setup_layers"].items():
        calls[layer] = calls.get(layer, 0) + rec["calls"]
    missing = [layer for layer in wl_mod.WORKLOADS[name].layers
               if calls.get(layer, 0) < 1]
    assert not missing, f"{name}: no call recorded in {missing}"


@pytest.mark.parametrize("name", TRACED_WORKLOADS)
def test_self_times_sum_to_traced_wall(traced, name):
    record = traced[name][0]
    wall = record["metrics"]["trace.wall_s"]["value"]
    assert abs(record["self_sum_s"] - wall) <= 0.01 * wall


def _answers(record):
    """Per-request answers, solve sizes and statuses, without timings."""
    return [{k: v for k, v in row.items() if k != "latency_s"}
            for row in record["instances"]]


@pytest.mark.parametrize("name", TRACED_WORKLOADS)
def test_counts_and_answers_repeat(traced, name):
    first, second = traced[name]
    for key in REPEATED_COUNTS:
        assert first["metrics"][key] == second["metrics"][key], key
    assert _answers(first) == _answers(second)
    assert first["failed"] == second["failed"] == 0


def test_tracer_rebinds_names_imported_elsewhere():
    import spectracon
    from spectracon import momrelax, posmap, radii, sdpcore, sosrelax, verdict
    original = sdpcore.solve
    tracer = spans.Tracer().install()
    try:
        for mod in (sdpcore, momrelax, sosrelax, posmap, radii, spectracon):
            assert mod.solve is not original and mod.solve.__wrapped__ is original
        for name in ("solve_mu_mom", "lambda_sos", "cp_sdfp", "split_lineality",
                     "refutation_search", "interior_point", "feasibility_probe"):
            assert hasattr(getattr(verdict, name), "__wrapped__"), name
        spectracon.solve_mu_mom(*families.disk_pair(0.7), 2)
    finally:
        tracer.uninstall()
    assert sdpcore.solve is original and momrelax.solve is original
    summary = tracer.summary()
    assert summary["sdpcore.solve"]["calls"] == 1
    assert summary["momrelax.containment_relaxation"]["calls"] == 1
    assert tracer.counters["momrelax.moments"] == 69


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} == set(LISTED_WORKLOADS)
    assert set(LISTED_WORKLOADS) <= set(wl_mod.WORKLOADS)


def test_tail_percentile_leaves_ten_samples_beyond():
    for n in (20, 23, 57, 79, 100, 151, 302, 1000):
        p = run.tail_percentile(n)
        assert n * (1 - p / 100) >= 10 - 1e-9
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(11) == run.tail_percentile(5) == 50


def _fake(label, result, reason=None):
    return wl_mod.Request(label, "verdict", lambda: result, lambda r: reason, {})


def test_wrong_answers_and_exceptions_are_counted():
    ok = Verdict("Certified", 0.1, 2, "moment", None, {})
    reqs = [_fake("ok", ok), _fake("wrong", ok, "closed form says Refuted"),
            wl_mod.Request("boom", "verdict", lambda: 1 / 0, lambda r: None, {})]
    passes = [run.Pass(reqs)]
    _, errors = run.check_answers(wl_mod, reqs, passes)
    assert [lab for lab, _ in errors] == ["wrong", "boom"]


def test_reference_checks_reject_bad_answers():
    inner, outer = families.disk_pair(0.8)
    inst = wl_mod.Instance("disk(0.8)", inner, outer, {"nu": 0.8})
    check = wl_mod._verdict_check(inst, "moment", 2, 0)
    inside = {"x": [0.1, 0.1], "b_margin": -1.0, "a_margin": 0.5}
    assert "witness" in check(Verdict("Refuted", -1.0, 2, "moment", inside, {}))
    assert "1/sqrt(2)" in check(Verdict("Certified", 0.0, 2, "moment", None, {}))
    assert check(Verdict("Inconclusive", -0.1, 2, "moment", None, {})) is None
    # a Certified random-looking pair that is not contained gets caught
    big, unit = families.disk_pair(1.3)
    plain = wl_mod.Instance("plain", big, unit)
    bad = wl_mod._verdict_check(plain, "moment", 2, 0)
    assert bad(Verdict("Certified", 0.0, 2, "moment", None, {})) is not None
    pts = ref.hit_and_run(ref.coefficients(big), 50, 1)
    assert ref.max_norm_sq(pts) <= 1.3 ** 2 + 1e-9


def test_exits_nonzero_without_the_package(tmp_path):
    here = Path(run.__file__).resolve().parent
    shutil.copytree(here, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "moment-o3", "--seed", "0", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
