"""spectracon benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload verdict-moment --seed 0 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One process drives the package through its public functions in
a closed loop: each request is sent only after the previous one returned.
The workload's fixed request list (one pass) is repeated while another
pass still fits in ``--seconds``; every answer is checked against an
independent reference afterwards.

``--trace 0`` prints the end-to-end metrics; set-up is timed in this
process and in fresh child processes, and the median is reported.
``--trace 1`` runs one untraced pass, then one pass with every public
function of every layer wrapped, and prints the per-layer metrics and the
tracing overhead.  The last stdout line is the JSON result; a full record
(environment, instance sizes, per-request answers) goes to
``perfbench/out/``.  Exit status: 0 when every answer checks out, 1 when
one does not, 2 when the package cannot be found.
"""

from __future__ import annotations

import os
import sys
import time

_T0 = time.perf_counter()

# BLAS threads are fixed before numpy loads; one thread keeps runs steady
# and within nproc on any machine
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 3      # this process plus fresh child processes
CHILD_TIMEOUT_S = 120

# the metrics of the result line, as listed in BENCHMARK.json
END_TO_END = {
    "setup_s": "s", "wall_s": "s", "latency_p50_s": "s",
    "decided_ratio": "1", "optimal_ratio": "1", "peak_rss_mb": "MB",
}
# printed and recorded only: the tail moves by up to a quarter of its median
# between seeds, with how many refutable pairs land above its percentile
REPORTED = {"latency_tail_s": "s"}


def _fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def _import_workloads():
    if not (SRC / "spectracon" / "__init__.py").is_file():
        _fail(f"no spectracon package under {SRC}; run from a source checkout")
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads
    return workloads


# ---------------------------------------------------------------------------
# Set-up


def set_up(name: str, seed: int, tracer=None):
    """Generate the instances, build the requests and warm up once.

    Returns the request list; the caller times the call.  With a tracer,
    only instance generation is traced.
    """
    wl = _import_workloads().WORKLOADS[name]
    if tracer is not None:
        tracer.install()
    try:
        requests = wl.build(seed)
    finally:
        if tracer is not None:
            tracer.uninstall()
    wl.warmup()
    return requests


def setup_samples(name: str, seed: int, first: float) -> list[float]:
    """Set-up times: ``first`` from this process, the rest from children."""
    times = [first]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-only"]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        if done.returncode != 0:
            _fail(f"set-up child failed:\n{done.stderr}", 1)
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return times


# ---------------------------------------------------------------------------
# Measurement


class Pass:
    """One closed-loop sweep over the request list."""

    def __init__(self, requests, tracer=None):
        self.latencies = []
        self.results = []   # (result, error text)
        self.roots = []     # root span index per request, when traced
        start = time.perf_counter()
        for req in requests:
            t0 = time.perf_counter()
            if tracer is not None:
                self.roots.append(tracer.open("bench.request"))
            try:
                self.results.append((req.call(), None))
            except Exception as exc:  # a failing request is counted, not fatal
                self.results.append((None, f"{type(exc).__name__}: {exc}"))
            finally:
                if tracer is not None:
                    tracer.close(self.roots[-1])
            self.latencies.append(time.perf_counter() - t0)
        self.wall = time.perf_counter() - start


def measure(requests, seconds: float) -> list[Pass]:
    """Repeat passes while the next one is expected to end within seconds."""
    start = time.perf_counter()
    passes = [Pass(requests)]
    while time.perf_counter() - start + passes[-1].wall <= seconds:
        passes.append(Pass(requests))
    return passes


def tail_percentile(n: int) -> int:
    """Highest multiple-of-5 percentile with at least ten of n samples beyond
    it, and the median when n is below 20."""
    return max(50, int(math.floor(20.0 * (1.0 - 10.0 / n))) * 5) if n > 10 else 50


def _same(x, y) -> bool:
    if isinstance(x, float) and isinstance(y, float):
        return x == y or (math.isnan(x) and math.isnan(y))
    return x == y


def check_answers(wl_mod, requests, passes):
    """Outcomes of the first pass, and every error or wrong answer.

    The first pass is checked against the references; later passes must
    repeat its answers exactly, since the package is deterministic.
    """
    outcomes, errors = [], []
    for req, (res, err) in zip(requests, passes[0].results):
        if err is not None:
            outcomes.append(None)
            errors.append((req.label, err))
            continue
        outcomes.append(wl_mod.outcome(req.kind, res))
        reason = req.check(res)
        if reason is not None:
            errors.append((req.label, reason))
    for later in passes[1:]:
        for req, first, (res, err) in zip(requests, outcomes, later.results):
            if err is not None:
                errors.append((req.label, err))
            elif first is not None:
                again = wl_mod.outcome(req.kind, res)
                if not all(_same(first[key], again[key]) for key in first):
                    errors.append((req.label, f"answer changed: {first} -> {again}"))
    return outcomes, errors


def end_to_end(requests, passes, outcomes, setup_times):
    """End-to-end metrics for the result line, the reported-only ones, and
    the tail percentile used."""
    lat = sorted(x for p in passes for x in p.latencies)
    pct = tail_percentile(len(requests))
    solver = [o["solver"] for o in outcomes if o is not None and o["solver"]]
    decided = sum(1 for o in outcomes if o is not None and o["decided"])
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(p.wall for p in passes),
        "latency_p50_s": _percentile(lat, 50),
        "latency_tail_s": _percentile(lat, pct),
        "decided_ratio": decided / len(requests),
        "optimal_ratio": (sum(s == "optimal" for s in solver) / len(solver)
                          if solver else float("nan")),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    units = {**END_TO_END, **REPORTED}
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    return ({k: metrics[k] for k in END_TO_END}, {k: metrics[k] for k in REPORTED},
            pct)


def _percentile(sorted_values, pct: float) -> float:
    """Linear-interpolation percentile of an ascending list."""
    pos = (len(sorted_values) - 1) * pct / 100.0
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


# ---------------------------------------------------------------------------
# Traced run


PER_LAYER_UNITS = {
    "sdpcore.solve.calls": "count", "sdpcore.solve.s": "s",
    "sdpcore.iterations": "count", "sdpcore.s_per_iter": "s",
    "sdpcore.m_max": "count", "sdpcore.schur_factor_gflop": "GFLOP",
    "sdpcore.not_optimal": "count", "sdpcore.feasibility_probe.self_s": "s",
    "momrelax.containment_relaxation.s": "s", "momrelax.solve_mu_mom.self_s": "s",
    "momrelax.moments": "count", "momrelax.max_block": "count",
    "sosrelax.sos_relaxation.s": "s", "sosrelax.lambda_sos.self_s": "s",
    "sosrelax.equations": "count",
    "posmap.cp_sdfp.calls": "count", "posmap.cp_sdfp.self_s": "s",
    "radii.circumradius_sq.self_s": "s", "radii.boundedness_certificate.self_s": "s",
    "sampling.refutation_search.self_s": "s", "sampling.refutation_search.s": "s",
    "sampling.sample_spectrahedron.self_s": "s", "sampling.interior_point.self_s": "s",
    "sampling.hit_ratio": "1",
    "reduce.split_lineality.s": "s",
    "verdict.check_containment.calls": "count",
    "verdict.check_containment.self_s": "s",
    "families.random_pair.s": "s",
    "trace.wall_s": "s", "trace.overhead_s": "s",
}


def per_layer(tracer, setup_tracer, traced_wall: float, untraced_wall: float):
    """Per-layer metrics of the traced pass, and the reasons for any absent."""
    spans = tracer.summary()
    setup_spans = setup_tracer.summary()
    counters, maxima = tracer.counters, tracer.maxima

    def span(name, key, table=spans):
        return table.get(name, {}).get(key, 0)

    iters = counters["sdpcore.iterations"]
    searches = counters["sampling.searches"]
    values = {}
    absent = {}
    for name in PER_LAYER_UNITS:
        head, _, key = name.rpartition(".")
        if name == "sdpcore.s_per_iter":
            values[name] = span("sdpcore.solve", "s") / iters if iters else 0.0
        elif name == "sampling.hit_ratio":
            values[name] = counters["sampling.hits"] / searches if searches else 0.0
        elif name in ("sdpcore.m_max", "momrelax.max_block"):
            values[name] = maxima[name]
        elif name == "families.random_pair.s":
            values[name] = span("families.random_pair", "s", setup_spans)
        elif name == "trace.wall_s":
            values[name] = traced_wall
        elif name == "trace.overhead_s":
            values[name] = traced_wall - untraced_wall
        elif key in ("s", "self_s", "calls"):
            values[name] = span(head, key)
            if head not in spans:
                absent[name] = f"{head} is not called on this workload"
        else:
            values[name] = counters[name]
        layer = name.split(".")[0]
        if layer not in ("trace", "families") and not any(
                s.startswith(layer + ".") for s in spans):
            absent[name] = f"layer {layer} is not called on this workload"
    metrics = {k: {"value": float(v), "unit": PER_LAYER_UNITS[k]}
               for k, v in values.items()}
    return metrics, absent


# ---------------------------------------------------------------------------
# Environment and record


def environment(seed: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }
    try:  # threads of this process after BLAS has run, Linux only
        with open("/proc/self/status") as fh:
            env["process_threads"] = next(
                int(line.split()[1]) for line in fh if line.startswith("Threads:"))
    except (OSError, StopIteration):
        pass
    return env


def instance_rows(requests, outcomes, latencies, tracer=None, roots=()):
    rows = []
    solves_by_root = {}
    if tracer is not None:
        for rec in tracer.solves:
            solves_by_root.setdefault(rec["root"], []).append(
                {k: rec[k] for k in ("m", "blocks", "iterations", "status")})
    for i, (req, out, lat) in enumerate(zip(requests, outcomes, latencies)):
        row = {"request": req.label, **req.sizes, "latency_s": lat,
               "answer": None if out is None else out["status"],
               "value": None if out is None else out["value"]}
        if roots:
            row["solves"] = solves_by_root.get(roots[i], [])
        rows.append(row)
    return rows


def _write_record(name, seed, trace, record):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1, default=float) + "\n")
    return path


# ---------------------------------------------------------------------------
# Entry point


def run(name: str, seed: int, seconds: float, trace: bool,
        setup_start: float | None = None) -> dict:
    """Run one workload; returns the full record (see module docstring)."""
    wl_mod = _import_workloads()
    if trace:
        from spans import Tracer
        setup_tracer = Tracer()
        requests = set_up(name, seed, setup_tracer)
        untraced = Pass(requests)
        tracer = Tracer().install()
        try:
            traced = Pass(requests, tracer)
        finally:
            tracer.uninstall()
        passes = [untraced, traced]
    else:
        t0 = time.perf_counter() if setup_start is None else setup_start
        requests = set_up(name, seed)
        first_setup = time.perf_counter() - t0
        passes = measure(requests, seconds)
    outcomes, errors = check_answers(wl_mod, requests, passes)
    attempted = len(requests) * len(passes)
    record = {"workload": name, "environment": environment(seed),
              "passes": len(passes), "requests_per_pass": len(requests),
              "attempted": attempted, "failed": len(errors),
              "error_ratio": len(errors) / attempted,
              "errors": [{"request": lab, "error": why} for lab, why in errors]}
    if trace:
        metrics, absent = per_layer(tracer, setup_tracer, traced.wall, untraced.wall)
        record.update(metrics=metrics, absent=absent,
                      spans=tracer.summary(), layers=tracer.layer_summary(),
                      setup_layers=setup_tracer.layer_summary(),
                      self_sum_s=sum(v["self_s"] for v in tracer.summary().values()),
                      counters=dict(tracer.counters),
                      instances=instance_rows(requests, outcomes, untraced.latencies,
                                               tracer, traced.roots))
    else:
        times = setup_samples(name, seed, first_setup)
        metrics, reported, pct = end_to_end(requests, passes, outcomes, times)
        record.update(metrics=metrics, reported=reported, setup_samples_s=times,
                      tail=f"p{pct} of {sum(len(p.latencies) for p in passes)} samples",
                      instances=instance_rows(requests, outcomes, passes[0].latencies))
    return record


def report(record, path):
    env = record["environment"]
    print(f"workload {record['workload']}: {record['passes']} pass(es) x "
          f"{record['requests_per_pass']} requests, closed loop, 1 caller")
    print("environment " + json.dumps(env, sort_keys=True))
    for key, m in {**record["metrics"], **record.get("reported", {})}.items():
        note = ""
        if key == "latency_tail_s":
            note = f"  ({record['tail']}; not in the result line)"
        elif key in record.get("absent", {}):
            note = f"  (absent: {record['absent'][key]})"
        print(f"  {key:<40} {m['value']:.6g} {m['unit']}{note}")
    print(f"  {'error_ratio':<40} {record['error_ratio']:.6g} 1  "
          f"({record['failed']} of {record['attempted']})")
    for err in record["errors"]:
        print(f"  WRONG {err['request']}: {err['error']}")
    print(f"record written to {path.relative_to(ROOT)}")
    print(json.dumps({"correct": record["failed"] == 0,
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": record["metrics"]}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and print it (used for set-up samples)")
    args = parser.parse_args(argv)
    wl_mod = _import_workloads()
    if args.workload not in wl_mod.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; "
              f"choose from {', '.join(wl_mod.WORKLOADS)}")
    if args.setup_only:
        set_up(args.workload, args.seed)
        print(json.dumps({"setup_s": time.perf_counter() - _T0}))
        return 0
    record = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 setup_start=_T0)
    report(record, _write_record(args.workload, args.seed, args.trace, record))
    return 0 if record["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
