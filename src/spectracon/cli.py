"""Command line front end.

Subcommands mirror the library surface: check a containment, bound a
circumradius, generate reference instances, render pictures, export
relaxations in SDPA sparse format, and regenerate the experiment tables.

Exit codes for `check`: 0 certified, 1 refuted, 2 inconclusive.  Malformed
input exits 64.  A LAPACK failure exits 70, and so does `radius` when its
circumradius bound is not reliable.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import families
from .errors import InvalidInput, OrderTooSmall, SpectraconError
from .momrelax import containment_relaxation, shrink_to_certify
from .pencil import load_pencil, save_pencil
from .radii import boundedness_certificate, circumradius_sq
from .render import render_projection, render_slice
from .sdpa import export_sdpa
from .sosrelax import sos_relaxation
from .verdict import check_containment

_EX_USAGE = 64
_EX_SOFTWARE = 70


def _load(path):
    try:
        return load_pencil(path)
    except FileNotFoundError:
        raise InvalidInput(f"no such file: {path}")


def _jsonable(obj):
    """obj with arrays as lists and non-finite floats as None."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        return float(obj) if np.isfinite(obj) else None
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def _cmd_check(args) -> int:
    a = _load(args.inner)
    b = _load(args.outer)
    v = check_containment(a, b, order=args.order, method=args.method,
                          refute=not args.no_refute, samples=args.samples,
                          seed=args.seed)
    if args.json:
        payload = {"status": v.status, "value": v.value, "order": v.order,
                   "method": v.method, "witness": v.witness,
                   "details": v.details}
        print(json.dumps(_jsonable(payload), indent=2, allow_nan=False))
    else:
        print(v)
        if v.witness is not None:
            print("witness x =", np.array2string(v.witness["x"], precision=6))
            print(f"witness margins: outer {v.witness['b_margin']:+.3e}, "
                  f"inner {v.witness['a_margin']:+.3e}")
    return v.exit_code


def _cmd_shrink(args) -> int:
    a = _load(args.inner)
    b = _load(args.outer)
    res = shrink_to_certify(a, b, t=args.order, lo=args.lo, hi=args.hi)
    if res.certified:
        print(f"certified factor {res.factor:.6f} "
              f"(bound {res.value:+.3e}, order {res.order}, "
              f"{res.evaluations} solves)")
        return 0
    print(f"no certified factor down to {args.lo:g}")
    return 2


def _cmd_radius(args) -> int:
    p = _load(args.pencil)
    if args.order < 1:  # circumradius_sq's gate, before the boundedness solve
        raise OrderTooSmall("relaxation order must be at least 1")
    rep = boundedness_certificate(p)
    print(f"boundedness: {rep.kind}")
    if rep.kind == "Unbounded":
        print("recession direction:",
              np.array2string(rep.certificate, precision=6))
        print("squared circumradius: inf")
        return 0
    res = circumradius_sq(p, t=args.order)
    if not res.reliable:
        print(f"squared circumradius: no reliable bound (order {res.order}, "
              f"{res.status}): {res.solution.message}")
        return _EX_SOFTWARE
    print(f"squared circumradius <= {res.value:.9g} "
          f"(order {res.order}, {res.status})")
    return 0


def _cmd_gen(args) -> int:
    fam = args.family
    if fam == "disk":
        a, b = families.disk_pair(args.nu)
    elif fam == "ball-elliptope":
        a, b = families.ball_elliptope_pair(args.l, radius=args.radius)
    elif fam == "choi":
        a, b = families.choi_pair()
    elif fam == "random":
        a, b = families.random_pair(args.seed)
    else:
        raise InvalidInput(f"unknown family {fam!r}")
    pa = f"{args.out}_a.json"
    pb = f"{args.out}_b.json"
    save_pencil(a, pa)
    save_pencil(b, pb)
    print(f"wrote {pa} (n={a.n}, k={a.k}) and {pb} (n={b.n}, k={b.k})")
    return 0


def _cmd_render(args) -> int:
    p = _load(args.pencil)
    axes = (args.axes[0], args.axes[1])
    box = None if args.box is None else (-args.box, args.box)
    if args.mode == "slice":
        render_slice(p, args.out, axes=axes, box=box, res=args.res)
    else:
        render_projection(p, args.out, axes=axes, box=box,
                          res=min(args.res, 80))
    print(f"wrote {args.out}")
    return 0


def _cmd_export(args) -> int:
    a = _load(args.inner)
    b = _load(args.outer)
    if args.machine == "moment":
        problem, _, info = containment_relaxation(a, b, args.order,
                                                  r=args.r, R=args.R)
        note = (f"moment order {args.order}, blocks {info.block_sizes}, "
                f"{info.n_moments} moments")
    else:
        problem, _ = sos_relaxation(a, b, args.order)
        note = f"gram order {args.order}, blocks {problem.block_sizes}"
    export_sdpa(problem, args.out, comment=note)
    print(f"wrote {args.out} ({note})")
    return 0


def _cmd_reproduce(args) -> int:
    from .reproduce import TABLES, run_all, write_csv
    if args.table == "all":
        tables = run_all(args.out)
    else:
        table = TABLES[args.table]()
        if args.out:
            write_csv(table, args.out)
        tables = [table]
    ok = True
    for t in tables:
        delta = t.max_delta()
        ok = ok and delta < 1e-3
        print(f"{t.name}: {len(t.rows)} rows, max |delta| = {delta:.2e}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="spectracon",
        description="Containment of spectrahedra via semidefinite relaxations")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="decide whether one spectrahedron "
                       "contains another")
    c.add_argument("inner", help="pencil JSON of the inner set")
    c.add_argument("outer", help="pencil JSON of the outer set")
    c.add_argument("--method", choices=("moment", "sos", "sdfp"),
                   default="moment",
                   help="machine of the requested bound: the moment or "
                   "sos hierarchy, or the block certificate (sdfp)")
    c.add_argument("--order", type=int, default=2,
                   help="order of the requested relaxation; order 0 of the "
                   "sos hierarchy is tried first, and the verdict's method, "
                   "order and value name the rung that decided")
    c.add_argument("--samples", type=int, default=400,
                   help="hit-and-run points of the sampling search")
    c.add_argument("--seed", type=int, default=0,
                   help="seed of the boundary chords and the sampling search")
    c.add_argument("--no-refute", action="store_true",
                   help="skip the boundary points, the solution points "
                   "and the sampling search")
    c.add_argument("--json", action="store_true",
                   help="print the verdict as one JSON object instead of text")
    c.set_defaults(fn=_cmd_check)

    s = sub.add_parser("shrink", help="largest certified shrink factor")
    s.add_argument("inner")
    s.add_argument("outer")
    s.add_argument("--order", type=int, default=2)
    s.add_argument("--lo", type=float, default=2.0 ** -10)
    s.add_argument("--hi", type=float, default=1.0)
    s.set_defaults(fn=_cmd_shrink)

    r = sub.add_parser("radius", help="boundedness and circumradius bound")
    r.add_argument("pencil")
    r.add_argument("--order", type=int, default=2)
    r.set_defaults(fn=_cmd_radius)

    g = sub.add_parser("gen", help="write reference instances")
    g.add_argument("family",
                   choices=("disk", "ball-elliptope", "choi", "random"))
    g.add_argument("--out", default="instance")
    g.add_argument("--nu", type=float, default=0.8)
    g.add_argument("--l", type=int, default=3)
    g.add_argument("--radius", type=float, default=0.5)
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(fn=_cmd_gen)

    d = sub.add_parser("render", help="rasterize a slice or shadow to SVG")
    d.add_argument("pencil")
    d.add_argument("--out", default="pencil.svg")
    d.add_argument("--mode", choices=("slice", "projection"), default="slice")
    d.add_argument("--axes", type=int, nargs=2, default=(0, 1))
    d.add_argument("--box", type=float, default=None,
                   help="half-width of the symmetric plotting box")
    d.add_argument("--res", type=int, default=160)
    d.set_defaults(fn=_cmd_render)

    e = sub.add_parser("export", help="write a relaxation as SDPA sparse")
    e.add_argument("inner")
    e.add_argument("outer")
    e.add_argument("--machine", choices=("moment", "sos"), default="moment")
    e.add_argument("--order", type=int, default=2)
    e.add_argument("--r", type=float, default=1.0)
    e.add_argument("--R", type=float, default=2.0)
    e.add_argument("--out", default="relaxation.dat-s")
    e.set_defaults(fn=_cmd_export)

    p = sub.add_parser("reproduce", help="regenerate the experiment tables")
    p.add_argument("--table", choices=("disk", "ball_elliptope", "choi",
                                       "circumradius", "all"), default="all")
    p.add_argument("--out", default=None, help="directory for CSV output")
    p.set_defaults(fn=_cmd_reproduce)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (InvalidInput, OrderTooSmall) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EX_USAGE
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EX_USAGE
    except SpectraconError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return _EX_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
