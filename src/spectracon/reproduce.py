"""Regenerate the reference experiment tables and compare against records.

Each table function recomputes the quantities from scratch and returns rows
together with the recorded reference values; write_csv serializes them.
Reference entries were produced with this code base and are frozen here so
regressions show up as nonzero deltas.

Negative containment bounds scale with R^2 rather than r^2; the normalized
column divides that factor back out so values line up with the eigenvalue
margin of the outer pencil.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .families import ball_elliptope_pair, choi_pair, disk_pair
from .momrelax import solve_mu_mom
from .pencil import elliptope_pencil
from .posmap import choi_matrix, cp_sdfp
from .radii import circumradius_sq
from .sosrelax import lambda_sos
from .families import choi_map_spec

# recorded values (annulus r=1, R=2 unless stated)
DISK_REFERENCE = {
    # nu: (mu_2, mu_3, sdfp kind)
    0.70: (0.010051, 0.300000, "Feasible"),
    1 / math.sqrt(2): (0.000000, 0.292893, "Feasible"),
    0.80: (-0.262742, 0.200000, "Infeasible"),
    0.90: (-0.545584, 0.100000, "Infeasible"),
    1.00: (-0.828427, 0.000000, "Infeasible"),
    1.10: (-1.111270, -0.400000, "Infeasible"),
}

ELLIPTOPE_REFERENCE = {
    # l: (n, lambda_sos(0), mu_mom(2), sdfp kind)
    3: (3, 0.292893, 0.292893, "Feasible"),
    4: (6, 0.133975, 0.133975, "Feasible"),
    5: (10, 0.000000, 0.000000, "Feasible"),
}

CHOI_REFERENCE = {
    "matrix_min_eig": -0.118034,
    "sdfp_margin": -0.048584,
    "lambda_sos_0": -0.097168,
    "mu_mom_3": 0.0,  # sphere slice r = R = 1
}

RADII_REFERENCE = {3: 3.0, 4: 6.0, 5: 10.0}


def normalized(value: float, r: float = 1.0, R: float = 2.0) -> float:
    """Divide out the annulus factor: r^2 when positive, R^2 when negative."""
    return value / (r * r) if value >= 0 else value / (R * R)


@dataclass
class Table:
    name: str
    header: list
    rows: list  # lists matching header

    def max_delta(self) -> float:
        worst = 0.0
        for row in self.rows:
            for name, cell in zip(self.header, row):
                if name.startswith("delta") and isinstance(cell, float):
                    worst = max(worst, abs(cell))
        return worst


def disk_table() -> Table:
    rows = []
    for nu, (ref2, ref3, refk) in DISK_REFERENCE.items():
        a, b = disk_pair(nu)
        m2 = solve_mu_mom(a, b, 2)
        m3 = solve_mu_mom(a, b, 3)
        cp = cp_sdfp(a, b)
        rows.append([round(nu, 6), m2.value, m3.value, normalized(m3.value),
                     cp.kind, m2.value - ref2, m3.value - ref3,
                     cp.kind == refk])
    return Table("disk", ["nu", "mu_2", "mu_3", "mu_3_normalized", "sdfp",
                          "delta_mu_2", "delta_mu_3", "sdfp_matches"], rows)


def elliptope_table() -> Table:
    rows = []
    for l, (n, ref_lam, ref_mu, refk) in ELLIPTOPE_REFERENCE.items():
        a, b = ball_elliptope_pair(l)
        lam = lambda_sos(a, b, 0)
        mu = solve_mu_mom(a, b, 2)
        cp = cp_sdfp(a, b)
        rows.append([l, n, lam.value, mu.value, cp.kind,
                     lam.value - ref_lam, mu.value - ref_mu, cp.kind == refk])
    return Table("ball_elliptope",
                 ["l", "n", "lambda_sos_0", "mu_2", "sdfp",
                  "delta_lambda", "delta_mu", "sdfp_matches"], rows)


def choi_table() -> Table:
    """The map example, with the order-3 bound on the sphere slice r = R = 1."""
    a, b = choi_pair()
    cm = choi_matrix(choi_map_spec())
    min_eig = float(np.linalg.eigvalsh(cm).min())
    cp = cp_sdfp(a, b)
    lam = lambda_sos(a, b, 0)
    m3 = solve_mu_mom(a, b, 3, r=1.0, R=1.0)
    rows = [
        ["matrix_min_eig", min_eig, CHOI_REFERENCE["matrix_min_eig"],
         min_eig - CHOI_REFERENCE["matrix_min_eig"]],
        ["sdfp_margin", cp.margin, CHOI_REFERENCE["sdfp_margin"],
         cp.margin - CHOI_REFERENCE["sdfp_margin"]],
        ["lambda_sos_0", lam.value, CHOI_REFERENCE["lambda_sos_0"],
         lam.value - CHOI_REFERENCE["lambda_sos_0"]],
        ["mu_mom_3", m3.value, CHOI_REFERENCE["mu_mom_3"],
         m3.value - CHOI_REFERENCE["mu_mom_3"]],
    ]
    return Table("choi", ["quantity", "value", "reference", "delta"], rows)


def radii_table() -> Table:
    rows = []
    for l, ref in RADII_REFERENCE.items():
        p = elliptope_pencil(l)
        res = circumradius_sq(p, t=2)
        rows.append([l, p.n, res.value, ref, res.value - ref])
    return Table("circumradius", ["l", "n", "nu2_order2", "reference",
                                  "delta"], rows)


TABLES = {"disk": disk_table, "ball_elliptope": elliptope_table,
          "choi": choi_table, "circumradius": radii_table}


def write_csv(table: Table, directory) -> str:
    import os
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{table.name}.csv")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(table.header)
        for row in table.rows:
            w.writerow([f"{c:.6f}" if isinstance(c, float) else c
                        for c in row])
    return path


def run_all(directory=None) -> list[Table]:
    out = []
    for fn in TABLES.values():
        table = fn()
        if directory is not None:
            write_csv(table, directory)
        out.append(table)
    return out
