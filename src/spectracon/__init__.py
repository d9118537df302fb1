"""Certified containment of spectrahedra.

The package decides whether the feasible set of one linear matrix
inequality sits inside another, via three semidefinite machines sharing an
embedded interior-point solver: a moment hierarchy on the containment
functional, sum-of-squares eigenvalue certificates, and a positivity-map
feasibility test.  Exact preprocessing (lineality splitting) and
sampling-based refutation round out the pipeline.
"""

from .errors import (InvalidInput, InvariantViolation, NoInteriorPoint,
                     NotContained, NumericalFailure, OrderTooSmall,
                     SpectraconError)
from .momrelax import (containment_relaxation, moment_matrix, shrink_pencil,
                       shrink_to_certify, solve_mu_mom)
from .pencil import (LinearPencil, MapSpec, ellipsoid_pencil,
                     elliptope_pencil, extend, load_pencil,
                     map_from_callable, map_to_pencils, pencil,
                     pencil_from_json, pencil_to_json, polytope_pencil,
                     random_pencil, save_pencil)
from .posmap import choi_matrix, cp_sdfp, implication_report
from .radii import boundedness_certificate, circumradius_sq
from .reduce import lineality_space, split_lineality
from .render import render_projection, render_slice
from .sampling import (interior_point, mu_grid, refutation_search,
                       sample_spectrahedron)
from .sdpa import export_sdpa, parse_sdpa
from .sdpcore import (SdpProblem, SdpSolution, SolveStatus, feasibility_probe,
                      solve)
from .sosrelax import certificate_gap, lambda_sos, sos_relaxation
from .symcore import SymMatrix, min_eigenvalue, sym
from .verdict import Verdict, check_containment

__version__ = "0.1.0"

__all__ = [
    "LinearPencil", "MapSpec", "SdpProblem",
    "SdpSolution", "SolveStatus", "SpectraconError", "SymMatrix", "Verdict",
    "boundedness_certificate", "certificate_gap", "check_containment",
    "choi_matrix", "circumradius_sq", "containment_relaxation",
    "cp_sdfp", "ellipsoid_pencil",
    "elliptope_pencil", "export_sdpa", "extend", "feasibility_probe",
    "implication_report", "interior_point", "InvalidInput",
    "InvariantViolation", "lambda_sos", "lineality_space", "load_pencil",
    "map_from_callable", "map_to_pencils", "min_eigenvalue", "moment_matrix",
    "mu_grid", "NoInteriorPoint", "NotContained", "NumericalFailure", "OrderTooSmall", "parse_sdpa",
    "pencil", "pencil_from_json", "pencil_to_json", "polytope_pencil",
    "random_pencil", "refutation_search",
    "render_projection", "render_slice", "sample_spectrahedron", "save_pencil",
    "shrink_pencil", "shrink_to_certify", "solve", "solve_mu_mom",
    "sos_relaxation", "split_lineality", "sym",
]
