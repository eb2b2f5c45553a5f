"""Spectral-radius lower bounds for the matrix family alpha*D + (1-alpha)*A
of a simple graph: closed-form bounds f and g, an exact trichotomy classifier
for their comparison, LAPACK and Lanczos eigensolvers with two independent
oracle solvers, and verification campaigns that test every claim numerically.
"""

from .alpha_matrix import (AlphaMatrix, alpha_stack, build_alpha_matrix,
                           matrix_csv, matvec)
from .bounds import (DEFAULT_EPSILON, BoundComparison, Ordering, Witness,
                     bound_f, bound_g, classify, compare_numeric,
                     numeric_ordering, sqrt_arg_identity)
from .errors import (ConsistencyError, ConvergenceError, InputError,
                     ParseError, UnsupportedSizeError)
from .graphs import (GRAPH6_MAX_N, DegreeProfile, Graph, add_isolated,
                     degree_profile, emit_graph6, from_edge_list, gen_circulant,
                     gen_complete, gen_cycle, gen_random, gen_star,
                     is_connected, is_star, parse_edge_list, parse_graph6)
from .harness import (BOUND_SLACK, EQUALITY_TOL, STRICTNESS_ALPHAS,
                      STRICTNESS_MARGIN, StarCertification, SweepSummary,
                      certify_star_equality, default_graph_id,
                      random_campaign, summarize_sweep, sweep_grid,
                      verification_violations, verify_graph)
from .reports import (SWEEP_COLUMNS, VERIFICATION_COLUMNS, ReportTable,
                      SweepRecord, VerificationRecord, emit_report,
                      parse_report, render_report)
from .spectral import (DISPATCH_DENSE_LIMIT, JACOBI_MAX_SWEEPS,
                       LANCZOS_MAX_STEPS, POWER_MAX_ITER, POWER_TOL,
                       SpectralResult, spectral_radii_dense, spectral_radius,
                       spectral_radius_dense, spectral_radius_jacobi,
                       spectral_radius_lanczos, spectral_radius_power)

__version__ = "0.1.0"

__all__ = [
    "AlphaMatrix", "alpha_stack", "build_alpha_matrix", "matrix_csv",
    "matvec",
    "BoundComparison", "Ordering", "Witness",
    "bound_f", "bound_g", "classify", "compare_numeric", "numeric_ordering",
    "sqrt_arg_identity", "DEFAULT_EPSILON",
    "ConsistencyError", "ConvergenceError", "InputError", "ParseError",
    "UnsupportedSizeError",
    "Graph", "DegreeProfile", "GRAPH6_MAX_N", "add_isolated", "degree_profile",
    "emit_graph6", "from_edge_list", "gen_circulant", "gen_complete",
    "gen_cycle", "gen_random", "gen_star", "is_connected", "is_star",
    "parse_edge_list", "parse_graph6",
    "ReportTable", "SweepRecord", "SweepSummary", "VerificationRecord",
    "StarCertification",
    "sweep_grid", "summarize_sweep", "verify_graph",
    "verification_violations", "random_campaign", "certify_star_equality",
    "emit_report", "render_report", "parse_report", "default_graph_id",
    "BOUND_SLACK", "EQUALITY_TOL", "STRICTNESS_MARGIN", "STRICTNESS_ALPHAS",
    "SWEEP_COLUMNS", "VERIFICATION_COLUMNS",
    "SpectralResult", "spectral_radii_dense", "spectral_radius",
    "spectral_radius_dense",
    "spectral_radius_jacobi", "spectral_radius_power",
    "spectral_radius_lanczos", "JACOBI_MAX_SWEEPS", "DISPATCH_DENSE_LIMIT",
    "POWER_TOL", "POWER_MAX_ITER", "LANCZOS_MAX_STEPS",
    "__version__",
]
