"""Spectral-radius lower bounds for the matrix family alpha*D + (1-alpha)*A
of a simple graph: closed-form bounds f and g, an exact trichotomy classifier
for their comparison, a LAPACK eigensolver with two independent oracle
solvers, and verification campaigns that test every claim numerically.
"""

from .alpha_matrix import AlphaMatrix, build_alpha_matrix, matrix_csv, matvec
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
                      STRICTNESS_MARGIN, SWEEP_COLUMNS, VERIFICATION_COLUMNS,
                      StarCertification, SweepRecord, SweepSummary,
                      SweepTable, VerificationRecord, certify_star_equality,
                      default_graph_id, emit_report, parse_report,
                      random_campaign, render_report, summarize_sweep,
                      sweep_grid, verification_violations, verify_graph)
from .spectral import (DISPATCH_DENSE_LIMIT, JACOBI_MAX_SWEEPS,
                       POWER_MAX_ITER, POWER_TOL, SpectralResult,
                       spectral_radius, spectral_radius_dense,
                       spectral_radius_jacobi, spectral_radius_power)

__version__ = "0.1.0"

__all__ = [
    "AlphaMatrix", "build_alpha_matrix", "matrix_csv", "matvec",
    "BoundComparison", "Ordering", "Witness",
    "bound_f", "bound_g", "classify", "compare_numeric", "numeric_ordering",
    "sqrt_arg_identity", "DEFAULT_EPSILON",
    "ConsistencyError", "ConvergenceError", "InputError", "ParseError",
    "UnsupportedSizeError",
    "Graph", "DegreeProfile", "GRAPH6_MAX_N", "add_isolated", "degree_profile",
    "emit_graph6", "from_edge_list", "gen_circulant", "gen_complete",
    "gen_cycle", "gen_random", "gen_star", "is_connected", "is_star",
    "parse_edge_list", "parse_graph6",
    "SweepRecord", "SweepSummary", "SweepTable", "VerificationRecord",
    "StarCertification",
    "sweep_grid", "summarize_sweep", "verify_graph",
    "verification_violations", "random_campaign", "certify_star_equality",
    "emit_report", "render_report", "parse_report", "default_graph_id",
    "BOUND_SLACK", "EQUALITY_TOL", "STRICTNESS_MARGIN", "STRICTNESS_ALPHAS",
    "SWEEP_COLUMNS", "VERIFICATION_COLUMNS",
    "SpectralResult", "spectral_radius", "spectral_radius_dense",
    "spectral_radius_jacobi", "spectral_radius_power", "JACOBI_MAX_SWEEPS",
    "DISPATCH_DENSE_LIMIT", "POWER_TOL", "POWER_MAX_ITER",
    "__version__",
]
