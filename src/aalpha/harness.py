"""Verification campaigns, each a falsification attempt on a claim about
the bounds, each giving a ReportTable (aalpha.reports) or read off one:

  * sweep_grid — the exhaustive (delta, Delta, alpha) grid, where the
    symbolic trichotomy must agree with the numeric sign of f - g;
  * verify_graph, random_campaign — concrete graphs, whose lambda1 must sit
    above both bounds (g only applies when the graph has an edge);
  * certify_star_equality — stars must achieve g exactly, and a fixed set
    of connected non-stars must beat it strictly.

The graph campaigns share one check, _check.
"""

import itertools
from typing import NamedTuple

import numpy as np

from .bounds import (ORDERINGS, Ordering, _classify_codes, _f_kernel,
                     _g_kernel, _numeric_code, check_alpha, check_int,
                     check_seq)
from .errors import InputError
from .graphs import (Graph, add_isolated, emit_graph6, from_edge_list,
                     gen_complete, gen_cycle, gen_random, gen_star,
                     is_connected, is_star)
# Imported for perfbench's hooks, which find them on this module:
from .alpha_matrix import build_alpha_matrix  # noqa: F401
from .graphs import degree_profile  # noqa: F401
from .reports import emit_report, parse_report, render_report  # noqa: F401
from .spectral import spectral_radius  # noqa: F401
from .reports import (SWEEP_COLUMNS, VERIFICATION_COLUMNS, ReportTable,
                      VerificationRecord)
from .spectral import spectral_radii

BOUND_SLACK = 1e-8
EQUALITY_TOL = 1e-8
STRICTNESS_MARGIN = 1e-6
STRICTNESS_ALPHAS = (0.0, 0.25, 0.5, 0.75)


class SweepSummary(NamedTuple):
    """Tally of a sweep; inconsistent must come back 0."""

    total: int
    greater: int
    equal: int
    less: int
    inconsistent: int


class StarCertification(NamedTuple):
    """Outcome of the star equality / non-star strictness campaign."""

    Delta_max: int
    alpha_steps: int
    equality_checks: int
    max_equality_gap: float
    strictness_checks: int
    min_strictness_margin: float
    failures: tuple[str, ...]
    passed: bool


def sweep_grid(delta_max: int, Delta_max: int,
               alpha_steps: int) -> ReportTable:
    """Every (delta, Delta, alpha) with 0 <= delta <= min(Delta, delta_max),
    delta <= Delta <= Delta_max, alpha = k/alpha_steps for k = 0..alpha_steps,
    in (delta, Delta, alpha) order, as a ReportTable.

    Each record carries the symbolic classification, the numeric sign of
    f - g at epsilon 1e-9, and their agreement flag; nothing raises here so
    a disagreement would surface as a countable record, not an abort. The
    columns come from the same kernels as bound_f, bound_g, classify and
    numeric_ordering, run over whole arrays, and equal them bit for bit.
    """
    delta_max = check_int("delta_max", delta_max)
    Delta_max = check_int("Delta_max", Delta_max, delta_max)
    alpha_steps = check_int("alpha_steps", alpha_steps, 1)
    # The upper triangle of the (delta_max+1) x (Delta_max+1) index grid, in
    # row-major order, is exactly the (delta, Delta) pairs in sweep order.
    delta, Delta = np.triu_indices(delta_max + 1, 0, Delta_max + 1)
    points = alpha_steps + 1
    alpha = np.tile(np.arange(points) / alpha_steps, len(delta))
    delta, Delta = np.repeat(delta, points), np.repeat(Delta, points)
    # The kernels square degree gaps; in float64 that cannot wrap.
    fdelta, fDelta = delta.astype(np.float64), Delta.astype(np.float64)
    f = _f_kernel(fdelta, fDelta, alpha, np)
    g = _g_kernel(fDelta, alpha, np)
    diff = f - g
    symbolic, witness = _classify_codes(delta, Delta, alpha)
    numeric = _numeric_code(diff)
    return ReportTable(dict(zip(SWEEP_COLUMNS, (
        delta, Delta, alpha, f, g, diff, symbolic, numeric, witness,
        symbolic == numeric))))


def summarize_sweep(records) -> SweepSummary:
    """Count orderings and disagreements across a sweep ReportTable, or
    across any iterable of SweepRecord, which is made into a table first."""
    table = ReportTable.from_records(records, "sweep")
    counts = dict(zip(ORDERINGS, np.bincount(
        table.columns["symbolic"], minlength=len(ORDERINGS)).tolist()))
    total = len(table)
    return SweepSummary(
        total, counts[Ordering.GREATER], counts[Ordering.EQUAL],
        counts[Ordering.LESS],
        total - int(np.count_nonzero(table.columns["consistent"])))


def default_graph_id(g: Graph) -> str:
    """Stable identifier: the graph6 line when it fits, size summary otherwise."""
    if g.n <= 62:
        return "graph6:" + emit_graph6(g)
    return f"n{g.n}-m{g.edge_count}"


def _check(graphs, graph_ids, alphas,
           method: str | None = None) -> ReportTable:
    """The bound checks of graphs (each n >= 2) at alphas (checked floats),
    the one check of every campaign, as a verification table: graph by
    graph and alpha by alpha, the graphs grouped by vertex count in
    first-seen order. spectral_radii solves a group at a time, which is let
    go once checked; f, g and the three checks are computed over the (graph,
    alpha) array at once, each equal bit for bit to its value at one point.
    """
    groups = {}  # n -> [(graph, graph_id)], in first-seen order
    for g, gid in zip(graphs, graph_ids):
        if g.n < 2:
            raise InputError(f"verification needs n >= 2, got n = {g.n}")
        groups.setdefault(g.n, []).append((g, gid))
    if not groups:
        return ReportTable.from_records((), "verification")
    k, ids_seen, per_graph, lams = len(alphas), [], {}, []
    for n in list(groups):
        gs, ids = zip(*groups.pop(n))
        lams.append(spectral_radii(gs, ids, alphas, method))
        ids_seen += ids
        degrees = np.array([g.degrees for g in gs])
        for name, values in dict(  # the per-graph columns but graph_id
                n=[n] * len(gs), m=[g.edge_count for g in gs],
                Delta=degrees.max(1), delta=degrees.min(1),
                is_star=map(is_star, gs),
                is_connected=map(is_connected, gs)).items():
            per_graph.setdefault(name, []).extend(values)
    lam = np.concatenate(lams)
    per_graph = {name: np.array(values) for name, values in per_graph.items()}
    # A row per graph and a column per alpha. The kernels square degree
    # gaps; in float64 that cannot wrap.
    a = np.array(alphas, dtype=np.float64)
    fdelta, fDelta = (per_graph[c][:, None] * 1.0 for c in ("delta", "Delta"))
    f, gg = _f_kernel(fdelta, fDelta, a, np), _g_kernel(fDelta, a, np)
    columns = {name: np.repeat(c, k) for name, c in per_graph.items()}
    columns.update(
        graph_id=np.repeat(np.array(ids_seen, dtype=object), k),
        alpha=np.tile(a, len(lam)), lambda1=lam.ravel(), f=f.ravel(),
        g=gg.ravel(), f_holds=(lam >= f - BOUND_SLACK).ravel(),
        g_holds=(lam >= gg - BOUND_SLACK).ravel(),
        g_equality=(np.abs(lam - gg) <= EQUALITY_TOL).ravel())
    return ReportTable({name: columns[name] for name in VERIFICATION_COLUMNS})


def verify_graph(g: Graph, alpha_list, method: str | None = None,
                 graph_id: str | None = None) -> ReportTable:
    """Check lambda1 >= f - 1e-8 and lambda1 >= g - 1e-8 for each alpha.

    Needs every alpha in [0, 1] and n >= 2. Records are produced in the
    given alpha order; g_holds is recorded honestly even for edgeless
    graphs, where g > 0 = lambda1 — verification_violations applies the
    edge-count exclusion. This is _check, every campaign's check, on one
    graph: on the dense path all the alphas go through one LAPACK call (one
    per stack that spectral_radii allows), and each lambda1 equals a solve
    of that matrix alone, bit for bit. method None is the spectral_radius
    dispatcher; "jacobi", "power" or "lanczos" force one call per alpha.
    """
    alphas = [check_alpha(a) for a in check_seq("alpha_list", alpha_list)]
    if graph_id is None:
        graph_id = default_graph_id(g)
    return _check([g], [graph_id], alphas, method)


def verification_violations(records) -> list[VerificationRecord]:
    """Records that contradict the bounds: any failed f check, or a failed
    g check on a graph with at least one edge (g does not apply to edgeless
    graphs, where it exceeds lambda1 = 0 for every alpha > 0). records is a
    verification ReportTable, or any sequence of VerificationRecord, which
    is made into a table first; the verdicts are one mask over its
    columns."""
    table = ReportTable.from_records(records, "verification")
    c = table.columns
    return list(table[~c["f_holds"] | ((c["m"] >= 1) & ~c["g_holds"])])


def random_campaign(n_values=range(2, 13), p_values=(0.2, 0.5, 0.8),
                    seeds=range(3), isolated_counts=(0, 1, 2),
                    alpha_list=(0.0, 0.25, 0.5, 0.75, 1.0)
                    ) -> ReportTable:
    """Bound checks over a deterministic family of random graphs.

    The defaults draw G(n, p) for n in [2, 12], p in {0.2, 0.5, 0.8}, three
    seeds each, and retest every draw with 1 and 2 extra isolated vertices
    (297 graphs). Records come back sorted by (graph_id, alpha). Every
    argument is a sequence, and every graph is solved by the spectral_radius
    dispatcher; verify_graph's method forces an oracle on one graph.

    Each alpha is checked once, and all the graphs go through one _check,
    verify_graph's code: one LAPACK call per vertex count, 13 for the
    default campaign (n = 2..14), split only where spectral_radii's stack
    would grow too big, which may be inside a graph's alphas.
    Every record equals verify_graph's for its graph, bit for bit.
    """
    n_values = check_seq("n_values", n_values)
    p_values = check_seq("p_values", p_values)
    seeds = check_seq("seeds", seeds)
    isolated_counts = check_seq("isolated_counts", isolated_counts)
    alphas = [check_alpha(a) for a in check_seq("alpha_list", alpha_list)]
    draws = [(n, p, s) for n in n_values for p in p_values for s in seeds]
    ids = [f"random:{n},{p},{seed}" + (f"+iso{k}" if k else "")
           for n, p, seed in draws for k in isolated_counts]
    # Drawn as _check reads them, so that no graph outlives its group.
    graphs = (add_isolated(base, k) if k else base
              for base in itertools.starmap(gen_random, draws)
              for k in isolated_counts)
    table = _check(graphs, ids, alphas)
    return table[np.lexsort((table.columns["alpha"],
                             table.columns["graph_id"]))]


def _non_star_fixtures() -> list[tuple[str, Graph]]:
    # Connected non-stars used for strictness: lambda1 must exceed g.
    return [
        ("C4", gen_cycle(4)),
        ("C5", gen_cycle(5)),
        ("K4", gen_complete(4)),
        ("P4", from_edge_list(4, [(0, 1), (1, 2), (2, 3)])),
        ("K23", from_edge_list(5, [(u, v) for u in (0, 1) for v in (2, 3, 4)])),
    ]


def certify_star_equality(Delta_max: int, alpha_steps: int) -> StarCertification:
    """Equality certification for stars, strictness for non-stars.

    For every Delta in [1, Delta_max] and alpha = k/alpha_steps the star
    K_{1,Delta} must pass the g_equality check, |lambda1 - g| <= 1e-8; the
    fixed connected non-star set (C4, C5, K4, P4, K23) must satisfy
    lambda1 > g + 1e-6 at alpha in {0, 0.25, 0.5, 0.75}. alpha = 1 is left
    out of the strictness set because lambda1 = Delta = g there for every
    graph. Verdicts, gap and margin are read off _check's columns, so the
    failures list the stars, then the non-stars by vertex count (C4, K4,
    P4, C5, K23), and LAPACK is called once per vertex count: 20 + 2 times
    for certify_star_equality(20, 100).
    """
    Delta_max = check_int("Delta_max", Delta_max, 1)
    alpha_steps = check_int("alpha_steps", alpha_steps, 1)
    Deltas = range(1, Delta_max + 1)
    stars = _check([gen_star(Delta + 1) for Delta in Deltas],
                   [f"star Delta={Delta}" for Delta in Deltas],
                   [k / alpha_steps for k in range(alpha_steps + 1)])
    names, graphs = zip(*_non_star_fixtures())
    others = _check(graphs, names, STRICTNESS_ALPHAS)
    gap = np.abs(stars.columns["lambda1"] - stars.columns["g"])
    margin = others.columns["lambda1"] - others.columns["g"]
    failures = (
        [f"{r.graph_id} alpha={r.alpha:g}: |lambda1 - g| = "
         f"{abs(r.lambda1 - r.g_value):.3e}"
         for r in stars[~stars.columns["g_equality"]]]
        + [f"non-star {r.graph_id} alpha={r.alpha:g}: margin = "
           f"{r.lambda1 - r.g_value:.3e}"
           for r in others[margin <= STRICTNESS_MARGIN]])
    return StarCertification(Delta_max, alpha_steps, len(gap),
                             float(gap.max()), len(margin),
                             float(margin.min()), tuple(failures),
                             not failures)
