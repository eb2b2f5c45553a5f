"""Verification campaigns and report files.

Three campaigns, each a falsification attempt on a claim about the bounds:

  * sweep_grid     — exhaustive (delta, Delta, alpha) grid; the symbolic
                     trichotomy must agree with the numeric sign of f - g
                     at every point.
  * verify_graph / random_campaign — concrete graphs; lambda1 must sit above
                     both bounds (g only applies when the graph has an edge).
  * certify_star_equality — stars must achieve g exactly; a fixed set of
                     connected non-stars must beat it strictly.

Records are flat tuples so campaigns stay cheap at grid scale; emit_report
and parse_report round-trip them through CSV or JSON without precision loss.
"""

import csv
import io
import json
import operator
from typing import NamedTuple

from .alpha_matrix import build_alpha_matrix
from .bounds import (DEFAULT_EPSILON, Ordering, Witness, _classify_kernel,
                     _f_kernel, _g_kernel, numeric_ordering)
from .errors import ConvergenceError, InputError
from .graphs import (Graph, add_isolated, degree_profile, emit_graph6,
                     from_edge_list, gen_complete, gen_cycle, gen_random,
                     gen_star, is_connected, is_star)
from .spectral import spectral_radius

BOUND_SLACK = 1e-8
EQUALITY_TOL = 1e-8
STRICTNESS_MARGIN = 1e-6
STRICTNESS_ALPHAS = (0.0, 0.25, 0.5, 0.75)


class SweepRecord(NamedTuple):
    """One grid point of the trichotomy sweep."""

    delta: int
    Delta: int
    alpha: float
    f_value: float
    g_value: float
    difference: float
    symbolic_ordering: Ordering
    numeric_ordering: Ordering
    witness: Witness
    consistent: bool


class SweepSummary(NamedTuple):
    """Tally of a sweep; inconsistent must come back 0."""

    total: int
    greater: int
    equal: int
    less: int
    inconsistent: int


class VerificationRecord(NamedTuple):
    """Bound check for one concrete graph at one alpha."""

    graph_id: str
    n: int
    edge_count: int
    Delta: int
    delta: int
    alpha: float
    lambda1: float
    f_value: float
    g_value: float
    f_holds: bool
    g_holds: bool
    g_equality: bool
    is_star: bool
    is_connected: bool


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
               alpha_steps: int) -> list[SweepRecord]:
    """Every (delta, Delta, alpha) with 0 <= delta <= min(Delta, delta_max),
    delta <= Delta <= Delta_max, alpha = k/alpha_steps for k = 0..alpha_steps,
    in (delta, Delta, alpha) order.

    Each record carries the symbolic classification, the numeric sign of
    f - g at epsilon 1e-9, and their agreement flag; nothing raises here so
    a disagreement would surface as a countable record, not an abort.
    """
    try:
        delta_max = operator.index(delta_max)
        Delta_max = operator.index(Delta_max)
        alpha_steps = operator.index(alpha_steps)
    except TypeError:
        raise InputError("sweep limits must be integers")
    if not 0 <= delta_max <= Delta_max:
        raise InputError(
            f"need 0 <= delta_max <= Delta_max, got ({delta_max}, {Delta_max})")
    if alpha_steps < 1:
        raise InputError(f"alpha_steps must be >= 1, got {alpha_steps}")
    alphas = [k / alpha_steps for k in range(alpha_steps + 1)]
    records = []
    append = records.append
    eps = DEFAULT_EPSILON
    for delta in range(delta_max + 1):
        for Delta in range(delta, Delta_max + 1):
            for alpha in alphas:
                f = _f_kernel(delta, Delta, alpha)
                g = _g_kernel(Delta, alpha)
                diff = f - g
                symbolic, witness = _classify_kernel(delta, Delta, alpha)
                if diff > eps:
                    numeric = Ordering.GREATER
                elif diff < -eps:
                    numeric = Ordering.LESS
                else:
                    numeric = Ordering.EQUAL
                append(SweepRecord(delta, Delta, alpha, f, g, diff, symbolic,
                                   numeric, witness, symbolic is numeric))
    return records


def summarize_sweep(records) -> SweepSummary:
    """Count orderings and disagreements across sweep records."""
    greater = equal = less = bad = 0
    total = 0
    for r in records:
        total += 1
        if r.symbolic_ordering is Ordering.GREATER:
            greater += 1
        elif r.symbolic_ordering is Ordering.EQUAL:
            equal += 1
        else:
            less += 1
        if not r.consistent:
            bad += 1
    return SweepSummary(total, greater, equal, less, bad)


def default_graph_id(g: Graph) -> str:
    """Stable identifier: the graph6 line when it fits, size summary otherwise."""
    if g.n <= 62:
        return "graph6:" + emit_graph6(g)
    return f"n{g.n}-m{g.edge_count}"


def verify_graph(g: Graph, alpha_list, method: str | None = None,
                 graph_id: str | None = None) -> list[VerificationRecord]:
    """Check lambda1 >= f - 1e-8 and lambda1 >= g - 1e-8 for each alpha.

    Needs n >= 2 and every alpha in [0, 1]. Records are produced in the
    given alpha order; g_holds is recorded honestly even for edgeless
    graphs, where g > 0 = lambda1 — verification_violations applies the
    edge-count exclusion.
    """
    if g.n < 2:
        raise InputError(f"verification needs n >= 2, got n = {g.n}")
    alphas = [float(a) for a in alpha_list]
    for a in alphas:
        if not 0.0 <= a <= 1.0:
            raise InputError(f"verification alpha must lie in [0, 1], got {a}")
    if graph_id is None:
        graph_id = default_graph_id(g)
    prof = degree_profile(g)
    star = is_star(g)
    connected = is_connected(g)
    records = []
    for alpha in alphas:
        am = build_alpha_matrix(g, alpha)
        try:
            res = spectral_radius(am, method)
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"eigensolver failed on {graph_id} at alpha={alpha}: {exc}",
                estimate=exc.estimate, residual=exc.residual,
                iterations=exc.iterations) from exc
        lam = res.lambda1
        f = _f_kernel(prof.min_degree, prof.max_degree, alpha)
        gg = _g_kernel(prof.max_degree, alpha)
        records.append(VerificationRecord(
            graph_id, g.n, g.edge_count, prof.max_degree, prof.min_degree,
            alpha, lam, f, gg,
            lam >= f - BOUND_SLACK, lam >= gg - BOUND_SLACK,
            abs(lam - gg) <= EQUALITY_TOL, star, connected))
    return records


def verification_violations(records) -> list[VerificationRecord]:
    """Records that contradict the bounds: any failed f check, or a failed
    g check on a graph with at least one edge (g does not apply to edgeless
    graphs, where it exceeds lambda1 = 0 for every alpha > 0)."""
    return [r for r in records
            if not r.f_holds or (r.edge_count >= 1 and not r.g_holds)]


def random_campaign(n_values=range(2, 13), p_values=(0.2, 0.5, 0.8),
                    seeds=range(3), isolated_counts=(0, 1, 2),
                    alpha_list=(0.0, 0.25, 0.5, 0.75, 1.0),
                    method: str | None = None) -> list[VerificationRecord]:
    """Bound checks over a deterministic family of random graphs.

    The defaults draw G(n, p) for n in [2, 12], p in {0.2, 0.5, 0.8}, three
    seeds each, and retest every draw with 1 and 2 extra isolated vertices
    (297 graphs). Records come back sorted by (graph_id, alpha).
    """
    records = []
    for n in n_values:
        for p in p_values:
            for seed in seeds:
                base = gen_random(n, p, seed)
                base_id = f"random:{n},{p},{seed}"
                for k in isolated_counts:
                    g = add_isolated(base, k) if k else base
                    gid = base_id + (f"+iso{k}" if k else "")
                    records.extend(verify_graph(g, alpha_list, method, gid))
    records.sort(key=lambda r: (r.graph_id, r.alpha))
    return records


def _non_star_fixtures() -> list[tuple[str, Graph]]:
    # Connected non-stars used for strictness: lambda1 must exceed g.
    return [
        ("C4", gen_cycle(4)),
        ("C5", gen_cycle(5)),
        ("K4", gen_complete(4)),
        ("P4", from_edge_list(4, [(0, 1), (1, 2), (2, 3)])),
        ("K23", from_edge_list(5, [(u, v) for u in (0, 1) for v in (2, 3, 4)])),
    ]


def certify_star_equality(Delta_max: int, alpha_steps: int,
                          method: str | None = None) -> StarCertification:
    """Equality certification for stars, strictness for non-stars.

    For every Delta in [1, Delta_max] and alpha = k/alpha_steps the star
    K_{1,Delta} must satisfy |lambda1 - g(Delta, alpha)| <= 1e-8; the fixed
    connected non-star set (C4, C5, K4, P4, K23) must satisfy
    lambda1 > g + 1e-6 at alpha in {0, 0.25, 0.5, 0.75}. alpha = 1 is left
    out of the strictness set because lambda1 = Delta = g there for every
    graph. method None means the spectral_radius dispatcher, which solves
    these small matrices with LAPACK; "jacobi" or "power" force an oracle.
    """
    try:
        Delta_max = operator.index(Delta_max)
        alpha_steps = operator.index(alpha_steps)
    except TypeError:
        raise InputError("certification limits must be integers")
    if Delta_max < 1:
        raise InputError(f"Delta_max must be >= 1, got {Delta_max}")
    if alpha_steps < 1:
        raise InputError(f"alpha_steps must be >= 1, got {alpha_steps}")
    alphas = [k / alpha_steps for k in range(alpha_steps + 1)]
    failures = []
    eq_checks = 0
    max_gap = 0.0
    for Delta in range(1, Delta_max + 1):
        star = gen_star(Delta + 1)
        for alpha in alphas:
            lam = spectral_radius(build_alpha_matrix(star, alpha), method).lambda1
            gap = abs(lam - _g_kernel(Delta, alpha))
            eq_checks += 1
            max_gap = max(max_gap, gap)
            if gap > EQUALITY_TOL:
                failures.append(
                    f"star Delta={Delta} alpha={alpha:g}: |lambda1 - g| = {gap:.3e}")
    strict_checks = 0
    min_margin = float("inf")
    for name, g in _non_star_fixtures():
        Delta = degree_profile(g).max_degree
        for alpha in STRICTNESS_ALPHAS:
            lam = spectral_radius(build_alpha_matrix(g, alpha), method).lambda1
            margin = lam - _g_kernel(Delta, alpha)
            strict_checks += 1
            min_margin = min(min_margin, margin)
            if margin <= STRICTNESS_MARGIN:
                failures.append(
                    f"non-star {name} alpha={alpha:g}: margin = {margin:.3e}")
    return StarCertification(Delta_max, alpha_steps, eq_checks, max_gap,
                             strict_checks, min_margin, tuple(failures),
                             not failures)


# ---------------------------------------------------------------------------
# Reports
#
# CSV is the canonical artifact (fixed column order, reals at %.17g which
# round-trips float64 exactly, booleans as true/false); JSON mirrors the
# same column names with native types.
# ---------------------------------------------------------------------------

SWEEP_COLUMNS = ("delta", "Delta", "alpha", "f", "g", "diff", "symbolic",
                 "numeric", "witness", "consistent")
VERIFICATION_COLUMNS = ("graph_id", "n", "m", "Delta", "delta", "alpha",
                        "lambda1", "f", "g", "f_holds", "g_holds",
                        "g_equality", "is_star", "is_connected")


def _sweep_obj(r: SweepRecord) -> dict:
    return {"delta": r.delta, "Delta": r.Delta, "alpha": r.alpha,
            "f": r.f_value, "g": r.g_value, "diff": r.difference,
            "symbolic": r.symbolic_ordering.value,
            "numeric": r.numeric_ordering.value,
            "witness": r.witness.value, "consistent": r.consistent}


def _verification_obj(r: VerificationRecord) -> dict:
    return {"graph_id": r.graph_id, "n": r.n, "m": r.edge_count,
            "Delta": r.Delta, "delta": r.delta, "alpha": r.alpha,
            "lambda1": r.lambda1, "f": r.f_value, "g": r.g_value,
            "f_holds": r.f_holds, "g_holds": r.g_holds,
            "g_equality": r.g_equality, "is_star": r.is_star,
            "is_connected": r.is_connected}


def _to_bool(v) -> bool:
    if isinstance(v, bool):
        return v
    if v == "true":
        return True
    if v == "false":
        return False
    raise InputError(f"expected a boolean, got {v!r}")


def _obj_sweep(d: dict) -> SweepRecord:
    return SweepRecord(int(d["delta"]), int(d["Delta"]), float(d["alpha"]),
                       float(d["f"]), float(d["g"]), float(d["diff"]),
                       Ordering(d["symbolic"]), Ordering(d["numeric"]),
                       Witness(d["witness"]), _to_bool(d["consistent"]))


def _obj_verification(d: dict) -> VerificationRecord:
    return VerificationRecord(str(d["graph_id"]), int(d["n"]), int(d["m"]),
                              int(d["Delta"]), int(d["delta"]),
                              float(d["alpha"]), float(d["lambda1"]),
                              float(d["f"]), float(d["g"]),
                              _to_bool(d["f_holds"]), _to_bool(d["g_holds"]),
                              _to_bool(d["g_equality"]),
                              _to_bool(d["is_star"]),
                              _to_bool(d["is_connected"]))


def _report_kind(records, kind: str | None) -> str:
    if kind is None:
        if not records:
            raise InputError("empty record list needs an explicit kind")
        kind = "sweep" if isinstance(records[0], SweepRecord) else "verification"
    if kind not in ("sweep", "verification"):
        raise InputError(f"unknown report kind {kind!r}")
    return kind


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


def render_report(records, format: str = "csv", kind: str | None = None) -> str:
    """Records as CSV or JSON text; kind ('sweep'/'verification') is inferred
    from the first record when present."""
    kind = _report_kind(records, kind)
    columns = SWEEP_COLUMNS if kind == "sweep" else VERIFICATION_COLUMNS
    to_obj = _sweep_obj if kind == "sweep" else _verification_obj
    objs = [to_obj(r) for r in records]
    if format == "json":
        return json.dumps(objs, indent=1) + "\n"
    if format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(columns)
        for o in objs:
            w.writerow([_csv_cell(o[c]) for c in columns])
        return buf.getvalue()
    raise InputError(f"unknown report format {format!r}, expected csv or json")


def emit_report(records, format: str = "csv", path=None,
                kind: str | None = None) -> None:
    """Write render_report output to path."""
    if path is None:
        raise InputError("emit_report needs a destination path")
    text = render_report(records, format, kind)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def parse_report(path) -> list:
    """Read a report back into records; format and kind are inferred from
    the content itself. The inverse of emit_report for both formats."""
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    if text.lstrip().startswith("["):
        objs = json.loads(text)
        if not objs:
            return []
        from_obj = _obj_sweep if "delta" in objs[0] and "graph_id" not in objs[0] \
            else _obj_verification
        return [from_obj(o) for o in objs]
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return []
    header = tuple(rows[0])
    if header == SWEEP_COLUMNS:
        from_obj = _obj_sweep
    elif header == VERIFICATION_COLUMNS:
        from_obj = _obj_verification
    else:
        raise InputError(f"unrecognized report header {header!r}")
    return [from_obj(dict(zip(header, row))) for row in rows[1:]]
