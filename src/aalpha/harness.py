"""Verification campaigns and report files.

Three campaigns, each a falsification attempt on a claim about the bounds:

  * sweep_grid     — exhaustive (delta, Delta, alpha) grid; the symbolic
                     trichotomy must agree with the numeric sign of f - g
                     at every point.
  * verify_graph / random_campaign — concrete graphs; lambda1 must sit above
                     both bounds (g only applies when the graph has an edge).
  * certify_star_equality — stars must achieve g exactly; a fixed set of
                     connected non-stars must beat it strictly.

sweep_grid, verify_graph, random_campaign and parse_report all give a
ReportTable: one numpy array per report column, with orderings and
witnesses as small integer codes, which reads as a sequence of SweepRecord
or VerificationRecord tuples, as its column names say. verify_graph,
random_campaign and certify_star_equality share one check, _check, whose
table the first two return and certification reads its verdicts off.
emit_report and parse_report round-trip both kinds through CSV or JSON
without precision loss, by way of the column arrays the record types state.
Reports are UTF-8 text, so a graph_id may hold any character: CSV quotes
one holding a comma, a quote, a carriage return or a line feed, and JSON
escapes what is not ASCII. A malformed report raises InputError naming its
first bad CSV line, or its first bad JSON record (the line and column of
text that is not JSON); so does a file that is not UTF-8.

emit_report never holds a report as one text: it formats and writes
_BLOCK_ROWS rows at a time, in either format as one byte matrix made by
the kernels of aalpha.csvtext. parse_report hands an open CSV file to
np.loadtxt, which reads it line by line; a JSON report is read as one text.
Only a CSV report that fails is read again, by csv.reader, to name its bad
line: _BLOCK_ROWS rows at a time, each column converted at once.
On the 24.7 MB CSV report of sweep_grid(60, 60, 100), tracemalloc peaks at
3.8 MB in emit_report and 36.5 MB in parse_report.
"""

import csv
import itertools
import json
import math
import operator
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .alpha_matrix import _assemble, build_alpha_matrix
from .bounds import (ORDERINGS, WITNESSES, Ordering, Witness, _classify_codes,
                     _f_kernel, _g_kernel, _numeric_code, check_alpha,
                     check_int, check_seq)
from .csvtext import (coded_cells, csv_quote, distinct_cells, int_cells,
                      real_cells, rows)
from .errors import ConvergenceError, InputError
from .graphs import (Graph, add_isolated, emit_graph6, from_edge_list,
                     gen_complete, gen_cycle, gen_random, gen_star,
                     is_connected, is_star)
from .graphs import degree_profile  # noqa: F401  for perfbench's hook
from .spectral import (DISPATCH_DENSE_LIMIT, _default_method,
                       spectral_radii_dense, spectral_radius)

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


class ReportTable:
    """Report records of one kind, stored column by column.

    ``columns`` maps each of the kind's column names, SWEEP_COLUMNS or
    VERIFICATION_COLUMNS in that order, to a read-only numpy array of the
    dtype _CELLS gives it, the orderings and the witness as int8 codes into
    bounds.ORDERINGS and bounds.WITNESSES. ``kind``, 'sweep' or
    'verification', is read off the column names.

    The table reads as a sequence of its kind's record, SweepRecord or
    VerificationRecord. Iteration and integer indexing give records of plain
    Python values; a slice, an index array or a mask gives a table. A table
    equals a table of its kind, a list or a tuple that holds the same
    records, so an empty table equals [].
    """

    __slots__ = ("columns", "kind")

    def __init__(self, columns):
        self.kind = "verification" if "graph_id" in columns else "sweep"
        cols = {name: np.array(columns[name], dtype=_CELLS[name].dtype)
                for name in _KINDS[self.kind][0]}
        if len({c.shape for c in cols.values()}) != 1 or cols["delta"].ndim != 1:
            raise InputError(f"{self.kind} columns must be 1-d and of equal "
                             "length")
        for c in cols.values():
            c.flags.writeable = False
        self.columns = cols

    @classmethod
    def from_records(cls, records, kind: str) -> "ReportTable":
        """The table of any iterable of kind's records; a table of that kind
        comes back as is, and one of the other kind is refused."""
        if kind not in _KINDS:
            raise InputError(f"unknown report kind {kind!r}, expected sweep or "
                             "verification (no records to infer it from)")
        if isinstance(records, cls):
            if records.kind != kind:
                raise InputError(f"expected {kind} records, got a "
                                 f"{records.kind} table")
            return records
        names = _KINDS[kind][0]
        fields = list(zip(*records)) or [()] * len(names)
        if len(fields) != len(names):
            raise InputError(f"report records have {len(names)} fields, "
                             f"got {len(fields)}")
        return cls({name: _encode(values, _CELLS[name], _CELLS[name].members)
                    for name, values in zip(names, fields)})

    def __len__(self) -> int:
        return len(self.columns["delta"])

    def __iter__(self):
        return itertools.starmap(_KINDS[self.kind][1], zip(*(
            _values(c, _CELLS[name].members)
            for name, c in self.columns.items())))

    def __getitem__(self, index):
        if isinstance(index, (slice, np.ndarray)):
            return ReportTable({k: c[index] for k, c in self.columns.items()})
        i = range(len(self))[index]  # IndexError and TypeError as for a list
        return next(iter(self[i:i + 1]))

    def __eq__(self, other):
        if isinstance(other, ReportTable):
            return self.kind == other.kind and all(
                np.array_equal(a, b) for a, b in
                zip(self.columns.values(), other.columns.values()))
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and all(map(operator.eq, self, other))
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"ReportTable({len(self)} {self.kind} records)"


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


def _lambda1s(graphs, alphas, method: str | None, graph_ids) -> np.ndarray:
    """lambda1 of each graph's alpha matrix at each alpha (checked floats),
    as a (len(graphs), len(alphas)) array. The graphs share n: _check calls
    this once per vertex count.

    On the dense path (the dispatcher's choice up to DISPATCH_DENSE_LIMIT
    vertices, or method "dense") the matrices of all the graphs, graph by
    graph and alpha by alpha, form one stack, solved with one LAPACK call
    per DISPATCH_DENSE_LIMIT**2 entries, so no call holds more than the
    biggest single dense matrix. A split may fall inside a graph's alphas.
    A forced "jacobi", "power" or "lanczos", and every graph above the
    limit, get one spectral_radius call per alpha. A ConvergenceError is
    re-raised naming each graph_id in the failed call with its alphas there.
    """
    n, k = graphs[0].n, len(alphas)
    dense = (_default_method(n) if method is None else method) == "dense"
    step = max(1, DISPATCH_DENSE_LIMIT ** 2 // n ** 2) if dense else 1
    total = len(graphs) * k
    lams = np.empty(total)
    for lo in range(0, total, step):
        hi = min(lo + step, total)
        try:
            if dense:
                lams[lo:hi] = spectral_radii_dense(
                    _assemble(graphs, alphas, lo, hi))[0]
            else:
                lams[lo] = spectral_radius(build_alpha_matrix(
                    graphs[lo // k], alphas[lo % k]), method).lambda1
        except ConvergenceError as exc:
            at = "; ".join(
                f"{graph_ids[i]} at alpha="
                + ", ".join(map(str, alphas[max(lo - i * k, 0):hi - i * k]))
                for i in range(lo // k, (hi - 1) // k + 1))
            raise ConvergenceError(
                f"eigensolver failed on {at}: {exc}", estimate=exc.estimate,
                residual=exc.residual, iterations=exc.iterations) from exc
    return lams.reshape(len(graphs), k)


def _check(graphs, graph_ids, alphas,
           method: str | None = None) -> ReportTable:
    """The bound checks of graphs (each n >= 2) at alphas (checked floats),
    the one check of every campaign, as a verification table: graph by
    graph and alpha by alpha, the graphs grouped by vertex count in
    first-seen order. _lambda1s solves a group at a time, which is let go
    once checked; f, g and the three checks are computed over the (graph,
    alpha) array at once, each equal bit for bit to its value at one point.
    """
    groups = {}  # n -> [(graph, graph_id)], in first-seen order
    for g, gid in zip(graphs, graph_ids):
        if g.n < 2:
            raise InputError(f"verification needs n >= 2, got n = {g.n}")
        groups.setdefault(g.n, []).append((g, gid))
    if not groups:
        return ReportTable.from_records((), "verification")
    k, per_graph, lams = len(alphas), {}, []
    for n in list(groups):
        gs, ids = zip(*groups.pop(n))
        lams.append(_lambda1s(gs, alphas, method, ids))
        degrees = np.array([g.degrees for g in gs])
        for name, values in dict(  # the columns of one value per graph
                graph_id=ids, n=[n] * len(gs), m=[g.edge_count for g in gs],
                Delta=degrees.max(1), delta=degrees.min(1),
                is_star=map(is_star, gs),
                is_connected=map(is_connected, gs)).items():
            per_graph.setdefault(name, []).extend(values)
    lam = np.concatenate(lams)
    per_graph = {name: np.array(values, dtype=_CELLS[name].dtype)
                 for name, values in per_graph.items()}
    # A row per graph and a column per alpha. The kernels square degree
    # gaps; in float64 that cannot wrap.
    a = np.array(alphas, dtype=np.float64)
    fdelta, fDelta = (per_graph[c][:, None] * 1.0 for c in ("delta", "Delta"))
    f, gg = _f_kernel(fdelta, fDelta, a, np), _g_kernel(fDelta, a, np)
    columns = {name: np.repeat(c, k) for name, c in per_graph.items()}
    columns.update(
        alpha=np.tile(a, len(lam)), lambda1=lam.ravel(), f=f.ravel(),
        g=gg.ravel(), f_holds=(lam >= f - BOUND_SLACK).ravel(),
        g_holds=(lam >= gg - BOUND_SLACK).ravel(),
        g_equality=(np.abs(lam - gg) <= EQUALITY_TOL).ravel())
    return ReportTable(columns)


def verify_graph(g: Graph, alpha_list, method: str | None = None,
                 graph_id: str | None = None) -> ReportTable:
    """Check lambda1 >= f - 1e-8 and lambda1 >= g - 1e-8 for each alpha.

    Needs every alpha in [0, 1] and n >= 2. Records are produced in the
    given alpha order; g_holds is recorded honestly even for edgeless
    graphs, where g > 0 = lambda1 — verification_violations applies the
    edge-count exclusion. This is _check, every campaign's check, on one
    graph: on the dense path all the alphas go through one LAPACK call (one
    per DISPATCH_DENSE_LIMIT**2 entries), and each lambda1 equals a solve of
    that matrix alone, bit for bit. method None is the spectral_radius
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
    default campaign (n = 2..14), split only where a stack would pass
    DISPATCH_DENSE_LIMIT**2 entries, which may be inside a graph's alphas.
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


# ---------------------------------------------------------------------------
# Reports
#
# CSV is the canonical artifact (fixed column order, reals at %.17g which
# round-trips float64 exactly, booleans as true/false, csv.writer quoting);
# JSON holds the same columns with native types. The record types state the
# schema: a kind's columns are its record's fields, renamed by _RENAMES, with
# the cells _TYPE_CELLS gives their annotations (_schema). Records, CSV text
# and JSON objects of both kinds pass through the column arrays of _CELLS.
# ---------------------------------------------------------------------------

_BLOCK_ROWS = 4096  # report rows formatted, written or re-read at a time
REPORT_FORMATS = ("csv", "json")  # each also names a _Cell block writer


class _Cell(NamedTuple):
    """How one report column is held, written and read.

    ``dtype`` is the in-memory dtype and ``json_types`` the types its JSON
    values may have. ``csv`` and ``json`` write a block of the column as
    cells of that format's text (see aalpha.csvtext). A coded column holds,
    for each entry, the position of its record value in ``members``; at
    that position ``names`` has its CSV text and ``json_values`` its JSON
    value. Any other column holds record values as they are.
    """

    dtype: object
    json_types: tuple[type, ...]
    csv: Callable
    json: Callable
    members: tuple = ()
    names: tuple[str, ...] = ()
    json_values: tuple = ()

    @property
    def field(self):
        """The np.loadtxt field dtype. A coded column is read as bytes one
        character wider than its longest name, so that no longer cell can be
        cut down to a name."""
        if self.names:
            return f"S{max(map(len, self.names)) + 1}"
        return self.dtype


def _json_text(value) -> str:
    """json.dumps(value) for a str, int or float, via the encoders it calls."""
    if isinstance(value, str):
        return json.encoder.encode_basestring_ascii(value)
    return repr(value) if math.isfinite(value) else json.dumps(value)


def _coded(members, names=(), dtype=np.int8, json_types=(str,)) -> _Cell:
    """The cell of a coded column. An enum member's JSON value is its value,
    and a bool's is itself; names default to the JSON values."""
    values = tuple(getattr(m, "value", m) for m in members)
    names = names or values
    return _Cell(dtype, json_types, partial(coded_cells, names=names),
                 partial(coded_cells, names=tuple(map(json.dumps, values))),
                 members, names, values)


_JSON = partial(distinct_cells, text=_json_text)
_INT = _Cell(np.int64, (int,), int_cells, int_cells)
_REAL = _Cell(np.float64, (float, int), real_cells, _JSON)
_TEXT = _Cell(object, (str,), partial(distinct_cells, text=csv_quote), _JSON)
_BOOL = _coded((False, True), ("false", "true"), np.bool_, (bool,))
_ORDERING, _WITNESS = _coded(ORDERINGS), _coded(WITNESSES)

_RENAMES = {"f_value": "f", "g_value": "g", "difference": "diff",
            "symbolic_ordering": "symbolic", "numeric_ordering": "numeric",
            "edge_count": "m"}
_TYPE_CELLS = {int: _INT, float: _REAL, str: _TEXT, bool: _BOOL,
               Ordering: _ORDERING, Witness: _WITNESS}


def _schema(record) -> dict:
    """The cell of each report column of a record type, in field order."""
    return {_RENAMES.get(f, f): _TYPE_CELLS[t]
            for f, t in record.__annotations__.items()}


_KINDS = {kind: (tuple(_schema(rec)), rec) for kind, rec in
          (("sweep", SweepRecord), ("verification", VerificationRecord))}
SWEEP_COLUMNS, VERIFICATION_COLUMNS = (names for names, _ in _KINDS.values())
_CELLS = _schema(SweepRecord) | _schema(VerificationRecord)


def _encode(values, cell: _Cell, keys: tuple) -> np.ndarray:
    """The column array of a sequence of values. A coded column's values
    are looked up in keys: its members, names or JSON values."""
    if keys:
        values = list(map({k: i for i, k in enumerate(keys)}.__getitem__,
                          values))
    return np.array(values, dtype=cell.dtype)


def _values(column: np.ndarray, keys: tuple) -> list:
    """The entries of a column array as Python values; the codes of a coded
    column are read through keys in one array lookup."""
    if not keys:
        return column.tolist()
    return np.array(keys, dtype=object)[column.astype(np.intp)].tolist()


def _report_columns(records, format: str, kind: str | None) -> dict:
    """The column arrays of records, after the checks on kind, format,
    record width and, for CSV, the UTF-8 text of each graph_id, that come
    before any text is written; kind ('sweep'/'verification') is inferred
    from the first record when present."""
    if kind is None and records:
        kind = "sweep" if isinstance(records[0], SweepRecord) else "verification"
    table = ReportTable.from_records(records, kind)
    if format not in REPORT_FORMATS:
        raise InputError(f"unknown report format {format!r}, expected "
                         + " or ".join(REPORT_FORMATS))
    if format == "csv" and table.kind == "verification":
        # JSON escapes a lone surrogate; CSV is UTF-8, which has no code for it.
        for gid in dict.fromkeys(table.columns["graph_id"].tolist()):
            try:
                gid.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise InputError(f"graph_id {gid!r} cannot be written as "
                                 f"UTF-8: {exc.reason}") from None
    return table.columns


def _report_blocks(columns: dict, format: str):
    """The report text of a table's column arrays, _BLOCK_ROWS rows at a
    time: the format's head, a block of rows per step, then its tail. A
    block is one byte matrix, the cells of each column's writer for the
    format between the format's separators (aalpha.csvtext.rows). JSON is
    json.dumps of the list of row objects at indent=1, and its first row
    drops the ',' that leads every other."""
    names = tuple(columns)
    total = len(columns[names[0]])
    if format == "csv":
        head, tail = ",".join(names) + "\n", ""
        seps = ["", *[","] * (len(names) - 1), "\n"]
    else:
        head, tail = "[", "\n]\n" if total else "]\n"
        keys = [f"\n  {json.dumps(name)}: " for name in names]
        seps = [",\n {" + keys[0], *["," + key for key in keys[1:]], "\n }"]
    seps = [sep.encode() for sep in seps]
    yield head
    for start in range(0, total, _BLOCK_ROWS):
        block = rows([getattr(_CELLS[name], format)(
            columns[name][start:start + _BLOCK_ROWS]) for name in names], seps)
        yield block[1:] if format == "json" and not start else block
    yield tail


def render_report(records, format: str = "csv", kind: str | None = None) -> str:
    """Records (a ReportTable or a sequence of records) as CSV or JSON text;
    kind ('sweep'/'verification') is inferred from the first record when
    present."""
    return "".join(_report_blocks(_report_columns(records, format, kind),
                                  format))


def emit_report(records, format: str = "csv", path=None,
                kind: str | None = None) -> None:
    """Write the render_report text of records to path, a block of rows at
    a time; records the text cannot be made of leave no file."""
    if path is None:
        raise InputError("emit_report needs a destination path")
    columns = _report_columns(records, format, kind)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(_report_blocks(columns, format))


def _decode(column: np.ndarray, names: tuple[str, ...]):
    """Position in names of each cell of a bytes column, or None when some
    cell is not a name."""
    order = np.argsort(names)
    ordered = np.array(names, dtype=column.dtype)[order]
    pos = np.searchsorted(ordered, column).clip(0, len(names) - 1)
    if not np.array_equal(ordered[pos], column):
        return None
    return order[pos]


def _misfit(cell: _Cell, values: list, keys: tuple, types=()) -> int | None:
    """Index of the first of values (CSV cells, or JSON values of types)
    that cannot stand in a column, or None: a coded column's must be keys,
    any other's convertible to its dtype. All the values are tried at once,
    and one by one only when that fails."""
    def fit(part):
        if types and not set(map(type, part)) <= set(types):
            return False
        if keys:
            return set(part) <= set(keys)
        try:
            np.array(part, dtype=cell.dtype)
        except (ValueError, OverflowError):
            return False
        return True

    if fit(values):
        return None
    return next(i for i, v in enumerate(values) if not fit([v]))


def _bad_cell(header, block, read) -> InputError | None:
    """An InputError naming the first cell of a block of (line number, row)
    pairs that does not fit its column, or None: the smallest line, and on
    it the first column in header order. The columns in read, which
    np.loadtxt has already read, are not looked at."""
    bad = []  # (row, column) of the first bad cell of each failing column
    for j, name in enumerate(header):
        i = None if name in read else _misfit(
            _CELLS[name], [row[j] for _, row in block], _CELLS[name].names)
        if i is not None:
            bad.append((i, j))
    if not bad:
        return None
    i, j = min(bad)
    line, row = block[i]
    return InputError(f"line {line}: bad {header[j]} cell {row[j]!r}")


def _malformed(path, header, reason, read=()) -> InputError:
    """An InputError naming the first line of a CSV report that does not fit
    its header, where np.loadtxt has read the columns in read. This reads
    the file again, so it runs only after the column-wise parse has failed:
    csv.reader reads it up to its first row of the wrong width or that is
    not CSV, and _bad_cell checks the rows before that _BLOCK_ROWS at a
    time."""
    block, stop = [], None
    with open(path, encoding="utf-8", newline="\n") as fh:
        reader = csv.reader(fh)
        next(row for row in reader if tuple(row) == header)
        try:
            for row in reader:
                if not row:
                    continue  # np.loadtxt skips blank lines too
                if len(row) != len(header):
                    stop = InputError(f"line {reader.line_num}: expected "
                                      f"{len(header)} fields, found {len(row)}")
                    break
                block.append((reader.line_num, row))
                if len(block) == _BLOCK_ROWS:
                    if bad := _bad_cell(header, block, read):
                        return bad
                    block = []
        except csv.Error as exc:
            stop = InputError(f"line {reader.line_num}: {exc}")
    return (_bad_cell(header, block, read) or stop
            or InputError(f"malformed report: {reason}"))


def _head(fh) -> str:
    """The lines read from fh up to and including its first line that is
    not blank ("" at the end of the file)."""
    head = line = fh.readline()
    while line.isspace():
        line = fh.readline()
        head += line
    return head


def _csv_columns(head: str, fh, path) -> dict:
    """The columns of a CSV report whose lines up to its header, head, have
    been read from fh: np.loadtxt reads the rest line by line, and each cell
    kind is decoded at once. An empty file is an empty verification report."""
    header = tuple(next(csv.reader([head.rstrip("\n").rpartition("\n")[2]]
                                   if head else []), VERIFICATION_COLUMNS))
    if header not in (SWEEP_COLUMNS, VERIFICATION_COLUMNS):
        raise InputError(f"unrecognized report header {header!r}")
    dtype = [(name, _CELLS[name].field) for name in header]
    body = fh.tell()
    if not _head(fh).strip():  # header only; np.loadtxt would warn of no data
        data = np.empty(0, dtype)
    else:
        fh.seek(body)
        try:
            data = np.loadtxt(fh, dtype=dtype, delimiter=",", quotechar='"',
                              comments=None, ndmin=1)
        except UnicodeDecodeError:  # not a bad line: the caller names the file
            raise
        except (ValueError, OverflowError) as exc:
            raise _malformed(path, header, exc) from None
    columns = {}
    for name in header:
        cell, column = _CELLS[name], data[name]
        if cell.names:
            column = _decode(column, cell.names)
            if column is None:
                raise _malformed(path, header, f"unknown {name} cell", [
                    c for c in header if not _CELLS[c].names])
        columns[name] = np.ascontiguousarray(column, dtype=cell.dtype)
    return columns


def _json_columns(text: str) -> dict:
    """The columns of a JSON report; the kind is read off the first record,
    and an empty list is an empty verification report."""
    try:
        objs = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON report: {exc}") from None
    sweep = objs and isinstance(objs[0], dict) and "graph_id" not in objs[0]
    header = SWEEP_COLUMNS if sweep else VERIFICATION_COLUMNS
    fields = set(header)
    for i, obj in enumerate(objs):
        if not isinstance(obj, dict):
            raise InputError(f"record {i}: expected an object, got {obj!r}")
        if not fields <= obj.keys():
            missing = [name for name in header if name not in obj]
            raise InputError(f"record {i}: missing {', '.join(missing)}")
    columns = {}
    for name in header:
        cell, values = _CELLS[name], [obj[name] for obj in objs]
        i = _misfit(cell, values, cell.json_values, cell.json_types)
        if i is not None:
            raise InputError(f"record {i}: bad {name} value {values[i]!r}")
        columns[name] = _encode(values, cell, cell.json_values)
    return columns


def parse_report(path):
    """Read a report back as a ReportTable of the report's kind; an empty
    file or JSON list is an empty verification table, equal to []. Format
    and kind are inferred from the content itself. Both formats are
    read into the columns that _CELLS describes; malformed CSV raises
    InputError naming its first bad line, malformed JSON naming its first
    bad record, and a file that is not UTF-8 naming the file. CSV is read
    from the open file line by line, JSON as one text. The inverse of
    emit_report for both formats."""
    try:
        with open(path, encoding="utf-8", newline="\n") as fh:
            head = _head(fh)
            if head.lstrip().startswith("["):
                fh.seek(0)
                columns = _json_columns(fh.read())
            else:
                columns = _csv_columns(head, fh, path)
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from None
    return ReportTable(columns)
