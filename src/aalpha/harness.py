"""Verification campaigns and report files.

Three campaigns, each a falsification attempt on a claim about the bounds:

  * sweep_grid     — exhaustive (delta, Delta, alpha) grid; the symbolic
                     trichotomy must agree with the numeric sign of f - g
                     at every point.
  * verify_graph / random_campaign — concrete graphs; lambda1 must sit above
                     both bounds (g only applies when the graph has an edge).
  * certify_star_equality — stars must achieve g exactly; a fixed set of
                     connected non-stars must beat it strictly.

A sweep comes back as a SweepTable: one numpy array per report column, with
orderings and witnesses as small integer codes, which still reads as a
sequence of SweepRecord tuples. Graph checks are lists of VerificationRecord
tuples. emit_report and parse_report round-trip both through CSV or JSON
without precision loss, by way of the column arrays of one schema, _CELLS;
CSV quotes a graph_id holding a comma, a quote, a carriage return or a line
feed. A malformed report raises InputError naming its first bad CSV line, or
its first bad JSON record (the line and column of text that is not JSON).
"""

import csv
import io
import itertools
import json
import operator
from typing import Callable, NamedTuple

import numpy as np

from .alpha_matrix import build_alpha_matrix
from .bounds import (_BOOLS, DEFAULT_EPSILON, ORDERINGS, WITNESSES, Ordering,
                     Witness, _classify_codes, _f_kernel, _g_kernel,
                     _numeric_code, check_alpha)
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


class SweepTable:
    """Sweep records stored column by column.

    ``columns`` maps each SWEEP_COLUMNS name to a read-only numpy array:
    int64 degrees, float64 reals, a bool ``consistent``, and int8 codes in
    ``symbolic``, ``numeric`` and ``witness`` that index bounds.ORDERINGS
    and bounds.WITNESSES.

    The table reads as a sequence of SweepRecord. Iteration and integer
    indexing give records of plain int, float, bool and enum values, a
    slice gives a table, and a table equals any table, list or tuple that
    holds the same records, so an empty table equals [].
    """

    __slots__ = ("columns",)

    def __init__(self, columns):
        cols = {name: np.array(columns[name], dtype=_CELLS[name].dtype)
                for name in SWEEP_COLUMNS}
        if len({c.shape for c in cols.values()}) != 1 or cols["delta"].ndim != 1:
            raise InputError("sweep columns must be 1-d and of equal length")
        for c in cols.values():
            c.flags.writeable = False
        self.columns = cols

    @classmethod
    def from_records(cls, records) -> "SweepTable":
        """The table of any iterable of SweepRecord; a table comes back as is."""
        if isinstance(records, cls):
            return records
        return cls(_columns(records, SWEEP_COLUMNS))

    def __len__(self) -> int:
        return len(self.columns["delta"])

    def __iter__(self):
        return _records(self.columns, SWEEP_COLUMNS, SweepRecord)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return SweepTable({k: c[index] for k, c in self.columns.items()})
        i = range(len(self))[index]  # IndexError and TypeError as for a list
        return next(iter(self[i:i + 1]))

    def __eq__(self, other):
        if isinstance(other, SweepTable):
            return all(np.array_equal(a, b) for a, b in
                       zip(self.columns.values(), other.columns.values()))
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and all(map(operator.eq, self, other))
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"SweepTable({len(self)} records)"


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


def _check_limit(name: str, value, low: int) -> int:
    """The one check for a campaign's size limits: an integer (a bool is
    refused, not read as 0 or 1) of at least low."""
    try:
        if isinstance(value, _BOOLS):
            raise TypeError("a bool is not a limit")
        value = operator.index(value)
    except TypeError:
        raise InputError(f"{name} must be an integer, got {value!r}") from None
    if value < low:
        raise InputError(f"{name} must be >= {low}, got {value}")
    return value


def sweep_grid(delta_max: int, Delta_max: int,
               alpha_steps: int) -> SweepTable:
    """Every (delta, Delta, alpha) with 0 <= delta <= min(Delta, delta_max),
    delta <= Delta <= Delta_max, alpha = k/alpha_steps for k = 0..alpha_steps,
    in (delta, Delta, alpha) order, as a SweepTable.

    Each record carries the symbolic classification, the numeric sign of
    f - g at epsilon 1e-9, and their agreement flag; nothing raises here so
    a disagreement would surface as a countable record, not an abort. The
    columns come from the same kernels as bound_f, bound_g, classify and
    numeric_ordering, run over whole arrays, and equal them bit for bit.
    """
    delta_max = _check_limit("delta_max", delta_max, 0)
    Delta_max = _check_limit("Delta_max", Delta_max, delta_max)
    alpha_steps = _check_limit("alpha_steps", alpha_steps, 1)
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
    numeric = _numeric_code(diff, DEFAULT_EPSILON)
    return SweepTable(dict(zip(SWEEP_COLUMNS, (
        delta, Delta, alpha, f, g, diff, symbolic, numeric, witness,
        symbolic == numeric))))


def summarize_sweep(records) -> SweepSummary:
    """Count orderings and disagreements across a SweepTable, or across any
    iterable of SweepRecord, which is made into a table first."""
    table = SweepTable.from_records(records)
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
    alphas = [check_alpha(a) for a in alpha_list]
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
    Delta_max = _check_limit("Delta_max", Delta_max, 1)
    alpha_steps = _check_limit("alpha_steps", alpha_steps, 1)
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
# round-trips float64 exactly, booleans as true/false, csv.writer quoting);
# JSON holds the same columns with native types. _CELLS is the one statement
# of the schema: records, CSV text and JSON objects of both report kinds all
# pass through the column arrays it describes.
# ---------------------------------------------------------------------------

SWEEP_COLUMNS = ("delta", "Delta", "alpha", "f", "g", "diff", "symbolic",
                 "numeric", "witness", "consistent")
VERIFICATION_COLUMNS = ("graph_id", "n", "m", "Delta", "delta", "alpha",
                        "lambda1", "f", "g", "f_holds", "g_holds",
                        "g_equality", "is_star", "is_connected")


def _csv_quote(text: str) -> str:
    # csv.writer's own quoting of one field. A field holding a character of
    # the line terminator is quoted, so "\r\n" quotes both; the empty second
    # field keeps a lone empty value from being written as "".
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow((text, ""))
    return buf.getvalue()[:-3]


class _Cell(NamedTuple):
    """How one report column is held, written and read.

    ``dtype`` is the in-memory dtype and ``json_types`` the types its JSON
    values may have. A coded column holds, for each entry, the position of
    its record value in ``members``; at that position ``names`` has its CSV
    text and ``json_values`` its JSON value. Any other column holds record
    values as they are and writes each in CSV with ``text``.
    """

    dtype: object
    json_types: tuple[type, ...]
    text: Callable | None = None
    members: tuple = ()
    names: tuple[str, ...] = ()

    @property
    def json_values(self) -> tuple:
        """An enum member is written as its value, a bool as itself."""
        return tuple(getattr(m, "value", m) for m in self.members)

    @property
    def field(self):
        """The np.loadtxt field dtype. A coded column is read as bytes one
        character wider than its longest name, so that no longer cell can be
        cut down to a name."""
        if self.names:
            return f"S{max(map(len, self.names)) + 1}"
        return self.dtype


_INT = _Cell(np.int64, (int,), str)
_REAL = _Cell(np.float64, (float, int), "%.17g".__mod__)
_TEXT = _Cell(object, (str,), _csv_quote)
_BOOL = _Cell(np.bool_, (bool,), members=(False, True),
              names=("false", "true"))
_ORDERING = _Cell(np.int8, (str,), members=ORDERINGS,
                  names=tuple(o.value for o in ORDERINGS))
_WITNESS = _Cell(np.int8, (str,), members=WITNESSES,
                 names=tuple(w.value for w in WITNESSES))

# The cell of every report column; the two kinds share the names they share.
_CELLS = {"delta": _INT, "Delta": _INT, "alpha": _REAL, "f": _REAL,
          "g": _REAL, "diff": _REAL, "symbolic": _ORDERING,
          "numeric": _ORDERING, "witness": _WITNESS, "consistent": _BOOL,
          "graph_id": _TEXT, "n": _INT, "m": _INT, "lambda1": _REAL,
          "f_holds": _BOOL, "g_holds": _BOOL, "g_equality": _BOOL,
          "is_star": _BOOL, "is_connected": _BOOL}


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


def _columns(records, names) -> dict:
    """The column arrays of a sequence of records whose fields are the
    columns names, in order; a SweepTable gives its own."""
    if isinstance(records, SweepTable) and names == SWEEP_COLUMNS:
        return records.columns
    fields = list(zip(*records)) or [()] * len(names)
    if len(fields) != len(names):
        raise InputError(f"report records have {len(names)} fields, "
                         f"got {len(fields)}")
    return {name: _encode(values, _CELLS[name], _CELLS[name].members)
            for name, values in zip(names, fields)}


def _records(columns: dict, names, record):
    """The records, of NamedTuple type record, that column arrays hold."""
    return itertools.starmap(record, zip(*(
        _values(columns[name], _CELLS[name].members) for name in names)))


def _texts(column: np.ndarray, text: Callable, names: tuple) -> list[str]:
    """The text of each entry of a column: a coded column's is picked from
    names, any other's is text(value), with every distinct value formatted
    once."""
    if names:
        return _values(column, names)
    # Reals are told apart by their bits, so -0.0 keeps its own text.
    real = column.dtype == np.float64
    distinct, inverse = np.unique(column.view(np.int64) if real else column,
                                  return_inverse=True)
    if real:
        distinct = distinct.view(np.float64)
    texts = np.array([text(v) for v in distinct.tolist()], dtype=object)
    return texts[inverse].tolist()


def render_report(records, format: str = "csv", kind: str | None = None) -> str:
    """Records (a SweepTable or a sequence of records) as CSV or JSON text;
    kind ('sweep'/'verification') is inferred from the first record when
    present."""
    if kind is None and records:
        kind = "sweep" if isinstance(records[0], SweepRecord) else "verification"
    names = {"sweep": SWEEP_COLUMNS,
             "verification": VERIFICATION_COLUMNS}.get(kind)
    if names is None:
        raise InputError(f"unknown report kind {kind!r}, expected sweep or "
                         "verification (no records to infer it from)")
    if format not in ("csv", "json"):
        raise InputError(f"unknown report format {format!r}, expected csv or json")
    columns = _columns(records, names)
    if format == "json":
        # json.dumps(rows, indent=1), written a column at a time.
        cells = [_texts(columns[name], json.dumps, tuple(
            map(json.dumps, _CELLS[name].json_values))) for name in names]
        row = " {\n" + ",\n".join(f"  {json.dumps(name)}: %s"
                                   for name in names) + "\n }"
        rows = ",\n".join(row % values for values in zip(*cells))
        return f"[\n{rows}\n]\n" if rows else "[]\n"
    cells = [_texts(columns[name], _CELLS[name].text, _CELLS[name].names)
             for name in names]
    return "\n".join([",".join(names), *map(",".join, zip(*cells))]) + "\n"


def emit_report(records, format: str = "csv", path=None,
                kind: str | None = None) -> None:
    """Write render_report output to path."""
    if path is None:
        raise InputError("emit_report needs a destination path")
    text = render_report(records, format, kind)
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(text)


def _decode(column: np.ndarray, names: tuple[str, ...]):
    """Position in names of each cell of a bytes column, or None when some
    cell is not a name."""
    order = np.argsort(names)
    ordered = np.array(names, dtype=column.dtype)[order]
    pos = np.searchsorted(ordered, column).clip(0, len(names) - 1)
    if not np.array_equal(ordered[pos], column):
        return None
    return order[pos]


def _fits(cell: _Cell, value, keys: tuple) -> bool:
    """Whether a CSV cell or a JSON value can stand in a column: one of keys
    for a coded column, and convertible to its dtype for any other."""
    if keys:
        return value in keys
    try:
        np.array(value, dtype=cell.dtype)
    except (ValueError, OverflowError):
        return False
    return True


def _malformed(text: str, header, reason) -> InputError:
    """An InputError naming the first line of a CSV report that does not fit
    its header. This rescans the text row by row, so it runs only after the
    column-wise parse has failed."""
    reader = csv.reader(io.StringIO(text))
    next(reader)
    try:
        for row in reader:
            if not row:
                continue  # np.loadtxt skips blank lines too
            if len(row) != len(header):
                return InputError(f"line {reader.line_num}: expected "
                                  f"{len(header)} fields, found {len(row)}")
            for name, cell in zip(header, row):
                if not _fits(_CELLS[name], cell, _CELLS[name].names):
                    return InputError(
                        f"line {reader.line_num}: bad {name} cell {cell!r}")
    except csv.Error as exc:
        return InputError(f"line {reader.line_num}: {exc}")
    return InputError(f"malformed report: {reason}")


def _csv_columns(text: str) -> tuple[tuple[str, ...], dict]:
    """The header and columns of a CSV report, read by np.loadtxt and
    decoded cell kind by cell kind; an empty file is an empty verification
    report."""
    header = tuple(next(csv.reader(io.StringIO(text)), VERIFICATION_COLUMNS))
    if header not in (SWEEP_COLUMNS, VERIFICATION_COLUMNS):
        raise InputError(f"unrecognized report header {header!r}")
    body = text.partition("\n")[2]
    dtype = [(name, _CELLS[name].field) for name in header]
    if not body.strip():  # header only; np.loadtxt would warn of no data
        data = np.empty(0, dtype)
    else:
        try:
            data = np.loadtxt(io.StringIO(body), dtype=dtype, delimiter=",",
                              quotechar='"', comments=None, ndmin=1)
        except (ValueError, OverflowError) as exc:
            raise _malformed(text, header, exc) from None
    columns = {}
    for name in header:
        cell, column = _CELLS[name], data[name]
        if cell.names:
            column = _decode(column, cell.names)
            if column is None:
                raise _malformed(text, header, f"unknown {name} cell")
        columns[name] = np.ascontiguousarray(column, dtype=cell.dtype)
    return header, columns


def _json_columns(text: str) -> tuple[tuple[str, ...], dict]:
    """The header and columns of a JSON report; the kind is read off the
    first record, and an empty list is an empty verification report."""
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
        keys = cell.json_values
        try:
            if not set(map(type, values)) <= set(cell.json_types) or (
                    keys and not set(values) <= set(keys)):
                raise ValueError(name)
            columns[name] = _encode(values, cell, keys)
        except (ValueError, OverflowError):
            i, v = next((i, v) for i, v in enumerate(values) if not (
                type(v) in cell.json_types and _fits(cell, v, keys)))
            raise InputError(f"record {i}: bad {name} value {v!r}") from None
    return header, columns


def parse_report(path):
    """Read a report back: a SweepTable for a sweep report, a list of
    VerificationRecord otherwise, and [] for an empty file or JSON list.
    Format and kind are inferred from the content itself. Both formats are
    read into the columns that _CELLS describes; malformed CSV raises
    InputError naming its first bad line, malformed JSON naming its first
    bad record. The inverse of emit_report for both formats."""
    with open(path, "r", encoding="ascii", newline="") as fh:
        text = fh.read()
    json_text = text.lstrip().startswith("[")
    header, columns = (_json_columns if json_text else _csv_columns)(text)
    if header == SWEEP_COLUMNS:
        return SweepTable(columns)
    return list(_records(columns, header, VerificationRecord))
