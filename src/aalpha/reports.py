"""Report records, their columnar table, and report files in CSV or JSON.

Each kind of report is a record type: the trichotomy sweep's SweepRecord
and the bound checks' VerificationRecord. _KINDS names them, and every
choice of a kind is a lookup in it: by name, by record type or by the exact
tuple of a table's columns or CSV header; a JSON report is of the kind that
shares most columns with its first record. A record type states its kind's
schema (_schema): its fields, renamed by _RENAMES, are the columns, with the
cells _TYPE_CELLS gives their annotations. So a new column is one annotated
field, and a new layout one more record type in _KINDS.

CSV is canonical: fixed column order, reals at %.17g, booleans as
true/false, csv.writer quoting. JSON holds the same columns with native
types. Both are UTF-8 and round-trip every value exactly. emit_report
writes _BLOCK_ROWS rows at a time, each block one byte matrix made by the
kernels of aalpha.csvtext; parse_report hands a CSV file to np.loadtxt,
which reads it line by line, and reads JSON as one text. On the 24.7 MB CSV
report of sweep_grid(60, 60, 100), tracemalloc peaks at 3.8 MB in
emit_report and 36.5 MB in parse_report.
"""

import csv
import itertools
import json
import math
import operator
from functools import cache, partial
from typing import Callable, NamedTuple

import numpy as np

from .bounds import ORDERINGS, WITNESSES, Ordering, Witness
from .csvtext import (coded_cells, csv_quote, distinct_cells, int_cells,
                      real_cells, rows)
from .errors import InputError

_BLOCK_ROWS = 4096  # report rows formatted, written or re-read at a time
REPORT_FORMATS = ("csv", "json")  # each also names a _Cell block writer


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


@cache
def _schema(record) -> dict:
    """The cell of each report column of a record type, in field order."""
    return {_RENAMES.get(f, f): _TYPE_CELLS[t]
            for f, t in record.__annotations__.items()}


_KINDS = {"sweep": SweepRecord, "verification": VerificationRecord}
_EMPTY_KIND = "verification"  # of an empty report, or records of no kind
SWEEP_COLUMNS, VERIFICATION_COLUMNS = map(tuple, map(_schema, _KINDS.values()))


def _kind(key) -> str | None:
    """The kind whose record type, or exact tuple of columns, is key."""
    return next((kind for kind, rec in _KINDS.items()
                 if key in (rec, tuple(_schema(rec)))), None)


class ReportTable:
    """Report records of one kind, stored column by column.

    ``columns`` maps the column names of ``kind``, a name in _KINDS looked up
    by them, to read-only numpy arrays of the dtypes of its schema; the
    orderings and the witness are int8 codes into bounds.ORDERINGS and
    bounds.WITNESSES. Iteration and integer indexing give the kind's records
    of plain Python values; a slice, an index array or a mask gives a table.
    A table equals a table, list or tuple of the same records, so an empty
    table equals [].
    """

    __slots__ = ("columns", "kind")

    def __init__(self, columns):
        self.kind = _kind(tuple(columns))
        if self.kind is None:
            raise InputError(f"unrecognized report columns {tuple(columns)!r}")
        cols = {name: np.array(columns[name], dtype=cell.dtype)
                for name, cell in _schema(_KINDS[self.kind]).items()}
        if (len({c.shape for c in cols.values()}) != 1
                or next(iter(cols.values())).ndim != 1):
            raise InputError(f"{self.kind} columns must be 1-d and of equal "
                             "length")
        for c in cols.values():
            c.flags.writeable = False
        self.columns = cols

    @classmethod
    def from_records(cls, records, kind: str) -> "ReportTable":
        """The table of any iterable of kind's records; a table of that kind
        comes back as is, and one of another kind is refused."""
        if kind not in _KINDS:
            raise InputError(f"unknown report kind {kind!r}, expected "
                             f"{' or '.join(_KINDS)} (no records to infer it "
                             "from)")
        cells = _schema(_KINDS[kind])
        if isinstance(records, cls):
            if records.kind != kind:
                raise InputError(f"expected {kind} records, got a "
                                 f"{records.kind} table")
            return records
        fields = list(zip(*records)) or [()] * len(cells)
        if len(fields) != len(cells):
            raise InputError(f"report records have {len(cells)} fields, "
                             f"got {len(fields)}")
        return cls({name: _encode(values, cell, cell.members)
                    for (name, cell), values in zip(cells.items(), fields)})

    def __len__(self) -> int:
        return len(next(iter(self.columns.values())))

    def __iter__(self):
        record = _KINDS[self.kind]  # made _BLOCK_ROWS records at a time
        for start in range(0, len(self), _BLOCK_ROWS):
            yield from itertools.starmap(record, zip(*(
                _values(self.columns[name][start:start + _BLOCK_ROWS],
                        cell.members)
                for name, cell in _schema(record).items())))

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


def _report_table(records, format: str, kind: str | None) -> ReportTable:
    """The table of records, checked as far as it can be before any text is
    written; kind None is looked up by the first record's type."""
    if kind is None and records:
        kind = _kind(type(records[0])) or _EMPTY_KIND
    table = ReportTable.from_records(records, kind)
    if format not in REPORT_FORMATS:
        raise InputError(f"unknown report format {format!r}, expected "
                         + " or ".join(REPORT_FORMATS))
    # JSON escapes a lone surrogate; CSV is UTF-8, which has no code for it.
    for name in [name for name, cell in _schema(_KINDS[table.kind]).items()
                 if cell is _TEXT and format == "csv"]:
        for text in dict.fromkeys(table.columns[name].tolist()):
            try:
                text.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise InputError(f"{name} {text!r} cannot be written as "
                                 f"UTF-8: {exc.reason}") from None
    return table


def _report_blocks(table: ReportTable, format: str):
    """The report text of a table: the format's head, a block of _BLOCK_ROWS
    rows per step (aalpha.csvtext.rows), then its tail. JSON is json.dumps
    of the row objects at indent=1; its first row drops its leading ','."""
    cells, total = _schema(_KINDS[table.kind]), len(table)
    names = tuple(cells)
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
        block = rows([getattr(cell, format)(
            table.columns[name][start:start + _BLOCK_ROWS])
            for name, cell in cells.items()], seps)
        yield block[1:] if format == "json" and not start else block
    yield tail


def render_report(records, format: str = "csv", kind: str | None = None) -> str:
    """Records (a ReportTable or a sequence of records) as CSV or JSON text;
    kind None is looked up by the first record's type."""
    return "".join(_report_blocks(_report_table(records, format, kind),
                                  format))


def emit_report(records, format: str = "csv", path=None,
                kind: str | None = None) -> None:
    """Write the render_report text of records to path, a block of rows at
    a time; records the text cannot be made of leave no file."""
    if path is None:
        raise InputError("emit_report needs a destination path")
    table = _report_table(records, format, kind)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(_report_blocks(table, format))


def _decode(column: np.ndarray, names: tuple[str, ...]):
    """Position in names of each cell of a bytes column, or None when some
    cell is not a name: one comparison of the column per name."""
    codes = np.full(len(column), -1, np.int8)
    for i, name in enumerate(names):
        codes[column == name.encode()] = i
    return None if (codes < 0).any() else codes


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


def _bad_cell(cells: dict, block, read) -> InputError | None:
    """An InputError naming the first cell of a block of (line number, row)
    pairs that does not fit its column of cells, or None: the smallest line,
    and on it the first column. Columns in read are not looked at."""
    bad = []  # (row, column) of the first bad cell of each failing column
    for j, (name, cell) in enumerate(cells.items()):
        i = None if name in read else _misfit(
            cell, [row[j] for _, row in block], cell.names)
        if i is not None:
            bad.append((i, j))
    if not bad:
        return None
    i, j = min(bad)
    line, row = block[i]
    return InputError(f"line {line}: bad {tuple(cells)[j]} cell {row[j]!r}")


def _malformed(path, cells: dict, reason, read=()) -> InputError:
    """An InputError naming the first line of a CSV report with columns
    cells that does not fit, where np.loadtxt has read the columns in read.
    It runs only after the column-wise parse has failed: csv.reader reads
    the file again up to its first row that is not CSV or of the wrong
    width, and _bad_cell checks the rows before it _BLOCK_ROWS at a time."""
    header, block, stop = tuple(cells), [], None
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
                    if bad := _bad_cell(cells, block, read):
                        return bad
                    block = []
        except csv.Error as exc:
            stop = InputError(f"line {reader.line_num}: {exc}")
    return (_bad_cell(cells, block, read) or stop
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
    been read from fh: np.loadtxt reads the rest line by line, and each
    coded column is decoded at once."""
    header = tuple(next(csv.reader([head.rstrip("\n").rpartition("\n")[2]])))
    kind = _kind(header) if head else _EMPTY_KIND
    if kind is None:
        raise InputError(f"unrecognized report header {header!r}")
    cells = _schema(_KINDS[kind])
    dtype = [(name, cell.field) for name, cell in cells.items()]
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
            raise _malformed(path, cells, exc) from None
    columns = {}
    for name, cell in cells.items():
        column = data[name]
        if cell.names:
            column = _decode(column, cell.names)
            if column is None:
                raise _malformed(path, cells, f"unknown {name} cell", [
                    c for c, other in cells.items() if not other.names])
        columns[name] = np.ascontiguousarray(column, dtype=cell.dtype)
    return columns


def _json_columns(text: str) -> dict:
    """The columns of a JSON report, of the first kind in _KINDS that shares
    most columns with its first record."""
    try:
        objs = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON report: {exc}") from None
    kind = _EMPTY_KIND
    if objs and isinstance(objs[0], dict):
        kind = max(_KINDS, key=lambda kind: len(
            objs[0].keys() & _schema(_KINDS[kind])))
    cells = _schema(_KINDS[kind])
    for i, obj in enumerate(objs):
        if not isinstance(obj, dict):
            raise InputError(f"record {i}: expected an object, got {obj!r}")
        if not cells.keys() <= obj.keys():
            missing = [name for name in cells if name not in obj]
            raise InputError(f"record {i}: missing {', '.join(missing)}")
    columns = {}
    for name, cell in cells.items():
        values = [obj[name] for obj in objs]
        i = _misfit(cell, values, cell.json_values, cell.json_types)
        if i is not None:
            raise InputError(f"record {i}: bad {name} value {values[i]!r}")
        columns[name] = _encode(values, cell, cell.json_values)
    return columns


def parse_report(path):
    """The ReportTable of a report written by emit_report, its format and
    kind read off its content. A malformed report raises InputError naming
    its first bad CSV line or JSON record (for text that is not JSON, its
    line and column), and a file that is not UTF-8 names the file."""
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
