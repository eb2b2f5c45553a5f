"""Report text of numpy columns, CSV or JSON, a block of rows at a time,
with no Python call per cell on the common path. A column shorter than
_VECTOR_ROWS is formatted a value at a time, as "%.17g" and str write it.

Each column of a block becomes cells: a (rows, width) uint8 byte matrix and
a (rows, width) bool keep-mask that marks the bytes of each row's text. A
block is the fields side by side between separators (CSV's commas, JSON's
keys), and its text is the kept bytes in row-major order. The mask comes
from where each text lies, never from the byte values, so a text may hold
any byte, NUL included. Text that no kernel writes (a quoted graph_id, a
JSON real) is made once per distinct value of the block.

Reals are written exactly as CPython's "%.17g" writes them, correctly
rounded to 17 significant digits with ties to even. For a finite value v
with X = floor(log10|v|), |v| * 10**(16 - X) lies in [1e16, 1e17); it is
computed exactly as hi + lo by Dekker's TwoProduct (Numer. Math. 18, 1971),
which needs no fused multiply-add, and rounded half-even to the 17-digit
integer D. Its digits come from a table of the 10**4 four-digit strings.
"%.17g" writes D positionally when -4 <= X <= 16, and then so does the
kernel; it writes a zero as the layout of D = 0 at X = 0, "0" or "-0".
Every other value (NaN, an infinity, a subnormal, one written with an
exponent, one just below a power of ten where log10 rounds up) is
formatted by "%.17g" itself, one at a time.
"""

import csv
import functools
import io
from typing import NamedTuple

import numpy as np

_SPLIT = 2.0 ** 27 + 1  # Veltkamp's factor: halves of 26 bits for TwoProduct
# A column of fewer rows is formatted one value at a time, which is faster
# than the fixed cost of the vectorized kernels (about 80 us for reals).
_VECTOR_ROWS = 128
_REAL_WIDTH = 24  # the longest "%.17g" text: "-2.2250738585072014e-308"
_REAL_PREFIX = np.frombuffer(b"-0.000", np.uint8)


class _Tables(NamedTuple):
    quads: np.ndarray  # uint32 whose bytes are the ASCII digits of 0..9999
    zeros: np.ndarray  # trailing zeros of each of 0..9999 as four digits
    pow10: np.ndarray  # 10.0**s, exact, for s = 0..22
    # A real's 24 bytes (see _real_layout), by row:
    first: np.ndarray  # by X + 5: 1 where a byte comes from A, 0 from B
    point: np.ndarray  # by X + 5: 1 at the '.'
    prefix: np.ndarray  # by 2 * (X + 5) + negative: the kept bytes of 0..5
    digits: np.ndarray  # by e: bytes 6..6 + e kept, and all of 0..5


@functools.cache
def _tables() -> _Tables:
    """The kernel's lookup tables, built on first use."""
    quads = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    zeros = (quads[:, ::-1] == 0).cumprod(axis=1).sum(axis=1)
    x, col = np.arange(-5, 17)[:, None], np.arange(_REAL_WIDTH)
    split = np.where(x < 0, _REAL_WIDTH, 6 + x)  # last byte taken from A
    prefix = np.ones((len(x), 2, _REAL_WIDTH), bool)
    prefix[:, :, :6] = False
    prefix[:, 1, 0] = True  # the sign
    prefix[:, :, 1:3] = (x < 0)[:, :, None]  # "0."
    prefix[:, :, 3:6] = (col[:3] < -1 - x)[:, None, :]  # -X - 1 zeros
    digits = np.ones((18, _REAL_WIDTH), bool)
    digits[:, 6:] = col[:18] <= np.arange(18)[:, None]
    tables = _Tables(
        (quads + ord("0")).astype(np.uint8).view(np.uint32).ravel(), zeros,
        np.array([float(10 ** s) for s in range(23)]),
        (col <= split).astype(np.uint8), (col == split + 1).astype(np.uint8),
        prefix.reshape(-1, _REAL_WIDTH), digits)
    for table in tables:
        table.flags.writeable = False
    return tables


def _pack(texts: list[bytes]):
    """Cells of byte strings, each left-aligned in a field as wide as the
    longest."""
    lengths = np.fromiter(map(len, texts), np.intp, len(texts))
    keep = np.arange(lengths.max(initial=0)) < lengths[:, None]
    cells = np.zeros(keep.shape, np.uint8)
    cells[keep] = np.frombuffer(b"".join(texts), np.uint8)
    return cells, keep


def _fallback(cells, keep, rows, texts):
    """cells and keep with each of rows replaced by its text, left-aligned;
    a text wider than the field widens it on the left."""
    if not len(rows):
        return cells, keep
    packed, kept = _pack(texts)
    grow = packed.shape[1] - cells.shape[1]
    if grow > 0:
        cells, keep = (np.pad(a, ((0, 0), (grow, 0))) for a in (cells, keep))
    cells[rows, :packed.shape[1]] = packed
    keep[rows] = False
    keep[rows, :kept.shape[1]] = kept
    return cells, keep


def _split(x):
    """hi + lo == x, each with at most 26 significant bits (Veltkamp)."""
    c = x * _SPLIT
    hi = c - (c - x)
    return hi, x - hi


def _two_product(a, b):
    """hi + lo == a * b exactly (Dekker), barring overflow and underflow."""
    p = a * b
    (ah, al), (bh, bl) = _split(a), _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _significand(a):
    """(D, X, ok) for the magnitudes a: the 17-digit integer D and the
    decimal exponent X of each a at ok, where a lies in [1e-5, 1e17) and
    log10 gave X. Off ok, 1e16 <= D <= 1e17 and -5 <= X <= 16 still hold,
    so that every later index is in range."""
    ok = (a >= 1e-5) & (a < 1e17)
    a = np.where(ok, a, 1.0)
    x = np.floor(np.log10(a)).astype(np.int64).clip(-5, 16)
    hi, lo = _two_product(a, _tables().pow10[16 - x])
    # hi + lo must lie in [1e16, 1e17). log10 may round up to a power of
    # ten, so X is one too big for a value just below one; such a value is
    # left to "%.17g".
    ok &= ((hi > 1e16) | ((hi == 1e16) & (lo >= 0))) & (
        (hi < 1e17) | ((hi == 1e17) & (lo < 0)))
    bad = ~ok
    hi[bad], lo[bad], x[bad] = 1e16, 0.0, 0
    # hi >= 2**53 is an even integer, so rounding lo half-even rounds
    # hi + lo half-even.
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    # D = 10**17 would carry into X + 1. No float64 in [1e-5, 1e17) rounds
    # up so far, and one that did would be left to "%.17g".
    return d, x, ok & (d < 10 ** 17)


def _real_layout(d, x, negative):
    """Cells of the positional texts of 17-digit integers d with decimal
    exponents x in [-5, 16] and signs negative.

    Each row is built from A = "-0.000" d0 d1 .. d16 (24 bytes, the last a
    pad) and B, A moved one byte right. X < 0 takes all of A and keeps the
    sign, "0.", -X - 1 zeros and the digits; X >= 0 takes d0 .. dX from A,
    then '.', then d(X+1) .. d16 from B, and keeps the sign and the digits.
    Either keeps digits up to the last nonzero one, and the '.' only
    before a kept digit."""
    t = _tables()
    n = len(d)
    top, bottom = np.divmod(d, 10 ** 8)
    lead, rest = np.divmod(top.astype(np.uint32), 10 ** 8)
    quads = np.empty((n, 4), np.uint32)
    quads[:, 0], quads[:, 1] = np.divmod(rest, 10 ** 4)
    quads[:, 2], quads[:, 3] = np.divmod(bottom.astype(np.uint32), 10 ** 4)
    a = np.zeros((n, _REAL_WIDTH), np.uint8)
    a[:, :6] = _REAL_PREFIX
    a[:, 6] = lead + ord("0")
    a[:, 7:23] = t.quads.take(quads).view(np.uint8)
    cells = np.zeros_like(a)
    cells.reshape(-1)[1:] = a.reshape(-1)[:-1]  # B
    row = x + 5
    # Blends by 0/1 masks, which numpy runs far faster than np.where on uint8.
    cells += (a - cells) * t.first.take(row, axis=0)
    cells += (ord(".") - cells) * t.point.take(row, axis=0)
    # The last nonzero digit k, or k = 0 (the lead digit) when D = 0.
    z, nil = t.zeros.take(quads), quads == 0
    k = 16 - (z[:, 3] + nil[:, 3] * (z[:, 2] + nil[:, 2] * (
        z[:, 1] + nil[:, 1] * z[:, 0])))
    e = np.where(x < 0, k, np.where(k > x, k + 1, x))  # last kept: 6 + e
    keep = t.prefix.take(2 * row + negative, axis=0)
    keep &= t.digits.take(e, axis=0)
    return cells, keep


def _pct17g(values: np.ndarray) -> list[bytes]:
    return [b"%.17g" % v for v in values.tolist()]


def real_cells(values: np.ndarray):
    """Cells of a float64 column, each text "%.17g" % value."""
    if len(values) < _VECTOR_ROWS:
        return _pack(_pct17g(values))
    d, x, ok = _significand(np.abs(values))
    ok &= x >= -4  # "%.17g" writes 1e-5 <= |v| < 1e-4 with an exponent
    zero = values == 0
    d[zero], x[zero], ok[zero] = 0, 0, True
    cells, keep = _real_layout(d, x, np.signbit(values))
    slow = np.flatnonzero(~ok)
    return _fallback(cells, keep, slow, _pct17g(values[slow]))


def _str(values: np.ndarray) -> list[bytes]:
    return [str(i).encode() for i in values.tolist()]


def int_cells(values: np.ndarray):
    """Cells of an int64 column, each text str(value): the digits of
    0 <= value < 10**16 right-aligned from the four-digit table, any other
    value by str."""
    if len(values) < _VECTOR_ROWS:
        return _pack(_str(values))
    fast = (values >= 0) & (values < 10 ** 16)
    v = np.where(fast, values, 0)
    count = 1 + np.searchsorted(10 ** np.arange(1, 16), v, side="right")
    width = 4 * -(-int(count.max(initial=1)) // 4)
    quads = v[:, None] // 10 ** np.arange(width - 4, -1, -4) % 10000
    cells = _tables().quads.take(quads).view(np.uint8)
    keep = np.arange(width) >= width - count[:, None]
    return _fallback(cells, keep, np.flatnonzero(~fast), _str(values[~fast]))


def csv_quote(text: str) -> str:
    """csv.writer's own quoting of one field. A field holding a character
    of the line terminator is quoted, so "\\r\\n" quotes both; the empty
    second field keeps a lone empty value from being written as ""."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow((text, ""))
    return buf.getvalue()[:-3]


@functools.cache
def _name_cells(names: tuple[str, ...]):
    """Read-only cells of names, a row each."""
    cells = _pack([name.encode("utf-8") for name in names])
    for a in cells:
        a.flags.writeable = False
    return cells


def coded_cells(codes: np.ndarray, names: tuple[str, ...]):
    """Cells of a coded column: each code's name."""
    codes = codes.astype(np.intp)
    return tuple(a.take(codes, axis=0) for a in _name_cells(names))


def distinct_cells(values: np.ndarray, text):
    """Cells of a column, each text(value) UTF-8 encoded, with text called
    once per distinct value. Reals are told apart by their bits, so -0.0
    keeps its own text."""
    real = values.dtype == np.float64
    distinct, inverse = np.unique(values.view(np.int64) if real else values,
                                  return_inverse=True)
    if real:
        distinct = distinct.view(np.float64)
    cells = _pack([text(v).encode("utf-8") for v in distinct.tolist()])
    return tuple(a.take(inverse, axis=0) for a in cells)


def rows(fields, seps) -> str:
    """The text of a block from each column's cells: on each row, the kept
    bytes of the fields with seps, one byte string more, before, between and
    after them. A row starts as the separators, with NUL gaps the cells fill."""
    n = len(fields[0][0])
    widths = [cells.shape[1] for cells, _ in fields]
    line = b"".join(sep + bytes(w) for sep, w in zip(seps, widths + [0]))
    text = np.empty((n, len(line)), np.uint8)
    text[:] = np.frombuffer(line, np.uint8)
    keep = np.ones(text.shape, bool)
    at = len(seps[0])
    for (cells, kept), width, sep in zip(fields, widths, seps[1:]):
        text[:, at:at + width], keep[:, at:at + width] = cells, kept
        at += width + len(sep)
    data = text.reshape(-1)[keep.reshape(-1)]
    del text, keep  # freed first: str() decodes data in place, uncopied
    return str(data, "utf-8")
