"""The CSV cell kernels write each value as CPython writes it."""

import math
import sys

import numpy as np
import pytest

from aalpha.csvtext import (_VECTOR_ROWS, coded_cells, int_cells, real_cells,
                            rows)

_LINES = [b"", b"\n"]  # CSV separators of a one-column block


def _assert_lines(cells, values, text):
    """The kernel's cells, one per line, read as text(value) for each of
    values; a mismatch names the first value that differs. A column of
    fewer than _VECTOR_ROWS values is formatted one value at a time, so
    each column below but the empty one is longer."""
    got = rows([cells(values)], _LINES)
    want = "".join(text(v) + "\n" for v in values.tolist())
    if got != want:
        for v, line in zip(values.tolist(), got.splitlines()):
            assert line == text(v), f"{v!r} ({np.float64(v).hex()})"
    assert got == want


def _pct17g(v):
    return "%.17g" % v


_HAND = [
    0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
    sys.float_info.min, sys.float_info.max, -sys.float_info.max,
    1e16, 1e17, 99999999999999984.0, -99999999999999984.0,
    # X = -5 / -4 and X = 16 / 17 on either side of the positional form
    9.99999999999999e-05, 0.00010000000000000002, 1e-4, 1e-5,
    9.9999999999999991e-05, 1e15, 9999999999999998.0, 1e18,
    # ties: hi + lo ends in .5 and rounds to the even neighbour
    2.0 ** 50 + 0.25, 2.0 ** 50 + 0.75, 2.0 ** 49 + 0.375,
    -(2.0 ** 50 + 0.25), 2.0 ** 53, 2.0 ** 53 + 2, 2.0 ** 56 + 16,
    0.1, 1 / 3, 2 / 3, 0.5, 1.5, -2.5, 100.0, 123.456, 1e-300, 1e300,
]


def test_real_cells_hand_picked_values():
    powers = [10.0 ** k for k in range(-7, 20)]
    near = [np.nextafter(p, to) for p in powers for to in (0.0, math.inf)]
    values = np.array(_HAND + powers + near)
    _assert_lines(real_cells, np.concatenate([values, -values]), _pct17g)


def test_real_cells_match_cpython_on_random_bit_patterns():
    """2**20 float64 bit patterns, uniform over all 64 bits: NaNs,
    infinities, subnormals and both text forms, in blocks of 2**16."""
    rng = np.random.default_rng(20261020)
    for _ in range(16):
        bits = rng.integers(0, 2 ** 64, 2 ** 16, np.uint64, endpoint=False)
        _assert_lines(real_cells, bits.view(np.float64), _pct17g)


def test_real_cells_match_cpython_across_the_positional_range():
    """Log-uniform magnitudes from 1e-6 to 1e18, both signs, where almost
    every value takes the vectorized path rather than "%.17g"."""
    rng = np.random.default_rng(7)
    for _ in range(4):
        values = np.exp(rng.uniform(math.log(1e-6), math.log(1e18), 2 ** 16))
        _assert_lines(real_cells, values * rng.choice((-1.0, 1.0), 2 ** 16),
                      _pct17g)


def test_int_cells_match_str():
    rng = np.random.default_rng(3)
    powers = [10 ** k + d for k in range(19) for d in (-1, 0, 1)]
    edges = [0, -1, 2 ** 63 - 1, -2 ** 63, 10 ** 16 - 1, 10 ** 16]
    values = np.concatenate([
        np.array(powers + [-p for p in powers] + edges, np.int64),
        rng.integers(0, 10 ** 16, 4096), rng.integers(-2 ** 63, 2 ** 63 - 1,
                                                      4096)])
    _assert_lines(int_cells, values, str)
    _assert_lines(int_cells, np.arange(1000, dtype=np.int64), str)


@pytest.mark.parametrize("values", [[], [0], [7, 42], [3, 10 ** 17, 5]])
def test_int_cells_keep_their_width_with_and_without_fallback(values):
    _assert_lines(int_cells, np.array(values * _VECTOR_ROWS, np.int64), str)


def test_rows_are_cut_by_position_not_by_byte_value():
    """A NUL or a byte of ',' or '\\n' inside a cell is kept as it is, and
    each separator stands before, between or after the fields."""
    names = ("\x00", "a\x00b", "", "x,y\n")
    codes = np.array([0, 1, 2, 3, 1], np.int8)
    text = rows([coded_cells(codes, names), int_cells(np.arange(5))],
                [b"[", b", ", b"]\n"])
    assert text == "".join(f"[{names[c]}, {i}]\n" for i, c in enumerate(codes))
