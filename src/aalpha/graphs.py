"""Simple undirected graphs: constructors, generators, and graph6 / edge-list I/O.

Vertices are 0..n-1. Every producer below builds a Graph's one (m, 2) int64
edge array, and every consumer reads it."""

import itertools
import re
import warnings
from dataclasses import dataclass, field

import numpy as np

from .bounds import check_alpha, check_int, check_seq
from .errors import InputError, ParseError, UnsupportedSizeError

GRAPH6_MAX_N = 62
_RANDOM_CHUNK = 1 << 16  # gen_random variates per draw
_GRAPH6_PREFIX = ">>graph6<<"
_INT_TOKEN = re.compile(r"[+-]?[0-9]+")  # what np.loadtxt reads as an integer


def _int_type(t) -> bool:
    # The type of an edge endpoint; a bool is refused, not read as 0 or 1.
    return issubclass(t, (int, np.integer)) and t is not bool


def _int_pairs(edges) -> np.ndarray:
    """edges as a fresh (m, 2) int64 array; an endpoint that is not an
    integer (a bool is not) raises InputError naming the first such edge,
    and one outside int64 naming the first such value."""
    if isinstance(edges, np.ndarray) and edges.dtype.kind == "u":
        big = edges[edges > np.iinfo(np.int64).max]
        if len(big):
            raise InputError(f"edge endpoint {big[0]} is outside int64")
    elif not isinstance(edges, np.ndarray) or edges.dtype.kind != "i":
        edges = edges.tolist() if isinstance(edges, np.ndarray) else list(edges)
        types = set(map(type, itertools.chain.from_iterable(edges)))
        if not all(map(_int_type, types)):
            bad = next(p for p in edges if not all(map(_int_type, map(type, p))))
            raise InputError(f"edge {tuple(bad)!r} needs integer endpoints")
    try:
        return np.array(edges, dtype=np.int64).reshape(len(edges), 2)
    except (ValueError, OverflowError):
        raise InputError("edges must be (u, v) pairs of int64 endpoints") from None


class _Holding:
    """A context in which numpy's refusal of an array of a graph on n
    vertices raises InputError naming n. (A generator-based context costs
    three times as much, on every graph built.)"""

    def __init__(self, n: int):
        self.n = n

    def __enter__(self):
        pass

    def __exit__(self, kind, exc, trace):
        if kind and issubclass(kind, (ValueError, OverflowError, MemoryError)):
            raise InputError(f"cannot hold a graph on n = {self.n} vertices: "
                             f"{exc}") from None


def _degrees(edges: np.ndarray, n: int) -> np.ndarray:
    """The read-only degree array of n vertices joined by valid edges, which
    should be writeable: np.bincount copies read-only ones."""
    with _Holding(n):
        degrees = np.bincount(edges.ravel(), minlength=n)
    degrees.flags.writeable = False
    return degrees


def _ascending(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Whether each pair (u[i + 1], v[i + 1]) comes after (u[i], v[i]) in
    lexicographic order, by exact integer comparison."""
    a, b = u[1:], u[:-1]
    return (a > b) | ((a == b) & (v[1:] > v[:-1]))


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable simple graph: ``edges`` a read-only (m, 2) int64 array of
    pairs u < v in lexicographic order, ``degrees`` a read-only int64 array.
    The one edge validator, for any pair sequence or integer array: it names
    the first non-integer, looped, unordered, out-of-range or repeated edge."""

    n: int
    edges: np.ndarray
    degrees: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = check_int("n", self.n)
        e = pairs = _int_pairs(self.edges)
        u, v = pairs[:, 0], pairs[:, 1]
        bad = (u < 0) | (u >= v) | (v >= n)
        if not _ascending(u, v).all():  # out of order, or a repeat
            order = np.lexsort((v, u))  # stable: a repeat sorts after its first
            e = pairs.take(order, axis=0)
            bad[order[1:][~_ascending(*e.T)]] = True
        if np.count_nonzero(bad):  # the first in the given order is named
            u, v = pairs[bad.argmax()].tolist()
            raise InputError(
                f"self-loop ({u}, {u}) is not allowed" if u == v else
                f"edge ({u}, {v}) is not an ordered pair over 0..{n - 1}"
                if not 0 <= u < v < n else f"duplicate edge ({u}, {v})")
        degrees = _degrees(e, n)
        e.flags.writeable = False
        self.__dict__.update(n=n, edges=e, degrees=degrees)  # frozen

    def __eq__(self, other):
        return (isinstance(other, Graph) and self.n == other.n
                and self.edges.tobytes() == other.edges.tobytes())

    def __hash__(self):
        return hash((self.n, self.edges.tobytes()))

    def __reduce__(self):  # a copy or an unpickled graph is validated anew
        return Graph, (self.n, self.edges)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def adjacency_matrix(self) -> np.ndarray:
        """Dense 0/1 adjacency matrix as float64."""
        a = np.zeros((self.n, self.n))
        u, v = self.edges.T
        a[u, v] = a[v, u] = 1.0
        return a


@dataclass(frozen=True)
class DegreeProfile:
    """Degree sequence with its extremes."""

    degrees: tuple[int, ...]
    max_degree: int
    min_degree: int


def from_edge_list(n: int, edges) -> Graph:
    """Graph on n vertices from undirected pairs in either order; duplicates
    collapse, and Graph refuses loops and endpoints outside 0..n-1.

    Graph gets the pairs sorted once, with repeats dropped, so it need not
    sort them again. Only if it refuses them is it handed the first
    occurrences in the given order, so that its message names the first
    bad pair of the input."""
    e = np.sort(_int_pairs(edges), axis=1)
    order = np.lexsort((e[:, 1], e[:, 0]))  # stable: firsts lead
    e = e.take(order, axis=0)
    first = np.ones(len(order), dtype=bool)
    first[1:] = _ascending(*e.T)
    e, order = e[first], order[first]
    try:
        return Graph(n, e)
    except InputError:
        return Graph(n, e[np.argsort(order)])


def degree_profile(g: Graph) -> DegreeProfile:
    """Degree sequence of g with max and min; undefined for n = 0."""
    if g.n == 0:
        raise InputError("degree profile is undefined for a graph with no vertices")
    deg = g.degrees.tolist()
    return DegreeProfile(tuple(deg), max(deg), min(deg))


# ---------------------------------------------------------------------------
# graph6 encoding (short form, n <= 62)
#
# One line: header byte chr(63 + n), then the upper triangle packed
# column-major (j = 1..n-1, i = 0..j-1) six bits per byte, each byte offset
# by 63, zero-padded to a six-bit boundary. Byte offsets in errors are
# relative to the payload after stripping whitespace and the optional
# ">>graph6<<" prefix. Pair (i, j) is bit j*(j-1)/2 + i.
# ---------------------------------------------------------------------------

_SIX_BITS = np.array([32, 16, 8, 4, 2, 1])


def parse_graph6(text: str) -> Graph:
    """Decode one line of short-form graph6 into a Graph."""
    s = text.strip()
    if s.startswith(_GRAPH6_PREFIX):
        s = s[len(_GRAPH6_PREFIX):]
    if not s:
        raise ParseError("empty graph6 string")
    header = ord(s[0])
    if header == 126:
        raise ParseError("long-form graph6 (n > 62) is not supported", offset=0)
    if not 63 <= header <= 126:
        raise ParseError(f"header byte {s[0]!r} outside graph6 range [63, 126]",
                         offset=0)
    n = header - 63
    need_bytes = (n * (n - 1) // 2 + 5) // 6
    body = s[1:]
    if len(body) < need_bytes:
        raise ParseError(
            f"bit section truncated: expected {need_bytes} bytes after the "
            f"header, got {len(body)}", offset=1 + len(body))
    if len(body) > need_bytes:
        raise ParseError("unexpected data after the bit section",
                         offset=1 + need_bytes)
    vals = np.fromiter(map(ord, body), np.int64, len(body)) - 63
    bad = np.flatnonzero((vals < 0) | (vals > 63)).tolist()
    if bad:
        raise ParseError(f"character {body[bad[0]]!r} outside graph6 range "
                         f"[63, 126]", offset=1 + bad[0])
    j, i = np.nonzero(np.tri(n, k=-1, dtype=bool))  # row-major: the bit order
    bits = (vals[:, None] & _SIX_BITS).astype(bool).ravel()[:len(i)]
    return Graph(n, np.column_stack((i[bits], j[bits])))


def emit_graph6(g: Graph) -> str:
    """Encode as a canonical short-form graph6 line; inverse of parse_graph6."""
    if g.n > GRAPH6_MAX_N:
        raise UnsupportedSizeError(
            f"graph6 short form supports n <= {GRAPH6_MAX_N}, got {g.n}")
    bits = np.zeros(6 * ((g.n * (g.n - 1) // 2 + 5) // 6), np.int64)
    u, v = g.edges.T
    bits[v * (v - 1) // 2 + u] = 1
    body = bits.reshape(-1, 6) @ _SIX_BITS + 63
    return chr(63 + g.n) + bytes(body.astype(np.uint8)).decode("ascii")


def _bad_line(lines, reason) -> ParseError:
    """A ParseError naming the first line of an edge list that is not two
    int64 integers. This rescans the lines one by one, so it runs only after
    the column-wise parse has failed."""
    for k, line in enumerate(lines, 1):
        row = line.split("#", 1)[0].strip()
        tokens = row.split()
        if tokens and (len(tokens) != 2
                       or not all(map(_INT_TOKEN.fullmatch, tokens))):
            return ParseError(f"line {k}: expected two integers, got {row!r}")
        for t in tokens:
            if not -2 ** 63 <= int(t) < 2 ** 63:
                return ParseError(f"line {k}: {t} is outside int64")
    return ParseError(f"malformed edge list: {reason}")


def parse_edge_list(text: str) -> Graph:
    """Read the plain edge-list format: a "n m" header line, then m "u v" lines
    ('#' starts a comment anywhere; blank lines are skipped), column-wise by
    np.loadtxt. Pairs may come in either order and repeats collapse; a line
    that is not two integers raises ParseError naming its line number."""
    lines = text.splitlines()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "no data" lines
            rows = np.loadtxt(lines, dtype=np.int64, comments="#", ndmin=2)
    except ValueError as exc:
        raise _bad_line(lines, exc) from None
    if not len(rows):
        raise ParseError("missing 'n m' header line")
    if rows.shape[1] != 2:
        raise _bad_line(lines, f"{rows.shape[1]} columns")
    n, m = rows[0].tolist()
    if n < 0 or m < 0:
        raise ParseError(f"header counts must be nonnegative, got {n} {m}")
    if len(rows) - 1 != m:
        raise ParseError(f"header promises {m} edge lines, found {len(rows) - 1}")
    return from_edge_list(n, rows[1:])


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def gen_star(n: int) -> Graph:
    """Star K_{1,n-1}: vertex 0 adjacent to all others (n >= 2)."""
    n = check_int("n", n, 2)
    with _Holding(n):
        pairs = np.column_stack((np.zeros(n - 1, int), np.arange(1, n)))
    return Graph(n, pairs)


def gen_complete(n: int) -> Graph:
    """Complete graph K_n (n >= 1)."""
    n = check_int("n", n, 1)
    with _Holding(n):
        pairs = np.argwhere(np.tri(n, k=-1, dtype=bool).T)
    return Graph(n, pairs)


def gen_cycle(n: int) -> Graph:
    """Cycle C_n (n >= 3); 2-regular: the circulant graph with offset 1."""
    return gen_circulant(check_int("n", n, 3), (1,))


def gen_circulant(n: int, offsets) -> Graph:
    """Circulant graph: i ~ (i + o) mod n for each offset o in [1, n/2].

    The edge array is built sorted, with no sort: vertex u's larger
    neighbours are u + s for each step s in {o} | {n - o} with u + s < n,
    so taking the steps in ascending order for u = 0, 1, ... lists the
    pairs in lexicographic order. A repeated offset is one step, and so is
    o = n/2, whose two steps coincide."""
    n = check_int("n", n)
    offs = [check_int("offset", o, 1) for o in check_seq("offsets", offsets)]
    if not offs or 2 * max(offs) > n:
        raise InputError(f"a circulant needs offsets in [1, n/2], got n = {n}, "
                         f"offsets {offs}")
    steps = np.array(sorted({s for o in offs for s in (o, n - o)}))
    with _Holding(n):
        u, j = np.nonzero(np.arange(n)[:, None] + steps < n)
        pairs = np.column_stack((u, u + steps[j]))
    del u, j  # not held through Graph's check, the peak of the two
    return Graph(n, pairs)


def gen_random(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p) draw, reproducible from the seed: n and seed are
    nonnegative integers, p a real in [0, 1].

    One uniform variate is drawn per unordered pair in lexicographic order
    (0,1), (0,2), ..., (n-2,n-1) from numpy's default generator (PCG64); the
    pair becomes an edge when its variate is < p. Equal seeds therefore give
    identical graphs on any platform. The variates are drawn in chunks of
    _RANDOM_CHUNK, which continue one stream exactly as a single call would,
    so memory stays O(chunk + edges) while time is O(n^2): on one core,
    about 0.01 s at n = 2000, 0.3 s at n = 10**4 (both p = 0.01) and 23 s
    at n = 10**5 (p = 1e-4, 83 MB peak RSS).
    """
    n, p = check_int("n", n), check_alpha(p, name="p")
    rng = np.random.default_rng(check_int("seed", seed))
    with _Holding(n):
        rows = np.arange(n, dtype=np.int64)
        starts = rows * (2 * n - rows - 1) // 2  # flat offset of pair (i, i+1)
    pairs = n * (n - 1) // 2
    kept = [np.flatnonzero(rng.random(min(_RANDOM_CHUNK, pairs - lo)) < p) + lo
            for lo in range(0, pairs, _RANDOM_CHUNK)]
    flat = np.concatenate(kept) if kept else np.empty(0, np.int64)
    i = np.searchsorted(starts, flat, side="right") - 1
    return Graph(n, np.column_stack((i, flat - starts[i] + i + 1)))


def add_isolated(g: Graph, k: int) -> Graph:
    """Same edges with k extra isolated vertices appended. The edge array is
    valid already, so it is shared, not checked again, and the degrees are
    g's padded with k zeros."""
    n = g.n + check_int("k", k)
    with _Holding(n):
        degrees = np.zeros(n, np.int64)
    degrees[:g.n] = g.degrees
    degrees.flags.writeable = False
    h = object.__new__(Graph)
    h.__dict__.update(n=n, edges=g.edges, degrees=degrees)
    return h


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------

def is_connected(g: Graph) -> bool:
    """True when every vertex is reachable from vertex 0 (n >= 1). Each vertex
    points at a smaller vertex or is a root; rounds jump every pointer to its
    root and hook the larger root of each edge onto the smaller one."""
    if g.n == 0:
        raise InputError("connectivity is undefined for a graph with no vertices")
    if g.edge_count < g.n - 1 or g.n > 1 and np.count_nonzero(g.degrees) < g.n:
        return False
    label = np.arange(g.n)
    u, v = g.edges.T
    while True:
        for _ in range(g.n.bit_length()):
            label = label[label]
        lu, lv = label[u], label[v]
        if not np.count_nonzero(lu != lv):
            return not np.count_nonzero(label)
        np.minimum.at(label, np.maximum(lu, lv), np.minimum(lu, lv))


def is_star(g: Graph) -> bool:
    """True for K_{1,n-1} on n >= 2 vertices (K2 counts: it is K_{1,1})."""
    # n - 1 edges and a vertex adjacent to every other: those are its edges.
    return (g.n >= 2 and g.edge_count == g.n - 1
            and int(g.degrees.max()) == g.n - 1)
