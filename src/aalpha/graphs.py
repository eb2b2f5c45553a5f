"""Simple undirected graphs: constructors, generators, and graph6 / edge-list I/O.

Vertices are the integers 0..n-1. Graphs are immutable; every constructor
normalizes edges to sorted (u, v) pairs with u < v, so the no-loop and
symmetry invariants hold for anything that exists at all.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError, ParseError, UnsupportedSizeError

GRAPH6_MAX_N = 62
_RANDOM_CHUNK = 1 << 16  # gen_random variates per draw
_GRAPH6_PREFIX = ">>graph6<<"


def _is_integer(x) -> bool:
    # A vertex label or count; a bool is refused, not read as 0 or 1.
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph: vertex count plus a canonical edge tuple.
    The one edge validator, and the one place edges are sorted."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not _is_integer(self.n) or self.n < 0:
            raise InputError(
                f"vertex count must be a nonnegative integer, got {self.n!r}")
        seen = set()
        for e in self.edges:
            u, v = e
            if not (type(u) is type(v) is int
                    or _is_integer(u) and _is_integer(v)):
                raise InputError(f"edge ({u!r}, {v!r}) needs integer endpoints")
            if u == v:
                raise InputError(f"self-loop ({u}, {u}) is not allowed")
            if not (0 <= u < v < self.n):
                raise InputError(
                    f"edge ({u}, {v}) is not an ordered pair over 0..{self.n - 1}")
            if e in seen:
                raise InputError(f"duplicate edge ({u}, {v})")
            seen.add(e)
        object.__setattr__(self, "edges", tuple(sorted(self.edges)))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degrees(self) -> list[int]:
        """Per-vertex degree list."""
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def neighbor_lists(self) -> list[list[int]]:
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return nbrs

    def adjacency_matrix(self) -> np.ndarray:
        """Dense 0/1 adjacency matrix as float64."""
        a = np.zeros((self.n, self.n))
        for u, v in self.edges:
            a[u, v] = 1.0
            a[v, u] = 1.0
        return a


@dataclass(frozen=True)
class DegreeProfile:
    """Degree sequence with its extremes."""

    degrees: tuple[int, ...]
    max_degree: int
    min_degree: int


def from_edge_list(n: int, edges) -> Graph:
    """Graph on n vertices from undirected pairs in either order; duplicates
    collapse, and Graph refuses loops and endpoints outside 0..n-1."""
    edges = tuple(edges)
    try:
        pairs = {(u, v) if u < v else (v, u) for u, v in edges}
    except TypeError:
        # An endpoint that does not compare with its partner is no integer:
        # order the integer pairs only, and Graph names the first bad edge.
        pairs = dict.fromkeys(
            (v, u) if _is_integer(u) and _is_integer(v) and v < u else (u, v)
            for u, v in edges)
    return Graph(n, tuple(pairs))


def degree_profile(g: Graph) -> DegreeProfile:
    """Degree sequence of g with max and min; undefined for n = 0."""
    if g.n == 0:
        raise InputError("degree profile is undefined for a graph with no vertices")
    deg = g.degrees()
    return DegreeProfile(tuple(deg), max(deg), min(deg))


# ---------------------------------------------------------------------------
# graph6 encoding (short form, n <= 62)
#
# One line: header byte chr(63 + n), then the upper triangle packed
# column-major (j = 1..n-1, i = 0..j-1) six bits per byte, each byte offset
# by 63, zero-padded to a six-bit boundary. Byte offsets in errors are
# relative to the payload after stripping whitespace and the optional
# ">>graph6<<" prefix.
# ---------------------------------------------------------------------------

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
    need_bits = n * (n - 1) // 2
    need_bytes = (need_bits + 5) // 6
    body = s[1:]
    if len(body) < need_bytes:
        raise ParseError(
            f"bit section truncated: expected {need_bytes} bytes after the "
            f"header, got {len(body)}", offset=1 + len(body))
    if len(body) > need_bytes:
        raise ParseError("unexpected data after the bit section",
                         offset=1 + need_bytes)
    bits = []
    for k, ch in enumerate(body):
        c = ord(ch)
        if not 63 <= c <= 126:
            raise ParseError(f"character {ch!r} outside graph6 range [63, 126]",
                             offset=1 + k)
        val = c - 63
        bits.extend((val >> shift) & 1 for shift in (5, 4, 3, 2, 1, 0))
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    return Graph(n, tuple(edges))


def emit_graph6(g: Graph) -> str:
    """Encode as a canonical short-form graph6 line; inverse of parse_graph6."""
    if g.n > GRAPH6_MAX_N:
        raise UnsupportedSizeError(
            f"graph6 short form supports n <= {GRAPH6_MAX_N}, got {g.n}")
    n = g.n
    adj = set(g.edges)
    bits = [1 if (i, j) in adj else 0 for j in range(1, n) for i in range(j)]
    while len(bits) % 6:
        bits.append(0)
    out = [chr(63 + n)]
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k:k + 6]:
            val = (val << 1) | b
        out.append(chr(63 + val))
    return "".join(out)


def parse_edge_list(text: str) -> Graph:
    """Read the plain edge-list format: a "n m" header line, then m "u v" lines.

    '#' starts a comment anywhere on a line; blank lines are skipped.
    """
    rows = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            rows.append(line)
    if not rows:
        raise ParseError("missing 'n m' header line")
    head = rows[0].split()
    if len(head) != 2:
        raise ParseError(f"header line must be 'n m', got {rows[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError(f"header line must hold two integers, got {rows[0]!r}")
    if n < 0 or m < 0:
        raise ParseError(f"header counts must be nonnegative, got {rows[0]!r}")
    if len(rows) - 1 != m:
        raise ParseError(f"header promises {m} edge lines, found {len(rows) - 1}")
    edges = []
    for row in rows[1:]:
        parts = row.split()
        if len(parts) != 2:
            raise ParseError(f"edge line must be 'u v', got {row!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ParseError(f"edge line must hold two integers, got {row!r}")
    return from_edge_list(n, edges)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def gen_star(n: int) -> Graph:
    """Star K_{1,n-1}: vertex 0 adjacent to all others (n >= 2)."""
    if n < 2:
        raise InputError(f"a star needs at least 2 vertices, got {n}")
    return Graph(n, tuple((0, v) for v in range(1, n)))


def gen_complete(n: int) -> Graph:
    """Complete graph K_n (n >= 1)."""
    if n < 1:
        raise InputError(f"a complete graph needs at least 1 vertex, got {n}")
    return Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def gen_cycle(n: int) -> Graph:
    """Cycle C_n (n >= 3); 2-regular."""
    if n < 3:
        raise InputError(f"a cycle needs at least 3 vertices, got {n}")
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)) + ((0, n - 1),))


def gen_circulant(n: int, offsets) -> Graph:
    """Circulant graph: i ~ (i + o) mod n for each offset o in [1, n/2]."""
    offs = list(offsets)
    if not offs:
        raise InputError("circulant offsets must be nonempty")
    for o in offs:
        if not (1 <= o and 2 * o <= n):
            raise InputError(f"offset {o} outside [1, n/2] for n = {n}")
    edges = set()
    for o in set(offs):
        for i in range(n):
            j = (i + o) % n
            edges.add((i, j) if i < j else (j, i))
    return Graph(n, tuple(edges))


def gen_random(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p) draw, reproducible from the seed.

    One uniform variate is drawn per unordered pair in lexicographic order
    (0,1), (0,2), ..., (n-2,n-1) from numpy's default generator (PCG64); the
    pair becomes an edge when its variate is < p. Equal seeds therefore give
    identical graphs on any platform. The variates are drawn in chunks of
    _RANDOM_CHUNK, which continue one stream exactly as a single call would,
    so memory stays O(chunk + edges) while time is O(n^2).
    """
    if n < 0:
        raise InputError(f"vertex count must be nonnegative, got {n}")
    if not 0.0 <= p <= 1.0:
        raise InputError(f"edge probability must lie in [0, 1], got {p}")
    rng = np.random.default_rng(seed)
    rows = np.arange(n, dtype=np.int64)
    starts = rows * (2 * n - rows - 1) // 2  # flat offset of pair (i, i+1)
    pairs = n * (n - 1) // 2
    kept = [np.flatnonzero(rng.random(min(_RANDOM_CHUNK, pairs - lo)) < p) + lo
            for lo in range(0, pairs, _RANDOM_CHUNK)]
    flat = np.concatenate(kept) if kept else np.empty(0, np.int64)
    i = np.searchsorted(starts, flat, side="right") - 1
    j = flat - starts[i] + i + 1
    return Graph(n, tuple(zip(i.tolist(), j.tolist())))


def add_isolated(g: Graph, k: int) -> Graph:
    """Same edges with k extra isolated vertices appended."""
    if k < 0:
        raise InputError(f"isolated vertex count must be nonnegative, got {k}")
    return Graph(g.n + k, g.edges)


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------

def is_connected(g: Graph) -> bool:
    """True when every vertex is reachable from vertex 0 (n >= 1)."""
    if g.n == 0:
        raise InputError("connectivity is undefined for a graph with no vertices")
    if g.n == 1:
        return True
    nbrs = g.neighbor_lists()
    seen = [False] * g.n
    seen[0] = True
    stack = [0]
    count = 1
    while stack:
        u = stack.pop()
        for v in nbrs[u]:
            if not seen[v]:
                seen[v] = True
                count += 1
                stack.append(v)
    return count == g.n


def is_star(g: Graph) -> bool:
    """True for K_{1,n-1} on n >= 2 vertices (K2 counts: it is K_{1,1})."""
    if g.n < 2:
        return False
    if g.edge_count != g.n - 1:
        return False
    # n - 1 edges and a vertex adjacent to every other: those are its edges.
    return max(g.degrees()) == g.n - 1
