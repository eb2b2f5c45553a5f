"""The convex combination alpha*D + (1 - alpha)*A of a graph's degree and
adjacency matrices.

alpha lies in [0, 1]: alpha = 0 gives the adjacency matrix, alpha = 1 the
diagonal degree matrix, and alpha = 1/2 gives half the signless Laplacian.
The matrix is symmetric and entrywise nonnegative, and its row sums equal
the vertex degrees. .matrix is assembled on first read; matvec, the one
product by the matrix, reads only the graph's edge and degree arrays.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bounds import check_alpha
from .csvtext import distinct_cells, rows
from .errors import InputError
from .graphs import Graph, _Holding

_CSV_CELLS = 1 << 16  # matrix entries matrix_csv formats at a time


@dataclass(frozen=True, eq=False)
class AlphaMatrix:
    """alpha*D + (1 - alpha)*A for one graph and one alpha, which it checks
    itself: no AlphaMatrix holds an alpha outside [0, 1], so none has a
    negative entry."""

    graph: Graph
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", check_alpha(self.alpha))

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def degrees(self) -> np.ndarray:  # the graph's read-only degree array
        return self.graph.degrees

    @property
    def max_degree(self) -> int:
        return int(self.degrees.max()) if self.n else 0

    @cached_property
    def matrix(self) -> np.ndarray:  # (n, n) float64, read-only
        m = _assemble([self.graph], (self.alpha,))[0]
        m.flags.writeable = False
        return m


def _assemble(graphs, alphas, start: int = 0,
              stop: int | None = None) -> np.ndarray:
    """Layers start..stop of the stack that holds each graph's matrix at
    each alpha in turn: layer i is graphs[i // k] at alphas[i % k], for
    k = len(alphas). The graphs share n, and the alphas are checked floats.

    A slice may begin and end inside a graph's alphas. Each entry is one
    IEEE operation, as in a matrix built alone: 1 - alpha on an edge,
    alpha * degree on the diagonal. So each layer equals that matrix bit
    for bit. A stack that numpy cannot allocate raises InputError naming n.
    """
    k, n = len(alphas), graphs[0].n
    stop = len(graphs) * k if stop is None else stop
    with _Holding(n):
        m = np.zeros((stop - start, n, n))
    if stop == start:
        return m
    which, at = np.divmod(np.arange(start, stop), k)
    a = np.array(alphas, dtype=float)[at]
    off = (1.0 - a)[:, None]
    first, last = start // k, (stop - 1) // k + 1  # the graphs in the slice
    for i in range(first, last):  # each fills its run of layers
        u, v = graphs[i].edges.T
        layers = slice(max(i * k - start, 0), (i + 1) * k - start)
        m[layers, u, v] = m[layers, v, u] = off[layers]
    degrees = np.array([g.degrees for g in graphs[first:last]])
    idx = np.arange(n)
    m[:, idx, idx] = a[:, None] * degrees[which - first]
    return m


def alpha_stack(g: Graph, alphas) -> np.ndarray:
    """alpha*D + (1 - alpha)*A of g for each alpha in turn, as one
    (k, n, n) float64 array. Every alpha must lie in [0, 1]."""
    return _assemble([g], [check_alpha(x) for x in alphas])


def build_alpha_matrix(g: Graph, alpha: float) -> AlphaMatrix:
    """AlphaMatrix(g, alpha): alpha checked, .matrix built on read."""
    return AlphaMatrix(g, alpha)


def matvec(am: AlphaMatrix, x) -> np.ndarray:
    """Product am.matrix @ x for a length-n vector, read from the graph's
    edge and degree arrays without building am.matrix: O(n + m) time, and
    no memory beyond the product and its temporaries.

    Each row is summed as a row-major scan of am.matrix would sum it: from
    0.0, the edges (u, r) below the diagonal, then (r, r), then the edges
    (r, v) above it. The edge array is sorted with u < v, so np.bincount
    over v adds the first run in column order, and np.add.at over u, which
    adds in index order, the last. Power iteration and Lanczos run on this
    product and give the results of a run over am.matrix, bit for bit.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (am.n,):
        raise InputError(f"vector shape {x.shape} does not match n = {am.n}")
    u, v = am.graph.edges.T
    off = 1.0 - am.alpha
    y = (np.bincount(v, weights=off * x[u], minlength=am.n)
         + am.alpha * am.degrees * x)
    np.add.at(y, u, off * x[v])
    return y


def matrix_csv(am: AlphaMatrix) -> str:
    """Matrix entries as n CSV lines at full float64 precision (%.17g),
    made as report rows are: the cells of a block of matrix rows, about
    _CSV_CELLS entries, then that block's text (aalpha.csvtext). An alpha
    matrix holds few distinct values (0, 1 - alpha and alpha times each
    degree), so each is formatted once."""
    n = am.n
    seps = [b"", *[b","] * (n - 1), b"\n"]
    step, text = max(1, _CSV_CELLS // max(n, 1)), []
    for lo in range(0, n, step):
        block = am.matrix[lo:lo + step]
        cells, keep = (a.reshape(len(block), n, -1) for a in distinct_cells(
            block.ravel(), lambda v: "%.17g" % v))
        text.append(rows([(cells[:, j], keep[:, j]) for j in range(n)], seps))
    return "".join(text)
