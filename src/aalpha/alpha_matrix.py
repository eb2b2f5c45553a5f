"""The convex combination alpha*D + (1 - alpha)*A of a graph's degree and
adjacency matrices.

alpha = 0 gives the adjacency matrix, alpha = 1 the diagonal degree matrix,
and alpha = 1/2 gives half the signless Laplacian. For alpha in [0, 1] the
matrix is symmetric and entrywise nonnegative, and its row sums equal the
vertex degrees for every alpha; .matrix is assembled on first read.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bounds import check_alpha
from .errors import InputError
from .graphs import Graph


@dataclass(frozen=True, eq=False)
class AlphaMatrix:
    """alpha*D + (1 - alpha)*A for one graph and one checked alpha."""

    graph: Graph
    alpha: float

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
        m = _assemble(self.graph, (self.alpha,))[0]
        m.flags.writeable = False
        return m


def _assemble(g: Graph, alphas) -> np.ndarray:
    """alpha_stack for alphas that are already checked floats."""
    a = np.array(alphas, dtype=float)
    u, v = g.edges.T
    # One allocation, scaled in place: a product into a second array would
    # fault in fresh pages for every large matrix.
    m = np.zeros((len(a), g.n, g.n))
    m[:, u, v] = m[:, v, u] = 1.0
    m *= (1.0 - a)[:, None, None]
    idx = np.arange(g.n)
    m[:, idx, idx] = a[:, None] * g.degrees
    return m


def alpha_stack(g: Graph, alphas) -> np.ndarray:
    """alpha*D + (1 - alpha)*A of g for each alpha in turn, as one
    (k, n, n) float64 array. Every alpha must lie in [0, 1]."""
    return _assemble(g, [check_alpha(x) for x in alphas])


def build_alpha_matrix(g: Graph, alpha: float, permissive: bool = False) -> AlphaMatrix:
    """alpha*D + (1 - alpha)*A of g, alpha checked; .matrix built on read."""
    return AlphaMatrix(g, check_alpha(alpha, permissive))


def matvec(am: AlphaMatrix, x) -> np.ndarray:
    """Product am.matrix @ x for a length-n vector."""
    x = np.asarray(x, dtype=float)
    if x.shape != (am.n,):
        raise InputError(f"vector shape {x.shape} does not match n = {am.n}")
    return am.matrix @ x


def matrix_csv(am: AlphaMatrix) -> str:
    """Matrix entries as n CSV lines at full float64 precision (%.17g)."""
    lines = [",".join("%.17g" % v for v in row) for row in am.matrix]
    return "\n".join(lines) + ("\n" if lines else "")
