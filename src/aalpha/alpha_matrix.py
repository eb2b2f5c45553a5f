"""The convex combination alpha*D + (1 - alpha)*A of a graph's degree and
adjacency matrices.

alpha = 0 gives the adjacency matrix, alpha = 1 the diagonal degree matrix,
and alpha = 1/2 gives half the signless Laplacian. For alpha in [0, 1] the
matrix is symmetric and entrywise nonnegative, and its row sums equal the
vertex degrees for every alpha.
"""

from dataclasses import dataclass

import numpy as np

from .bounds import check_alpha
from .errors import InputError
from .graphs import Graph


@dataclass(frozen=True, eq=False)
class AlphaMatrix:
    """Dense realization of alpha*D + (1 - alpha)*A for one graph and alpha."""

    matrix: np.ndarray  # (n, n) float64, read-only
    alpha: float
    n: int
    degrees: np.ndarray  # the graph's read-only degree array

    @property
    def max_degree(self) -> int:
        return int(self.degrees.max()) if self.n else 0


def alpha_stack(g: Graph, alphas, permissive: bool = False) -> np.ndarray:
    """alpha*D + (1 - alpha)*A of g for each alpha in turn, as one
    (k, n, n) float64 array: (1 - alpha)*A, then alpha*deg on the diagonal.

    Every alpha must lie in [0, 1]; permissive mode relaxes the cap to
    alpha >= 0 (the combination is defined there too, but entrywise
    nonnegativity and the bound guarantees only cover [0, 1]).
    """
    a = np.array([check_alpha(x, permissive) for x in alphas], dtype=float)
    u, v = g.edges.T
    # One allocation, scaled in place: a product into a second array would
    # fault in fresh pages for every large matrix.
    m = np.zeros((len(a), g.n, g.n))
    m[:, u, v] = m[:, v, u] = 1.0
    m *= (1.0 - a)[:, None, None]
    idx = np.arange(g.n)
    m[:, idx, idx] = a[:, None] * g.degrees
    return m


def build_alpha_matrix(g: Graph, alpha: float, permissive: bool = False) -> AlphaMatrix:
    """Assemble alpha*D + (1 - alpha)*A for g: the stack of one of
    alpha_stack, read-only."""
    alpha = check_alpha(alpha, permissive)
    m = alpha_stack(g, (alpha,), permissive)[0]
    m.flags.writeable = False
    return AlphaMatrix(m, alpha, g.n, g.degrees)


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
