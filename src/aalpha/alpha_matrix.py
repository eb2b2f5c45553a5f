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
    degrees: tuple[int, ...]

    @property
    def max_degree(self) -> int:
        return max(self.degrees) if self.degrees else 0


def build_alpha_matrix(g: Graph, alpha: float, permissive: bool = False) -> AlphaMatrix:
    """Assemble alpha*D + (1 - alpha)*A for g.

    alpha must lie in [0, 1]; permissive mode relaxes the cap to alpha >= 0
    (the combination is defined there too, but entrywise nonnegativity and
    the bound guarantees only cover [0, 1]).
    """
    alpha = check_alpha(alpha, permissive)
    deg = g.degrees()
    m = (1.0 - alpha) * g.adjacency_matrix()
    idx = np.arange(g.n)
    m[idx, idx] = alpha * np.asarray(deg, dtype=float)
    m.flags.writeable = False
    return AlphaMatrix(m, alpha, g.n, tuple(deg))


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
