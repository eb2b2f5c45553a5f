"""Spectral radius of an alpha matrix: LAPACK on the default path, plus two
independent oracles.

For a symmetric entrywise-nonnegative matrix the spectral radius equals the
largest eigenvalue, which every solver here targets directly. The dispatcher
sends n <= DISPATCH_DENSE_LIMIT to LAPACK's symmetric eigensolver through
numpy.linalg.eigh and larger graphs to shifted power iteration over the
graph's edge array. The dense solver takes a (k, n, n) stack of matrices in
one LAPACK call, so a campaign solves all the alphas of a graph together; a
single matrix is a stack of one. Cyclic Jacobi and power iteration share
no code with each other or with LAPACK; each is an oracle for the others.
"""

import math
from dataclasses import dataclass

import numpy as np

from .alpha_matrix import AlphaMatrix
from .errors import ConvergenceError, InputError

JACOBI_MAX_SWEEPS = 100
JACOBI_TOL_FACTOR = 1e-12
POWER_TOL = 1e-10
POWER_MAX_ITER = 100000
DISPATCH_DENSE_LIMIT = 1000


@dataclass(frozen=True)
class SpectralResult:
    """Largest eigenvalue with the evidence that produced it."""

    lambda1: float
    method: str  # "dense", "jacobi" or "power"
    residual: float
    iterations: int


def _off_norm(a: np.ndarray) -> float:
    """Frobenius norm of the off-diagonal part, summed directly (the
    difference of full and diagonal norms cancels catastrophically)."""
    b = a.copy()
    np.fill_diagonal(b, 0.0)
    return float(np.linalg.norm(b))


def spectral_radii_dense(stack: np.ndarray) -> list[SpectralResult]:
    """LAPACK's symmetric eigensolver (numpy.linalg.eigh) on a (k, n, n)
    stack of matrices, in one call.

    Reports, for each matrix in order, the largest eigenvalue, the measured
    residual ||a x - lambda1 x|| of its unit eigenvector x, and one
    iteration. Each result equals a solve of that matrix alone, bit for bit:
    the gufunc runs the same LAPACK routine on every matrix, and the
    residual's product and inner product are BLAS calls on one matrix each.
    """
    if stack.shape[-1] < 1:
        raise InputError("spectral radius needs at least one vertex")
    w, x = np.linalg.eigh(stack)
    lam = w[:, -1]
    top = x[:, :, -1:]
    r = stack @ top - lam[:, None, None] * top
    resid = np.sqrt(r.transpose(0, 2, 1) @ r)[:, 0, 0]
    return [SpectralResult(v, "dense", e, 1)
            for v, e in zip(lam.tolist(), resid.tolist())]


def spectral_radius_dense(m: AlphaMatrix) -> SpectralResult:
    """spectral_radii_dense on the stack of one matrix."""
    return spectral_radii_dense(m.matrix[None])[0]


def spectral_radius_jacobi(m: AlphaMatrix) -> SpectralResult:
    """Cyclic Jacobi: rotate away off-diagonal entries until the off-diagonal
    Frobenius norm falls below 1e-12 * (1 + ||m||_F), then report the largest
    diagonal value.

    Sweeps visit (p, q) in row-major order, p < q. Raises ConvergenceError
    after 100 sweeps without reaching the threshold (does not happen for
    symmetric input; Jacobi converges quadratically).
    """
    n = m.n
    if n < 1:
        raise InputError("spectral radius needs at least one vertex")
    a = np.array(m.matrix, dtype=float)
    threshold = JACOBI_TOL_FACTOR * (1.0 + math.sqrt(np.sum(a * a)))
    sweeps = 0
    off = _off_norm(a)
    while off > threshold and sweeps < JACOBI_MAX_SWEEPS:
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                # Classical rotation angle: pick t = tan(theta) as the
                # smaller-magnitude root for stability.
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (
                    abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.hypot(t, 1.0)
                s = t * c
                rp = a[:, p].copy()
                rq = a[:, q].copy()
                a[:, p] = c * rp - s * rq
                a[:, q] = s * rp + c * rq
                rp = a[p, :].copy()
                rq = a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                a[p, q] = 0.0
                a[q, p] = 0.0
        sweeps += 1
        off = _off_norm(a)
    if off > threshold:
        raise ConvergenceError(
            f"jacobi did not reach off-norm {threshold:.3e} "
            f"in {JACOBI_MAX_SWEEPS} sweeps",
            estimate=float(np.max(np.diag(a))), residual=off,
            iterations=sweeps)
    return SpectralResult(float(np.max(np.diag(a))), "jacobi", off, sweeps)


def spectral_radius_power(m: AlphaMatrix) -> SpectralResult:
    """Power iteration on the shifted matrix m + Delta*I.

    All eigenvalues lie in [-Delta, Delta] (row sums equal degrees), so the
    shift moves the spectrum into [0, 2*Delta] and makes lambda1 + Delta the
    dominant magnitude. This breaks the +/-lambda oscillation of bipartite
    adjacency matrices at alpha = 0 without complex arithmetic.

    The start vector is all-ones plus a deterministic index-dependent tilt, so
    its projection on the dominant eigenspace is nonzero for the matrices this
    package builds. Stops when successive Rayleigh estimates differ by at most
    POWER_TOL and the residual ||m v - est v|| is at most 10*POWER_TOL, or
    raises ConvergenceError after POWER_MAX_ITER iterations.

    The entries are read from the graph's edge and degree arrays, diagonal
    and zero entries included, in the dense matrix's row-major order; set-up
    and each step cost O(n + m) time and memory, and m.matrix is never built.
    """
    n = m.n
    if n < 1:
        raise InputError("spectral radius needs at least one vertex")
    e, idx = m.graph.edges.T, np.arange(n)
    rc = np.concatenate((e, e[::-1], (idx, idx)), axis=1)
    rows, cols = rc[:, np.argsort(rc[0] * n + rc[1])]  # row-major, as m.matrix
    vals = np.where(rows == cols, m.alpha * m.degrees[rows], 1.0 - m.alpha)
    shift = float(m.max_degree)
    v = 1.0 + 1e-3 * (np.arange(1, n + 1) / n)
    v /= np.linalg.norm(v)
    prev = math.inf
    est = 0.0
    resid = math.inf
    for it in range(1, POWER_MAX_ITER + 1):
        av = np.bincount(rows, weights=vals * v[cols], minlength=n)
        est = float(v @ av)
        resid = float(np.linalg.norm(av - est * v))
        if abs(est - prev) <= POWER_TOL and resid <= 10.0 * POWER_TOL:
            return SpectralResult(est, "power", resid, it)
        prev = est
        y = av + shift * v
        ny = float(np.linalg.norm(y))
        if ny == 0.0:
            # Only the zero matrix maps the positive start vector to zero.
            return SpectralResult(0.0, "power", 0.0, it)
        v = y / ny
    raise ConvergenceError(
        f"power iteration did not converge in {POWER_MAX_ITER} iterations",
        estimate=est, residual=resid, iterations=POWER_MAX_ITER)


def _default_method(n: int) -> str:
    """The dispatcher's solver for an n-vertex matrix."""
    return "dense" if n <= DISPATCH_DENSE_LIMIT else "power"


def spectral_radius(m: AlphaMatrix, method: str | None = None) -> SpectralResult:
    """Dispatch to a solver: dense LAPACK for n <= DISPATCH_DENSE_LIMIT (1000),
    power iteration above. method may force "dense", "jacobi" or "power".
    """
    # Built per call, so that a solver replaced on this module is the one run.
    solvers = {"dense": spectral_radius_dense, "jacobi": spectral_radius_jacobi,
               "power": spectral_radius_power}
    if method is None:
        method = _default_method(m.n)
    if method not in tuple(solvers):  # by ==, so an unhashable one is unknown
        raise InputError(
            f"unknown method {method!r}, expected 'dense', 'jacobi' or 'power'")
    return solvers[method](m)
