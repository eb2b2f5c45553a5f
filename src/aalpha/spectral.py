"""Spectral radius of an alpha matrix: LAPACK and Lanczos on the default
path, plus two independent oracles.

For a symmetric entrywise-nonnegative matrix the spectral radius equals the
largest eigenvalue, which every solver here targets directly. The dispatcher
answers a d-regular graph exactly, lambda1 = d, with no eigensolver: the
all-ones vector is an eigenvector for d and no row sum exceeds d. It sends
any other graph with n <= DISPATCH_DENSE_LIMIT to LAPACK's symmetric
eigensolver through numpy.linalg.eigh and larger graphs to Lanczos over the
graph's edge array, which stops on an enclosure of lambda1 rather than on a
residual. spectral_radii, the solve of every campaign, always runs an
eigensolver. The dense solver takes a (k, n, n) stack of matrices in one
LAPACK call, so spectral_radii, which takes graphs of any vertex counts,
solves a block of one vertex count's graphs at a block of alphas in each
call; a single matrix is a stack of one. Cyclic Jacobi and shifted power
iteration share no code with each other or with LAPACK; each is an oracle
for the others. Power iteration and Lanczos apply the matrix through
alpha_matrix.matvec, which reads the graph's edge and degree arrays, holds
no arrays of its own, and sums each row as a row-major scan of the dense
matrix does; this module holds solvers only.
"""

import math
from dataclasses import dataclass

import numpy as np

from .alpha_matrix import AlphaMatrix, _assemble, matvec
from .errors import ConvergenceError, InputError

JACOBI_MAX_SWEEPS = 100
JACOBI_TOL_FACTOR = 1e-12
POWER_TOL = 1e-10
POWER_MAX_ITER = 100000
LANCZOS_MAX_STEPS = 300
DISPATCH_DENSE_LIMIT = 1000
METHODS = ("dense", "jacobi", "power", "lanczos")  # spectral_radius_<name>
_EPS = float(np.finfo(float).eps)
_FLOOR = 1e-10  # Lanczos's first Collatz-Wielandt floor, relative to max x


@dataclass(frozen=True)
class SpectralResult:
    """Largest eigenvalue with the evidence that produced it."""

    lambda1: float
    method: str  # a name in METHODS, or "regular"
    residual: float
    iterations: int


def _off_norm(a: np.ndarray) -> float:
    """Frobenius norm of the off-diagonal part, summed directly (the
    difference of full and diagonal norms cancels catastrophically)."""
    b = a.copy()
    np.fill_diagonal(b, 0.0)
    return float(np.linalg.norm(b))


def spectral_radii_dense(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LAPACK's symmetric eigensolver (numpy.linalg.eigh) on a (k, n, n)
    stack of matrices, in one call.

    Returns two float64 arrays of length k: each matrix's largest eigenvalue,
    and the measured residual ||a x - lambda1 x|| of its unit eigenvector x.
    Each pair equals a solve of that matrix alone, bit for bit: the gufunc
    runs the same LAPACK routine on every matrix, and the residual's product
    and inner product are BLAS calls on one matrix each.
    """
    if stack.shape[-1] < 1:
        raise InputError("spectral radius needs at least one vertex")
    w, x = np.linalg.eigh(stack)
    lam = w[:, -1]
    top = x[:, :, -1:]
    r = stack @ top - lam[:, None, None] * top
    return lam, np.sqrt(r.transpose(0, 2, 1) @ r)[:, 0, 0]


def spectral_radius_dense(m: AlphaMatrix) -> SpectralResult:
    """spectral_radii_dense on the stack of one matrix, as a SpectralResult."""
    lam, resid = spectral_radii_dense(m.matrix[None])
    return SpectralResult(float(lam[0]), "dense", float(resid[0]), 1)


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
    raises ConvergenceError after POWER_MAX_ITER iterations. The matrix is
    applied by alpha_matrix.matvec, so m.matrix is never built.
    """
    n = m.n
    if n < 1:
        raise InputError("spectral radius needs at least one vertex")
    shift = float(m.max_degree)
    v = 1.0 + 1e-3 * (np.arange(1, n + 1) / n)
    v /= np.linalg.norm(v)
    prev = math.inf
    est = 0.0
    resid = math.inf
    for it in range(1, POWER_MAX_ITER + 1):
        av = matvec(m, v)
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


def spectral_radius_lanczos(m: AlphaMatrix) -> SpectralResult:
    """Lanczos from the all-ones vector, stopped on an enclosure of lambda1.

    The all-ones vector overlaps every nonnegative Perron vector, and on a
    regular graph it is one, so a cycle or circulant is solved in one step.
    Each step is reorthogonalized against the whole basis (classical
    Gram-Schmidt, twice), and the Ritz pair comes from eigh of the
    tridiagonal matrix. Once the Ritz pair's residual bound
    beta * |s_last| is within POWER_TOL, each step encloses lambda1:

    - lo, the Rayleigh quotient of the unit Ritz vector x, is below it;
    - hi, the Collatz-Wielandt ratio max_i (A y)_i / y_i of any positive y,
      is above it (zero rows, of isolated vertices, give 0). Here y is x
      floored at a positive vector: 1e-10 * max(x) at the first check, then
      the previous check's (A + Delta*I) y / (lo + Delta). On a component
      that x misses, a constant floor gives ratios near the degrees; these
      power steps bring them down to that component's own radius.

    It stops when hi - lo <= POWER_TOL * max(1, lo), or when a step leaves
    nothing after reorthogonalization (beta <= eps * ||A q||): that basis
    spans an invariant subspace, whose top Ritz value is exact. Edgeless
    graphs, stars with isolated vertices and unions of regular components
    end this way.

    Reports lo, the measured residual ||A x - lo x|| and the number of
    steps. Basis rows are allocated as steps are taken, up to
    LANCZOS_MAX_STEPS rows of n; at that cap it raises ConvergenceError
    with estimate lo and the enclosure [lo, hi] in its message. The
    enclosure needs a nonnegative matrix, which AlphaMatrix guarantees by
    holding alpha in [0, 1].
    """
    n, cap, shift = m.n, LANCZOS_MAX_STEPS, float(m.max_degree)
    if n < 1:
        raise InputError("spectral radius needs at least one vertex")
    basis = np.empty((1, n))
    basis[0] = 1.0 / math.sqrt(n)
    t = np.zeros((1, 1))  # the tridiagonal matrix, grown with the basis
    floor = None
    for k in range(1, cap + 1):
        q = basis[:k]
        w = matvec(m, q[-1])
        scale = float(np.linalg.norm(w))
        c = q @ w
        w -= c @ q
        w -= (q @ w) @ q
        t[k - 1, k - 1] = c[-1] + 0.0  # + 0.0 stores a -0.0 as 0.0
        beta = float(np.linalg.norm(w))
        theta, s = np.linalg.eigh(t[:k, :k])
        s = s[:, -1] if s[0, -1] >= 0.0 else -s[:, -1]  # x . 1 >= 0
        invariant = beta <= _EPS * scale
        if (invariant or k == cap
                or beta * abs(s[-1]) <= POWER_TOL * max(1.0, theta[-1])):
            x = s @ q
            x /= np.linalg.norm(x)
            ax = matvec(m, x)
            lo = float(x @ ax)
            resid = float(np.linalg.norm(ax - lo * x))
            if floor is None:
                floor = np.full(n, _FLOOR * float(x.max()))
            y = np.maximum(x, floor)
            ay = matvec(m, y)
            hi = float(np.max(ay / y))
            if invariant or hi - lo <= POWER_TOL * max(1.0, lo):
                return SpectralResult(lo, "lanczos", resid, k)
            floor = (ay + shift * y) / (lo + shift)
        if k < cap:
            if k == len(basis):
                more = min(k, cap - k)
                basis = np.pad(basis, ((0, more), (0, 0)))
                t = np.pad(t, (0, more))
            basis[k] = w / beta
            t[k - 1, k] = t[k, k - 1] = beta
    raise ConvergenceError(
        f"lanczos did not enclose lambda1 to {POWER_TOL:g} in {cap} steps: "
        f"lambda1 in [{lo!r}, {hi!r}]",
        estimate=lo, residual=resid, iterations=cap)


def _default_method(n: int) -> str:
    """The dispatcher's eigensolver for an n-vertex matrix."""
    return "dense" if n <= DISPATCH_DENSE_LIMIT else "lanczos"


def _regular_degree(m: AlphaMatrix) -> int | None:
    """d when every vertex of m's graph has degree d, else None (also for
    n = 0): the one-class case of an equitable partition, decided in O(n)
    by comparing the least and greatest degree."""
    d = m.degrees
    return int(d[0]) if d.size and d.min() == d.max() else None


def spectral_radius(m: AlphaMatrix, method: str | None = None) -> SpectralResult:
    """Dispatch to a solver. By default a d-regular graph, connected or not,
    gets lambda1 = d exactly at every alpha, as method "regular" with 0
    iterations and the measured residual ||A x - d x|| of x = 1/sqrt(n) * 1;
    any other graph goes to dense LAPACK for n <= DISPATCH_DENSE_LIMIT
    (1000) and to Lanczos above. method may force any name in METHODS; the
    solver it names, spectral_radius_<method>, is looked up on this module
    at each call.
    """
    if method is None:
        d = _regular_degree(m)
        if d is not None:
            x = np.full(m.n, 1.0 / math.sqrt(m.n))
            resid = float(np.linalg.norm(matvec(m, x) - d * x))
            return SpectralResult(float(d), "regular", resid, 0)
        method = _default_method(m.n)
    if method not in METHODS:  # by ==, so an unhashable one is unknown
        names = ", ".join(map(repr, METHODS[:-1]))
        raise InputError(f"unknown method {method!r}, expected {names} "
                         f"or {METHODS[-1]!r}")
    return globals()["spectral_radius_" + method](m)


def spectral_radii(graphs, graph_ids, alphas,
                   method: str | None = None) -> np.ndarray:
    """lambda1 of each graph's alpha matrix at each alpha (checked floats),
    as a (len(graphs), len(alphas)) array with rows in input order. The
    graphs may have any vertex counts.

    The graphs of one vertex count are solved together, one count at a time
    in first-seen order. Every value comes from an eigensolver: method None
    is the dispatcher's eigensolver for that vertex count, LAPACK up to
    DISPATCH_DENSE_LIMIT vertices and Lanczos above, with no exact answer
    for regular graphs. Each call solves a block of one group's graphs at
    a block of the alphas. On the dense path a call is one LAPACK stack,
    graph-major, of at most per = max(1, DISPATCH_DENSE_LIMIT**2 // n**2)
    matrices, so no call holds more than the biggest single dense matrix:
    the k alphas are cut into blocks of min(k, per), and the graphs into
    blocks of per // min(k, per). Any other method gets one spectral_radius
    call per graph and alpha. A graph with no vertex raises InputError. A
    ConvergenceError is re-raised naming each of graph_ids in the failed
    block at the block's alphas.
    """
    groups, k = {}, len(alphas)  # n -> the rows of its graphs
    for i, g in enumerate(graphs):
        groups.setdefault(g.n, []).append(i)
    lams = np.empty((len(graphs), k))
    for n, rows in groups.items():
        solver = _default_method(n) if method is None else method
        dense = solver == "dense"
        per = (max(1, DISPATCH_DENSE_LIMIT ** 2 // max(n, 1) ** 2)
               if dense else 1)
        step = max(1, min(k, per))  # alphas per call; k = 0 makes no call
        size = per // step  # graphs per call
        for lo in range(0, len(rows), size):
            block = rows[lo:lo + size]
            for a in range(0, k, step):
                at = alphas[a:a + step]
                try:
                    if dense:
                        lams[block, a:a + step] = spectral_radii_dense(
                            _assemble([graphs[i] for i in block], at)
                        )[0].reshape(len(block), len(at))
                    else:
                        lams[block, a] = spectral_radius(
                            AlphaMatrix(graphs[block[0]], at[0]),
                            solver).lambda1
                except ConvergenceError as exc:
                    where = "; ".join(f"{graph_ids[i]} at alpha="
                                      + ", ".join(map(str, at)) for i in block)
                    raise ConvergenceError(
                        f"eigensolver failed on {where}: {exc}",
                        estimate=exc.estimate, residual=exc.residual,
                        iterations=exc.iterations) from exc
    return lams
