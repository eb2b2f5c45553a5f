"""The eigensolvers against closed-form spectra, each other, and numpy."""

import math
import re
import tracemalloc

import numpy as np
import pytest

import aalpha.spectral as spectral_mod
from aalpha import (ConvergenceError, DISPATCH_DENSE_LIMIT, Graph, InputError,
                    SpectralResult, add_isolated, alpha_stack,
                    build_alpha_matrix, from_edge_list, gen_circulant,
                    gen_complete, gen_cycle, gen_random, gen_star, matvec,
                    spectral_radii_dense, spectral_radius,
                    spectral_radius_dense, spectral_radius_jacobi,
                    spectral_radius_lanczos, spectral_radius_power)

ALPHAS = (0.0, 0.25, 0.5, 0.75, 1.0)


def test_regular_graphs_have_radius_r():
    """Constant row sums force lambda1 = r for every alpha."""
    cases = [(gen_complete(4), 3), (gen_complete(6), 5), (gen_cycle(5), 2),
             (gen_cycle(8), 2), (gen_circulant(8, [1, 2]), 4)]
    for g, r in cases:
        for alpha in ALPHAS:
            am = build_alpha_matrix(g, alpha)
            assert abs(spectral_radius_dense(am).lambda1 - r) <= 1e-10
            assert abs(spectral_radius_jacobi(am).lambda1 - r) <= 1e-10
            assert abs(spectral_radius_power(am).lambda1 - r) <= 1e-9


def test_star_adjacency_radius_sqrt_delta():
    # Star adjacency spectrum is {sqrt(Delta), 0, ..., 0, -sqrt(Delta)}:
    # squaring the matrix gives Delta on the center row.
    for Delta in (1, 2, 3, 7, 12):
        am = build_alpha_matrix(gen_star(Delta + 1), 0.0)
        assert abs(spectral_radius_dense(am).lambda1 - math.sqrt(Delta)) <= 1e-12
        assert abs(spectral_radius_jacobi(am).lambda1 - math.sqrt(Delta)) <= 1e-12
        assert abs(spectral_radius_power(am).lambda1 - math.sqrt(Delta)) <= 1e-9


def test_bipartite_oscillation_handled():
    """C4 adjacency has eigenvalues {2, 0, 0, -2}; the +/-2 pair makes
    unshifted power iteration oscillate. The shift must break it."""
    am = build_alpha_matrix(gen_cycle(4), 0.0)
    res = spectral_radius_power(am)
    assert abs(res.lambda1 - 2.0) <= 1e-9
    assert res.method == "power"
    am2 = build_alpha_matrix(gen_complete(2), 0.0)  # eigenvalues {1, -1}
    assert abs(spectral_radius_power(am2).lambda1 - 1.0) <= 1e-9


def test_alpha_one_returns_max_degree_exactly():
    for g in (gen_star(7), gen_random(10, 0.5, 4), gen_cycle(6)):
        am = build_alpha_matrix(g, 1.0)
        Delta = max(g.degrees.tolist())
        assert spectral_radius_jacobi(am).lambda1 == float(Delta)
        assert spectral_radius(am).lambda1 == float(Delta)
        assert abs(spectral_radius_power(am).lambda1 - Delta) <= 1e-9


def test_zero_matrix():
    for n in (1, 2, 5):
        am = build_alpha_matrix(Graph(n, ()), 0.6)
        rj = spectral_radius_jacobi(am)
        assert rj.lambda1 == 0.0 and rj.iterations == 0
        rd = spectral_radius_dense(am)
        assert rd.lambda1 == 0.0 and rd.residual == 0.0
        rp = spectral_radius_power(am)
        assert rp.lambda1 == 0.0 and rp.residual == 0.0


def test_methods_agree_with_each_other_and_numpy():
    """Cross-validation plus a third oracle (numpy eigvalsh, test-only)."""
    rng_cases = [(n, p, s) for n in (2, 3, 5, 8, 12) for p in (0.2, 0.5, 0.8)
                 for s in (0, 1)]
    for n, p, s in rng_cases:
        g = gen_random(n, p, s)
        for alpha in ALPHAS:
            am = build_alpha_matrix(g, alpha)
            lj = spectral_radius_jacobi(am).lambda1
            lp = spectral_radius_power(am).lambda1
            ln = float(np.linalg.eigvalsh(am.matrix)[-1])
            assert abs(lj - lp) <= 1e-7
            assert abs(lj - ln) <= 1e-9


def test_row_sum_sandwich():
    """Average degree <= lambda1 <= Delta for graphs with an edge."""
    for seed in range(8):
        g = gen_random(9, 0.5, seed)
        if g.edge_count == 0:
            continue
        deg = g.degrees.tolist()
        for alpha in (0.0, 0.3, 0.8, 1.0):
            lam = spectral_radius(build_alpha_matrix(g, alpha)).lambda1
            assert sum(deg) / g.n - 1e-9 <= lam <= max(deg) + 1e-9


def test_monotone_under_edge_addition():
    """lambda1 never drops when an edge is added (nonnegative matrices)."""
    rng = np.random.default_rng(11)
    n = 8
    for _ in range(3):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        rng.shuffle(pairs)
        edges = []
        prev = 0.0
        for e in pairs[:12]:
            edges.append(tuple(e))
            lam = spectral_radius(
                build_alpha_matrix(from_edge_list(n, edges), 0.4)).lambda1
            assert lam >= prev - 1e-9
            prev = lam


def test_residual_and_iteration_reporting():
    am = build_alpha_matrix(gen_random(10, 0.5, 6), 0.3)
    rj = spectral_radius_jacobi(am)
    fro = math.sqrt(float(np.sum(am.matrix * am.matrix)))
    assert rj.residual <= 1e-12 * (1 + fro)
    assert 1 <= rj.iterations <= 100
    rd = spectral_radius_dense(am)
    assert rd.residual <= 1e-12 * (1 + fro)
    assert rd.iterations == 1
    assert abs(rd.lambda1 - rj.lambda1) <= 1e-12 * (1 + fro)
    rp = spectral_radius_power(am)
    assert rp.residual <= 1e-9
    assert rp.iterations >= 1


def test_dispatcher():
    am = build_alpha_matrix(gen_random(12, 0.5, 0), 0.5)
    assert spectral_radius(am).method == "dense"
    assert spectral_radius(am, "dense").method == "dense"
    assert spectral_radius(am, "power").method == "power"
    assert spectral_radius(am, "jacobi").method == "jacobi"
    assert spectral_radius(am, "lanczos").method == "lanczos"
    for bad in ("arnoldi", "", ["dense"]):  # "" is not None: no default
        with pytest.raises(InputError, match="^" + re.escape(
                f"unknown method {bad!r}, expected 'dense', 'jacobi', "
                "'power' or 'lanczos'") + "$"):
            spectral_radius(am, bad)
    assert DISPATCH_DENSE_LIMIT == 1000
    at_limit = build_alpha_matrix(gen_cycle(DISPATCH_DENSE_LIMIT), 0.5)
    assert spectral_radius(at_limit).method == "dense"


def test_dispatcher_uses_lanczos_above_limit():
    """Above the limit, building and solving stay O(n + m) in memory: no
    n x n matrix (8 MB here) is assembled."""
    g = add_isolated(gen_star(150), DISPATCH_DENSE_LIMIT - 150 + 1)
    tracemalloc.start()
    try:
        am = build_alpha_matrix(g, 0.5)
        res = spectral_radius(am)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, f"peak {peak / 1e6:.2f} MB"
    assert "matrix" not in vars(am)  # .matrix was never read
    assert am.n == DISPATCH_DENSE_LIMIT + 1
    assert res.method == "lanczos"
    from aalpha import bound_g
    assert abs(res.lambda1 - bound_g(149, 0.5)) <= 1e-8


def test_lanczos_cycle_memory():
    """Lanczos on a cycle of 10**5 vertices peaks at 7.2 MB: its one basis
    row, the product and the product's temporaries over the edge array."""
    g = gen_cycle(10**5)
    tracemalloc.start()
    try:
        res = spectral_radius(build_alpha_matrix(g, 0.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.method == "lanczos" and res.iterations == 1
    assert peak < 9_000_000, f"peak {peak / 1e6:.2f} MB"


def test_power_convergence_error(monkeypatch):
    am = build_alpha_matrix(gen_cycle(5), 0.3)
    monkeypatch.setattr(spectral_mod, "POWER_MAX_ITER", 2)
    with pytest.raises(ConvergenceError) as ei:
        spectral_radius_power(am)
    err = ei.value
    assert err.iterations == 2
    assert err.residual > 0
    assert 0 < err.estimate <= 2 + 1e-6


def test_lanczos_convergence_error(monkeypatch):
    """At its step cap Lanczos raises with the enclosure it reached; its
    estimate, a Rayleigh quotient, never exceeds lambda1."""
    am = build_alpha_matrix(add_isolated(gen_random(60, 0.1, 5), 7), 0.25)
    lam = spectral_radius_dense(am).lambda1
    monkeypatch.setattr(spectral_mod, "LANCZOS_MAX_STEPS", 2)
    with pytest.raises(ConvergenceError, match=r"lambda1 in \[") as ei:
        spectral_radius_lanczos(am)
    err = ei.value
    assert err.iterations == 2
    assert err.residual > 0
    assert err.estimate <= lam + 1e-12


def test_jacobi_convergence_error(monkeypatch):
    am = build_alpha_matrix(gen_cycle(5), 0.5)
    monkeypatch.setattr(spectral_mod, "JACOBI_MAX_SWEEPS", 0)
    with pytest.raises(ConvergenceError) as ei:
        spectral_radius_jacobi(am)
    err = ei.value
    assert err.iterations == 0
    assert err.residual > 0
    assert err.estimate == 1.0  # the largest diagonal entry, untouched


def test_input_validation():
    empty = build_alpha_matrix(Graph(0, ()), 0.5)
    with pytest.raises(InputError):
        spectral_radius_dense(empty)
    with pytest.raises(InputError):
        spectral_radius_jacobi(empty)
    with pytest.raises(InputError):
        spectral_radius_power(empty)
    with pytest.raises(InputError):
        spectral_radius_lanczos(empty)


def test_small_gap_path_matches_eigvalsh():
    """P_400 has spectral gap ~1e-4 at alpha = 0.5: power iteration stalls on
    it, the default path must not."""
    n = 400
    am = build_alpha_matrix(from_edge_list(n, [(i, i + 1) for i in range(n - 1)]),
                            0.5)
    res = spectral_radius(am)
    assert res.method == "dense"
    assert abs(res.lambda1 - float(np.linalg.eigvalsh(am.matrix)[-1])) <= 1e-10
    assert res.residual <= 1e-10


def _path(n):
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


@pytest.mark.parametrize("g", [
    add_isolated(gen_random(60, 0.1, 5), 7),
    add_isolated(gen_star(150), 852),
    from_edge_list(105, [(i, j) for i in range(5) for j in range(i + 1, 5)]
                   + [(5 + i, 5 + (i + 1) % 100) for i in range(100)]),
    gen_complete(2), Graph(5, ()), Graph(1, ()), _path(400),
], ids=["G60+iso7", "star150+iso852", "K5+C100", "K2", "edgeless5",
        "one-vertex", "P400"])
def test_lanczos_matches_lapack(g):
    """Lanczos, forced below the dispatch limit, agrees with LAPACK on graphs
    with isolated vertices, two components, no edges and a small gap."""
    for alpha in (0.0, 0.25, 1 / 3, 0.5, 1.0):
        am = build_alpha_matrix(g, alpha)
        res = spectral_radius(am, "lanczos")
        assert res.method == "lanczos"
        assert abs(res.lambda1 - spectral_radius_dense(am).lambda1) <= 1e-10
        if g.edge_count == 0:
            assert res.lambda1 == 0.0


@pytest.mark.parametrize("spec", [("random", 2000, 0.01, s) for s in
                                  range(1, 6)] + [("cycle", 100000)],
                         ids=[f"G2000s{s}" for s in range(1, 6)] + ["C100000"])
def test_lanczos_keeps_the_summed_tridiagonal_matrix(monkeypatch, spec):
    """The tridiagonal matrix Lanczos keeps between steps is, at each step,
    the sum np.diag(d) + np.diag(o, 1) + np.diag(o, -1) of its diagonals,
    byte for byte and with no -0.0 on the diagonal; solving that sum in its
    place leaves lambda1, the residual and the step count bit-identical."""
    gen = {"random": gen_random, "cycle": gen_cycle}[spec[0]]
    am = build_alpha_matrix(gen(*spec[1:]), 0.5)
    kept = spectral_radius_lanczos(am)
    eigh, sizes = np.linalg.eigh, []

    def summed(t):
        d, o = np.diag(t).copy(), np.diag(t, 1).copy()
        fresh = np.diag(d) + np.diag(o, 1) + np.diag(o, -1)
        assert fresh.tobytes() == np.ascontiguousarray(t).tobytes()
        assert not np.signbit(d[d == 0.0]).any()
        sizes.append(len(t))
        return eigh(fresh)

    monkeypatch.setattr(np.linalg, "eigh", summed)
    res = spectral_radius_lanczos(am)
    assert sizes == list(range(1, kept.iterations + 1))
    assert (res.lambda1.hex(), res.residual.hex(), res.iterations) == (
        kept.lambda1.hex(), kept.residual.hex(), kept.iterations)


def test_power_nonzero_matvec_matches_dense_product():
    """The power path reads the edge array; on a graph with isolated
    vertices and zero rows it still agrees with LAPACK."""
    g = add_isolated(gen_random(60, 0.1, 5), 7)
    for alpha in ALPHAS:
        am = build_alpha_matrix(g, alpha)
        rp = spectral_radius_power(am)
        assert abs(rp.lambda1 - spectral_radius_dense(am).lambda1) <= 1e-8


def _power_over_dense_scan(am, tol=1e-10, max_iter=100000):
    """Power iteration as it ran over np.nonzero of the dense matrix: the
    reference that the edge-array set-up must match bit for bit."""
    n = am.n
    rows, cols = np.nonzero(am.matrix)
    vals = am.matrix[rows, cols]
    shift = float(am.max_degree)
    v = 1.0 + 1e-3 * (np.arange(1, n + 1) / n)
    v /= np.linalg.norm(v)
    prev, est, resid = math.inf, 0.0, math.inf
    for it in range(1, max_iter + 1):
        av = np.bincount(rows, weights=vals * v[cols], minlength=n)
        est = float(v @ av)
        resid = float(np.linalg.norm(av - est * v))
        if abs(est - prev) <= tol and resid <= 10.0 * tol:
            return ("ok", est, resid, it)
        prev = est
        y = av + shift * v
        ny = float(np.linalg.norm(y))
        if ny == 0.0:
            return ("ok", 0.0, 0.0, it)
        v = y / ny
    return ("fail", est, resid, max_iter)


def test_power_matches_the_dense_scan_bit_for_bit(monkeypatch):
    """Power iteration reads the edge array in the dense matrix's row-major
    order, so every estimate, residual and iteration count, and the evidence
    of a failure, equals a run over the dense matrix's nonzero entries."""
    graphs = (add_isolated(gen_random(60, 0.1, 5), 7), gen_star(6),
              Graph(5, ()), gen_complete(2))
    for g in graphs:
        for alpha in (0.0, 0.25, 1 / 3, 1.0):
            am = build_alpha_matrix(g, alpha)
            ref = _power_over_dense_scan(am)
            got = spectral_radius_power(am)
            assert ref == ("ok", got.lambda1, got.residual, got.iterations)
    am = build_alpha_matrix(graphs[0], 0.25)
    monkeypatch.setattr(spectral_mod, "POWER_MAX_ITER", 2)
    with pytest.raises(ConvergenceError) as ei:
        spectral_radius_power(am)
    err = ei.value
    assert _power_over_dense_scan(am, max_iter=2) == \
        ("fail", err.estimate, err.residual, err.iterations)


def test_operator_is_the_row_major_scan():
    """matvec, the one product by an alpha matrix, sums each row in the
    order a scan of the dense matrix's nonzero entries does, for any x:
    Lanczos feeds it basis vectors with negative entries, not only power
    iteration's positive iterates. The last graph is above the dense
    limit."""
    graphs = (add_isolated(gen_random(60, 0.1, 5), 7), gen_star(6),
              Graph(5, ()), gen_complete(2), Graph(1, ()),
              add_isolated(gen_random(1500, 0.005, 3), 30))
    rng = np.random.default_rng(19)
    for g in graphs:
        x = rng.standard_normal(g.n)
        for alpha in (0.0, 0.25, 1 / 3, 1.0):
            am = build_alpha_matrix(g, alpha)
            r, c = np.nonzero(am.matrix)
            ref = np.bincount(r, am.matrix[r, c] * x[c], minlength=g.n)
            assert matvec(am, x).tobytes() == ref.tobytes()


def test_dense_stack_matches_single_solves():
    """Every result of a stacked solve, residual included, equals an eigh
    call and a residual on that matrix alone, bit for bit."""
    # G(7, .5, 0) and G(8, .2, 2) are graphs whose residual, as a row-wise
    # pairwise sum of squares, differs from the dot product in the last bit.
    for g in (gen_random(7, 0.5, 0), gen_random(8, 0.2, 2),
              add_isolated(gen_star(6), 2), gen_cycle(200), Graph(1, ())):
        single = []
        for a in ALPHAS:
            m = build_alpha_matrix(g, a).matrix
            w, x = np.linalg.eigh(m)
            lam, top = float(w[-1]), x[:, -1]
            single.append(SpectralResult(
                lam, "dense", float(np.linalg.norm(m @ top - lam * top)), 1))
        lam, resid = spectral_radii_dense(alpha_stack(g, ALPHAS))
        assert [SpectralResult(v, "dense", e, 1)
                for v, e in zip(lam.tolist(), resid.tolist())] == single
        assert [spectral_radius_dense(build_alpha_matrix(g, a))
                for a in ALPHAS] == single
    with pytest.raises(InputError):
        spectral_radii_dense(np.zeros((2, 0, 0)))
