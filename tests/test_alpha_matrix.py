"""Construction of alpha*D + (1 - alpha)*A and its entry-level guarantees."""

import tracemalloc

import numpy as np
import pytest

from aalpha import (Graph, InputError, alpha_stack, build_alpha_matrix,
                    gen_complete, gen_cycle, gen_random, gen_star, matrix_csv,
                    matvec)
from aalpha.alpha_matrix import _assemble

DYADIC_ALPHAS = (0.0, 0.25, 0.5, 0.75, 1.0)
GENERIC_ALPHAS = (0.1, 0.37, 1 / 3, 0.99)


def test_endpoints_are_adjacency_and_degree():
    g = gen_random(8, 0.5, 2)
    a0 = build_alpha_matrix(g, 0.0)
    assert np.array_equal(a0.matrix, g.adjacency_matrix())
    a1 = build_alpha_matrix(g, 1.0)
    assert np.array_equal(a1.matrix, np.diag(np.asarray(g.degrees, float)))


def test_half_is_half_signless_laplacian():
    g = gen_star(5)
    am = build_alpha_matrix(g, 0.5)
    q = np.diag(np.asarray(g.degrees, float)) + g.adjacency_matrix()
    assert np.array_equal(am.matrix, q / 2)


def test_symmetry_exact():
    for seed in range(6):
        g = gen_random(10, 0.6, seed)
        for alpha in DYADIC_ALPHAS + GENERIC_ALPHAS:
            m = build_alpha_matrix(g, alpha).matrix
            assert np.max(np.abs(m - m.T)) == 0.0


def test_row_sums_equal_degrees():
    # Exact at alphas whose products with small integers round nowhere;
    # 1e-12 relative otherwise (alpha*d and (1-alpha)*d each round once).
    for seed in range(6):
        g = gen_random(11, 0.5, seed)
        deg = np.asarray(g.degrees, float)
        ones = np.ones(g.n)
        for alpha in DYADIC_ALPHAS:
            assert np.array_equal(matvec(build_alpha_matrix(g, alpha), ones), deg)
        for alpha in GENERIC_ALPHAS:
            rs = matvec(build_alpha_matrix(g, alpha), ones)
            assert np.all(np.abs(rs - deg) <= 1e-12 * np.maximum(1.0, deg))


def test_entrywise_nonnegative_on_unit_interval():
    g = gen_random(9, 0.4, 5)
    for alpha in DYADIC_ALPHAS + GENERIC_ALPHAS:
        assert np.min(build_alpha_matrix(g, alpha).matrix) >= 0.0


def test_entries_monotone_in_alpha():
    """Edge entries fall as (1 - alpha); diagonal rises as alpha*d."""
    g = gen_complete(4)
    alphas = np.linspace(0.0, 1.0, 9)
    edge = [build_alpha_matrix(g, a).matrix[0, 1] for a in alphas]
    diag = [build_alpha_matrix(g, a).matrix[0, 0] for a in alphas]
    assert all(x >= y for x, y in zip(edge, edge[1:]))
    assert all(x <= y for x, y in zip(diag, diag[1:]))


def test_matrix_read_only():
    am = build_alpha_matrix(gen_star(4), 0.3)
    with pytest.raises(ValueError):
        am.matrix[0, 0] = 9.0


def test_alpha_domain():
    g = gen_star(3)
    with pytest.raises(InputError):
        build_alpha_matrix(g, 1.0000001)
    with pytest.raises(InputError):
        build_alpha_matrix(g, -0.1)
    with pytest.raises(InputError):
        build_alpha_matrix(g, float("nan"))
    with pytest.raises(InputError):
        build_alpha_matrix(g, float("inf"))


def test_matvec_shape_and_value():
    g = gen_random(7, 0.5, 3)
    am = build_alpha_matrix(g, 0.42)
    x = np.linspace(-1, 1, 7)
    assert np.array_equal(matvec(am, x), am.matrix @ x)
    with pytest.raises(InputError):
        matvec(am, np.ones(6))


def test_matvec_never_builds_the_matrix():
    """matvec reads the edge and degree arrays: on a cycle of 10**6
    vertices, whose dense matrix numpy cannot allocate (7.28 TiB), the
    product of all-ones is the degree array, and it peaks at 24 MB."""
    am = build_alpha_matrix(gen_cycle(10**6), 0.5)
    x = np.ones(am.n)
    tracemalloc.start()
    try:
        y = matvec(am, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(y, am.degrees)
    assert "matrix" not in am.__dict__
    assert peak < 40e6, f"peak {peak / 1e6:.1f} MB"


def test_matrix_csv():
    g = gen_star(3)
    am = build_alpha_matrix(g, 1 / 3)
    lines = matrix_csv(am).splitlines()
    assert len(lines) == 3
    parsed = np.array([[float(v) for v in ln.split(",")] for ln in lines])
    assert np.array_equal(parsed, am.matrix)  # %.17g round-trips float64
    assert matrix_csv(build_alpha_matrix(Graph(0, ()), 0.5)) == ""


def _per_cell_csv(am):
    """matrix_csv's text written one entry at a time."""
    return "".join(",".join("%.17g" % v for v in row) + "\n"
                   for row in am.matrix.tolist())


@pytest.mark.parametrize("g, alpha", [
    (gen_random(1000, 0.01, 1), 0.5),  # 16 blocks of rows, nearly all 0
    (gen_complete(9), 1 / 3),  # one block of fewer cells than a vector
    (gen_star(300), -0.0),  # a -0 diagonal
], ids=["G1000", "K9", "star-minus-zero"])
def test_matrix_csv_matches_per_cell_text(g, alpha):
    am = build_alpha_matrix(g, alpha)
    assert matrix_csv(am) == _per_cell_csv(am)


def test_matrix_csv_memory_is_bounded():
    """Each distinct entry is formatted once: on G(1000, .01), 98.9 % zeros,
    matrix_csv peaks at 4.9 MB, its 2 MB of text included (19 MB when every
    entry went through the real-number kernel)."""
    am = build_alpha_matrix(gen_random(1000, 0.01, 1), 0.5)
    am.matrix  # built before tracing: 8 MB that matrix_csv only reads
    tracemalloc.start()
    try:
        matrix_csv(am)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6, f"peak {peak / 1e6:.1f} MB"


def test_metadata_fields():
    g = gen_star(6)
    am = build_alpha_matrix(g, 0.25)
    assert am.n == 6
    assert am.alpha == 0.25
    assert am.degrees.tolist() == [5, 1, 1, 1, 1, 1]
    assert am.max_degree == 5
    assert build_alpha_matrix(Graph(0, ()), 0.5).max_degree == 0


def test_alpha_stack_layers_are_the_single_matrices():
    """Each layer is (1 - alpha)*A with alpha*deg on the diagonal, bit for
    bit, and equals build_alpha_matrix."""
    g = gen_random(9, 0.5, 2)
    alphas = DYADIC_ALPHAS + GENERIC_ALPHAS + (0.5,)
    stack = alpha_stack(g, alphas)
    assert stack.shape == (len(alphas), 9, 9) and stack.dtype == np.float64
    for a, m in zip(alphas, stack):
        ref = (1.0 - a) * g.adjacency_matrix()
        np.fill_diagonal(ref, a * np.asarray(g.degrees, dtype=float))
        assert m.tobytes() == ref.tobytes()
        assert m.tobytes() == build_alpha_matrix(g, a).matrix.tobytes()
    assert alpha_stack(g, []).shape == (0, 9, 9)
    assert alpha_stack(Graph(3, ()), [0.5]).tobytes() == \
        np.diag([0.0, 0.0, 0.0]).tobytes()
    with pytest.raises(InputError):
        alpha_stack(g, [0.5, 1.5])


def test_stack_of_many_graphs_slices_anywhere():
    """The stack of several graphs of one n, each at every alpha in turn:
    each layer equals its graph's matrix at its alpha, bit for bit, and a
    slice may begin and end inside a graph's alphas."""
    graphs = [gen_random(7, p, s) for p in (0.3, 0.8) for s in range(2)]
    graphs.insert(2, Graph(7, ()))
    alphas = DYADIC_ALPHAS + GENERIC_ALPHAS
    k = len(alphas)
    full = _assemble(graphs, alphas)
    assert full.shape == (len(graphs) * k, 7, 7)
    for i, m in enumerate(full):
        assert m.tobytes() == build_alpha_matrix(
            graphs[i // k], alphas[i % k]).matrix.tobytes(), i
    for start, stop in ((0, 3), (4, 13), (k - 1, 3 * k + 2),
                        (k + 2, 3 * k + 1), (len(full) - 1, len(full))):
        assert _assemble(graphs, alphas, start, stop).tobytes() == \
            full[start:stop].tobytes()
    assert _assemble(graphs, ()).shape == (0, 7, 7)
