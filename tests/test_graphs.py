"""Graph construction, graph6 and edge-list formats, generators, predicates."""

import tracemalloc

import numpy as np
import pytest

from aalpha import (GRAPH6_MAX_N, Graph, InputError, ParseError,
                    UnsupportedSizeError, add_isolated, degree_profile,
                    emit_graph6, from_edge_list, gen_circulant, gen_complete,
                    gen_cycle, gen_random, gen_star, is_connected, is_star,
                    parse_edge_list, parse_graph6)


def test_graph_canonical_edges():
    g = Graph(4, ((2, 3), (0, 1), (1, 3)))
    assert g.edges == ((0, 1), (1, 3), (2, 3))
    assert g.edge_count == 3
    assert g.degrees() == [1, 2, 1, 2]


def test_graph_rejects_bad_edges():
    with pytest.raises(InputError):
        Graph(3, ((1, 1),))
    with pytest.raises(InputError):
        Graph(3, ((0, 3),))
    with pytest.raises(InputError):
        Graph(3, ((2, 1),))  # must be ordered u < v
    with pytest.raises(InputError):
        Graph(3, ((0, 1), (0, 1)))
    with pytest.raises(InputError):
        Graph(-1, ())
    with pytest.raises(InputError):
        Graph(3, ((0.5, 1),))  # endpoints must be integers
    with pytest.raises(InputError):
        Graph(3, ((False, True),))  # a bool is not a vertex
    with pytest.raises(InputError):
        Graph(2.5, ((0, 1),))
    with pytest.raises(InputError):
        Graph(True, ())
    with pytest.raises(InputError):
        from_edge_list(3, [(2, 0.5)])


def test_from_edge_list_normalizes():
    g = from_edge_list(4, [(3, 1), (1, 3), (0, 2)])
    assert g.edges == ((0, 2), (1, 3))
    with pytest.raises(InputError):
        from_edge_list(3, [(0, 0)])
    with pytest.raises(InputError):
        from_edge_list(3, [(0, 5)])


def test_adjacency_matrix_symmetric():
    g = gen_random(9, 0.5, 7)
    a = g.adjacency_matrix()
    assert np.array_equal(a, a.T)
    assert a.sum() == 2 * g.edge_count
    assert np.all(np.diag(a) == 0)


def test_degree_profile():
    p = degree_profile(gen_star(5))
    assert p.degrees == (4, 1, 1, 1, 1)
    assert p.max_degree == 4 and p.min_degree == 1
    p = degree_profile(gen_complete(4))
    assert p.degrees == (3, 3, 3, 3)
    with pytest.raises(InputError):
        degree_profile(Graph(0, ()))


# graph6: hand-derived encodings. K2 packs the single bit 1 into 100000
# (value 32, byte 95 = '_'); the n=3 edgeless graph packs three 0 bits into
# byte 63 = '?'.
def test_graph6_known_encodings():
    assert emit_graph6(gen_complete(2)) == "A_"
    assert emit_graph6(Graph(3, ())) == "B?"
    assert emit_graph6(Graph(1, ())) == "@"
    assert emit_graph6(Graph(0, ())) == "?"
    assert parse_graph6("A_") == gen_complete(2)
    assert parse_graph6("B?") == Graph(3, ())
    assert parse_graph6("?") == Graph(0, ())


def test_graph6_prefix_and_whitespace():
    assert parse_graph6(">>graph6<<A_\n") == gen_complete(2)


def test_graph6_round_trip_random():
    for seed in range(40):
        n = seed % (GRAPH6_MAX_N + 1)
        g = gen_random(n, 0.35, seed)
        assert parse_graph6(emit_graph6(g)) == g


def test_graph6_parse_errors_with_offsets():
    with pytest.raises(ParseError):
        parse_graph6("")
    with pytest.raises(ParseError) as ei:
        parse_graph6("~???")  # long form header
    assert ei.value.offset == 0
    with pytest.raises(ParseError) as ei:
        parse_graph6("B")  # needs one payload byte
    assert ei.value.offset == 1
    with pytest.raises(ParseError) as ei:
        parse_graph6("A_?")  # one byte too many
    assert ei.value.offset == 2
    with pytest.raises(ParseError) as ei:
        parse_graph6("B" + chr(20))  # payload byte below 63
    assert ei.value.offset == 1
    with pytest.raises(ParseError) as ei:
        parse_graph6("=A_")  # header byte 61 below the graph6 range
    assert ei.value.offset == 0


def test_graph6_emit_size_cap():
    with pytest.raises(UnsupportedSizeError):
        emit_graph6(Graph(63, ()))
    assert parse_graph6(emit_graph6(Graph(62, ((0, 61),)))) == Graph(62, ((0, 61),))


def test_parse_edge_list():
    text = "# triangle plus pendant\n4 4\n0 1\n1 2\n0 2  # closes the triangle\n2 3\n"
    g = parse_edge_list(text)
    assert g == from_edge_list(4, [(0, 1), (1, 2), (0, 2), (2, 3)])


@pytest.mark.parametrize("bad", [
    "",
    "3\n",
    "a b\n",
    "-1 0\n",
    "3 2\n0 1\n",          # promises 2 edges, gives 1
    "3 1\n0 1 2\n",        # edge line with 3 tokens
    "3 1\nx y\n",
])
def test_parse_edge_list_errors(bad):
    with pytest.raises(ParseError):
        parse_edge_list(bad)


def test_generators_basic_shapes():
    s = gen_star(6)
    assert s.edge_count == 5 and max(s.degrees()) == 5
    k = gen_complete(5)
    assert k.edge_count == 10 and set(k.degrees()) == {4}
    c = gen_cycle(7)
    assert c.edge_count == 7 and set(c.degrees()) == {2}
    with pytest.raises(InputError):
        gen_star(1)
    with pytest.raises(InputError):
        gen_complete(0)
    with pytest.raises(InputError):
        gen_cycle(2)


def test_circulant():
    assert gen_circulant(6, [1]) == gen_cycle(6)
    assert gen_circulant(4, [1, 2]) == gen_complete(4)
    # offset list may repeat; duplicates collapse
    assert gen_circulant(5, [2, 2]) == gen_circulant(5, [2])
    with pytest.raises(InputError):
        gen_circulant(5, [])
    with pytest.raises(InputError):
        gen_circulant(5, [3])  # 2*3 > 5
    with pytest.raises(InputError):
        gen_circulant(5, [0])


def test_gen_random_deterministic():
    a = gen_random(10, 0.5, 123)
    b = gen_random(10, 0.5, 123)
    assert a == b
    assert gen_random(10, 0.5, 124) != a
    assert gen_random(8, 0.0, 1).edge_count == 0
    assert gen_random(8, 1.0, 1) == gen_complete(8)


def test_gen_random_matches_pair_order():
    """One variate per unordered pair in lexicographic order, exactly as a
    per-pair loop draws them: the seeded-identity promise."""
    for n, p, seed in [(7, 0.4, 9), (0, 0.5, 1), (1, 0.5, 1), (10, 0.5, 3),
                       (13, 0.8, 0), (300, 0.1, 7), (60, 0.0, 2),
                       (25, 1.0, 4)]:
        rng = np.random.default_rng(seed)
        expect = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p:
                    expect.append((i, j))
        assert gen_random(n, p, seed).edges == tuple(expect)
    with pytest.raises(InputError):
        gen_random(5, 1.5, 0)
    with pytest.raises(InputError):
        gen_random(-2, 0.5, 0)


def test_gen_random_chunked_draw_memory_and_edges():
    """G(2000, .01) spans 31 variate chunks: its peak traced memory stays
    far below the 2e6 pair variates a single draw would hold (16 MB), and
    its edges equal that single draw's."""
    tracemalloc.start()
    try:
        g = gen_random(2000, 0.01, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6, f"peak {peak / 1e6:.1f} MB"
    iu, ju = np.triu_indices(2000, 1)
    keep = np.random.default_rng(1).random(iu.size) < 0.01
    assert g.edges == tuple(zip(iu[keep].tolist(), ju[keep].tolist()))


def test_add_isolated():
    g = add_isolated(gen_star(4), 2)
    assert g.n == 6 and g.edges == gen_star(4).edges
    assert add_isolated(g, 0) == g
    with pytest.raises(InputError):
        add_isolated(g, -1)


def test_is_connected():
    assert is_connected(gen_cycle(5))
    assert is_connected(Graph(1, ()))
    assert not is_connected(Graph(2, ()))
    assert not is_connected(add_isolated(gen_complete(3), 1))
    with pytest.raises(InputError):
        is_connected(Graph(0, ()))


def test_is_star():
    assert is_star(gen_star(2))  # K2 is K_{1,1}
    assert is_star(gen_star(9))
    assert not is_star(gen_cycle(4))
    assert not is_star(gen_complete(4))
    assert not is_star(from_edge_list(4, [(0, 1), (1, 2), (2, 3)]))  # path
    assert not is_star(add_isolated(gen_star(4), 1))
    # triangle + isolated vertex has m = n - 1 but Delta too small
    assert not is_star(add_isolated(gen_complete(3), 1))
    assert not is_star(Graph(1, ()))
    assert not is_star(Graph(0, ()))
