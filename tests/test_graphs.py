"""Graph construction, graph6 and edge-list formats, generators, predicates."""

import copy
import pickle
import tracemalloc

import numpy as np
import pytest

import aalpha.graphs as graphs_mod
from aalpha import (GRAPH6_MAX_N, Graph, InputError, ParseError,
                    UnsupportedSizeError, VerificationRecord, add_isolated,
                    degree_profile, emit_graph6, from_edge_list, gen_circulant,
                    gen_complete, gen_cycle, gen_random, gen_star,
                    is_connected, is_star, parse_edge_list, parse_graph6,
                    verify_graph)


def test_graph_canonical_edges():
    g = Graph(4, ((2, 3), (0, 1), (1, 3)))
    assert g.edges.tolist() == [[0, 1], [1, 3], [2, 3]]
    assert g.edge_count == 3
    assert g.degrees.tolist() == [1, 2, 1, 2]


def test_graph_arrays_are_read_only():
    g = gen_random(9, 0.5, 2)
    assert g.edges.dtype == np.int64 and g.edges.shape == (g.edge_count, 2)
    for h in (g, copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert h == g
        with pytest.raises(ValueError):
            h.edges[0, 0] = 5
        with pytest.raises(ValueError):
            h.degrees[0] = 5


def test_graph_equal_whatever_the_edge_container():
    pairs = [(2, 3), (0, 1), (1, 3)]
    graphs = [Graph(4, pairs), Graph(4, tuple(pairs)),
              Graph(4, np.array(pairs, dtype=np.int32)),
              Graph(4, (p for p in pairs))]
    for g in graphs:
        assert g == graphs[0] and hash(g) == hash(graphs[0])
    assert Graph(4, pairs) != Graph(5, pairs)
    assert Graph(4, pairs) != Graph(4, pairs[:2])


def test_graph_values_are_python_types():
    """Counts, degrees and every verification field have their declared
    Python type, never a numpy scalar."""
    g = Graph(np.int64(5), np.array([(0, 1), (1, 2), (3, 4)], np.int32))
    assert type(g.n) is int and type(g.edge_count) is int
    p = degree_profile(g)
    assert type(p.degrees) is tuple
    assert {type(d) for d in p.degrees} == {int}
    assert type(p.max_degree) is int and type(p.min_degree) is int
    records = []
    for h in (g, gen_star(np.int64(6)), add_isolated(gen_cycle(5), 1)):
        records += verify_graph(h, [0.0, 0.5, 1.0])
    for r in records:
        for name, kind in VerificationRecord.__annotations__.items():
            assert type(getattr(r, name)) is kind, name


def test_graph_rejects_bad_edges():
    with pytest.raises(InputError):
        Graph(3, ((1, 1),))
    with pytest.raises(InputError):
        Graph(3, ((0, 3),))
    with pytest.raises(InputError):
        Graph(3, ((2, 1),))  # must be ordered u < v
    with pytest.raises(InputError):
        Graph(3, ((0, 1), (0, 1)))
    with pytest.raises(InputError, match="edges must be \\(u, v\\) pairs"):
        Graph(5, [(0, 1, 2)])
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


def test_graph_names_an_unsigned_endpoint_beyond_int64():
    """A uint64 endpoint above 2**63 - 1 is named as it is, not as the
    negative int64 it would wrap to; a small uint64 array builds a Graph."""
    with pytest.raises(InputError, match="^edge endpoint 18446744073709551615 "
                                         "is outside int64$"):
        Graph(3, np.array([[0, 2 ** 64 - 1]], np.uint64))
    g = Graph(3, np.array([[0, 2], [1, 2]], np.uint64))
    assert g.edges.dtype == np.int64 and g.edges.tolist() == [[0, 2], [1, 2]]


def test_from_edge_list_normalizes():
    g = from_edge_list(4, [(3, 1), (1, 3), (0, 2)])
    assert g.edges.tolist() == [[0, 2], [1, 3]]
    with pytest.raises(InputError):
        from_edge_list(3, [(0, 0)])
    with pytest.raises(InputError):
        from_edge_list(3, [(0, 5)])


@pytest.mark.parametrize("bad", [("a", 1), (None, 1)])
def test_from_edge_list_incomparable_endpoint(bad):
    """An endpoint that does not compare with an int gets Graph's own
    InputError, however the other edges are ordered."""
    with pytest.raises(InputError, match="needs integer endpoints") as ei:
        from_edge_list(3, [(2, 1), bad, (0, 1)])
    assert repr(bad) in str(ei.value)
    with pytest.raises(InputError, match="needs integer endpoints"):
        from_edge_list(3, [bad[::-1]])


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
    "3 1\n0 99999999999999999999999\n",  # beyond int64
])
def test_parse_edge_list_errors(bad):
    with pytest.raises(ParseError):
        parse_edge_list(bad)


@pytest.mark.parametrize("text, where", [
    ("# pendant\n4 3\n0 1\n\n1 2  # ok\n2 x\n", "line 6: expected two integers, got '2 x'"),
    ("4 3\n0 1\n1 2 3\n2 3\n", "line 3: expected two integers, got '1 2 3'"),
    ("4 2\n0 1\n1 2_0\n", "line 3: expected two integers, got '1 2_0'"),
    ("3\n", "line 1: expected two integers, got '3'"),
])
def test_parse_edge_list_names_the_line(text, where):
    with pytest.raises(ParseError, match=where):
        parse_edge_list(text)


@pytest.mark.parametrize("text, where", [
    ("3 1\n0 99999999999999999999\n",
     "line 2: 99999999999999999999 is outside int64"),
    ("3 1\n0 -9223372036854775809\n",
     "line 2: -9223372036854775809 is outside int64"),
    ("99999999999999999999 1\n0 1\n",
     "line 1: 99999999999999999999 is outside int64"),
], ids=["edge", "edge-below", "header"])
def test_parse_edge_list_names_the_line_of_an_integer_beyond_int64(text,
                                                                   where):
    with pytest.raises(ParseError, match=f"^{where}$"):
        parse_edge_list(text)
    # 2**63 - 1 itself is read, and refused by Graph as out of range.
    with pytest.raises(InputError, match="^edge \\(0, 9223372036854775807\\) "
                                         "is not an ordered pair"):
        parse_edge_list("3 1\n0 9223372036854775807\n")


def test_generators_basic_shapes():
    s = gen_star(6)
    assert s.edge_count == 5 and max(s.degrees.tolist()) == 5
    k = gen_complete(5)
    assert k.edge_count == 10 and set(k.degrees.tolist()) == {4}
    c = gen_cycle(7)
    assert c.edge_count == 7 and set(c.degrees.tolist()) == {2}
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


@pytest.mark.parametrize("n, offsets", [
    (3, [1]), (3, [1, 1]), (4, [2]), (4, [2, 1, 2]), (5, [2, 1]),
    (8, [4]), (8, [3, 1, 4, 3]), (8, [1, 2, 3, 4]), (400, [1]),
    (400, [200, 7, 199, 7, 1]),
])
def test_circulant_builds_the_sorted_edge_array(n, offsets, monkeypatch):
    """gen_circulant hands Graph its pairs u < v in lexicographic order, so
    Graph sorts nothing, and they are the pairs from_edge_list makes of
    every i ~ (i + o) mod n, where an offset n/2 gives each pair twice."""
    def ordered_graph(n, edges):
        u, v = edges.T
        assert np.all(u < v)
        assert np.all((u[1:] > u[:-1]) | ((u[1:] == u[:-1]) & (v[1:] > v[:-1])))
        return Graph(n, edges)

    pairs = [(i, (i + o) % n) for o in offsets for i in range(n)]
    want = from_edge_list(n, pairs)
    monkeypatch.setattr(graphs_mod, "Graph", ordered_graph)
    got = gen_circulant(n, offsets)
    monkeypatch.undo()
    assert got == want


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
        assert gen_random(n, p, seed).edges.tolist() == list(map(list, expect))
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
    assert np.array_equal(g.edges, np.stack((iu[keep], ju[keep]), axis=1))


def test_add_isolated():
    g = add_isolated(gen_star(4), 2)
    assert g.n == 6 and np.array_equal(g.edges, gen_star(4).edges)
    assert add_isolated(g, 0) == g
    with pytest.raises(InputError):
        add_isolated(g, -1)



@pytest.mark.parametrize("n", [2 ** 62, 2 ** 50, 2 ** 63],
                         ids=["too-big", "no-memory", "beyond-int64"])
def test_vertex_count_that_cannot_be_held(n):
    """A vertex count whose arrays numpy cannot allocate (too big to size,
    8 PiB, or past int64) is refused naming n, at once and without touching
    memory: by Graph, by the edge-list parser, by add_isolated and by each
    generator."""
    g = gen_star(3)
    makers = [lambda: Graph(n, ()), lambda: add_isolated(g, n - g.n),
              lambda: gen_star(n), lambda: gen_complete(n),
              lambda: gen_cycle(n), lambda: gen_random(n, 0.5, 0)]
    if n < 2 ** 63:
        makers.append(lambda: parse_edge_list(f"{n} 0\n"))
    for make in makers:
        with pytest.raises(InputError,
                           match=f"^cannot hold a graph on n = {n} vertices: "):
            make()


def _traced_peak(make):
    """make() and the peak of memory traced while it ran, in bytes."""
    tracemalloc.start()
    try:
        return make(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cycle_and_add_isolated_memory_peaks():
    """gen_cycle(10**6) peaks at 57.0 MB, its 16 MB edge array and Graph's
    check of it: the degrees are counted while the edges are writeable, as
    np.bincount copies a read-only array (73.0 MB). add_isolated shares the
    edges and pads the degrees, about 8 MB."""
    g, peak = _traced_peak(lambda: gen_cycle(10 ** 6))
    assert peak < 57.05e6, f"peak {peak / 1e6:.1f} MB"
    h, peak = _traced_peak(lambda: add_isolated(g, 1))
    assert peak < 8.5e6, f"peak {peak / 1e6:.1f} MB"
    assert h.edges is g.edges and h.degrees.tolist() == [2] * 10 ** 6 + [0]


def test_add_isolated_pads_the_valid_graph(monkeypatch):
    """add_isolated(g, k) is Graph(g.n + k, g.edges) with the same hash and
    read-only arrays, built without running the edge validator again."""
    graphs = [gen_random(n, p, seed) for n in (2, 7, 13) for p in (0.3, 0.8)
              for seed in (0, 1)] + [Graph(0, ()), Graph(4, ()), gen_star(5)]
    expected = {(g, k): Graph(g.n + k, g.edges) for g in graphs
                for k in (0, 1, 3)}

    def validate(self):
        raise AssertionError("add_isolated validated its edges again")

    monkeypatch.setattr(Graph, "__post_init__", validate)
    for (g, k), want in expected.items():
        got = add_isolated(g, k)
        assert got == want and hash(got) == hash(want)
        assert got.n == want.n and np.array_equal(got.edges, want.edges)
        assert got.degrees.dtype == want.degrees.dtype
        assert np.array_equal(got.degrees, want.degrees)
        assert not got.edges.flags.writeable
        assert not got.degrees.flags.writeable


def test_is_connected():
    assert is_connected(gen_cycle(5))
    assert is_connected(Graph(1, ()))
    assert not is_connected(Graph(2, ()))
    assert not is_connected(add_isolated(gen_complete(3), 1))
    with pytest.raises(InputError):
        is_connected(Graph(0, ()))


def test_is_connected_matches_a_search():
    """The hooking rounds agree with a plain search, also on long paths with
    shuffled labels, which take the most rounds."""
    rng = np.random.default_rng(5)
    graphs = [gen_random(s % 15 + 1, (s % 7) / 8, s) for s in range(120)]
    for n in (9, 64, 301):
        perm = rng.permutation(n).tolist()
        path = list(zip(perm, perm[1:]))
        graphs += [from_edge_list(n, path),  # and the path cut in two
                   from_edge_list(n, path[:n // 2] + path[n // 2 + 1:])]
    for g in graphs:
        nbrs = [set() for _ in range(g.n)]
        for u, v in g.edges.tolist():
            nbrs[u].add(v)
            nbrs[v].add(u)
        seen, todo = {0}, [0]
        while todo:
            new = nbrs[todo.pop()] - seen
            seen |= new
            todo += new
        assert is_connected(g) is (len(seen) == g.n)


def test_emit_graph6_matches_the_bit_loop():
    for seed in range(60):
        g = gen_random(seed % 25, 0.4, seed)
        adj = set(map(tuple, g.edges.tolist()))
        bits = [int((i, j) in adj) for j in range(1, g.n) for i in range(j)]
        bits += [0] * (-len(bits) % 6)
        body = [int("".join(map(str, bits[k:k + 6])), 2)
                for k in range(0, len(bits), 6)]
        assert emit_graph6(g) == "".join(chr(63 + c) for c in [g.n] + body)


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
