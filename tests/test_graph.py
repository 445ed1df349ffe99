import random

import pytest

from matchcover import (
    Graph,
    GraphFormatError,
    components,
    induced_subgraph,
    parse_graph,
    random_connected_graph,
    serialize_graph,
)
from matchcover.graph import neighbor_set

from conftest import cycle_graph, path_graph


def test_parse_k2():
    g = parse_graph("p 2 1\ne 1 2")
    assert g.n == 2
    assert g.edges == ((0, 1),)


def test_parse_triangle():
    g = parse_graph("p 3 3\ne 1 2\ne 2 3\ne 1 3")
    assert g.n == 3
    assert g.edges == ((0, 1), (0, 2), (1, 2))


def test_parse_duplicate_edge_reports_line():
    with pytest.raises(GraphFormatError) as exc:
        parse_graph("c comment\np 3 2\ne 2 3\ne 2 3")
    assert "line 4" in str(exc.value)
    assert "duplicate edge" in str(exc.value)


def test_parse_self_loop_rejected():
    with pytest.raises(GraphFormatError, match="self-loop"):
        parse_graph("p 2 1\ne 1 1")


def test_parse_endpoint_out_of_range():
    with pytest.raises(GraphFormatError, match="out of range"):
        parse_graph("p 2 1\ne 1 3")


def test_parse_missing_header():
    with pytest.raises(GraphFormatError, match="header"):
        parse_graph("e 1 2")


def test_parse_edge_count_mismatch():
    with pytest.raises(GraphFormatError, match="declares 2"):
        parse_graph("p 3 2\ne 1 2")


def test_parse_accepts_comments_blanks_and_crlf():
    g = parse_graph("c hi\r\n\r\np 2 1\r\ne 1 2\r\n")
    assert g.edges == ((0, 1),)


def test_serialize_k2():
    assert serialize_graph(Graph.from_edges(2, [(0, 1)])) == "p 2 1\ne 1 2"


def test_serialize_single_vertex():
    assert serialize_graph(Graph.from_edges(1, [])) == "p 1 0"


def test_serialize_c3_sorted():
    text = serialize_graph(cycle_graph(3))
    assert text == "p 3 3\ne 1 2\ne 1 3\ne 2 3"


def test_parse_serialize_roundtrip():
    for seed in range(20):
        g = random_connected_graph(7, p=0.4, seed=seed)
        assert parse_graph(serialize_graph(g)) == g


def test_induced_subgraph_edge_survives():
    sub, old_ids = induced_subgraph(cycle_graph(3), {0, 1})
    assert sub.edges == ((0, 1),)
    assert old_ids == (0, 1)


def test_induced_subgraph_empty():
    sub, old_ids = induced_subgraph(cycle_graph(3), set())
    assert sub.n == 0 and sub.edges == ()
    assert old_ids == ()


def test_induced_subgraph_isolates_nonadjacent():
    sub, old_ids = induced_subgraph(path_graph(4), {0, 1, 3})
    assert sub.n == 3
    assert sub.edges == ((0, 1),)
    assert old_ids == (0, 1, 3)


def test_induced_subgraph_full_is_identity():
    g = cycle_graph(5)
    sub, old_ids = induced_subgraph(g, range(5))
    assert sub == g
    assert old_ids == (0, 1, 2, 3, 4)


def test_neighbor_set():
    p3 = path_graph(3)
    assert neighbor_set(p3, {0, 2}) == {1}
    assert neighbor_set(p3, {1}) == {0, 2}
    assert neighbor_set(cycle_graph(3), {0}) == {1, 2}


def test_components_connected():
    assert components(Graph.from_edges(2, [(0, 1)])) == [(0, 1)]


def test_components_two_edges():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert components(g) == [(0, 1), (2, 3)]


def test_components_edgeless():
    assert components(Graph.from_edges(3, [])) == [(0,), (1,), (2,)]


def test_components_partition_property():
    for seed in range(10):
        g = random_connected_graph(8, p=0.3, seed=seed)
        comps = components(g)
        flat = [v for comp in comps for v in comp]
        assert sorted(flat) == list(range(g.n))
        owner = {v: i for i, comp in enumerate(comps) for v in comp}
        for u, v in g.edges:
            assert owner[u] == owner[v]


def test_from_edges_rejects_bad_input():
    with pytest.raises(ValueError, match="self-loop"):
        Graph.from_edges(2, [(1, 1)])
    with pytest.raises(ValueError, match="duplicate"):
        Graph.from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError, match="out of range"):
        Graph.from_edges(2, [(0, 2)])


def test_parse_serialize_round_trip_random():
    """Parsing rebuilds the same graph whatever the edge-line order, and
    every adjacency list comes out ascending."""
    rng = random.Random(7)
    for seed in range(40):
        n = rng.randrange(2, 60)
        m = rng.randrange(n - 1, min(3 * n, n * (n - 1) // 2) + 1)
        g = random_connected_graph(n, m=m, seed=seed)
        text = serialize_graph(g)
        assert parse_graph(text) == g
        header, *lines = text.split("\n")
        rng.shuffle(lines)
        # swap the endpoints of about half of the edge lines
        lines = [
            f"e {v} {u}" if rng.random() < 0.5 else f"e {u} {v}"
            for _, u, v in (line.split() for line in lines)
        ]
        h = parse_graph("\n".join([header, *lines]))
        assert h == g
        assert all(list(nbrs) == sorted(nbrs) for nbrs in h.adjacency)


def test_induced_subgraph_matches_edge_filter():
    """Reading adjacency gives the subgraph defined by filtering every host
    edge, on random vertex subsets."""
    rng = random.Random(11)
    for seed in range(40):
        g = random_connected_graph(rng.randrange(2, 40), p=0.2, seed=seed)
        s = {v for v in range(g.n) if rng.random() < 0.5}
        sub, old_ids = induced_subgraph(g, s)
        assert old_ids == tuple(sorted(s))
        idx = {old: new for new, old in enumerate(old_ids)}
        expected = Graph.from_edges(
            len(old_ids),
            [(idx[u], idx[v]) for u, v in g.edges if u in idx and v in idx],
        )
        assert sub == expected
