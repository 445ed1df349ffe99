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
from matchcover import generate
from matchcover.graph import _parse_canonical, _parse_lines

from conftest import cycle_graph, path_graph
from reference import neighbor_set


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


def test_random_graph_without_connected_sample(monkeypatch):
    """A G(n, p) that never samples connected gives up with ValueError after
    MAX_ATTEMPTS samples."""
    with pytest.raises(ValueError, match=r"in 10000 attempts \(n=3, p=0.0\)"):
        random_connected_graph(3, p=0.0, seed=1)
    monkeypatch.setattr(generate, "MAX_ATTEMPTS", 5)
    with pytest.raises(ValueError, match="no connected sample in 5 attempts"):
        random_connected_graph(3, p=0.0, seed=1)


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


def _lines_graph(text):
    """The graph built from the line reader's edge ends."""
    return Graph._from_ends(*_parse_lines(text))


def _outcome(parse, text):
    """The parsed graph, or the error's (message, line) pair."""
    try:
        return parse(text)
    except GraphFormatError as exc:
        return str(exc), exc.line


def _canonical_texts(rng):
    """serialize_graph texts, and benchmark-style texts with the edge lines
    relabelled, shuffled and half of them reversed."""
    yield "p 3 0"
    for seed in range(60):
        n = rng.randrange(2, 50)
        m = rng.randrange(n - 1, min(3 * n, n * (n - 1) // 2) + 1)
        g = random_connected_graph(n, m=m, seed=seed)
        yield serialize_graph(g)
        label = list(range(1, n + 1))
        rng.shuffle(label)
        lines = [
            f"e {label[u]} {label[v]}" if rng.random() < 0.5 else f"e {label[v]} {label[u]}"
            for u, v in g.edges
        ]
        rng.shuffle(lines)
        yield "\n".join([f"p {n} {m}", *lines])


def _mutations(text, rng):
    """Near-canonical variants: each breaks one check of the bulk reader,
    or leaves the canonical layout for one the line reader also accepts."""
    header, *lines = text.split("\n")
    _, n, m = header.split()
    n, m = int(n), int(m)
    yield text + "\n"
    yield text + "\n\n"
    yield text.replace("\n", "\r\n")
    yield text + "\r\n"
    yield "c comment\n" + text
    yield f"p {n} {m - 1}\n" + "\n".join(lines)
    yield f"p {n} {m + 1}\n" + "\n".join(lines)
    yield "\n".join(["p 0 0", *lines])
    yield "\n".join([f"p 0{n} {m}", *lines])
    yield "\n".join([header, header, *lines])
    if not lines:
        return
    i = rng.randrange(len(lines))
    _, u, v = lines[i].split()

    def with_line(new):
        return "\n".join([header, *lines[:i], new, *lines[i + 1 :]])

    yield with_line(f"e 0 {v}")
    yield with_line(f"e {u} {n + 1}")
    yield with_line(f"e {u} {u}")
    yield "\n".join([f"p {n} {m + 1}", *lines[: i + 1], lines[i], *lines[i + 1 :]])
    yield "\n".join([header, *lines, lines[i]])
    if len(lines) > 1:  # the same edge reversed, in place of another line
        j = (i + 1) % len(lines)
        yield "\n".join([header, *lines[:j], f"e {v} {u}", *lines[j + 1 :]])
    yield with_line(f"e 0{u} 00{v}")
    yield with_line(f"e {u[0]}_{u[1:]} {v}" if len(u) > 1 else f"e 0_{u} {v}")
    yield with_line(f"e +{u} {v}")
    yield with_line(f"e {u} {v} 1")
    yield with_line(f"e {u}")
    yield with_line(f"e  {u} {v}")
    yield with_line(f"e {u} {v} ")
    yield with_line(f"e\t{u} {v}")
    yield with_line(f"e {u} {v[:-1]}{chr(0x660 + int(v[-1]))}")
    yield with_line("e 1 " + "9" * 5000)
    yield with_line(f"p {n} {m}")
    yield with_line(f"x {u} {v}")


def test_bulk_parse_agrees_with_line_reader():
    """parse_graph equals the line-by-line reader on canonical texts and on
    mutations of them: the same graph, or the same message and line."""
    rng = random.Random(5)
    accepted = 0
    errors = []
    for text in _canonical_texts(rng):
        # canonical text with n <= 2m is read in bulk, not handed to the line
        # reader; the edgeless "p 3 0" is not
        parsed = _parse_canonical(text)
        if text == "p 3 0":
            assert parsed is None
        else:
            assert parsed == _lines_graph(text)
        for variant in _mutations(text, rng):
            got = _outcome(parse_graph, variant)
            assert got == _outcome(_lines_graph, variant), variant
            if isinstance(got, Graph):
                accepted += 1
            else:
                errors.append(got[0])
    # variants are accepted too, and every kind of error is reached
    assert accepted > 0
    joined = "\n".join(errors)
    for kind in (
        "endpoint out of range",
        "self-loop",
        "duplicate edge",
        "declares",
        "header values out of range",
        "edge must be",
        "duplicate header",
        "unknown line type",
    ):
        assert kind in joined


def test_bulk_reader_passes_leading_zeros_and_long_digits_on():
    """json reads no leading zero and, like int, no digit string beyond
    int's length limit: the bulk reader returns None on both without
    raising, and the line reader gives the graph or names the line."""
    long_digits = "p 3 1\ne 1 " + "9" * 5000
    for text in ("p 3 2\ne 01 2\ne 2 3", "p 3 2\ne 1 2\ne 2 003\n", long_digits):
        assert _parse_canonical(text) is None
        assert _outcome(parse_graph, text) == _outcome(_lines_graph, text)
    assert parse_graph("p 3 2\ne 01 2\ne 2 3") == path_graph(3)


def test_layout_check_keeps_e_and_newline_at_line_starts():
    """The bulk reader deletes every `e` and `\\n` and reads each space as a
    comma, which is safe only because its layout check puts them at the
    start of edge lines.  A stray `e`, an `e` that opens no line, a blank
    line and two final newlines are each declined and sent on to the line
    reader; one final newline is read in bulk."""
    for text in ("p 3 1\ne 1e1 2", "p 3 2\ne 1 2e 2 3", "p 3 2\ne 1 2\n\ne 2 3",
                 "p 3 2\ne 1 2\ne 2 3\n\n"):
        assert _parse_canonical(text) is None, text
        assert _outcome(parse_graph, text) == _outcome(_lines_graph, text)
    assert _parse_canonical("p 3 2\ne 1 2\ne 2 3\n") == path_graph(3)


def test_edgeless_header_is_read_line_by_line():
    """An edgeless header has n > 2m: the bulk reader declines it, and the
    line reader gives n and no edge ends."""
    for text in ("p 3 0", "p 3 0\n"):
        assert _parse_canonical(text) is None
        assert _parse_lines(text) == (3, [])
        assert parse_graph(text) == Graph.from_edges(3, [])


def test_graph_is_its_two_fields():
    """Parsed (bulk and CRLF), from_edges and directly built graphs hold n
    and adjacency and nothing else, are equal with equal hashes, and derive
    edges and m equal to the random edge set they were built from."""
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randrange(2, 30)
        m = rng.randrange((n + 1) // 2, min(2 * n, n * (n - 1) // 2) + 1)
        pairs = sorted(rng.sample([(u, v) for u in range(n) for v in range(u + 1, n)], m))
        adjacency = tuple(
            tuple(sorted([v for u, v in pairs if u == w] + [u for u, v in pairs if v == w]))
            for w in range(n)
        )
        text = "\n".join([f"p {n} {m}", *(f"e {u + 1} {v + 1}" for u, v in pairs)])
        assert _parse_canonical(text) is not None
        g0 = Graph(n, adjacency)
        for g in (
            parse_graph(text),
            parse_graph(text.replace("\n", "\r\n")),
            Graph.from_edges(n, [(v, u) for u, v in reversed(pairs)]),
            g0,
        ):
            assert set(vars(g)) == {"n", "adjacency"}
            assert g == g0 and hash(g) == hash(g0)
            assert g.edges == tuple(pairs) and g.m == m


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


def test_bulk_rejections_name_the_line_reader_line():
    """Canonical-layout texts with an endpoint 0, an endpoint n + 1 (or far
    beyond n, up to no index-sized integer), a self-loop, or a reversed
    duplicate far from its twin: the bulk reader declines each, and
    parse_graph gives the line reader's message and line."""
    g = random_connected_graph(40, m=80, seed=3)
    header, *lines = serialize_graph(g).split("\n")
    _, u, v = lines[10].split()
    first_u, first_v = lines[0].split()[1:]

    def with_line(i, new):
        return "\n".join([header, *lines[:i], new, *lines[i + 1 :]])

    for text, message, line in [
        (with_line(10, f"e 0 {v}"), f"edge endpoint out of range: 0 {v}", 12),
        (with_line(10, f"e {u} 41"), f"edge endpoint out of range: {u} 41", 12),
        (with_line(10, f"e {u} 4100"), f"edge endpoint out of range: {u} 4100", 12),
        (with_line(10, f"e {'9' * 30} {v}"), f"edge endpoint out of range: {'9' * 30} {v}", 12),
        (with_line(10, f"e {u} {u}"), f"self-loop at vertex {u}", 12),
        (with_line(79, f"e {first_v} {first_u}"), f"duplicate edge {first_v} {first_u}", 81),
    ]:
        assert _parse_canonical(text) is None
        expected = (f"line {line}: {message}", line)
        assert _outcome(parse_graph, text) == _outcome(_lines_graph, text) == expected


def test_high_degree_reads_the_same_in_bulk_and_by_line():
    """K_{4,330}, each center of degree 330, in serialize order and with
    its edge lines shuffled and half reversed."""
    k, big = 4, 330
    pairs = [(a, b) for a in range(k) for b in range(k, k + big)]
    rng = random.Random(4)
    shuffled = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in pairs]
    rng.shuffle(shuffled)
    for order in (pairs, shuffled):
        text = "\n".join([f"p {k + big} {len(pairs)}", *(f"e {a + 1} {b + 1}" for a, b in order)])
        g = _parse_canonical(text)
        assert g is not None and g == _lines_graph(text)
        assert g.adjacency[0] == tuple(range(k, k + big))
        assert g.adjacency[k] == tuple(range(k))


def test_edges_and_adjacency_are_ascending():
    """On random graphs, parsed from shuffled text or built from edges:
    edges ascend, there are m of them, and every adjacency entry is an
    ascending tuple."""
    rng = random.Random(13)
    for seed in range(30):
        n = rng.randrange(2, 80)
        m = rng.randrange(n - 1, min(3 * n, n * (n - 1) // 2) + 1)
        g0 = random_connected_graph(n, m=m, seed=seed)
        header, *lines = serialize_graph(g0).split("\n")
        rng.shuffle(lines)
        for g in (parse_graph("\n".join([header, *lines])), Graph.from_edges(n, g0.edges[::-1])):
            assert list(g.edges) == sorted(g.edges) and len(g.edges) == g.m == m
            assert all(u < v for u, v in g.edges)
            for nbrs in g.adjacency:
                assert type(nbrs) is tuple and list(nbrs) == sorted(nbrs)


def test_one_int_object_per_vertex():
    """The bulk reader, the line reader and from_edges put one shared int
    object per vertex in the adjacency lists: as many distinct objects as
    distinct vertex values, on graphs past the small ints Python caches."""
    rng = random.Random(17)
    for seed in range(5):
        n = rng.randrange(300, 600)
        g0 = random_connected_graph(n, m=3 * n, seed=seed)
        text = serialize_graph(g0)
        bulk = _parse_canonical(text)
        for g in (bulk, _lines_graph(text), Graph.from_edges(n, g0.edges)):
            assert g == g0
            entries = [v for nbrs in g.adjacency for v in nbrs]
            assert len({id(v) for v in entries}) == len(set(entries)) == n


def test_builder_rejects_what_falls_outside_1_to_n():
    """_from_ends takes 1-indexed ends.  It gives None for an endpoint 0
    (its entry goes with spare slot 0, the partner's entry keeps the value
    -1), the edge (0, n + 1) (both entries go with the spare slots), an
    endpoint n + 1, an endpoint n + 2 (IndexError), a self-loop and a
    reversed duplicate edge; on the edges as given it equals from_edges."""
    rng = random.Random(19)
    for seed in range(30):
        n = rng.randrange(3, 40)
        m = rng.randrange(n - 1, min(2 * n, n * (n - 1) // 2 + 1))
        g = random_connected_graph(n, m=m, seed=seed)
        edges = list(g.edges)
        rng.shuffle(edges)
        ends = [x + 1 for e in edges for x in e]
        assert Graph._from_ends(n, ends) == Graph.from_edges(n, edges) == g
        i = 2 * rng.randrange(len(edges))
        u, v = ends[i : i + 2]
        for bad in ((0, v), (u, 0), (0, n + 1), (n + 1, 0), (u, n + 1), (n + 2, v),
                    (u, n + 2), (u, u)):
            assert Graph._from_ends(n, ends[:i] + list(bad) + ends[i + 2 :]) is None, bad
        # edge u-v reversed in place of the next edge, and appended
        j = (i + 2) % len(ends)
        assert Graph._from_ends(n, ends[:j] + [v, u] + ends[j + 2 :]) is None
        assert Graph._from_ends(n, ends + [v, u]) is None
