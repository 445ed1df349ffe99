"""Automatic garbage collection paused inside the graph readers and solve.

``parse_graph`` (either reader and the builder ``Graph._from_ends``),
``Graph.from_edges`` and ``solve`` run with the cyclic collector paused and
run the one young-generation collection their allocations made due before
returning; these tests pin that down, and the premise that makes it safe:
none of them leaves cyclic garbage behind.
"""

import gc

import pytest

import matchcover.cover
from matchcover import (
    Graph,
    GraphFormatError,
    InternalInvariantError,
    NoCoverError,
    parse_graph,
    random_connected_graph,
    serialize_graph,
    solve,
    verify_cover,
)

from conftest import complete_bipartite_graph, greedyhard, path_graph, petersen_graph, star_graph

# the traced walk of the CLI smoke check: its seed leaves one switching path
WALK = Graph.from_edges(6, [(0, 2), (1, 2), (0, 3), (0, 4), (1, 5)])
# canonical layout with a repeated edge: the bulk reader's builder rejects
# it, then the line reader names the line
DUPLICATE_TEXT = "p 3 2\ne 1 2\ne 2 1"


@pytest.fixture
def collector():
    """Automatic collection on; its state and thresholds restored afterwards."""
    enabled, threshold = gc.isenabled(), gc.get_threshold()
    gc.enable()
    yield
    gc.set_threshold(*threshold)
    (gc.enable if enabled else gc.disable)()


def collections_during(call, *args):
    """The generation of each collection that ran inside call(*args)."""
    generations = []

    def record(phase, info):
        if phase == "start":
            generations.append(info["generation"])

    gc.callbacks.append(record)
    try:
        call(*args)
    finally:
        gc.callbacks.remove(record)
    return generations


def raises(kind, call, *args):
    """True iff call(*args) raises ``kind``.  The exception is not kept, so
    no traceback frame stays alive once the handler ends."""
    try:
        call(*args)
    except kind:
        return True
    return False


GRAPHS = {
    **{f"random3000_seed{s}": lambda s=s: random_connected_graph(3000, m=3030, seed=s)
       for s in (0, 1, 2)},
    "greedyhard10": lambda: greedyhard(10),
}


@pytest.mark.parametrize("name", GRAPHS)
def test_no_collection_inside_and_no_debt_left(collector, name):
    g = GRAPHS[name]()
    text = serialize_graph(g)
    crlf = text.replace("\n", "\r\n")  # read line by line
    for call, *args in (
        (parse_graph, text),
        (parse_graph, crlf),
        (Graph.from_edges, g.n, g.edges),
        (solve, g),
    ):
        gc.collect()  # every generation's count back to 0
        generations = collections_during(call, *args)
        assert generations in ([], [0]), call.__name__
        assert gc.get_count()[0] <= gc.get_threshold()[0], call.__name__


def test_collector_resumed_on_every_exit(collector, monkeypatch):
    assert solve(path_graph(4)).cover.k == 1
    assert gc.isenabled()
    assert parse_graph(serialize_graph(WALK)) == WALK
    assert gc.isenabled()
    assert raises(GraphFormatError, parse_graph, DUPLICATE_TEXT)
    assert gc.isenabled()
    assert raises(GraphFormatError, parse_graph, "p 2 1\nx 1 2")
    assert gc.isenabled()
    assert raises(NoCoverError, solve, Graph.from_edges(3, [(0, 1)]))
    assert gc.isenabled()
    monkeypatch.setattr(matchcover.cover, "verify_cover", lambda g, mc: False)
    assert raises(InternalInvariantError, solve, path_graph(4))
    assert gc.isenabled()


def test_collector_left_off_when_off(collector):
    g = random_connected_graph(3000, m=3030, seed=0)
    text = serialize_graph(g)
    gc.disable()
    for call, arg in ((parse_graph, text), (solve, g)):
        generations = collections_during(call, arg)
        assert generations == [], call.__name__
        assert not gc.isenabled()


def test_zero_threshold_runs_no_collection(collector):
    g = random_connected_graph(3000, m=3030, seed=0)
    text = serialize_graph(g)
    gc.set_threshold(0)
    for call, arg in ((parse_graph, text), (solve, g)):
        generations = collections_during(call, arg)
        assert generations == [], call.__name__
        assert gc.isenabled()


def test_reentrant_trace_hook_sees_collector_paused(collector):
    seen = []

    def hook(path, delta):
        seen.append((gc.isenabled(), solve(star_graph(3)).cover.k, gc.isenabled()))

    res = solve(WALK, trace=hook)
    assert res.transforms >= 1
    assert seen == [(False, 3, False)] * res.transforms
    assert gc.isenabled()


def test_solver_makes_no_cyclic_garbage(monkeypatch):
    bulk = serialize_graph(random_connected_graph(300, m=900, seed=1))
    line_by_line = [
        "c a comment line\n" + bulk,
        bulk.replace("\n", "\r\n"),
        serialize_graph(random_connected_graph(200, m=205, seed=2)).replace("\ne ", "\ne 0"),
    ]
    builders = [
        lambda: complete_bipartite_graph(3, 10),
        petersen_graph,
        lambda: greedyhard(6),
        # disconnected: a triangle and a K2
        lambda: Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (3, 4)]),
    ]
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for text in [bulk, *line_by_line]:
            g = parse_graph(text)
            assert verify_cover(g, solve(g).cover)
        for build in builders:
            g = build()
            assert verify_cover(g, solve(g, trace=lambda path, delta: None).cover)
        assert raises(GraphFormatError, parse_graph, DUPLICATE_TEXT)
        assert raises(GraphFormatError, parse_graph, "p 2 1\nx 1 2")
        assert raises(ValueError, Graph.from_edges, 2, [(0, 0)])
        assert raises(NoCoverError, solve, Graph.from_edges(3, [(0, 1)]))
        assert raises(NoCoverError, solve, Graph(0, ()))
        monkeypatch.setattr(matchcover.cover, "verify_cover", lambda g, mc: False)
        assert raises(InternalInvariantError, solve, path_graph(4))
        found = gc.collect()
    finally:
        if enabled:
            gc.enable()
    assert found == 0
