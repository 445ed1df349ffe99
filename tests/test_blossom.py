import random

import pytest

from matchcover import Graph, Matching, brute_d_set, brute_nu, random_connected_graph
from matchcover.blossom import (
    maximum_matching,
    maximum_matching_covering,
    outer_vertices,
)
from matchcover import blossom, cover
from matchcover.cover import solve
from matchcover.oracle import OracleBudget, is_factor_critical

from conftest import (
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
    star_graph,
)

BUDGET = OracleBudget(max_vertices=12, max_edges=66)


def test_maximum_matching_k2():
    m = maximum_matching(Graph.from_edges(2, [(0, 1)]))
    assert len(m) == 1
    assert m.is_perfect_on(Graph.from_edges(2, [(0, 1)]))


def test_maximum_matching_c3():
    assert len(maximum_matching(cycle_graph(3))) == 1


def test_maximum_matching_petersen():
    g = petersen_graph()
    m = maximum_matching(g)
    assert len(m) == 5
    assert m.is_perfect_on(g)
    assert len(m) == brute_nu(g, BUDGET)


def test_matching_from_edges_validation():
    g = path_graph(4)
    with pytest.raises(ValueError, match="not an edge"):
        Matching.from_edges(g, [(0, 2)])
    with pytest.raises(ValueError, match="shares a vertex"):
        Matching.from_edges(g, [(0, 1), (1, 2)])


def test_augment_empty_on_k2():
    """The empty matching of K2 is not maximum; growing it adds the edge."""
    g = Graph.from_edges(2, [(0, 1)])
    with pytest.raises(ValueError, match="not maximum"):
        outer_vertices(g, Matching.empty(2))
    assert maximum_matching_covering(g, Matching.empty(2)).edges() == [(0, 1)]


def test_augment_none_when_maximum():
    """A maximum matching is accepted by the multi-source search and left
    as it is by growth."""
    g = cycle_graph(3)
    m = Matching.from_edges(g, [(0, 1)])
    assert outer_vertices(g, m) == {0, 1, 2}
    assert maximum_matching_covering(g, m) == m


def test_augment_c5():
    g = cycle_graph(5)
    m = Matching.from_edges(g, [(1, 2), (3, 4)])
    outer_vertices(g, m)  # maximum: no ValueError
    assert maximum_matching_covering(g, m) == m
    m0 = Matching.from_edges(g, [(2, 3)])
    with pytest.raises(ValueError, match="not maximum"):
        outer_vertices(g, m0)
    m2 = maximum_matching_covering(g, m0)
    assert len(m2) == 2 and m2.is_valid_on(g) and m2.covers([2, 3])


def test_augmentation_grows_coverage():
    """Growing a non-maximum matching of P6 adds edges and uncovers no vertex."""
    g = path_graph(6)
    for seed in ([], [(1, 2)], [(2, 3)], [(1, 2), (3, 4)]):
        m0 = Matching.from_edges(g, seed)
        with pytest.raises(ValueError, match="not maximum"):
            outer_vertices(g, m0)
        m = maximum_matching_covering(g, m0)
        assert len(m) == 3 > len(m0)
        assert m0.vertices() <= m.vertices()
        outer_vertices(g, m)  # maximum: no ValueError


def test_covering_p4_forced():
    g = path_graph(4)
    m = maximum_matching_covering(g, Matching.from_edges(g, [(1, 2)]))
    assert set(m.edges()) == {(0, 1), (2, 3)}


def test_covering_c3_empty_seed():
    m = maximum_matching_covering(cycle_graph(3), Matching.empty(3))
    assert len(m) == 1


def test_covering_k4_keeps_seed_vertices():
    g = complete_graph(4)
    m = maximum_matching_covering(g, Matching.from_edges(g, [(0, 2)]))
    assert m.is_perfect_on(g)
    assert m.covers([0, 2])


def test_covering_rejects_invalid_matching():
    # a matching of another graph is rejected, not grown
    g = path_graph(4)
    bad = Matching.from_edges(path_graph(5), [(0, 1)])
    with pytest.raises(ValueError, match="not valid"):
        maximum_matching_covering(g, bad)


def test_random_nu_matches_oracle():
    """At least 500 random small graphs against the subset-DP oracle."""
    count = 0
    for n in range(2, 9):
        for seed in range(80):
            g = random_connected_graph(n, p=0.5, seed=seed)
            assert len(maximum_matching(g)) == brute_nu(g, BUDGET)
            count += 1
    assert count >= 500


def test_covering_property_random():
    for seed in range(120):
        g = random_connected_graph(8, p=0.4, seed=seed)
        seed_m = maximum_matching(Graph.from_edges(g.n, g.edges[: g.m // 3]))
        m = maximum_matching_covering(g, seed_m)
        assert len(m) == brute_nu(g, BUDGET)
        assert seed_m.vertices() <= m.vertices()


def test_factor_critical_deletions():
    """For factor-critical graphs, every single-vertex deletion leaves a
    perfect matching the engine must find; odd blossoms are unavoidable."""
    for h in (cycle_graph(3), cycle_graph(5), cycle_graph(7), complete_graph(5)):
        assert is_factor_critical(h)


def test_maximum_matching_on_disconnected_and_empty():
    assert len(maximum_matching(Graph.from_edges(0, []))) == 0
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert len(maximum_matching(g)) == 2


def spider(legs):
    """A center (vertex 0) with one path of each given length hanging off it."""
    edges, n = [], 1
    for length in legs:
        prev = 0
        for _ in range(length):
            edges.append((prev, n))
            prev, n = n, n + 1
    return Graph.from_edges(n, edges)


def cycles_on_path(cycle_lengths):
    """A path with one odd cycle hanging off each of its vertices."""
    k = len(cycle_lengths)
    edges, n = [(i, i + 1) for i in range(k - 1)], k
    for i, length in enumerate(cycle_lengths):
        ring = [i] + list(range(n, n + length - 1))
        edges += [(ring[j], ring[(j + 1) % length]) for j in range(length)]
        n += length - 1
    return Graph.from_edges(n, edges)


def relabeled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def hungarian_family():
    """Graphs whose searches mostly end in failed (Hungarian) trees."""
    base = [star_graph(k) for k in (2, 3, 6, 11)]
    base += [spider(legs) for legs in ((1, 1, 1), (1, 3, 5), (3, 3, 3),
                                       (1, 1, 3, 5), (5, 5), (1, 1, 1, 1, 3))]
    base += [cycles_on_path(lens) for lens in ((3,), (3, 3), (3, 5), (5, 3),
                                               (3, 3, 3), (3, 3, 3, 3), (5, 5))]
    rng = random.Random(7)
    for g in base:
        yield g
        for _ in range(3):
            yield relabeled(g, rng)


def test_hungarian_trees_nu_matches_oracle():
    """Retired trees must not hide an augmenting path: many exposed roots
    fail on stars, odd-legged spiders and odd cycles hanging off a path."""
    for g in hungarian_family():
        nu = brute_nu(g, BUDGET)
        m = maximum_matching(g)
        assert m.is_valid_on(g) and len(m) == nu
        assert outer_vertices(g, m) == brute_d_set(g, BUDGET)
        # one-edge seeds leave most vertices exposed, so the greedy seed fires
        for e in g.edges:
            seed_m = Matching.from_edges(g, [e])
            grown = maximum_matching_covering(g, seed_m)
            assert len(grown) == nu and grown.covers(e)


def test_augment_finds_path_after_retired_trees():
    """Growing {0-1, 4-5}: the greedy seed pairs nothing, root 2 grows a
    Hungarian tree through 0, then root 3 finds the path 3-4-5-6."""
    g = spider((1, 1, 4))
    m0 = Matching.from_edges(g, [(0, 1), (4, 5)])
    m = maximum_matching_covering(g, m0)
    assert m.edges() == [(0, 1), (3, 4), (5, 6)]


def test_one_search_state_per_pass(monkeypatch):
    """Each pass allocates its search arrays once, however many roots it
    grows trees from; per-root allocation is quadratic on sparse graphs."""
    built = []

    class Counting(blossom._Search):
        __slots__ = ()

        def __init__(self, adj, mate):
            built.append(len(adj))
            super().__init__(adj, mate)

    g = spider((1, 1, 1, 2, 1, 1))
    m = maximum_matching(g)
    monkeypatch.setattr(blossom, "_Search", Counting)
    for run in (
        lambda: maximum_matching(g),
        lambda: maximum_matching_covering(g, Matching.from_edges(g, [(0, 4)])),
        lambda: maximum_matching_covering(g, Matching.from_edges(g, [(0, 1)])),
        lambda: blossom.outer_vertices(g, m),
    ):
        built.clear()
        run()
        assert built == [g.n]


def counting_search(monkeypatch):
    """Patch in a search engine that logs each tree search and retired tree."""
    log = []

    class Counting(blossom._Search):
        __slots__ = ()

        def run(self, roots):
            log.append("run")
            return super().run(roots)

        def retire(self):
            log.append("retire")
            super().retire()

    monkeypatch.setattr(blossom, "_Search", Counting)
    return log


def lowest_id_greedy_exposed(g):
    """Vertices the former seed (each exposed vertex, ascending, takes its
    lowest exposed neighbour) leaves exposed."""
    mate = [-1] * g.n
    for u in range(g.n):
        if mate[u] == -1:
            v = next((v for v in g.adjacency[u] if mate[v] == -1), -1)
            if v != -1:
                mate[u], mate[v] = v, u
    return [v for v in range(g.n) if mate[v] == -1]


def test_degree_seed_leaves_few_searches(monkeypatch):
    """The least-degree seed leaves 17 to 20 tree searches on these m = 3n
    random graphs with n = 1000; the lowest-id seed left 55 to 71."""
    log = counting_search(monkeypatch)
    for s in range(5):
        g = random_connected_graph(1000, m=3000, seed=s)
        log.clear()
        m = maximum_matching(g)
        assert log.count("run") <= 30
        assert m.is_valid_on(g)
        outer_vertices(g, m)  # maximum: no ValueError
        assert maximum_matching(g) == m


def test_degree_seed_matches_relabelled_path_without_search(monkeypatch):
    """On P4 labelled 2-0-1-3 and P6 labelled 3-1-0-2-4-5 the lowest-id
    seed takes the middle edge and strands both ends; the least-degree seed
    starts from the ends and is perfect at once."""
    log = counting_search(monkeypatch)
    for order in ([2, 0, 1, 3], [3, 1, 0, 2, 4, 5]):
        g = Graph.from_edges(len(order), list(zip(order, order[1:])))
        assert lowest_id_greedy_exposed(g)
        log.clear()
        m = maximum_matching(g)
        assert m.is_perfect_on(g)
        assert log == []


def test_cardinality_stop_skips_failed_trees_in_assembly(monkeypatch):
    """Odd n leaves an exposed vertex in every maximum matching.  Level 1
    stops at |M| edges, so assembly grows no tree that is bound to fail;
    without the size every exposed vertex left is a failed root."""
    log = counting_search(monkeypatch)
    inside = []
    assemble = cover.assemble

    def logged_assemble(*args):
        inside.append(len(log))
        out = assemble(*args)
        inside.append(len(log))
        return out

    monkeypatch.setattr(cover, "assemble", logged_assemble)
    for s in range(3):
        g = random_connected_graph(1001, m=3003, seed=s)
        inside.clear()
        res = solve(g)
        assert res.branch == "gstar"
        assert "retire" not in log[inside[0]:inside[1]]
        nu = len(maximum_matching(g))
        for size, retired in ((nu, False), (None, True)):
            log.clear()
            grown = maximum_matching_covering(g, Matching.empty(g.n), size)
            assert len(grown) == nu and ("retire" in log) == retired


def test_covering_size_above_nu_grows_to_maximum():
    """A size larger than the matching number only disables the stop."""
    for g in (path_graph(5), cycle_graph(7), star_graph(4), petersen_graph()):
        nu = brute_nu(g, BUDGET)
        for size in (nu, nu + 1, g.n):
            m = maximum_matching_covering(g, Matching.empty(g.n), size)
            assert len(m) == nu
            outer_vertices(g, m)  # maximum: no ValueError
