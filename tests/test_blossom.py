import random

import pytest

from matchcover import Graph, Matching, brute_d_set, brute_nu, random_connected_graph
from matchcover.blossom import (
    maximum_matching,
    maximum_matching_covering,
    outer_vertices,
)
from matchcover import blossom
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
