import random
from itertools import combinations

import pytest

import matchcover.cover
from matchcover import (
    Graph,
    InternalInvariantError,
    Matching,
    MatchingCover,
    NoCoverError,
    brute_mc,
    random_connected_graph,
    solve,
    verify_cover,
)
from matchcover.blossom import maximum_matching
from matchcover.gallai_edmonds import decompose
from matchcover.oracle import OracleBudget

from conftest import cycle_graph, path_graph, star_graph

BUDGET = OracleBudget(max_vertices=12, max_edges=66)


def test_p4_perfect():
    g = path_graph(4)
    cover = solve(g).cover
    assert cover.k == 1
    assert set(cover.matchings[0].edges()) == {(0, 1), (2, 3)}


def test_c3_factor_critical():
    g = cycle_graph(3)
    res = solve(g)
    assert res.cover.k == 2
    assert res.branch == "factor_critical"
    assert verify_cover(g, res.cover)


def test_star_three_leaves():
    g = star_graph(3)
    res = solve(g)
    assert res.cover.k == 3
    assert res.branch == "gstar"
    edge_sets = [set(m.edges()) for m in res.cover.matchings]
    assert edge_sets == [{(0, 1)}, {(0, 2)}, {(0, 3)}]


def test_p3():
    g = path_graph(3)
    res = solve(g)
    assert res.cover.k == 2
    assert [set(m.edges()) for m in res.cover.matchings] == [{(0, 1)}, {(1, 2)}]
    assert res.md == 2


def test_verify_cover_examples():
    g = path_graph(4)
    good = MatchingCover((Matching.from_edges(g, [(0, 1), (2, 3)]),))
    assert verify_cover(g, good)
    partial = MatchingCover((Matching.from_edges(g, [(0, 1)]),))
    assert not verify_cover(g, partial)
    c3 = cycle_graph(3)
    two = MatchingCover(
        (Matching.from_edges(c3, [(0, 1)]), Matching.from_edges(c3, [(0, 2)]))
    )
    assert verify_cover(c3, two)


def test_verify_cover_rejects_foreign_matching():
    g = path_graph(4)
    other = Matching.from_edges(path_graph(5), [(0, 1)])
    assert not verify_cover(g, MatchingCover((other,)))


def test_verify_cover_rejects_bad_mate_table():
    g = path_graph(4)
    # pairs 0 with 3, which is not an edge of P4; the table is symmetric
    non_edge = Matching([3, 2, 1, 0])
    assert not verify_cover(g, MatchingCover((non_edge,)))
    # 0-1 and 2-3 are edges, but 1 names 2 as its mate
    asymmetric = Matching([1, 2, 3, 2])
    assert not verify_cover(g, MatchingCover((asymmetric,)))
    assert not verify_cover(g, MatchingCover((Matching([1, 0, 3, 2]), asymmetric)))


def test_single_vertex_errors():
    with pytest.raises(ValueError, match="no matching cover") as info:
        solve(Graph.from_edges(1, []))
    assert info.type is NoCoverError
    with pytest.raises(ValueError, match="isolated") as info:
        solve(Graph.from_edges(3, [(0, 1)]))
    assert info.type is NoCoverError
    with pytest.raises(ValueError, match="empty graph") as info:
        solve(Graph.from_edges(0, []))
    assert info.type is NoCoverError
    # the lowest isolated vertex is named
    with pytest.raises(NoCoverError, match="vertex 2 is isolated"):
        solve(Graph.from_edges(6, [(0, 1), (3, 5)]))


def test_disconnected_components_combined():
    # a triangle (needs 2 levels) next to an edge (needs 1)
    g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
    res = solve(g)
    # solved whole: A is empty, D the triangle and C the edge
    assert res.branch == "factor_critical"
    assert res.cover.k == 2
    assert verify_cover(g, res.cover)
    assert res.cover.k == brute_mc(g, BUDGET)


def test_all_small_graphs_against_oracle():
    """Every labelled graph on 2..5 vertices without an isolated vertex,
    connected or not, is solved whole to the oracle's mc."""
    total = 0
    for n in range(2, 6):
        pairs = list(combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            g = Graph.from_edges(n, [e for i, e in enumerate(pairs) if bits >> i & 1])
            if all(g.adjacency):
                total += 1
                assert solve(g).cover.k == brute_mc(g, BUDGET)
    assert total == 814


def test_disjoint_unions_against_oracle():
    """Disjoint unions of random connected parts, with their vertices
    shuffled so that the parts interleave in the vertex ids."""
    rng = random.Random(2016)
    branches = set()
    for _ in range(400):
        sizes = [rng.randint(2, 5) for _ in range(rng.randint(2, 4))]
        while sum(sizes) > 12:
            sizes.pop()
        n = sum(sizes)
        perm = list(range(n))
        rng.shuffle(perm)
        edges, offset = [], 0
        for size in sizes:
            part = random_connected_graph(size, p=0.5, seed=rng.randrange(1 << 30))
            edges += [(perm[offset + u], perm[offset + v]) for u, v in part.edges]
            offset += size
        g = Graph.from_edges(n, edges)
        res = solve(g)
        branches.add(res.branch)
        assert verify_cover(g, res.cover)
        assert res.cover.k == brute_mc(g, BUDGET)
    assert branches == {"perfect", "factor_critical", "gstar"}


def test_every_level_nonempty():
    for seed in range(80):
        g = random_connected_graph(9, p=0.35, seed=seed)
        res = solve(g)
        assert all(len(m) > 0 for m in res.cover.matchings)
        assert verify_cover(g, res.cover)


def test_branch_facts_consistent():
    # odd n reaches the factor-critical branch, even n cannot
    for n, seed in [(n, seed) for n in (10, 9) for seed in range(80)]:
        g = random_connected_graph(n, p=0.25, seed=seed)
        res = solve(g)
        m = maximum_matching(g)
        ge = decompose(g)
        if not ge.a and not ge.d:
            assert res.branch == "perfect" and res.cover.k == 1
            assert res.cover.matchings == (m,)
        elif not ge.a:
            assert res.branch == "factor_critical" and res.cover.k == 2
            (v,) = [v for v in range(g.n) if m.mate(v) == -1]
            w = g.adjacency[v][0]
            extra = Matching.from_edges(g, [(min(v, w), max(v, w))])
            assert res.cover.matchings == (m, extra)
        else:
            assert res.branch == "gstar"
            assert res.cover.k == max(2, res.md)
            assert res.transforms <= res.gstar_size


def test_level_one_is_maximum_matching():
    """The first matching of a derived-graph-branch cover has maximum size
    and, like every maximum matching, covers A and C."""
    for seed in range(60):
        g = random_connected_graph(9, p=0.3, seed=seed)
        res = solve(g)
        assert len(res.cover.matchings[0]) == len(maximum_matching(g))
        ge = decompose(g)
        assert ge.c | ge.a <= res.cover.matchings[0].vertices()


def test_level_one_size_matches_networkx():
    """Level 1 is a maximum matching: its size equals the matching number
    that networkx computes independently, on every connected branch."""
    nx = pytest.importorskip("networkx")
    # dense small graphs reach all three branches; sparse ones up to n = 472
    # (m from n - 1 to 3n) are perfect or go through the derived graph
    graphs = [random_connected_graph(n, p=0.5, seed=n) for n in range(5, 12)]
    for seed in range(40):
        n = 4 + seed * 12
        m = n - 1 + (seed % 4) * n * 2 // 3
        graphs.append(random_connected_graph(n, m=m, seed=seed))
    branches = set()
    for g in graphs:
        res = solve(g)
        branches.add(res.branch)
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges)
        nu = len(nx.max_weight_matching(h, maxcardinality=True))
        assert len(res.cover.matchings[0]) == nu
    assert branches == {"perfect", "factor_critical", "gstar"}


def test_short_level_one_is_rejected(monkeypatch):
    """Level 1 stops growing at |M| edges; one that comes back short is an
    internal error.  Two triangles joined through vertex 6: A = {6} has no
    star, so level 1's seed holds one edge of each triangle, below |M| = 3."""
    g = Graph.from_edges(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                             (0, 6), (3, 6)])
    assert solve(g).branch == "gstar"

    def seed_only(g, m0, size=None):
        return m0

    monkeypatch.setattr(matchcover.cover, "maximum_matching_covering", seed_only)
    with pytest.raises(InternalInvariantError, match="level-1 matching is not maximum"):
        solve(g)


@pytest.mark.parametrize(
    "g,branch",
    [
        (star_graph(3), "gstar"),
        (Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)]), "gstar"),
    ],
    ids=["star", "p3_plus_k2"],
)
def test_final_check_catches_bad_part_cover(g, branch, monkeypatch):
    """One check at the end of solve rejects a cover that misses a vertex,
    on a connected and on a disconnected graph alike."""
    assert solve(g).branch == branch
    real = matchcover.cover.assemble

    def drop_last_level(*args):
        return MatchingCover(real(*args).matchings[:-1])

    monkeypatch.setattr(matchcover.cover, "assemble", drop_last_level)
    with pytest.raises(InternalInvariantError, match="does not cover"):
        solve(g)


def test_random_against_oracle():
    for n in range(4, 10):
        for seed in range(30):
            g = random_connected_graph(n, p=0.4, seed=seed)
            assert solve(g).cover.k == brute_mc(g, BUDGET)
