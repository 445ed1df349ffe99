import random
from itertools import combinations

import pytest

import matchcover.cover
from matchcover import blossom
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
from matchcover.dstar import initial_cover, optimize
from matchcover.gallai_edmonds import decompose
from matchcover.oracle import OracleBudget

from conftest import (
    balancing_faults,
    complete_bipartite_graph,
    complete_graph,
    covered_by,
    cycle_graph,
    greedyhard,
    path_graph,
    star_graph,
)
from reference import maximum_matching

BUDGET = OracleBudget(max_vertices=12, max_edges=66)


def test_p4_perfect():
    g = path_graph(4)
    cover = solve(g).cover
    assert cover.k == 1
    assert set(cover.matchings[0].pairs) == {(0, 1), (2, 3)}


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
    ge = decompose(g)
    assert len(ge.a) + len(ge.d_star) == 4  # |A| + |D*| = 1 + 3
    edge_sets = [set(m.pairs) for m in res.cover.matchings]
    assert edge_sets == [{(0, 1)}, {(0, 2)}, {(0, 3)}]


def test_p3():
    g = path_graph(3)
    res = solve(g)
    assert res.cover.k == 2
    assert [set(m.pairs) for m in res.cover.matchings] == [{(0, 1)}, {(1, 2)}]
    assert res.md == 2
    ge = decompose(g)
    assert (ge.a, ge.d_star) == ({1}, {0, 2})


def test_verify_cover_examples():
    g = path_graph(4)
    good = MatchingCover((Matching(4, ((0, 1), (2, 3))),))
    assert verify_cover(g, good)
    partial = MatchingCover((Matching(4, ((0, 1),)),))
    assert not verify_cover(g, partial)
    c3 = cycle_graph(3)
    two = MatchingCover((Matching(3, ((0, 1),)), Matching(3, ((0, 2),))))
    assert verify_cover(c3, two)


def test_verify_cover_rejects_foreign_matching():
    g = path_graph(4)
    other = Matching(5, ((0, 1),))
    assert not verify_cover(g, MatchingCover((other,)))
    # edges of P4 that cover it, held by a matching on five vertices
    assert not verify_cover(g, MatchingCover((Matching(5, ((0, 1), (2, 3))),)))
    # a valid cover plus a level on three vertices
    full = Matching(4, ((0, 1), (2, 3)))
    assert not verify_cover(g, MatchingCover((full, Matching(3, ((0, 1),)))))


def test_verify_cover_rejects_non_edge():
    g = path_graph(4)
    # 0-3 is not an edge of P4, though with 1-2 the pairs cover V
    assert not verify_cover(g, MatchingCover((Matching(4, ((0, 3), (1, 2))),)))
    # nor in a later level, after a level that alone covers V
    full = Matching(4, ((0, 1), (2, 3)))
    assert not verify_cover(g, MatchingCover((full, Matching(4, ((0, 2),)))))
    # vertex 0 has neighbours 2, 4, 6: non-edges from 0 whose second end
    # sorts before, between and after them, each after a perfect level
    g = Graph.from_edges(8, [(0, 2), (0, 4), (0, 6), (1, 3), (4, 5), (6, 7)])
    full = Matching(8, ((0, 2), (1, 3), (4, 5), (6, 7)))
    assert verify_cover(g, MatchingCover((full, Matching(8, ((0, 4),)))))
    for pair in [(0, 1), (0, 3), (0, 5), (0, 7)]:
        assert not verify_cover(g, MatchingCover((full, Matching(8, (pair,)))))


class ProbedList(tuple):
    """An adjacency tuple that logs each membership test made on it."""

    log = []

    def __contains__(self, x):
        ProbedList.log.append((tuple(self), x))
        return super().__contains__(x)


def test_verify_cover_tests_each_pair_in_the_shorter_list():
    """The edge test of a pair (u, v) runs once, on the shorter adjacency
    list, on either side.  In K_{1,4} (center 0) with the triangle 2-5-6
    hung on leaf 2, the non-edge (0, 5) has deg u > deg v and the non-edges
    (1, 2) and (1, 6) deg u < deg v; each is rejected.  The one-pair levels
    (5, 6) and (0, 2) are edges, rejected only as they leave vertices
    uncovered.  On a valid three-level cover every pair is tested in its
    shorter list."""
    edges = [(0, 1), (0, 2), (0, 3), (0, 4), (2, 5), (2, 6), (5, 6)]
    plain = Graph.from_edges(7, edges)
    g = Graph(7, tuple(ProbedList(nbrs) for nbrs in plain.adjacency))
    full = Matching(7, ((0, 1), (2, 6)))
    rest = Matching(7, ((0, 3), (2, 5)))
    four = Matching(7, ((0, 4),))
    cases = [
        ((0, 5), False, ((2, 6), 0)),  # deg 0 = 4 > deg 5 = 2: 5's list
        ((1, 2), False, ((0,), 2)),  # deg 1 = 1 < deg 2 = 3: 1's list
        ((1, 6), False, ((0,), 6)),  # deg 1 = 1 < deg 6 = 2: 1's list
        ((5, 6), True, ((2, 6), 6)),  # equal degrees: u's list
        ((0, 2), True, ((0, 5, 6), 0)),  # deg 0 = 4 > deg 2 = 3: 2's list
    ]
    for pair, ok, probe in cases:
        ProbedList.log.clear()
        assert verify_cover(g, MatchingCover((Matching(7, (pair,)),))) is False
        assert ProbedList.log == [probe]
        assert (pair in plain.edges) is ok
    # a whole cover: every pair tested once, each in its shorter list
    ProbedList.log.clear()
    assert verify_cover(g, MatchingCover((full, rest, four)))
    assert len(ProbedList.log) == 5
    for nbrs, x in ProbedList.log:
        assert len(nbrs) <= len(plain.adjacency[x])


def test_verify_cover_accepts_k8_as_seven_perfect_matchings():
    """K_8 split into 7 perfect matchings (the round-robin 1-factorization)
    is a valid cover, though not an optimal one (mc = 1); the cover less
    an edge of one level is still valid, and with one edge swapped for a
    pair that shares a vertex within its level it is not."""
    g = complete_graph(8)
    levels = []
    for r in range(7):
        pairs = [(r, 7)] + [((r + i) % 7, (r - i) % 7) for i in (1, 2, 3)]
        levels.append(Matching(8, tuple(sorted(tuple(sorted(p)) for p in pairs))))
    assert sorted(p for m in levels for p in m.pairs) == sorted(g.edges)
    assert verify_cover(g, MatchingCover(tuple(levels)))
    trimmed = Matching(8, levels[3].pairs[1:])
    assert verify_cover(g, MatchingCover(tuple(levels[:3] + [trimmed] + levels[4:])))
    a, b = levels[3].pairs[:2]
    clash = Matching(8, ((a[0], b[0]),) + levels[3].pairs[1:])
    assert not verify_cover(g, MatchingCover(tuple(levels[:3] + [clash] + levels[4:])))


def test_verify_cover_rejects_self_and_out_of_range_pairs():
    g = path_graph(4)
    full = Matching(4, ((0, 1), (2, 3)))
    # -1 must not wrap around to vertex 3, nor -2 to vertex 2 (edge 2-3) or
    # -4 to vertex 0 (edge 0-1); (1, 0) is edge 0-1 reversed, not a pair in
    # ascending form
    for pair in [(1, 1), (3, 3), (-1, 3), (-2, 3), (-4, 1), (3, 4), (4, 5), (1, 0)]:
        assert not verify_cover(g, MatchingCover((full, Matching(4, (pair,)))))


def test_verify_cover_rejects_pairs_sharing_a_vertex_in_one_level():
    g = path_graph(4)
    # three edges covering V, but 0-1 and 1-2 share 1, and 1-2 and 2-3 share 2
    chain = Matching(4, ((0, 1), (1, 2), (2, 3)))
    assert not verify_cover(g, MatchingCover((chain,)))
    assert not verify_cover(g, MatchingCover((Matching(4, ((0, 1), (0, 1), (2, 3))),)))
    # vertex 1 is in level 1 once and in level 2 twice
    first = Matching(4, ((0, 1), (2, 3)))
    assert not verify_cover(g, MatchingCover((first, Matching(4, ((0, 1), (1, 2))))))


def test_verify_cover_rejects_uncovered_vertex():
    g = star_graph(3)
    two = tuple(Matching(4, ((0, leaf),)) for leaf in (1, 2))
    assert not verify_cover(g, MatchingCover(two))
    assert not verify_cover(g, MatchingCover(two + (Matching(4, ()),)))
    assert not verify_cover(g, MatchingCover(()))


def test_verify_cover_accepts_vertex_in_several_levels():
    # the center of K_{1,3} is in all three levels
    g = star_graph(3)
    levels = tuple(Matching(4, ((0, leaf),)) for leaf in (1, 2, 3))
    assert verify_cover(g, MatchingCover(levels))
    # 1 and 2 are in both levels of this P4 cover
    g = path_graph(4)
    first = Matching(4, ((0, 1), (2, 3)))
    assert verify_cover(g, MatchingCover((first, Matching(4, ((1, 2),)))))


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
            (v,) = set(range(g.n)) - covered_by(m)
            w = g.adjacency[v][0]
            extra = Matching(g.n, ((min(v, w), max(v, w)),))
            assert res.cover.matchings == (m, extra)
        else:
            assert res.branch == "gstar"
            assert res.cover.k == max(2, res.md)
            assert res.transforms <= len(ge.a) + len(ge.d_star)


@pytest.mark.parametrize("k", range(3, 9))
def test_greedyhard_balances_to_three(k):
    """greedyhard(k) has mc = 3, but its least-loaded seed stacks k jobs on
    one machine, so only balancing that runs phase after phase reaches 3:
    one that stops after its first phase leaves k + 1."""
    assert solve(greedyhard(k)).cover.k == 3


def test_level_one_is_maximum_matching():
    """The first matching of a derived-graph-branch cover has maximum size
    and, like every maximum matching, covers A and C."""
    for seed in range(60):
        g = random_connected_graph(9, p=0.3, seed=seed)
        res = solve(g)
        assert len(res.cover.matchings[0]) == len(maximum_matching(g))
        ge = decompose(g)
        assert ge.c | ge.a <= covered_by(res.cover.matchings[0])


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
    """A level 1 of another size than |M| is an internal error.  On K_{2,5}
    with A = {5, 6}, M = {0-5, 1-6} and stars 5: [0, 2, 4], 6: [1, 3]; a
    star table that also lists D*-vertex 0 first in center 6's star makes
    level 1 match both centers to 0, and the mate list reads as the one
    pair 0-6, below |M| = 2."""
    g = Graph.from_edges(7, [(d, a) for a in (5, 6) for d in range(5)])
    assert solve(g).branch == "gstar"
    optimize = matchcover.cover.optimize

    def doubled(adj, stars, trace=None):
        count = optimize(adj, stars, trace)
        assert stars == {5: [0, 2, 4], 6: [1, 3]}
        stars[6].insert(0, 0)
        return count

    monkeypatch.setattr(matchcover.cover, "optimize", doubled)
    with pytest.raises(InternalInvariantError, match="level-1 matching is not maximum"):
        solve(g)


def test_assemble_skips_an_idle_center():
    """An A-vertex with an empty star gives assembly no edge.  Center 0
    holds the leaves 1, 2, 3; A-vertex 4 joins two triangles, whose vertices
    are all in D but none in D*, so its star stays empty."""
    g = Graph.from_edges(
        11,
        [(0, 1), (0, 2), (0, 3), (0, 4), (4, 5), (4, 8)]
        + [(5, 6), (5, 7), (6, 7), (8, 9), (8, 10), (9, 10)],
    )
    ge = decompose(g)
    assert (ge.a, ge.d_star) == ({0, 4}, {1, 2, 3})
    stars = {0: [1, 2, 3], 4: []}
    cover = matchcover.cover.assemble(g, ge, stars)
    assert cover.k == 3
    assert verify_cover(g, cover)
    res = solve(g)
    assert (res.branch, res.md, res.cover.k) == ("gstar", 3, 3)


@pytest.mark.parametrize("g", [path_graph(4), path_graph(2)], ids=["p4", "k2"])
def test_assemble_perfect_matching_is_one_level(g):
    """With D empty, assemble sets k = 1: the cover is the perfect matching
    alone, read off the mate list, with no empty rescue level."""
    ge = decompose(g)
    assert not ge.d
    cover = matchcover.cover.assemble(g, ge, {})
    assert cover.matchings == (blossom._from_mate(ge.mate),)


def per_star_assembly(g, ge, stars):
    """The cover as assembly built it star by star: level 1 from a list of
    first edges, each star's later edges zipped onto per-level lists, and
    each level oriented and sorted at the end."""
    mate1 = list(ge.mate)
    firsts = [(a, ds[0]) for a, ds in stars.items() if ds]
    for a, _ in firsts:
        if mate1[a] != -1:
            mate1[mate1[a]] = -1
    for a, d in firsts:
        mate1[a], mate1[d] = d, a
    k = max(2, max(map(len, stars.values()), default=0)) if ge.d else 1
    levels = [[] for _ in range(k - 1)]
    for w in ge.d:
        if mate1[w] == -1 and w not in ge.d_star:
            levels[0].append((w, next(x for x in g.adjacency[w] if x in ge.d)))
    for a, ds in stars.items():
        for level, d in zip(levels, ds[1:]):
            level.append((a, d))
    return MatchingCover(
        (blossom._from_mate(mate1),)
        + tuple(
            Matching(g.n, tuple(sorted((u, v) if u < v else (v, u) for u, v in level)))
            for level in levels
        )
    )


def balanced_stars(g):
    ge = decompose(g)
    stars = initial_cover(g.adjacency, ge.a, ge.d_star, ge.mate)
    optimize(g.adjacency, stars, None)
    return ge, stars


def test_assemble_matches_per_star_reference():
    """Levels built over the stars still long enough, each pair made once,
    give the cover that the star-by-star assembly gives, on sparse graphs
    of the benchmark's tree type (m = n + n // 100), on greedyhard(10), and
    on small denser graphs, whose odd cycles leave the rescue edges that the
    sparse ones almost never need."""
    rng = random.Random(5)
    graphs = [
        random_connected_graph(n, m=n + n // 100, seed=s)
        for s, n in enumerate(rng.randrange(50, 401) for _ in range(200))
    ]
    graphs += [greedyhard(10)]
    graphs += [random_connected_graph(12, p=0.25, seed=s) for s in range(200)]
    for g in graphs:
        ge, stars = balanced_stars(g)
        assert matchcover.cover.assemble(g, ge, stars) == per_star_assembly(g, ge, stars)


def test_assemble_level_building_is_linear():
    """K_{1,2000} beside 1000 disjoint P3: md = 2000, so there are 1999
    levels above the first, and 1000 of the 1001 stars end at level 2.
    Assembly reads the stars O(|A| + |D*|) times in all; a scan of every
    star on every level would read them about 2000 * 1001 times."""
    reads = [0]

    class CountingStar(list):
        def __len__(self):
            reads[0] += 1
            return super().__len__()

        def __getitem__(self, i):
            reads[0] += 1
            return super().__getitem__(i)

    g = Graph.from_edges(
        5001,
        [(0, d) for d in range(1, 2001)]
        + [e for s in range(2001, 5001, 3) for e in ((s, s + 1), (s + 1, s + 2))],
    )
    ge, stars = balanced_stars(g)
    assert (len(ge.a), len(ge.d_star), max(map(len, stars.values()))) == (1001, 4000, 2000)
    counted = {a: CountingStar(ds) for a, ds in stars.items()}
    cover = matchcover.cover.assemble(g, ge, counted)
    assert reads[0] <= 5 * (len(ge.a) + len(ge.d_star))
    assert cover.k == 2000
    assert verify_cover(g, cover)


@pytest.mark.parametrize(
    "g,branch",
    [
        (star_graph(3), "gstar"),
        (Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)]), "gstar"),
        (path_graph(4), "perfect"),
        (Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (3, 4)]), "factor_critical"),
    ],
    ids=["star", "p3_plus_k2", "p4", "triangle_plus_k2"],
)
def test_final_check_catches_bad_part_cover(g, branch, monkeypatch):
    """One check at the end of solve rejects a cover that misses a vertex,
    on a connected and on a disconnected graph alike, whatever (D, A) is:
    every graph's cover comes from assemble."""
    assert solve(g).branch == branch
    real = matchcover.cover.assemble

    def drop_last_level(*args):
        return MatchingCover(real(*args).matchings[:-1])

    monkeypatch.setattr(matchcover.cover, "assemble", drop_last_level)
    with pytest.raises(InternalInvariantError, match="not a valid matching cover of G"):
        solve(g)


@pytest.mark.parametrize(
    "g, inject", [pytest.param(g, f, id=name) for name, g, f in balancing_faults()]
)
def test_balancing_fault_ends_at_the_final_check(g, inject, monkeypatch):
    """A D*-vertex moved to a center it is not adjacent to, or left in two
    stars so that one level holds two pairs sharing it, passes balancing and
    assembly unchecked and is rejected by the cover check in solve."""
    assert solve(g).branch == "gstar"
    inject(monkeypatch)
    with pytest.raises(InternalInvariantError, match="not a valid matching cover of G"):
        solve(g)


def test_solve_checks_the_cover_once(monkeypatch):
    """The pipeline calls verify_cover once per solve, on a lopsided, a
    tree-like and a disconnected graph."""
    real = matchcover.cover.verify_cover
    calls = []

    def counted(g, mc):
        calls.append(mc)
        return real(g, mc)

    disconnected = Graph.from_edges(
        2000,
        [(u + 500 * i, v + 500 * i)
         for i in range(4)
         for u, v in random_connected_graph(500, m=520, seed=i).edges],
    )
    graphs = [
        complete_bipartite_graph(20, 2000),
        random_connected_graph(3000, m=3000, seed=1),
        disconnected,
    ]
    monkeypatch.setattr(matchcover.cover, "verify_cover", counted)
    for g in graphs:
        calls.clear()
        res = solve(g)
        assert len(calls) == 1
        assert real(g, res.cover)


def test_matching_read_off_the_mate_list_once(monkeypatch):
    """The maximum matching stays the engine's mate list from the blossom
    pass to level 1: each solve builds one Matching from a mate list, on a
    perfect, a factor-critical and a derived-graph graph alike."""
    real = blossom._from_mate
    calls = []

    def counted(mate):
        calls.append(len(mate))
        return real(mate)

    monkeypatch.setattr(blossom, "_from_mate", counted)
    monkeypatch.setattr(matchcover.cover, "_from_mate", counted)
    for g, branch in (
        (path_graph(6), "perfect"),
        (Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (3, 4)]), "factor_critical"),
        (random_connected_graph(3000, m=3030, seed=1), "gstar"),
    ):
        calls.clear()
        assert solve(g).branch == branch
        assert calls == [g.n]


def test_random_against_oracle():
    for n in range(4, 10):
        for seed in range(30):
            g = random_connected_graph(n, p=0.4, seed=seed)
            assert solve(g).cover.k == brute_mc(g, BUDGET)
