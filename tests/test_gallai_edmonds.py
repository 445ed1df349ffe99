import dataclasses
import random

import pytest

from matchcover import (
    Graph,
    InternalInvariantError,
    components,
    induced_subgraph,
    random_connected_graph,
    solve,
)
from matchcover import blossom, gallai_edmonds
from matchcover.gallai_edmonds import GallaiEdmonds, _odd_part, decompose
from matchcover.oracle import OracleBudget

from conftest import (
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
    plant_mate,
    star_graph,
    unmatch_one_pair,
)
from reference import (
    brute_d_set,
    brute_nu,
    full_traversal,
    is_factor_critical,
    verify_decomposition,
)

BUDGET = OracleBudget(max_vertices=12, max_edges=66)


def d_components(g, ge):
    """Components of G[D] in host ids, from the graph helpers."""
    sub, old_ids = induced_subgraph(g, ge.d)
    return [tuple(old_ids[v] for v in comp) for comp in components(sub)]


def test_decompose_p4_perfect():
    g = path_graph(4)
    ge = decompose(g)
    assert ge.d == frozenset()
    assert ge.a == frozenset()
    assert ge.c == {0, 1, 2, 3}


def test_decompose_p3():
    g = path_graph(3)
    ge = decompose(g)
    assert ge.d == {0, 2}
    assert ge.a == {1}
    assert ge.c == frozenset()
    assert ge.d_star == {0, 2}
    assert ge.d == brute_d_set(g, BUDGET)


def test_decompose_c3():
    g = cycle_graph(3)
    ge = decompose(g)
    assert ge.d == {0, 1, 2}
    assert ge.a == frozenset()
    assert ge.c == frozenset()
    assert ge.d_star == frozenset()


def test_c_is_derived_not_stored():
    """GallaiEdmonds stores D, A, the mate list and D*; C is read as
    V - D - A, and cannot be set (C = V on a perfect matching: see
    test_perfect_matching_leaves_c_alone)."""
    fields = [f.name for f in dataclasses.fields(GallaiEdmonds)]
    assert fields == ["d", "a", "mate", "d_star"]
    graphs = [
        random_connected_graph(n, p=0.3, seed=s) for n in (7, 10, 13) for s in range(10)
    ]
    for g in graphs + [star_graph(3), petersen_graph()]:
        ge = decompose(g)
        assert ge.c == frozenset(range(g.n)) - ge.d - ge.a
    with pytest.raises(AttributeError):
        ge.c = frozenset()


def test_decompose_rejects_random_non_maximum(monkeypatch):
    """A matching one edge short of maximum fails the Tutte-Berge check,
    whichever edge is dropped: it leaves two more vertices exposed than
    odd(G - A) - |A|.  The check reads only g, the matching and A."""
    count = 0
    for n in range(2, 11):
        for seed in range(23):
            g = random_connected_graph(n, p=0.4, seed=seed)
            with monkeypatch.context() as patch:
                unmatch_one_pair(patch, seed)
                with pytest.raises(InternalInvariantError, match="Tutte-Berge"):
                    decompose(g)
            count += 1
    assert count >= 200


def test_matching_not_perfect_on_c_fails_tutte_berge(monkeypatch):
    """A maximum matching is perfect on C, and the Tutte-Berge check needs
    no second look.  On the star 0-1-2 with the path 1-3-4 hung off its
    center, A = {1} and C = {3, 4}; a matching that leaves C exposed,
    {0-1}, or matches 3 into A, {1-3}, leaves three vertices exposed where
    odd(G - A) - |A| = 1."""
    g = Graph.from_edges(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
    ge = decompose(g)
    assert (ge.a, ge.c) == ({1}, {3, 4})
    for pairs in ([(0, 1)], [(1, 3)]):
        with monkeypatch.context() as patch:
            plant_mate(patch, pairs)
            with pytest.raises(InternalInvariantError, match="Tutte-Berge"):
                decompose(g)


def test_perfect_matching_leaves_c_alone():
    """A graph with a perfect matching (by the oracle's matching number),
    connected or not, decomposes to D = A = D* = ∅ and C = V, and the
    per-vertex reference check agrees."""
    graphs = [
        path_graph(4),
        cycle_graph(6),
        complete_graph(4),
        petersen_graph(),
        Graph.from_edges(4, [(0, 1), (2, 3)]),
    ]
    graphs += [
        random_connected_graph(n, p=0.4, seed=s) for n in (6, 8, 10) for s in range(12)
    ]
    perfect = 0
    for g in graphs:
        if 2 * brute_nu(g, BUDGET) != g.n:
            continue
        ge = decompose(g)
        assert (ge.d, ge.a, ge.c, ge.d_star) == (set(), set(), set(range(g.n)), set())
        assert verify_decomposition(g, ge)
        perfect += 1
    assert perfect >= 20


def test_planted_perfect_non_matching_fails_the_final_cover_check(monkeypatch):
    """decompose reads nothing more off a perfect mate list, so a planted
    one that pairs a non-edge becomes the perfect branch's whole cover,
    which solve's final check rejects.  P4 has a perfect matching; K_{1,3}
    has none."""
    planted = [(path_graph(4), [(0, 3), (1, 2)]), (star_graph(3), [(0, 1), (2, 3)])]
    for g, pairs in planted:
        with monkeypatch.context() as patch:
            plant_mate(patch, pairs)
            with pytest.raises(InternalInvariantError, match="not a valid matching"):
                solve(g)


def test_verify_p3_true_and_swapped_false():
    g = path_graph(3)
    ge = decompose(g)
    assert verify_decomposition(g, ge)
    swapped = GallaiEdmonds(
        d=ge.a, a=ge.d,
        mate=ge.mate,
        d_star=ge.d_star,
    )
    assert not verify_decomposition(g, swapped)


def test_verify_checks_the_matching_against_the_structure():
    """With D and A right, verify_decomposition still rejects a mate list
    that breaks the Gallai-Edmonds structure.  The triangle 0-1-2 and the
    leaves 5 and 6 of A = {3, 4} make up D, and the edge 7-8 is C.  The
    real matching passes; one that matches both A-vertices into the
    triangle, one that leaves C exposed, and one that matches 3 to its
    non-neighbour 7 in C do not."""
    g = Graph.from_edges(9, [(0, 1), (1, 2), (0, 2), (3, 0), (4, 1), (3, 5), (4, 5),
                             (3, 6), (4, 6), (7, 8)])
    ge = decompose(g)
    assert (ge.d, ge.a, ge.c) == ({0, 1, 2, 5, 6}, {3, 4}, {7, 8})
    assert verify_decomposition(g, ge)
    for mate in [
        (3, 4, -1, 0, 1, -1, -1, 8, 7),
        (2, -1, 0, 5, 6, 3, 4, -1, -1),
        (2, -1, 0, 7, 6, -1, 4, 3, -1),
    ]:
        assert not verify_decomposition(g, dataclasses.replace(ge, mate=mate))


def test_verify_c3_full_d():
    g = cycle_graph(3)
    ge = decompose(g)
    assert verify_decomposition(g, ge)


def test_is_factor_critical():
    assert is_factor_critical(cycle_graph(3))
    assert not is_factor_critical(path_graph(2))
    assert is_factor_critical(cycle_graph(5))
    assert not is_factor_critical(path_graph(5))
    assert is_factor_critical(complete_graph(7))


def test_blossom_interior_lands_in_d():
    """Triangle with a tail: 0-1-2 triangle, tail 2-3-4. A maximum matching
    leaves one triangle vertex exposed; the whole triangle belongs to D."""
    g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
    ge = decompose(g)
    assert ge.d == brute_d_set(g, BUDGET)
    assert verify_decomposition(g, ge)


def test_random_decompositions_verify():
    for n in range(4, 11):
        for seed in range(25):
            g = random_connected_graph(n, p=0.35, seed=seed)
            ge = decompose(g)
            mate = ge.mate
            assert verify_decomposition(g, ge)
            assert ge.d == brute_d_set(g, BUDGET)
            comps = d_components(g, ge)
            # D* is exactly the set of trivial D-components
            assert ge.d_star == {comp[0] for comp in comps if len(comp) == 1}
            # every D-component induces a factor-critical subgraph
            for comp in comps:
                sub, _ = induced_subgraph(g, comp)
                assert is_factor_critical(sub)
            # the mate list is a matching of g, perfect on C
            assert all(
                w == -1 or (mate[w] == v and w in g.adjacency[v])
                for v, w in enumerate(mate)
            )
            assert all(mate[v] in ge.c for v in ge.c)
            # deficiency identity on connected graphs with D nonempty
            exposed = {v for v, w in enumerate(mate) if w == -1}
            assert all(v in ge.d for v in exposed)
            if ge.d:
                assert len(exposed) == len(comps) - len(ge.a)


def test_dstar_neighbours_lie_in_a():
    """Every neighbour of a D*-vertex lies in A, so D*'s host adjacency
    lists hold exactly the host edges between A and D*: balancing reads
    them as the derived graph."""
    checked = 0
    for seed in range(80):
        g = random_connected_graph(11, p=0.25, seed=seed)
        ge = decompose(g)
        if not ge.a:
            continue
        assert ge.d_star == {d for d in ge.d if not ge.d & set(g.adjacency[d])}
        for d in ge.d_star:
            assert set(g.adjacency[d]) <= ge.a
        checked += 1
    assert checked >= 20


def pendant_stars(rng):
    """A path of centers, each with 0 to 4 pendant leaves, ids shuffled."""
    spine = rng.randint(1, 12)
    edges = [(i, i + 1) for i in range(spine - 1)]
    n = spine
    for center in range(spine):
        for _ in range(rng.randint(0, 4)):
            edges.append((center, n))
            n += 1
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])


def test_singleton_d_components():
    """A vertex whose neighbours all lie in A is read as a singleton
    D-component without a component list; D* stays the D-vertices with no
    neighbour in D, and (D, C) stay what a list per component gives, on
    graphs of the benchmark's tree type and on pendant stars."""
    rng = random.Random(29)
    graphs = [
        random_connected_graph(n, m=n + n // 100, seed=s)
        for s, n in enumerate(rng.randrange(50, 401) for _ in range(100))
    ]
    graphs += [pendant_stars(rng) for _ in range(100)] + [star_graph(5)]
    singletons = 0
    for g in graphs:
        ge = decompose(g)
        assert ge.d_star == {v for v in ge.d if not ge.d & set(g.adjacency[v])}
        assert (ge.d, ge.c, ge.d_star) == full_traversal(g, ge.a)[:3]
        singletons += len(ge.d_star)
    assert singletons > 10000


def expose_in_a(patch, pick):
    """Make ``decompose``'s search name one more A-vertex: ``pick(exposed)``,
    one of the vertices its matching leaves exposed.  ``patch`` is a pytest
    monkeypatch; the vertex picked on each call is appended to the list
    returned."""
    maximize, picked = blossom._maximize, []

    class Faulty:
        def __init__(self, search):
            self.search = search
            self.exposed = search.exposed

        def inner(self):
            picked.append(pick(self.exposed))
            return self.search.inner() + picked[-1:]

    patch.setattr(gallai_edmonds, "_maximize", lambda adj, mate: Faulty(maximize(adj, mate)))
    return picked


def test_exposed_a_vertex_is_rejected_before_the_walk(monkeypatch):
    """An A-vertex that the search leaves exposed has the partner -1, which
    as a start would walk vertex n - 1's component under the id -1.
    decompose names the vertex before any walk and returns no D at all,
    whether the highest or the lowest exposed vertex is picked."""
    graphs = [path_graph(3), star_graph(3), Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])]
    graphs += [random_connected_graph(n, m=n + n // 100, seed=s) for s, n in
               enumerate((50, 101, 300))]
    faults = 0
    for g in graphs:
        for pick in (max, min):
            with monkeypatch.context() as patch:
                picked = expose_in_a(patch, pick)
                with pytest.raises(InternalInvariantError) as info:
                    decompose(g)
            assert f"A-vertex {picked[0]} is exposed" in str(info.value)
            faults += 1
    assert faults == 12


def greedy_mate(g, rng):
    """A maximal, usually not maximum, matching of g as a mate list: the
    edges in random order, each taken if both ends are still exposed."""
    mate = [-1] * g.n
    edges = list(g.edges)
    rng.shuffle(edges)
    for u, v in edges:
        if mate[u] == mate[v] == -1:
            mate[u], mate[v] = v, u
    return mate


def union(*graphs):
    """The disjoint union of graphs, ids shifted in the order given."""
    edges, n = [], 0
    for h in graphs:
        edges += [(u + n, v + n) for u, v in h.edges]
        n += h.n
    return Graph.from_edges(n, edges)


def test_odd_part_equals_a_full_traversal():
    """The walk from the exposed vertices and the partners of U finds the
    odd components of G - U that a walk from every vertex finds, for any
    matching that covers U: random graphs, connected or with even
    components beside odd ones, greedy and maximum matchings, and random
    sets U of covered vertices as well as the real A.  An exposed U-vertex
    raises instead."""
    rng = random.Random(34)
    graphs = [random_connected_graph(n, p=0.3, seed=s) for s, n in
              enumerate(rng.randrange(2, 30) for _ in range(60))]
    graphs += [
        union(*(random_connected_graph(rng.randrange(2, 9), p=0.4, seed=rng.randrange(10**6))
                for _ in range(rng.randrange(2, 7))))
        for _ in range(60)
    ]
    graphs += [union(path_graph(4), star_graph(3), cycle_graph(6), path_graph(2))]
    checked = even = rejected = 0
    for g in graphs:
        maximum = [-1] * g.n
        search = blossom._maximize(g.adjacency, maximum)
        for mate in (maximum, greedy_mate(g, rng)):
            exposed = [v for v in range(g.n) if mate[v] == -1]
            covered = [v for v in range(g.n) if mate[v] != -1]
            sets = [rng.sample(covered, rng.randint(0, len(covered))) for _ in range(4)]
            if mate is maximum:
                sets.append(search.inner())
            for u in sets:
                d, c, d_star, odd = full_traversal(g, u)
                got_d, got_d_star, got_odd = _odd_part(g.adjacency, mate, u, exposed)
                assert (set(got_d), set(got_d_star), got_odd) == (d, d_star, odd)
                assert len(got_d) == len(d) and len(got_d_star) == len(d_star)
                checked += 1
                even += bool(c)
            if exposed:
                with pytest.raises(InternalInvariantError, match="is exposed"):
                    _odd_part(g.adjacency, mate, covered[:1] + exposed[:1], exposed)
                rejected += 1
    assert checked >= 1000 and even >= 300 and rejected >= 100
