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
from matchcover.gallai_edmonds import GallaiEdmonds, decompose
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
from reference import brute_d_set, brute_nu, is_factor_critical, verify_decomposition

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


def component_traversal(g, a):
    """(D, C, D*) read off G - A with a component list for every
    component: odd ones go to D, even ones to C, one-vertex ones to D*."""
    seen = [v in a for v in range(g.n)]
    d, c, d_star = set(), set(), set()
    for s in range(g.n):
        if seen[s]:
            continue
        seen[s] = True
        comp = [s]
        for v in comp:
            for w in g.adjacency[v]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
        (d if len(comp) % 2 else c).update(comp)
        if len(comp) == 1:
            d_star.add(s)
    return d, c, d_star


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
        assert (ge.d, ge.c, ge.d_star) == component_traversal(g, ge.a)
        singletons += len(ge.d_star)
    assert singletons > 10000
