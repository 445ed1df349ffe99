import pytest

from matchcover import (
    InternalInvariantError,
    brute_d_set,
    components,
    induced_subgraph,
    random_connected_graph,
)
from matchcover.gallai_edmonds import GallaiEdmonds, decompose
from matchcover.oracle import OracleBudget, is_factor_critical, verify_decomposition

from conftest import complete_graph, cycle_graph, path_graph, unmatch_one_pair

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


def test_verify_p3_true_and_swapped_false():
    g = path_graph(3)
    ge = decompose(g)
    assert verify_decomposition(g, ge)
    swapped = GallaiEdmonds(
        d=ge.a, a=ge.d, c=ge.c,
        max_matching=ge.max_matching,
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
    from matchcover import Graph

    g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
    ge = decompose(g)
    assert ge.d == brute_d_set(g, BUDGET)
    assert verify_decomposition(g, ge)


def test_random_decompositions_verify():
    for n in range(4, 11):
        for seed in range(25):
            g = random_connected_graph(n, p=0.35, seed=seed)
            ge = decompose(g)
            m = ge.max_matching
            assert verify_decomposition(g, ge)
            assert ge.d == brute_d_set(g, BUDGET)
            comps = d_components(g, ge)
            # D* is exactly the set of trivial D-components
            assert ge.d_star == {comp[0] for comp in comps if len(comp) == 1}
            # every D-component induces a factor-critical subgraph
            for comp in comps:
                sub, _ = induced_subgraph(g, comp)
                assert is_factor_critical(sub)
            # matching restricted to C is perfect on C
            matched_in_c = {v for e in m.pairs if set(e) <= ge.c for v in e}
            assert matched_in_c == set(ge.c)
            # deficiency identity on connected graphs with D nonempty
            exposed = set(range(g.n)) - m.vertices()
            assert all(v in ge.d for v in exposed)
            if ge.d:
                assert len(exposed) == len(comps) - len(ge.a)
