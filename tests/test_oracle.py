import pytest

from matchcover import Graph, brute_mc
from matchcover.oracle import OracleBudget, OracleBudgetError

from conftest import cycle_graph, path_graph, petersen_graph, star_graph
from reference import brute_d_set, brute_md, brute_nu

BUDGET = OracleBudget(max_vertices=12, max_edges=66)


def test_brute_nu():
    assert brute_nu(cycle_graph(3)) == 1
    assert brute_nu(path_graph(4)) == 2
    assert brute_nu(petersen_graph(), OracleBudget(12, 66)) == 5


def test_brute_mc():
    assert brute_mc(Graph.from_edges(2, [(0, 1)])) == 1
    assert brute_mc(star_graph(3)) == 3
    assert brute_mc(cycle_graph(3)) == 2


def test_brute_mc_errors():
    with pytest.raises(ValueError, match="empty graph"):
        brute_mc(Graph.from_edges(0, []))
    with pytest.raises(ValueError, match="single vertex"):
        brute_mc(Graph.from_edges(1, []))
    with pytest.raises(ValueError, match="isolated"):
        brute_mc(Graph.from_edges(3, [(0, 1)]))


def test_brute_md():
    # the derived graph as its A list and a dict of D*-vertices to their
    # A-neighbours, which serves as D* too
    assert brute_md({}, [0, 1], {}) == 0
    k13 = {1: [0], 2: [0], 3: [0]}
    assert brute_md(k13, [0], k13) == 3
    lopsided = {2: [0], 3: [0], 4: [0, 1]}
    assert brute_md(lopsided, [0, 1], lopsided) == 2


def test_brute_d_set():
    assert brute_d_set(path_graph(3)) == {0, 2}
    assert brute_d_set(path_graph(4)) == frozenset()
    assert brute_d_set(cycle_graph(3)) == {0, 1, 2}


def test_budget_enforced():
    big = path_graph(13)
    with pytest.raises(OracleBudgetError, match="vertices"):
        brute_nu(big)
    dense = Graph.from_edges(8, [(i, j) for i in range(8) for j in range(i + 1, 8)])
    with pytest.raises(OracleBudgetError, match="edges"):
        brute_mc(dense)  # 28 edges over the default edge budget
    assert brute_mc(dense, OracleBudget(12, 66)) == 1


def test_mc_one_iff_perfect():
    for g in (path_graph(4), cycle_graph(4), cycle_graph(6)):
        assert brute_mc(g, BUDGET) == 1
        assert brute_nu(g, BUDGET) * 2 == g.n
    for g in (path_graph(5), cycle_graph(5), star_graph(2)):
        assert brute_mc(g, BUDGET) >= 2
        assert brute_nu(g, BUDGET) * 2 < g.n
