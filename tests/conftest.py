"""Shared graph builders, matching checks and engine faults for the test suite."""

from matchcover import Graph, blossom, gallai_edmonds


def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    return Graph.from_edges(n, edges)


def complete_graph(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(leaves):
    """K_{1,leaves} with the center at vertex 0."""
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def petersen_graph():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + spokes + inner)


def is_matching_of(g, m):
    """True iff m has g's vertex count and its pairs are distinct-ended
    edges (u, v), u < v, of g."""
    return (
        m.n == g.n
        and all(e in g.edge_set for e in m.pairs)
        and len(m.vertices()) == 2 * len(m)
    )


def is_perfect_on(g, m):
    """True iff the matching m of g covers every vertex of g."""
    return is_matching_of(g, m) and 2 * len(m) == g.n


def unmatch_one_pair(patch, index=0):
    """Make ``decompose``'s blossom pass drop one matched pair (number
    ``index``, modulo the pair count) after it has grown its last forest,
    which still names A.  ``patch`` is a pytest monkeypatch."""
    maximize = blossom._maximize

    def short(adj, mate, size=None):
        search = maximize(adj, mate, size)
        pairs = [(u, w) for u, w in enumerate(mate) if u < w]
        u, w = pairs[index % len(pairs)]
        mate[u] = mate[w] = -1
        return search

    patch.setattr(gallai_edmonds, "_maximize", short)
