"""Shared graph builders, matching checks and engine faults for the test suite."""

import bisect

from matchcover import Graph, blossom, cover, dstar, gallai_edmonds, random_connected_graph


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


def complete_bipartite_graph(k, big):
    """K_{k,big} with the small side at vertices 0..k-1."""
    return Graph.from_edges(k + big, [(a, k + d) for a in range(k) for d in range(big)])


def petersen_graph():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + spokes + inner)


def greedyhard(k):
    """Tree on 4a - 1 vertices, a = 2^k machines 0..a-1: round r = 1..k has
    a/2^r jobs, job i joining machines i and a/2^r + i, and each machine
    has two pendant leaves.  The least-loaded seed, ties to the lowest id,
    stacks k jobs on machine 0 (Azar, Naor and Rom 1995); mc = 3."""
    a = 1 << k
    edges, n = [], a
    for r in range(1, k + 1):
        for i in range(a >> r):
            edges += [(i, n), ((a >> r) + i, n)]
            n += 1
    for machine in range(a):
        edges += [(machine, n), (machine, n + 1)]
        n += 2
    return Graph.from_edges(n, edges)


def covered_by(m):
    """The set of vertices that the matching m covers."""
    return {v for e in m.pairs for v in e}


def is_matching_of(g, m):
    """True iff m has g's vertex count and its pairs are distinct-ended
    edges (u, v), u < v, of g."""
    return (
        m.n == g.n
        and all(0 <= u < v < g.n and v in g.adjacency[u] for u, v in m.pairs)
        and len(covered_by(m)) == 2 * len(m)
    )


def is_perfect_on(g, m):
    """True iff the matching m of g covers every vertex of g."""
    return is_matching_of(g, m) and 2 * len(m) == g.n


def unmatch_one_pair(patch, index=0):
    """Make ``decompose``'s blossom pass drop one matched pair (number
    ``index``, modulo the pair count) after it has grown its last forest,
    which still names A.  ``patch`` is a pytest monkeypatch."""
    maximize = blossom._maximize

    def short(adj, mate):
        search = maximize(adj, mate)
        pairs = [(u, w) for u, w in enumerate(mate) if u < w]
        u, w = pairs[index % len(pairs)]
        mate[u] = mate[w] = -1
        return search

    patch.setattr(gallai_edmonds, "_maximize", short)


def plant_mate(patch, pairs):
    """Make ``decompose``'s blossom pass end with the mate list of ``pairs``
    in place of the matching it grew, its last forest kept.  ``patch`` is a
    pytest monkeypatch."""
    maximize = blossom._maximize

    def planted(adj, mate):
        search = maximize(adj, mate)
        mate[:] = [-1] * len(mate)
        for u, v in pairs:
            mate[u], mate[v] = v, u
        return search

    patch.setattr(gallai_edmonds, "_maximize", planted)


def star_table(a_side, center):
    """The star table of an assignment center (D-vertex -> A-vertex) over
    the A-vertices a_side: every A-vertex, ascending, to its D-vertices,
    ascending; an idle center to []."""
    stars = {a: [] for a in sorted(a_side)}
    for d in sorted(center):
        stars[center[d]].append(d)
    return stars


def misroute_first_switch(patch, g):
    """Make balancing's first phase apply one path that moves a D*-vertex
    to an A-vertex it is not adjacent to in g, and end balancing there.

    The fault replaces the phase search, not ``transform``: the seed of
    K_{3,10} less an edge is already balanced, so no real path is ever
    applied on it."""
    done = []

    def misrouted(adj, stars, roots, delta):
        if done:
            return
        done.append(True)
        a, d, b = next(
            (a, d, b)
            for a, ds in stars.items()
            for d in ds
            for b in stars
            if b not in g.adjacency[d]
        )
        path = dstar.SwitchingPath((a, d, b))
        dstar.transform(stars, path)
        yield path

    patch.setattr(dstar, "_phase", misrouted)


def share_a_dstar_vertex(patch):
    """Make balancing end with one D*-vertex also placed second in another,
    adjacent center's star, so that level 2 pairs it with both centers."""
    optimize = cover.optimize

    def doubled(adj, stars, trace=None):
        count = optimize(adj, stars, trace)
        d, b = next(
            (ds[1], b)
            for a, ds in stars.items()
            if len(ds) > 1
            for b in adj[ds[1]]
            if b != a and stars[b]
        )
        stars[b].insert(1, d)
        return count

    patch.setattr(cover, "optimize", doubled)


def stall_transform(patch):
    """Make every switching path move nothing, so that balancing finds the
    same path again and again; return the list of paths handed to the
    transform."""
    paths = []
    patch.setattr(dstar, "transform", lambda stars, path: paths.append(path))
    return paths


def pile_on_first_center(patch):
    """Make each switching path move a D*-vertex from another nonempty star
    onto the path's first center, a maximum one, so that the maximum star
    size goes up."""

    def heavier(stars, path):
        first = path.vertices[0]
        donor = next(a for a, ds in stars.items() if a != first and ds)
        bisect.insort(stars[first], stars[donor].pop())

    patch.setattr(dstar, "transform", heavier)


def balancing_faults():
    """(id, graph, inject) for each planted balancing fault; inject(patch)
    plants it with a pytest monkeypatch.  A D*-vertex of K_{3,10} is
    adjacent to every A-vertex, so the non-edge fault runs on K_{3,10}
    less the edge 2-12 instead."""
    tree = random_connected_graph(300, m=303, seed=0)
    k310 = complete_bipartite_graph(3, 10)
    k310_gap = Graph.from_edges(13, [e for e in k310.edges if e != (2, 12)])
    return [
        ("non_edge_tree", tree, lambda patch: misroute_first_switch(patch, tree)),
        ("non_edge_k310_gap", k310_gap,
         lambda patch: misroute_first_switch(patch, k310_gap)),
        ("shared_tree", tree, share_a_dstar_vertex),
        ("shared_k310", k310, share_a_dstar_vertex),
    ]
