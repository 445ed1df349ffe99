import random
from collections import deque

import pytest

from matchcover import (
    Graph,
    InternalInvariantError,
    brute_md,
    random_connected_graph,
    solve,
)
from matchcover.dstar import (
    SwitchingPath,
    build_forest,
    find_switching_path,
    initial_cover,
    max_load,
    optimize,
    transform,
)
from matchcover.gallai_edmonds import decompose
from matchcover.oracle import OracleBudget

from conftest import (
    complete_bipartite_graph,
    pile_on_first_center,
    stall_transform,
    star_table,
)

BUDGET = OracleBudget(max_vertices=12, max_edges=66)


# Hand-built derived graphs below are an A list and a dict mapping each
# D*-vertex to its A-neighbours, ascending: the host adjacency lists at D*.


def test_initial_cover_p3():
    adj = {0: [1], 2: [1]}
    stars = initial_cover(adj, [1], adj, [1, 0, -1])
    assert stars == {1: [0, 2]}
    assert max_load(stars) == 2


def test_initial_cover_star_forced():
    adj = {1: [0], 2: [0], 3: [0]}
    stars = initial_cover(adj, [0], adj, [1, 0, -1, -1])
    assert stars == {0: [1, 2, 3]}
    assert max_load(stars) == 3


def test_initial_cover_two_disjoint_edges():
    adj = {2: [0], 3: [1]}
    stars = initial_cover(adj, [0, 1], adj, [2, 3, 0, 1])
    assert max_load(stars) == 1
    assert stars == {0: [2], 1: [3]}


def lowest_id_table(adj, a_side, d_star):
    """Every D-vertex on its lowest-id A-neighbour: a far-from-balanced
    start, so the balancing loop passes through many covers."""
    return star_table(a_side, {d: adj[d][0] for d in d_star})


def test_initial_cover_tie_goes_to_lowest_id():
    """Exposed 3 sees equal loads on 0 and 1 and takes 0; exposed 4 then
    sees 0 loaded and takes 1; exposed 5 ties again and takes 0."""
    adj = {3: [0, 1], 4: [0, 1], 5: [0, 1]}
    assert initial_cover(adj, [0, 1], adj, [-1] * 6) == {0: [3, 5], 1: [4]}


def test_initial_cover_counts_partners_before_exposed():
    """Partner 5 of center 0 counts before any exposed vertex is placed,
    although it has the highest id, so exposed 2 avoids center 0; a table
    that counted only the vertices before 2 in id order would put it there.
    Exposed 3 then ties and takes center 0."""
    adj = {2: [0, 1], 3: [0, 1], 5: [0]}
    mate = [5, -1, -1, -1, -1, 0]
    assert initial_cover(adj, [0, 1], adj, mate) == {0: [3, 5], 1: [2]}


def test_initial_cover_least_loaded_neighbour():
    """Exposed 6 goes to center 2, the only neighbour with an empty star,
    past the lower ids 0 and 1 that hold partners."""
    adj = {3: [0], 4: [1], 5: [0, 1], 6: [0, 1, 2]}
    mate = [3, 4, -1, 0, 1, -1, -1]
    assert initial_cover(adj, [0, 1, 2], adj, mate) == {0: [3, 5], 1: [4], 2: [6]}


def test_initial_cover_stars_ascending():
    """An exposed vertex below a partner lands before it in the star."""
    adj = {2: [0], 3: [1], 4: [0, 1], 5: [1]}
    mate = [5, 2, 1, -1, -1, 0]
    stars = initial_cover(adj, [0, 1], adj, mate)
    assert stars == {0: [4, 5], 1: [2, 3]}
    assert all(ds == sorted(ds) for ds in stars.values())


def test_effective_degree():
    """A center's effective degree is its star's length; the idle A-vertex
    3 holds an empty star, and no D-vertex keys the table."""
    stars = star_table([1, 3], {0: 1, 2: 1})
    assert stars == {1: [0, 2], 3: []}
    assert len(stars[1]) == 2
    assert len(stars[3]) == 0


def test_single_edge_star_degree():
    stars = star_table([0], {1: 0})
    assert len(stars[0]) == 1


# A small instance used repeatedly below: center u=0 carries d-vertices
# 2,3,4 while A-vertex 1 sits idle, adjacent only to 4.
def _lopsided():
    adj = {2: [0], 3: [0], 4: [0, 1]}
    stars = star_table([0, 1], {2: 0, 3: 0, 4: 0})
    return adj, stars


def _forest(adj, stars):
    """The forest rooted at the table's largest stars, as (root_of, pred)."""
    return build_forest(adj, stars, max_load(stars))


def _roots(root_of):
    """The forest's roots, ascending: the fixed points of root_of."""
    return sorted(a for a, r in root_of.items() if a == r)


def _forest_d_side(root_of, stars):
    """The forest's D-vertices: the stars of its A-vertices."""
    return {d for a in root_of for d in stars[a]}


def test_build_forest_pulls_in_idle_center():
    adj, stars = _lopsided()
    root_of, pred = _forest(adj, stars)
    assert _roots(root_of) == [0]
    assert set(root_of) == {0, 1}
    assert _forest_d_side(root_of, stars) == {2, 3, 4}
    assert pred[1] == (4, 0)


def test_build_forest_no_growth_on_full_star():
    adj = {1: [0], 2: [0], 3: [0]}
    stars = star_table([0], {1: 0, 2: 0, 3: 0})
    root_of, pred = _forest(adj, stars)
    assert _roots(root_of) == [0]
    assert set(root_of) == {0}
    assert pred == {}


def test_build_forest_two_components_two_trees():
    adj = {2: [0], 3: [0], 4: [1], 5: [1]}
    stars = star_table([0, 1], {2: 0, 3: 0, 4: 1, 5: 1})
    root_of, _ = _forest(adj, stars)
    assert _roots(root_of) == [0, 1]
    assert root_of[0] == 0 and root_of[1] == 1


def test_forest_closure():
    """No derived-graph edge may leave the forest's D side for an A-vertex
    outside the forest once building finishes."""
    for seed in range(60):
        g = random_connected_graph(9, p=0.3, seed=seed)
        ge = decompose(g)
        if not ge.a or not ge.d_star:
            continue
        stars = lowest_id_table(g.adjacency, ge.a, ge.d_star)
        if max_load(stars) < 2:
            continue
        root_of, _ = _forest(g.adjacency, stars)
        for d in _forest_d_side(root_of, stars):
            for a in g.adjacency[d]:
                assert a in root_of


def _full_forest(adj, stars):
    """Reference forest as (root_of, pred): every tree grown until its queue
    of D-vertices is empty, from each A-vertex of maximum star size in
    ascending order; each tree edge names the D-vertex and its center."""
    delta = max(len(ds) for ds in stars.values())
    center = {d: a for a, ds in stars.items() for d in ds}
    root_of, pred = {}, {}
    for u in [a for a in stars if len(stars[a]) == delta]:
        if u in root_of:
            continue
        root_of[u] = u
        queue = deque(stars[u])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if y in root_of:
                    continue
                root_of[y] = u
                pred[y] = (x, center[x])
                queue.extend(stars[y])
    return root_of, pred


def _check_forest_and_path(adj, stars):
    """The forest equals full growth, each pred entry is a tree edge, and
    the switching path read from it alternates; return both."""
    root_of, pred = _forest(adj, stars)
    assert (root_of, pred) == _full_forest(adj, stars)
    for y, (x, a) in pred.items():
        assert x in stars[a]
        assert y in adj[x]
        assert root_of[a] == root_of[y]
    path = find_switching_path(root_of, pred, stars)
    if path is not None:
        verts = path.vertices
        assert root_of[verts[0]] == verts[0]
        # each D-vertex is in the star of the center before it, and
        # adjacent to the center after it
        for a, d, a_next in zip(verts[0::2], verts[1::2], verts[2::2]):
            assert d in stars[a]
            assert a_next in adj[d]
    return root_of, path


@pytest.mark.parametrize(
    "a_side, adj, root_of",
    [
        # A-vertex 2 has no D-neighbour: the forest never holds every
        # A-vertex, so growth runs to the end
        ([0, 1, 2], {3: [0], 4: [0, 1], 5: [0]}, {0: 0, 1: 0}),
        # two components: the first tree claims its own, and the second
        # stops once it holds the last A-vertex
        (
            [0, 1, 2, 3],
            {4: [0, 1], 5: [0], 6: [0], 7: [2, 3], 8: [2], 9: [2]},
            {0: 0, 1: 0, 2: 2, 3: 2},
        ),
    ],
    ids=["isolated_a_vertex", "disconnected"],
)
def test_build_forest_stop_keeps_forest(a_side, adj, root_of):
    """Each D-vertex on its first A-neighbour; same forest as full growth."""
    stars = star_table(a_side, {d: nb[0] for d, nb in adj.items()})
    forest = _forest(adj, stars)
    assert forest == _full_forest(adj, stars)
    assert forest[0] == root_of


def test_build_forest_stop_keeps_forest_random():
    """Same roots, root_of and pred as full growth on random derived graphs
    and covers, including every cover the balancing loop passes through;
    every pred entry is a tree edge and every switching path alternates."""
    rng = random.Random(7)
    all_claimed = paths = 0
    for _ in range(400):
        a_side = list(range(rng.randint(1, 6)))
        n_a = len(a_side)
        adj = {
            n_a + i: rng.sample(a_side, rng.randint(1, n_a))
            for i in range(rng.randint(1, 14))
        }
        stars = star_table(a_side, {d: rng.choice(nb) for d, nb in adj.items()})
        root_of, path = _check_forest_and_path(adj, stars)
        paths += path is not None
        all_claimed += len(root_of) == n_a
    assert all_claimed >= 100
    assert paths >= 100
    checked = 0
    for seed in range(200):
        g = random_connected_graph(20, p=0.15, seed=seed)
        ge = decompose(g)
        if not ge.a:
            continue
        stars = lowest_id_table(g.adjacency, ge.a, ge.d_star)

        def same_as_full(*_):
            _check_forest_and_path(g.adjacency, stars)

        same_as_full()
        checked += optimize(g.adjacency, stars, trace=same_as_full) + 1
    assert checked >= 150


class _CountingAdj(dict):
    def __init__(self, adj):
        super().__init__(adj)
        self.reads = 0

    def __getitem__(self, d):
        self.reads += 1
        return super().__getitem__(d)


def test_build_forest_stops_once_every_a_vertex_is_claimed():
    """On K_{3,12} with every D-vertex on center 0, the first D-vertex
    reaches both other centers and no further adjacency list is read."""
    adj = _CountingAdj({d: [0, 1, 2] for d in range(3, 15)})
    stars = star_table([0, 1, 2], {d: 0 for d in range(3, 15)})
    forest = build_forest(adj, stars, 12)
    assert adj.reads == 1
    assert forest == _full_forest(adj, stars)
    assert forest[1] == {1: (3, 0), 2: (3, 0)}


def test_find_switching_path_lopsided():
    adj, stars = _lopsided()
    path = find_switching_path(*_forest(adj, stars), stars)
    assert path is not None
    assert path.vertices == (0, 4, 1)


def test_find_switching_path_none_on_full_star():
    adj = {1: [0], 2: [0], 3: [0]}
    stars = star_table([0], {1: 0, 2: 0, 3: 0})
    assert find_switching_path(*_forest(adj, stars), stars) is None


def test_find_switching_path_none_when_degrees_close():
    adj = {2: [0], 3: [0, 1], 4: [1]}
    stars = star_table([0, 1], {2: 0, 3: 0, 4: 1})
    assert find_switching_path(*_forest(adj, stars), stars) is None


def test_transform_lopsided():
    _, stars = _lopsided()
    assert transform(stars, SwitchingPath((0, 4, 1))) is None
    assert stars == {0: [2, 3], 1: [4]}
    assert len(stars[0]) == 2
    assert len(stars[1]) == 1


def test_transform_degree_bookkeeping():
    """Four centers with star sizes (3, 3, 2, 1); the switching path from
    the first to the last moves one unit: sizes become (2, 3, 2, 2)."""
    stars = star_table(
        [0, 1, 2, 3],
        {4: 0, 5: 0, 6: 0, 7: 1, 8: 1, 9: 1, 10: 2, 11: 2, 12: 3},
    )
    before = [len(stars[a]) for a in (0, 1, 2, 3)]
    assert before == [3, 3, 2, 1]
    transform(stars, SwitchingPath((0, 6, 1, 9, 2, 11, 3)))
    after = [len(stars[a]) for a in (0, 1, 2, 3)]
    assert after == [2, 3, 2, 2]
    assert stars == {0: [4, 5], 1: [6, 7, 8], 2: [9, 10], 3: [11, 12]}
    assert max_load(stars) == 3


def test_optimize_lopsided_reaches_two():
    adj, stars = _lopsided()
    transforms = optimize(adj, stars)
    assert max_load(stars) == 2
    assert max_load(stars) == brute_md(adj, [0, 1], adj)
    assert transforms == 1


def test_optimize_perfect_cover_unchanged():
    adj = {2: [0], 3: [1]}
    stars = star_table([0, 1], {2: 0, 3: 1})
    assert optimize(adj, stars) == 0
    assert stars == {0: [2], 1: [3]}
    assert max_load(stars) == 1


def test_optimize_full_star_stuck_at_three():
    adj = {1: [0], 2: [0], 3: [0]}
    stars = star_table([0], {1: 0, 2: 0, 3: 0})
    optimize(adj, stars)
    assert max_load(stars) == 3
    assert brute_md(adj, [0], adj) == 3


def test_optimize_stalled_transform_exceeds_bound(monkeypatch):
    """A transform that moves nothing leaves the same switching path to be
    found again; the loop aborts on path |A| + |D*| + 1 = 2 + 3 + 1."""
    adj, stars = _lopsided()
    paths = stall_transform(monkeypatch)
    with pytest.raises(InternalInvariantError, match="transform count exceeded"):
        optimize(adj, stars)
    assert len(paths) == 6
    assert set(paths) == {SwitchingPath((0, 4, 1))}


def test_optimize_raised_maximum_aborts(monkeypatch):
    """A move that piles a D*-vertex onto the maximum center raises the
    maximum star size from 3 to 4, and the loop aborts on that path."""
    adj = {2: [0], 3: [0], 4: [0, 1], 5: [1]}
    stars = star_table([0, 1], {2: 0, 3: 0, 4: 0, 5: 1})
    pile_on_first_center(monkeypatch)
    with pytest.raises(InternalInvariantError, match="maximum star size increased"):
        optimize(adj, stars)
    assert stars == {0: [2, 3, 4, 5], 1: []}


def test_optimize_matches_brute_md_random():
    checked = 0
    for seed in range(400):
        g = random_connected_graph(10, p=0.3, seed=seed)
        ge = decompose(g)
        if not ge.a or not ge.d_star:
            continue
        adj = g.adjacency
        deltas = []

        def check_table():
            # one star per A-vertex, keyed ascending, each star ascending,
            # and every D-vertex in exactly one star
            assert list(stars) == sorted(ge.a)
            assert all(ds == sorted(ds) for ds in stars.values())
            assert sum(map(len, stars.values())) == len(ge.d_star)

        def after_transform(path, delta):
            deltas.append(delta)
            check_table()

        stars = initial_cover(adj, ge.a, ge.d_star, [-1] * g.n)
        check_table()
        transforms = optimize(adj, stars, trace=after_transform)
        assert max_load(stars) == brute_md(adj, ge.a, ge.d_star, BUDGET)
        assert transforms <= len(ge.a) + len(ge.d_star)
        # the maximum star size never increases between transforms
        assert all(b <= a for a, b in zip(deltas, deltas[1:]))
        # the in-place updates keep every D-vertex in exactly one star,
        # that of an A-neighbour
        center = {d: a for a, ds in stars.items() for d in ds}
        assert sorted(center) == sorted(ge.d_star)
        assert all(a in adj[d] for d, a in center.items())
        checked += 1
    assert checked >= 50


def test_optimize_from_matching_seed_matches_brute_md_random():
    """Seeded as ``solve`` seeds it, from the maximum matching's partners,
    the balancing loop still reaches md on random graphs up to n = 12."""
    checked = transformed = 0
    for seed in range(1000):
        n = 6 + seed % 7
        g = random_connected_graph(n, p=0.2 + 0.05 * (seed % 5), seed=seed)
        ge = decompose(g)
        if not ge.a:
            continue
        adj = g.adjacency
        stars = initial_cover(adj, ge.a, ge.d_star, ge.mate)
        assert list(stars) == sorted(ge.a)
        assert all(ds == sorted(ds) for ds in stars.values())
        assert all(d in stars[ge.mate[d]] for d in ge.d_star if ge.mate[d] != -1)
        count = optimize(adj, stars)
        assert max_load(stars) == brute_md(adj, ge.a, ge.d_star, BUDGET)
        assert count <= len(ge.a) + len(ge.d_star)
        center = {d: a for a, ds in stars.items() for d in ds}
        assert sorted(center) == sorted(ge.d_star)
        assert all(a in adj[d] for d, a in center.items())
        checked += 1
        transformed += count > 0
    assert checked >= 400
    assert transformed >= 10


@pytest.mark.parametrize("k, big", [(2, 7), (3, 10), (4, 122), (7, 451), (10, 885)])
@pytest.mark.parametrize("relabel", [False, True])
def test_initial_cover_balances_complete_bipartite(k, big, relabel):
    """On K_{k,L} the seed is already balanced at ceil(L/k), with the ids
    in block order or shuffled, and the loop applies no transform."""
    g = complete_bipartite_graph(k, big)
    if relabel:
        perm = list(range(g.n))
        random.Random(k).shuffle(perm)
        g = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])
    ge = decompose(g)
    stars = initial_cover(g.adjacency, ge.a, ge.d_star, ge.mate)
    assert max_load(stars) == -(-big // k)
    assert optimize(g.adjacency, stars) == 0


def skewed_host(a):
    """Random bipartite host with a barrier of a A-vertices 0..a-1 and 10a
    D-vertices: each D-vertex joins one A-vertex among the lowest a/10 ids
    and one uniform A-vertex (one edge when the two coincide)."""
    rng = random.Random(1)
    edges = set()
    for d in range(a, 11 * a):
        edges.add((rng.randrange(a // 10), d))
        edges.add((rng.randrange(a), d))
    return Graph.from_edges(11 * a, sorted(edges))


def test_optimize_skewed_host_transforms_at_most_a():
    """A lowest-id start piles D* onto the low tenth of A and needs 1942
    transforms at a = 250; seeded least-loaded it needs at most |A| (64)."""
    g = skewed_host(250)
    ge = decompose(g)
    assert len(ge.a) == 250 and len(ge.d_star) == 2500
    stars = initial_cover(g.adjacency, ge.a, ge.d_star, ge.mate)
    assert optimize(g.adjacency, stars) <= len(ge.a)
    assert max_load(stars) == solve(g).md


@pytest.mark.parametrize(
    "k, big, transforms",
    [(1, 5, None), (2, 3, None), (3, 10, None), (4, 17, None),
     (7, 23, None), (5, 60, None), (20, 2000, 0)],
)
def test_optimize_complete_bipartite_closed_form(k, big, transforms):
    """K_{k,L} with L > k: the large side is D*, the small side A, and the
    stars balance to md = ceil(L/k), which is also mc.  The least-loaded
    seed deals the exposed side round the centers, so K_{20,2000} needs no
    transform (1881 from a lowest-id seed)."""
    g = complete_bipartite_graph(k, big)
    ge = decompose(g)
    stars = initial_cover(g.adjacency, ge.a, ge.d_star, ge.mate)
    count = optimize(g.adjacency, stars)
    md = -(-big // k)
    assert max_load(stars) == md
    assert count <= len(ge.a) + len(ge.d_star)
    if transforms is not None:
        assert count == transforms
    assert solve(g).cover.k == md

