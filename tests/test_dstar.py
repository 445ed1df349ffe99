import random
from collections import deque

import pytest

from matchcover import (
    Graph,
    InternalInvariantError,
    random_connected_graph,
    solve,
    verify_cover,
)
from matchcover import dstar
from matchcover.dstar import (
    SwitchingPath,
    _phase,
    initial_cover,
    max_load,
    optimize,
    transform,
)
from matchcover.gallai_edmonds import decompose
from matchcover.oracle import OracleBudget

from conftest import (
    complete_bipartite_graph,
    greedyhard,
    pile_on_first_center,
    stall_transform,
    star_table,
)
from reference import brute_md

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


def _paths(adj, stars):
    """The vertex tuples of one phase's paths from the table's largest
    stars; the phase applies them to stars."""
    delta = max_load(stars)
    roots = [a for a, ds in stars.items() if len(ds) == delta]
    return [path.vertices for path in _phase(adj, stars, roots, delta)]


class _CountingAdj(dict):
    def __init__(self, adj):
        super().__init__(adj)
        self.reads = 0

    def __getitem__(self, d):
        self.reads += 1
        return super().__getitem__(d)


class _NoStop(dict):
    """A star table that overstates its A side by one, so that a phase's
    search never finds every A-vertex reached and never stops early."""

    def __len__(self):
        return super().__len__() + 1


def _check_paths(adj, stars, paths):
    """Replayed on a copy of stars, in order, each path starts at a center
    of the largest load delta, ends at one of load at most delta - 2 and
    alternates: each D-vertex is in the star of the center before it and
    adjacent to the center after it.  No center is on two paths."""
    stars = {a: list(ds) for a, ds in stars.items()}
    delta = max_load(stars)
    used = set()
    for verts in paths:
        centers = verts[0::2]
        assert used.isdisjoint(centers) and len(set(centers)) == len(centers)
        used.update(centers)
        assert len(stars[verts[0]]) == delta
        assert len(stars[verts[-1]]) <= delta - 2
        for a, d, a_next in zip(verts[0::2], verts[1::2], verts[2::2]):
            assert d in stars[a]
            assert a_next in adj[d]
        transform(stars, SwitchingPath(verts))


def _phase_both_ways(adj, stars):
    """One phase on copies of stars, with and without the early stop: the
    same paths and the same table; every path checked.  Return the paths,
    stars untouched."""
    stop = {a: list(ds) for a, ds in stars.items()}
    full = _NoStop((a, list(ds)) for a, ds in stars.items())
    paths = _paths(adj, stop)
    assert paths == _paths(adj, full)
    assert stop == full
    _check_paths(adj, stars, paths)
    return paths


def test_phase_pulls_in_idle_center():
    adj, stars = _lopsided()
    assert _paths(adj, stars) == [(0, 4, 1)]
    assert stars == {0: [2, 3], 1: [4]}


def _full_star():
    adj = _CountingAdj({1: [0], 2: [0], 3: [0]})
    stars = star_table([0], {1: 0, 2: 0, 3: 0})
    return adj, stars


def test_build_forest_no_growth_on_full_star():
    """The one center is the one root, so the phase's search (which took
    over from the alternating forest) has reached every A-vertex before it
    reads any adjacency list, and grows no further."""
    adj, stars = _full_star()
    _paths(adj, stars)
    assert adj.reads == 0
    assert stars == {0: [1, 2, 3]}


def test_find_switching_path_none_on_full_star():
    """With one center there is no light center to end at: the phase
    yields no switching path."""
    adj, stars = _full_star()
    assert _paths(adj, stars) == []
    assert stars == {0: [1, 2, 3]}


def test_phase_two_components_two_paths():
    """Each component holds a root of load 3 and an idle center: one phase
    applies a path from each root."""
    adj = {4: [0], 5: [0], 6: [0, 1], 7: [2], 8: [2], 9: [2, 3]}
    stars = star_table([0, 1, 2, 3], {d: nb[0] for d, nb in adj.items()})
    assert _paths(adj, stars) == [(0, 6, 1), (2, 9, 3)]
    assert stars == {0: [4, 5], 1: [6], 2: [7, 8], 3: [9]}


def test_phase_ends_at_the_nearest_light_center():
    """Root 0 has load 4; center 1 (load 2) is light and one step away, the
    idle center 2 one step beyond it.  The path stops at center 1, where a
    search for the lightest center would have gone on to 2."""
    adj = {3: [0], 4: [0], 5: [0], 6: [0, 1], 7: [1], 8: [1, 2]}
    stars = star_table([0, 1, 2], {3: 0, 4: 0, 5: 0, 6: 0, 7: 1, 8: 1})
    assert _paths(adj, stars) == [(0, 6, 1)]
    assert stars == {0: [3, 4, 5], 1: [6, 7, 8], 2: []}


def test_phase_none_when_loads_close():
    adj = {2: [0], 3: [0, 1], 4: [1]}
    stars = star_table([0, 1], {2: 0, 3: 0, 4: 1})
    assert _paths(adj, stars) == []
    assert stars == {0: [2, 3], 1: [4]}


def test_optimize_uses_each_center_once_per_phase():
    """Roots 0 and 1 (load 3) both reach only the idle center 2.  The first
    phase takes it for root 0, so root 1 waits for the next phase; the
    traced maximum is 3 while root 1 is left, then 2."""
    adj = {3: [0], 4: [0], 5: [0, 2], 6: [1], 7: [1], 8: [1, 2]}
    stars = star_table([0, 1, 2], {d: nb[0] for d, nb in adj.items()})
    traced = []
    count = optimize(adj, stars, trace=lambda path, delta: traced.append(
        (path.vertices, delta)))
    assert count == 2
    assert traced == [((0, 5, 2), 3), ((1, 8, 2), 2)]
    assert stars == {0: [3, 4], 1: [6, 7], 2: [5, 8]}


@pytest.mark.parametrize(
    "a_side, adj, paths",
    [
        # A-vertex 2 has no D-neighbour: the search never reaches every
        # A-vertex, so it runs to its light layer
        ([0, 1, 2], {3: [0], 4: [0, 1], 5: [0]}, [(0, 4, 1)]),
        # two components: layer 1 reaches the last A-vertex and holds both
        # light centers
        (
            [0, 1, 2, 3],
            {4: [0, 1], 5: [0], 6: [0], 7: [2, 3], 8: [2], 9: [2]},
            [(0, 4, 1), (2, 7, 3)],
        ),
    ],
    ids=["isolated_a_vertex", "disconnected"],
)
def test_phase_stop_keeps_paths(a_side, adj, paths):
    """Each D-vertex on its first A-neighbour; same paths as a search
    without the early stop."""
    stars = star_table(a_side, {d: nb[0] for d, nb in adj.items()})
    assert _phase_both_ways(adj, stars) == paths


def test_phase_stop_keeps_paths_random():
    """Same paths and table as a search without the early stop on random
    derived graphs and covers, including every cover the balancing loop
    passes through; every path is checked by _check_paths."""
    rng = random.Random(7)
    stopped = with_paths = 0
    for _ in range(400):
        a_side = list(range(rng.randint(1, 6)))
        adj = {
            len(a_side) + i: rng.sample(a_side, rng.randint(1, len(a_side)))
            for i in range(rng.randint(1, 14))
        }
        stars = star_table(a_side, {d: rng.choice(nb) for d, nb in adj.items()})
        paths = _phase_both_ways(adj, stars)
        with_paths += bool(paths)
        stopped += not paths and len(_reached(adj, stars)) == len(a_side)
    assert stopped >= 100
    assert with_paths >= 100
    checked = 0
    for seed in range(200):
        g = random_connected_graph(20, p=0.15, seed=seed)
        ge = decompose(g)
        if not ge.a:
            continue
        stars = lowest_id_table(g.adjacency, ge.a, ge.d_star)

        def both_ways(*_):
            _phase_both_ways(g.adjacency, stars)

        both_ways()
        checked += optimize(g.adjacency, stars, trace=both_ways) + 1
    assert checked >= 150


def test_phase_stops_once_every_a_vertex_is_reached():
    """K_{3,13} with loads 5, 4, 4: the first star member of root 0 reaches
    both other centers, neither is light, and no further adjacency list is
    read."""
    adj = _CountingAdj({d: [0, 1, 2] for d in range(3, 16)})
    stars = star_table([0, 1, 2], {d: (d - 3) % 3 for d in range(3, 16)})
    assert [len(ds) for ds in stars.values()] == [5, 4, 4]
    assert _paths(adj, stars) == []
    assert adj.reads == 1


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


def skewed_host(a, pin=False):
    """Random bipartite host with a barrier of a A-vertices 0..a-1 and 10a
    D-vertices: each D-vertex joins one A-vertex among the lowest a/10 ids
    and one uniform A-vertex (one edge when the two coincide).  With pin,
    each A-vertex j also joins D-vertex a + 10j, so that none is isolated
    (ROADMAP's skewbip)."""
    rng = random.Random(1)
    edges = set()
    for d in range(a, 11 * a):
        edges.add((rng.randrange(a // 10), d))
        edges.add((rng.randrange(a), d))
    if pin:
        edges.update((j, a + 10 * j) for j in range(a))
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


def test_optimize_scans_once_per_phase(monkeypatch):
    """greedyhard(10) takes hundreds of switching paths, but the table is
    scanned for its maximum once per phase, not once per path."""
    g = greedyhard(10)
    assert g.n == 4095
    calls = []
    scan = dstar.max_load
    monkeypatch.setattr(dstar, "max_load", lambda stars: calls.append(1) or scan(stars))
    res = solve(g)
    assert len(calls) < 64 < res.transforms
    assert res.md == 3
    assert verify_cover(g, res.cover)


def _reached(adj, stars):
    """The A-vertices that the centers of the largest load reach by center
    -> star member -> A-neighbour steps, those centers included."""
    delta = max_load(stars)
    seen = {a for a, ds in stars.items() if len(ds) == delta}
    todo = list(seen)
    while todo:
        for x in stars[todo.pop()]:
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    todo.append(y)
    return seen


def assert_hall_witness(adj, stars):
    """The balanced table's largest load md is a lower bound on the number
    of matchings that cover D*.  S, the union of the stars of the reached
    centers, has N(S) = those centers, so |S| > (md - 1)|N(S)| follows
    when no reached center has load md - 2 or less.  S is independent
    with N(S) in A, so a matching covers at most |N(S)| vertices of S."""
    md = max_load(stars)
    reached = _reached(adj, stars)
    s = {x for a in reached for x in stars[a]}
    n_s = {y for x in s for y in adj[x]}
    assert n_s == reached
    assert len(s) > (md - 1) * len(n_s)


def _balanced(g):
    """The star table of g as solve balances it."""
    ge = decompose(g)
    stars = initial_cover(g.adjacency, ge.a, ge.d_star, ge.mate)
    optimize(g.adjacency, stars)
    return stars


def test_final_search_is_a_hall_witness_small():
    """From a lowest-id start on random graphs with n = 9, balancing ends
    on a table whose reached stars make md a lower bound."""
    checked = 0
    for seed in range(60):
        g = random_connected_graph(9, p=0.3, seed=seed)
        ge = decompose(g)
        if not ge.a or not ge.d_star:
            continue
        stars = lowest_id_table(g.adjacency, ge.a, ge.d_star)
        optimize(g.adjacency, stars)
        assert_hall_witness(g.adjacency, stars)
        assert max_load(stars) == brute_md(g.adjacency, ge.a, ge.d_star, BUDGET)
        checked += 1
    assert checked >= 20


@pytest.mark.parametrize(
    "g, md",
    [(skewed_host(500, pin=True), 13), (greedyhard(10), 3)],
    ids=["skewbip_500", "greedyhard_10"],
)
def test_hall_witness_beyond_the_oracle(g, md):
    """md is optimal at sizes the brute-force oracle cannot reach."""
    stars = _balanced(g)
    assert max_load(stars) == md
    assert_hall_witness(g.adjacency, stars)


def test_hall_witness_tree_like_random():
    """100 tree-like graphs, m = n + n/100 and n near 2000."""
    for seed in range(100):
        n = 1950 + seed
        g = random_connected_graph(n, m=n + n // 100, seed=seed)
        stars = _balanced(g)
        assert stars
        assert_hall_witness(g.adjacency, stars)
