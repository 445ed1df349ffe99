import inspect
import random
import textwrap

import pytest

from matchcover import Graph, InternalInvariantError, random_connected_graph
from matchcover import blossom, cover, gallai_edmonds, serialize_graph
from matchcover.cli import EXIT_INTERNAL, main
from matchcover.cover import solve
from matchcover.gallai_edmonds import decompose
from matchcover.oracle import OracleBudget

from conftest import (
    complete_graph,
    covered_by,
    cycle_graph,
    is_matching_of,
    is_perfect_on,
    path_graph,
    petersen_graph,
    star_graph,
)
from reference import (
    brute_d_set,
    brute_nu,
    is_factor_critical,
    maximum_matching,
    neighbor_set,
)

BUDGET = OracleBudget(max_vertices=12, max_edges=66)


def grow(g, pairs=()):
    """The matching that the blossom pass grows on g from the matching
    ``pairs``, seeded into the engine's mate list."""
    mate = [-1] * g.n
    for u, v in pairs:
        mate[u], mate[v] = v, u
    blossom._maximize(g.adjacency, mate)
    return blossom._from_mate(mate)


def seed_decompose(monkeypatch, pairs):
    """Make ``decompose``'s blossom pass start from the matching ``pairs``
    rather than from the empty one."""
    maximize = blossom._maximize

    def seeded(adj, mate):
        for u, v in pairs:
            mate[u], mate[v] = v, u
        return maximize(adj, mate)

    monkeypatch.setattr(gallai_edmonds, "_maximize", seeded)


def test_maximum_matching_k2():
    g = Graph.from_edges(2, [(0, 1)])
    m = maximum_matching(g)
    assert len(m) == 1
    assert is_perfect_on(g, m)


def test_maximum_matching_c3():
    assert len(maximum_matching(cycle_graph(3))) == 1


def test_maximum_matching_petersen():
    g = petersen_graph()
    m = maximum_matching(g)
    assert len(m) == 5
    assert is_perfect_on(g, m)
    assert len(m) == brute_nu(g, BUDGET)


def test_augment_empty_on_k2():
    """The empty matching of K2 is not maximum; growing it adds the edge."""
    g = Graph.from_edges(2, [(0, 1)])
    assert decompose(g).mate == (1, 0)
    assert grow(g).pairs == ((0, 1),)


def test_augment_none_when_maximum():
    """A maximum matching is left as it is by growth."""
    g = cycle_graph(3)
    assert decompose(g).d == {0, 1, 2}
    assert grow(g, [(0, 1)]).pairs == ((0, 1),)


def test_augment_c5():
    g = cycle_graph(5)
    assert len(maximum_matching(g)) == 2
    assert grow(g, [(1, 2), (3, 4)]).pairs == ((1, 2), (3, 4))
    m2 = grow(g, [(2, 3)])
    assert len(m2) == 2 and is_matching_of(g, m2) and {2, 3} <= covered_by(m2)


def test_augmentation_grows_coverage():
    """Growing a non-maximum matching of P6 adds edges and uncovers no vertex."""
    g = path_graph(6)
    nu = len(maximum_matching(g))
    for seed in ([], [(1, 2)], [(2, 3)], [(1, 2), (3, 4)]):
        m = grow(g, seed)
        assert len(m) == nu == 3 > len(seed)
        assert {v for e in seed for v in e} <= covered_by(m)


def test_covering_p4_forced():
    m = grow(path_graph(4), [(1, 2)])
    assert set(m.pairs) == {(0, 1), (2, 3)}


def test_covering_c3_empty_seed():
    assert len(grow(cycle_graph(3))) == 1


def test_covering_k4_keeps_seed_vertices():
    g = complete_graph(4)
    m = grow(g, [(0, 2)])
    assert is_perfect_on(g, m)
    assert {0, 2} <= covered_by(m)


def test_random_nu_matches_oracle():
    """At least 500 random small graphs against the subset-DP oracle."""
    count = 0
    for n in range(2, 9):
        for seed in range(80):
            g = random_connected_graph(n, p=0.5, seed=seed)
            assert len(maximum_matching(g)) == brute_nu(g, BUDGET)
            count += 1
    assert count >= 500


def test_covering_property_random():
    for seed in range(120):
        g = random_connected_graph(8, p=0.4, seed=seed)
        seed_m = maximum_matching(Graph.from_edges(g.n, g.edges[: g.m // 3]))
        m = grow(g, seed_m.pairs)
        assert len(m) == brute_nu(g, BUDGET)
        assert covered_by(seed_m) <= covered_by(m)


def test_factor_critical_deletions():
    """For factor-critical graphs, every single-vertex deletion leaves a
    perfect matching the engine must find; odd blossoms are unavoidable."""
    for h in (cycle_graph(3), cycle_graph(5), cycle_graph(7), complete_graph(5)):
        assert is_factor_critical(h)


def test_maximum_matching_on_disconnected_and_empty():
    assert len(maximum_matching(Graph.from_edges(0, []))) == 0
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert len(maximum_matching(g)) == 2


def spider(legs):
    """A center (vertex 0) with one path of each given length hanging off it."""
    edges, n = [], 1
    for length in legs:
        prev = 0
        for _ in range(length):
            edges.append((prev, n))
            prev, n = n, n + 1
    return Graph.from_edges(n, edges)


def cycles_on_path(cycle_lengths):
    """A path with one odd cycle hanging off each of its vertices."""
    k = len(cycle_lengths)
    edges, n = [(i, i + 1) for i in range(k - 1)], k
    for i, length in enumerate(cycle_lengths):
        ring = [i] + list(range(n, n + length - 1))
        edges += [(ring[j], ring[(j + 1) % length]) for j in range(length)]
        n += length - 1
    return Graph.from_edges(n, edges)


def relabeled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def hungarian_family():
    """Graphs whose searches mostly end in failed (Hungarian) trees."""
    base = [star_graph(k) for k in (2, 3, 6, 11)]
    base += [spider(legs) for legs in ((1, 1, 1), (1, 3, 5), (3, 3, 3),
                                       (1, 1, 3, 5), (5, 5), (1, 1, 1, 1, 3))]
    base += [cycles_on_path(lens) for lens in ((3,), (3, 3), (3, 5), (5, 3),
                                               (3, 3, 3), (3, 3, 3, 3), (5, 5))]
    rng = random.Random(7)
    for g in base:
        yield g
        for _ in range(3):
            yield relabeled(g, rng)


def test_hungarian_trees_nu_matches_oracle():
    """Dead and Hungarian trees must not hide an augmenting path: many
    exposed roots fail on stars, odd-legged spiders and odd cycles hanging
    off a path."""
    for g in hungarian_family():
        nu = brute_nu(g, BUDGET)
        m = maximum_matching(g)
        assert is_matching_of(g, m) and len(m) == nu
        assert decompose(g).d == brute_d_set(g, BUDGET)
        # one-edge seeds leave most vertices exposed, so the greedy seed fires
        for e in g.edges:
            grown = grow(g, [e])
            assert len(grown) == nu and set(e) <= covered_by(grown)


def test_augment_joins_two_trees_past_a_hungarian_one():
    """Growing {0-1, 4-5}: the greedy seed pairs nothing, and one phase grows
    trees from 2, 3 and 6.  Root 2's tree through 0 is Hungarian; the trees
    of 3 and 6 meet on the edge 5-6, which gives the path 3-4-5-6."""
    m = grow(spider((1, 1, 4)), [(0, 1), (4, 5)])
    assert m.pairs == ((0, 1), (3, 4), (5, 6))


def test_one_search_state_per_pass(monkeypatch):
    """Each pass allocates its search arrays once, however many phases and
    roots it grows forests from; per-root allocation is quadratic on sparse
    graphs.  The decomposition's pass is the solver's only maximization."""
    built = []

    class Counting(blossom._Search):
        __slots__ = ()

        def __init__(self, adj, mate):
            built.append(len(adj))
            super().__init__(adj, mate)

    g = spider((1, 1, 1, 2, 1, 1))
    monkeypatch.setattr(blossom, "_Search", Counting)
    for run in (
        lambda: maximum_matching(g),
        lambda: grow(g, [(0, 4)]),
        lambda: grow(g, [(0, 1)]),
        lambda: decompose(g),
    ):
        built.clear()
        run()
        assert built == [g.n]


def counting_phases(monkeypatch):
    """Patch in a search engine that logs each phase as (roots,
    augmentations, vertices labelled)."""
    log = []

    class Counting(blossom._Search):
        __slots__ = ()

        def phase(self, roots):
            augmented = super().phase(roots)
            log.append((len(roots), augmented, len(self.touched)))
            return augmented

    monkeypatch.setattr(blossom, "_Search", Counting)
    return log


def lowest_id_greedy_exposed(g):
    """Vertices the former seed (each exposed vertex, ascending, takes its
    lowest exposed neighbour) leaves exposed."""
    mate = [-1] * g.n
    for u in range(g.n):
        if mate[u] == -1:
            v = next((v for v in g.adjacency[u] if mate[v] == -1), -1)
            if v != -1:
                mate[u], mate[v] = v, u
    return [v for v in range(g.n) if mate[v] == -1]


def test_degree_seed_leaves_few_searches(monkeypatch):
    """The least-degree seed leaves 34 to 40 roots for the first phase on
    these m = 3n random graphs with n = 1000 (the lowest-id seed leaves 110
    to 142), and one or two phases finish the pass.  Every matching here is
    perfect, so every phase augments.  A pass that leaves vertices exposed
    ends instead with a phase that augments nothing, or once every exposed
    vertex lies in a kept tree."""
    log = counting_phases(monkeypatch)
    for s in range(5):
        g = random_connected_graph(1000, m=3000, seed=s)
        log.clear()
        m = maximum_matching(g)
        assert len(log) <= 4
        assert log[0][0] <= 45
        assert all(aug > 0 for _, aug, _ in log[:-1])
        assert (log[-1][1] == 0) == (2 * len(m) < g.n)
        assert is_matching_of(g, m)
        assert blossom._from_mate(decompose(g).mate) == m
        assert maximum_matching(g) == m


def test_degree_seed_matches_relabelled_path_without_search(monkeypatch):
    """On P4 labelled 2-0-1-3 and P6 labelled 3-1-0-2-4-5 the lowest-id
    seed takes the middle edge and strands both ends; the least-degree seed
    starts from the ends and is perfect at once, so no phase runs."""
    log = counting_phases(monkeypatch)
    for order in ([2, 0, 1, 3], [3, 1, 0, 2, 4, 5]):
        g = Graph.from_edges(len(order), list(zip(order, order[1:])))
        assert lowest_id_greedy_exposed(g)
        log.clear()
        m = maximum_matching(g)
        assert is_perfect_on(g, m)
        assert log == []


def keyed_sort_seed(adj):
    """The greedy seed's mate list with its visit order from a keyed sort:
    ascending degree, ties to the lower id."""
    deg = list(map(len, adj))
    mate = [-1] * len(adj)
    for u in sorted(range(len(adj)), key=deg.__getitem__):
        if mate[u] == -1:
            best, least = -1, len(adj)
            for v in adj[u]:
                if mate[v] == -1 and deg[v] < least:
                    best, least = v, deg[v]
            if best != -1:
                mate[u] = best
                mate[best] = u
    return mate


def test_seed_order_is_ascending_degree_then_id(monkeypatch):
    """The degree buckets visit the vertices in the keyed sort's order: with
    every phase stopped at once, the pass returns the seed alone, and it
    equals the keyed-sort seed on random graphs with isolated vertices and
    on the empty graph."""
    assert maximum_matching(Graph(0, ())).pairs == ()
    monkeypatch.setattr(blossom._Search, "phase", lambda self, roots: 0)
    rng = random.Random(30)
    graphs = [Graph(0, ())]
    for _ in range(500):
        n = rng.randint(1, 40)
        p = rng.random() * 0.3
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        graphs.append(Graph.from_edges(n, edges))
    assert any(not all(g.adjacency) for g in graphs[1:])
    for g in graphs:
        mate = [-1] * g.n
        blossom._maximize(g.adjacency, mate)
        assert mate == keyed_sort_seed(g.adjacency)


def test_assembly_runs_no_blossom_phase(monkeypatch):
    """Odd n leaves an exposed vertex in every maximum matching, so these
    graphs take the derived-graph branch.  Level 1 is the first matching
    with each star's first edge swapped in, so assembly runs no blossom
    phase, and level 1 still has the matching number of edges."""
    log = counting_phases(monkeypatch)
    inside = []
    assemble = cover.assemble

    def logged_assemble(*args):
        inside.append(len(log))
        out = assemble(*args)
        inside.append(len(log))
        return out

    monkeypatch.setattr(cover, "assemble", logged_assemble)
    for s in range(3):
        g = random_connected_graph(1001, m=3003, seed=s)
        inside.clear()
        res = solve(g)
        assert res.branch == "gstar"
        assert inside[0] == inside[1] > 0
        assert len(res.cover.matchings[0]) == len(maximum_matching(g))


def test_seeded_pass_ends_with_a_hungarian_phase(monkeypatch):
    """P4 0-1-2-3 seeded with 1-2, beside stars K_{1,3} each seeded with one
    edge.  The first phase augments along 0-1-2-3 and grows each star's
    Hungarian tree from its lower exposed leaf, which reset keeps; the tree
    of the higher leaf meets the kept tree's center and is tainted.  The
    pass ends with a last phase that augments nothing and grows only the
    tainted trees, one root each.  A reads the centers off the kept trees."""
    stars = 5
    edges, seed = [(0, 1), (1, 2), (2, 3)], [(1, 2)]
    for c in range(4, 4 + 4 * stars, 4):
        edges += [(c, c + 1), (c, c + 2), (c, c + 3)]
        seed.append((c, c + 1))
    g = Graph.from_edges(4 + 4 * stars, edges)
    log = counting_phases(monkeypatch)
    grown = grow(g, seed)
    assert {(0, 1), (2, 3)} <= set(grown.pairs) and len(grown) == 2 + stars
    assert log == [(12, 1, 24), (5, 0, 5)]
    seed_decompose(monkeypatch, seed)
    assert decompose(g).a == set(range(4, 4 + 4 * stars, 4))


def test_pass_ends_once_every_exposed_vertex_is_in_a_kept_tree(monkeypatch):
    """P4 0-1-2-3 seeded with 1-2, beside the triangles 4-5-6 and 7-8-9.  The
    greedy seed pairs 4-5 and 7-8; one phase augments along 0-1-2-3 and
    grows the triangles' Hungarian trees from 6 and 9, which reset keeps.
    No root is left, so the pass ends after that phase, although it
    augmented, and the kept trees alone hold the Hungarian forest."""
    g = Graph.from_edges(10, [(0, 1), (1, 2), (2, 3), (4, 5), (4, 6), (5, 6),
                              (7, 8), (7, 9), (8, 9)])
    log = counting_phases(monkeypatch)
    mate = [-1] * g.n
    mate[1], mate[2] = 2, 1
    search = blossom._maximize(g.adjacency, mate)
    assert log == [(4, 1, 10)]
    assert [v for v in range(g.n) if mate[v] == -1] == [6, 9]
    assert {6, 9} <= set(search.kept) and search.touched == []
    assert sorted(search.exposed) == [6, 9]
    seed_decompose(monkeypatch, [(1, 2)])
    assert decompose(g).d == brute_d_set(g, BUDGET) == set(range(4, 10))


def test_tree_meeting_a_dead_tree_is_grown_again(monkeypatch):
    """P4 0-1-2-3 seeded with 1-2, with a leaf 4 on 2, beside the triangle
    5-6-7 (the greedy seed pairs 5-6).  In the first phase 0 labels 2 as
    outer and 3 augments along 0-1-2-3; then 4 scans 2, an outer vertex of
    a dead tree, so 4's tree is tainted.  Kept as it stood, {4} alone, it
    would hide the path 4-2-3 and give A = {} and D = V.  The second phase
    grows it again: 2 inner, 3 outer, so A = {2}."""
    g = Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (2, 4), (5, 6), (5, 7),
                             (6, 7)])
    log = counting_phases(monkeypatch)
    seed_decompose(monkeypatch, [(1, 2)])
    ge = decompose(g)
    assert log == [(4, 1, 8), (1, 0, 3)]
    assert ge.a == {2}
    assert ge.d == brute_d_set(g, BUDGET) == {3, 4, 5, 6, 7}


class Regrowing(blossom._Search):
    """The search without kept trees: reset unlabels every vertex the phase
    touched, and every still-exposed root starts the next phase."""

    __slots__ = ()

    def reset(self, roots):
        label, parent, p = self.label, self.parent, self.p
        for v in self.touched:
            label[v] = blossom._UNLABELED
            parent[v] = v
            p[v] = -1
        self.touched.clear()
        self.tainted.clear()
        return [r for r in roots if self.mate[r] == -1]


def random_graph(seed):
    """A graph on 2 to 80 vertices: for an even seed, connected with n - 1
    to 3n edges; for an odd one, a relabelled disjoint union of pieces of
    1 to 12 vertices, each a G(k, p) sample."""
    rng = random.Random(seed)
    n = rng.randint(2, 80)
    if seed % 2 == 0:
        m = rng.randint(n - 1, min(3 * n, n * (n - 1) // 2))
        return random_connected_graph(n, m=m, seed=seed)
    edges, start = [], 0
    while start < n:
        k, p = min(rng.randint(1, 12), n - start), rng.random()
        edges += [(start + i, start + j) for i in range(k) for j in range(i + 1, k)
                  if rng.random() < p]
        start += k
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])


def test_kept_trees_match_regrowing_every_tree(monkeypatch):
    """Keeping Hungarian trees changes no output: on 2000 seeded graphs,
    half of them disjoint unions, decompose returns the same D, A, C, mate
    list and D* as a pass that grows every tree again in every phase."""
    graphs = [random_graph(s) for s in range(2000)]
    kept = [decompose(g) for g in graphs]
    monkeypatch.setattr(blossom, "_Search", Regrowing)
    for g, got in zip(graphs, kept):
        want = decompose(g)
        assert (got.d, got.a, got.c, got.mate, got.d_star) == (
            want.d, want.a, want.c, want.mate, want.d_star)


def rebuilt(method, old, new):
    """``method`` of ``blossom._Search``, or a function of ``blossom``,
    rebuilt from its source with the one occurrence of ``old`` replaced by
    ``new``."""
    source = textwrap.dedent(inspect.getsource(method))
    assert source.count(old) == 1
    namespace = {}
    exec(source.replace(old, new), vars(blossom), namespace)
    return namespace[method.__name__]


class GeneralLoop(blossom._Search):
    """The search whose one-root phases, too, run the multi-root loop."""

    __slots__ = ()
    phase = rebuilt(blossom._Search.phase, "len(roots) == 1", "False")


def test_one_root_phase_matches_general_loop(monkeypatch):
    """A phase with one root runs its own loop, which changes no output: on
    the graphs of the kept-tree test, decompose returns the same D, A, C,
    mate list and D*, and every phase has the same roots, augmentations and
    vertices labelled, as a pass whose one-root phases run the multi-root
    loop.  At least 400 of the 2000 graphs run a one-root phase."""
    graphs = [random_graph(s) for s in range(2000)]
    runs = []
    for search in (blossom._Search, GeneralLoop):
        monkeypatch.setattr(blossom, "_Search", search)
        log = counting_phases(monkeypatch)
        run = []
        for g in graphs:
            log.clear()
            ge = decompose(g)
            run.append((ge.d, ge.a, ge.c, ge.mate, ge.d_star, list(log)))
        runs.append(run)
    assert runs[0] == runs[1]
    assert sum(any(roots == 1 for roots, _, _ in r[-1]) for r in runs[0]) >= 400


def counting_resets(monkeypatch):
    """Patch in a search engine that logs each reset's number of roots."""
    log = []

    class Counting(blossom._Search):
        __slots__ = ()

        def reset(self, roots):
            log.append(len(roots))
            return super().reset(roots)

    monkeypatch.setattr(blossom, "_Search", Counting)
    return log


def test_perfect_pass_returns_its_search_unreset(monkeypatch):
    """On these m = 3n random graphs every phase augments and the last one
    completes a perfect matching; the pass returns without resetting that
    phase's forest, one reset fewer than its phases.  A pass that resets
    after every augmenting phase runs the same phases, and decompose and
    solve give the same results with it."""
    resets, phases = counting_resets(monkeypatch), counting_phases(monkeypatch)
    graphs = [random_connected_graph(1000, m=3000, seed=s) for s in range(5)]
    runs = []
    for g in graphs:
        resets.clear()
        phases.clear()
        ge = decompose(g)
        assert -1 not in ge.mate
        assert len(resets) == len(phases) - 1 >= 0
        runs.append((list(phases), ge, solve(g)))
    always_resetting = rebuilt(
        blossom._maximize, "2 * augmented == len(roots) and not search.exposed", "False"
    )
    monkeypatch.setattr(gallai_edmonds, "_maximize", always_resetting)
    for g, (was_phases, ge, res) in zip(graphs, runs):
        resets.clear()
        phases.clear()
        want = decompose(g)
        assert phases == was_phases and len(resets) == len(phases)
        assert (ge.d, ge.a, ge.mate, ge.d_star) == (want.d, want.a, want.mate, want.d_star)
        assert res == solve(g)


def test_pass_resets_a_phase_that_matches_its_roots_beside_a_kept_tree(monkeypatch):
    """P4 0-1-2-3 seeded with 1-2, the path 4-6-7-5 seeded with 6-7 and
    hung from 0 at 6, and the triangle 8-9-10 (the greedy seed pairs 8-9).
    The first phase augments along 0-1-2-3 and labels 6 and 7 from 0, so
    the trees of 4 and 5 are tainted, and keeps the triangle's tree from
    10.  The second phase matches both of its roots along 4-6-7-5, but 10
    stays exposed: the pass still resets that phase, so 6 is no inner
    vertex of the forest, and inner() is the reference A = {}."""
    g = Graph.from_edges(11, [(0, 1), (1, 2), (2, 3), (0, 6), (4, 6), (6, 7),
                              (5, 7), (8, 9), (8, 10), (9, 10)])
    resets, log = counting_resets(monkeypatch), counting_phases(monkeypatch)
    mate = [-1] * g.n
    mate[1], mate[2], mate[6], mate[7] = 2, 1, 7, 6
    search = blossom._maximize(g.adjacency, mate)
    assert [(roots, aug) for roots, aug, _ in log] == [(5, 1), (2, 1)]
    assert [v for v in range(g.n) if mate[v] == -1] == search.exposed == [10]
    assert resets == [5, 2] and search.touched == []
    d = brute_d_set(g, BUDGET)
    assert search.inner() == sorted(neighbor_set(g, d) - d) == []
    seed_decompose(monkeypatch, [(1, 2), (6, 7)])
    assert decompose(g).a == set()


def fault_graph():
    """random_connected_graph(8, p=0.2, seed=802106): its first phase has
    two roots and contracts a blossom before it augments."""
    return Graph.from_edges(
        8,
        [(0, 1), (0, 5), (1, 2), (1, 5), (1, 6), (2, 3), (2, 7), (4, 5), (4, 6), (6, 7)],
    )


def assert_internal_error(g, message, tmp_path, capsys):
    """``solve(g)`` raises :class:`InternalInvariantError` with ``message``,
    and the CLI prints it as an internal error and exits 4."""
    with pytest.raises(InternalInvariantError, match=message):
        solve(g)
    path = tmp_path / "g.txt"
    path.write_text(serialize_graph(g) + "\n")
    assert main(["solve", str(path)]) == EXIT_INTERNAL
    assert capsys.readouterr().err == f"internal error: {message}\n"


def test_contraction_fault_raises_instead_of_looping(tmp_path, capsys, monkeypatch):
    """A contraction that leaves the inner vertices out of the merge sends
    the augmenting walk of this graph round a cycle of ``p``; the walk's
    n / 2 budget turns that into an internal error, and exit 4 from the
    CLI, not a hang."""
    g = fault_graph()
    assert solve(g).branch == "perfect"
    monkeypatch.setattr(
        blossom._Search, "_contract",
        rebuilt(blossom._Search._contract, "merge.append(mx)", "pass"),
    )
    assert_internal_error(g, "augmenting path does not reach a root", tmp_path, capsys)


def test_common_base_fault_raises_instead_of_looping(tmp_path, capsys, monkeypatch):
    """A lowest-common-base walk that does not mark its two start bases: on
    this graph the common base of both of the first phase's contractions
    is one of their start bases, the root 1.  Unmarked, it is never seen
    as met, and both sides wait at the root for ever without a budget.  The
    pass runs no one-root phase, so the walk is reached through ``phase``
    and ``_contract``; its n-turn budget makes the fault an internal error,
    and exit 4."""
    g = fault_graph()
    log = counting_phases(monkeypatch)
    decompose(g)
    assert [roots for roots, _, _ in log] == [2]
    monkeypatch.setattr(
        blossom._Search, "_common_base",
        rebuilt(blossom._Search._common_base, "mark[x] = mark[y] = stamp", "pass"),
    )
    assert_internal_error(g, "blossom walk does not reach its base", tmp_path, capsys)


def test_one_root_shrink_fault_raises_instead_of_looping(tmp_path, capsys, monkeypatch):
    """C5 0-1-2-3-4: the greedy seed pairs 0-1 and 2-3 and leaves 4 exposed,
    so the first phase is a one-root phase, and the edge 1-2 closes its one
    blossom.  Without the walk's in-loop marks both sides stop at the root
    4, and neither reaches a base the other marked; the walk budget makes
    that an internal error, and exit 4, not a hang."""
    g = cycle_graph(5)
    log = counting_phases(monkeypatch)
    shrunk = []
    common_base = blossom._Search._common_base

    def logged_common_base(self, bv, bt):
        shrunk.append((bv, bt))
        return common_base(self, bv, bt)

    monkeypatch.setattr(blossom._Search, "_common_base", logged_common_base)
    ge = decompose(g)
    assert log == [(1, 0, 5)] and shrunk == [(1, 2)]
    assert ge.a == set() and ge.d == set(range(5))
    monkeypatch.setattr(blossom._Search, "_common_base",
                        rebuilt(common_base, "mark[x] = stamp", "pass"))
    assert_internal_error(g, "blossom walk does not reach its base", tmp_path, capsys)


def triangle_below_path(pairs):
    """An exposed root 0 and an alternating path of ``pairs`` matched pairs
    0-1=2-3=4-...=u, u = 2 * pairs, then a matched pair u+1=u+2 joined to u
    at both ends; beside it K_{1,2} on u+3..u+5 with u+3=u+4 matched.
    Returns the graph and its seed matching, which leaves 0 and u+5
    exposed."""
    u = 2 * pairs
    edges = [(i, i + 1) for i in range(u)] + [(u, u + 1), (u, u + 2), (u + 1, u + 2),
                                              (u + 3, u + 4), (u + 3, u + 5)]
    seed = [(i, i + 1) for i in range(1, u + 3, 2)] + [(u + 3, u + 4)]
    return Graph.from_edges(u + 6, edges), seed


def test_contraction_walk_is_bounded_by_its_cycle(monkeypatch):
    """A two-root phase grows the path's tree down to u, whose scan of the
    pair u+1=u+2 closes the triangle u, u+1, u+2.  The contraction's walks
    take the same few ``find`` calls whether the path above the triangle
    has 500 matched pairs or 1000: the common-base walk stops at u, where a
    walk that marks one side up to the root would take one per pair."""
    finds, contractions = [0], []

    class Counting(blossom._Search):
        __slots__ = ()

        def find(self, x):
            finds[0] += 1
            return super().find(x)

        def _contract(self, *args):
            before = finds[0]
            base = super()._contract(*args)
            contractions.append(finds[0] - before)
            return base

    monkeypatch.setattr(blossom, "_Search", Counting)
    for pairs in (500, 1000):
        g, seed = triangle_below_path(pairs)
        assert sorted(grow(g, seed).pairs) == sorted(seed)
    assert len(contractions) == 2 and contractions[0] == contractions[1] <= 4


def test_search_lists_the_exposed_vertices():
    """The pass's ``exposed`` holds each vertex that its matching leaves
    exposed once: the roots of the kept trees and of the last phase's
    forest, on random graphs of both benchmark kinds and disjoint triangles
    and stars, whose Hungarian trees the first phase keeps."""
    graphs = [random_connected_graph(n, p=0.15, seed=s) for n in (5, 20, 60) for s in range(20)]
    graphs += [random_connected_graph(n, m=n + n // 10, seed=s) for n in (30, 300) for s in range(20)]
    graphs += [Graph.from_edges(3 * k + 4, [(3 * i + a, 3 * i + b) for i in range(k)
                                            for a, b in ((0, 1), (0, 2), (1, 2))]
                                + [(3 * k, 3 * k + j) for j in (1, 2, 3)])
               for k in (1, 5, 40)]
    kept = 0
    for g in graphs:
        mate = [-1] * g.n
        search = blossom._maximize(g.adjacency, mate)
        assert sorted(search.exposed) == [v for v in range(g.n) if mate[v] == -1]
        kept += bool(search.kept)
    assert kept >= 3
