"""Star covers of A over D*, and their balancing loop, on the host graph.

Every neighbour of a D*-vertex (a member of D with no neighbour in D) lies
in A, so its host adjacency list is its whole neighbourhood in the derived
bipartite graph between A and D*, and no derived-graph object is built.  A
star cover assigns every D*-vertex to one adjacent A-vertex, and it is held
as its star table alone: every A-vertex, ascending, maps to its
D*-vertices, ascending, and an idle center maps to ``[]``, so a center's
load is the length of its star.  No map from a D*-vertex to its center is
kept.  The seed table keeps the maximum matching's partners and places
each exposed D*-vertex on its least-loaded A-neighbour, so it starts near
balance.  The loop below keeps one table and updates it in place, in
phases: each phase searches once from every center of the maximum load
and moves one unit of load from each center it can to the nearest
center at least 2 lighter, until the maximum star size cannot be reduced.
Nothing here re-checks what the pipeline built: ``decompose``'s Tutte-Berge
check proves M maximum and A a tight barrier, not that A is the
Gallai-Edmonds set (ROADMAP.md, "Self-certifying optimality");
:func:`optimize` checks its transform bound and maximum star size, and
``solve`` the final cover.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable

from .errors import InternalInvariantError


def max_load(stars: dict[int, list[int]]) -> int:
    """Largest star size in a star table (0 for an empty table)."""
    return max(map(len, stars.values()), default=0)


def initial_cover(adj, a, d_star, mate) -> dict[int, list[int]]:
    """Seed star table of A over D*, from the host adjacency lists and a
    maximum matching given as its mate list (-1 for an exposed vertex).

    Each matched D-vertex keeps its partner ``mate[d]``, an A-neighbour
    since every neighbour of a D*-vertex lies in A.  Then each exposed
    D-vertex, ascending, goes to its least-loaded A-neighbour, ties to the
    lowest id; loads count every partner and every exposed vertex placed
    before it.  The cover starts near balance (K_{k,L}: balanced), which
    leaves the loop few switching paths.  O(vol(D*)); the stars are sorted
    at the end, so each is ascending.
    """
    stars: dict[int, list[int]] = {u: [] for u in sorted(a)}
    exposed = []
    for d in sorted(d_star):
        if mate[d] == -1:
            exposed.append(d)
        else:
            stars[mate[d]].append(d)
    for d in exposed:
        low = None
        for u in adj[d]:
            star = stars[u]
            if low is None or len(star) < low:
                best, low = star, len(star)
        best.append(d)
    for ds in stars.values():
        ds.sort()
    return stars


@dataclass(frozen=True)
class SwitchingPath:
    """Even alternating path from a maximum center down to a light center."""

    vertices: tuple[int, ...]


def transform(stars: dict[int, list[int]], path: SwitchingPath) -> None:
    """Shift one unit of load from the path's origin to its terminus, in place.

    The symmetric difference with the path's edges moves each D-vertex on
    the path from its center to the next one; every other star is
    untouched.  The path is unchecked: :func:`_phase` builds it to
    alternate and to end at least 2 below its root.  Cost: O(path
    length x star size).
    """
    verts = path.vertices
    for a, d, a_next in zip(verts[0::2], verts[1::2], verts[2::2]):
        stars[a].remove(d)
        bisect.insort(stars[a_next], d)


def _phase(adj, stars: dict[int, list[int]], roots: list[int], delta: int):
    """Apply shortest switching paths from the centers of load delta,
    ``roots`` (ascending), and yield each path once it is applied.

    A breadth-first search from all roots at once lays out layers: center
    -> star member -> A-neighbour not yet reached.  It stops at the first
    layer that holds a light center (load at most delta - 2), whose other
    centers it drops, or once every A-vertex is reached (on K_{k,L} after
    one star member's k neighbours).  A depth-first search from each root
    then steps from one layer to the next and enters each center at most
    once, so paths share no center and each later path reads stars and
    light loads as the search found them.
    """
    light = delta - 2
    n_a = len(stars)
    layer = dict.fromkeys(roots, 0)
    frontier, depth = roots, 0
    while not any(len(stars[a]) <= light for a in frontier):
        if not frontier or len(layer) == n_a:
            return
        depth += 1
        reached = []
        for x in (x for a in frontier for x in stars[a]):
            for y in adj[x]:
                if y not in layer:
                    layer[y] = depth
                    reached.append(y)
            if len(layer) == n_a:
                break
        frontier = reached
    for a in frontier:
        if len(stars[a]) > light:
            del layer[a]

    def steps(a):
        return ((x, y) for x in stars[a] for y in adj[x])

    for root in roots:
        seq, todo = [root], [steps(root)]
        while todo:
            for x, y in todo[-1]:
                if layer.get(y) == len(todo):
                    del layer[y]
                    seq += (x, y)
                    break
            else:
                todo.pop()
                del seq[-2:]
                continue
            if len(todo) == depth:
                path = SwitchingPath(tuple(seq))
                transform(stars, path)
                yield path
                break
            todo.append(steps(y))


def optimize(
    adj,
    stars: dict[int, list[int]],
    trace: Callable[[SwitchingPath, int], None] | None = None,
) -> int:
    """Balance the star table in place by switching paths; return how many
    were applied.

    The final maximum star size is the matching D-cover number of the
    derived graph: no path from a center of the maximum load delta to one
    of load at most delta - 2 means delta is optimal (Harvey, Ladner,
    Lovasz and Tamir 2006).  Balancing runs in phases, as Hopcroft and
    Karp (1973) do for matchings: each scans the table for delta and its
    centers once, and :func:`_phase` moves load from them to the nearest
    light centers; a phase that applies no path ends balancing.  The trace
    gets each path with the maximum after it: delta while a center of load
    delta is left, then delta - 1.  More paths than the derived graph's
    vertex count |A| + |D*|, or a maximum that rises from one phase to the
    next, means a solver bug and aborts hard.
    """
    bound = len(stars) + sum(map(len, stars.values()))
    count = 0
    delta = max_load(stars)
    while delta > 1:
        roots = [u for u, ds in stars.items() if len(ds) == delta]
        left = len(roots)
        for path in _phase(adj, stars, roots, delta):
            count += 1
            if count > bound:
                raise InternalInvariantError(
                    "switching-path transform count exceeded the derived graph order"
                )
            left -= 1
            if trace is not None:
                trace(path, delta if left else delta - 1)
        if left == len(roots):
            break
        prev_delta, delta = delta, max_load(stars)
        if delta > prev_delta:
            raise InternalInvariantError("maximum star size increased")
    return count
