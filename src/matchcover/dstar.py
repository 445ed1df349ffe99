"""Star covers of A over D*, and their balancing loop, on the host graph.

Every neighbour of a D*-vertex (a member of D with no neighbour in D) lies
in A, so its host adjacency list is its whole neighbourhood in the derived
bipartite graph between A and D*, and no derived-graph object is built.  A
star cover assigns every D*-vertex to one adjacent A-vertex, and it is held
as its star table alone: every A-vertex, ascending, maps to its
D*-vertices, ascending, and an idle center maps to ``[]``, so a center's
load is the length of its star.  No map from a D*-vertex to its center is
kept; an alternating forest records its tree edges as (D*-vertex, center)
pairs instead.  The seed table keeps the maximum matching's partners and
places each exposed D*-vertex on its least-loaded A-neighbour, so it starts
near balance.  The loop below keeps one table and updates it in place: each
switching path moves one unit of load from a most-loaded center to a
much-less-loaded one, until the maximum star size cannot be reduced.
Nothing here re-checks what the pipeline built: ``decompose`` certifies M
and A (Tutte-Berge), :func:`optimize` its transform bound and maximum star
size, and ``solve`` the final cover.
"""

from __future__ import annotations

import bisect
from collections import deque
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


def build_forest(
    adj, stars: dict[int, list[int]], delta: int
) -> tuple[dict[int, int], dict[int, tuple[int, int]]]:
    """Near-maximal alternating forest rooted at the centers whose star has
    the table's largest size, delta, as ``(root_of, pred)``.

    root_of maps every A-vertex in the forest to its tree root, and a root
    to itself; pred maps each non-root A-vertex y to its tree edge (x, a):
    the D-vertex x it was attached through and x's center a, the tree
    parent of y.  The forest's D side is the union of its A-vertices'
    stars.

    Roots are taken ascending in one pass over the star table; each tree is
    grown to maximality in the part of the graph not claimed by earlier
    trees.  Its queue holds centers: popping one reads its star, in claim
    order (the D-vertex order of a queue of D-vertices), and every
    unclaimed A-neighbour of a star member joins the tree.

    Growth stops as soon as every A-vertex is in the forest.  The forest is
    the same as with full growth: every later D-vertex would find all its
    neighbours claimed, and every later maximum center is already in a
    tree.  Where a few D-vertices reach every A-vertex (K_{k,L}: one), a
    rebuild reads their adjacency lists instead of every edge.
    """
    n_a = len(stars)
    root_of: dict[int, int] = {}
    pred: dict[int, tuple[int, int]] = {}
    for u, ds in stars.items():
        if len(ds) != delta or u in root_of:
            continue
        root_of[u] = u
        queue = deque((u,))
        while queue and len(root_of) < n_a:
            a = queue.popleft()
            for x in stars[a]:
                for y in adj[x]:
                    if y not in root_of:
                        root_of[y] = u
                        pred[y] = (x, a)
                        queue.append(y)
                if len(root_of) == n_a:
                    break
    return root_of, pred


@dataclass(frozen=True)
class SwitchingPath:
    """Even alternating path from a maximum center down to a light center."""

    vertices: tuple[int, ...]


def find_switching_path(
    root_of: dict[int, int],
    pred: dict[int, tuple[int, int]],
    stars: dict[int, list[int]],
) -> SwitchingPath | None:
    """Lightest center in the forest, if lighter than its root by at least 2.

    The forest is rooted at the maximum star size, so it has a root and all
    roots have equal size: a single global minimum suffices, ties broken to
    the lowest vertex id.  The path is read back from the light center
    along the forest's tree edges.
    """
    v = min(root_of, key=lambda a: (len(stars[a]), a))
    u = root_of[v]
    if len(stars[v]) > len(stars[u]) - 2:
        return None
    seq = [v]
    cur = v
    while cur != u:
        x, cur = pred[cur]
        seq += (x, cur)
    seq.reverse()
    return SwitchingPath(tuple(seq))


def transform(stars: dict[int, list[int]], path: SwitchingPath) -> None:
    """Shift one unit of load from the path's origin to its terminus, in place.

    The symmetric difference with the path's edges moves each D-vertex on
    the path from its center to the next one; every other star is
    untouched.  The path is unchecked: :func:`find_switching_path` builds
    it to alternate and to end at least 2 below its root.  Cost: O(path
    length x star size).
    """
    verts = path.vertices
    for a, d, a_next in zip(verts[0::2], verts[1::2], verts[2::2]):
        stars[a].remove(d)
        bisect.insort(stars[a_next], d)


def optimize(
    adj,
    stars: dict[int, list[int]],
    trace: Callable[[SwitchingPath, int], None] | None = None,
) -> int:
    """Balance the star table in place by switching paths; return how many
    were applied.

    The final maximum star size is the matching D-cover number of the
    derived graph.  The table is scanned for its maximum once per
    transform, and each forest is rooted at that maximum.  The count is
    bounded by the derived graph's vertex count |A| + |D*|, read once off
    the table; exceeding it means a solver bug and aborts hard.  The
    maximum star size never increases along the way.
    """
    bound = len(stars) + sum(map(len, stars.values()))
    count = 0
    delta = max_load(stars)
    while delta > 1:
        path = find_switching_path(*build_forest(adj, stars, delta), stars)
        if path is None:
            break
        transform(stars, path)
        count += 1
        if count > bound:
            raise InternalInvariantError(
                "switching-path transform count exceeded the derived graph order"
            )
        prev_delta, delta = delta, max_load(stars)
        if delta > prev_delta:
            raise InternalInvariantError("maximum star size increased")
        if trace is not None:
            trace(path, delta)
    return count
