"""Star covers of the derived bipartite graph and their balancing loop.

The derived graph keeps the A-vertices and the D-vertices (members of D
with no neighbour in D, the set D*), joined only by host edges
between the two sides.  A star cover assigns every D-vertex to exactly one
adjacent A-vertex; the loop below repeatedly moves one assignment from a
most-loaded center to a much-less-loaded one along an alternating tree path,
until the maximum star size cannot be reduced.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

from .blossom import Matching
from .errors import InternalInvariantError
from .gallai_edmonds import GallaiEdmonds
from .graph import Graph


class GStar:
    """Bipartite graph between A-vertices and D-vertices, in host vertex ids.

    Every D-vertex has at least one A-neighbour; isolated vertices, if any,
    are A-vertices.
    """

    def __init__(self, a_vertices, d_vertices, edges):
        self.a_vertices: tuple[int, ...] = tuple(sorted(a_vertices))
        self.d_vertices: tuple[int, ...] = tuple(sorted(d_vertices))
        a_set = set(self.a_vertices)
        d_set = set(self.d_vertices)
        if a_set & d_set:
            raise ValueError("A-vertices and D-vertices must be disjoint")
        adj: dict[int, list[int]] = {v: [] for v in self.a_vertices}
        adj.update({v: [] for v in self.d_vertices})
        norm = []
        for u, v in edges:
            if u in a_set and v in d_set:
                a, d = u, v
            elif v in a_set and u in d_set:
                a, d = v, u
            else:
                raise ValueError(f"edge {u}-{v} does not join the two sides")
            adj[a].append(d)
            adj[d].append(a)
            norm.append((min(u, v), max(u, v)))
        for d in self.d_vertices:
            if not adj[d]:
                raise ValueError(f"D-vertex {d} has no A-neighbour")
        self.edges: tuple[tuple[int, int], ...] = tuple(sorted(norm))
        self.adj: dict[int, tuple[int, ...]] = {
            v: tuple(sorted(nb)) for v, nb in adj.items()
        }
        self._a_set = frozenset(a_set)

    @property
    def size(self) -> int:
        return len(self.a_vertices) + len(self.d_vertices)

    def is_a_vertex(self, v: int) -> bool:
        return v in self._a_set


def build_gstar(g: Graph, ge: GallaiEdmonds) -> GStar:
    """Derived bipartite graph of g; requires a nonempty A side."""
    if not ge.a:
        raise ValueError("decomposition has empty A; the derived graph is not defined")
    a_set = ge.a
    d_set = ge.d_star
    edges = [
        (u, v)
        for u, v in g.edges
        if (u in a_set and v in d_set) or (v in a_set and u in d_set)
    ]
    return GStar(a_set, d_set, edges)


class StarCover:
    """Assignment of every D-vertex to one adjacent A-vertex (its star center)."""

    def __init__(self, gstar: GStar, center: dict[int, int]):
        if set(center) != set(gstar.d_vertices):
            raise ValueError("cover must assign exactly the D-vertices")
        for d, a in center.items():
            if a not in gstar.adj[d]:
                raise ValueError(f"{a} is not an A-neighbour of D-vertex {d}")
        self.gstar = gstar
        self.center: dict[int, int] = dict(center)
        stars: dict[int, list[int]] = {}
        for d in gstar.d_vertices:
            stars.setdefault(center[d], []).append(d)
        self.stars: dict[int, list[int]] = {a: sorted(ds) for a, ds in stars.items()}

    def effective_degree(self, a: int) -> int:
        if not self.gstar.is_a_vertex(a):
            raise ValueError(f"{a} is not an A-vertex")
        return len(self.stars.get(a, ()))

    def max_degree(self) -> int:
        if not self.stars:
            return 0
        return max(len(ds) for ds in self.stars.values())

    def maximum_centers(self) -> list[int]:
        delta = self.max_degree()
        return [a for a in self.gstar.a_vertices if self.effective_degree(a) == delta]

    def edges(self) -> list[tuple[int, int]]:
        return sorted((min(d, a), max(d, a)) for d, a in self.center.items())


def initial_cover(gs: GStar, m: Matching) -> StarCover:
    """Seed cover from a maximum matching m of the host graph.

    Each D-vertex matched by m keeps its mate, which must be an A-vertex;
    exposed D-vertices go to their lowest-indexed A-neighbour.
    """
    a_set = set(gs.a_vertices)
    center: dict[int, int] = {}
    for d in gs.d_vertices:
        mate = m.mate(d)
        if mate != -1:
            if mate not in a_set:
                raise ValueError(f"D-vertex {d} is matched outside the A side")
            center[d] = mate
        else:
            center[d] = gs.adj[d][0]
    return StarCover(gs, center)


@dataclass
class AlternatingForest:
    """Disjoint alternating trees rooted at the maximum centers.

    root_of maps every A-vertex in the forest to its tree root; pred maps
    each non-root A-vertex to the D-vertex it was attached through.
    """

    roots: tuple[int, ...]
    root_of: dict[int, int]
    pred: dict[int, int]
    d_members: frozenset[int]

    @property
    def a_members(self) -> frozenset[int]:
        return frozenset(self.root_of)


def build_forest(gs: GStar, sc: StarCover) -> AlternatingForest:
    """Near-maximal alternating forest rooted at the maximum centers.

    Roots are processed ascending; each tree is grown to maximality in the
    part of the graph not claimed by earlier trees, pulling in a whole star
    whenever its center is reached through a tree D-vertex.
    """
    delta = sc.max_degree()
    if delta < 1:
        raise ValueError("forest is only defined when some star is nonempty")
    root_of: dict[int, int] = {}
    pred: dict[int, int] = {}
    d_members: set[int] = set()
    roots: list[int] = []
    for u in sc.maximum_centers():
        if u in root_of:
            continue
        roots.append(u)
        root_of[u] = u
        queue = deque()
        for d in sc.stars.get(u, ()):
            d_members.add(d)
            queue.append(d)
        while queue:
            x = queue.popleft()
            for y in gs.adj[x]:
                if y in root_of:
                    continue
                root_of[y] = u
                pred[y] = x
                for d2 in sc.stars.get(y, ()):
                    d_members.add(d2)
                    queue.append(d2)
    return AlternatingForest(tuple(roots), root_of, pred, frozenset(d_members))


@dataclass(frozen=True)
class SwitchingPath:
    """Even alternating path from a maximum center down to a light center."""

    vertices: tuple[int, ...]

    @property
    def origin(self) -> int:
        return self.vertices[0]

    @property
    def terminus(self) -> int:
        return self.vertices[-1]


def find_switching_path(f: AlternatingForest, sc: StarCover) -> SwitchingPath | None:
    """Lightest center in the forest, if lighter than its root by at least 2.

    Ties on degree break to the lowest vertex id.  All roots carry the
    maximum star size, so a single global minimum suffices.
    """
    if not f.roots:
        return None
    v = min(f.root_of, key=lambda a: (sc.effective_degree(a), a))
    u = f.root_of[v]
    if sc.effective_degree(v) > sc.effective_degree(u) - 2:
        return None
    seq = [v]
    cur = v
    while cur != u:
        x = f.pred[cur]
        a = sc.center[x]
        seq.append(x)
        seq.append(a)
        cur = a
    seq.reverse()
    return SwitchingPath(tuple(seq))


def transform(sc: StarCover, path: SwitchingPath) -> StarCover:
    """Shift one unit of load from the path's origin to its terminus.

    The symmetric difference with the path's edges reassigns each D-vertex
    on the path to the next center; every other star is untouched.
    """
    verts = path.vertices
    if len(verts) < 3 or len(verts) % 2 == 0:
        raise ValueError("switching path must have a positive even edge count")
    gs = sc.gstar
    for i in range(0, len(verts) - 2, 2):
        a, d, a_next = verts[i], verts[i + 1], verts[i + 2]
        if sc.center.get(d) != a:
            raise ValueError(f"edge {a}-{d} is not in the cover")
        if a_next not in gs.adj[d]:
            raise ValueError(f"{d}-{a_next} is not an edge of the derived graph")
    origin, terminus = verts[0], verts[-1]
    if sc.effective_degree(origin) != sc.max_degree():
        raise ValueError("path origin is not a maximum center")
    if sc.effective_degree(origin) < sc.effective_degree(terminus) + 2:
        raise ValueError("origin and terminus degrees are too close to switch")
    center = dict(sc.center)
    for i in range(1, len(verts), 2):
        center[verts[i]] = verts[i + 1]
    return StarCover(gs, center)


@dataclass
class OptimizeResult:
    cover: StarCover
    transforms: int


def optimize(
    gs: GStar,
    sc0: StarCover,
    trace: Callable[[SwitchingPath, int], None] | None = None,
) -> OptimizeResult:
    """Apply switching paths until none exists; the final maximum star size
    is the matching D-cover number of the derived graph.

    The transform count is bounded by the derived graph's vertex count;
    exceeding it means a solver bug and aborts hard.  The maximum star size
    never increases along the way.
    """
    sc = sc0
    limit = gs.size
    count = 0
    prev_delta = sc.max_degree()
    while sc.max_degree() > 1:
        forest = build_forest(gs, sc)
        path = find_switching_path(forest, sc)
        if path is None:
            break
        sc = transform(sc, path)
        count += 1
        if count > limit:
            raise InternalInvariantError(
                "switching-path transform count exceeded the derived graph order"
            )
        delta = sc.max_degree()
        if delta > prev_delta:
            raise InternalInvariantError("maximum star size increased")
        prev_delta = delta
        if trace is not None:
            trace(path, delta)
    return OptimizeResult(sc, count)
