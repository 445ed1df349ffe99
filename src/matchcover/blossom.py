"""Maximum matching in general graphs via blossom shrinking.

The search engine is the classic contraction scheme: grow an alternating
tree from an exposed vertex, shrink odd cycles onto their base, stop when an
augmenting path appears or the tree becomes Hungarian.  Contracted blossoms
are tracked with a union-find structure so one search costs about O(m)
rather than O(n) per contraction.  Maximization first pairs exposed
vertices greedily, least degree first, each with its exposed neighbour of
least degree, which leaves few exposed vertices on sparse graphs.  It then
grows one tree per still-exposed root, ascending, with one search state for
the whole pass: an augmentation resets only the vertices the search touched,
and a failed (Hungarian) tree is retired for the rest of the pass.  A caller
that already knows the maximum size passes it, and the pass stops on
reaching it instead of growing a failed tree from every exposed vertex left.
:func:`outer_vertices` runs one multi-source search from every exposed
vertex and exposes its outer labelling for the structure decomposition.
Adjacency lists are sorted and ties go to the lower id, so results are
deterministic.
"""

from __future__ import annotations

from collections import deque

from .errors import InternalInvariantError
from .graph import Graph

_UNLABELED = 0
_OUTER = 1
_INNER = 2
_RETIRED = 3


class Matching:
    """Pairwise vertex-disjoint edges over a host graph, kept as a mate table."""

    __slots__ = ("_mate",)

    def __init__(self, mate):
        self._mate = tuple(mate)

    @classmethod
    def empty(cls, n: int) -> "Matching":
        return cls([-1] * n)

    @classmethod
    def from_edges(cls, g: Graph, edges) -> "Matching":
        mate = [-1] * g.n
        for u, v in edges:
            if not g.has_edge(u, v):
                raise ValueError(f"{u}-{v} is not an edge of the host graph")
            if mate[u] != -1 or mate[v] != -1:
                raise ValueError(f"edge {u}-{v} shares a vertex with another edge")
            mate[u] = v
            mate[v] = u
        return cls(mate)

    @property
    def n(self) -> int:
        return len(self._mate)

    @property
    def mates(self) -> tuple[int, ...]:
        return self._mate

    def mate(self, v: int) -> int:
        return self._mate[v]

    def edges(self) -> list[tuple[int, int]]:
        return [(u, w) for u, w in enumerate(self._mate) if u < w]

    def vertices(self) -> frozenset[int]:
        return frozenset(v for v, w in enumerate(self._mate) if w != -1)

    def covers(self, vs) -> bool:
        return all(self._mate[v] != -1 for v in vs)

    def is_perfect_on(self, g: Graph) -> bool:
        return g.n == len(self._mate) and all(w != -1 for w in self._mate)

    def is_valid_on(self, g: Graph) -> bool:
        if g.n != len(self._mate):
            return False
        for v, w in enumerate(self._mate):
            if w == -1:
                continue
            if not (0 <= w < g.n) or self._mate[w] != v:
                return False
            if v < w and not g.has_edge(v, w):
                return False
        return True

    def __len__(self) -> int:
        return sum(1 for v, w in enumerate(self._mate) if v < w)

    def __eq__(self, other) -> bool:
        return isinstance(other, Matching) and self._mate == other._mate

    def __hash__(self) -> int:
        return hash(self._mate)

    def __repr__(self) -> str:
        return f"Matching({self.edges()!r})"


class _TreesCrossed(InternalInvariantError):
    """Two alternating trees met, so an augmenting path joins their roots."""


class _Search:
    """Alternating-tree search state, allocated once per pass.

    Each search records the vertices it labels, so :meth:`reset` and
    :meth:`retire` cost only the size of its tree.  Blossom bases are merged
    in a union-find whose representative is forced to the blossom base, so
    base lookups stay near O(1) amortized.
    """

    __slots__ = ("adj", "mate", "parent", "label", "p", "queue", "touched",
                 "mark", "stamp")

    def __init__(self, adj, mate):
        n = len(adj)
        self.adj = adj
        self.mate = mate
        self.parent = list(range(n))
        self.label = [_UNLABELED] * n
        self.p = [-1] * n
        self.queue = deque()
        self.touched = []
        self.mark = [0] * n
        self.stamp = 0

    def find(self, x):
        parent = self.parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def _lowest_common_base(self, a, b):
        mate, p, mark, find = self.mate, self.p, self.mark, self.find
        self.stamp += 1
        stamp = self.stamp
        a = find(a)
        while True:
            mark[a] = stamp
            if mate[a] == -1:
                break
            a = find(p[mate[a]])
        b = find(b)
        while mark[b] != stamp:
            if mate[b] == -1:
                raise _TreesCrossed(
                    "alternating trees crossed; matching is not maximum"
                )
            b = find(p[mate[b]])
        return b

    def _mark_side(self, v, b, child, merge):
        # Walk the tree path from v up to the cycle base b, recording the
        # alternate route around the cycle in p.  Union-find state must not
        # change until both sides are walked, so bases are only collected.
        mate, p, label = self.mate, self.p, self.label
        while self.find(v) != b:
            mv = mate[v]
            merge.append(v)
            merge.append(mv)
            if label[mv] == _INNER:
                label[mv] = _OUTER
                self.queue.append(mv)
            p[v] = child
            child = mv
            v = p[mv]

    def _contract(self, v, to):
        b = self._lowest_common_base(v, to)
        merge: list[int] = []
        self._mark_side(v, b, to, merge)
        self._mark_side(to, b, v, merge)
        parent = self.parent
        for x in merge:
            parent[self.find(x)] = b

    def run(self, roots):
        """Grow trees from the given exposed roots.

        Returns the far end of an augmenting path as soon as one is found,
        else None after the forest is exhausted.  Labels stay in place until
        :meth:`reset` or :meth:`retire`.
        """
        mate, label, p = self.mate, self.label, self.p
        queue, touched, find = self.queue, self.touched, self.find
        for r in roots:
            label[r] = _OUTER
            touched.append(r)
            queue.append(r)
        while queue:
            v = queue.popleft()
            for to in self.adj[v]:
                lt = label[to]
                if lt == _UNLABELED:
                    p[to] = v
                    touched.append(to)
                    w = mate[to]
                    if w == -1:
                        queue.clear()
                        return to
                    label[to] = _INNER
                    label[w] = _OUTER
                    touched.append(w)
                    queue.append(w)
                # inner and retired vertices are skipped
                elif lt == _OUTER and mate[v] != to and find(v) != find(to):
                    self._contract(v, to)
        return None

    def reset(self):
        """Return the vertices of the last search to their unlabeled state."""
        label, parent, p = self.label, self.parent, self.p
        for v in self.touched:
            label[v] = _UNLABELED
            parent[v] = v
            p[v] = -1
        self.touched.clear()

    def retire(self):
        """Drop the last (failed) search's tree for the rest of the pass.

        A Hungarian tree lies on no later augmenting path (Edmonds 1965), so
        the scan may skip its vertices from now on.
        """
        label = self.label
        for v in self.touched:
            label[v] = _RETIRED
        self.touched.clear()


def _path_vertices(mate, p, end):
    """Walk parent links from the augmenting path's far end back to the root."""
    seq = [end]
    v = end
    while True:
        pv = p[v]
        seq.append(pv)
        nxt = mate[pv]
        if nxt == -1:
            break
        seq.append(nxt)
        v = nxt
    return seq


def _flip(mate, path):
    for i in range(0, len(path), 2):
        u, v = path[i], path[i + 1]
        mate[u] = v
        mate[v] = u


def _maximize(adj, mate, size=None):
    """Grow mate to maximum cardinality; covered vertices stay covered.

    A greedy seed pass visits the exposed vertices in ascending degree (ties
    to the lower id) and pairs each with its exposed neighbour of least
    degree (again ties to the lower id), the min-degree heuristic of Karp
    and Sipser (1981); only the exposed vertices are sorted.  Then one tree
    search runs from every still-exposed vertex, ascending, with one search
    state for the whole pass.  Given the maximum cardinality ``size``, the
    pass stops as soon as the matching has that many edges.
    """
    deg = list(map(len, adj))
    exposed = sorted((v for v, w in enumerate(mate) if w == -1), key=deg.__getitem__)
    for u in exposed:
        if mate[u] == -1:
            best, least = -1, len(adj)
            for v in adj[u]:
                if mate[v] == -1 and deg[v] < least:
                    best, least = v, deg[v]
            if best != -1:
                mate[u] = best
                mate[best] = u
    roots = sorted(v for v in exposed if mate[v] == -1)
    free = len(roots)
    stop = -1 if size is None else len(adj) - 2 * size
    search = _Search(adj, mate)
    for root in roots:
        if free <= stop:
            break
        if mate[root] != -1:
            continue
        end = search.run((root,))
        if end is None:
            search.retire()
        else:
            _flip(mate, _path_vertices(mate, search.p, end))
            search.reset()
            free -= 2


def maximum_matching(g: Graph) -> Matching:
    """A maximum-cardinality matching, computed deterministically."""
    mate = [-1] * g.n
    _maximize(g.adjacency, mate)
    return Matching(mate)


def maximum_matching_covering(
    g: Graph, m0: Matching, size: int | None = None
) -> Matching:
    """A maximum matching whose covered set contains V(m0).

    The greedy seed only pairs two exposed vertices and augmentation never
    uncovers a covered vertex, so growing m0 to maximum cardinality
    preserves its coverage.  Given the maximum matching size of g, growth
    stops once the matching has ``size`` edges instead of growing a failed
    tree from every exposed vertex left; a larger ``size`` disables the
    stop.  m0 must be a matching of g, as one built by
    :meth:`Matching.from_edges` is; only its vertex count is checked here.
    """
    if m0.n != g.n:
        raise ValueError("matching is not valid on this graph")
    mate = list(m0.mates)
    _maximize(g.adjacency, mate, size)
    return Matching(mate)


def outer_vertices(g: Graph, m: Matching) -> frozenset[int]:
    """Vertices reachable from an exposed vertex by an even alternating path.

    Blossom interiors count as reachable.  One multi-source search grows a
    tree from every exposed vertex; two trees meeting means an augmenting
    path exists, and m is rejected with ValueError as not maximum.
    """
    mate = list(m.mates)
    search = _Search(g.adjacency, mate)
    roots = [v for v in range(g.n) if mate[v] == -1]
    try:
        end = search.run(roots)
    except _TreesCrossed as exc:
        raise ValueError(
            "matching is not maximum: the alternating trees of two exposed "
            "vertices meet"
        ) from exc
    if end is not None:
        raise InternalInvariantError(
            f"exposed vertex {end} left out of the multi-source search"
        )
    return frozenset(v for v in range(g.n) if search.label[v] == _OUTER)
