"""Maximum matching in general graphs via blossom shrinking.

Edmonds' contraction scheme, run in phases: each phase grows alternating
trees from every exposed vertex outside the kept trees at once, shrinks odd
cycles onto their base, and augments where two trees meet.  Contracted
blossoms are tracked with a union-find structure so a phase costs about
O(m) rather than O(n) per contraction.  A tree that ends a phase live with
no edge from its outer vertices to another tree is Hungarian, and no later
phase can reach it (Edmonds 1965), so it is kept as it is rather than grown
again.  The pass ends with a phase that augments nothing, or once every
exposed vertex lies in a kept tree.  A phase with one root has no second
live tree to meet, so it cannot augment and is the pass's last; it grows
its tree with a leaner loop that tracks blossoms by base alone and records
no augmenting route (Gabow 1976).  Both loops find a contraction's base
with one walk, which steps the cycle's two sides up in turn.  The kept
trees and the forest of a last phase that augments nothing make up a
Hungarian forest, whose inner vertices are the Gallai-Edmonds set A that
:func:`~matchcover.gallai_edmonds.decompose` reads.  Adjacency lists are
sorted and ties go to the lower id, so results are deterministic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain

from .errors import InternalInvariantError

_UNLABELED = 0
_OUTER = 1
_INNER = 2


@dataclass(frozen=True)
class Matching:
    """Pairwise vertex-disjoint edges of a graph on vertices 0..n-1.

    ``pairs`` lists the edges as ascending (u, v) pairs with u < v, as the
    blossom engine and assembly build them.  The constructor checks
    nothing; :func:`~matchcover.cover.verify_cover` checks a whole cover
    against its graph.  ``len`` is O(1).
    """

    n: int
    pairs: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.pairs)


def _from_mate(mate) -> Matching:
    """The matching of the engine's mate list (-1 for an exposed vertex)."""
    return Matching(len(mate), tuple((u, w) for u, w in enumerate(mate) if u < w))


class _Search:
    """Alternating-forest search state, allocated once per pass.

    A phase records the vertices it labels in ``touched``, so :meth:`reset`
    costs only the size of its forest; the vertices of the trees that reset
    keeps go on ``kept`` and stay labelled for the rest of the pass.
    Blossom bases are merged in a union-find whose representative is forced
    to the blossom base, so base lookups stay near O(1) amortized.  ``root``
    names each labelled vertex's tree, and only multi-root phases write it;
    a tree is dead once its root is matched, which only an augmentation
    does.  ``tainted`` holds the roots of the phase's trees that met
    another tree, and ``exposed`` those of the kept trees.
    """

    __slots__ = ("adj", "mate", "parent", "label", "p", "root", "queue",
                 "touched", "kept", "exposed", "tainted", "mark", "stamp")

    def __init__(self, adj, mate):
        n = len(adj)
        self.adj = adj
        self.mate = mate
        self.parent = list(range(n))
        self.label = [_UNLABELED] * n
        self.p = [-1] * n
        self.root = [-1] * n
        self.queue = deque()
        self.touched = []
        self.kept = []
        self.exposed = []
        self.tainted = set()
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

    def _common_base(self, x, y):
        """The lowest common base of the outer blossoms with the distinct
        bases x and y of one tree.

        The two sides step up base by base in turn, a side at the root
        waiting, until one reaches a base the other marked.  Both sides
        together cross at most n / 2 matched pairs, so a walk of more than
        n turns (a broken search state, or bases in two trees) raises.
        """
        mate, p, mark, find = self.mate, self.p, self.mark, self.find
        self.stamp += 1
        stamp = self.stamp
        mark[x] = mark[y] = stamp
        budget = len(mate)
        while True:
            budget -= 1
            if budget < 0:
                raise InternalInvariantError("blossom walk does not reach its base")
            if mate[x] != -1:
                x = find(p[mate[x]])
                if mark[x] == stamp:
                    return x
                mark[x] = stamp
            x, y = y, x

    def _contract(self, v, to, bv, bt):
        """Shrink the odd cycle that the edge v-to closes, between the outer
        blossoms with bases bv and bt, onto its base, and return that base.
        As in :meth:`_augment`, the two cycle walks take at most n / 2 steps
        (one matched pair each); more is a broken search state and raises."""
        mate, p, label = self.mate, self.p, self.label
        b = self._common_base(bv, bt)
        # Walk the tree path from each side up to b, recording the alternate
        # route around the cycle in p.  Union-find state must not change
        # until both sides are walked, so the bases to merge are only
        # collected: each step's blossom base, and its mate, which is an
        # inner vertex or lies in that blossom.
        merge = []
        budget = len(mate) // 2
        for x, child, bx in ((v, to, bv), (to, v, bt)):
            while bx != b:
                budget -= 1
                if budget < 0:
                    raise InternalInvariantError("blossom walk does not reach its base")
                mx = mate[x]
                merge.append(bx)
                merge.append(mx)
                if label[mx] == _INNER:
                    label[mx] = _OUTER
                    self.queue.append(mx)
                p[x] = child
                child = mx
                x = p[mx]
                bx = self.find(x)
        parent = self.parent
        for x in merge:
            parent[x] = b
        return b

    def _one_tree(self, r):
        """The phase of :meth:`phase` with the one root r: grow r's tree
        until it is Hungarian, and return 0.  A contraction merges each base
        of the cycle, and its mate, into the common base and records no
        ``p`` route, since no augmentation follows."""
        adj, mate, label, p = self.adj, self.mate, self.label, self.p
        parent, find, queue, touched = self.parent, self.find, self.queue, self.touched
        label[r] = _OUTER
        touched.append(r)
        queue.append(r)
        while queue:
            v = queue.popleft()
            bv = parent[v]
            if parent[bv] != bv:
                bv = find(v)
            for to in adj[v]:
                if parent[to] == bv:  # to lies in v's blossom
                    continue
                lt = label[to]
                if lt == _UNLABELED:
                    w = mate[to]
                    p[to] = v
                    label[to] = _INNER
                    label[w] = _OUTER
                    touched.append(to)
                    touched.append(w)
                    queue.append(w)
                elif lt == _OUTER:
                    bt = parent[to]
                    if parent[bt] != bt:
                        bt = find(to)
                    if bt != bv:
                        b = self._common_base(bv, bt)
                        for x in (bv, bt):
                            while x != b:
                                m = mate[x]
                                parent[x] = parent[m] = b
                                label[m] = _OUTER
                                queue.append(m)
                                x = find(p[m])
                        bv = b
        return 0

    def _augment(self, v, to):
        """Flip the path root(v)..v-to..root(to) joining two trees.

        Each walk step rematches one matched pair of the path, which holds
        fewer than n / 2; walks that take more never reach a root, a broken
        search state raised as :class:`InternalInvariantError`.
        """
        mate, p = self.mate, self.p
        budget = len(mate) // 2
        for x in (v, to):
            # x, mate[x], p[mate[x]], ... is x's even alternating path to
            # its root, blossoms routed through p; rematch its pairs
            y = mate[x]
            while y != -1:
                budget -= 1
                if budget < 0:
                    raise InternalInvariantError("augmenting path does not reach a root")
                z = p[y]
                nxt = mate[z]
                mate[y] = z
                mate[z] = y
                y = nxt
        mate[v] = to
        mate[to] = v

    def phase(self, roots):
        """Grow one forest from the exposed ``roots`` at once.

        Where two live trees meet on an outer-outer edge, augment along
        root1..v-w..root2; both trees stay dead for the rest of the phase.
        Return the number of augmentations, early once an augmentation
        leaves fewer than two live trees.  A tree is tainted when one of
        its outer vertices scans a vertex that another tree labelled: an
        inner vertex of any other tree, or an outer vertex of a dead one.
        An early return taints every root.  A phase that augments nothing
        has grown, with the kept trees, a Hungarian forest (Edmonds 1965),
        and its labels stay in place until :meth:`reset`.

        A phase with one root cannot augment: no other live tree is left,
        and an outer vertex of a kept tree has no neighbour outside that
        tree, so each outer vertex the tree reaches is its own.  It goes to
        :meth:`_one_tree`, which tests no root, taint or dead tree, records
        no ``p`` route, and tracks blossoms by base alone (Gabow 1976); it
        always returns 0, so it is the pass's last phase.  Both loops find a
        contraction's base with :meth:`_common_base`.
        """
        if len(roots) == 1:
            return self._one_tree(roots[0])
        mate, label, p, root = self.mate, self.label, self.p, self.root
        parent, find = self.parent, self.find
        queue, touched, tainted = self.queue, self.touched, self.tainted
        for r in roots:
            label[r] = _OUTER
            root[r] = r
        touched.extend(roots)
        queue.extend(roots)
        live = len(roots)
        augmented = 0
        while queue:
            v = queue.popleft()
            rv = root[v]
            if mate[rv] != -1:
                continue
            bv = -1  # v's blossom base, looked up on first need
            clean = rv not in tainted  # a tainted tree checks no more edges
            for to in self.adj[v]:
                lt = label[to]
                if lt == _INNER:
                    if clean and root[to] != rv:  # an inner vertex of another tree
                        tainted.add(rv)
                        clean = False
                elif lt == _UNLABELED:
                    # every exposed vertex roots a tree of this phase or a
                    # kept one, so to is matched, and a matched pair is
                    # labelled or unlabelled as a whole
                    w = mate[to]
                    p[to] = v
                    label[to] = _INNER
                    label[w] = _OUTER
                    root[to] = root[w] = rv
                    touched.append(to)
                    touched.append(w)
                    queue.append(w)
                else:  # to is outer
                    rt = root[to]
                    if rt == rv:
                        # a matched pair of outer vertices lies in one
                        # blossom, so the base test skips its edge
                        bt = parent[to]
                        if parent[bt] != bt:
                            bt = find(to)
                        if bv == -1:
                            bv = find(v)
                        if bv != bt:
                            bv = self._contract(v, to, bv, bt)
                    elif mate[rt] == -1:
                        self._augment(v, to)
                        augmented += 1
                        live -= 2
                        if live < 2:
                            queue.clear()
                            tainted.update(roots)
                            return augmented
                        break
                    elif clean:  # an outer vertex of a dead tree
                        tainted.add(rv)
                        clean = False
        return augmented

    def inner(self):
        """The inner vertices of the kept trees and the last phase's forest."""
        label = self.label
        return [v for v in self.kept + self.touched if label[v] == _INNER]

    def reset(self, roots):
        """Unlabel the last phase's vertices, except the trees to keep, and
        return the roots of the next phase.

        A tree is kept when its root is still exposed and the phase did not
        taint it.  Then every neighbour of its outer vertices lies in the
        tree, so no vertex another tree labels as outer is next to one of
        them, and no augmentation passes through the tree: it stays
        Hungarian, and its inner vertices stay in A, for the rest of the
        pass.  Its labels, ``p`` and union-find entries stay in place, and
        its vertices go on ``kept``.  The next roots are the still-exposed
        roots of tainted trees.
        """
        mate, tainted = self.mate, self.tainted
        kept_roots = {r for r in roots if mate[r] == -1 and r not in tainted}
        self.exposed += kept_roots
        label, parent, p, root, kept = self.label, self.parent, self.p, self.root, self.kept
        for v in self.touched:
            if kept_roots and root[v] in kept_roots:
                kept.append(v)
            else:
                label[v] = _UNLABELED
                parent[v] = v
                p[v] = -1
        self.touched.clear()
        tainted.clear()
        return [r for r in roots if mate[r] == -1 and r not in kept_roots]


def _maximize(adj, mate):
    """Grow mate to maximum cardinality; covered vertices stay covered.

    ``mate`` is the engine's mate list (-1 for an exposed vertex), grown in
    place: the seed only pairs two exposed vertices, and an augmentation
    never uncovers a vertex.  :func:`~matchcover.gallai_edmonds.decompose`
    passes an all-exposed list; only tests seed a partial matching of the
    graph ``adj``.

    A greedy seed pass visits the exposed vertices in ascending degree (ties
    to the lower id) and pairs each with its exposed neighbour of least
    degree (again ties to the lower id), the min-degree heuristic of Karp
    and Sipser (1981); every vertex is bucketed by degree, in id order (the
    same order as a sort), and matched ones are skipped.  Then phases, as
    in Hopcroft and Karp (1973), each grow a forest from every
    still-exposed vertex outside the kept trees, ascending, with one search
    state for the whole pass.  Each phase's roots are the last phase's
    roots that are still exposed and whose trees :meth:`_Search.reset` did
    not keep.  The pass ends with the first phase that augments nothing, or
    as soon as every exposed vertex, if any, lies in a kept tree.  The
    returned search then holds the Hungarian forest, the kept trees and the
    forest of a last phase that augmented nothing, with their roots, the
    exposed vertices, in ``exposed``.  A phase that matches all its roots
    while no tree is kept completes a perfect matching; the pass returns
    its search un-reset then, and nothing reads it.
    """
    deg = list(map(len, adj))
    buckets = [[] for _ in range(max(deg, default=0) + 1)]
    for u, du in enumerate(deg):
        buckets[du].append(u)
    for u in chain.from_iterable(buckets):
        if mate[u] == -1:
            best, least = -1, len(adj)
            for v in adj[u]:
                if mate[v] == -1 and deg[v] < least:
                    best, least = v, deg[v]
            if best != -1:
                mate[u] = best
                mate[best] = u
    roots = [v for v, w in enumerate(mate) if w == -1]
    search = _Search(adj, mate)
    while roots and (augmented := search.phase(roots)):
        if 2 * augmented == len(roots) and not search.exposed:
            return search  # perfect: no reset, as nothing reads the forest
        roots = search.reset(roots)
    search.exposed += roots
    return search

