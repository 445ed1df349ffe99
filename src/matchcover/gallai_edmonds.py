"""Gallai-Edmonds decomposition (D, A, C), with C = V - D - A derived when read.  Its
Tutte-Berge check proves the matching maximum and A a tight barrier, not that A is the
Gallai-Edmonds set: see ROADMAP.md, "Self-certifying optimality"."""

from __future__ import annotations

from dataclasses import dataclass

from .blossom import _maximize
from .errors import InternalInvariantError
from .graph import Graph


@dataclass(frozen=True)
class GallaiEdmonds:
    """The partition of V(G) into D, A, C plus the matching that produced it.

    d: vertices missed by some maximum matching.
    a: N(d) outside d.
    c: the rest, derived when read, not stored; the matching restricted to
        c is perfect on c.
    mate: the maximum matching as the blossom engine's mate list, mate[v]
        being v's partner, or -1 for an exposed vertex.  Like every
        maximum matching it covers A and C.
    d_star: members of d with no neighbour in d (the trivial D-components).
    """

    d: frozenset[int]
    a: frozenset[int]
    mate: tuple[int, ...]
    d_star: frozenset[int]

    @property
    def c(self) -> frozenset[int]:
        return frozenset(range(len(self.mate))) - self.d - self.a


def decompose(g: Graph) -> GallaiEdmonds:
    """Decompose g, computing a maximum matching of g on the way.

    One blossom pass grows the matching.  A perfect one ends the work:
    D = A = D* = ∅, so C = V, and its mate list is the whole cover, which
    ``solve``'s final check rejects if it is no matching of g.  Otherwise
    the pass ends holding a Hungarian forest: the trees it kept across
    phases, and the forest of a last phase that augmented nothing.  Its
    inner vertices are A (Lovász and Plummer, *Matching Theory*, ch. 3).
    One traversal of G - A reads the rest.  It keeps only the odd
    components: they are the D-components, and the singletons among them
    are D*.  The even ones make up C, which is derived when read.  A vertex
    whose neighbours all lie in A is such a singleton: it goes to D and D*
    at once, with no component list built.  The traversal also certifies
    the matching without trusting the search: by the Tutte-Berge formula
    it is maximum iff it leaves exactly odd(G - A) - |A| vertices exposed.
    Otherwise :class:`InternalInvariantError` is raised.
    """
    n, adj = g.n, g.adjacency
    mate = [-1] * n
    search = _maximize(adj, mate)
    if -1 not in mate:
        e = frozenset()
        return GallaiEdmonds(e, e, tuple(mate), e)
    a = search.inner()
    seen = [False] * n
    for v in a:
        seen[v] = True
    d, d_star = [], []
    odd = 0
    for s in range(n):
        if seen[s]:
            continue
        seen[s] = True
        for w in adj[s]:
            if not seen[w]:
                break
        else:  # every neighbour is in A: a singleton D-component, in D*
            d_star.append(s)
            continue
        comp = [s]
        for v in comp:  # grows while it is read: a breadth-first search
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
        if len(comp) % 2:
            odd += 1
            d += comp
    odd += len(d_star)
    exposed = mate.count(-1)
    if exposed != odd - len(a):
        raise InternalInvariantError(
            f"Tutte-Berge check fails: {exposed} exposed vertices, {odd} odd"
            f" components in G - A, |A| = {len(a)}; the matching is not maximum"
        )
    return GallaiEdmonds(
        frozenset(d + d_star), frozenset(a), tuple(mate), frozenset(d_star)
    )
