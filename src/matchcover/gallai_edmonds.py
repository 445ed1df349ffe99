"""Gallai-Edmonds decomposition (D, A, C), with C = V - D - A derived when read and
never walked.  Its Tutte-Berge check proves the matching maximum and A a tight barrier,
not that A is the Gallai-Edmonds set: see ROADMAP.md, "Self-certifying optimality"."""

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
    ``solve``'s final check rejects if it is no matching of g; the pass
    leaves its search un-reset, and it is not read.  Otherwise
    the pass ends holding a Hungarian forest: the trees it kept across
    phases, and the forest of a last phase that augmented nothing.  Its
    inner vertices are A and its roots the exposed vertices (Lovász and
    Plummer, *Matching Theory*, ch. 3).  :func:`_odd_part` reads D and D*
    off G - A without visiting C, and its count certifies the matching
    without trusting the search: by the Tutte-Berge formula it is maximum
    iff it leaves exactly odd(G - A) - |A| vertices exposed.  Otherwise
    :class:`InternalInvariantError` is raised.
    """
    n, adj = g.n, g.adjacency
    mate = [-1] * n
    search = _maximize(adj, mate)
    if -1 not in mate:
        e = frozenset()
        return GallaiEdmonds(e, e, tuple(mate), e)
    a = search.inner()
    d, d_star, odd = _odd_part(adj, mate, a, search.exposed)
    exposed = mate.count(-1)
    if exposed != odd - len(a):
        raise InternalInvariantError(
            f"Tutte-Berge check fails: {exposed} exposed vertices, {odd} odd"
            f" components in G - A, |A| = {len(a)}; the matching is not maximum"
        )
    return GallaiEdmonds(frozenset(d), frozenset(a), tuple(mate), frozenset(d_star))


def _odd_part(adj, mate, a, exposed):
    """(vertices, one-vertex ones, count) of the odd components of G - a,
    for a matching M, ``mate``, that leaves ``exposed`` exposed.  M matches
    an odd component into itself only in part and its other neighbours lie
    in a, so it holds an exposed vertex or an a-vertex's partner: the walks
    start there alone, and no even component (C, when a is A) is visited.
    An exposed a-vertex raises first.  A missed exposed vertex can only
    lower the count, which then fails the Tutte-Berge check.
    """
    seen = [False] * len(adj)
    for v in a:
        seen[v] = True
    seeds = [mate[v] for v in a]
    if -1 in seeds:
        v = a[seeds.index(-1)]
        raise InternalInvariantError(f"Tutte-Berge check fails: A-vertex {v} is exposed")
    d, d_star, odd = [], [], 0
    for s in seeds + exposed:
        if seen[s]:
            continue
        seen[s] = True
        for w in adj[s]:
            if not seen[w]:
                break
        else:  # every neighbour is in a: a one-vertex component, in D*
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
    return d + d_star, d_star, odd + len(d_star)
