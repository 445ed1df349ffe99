"""Gallai-Edmonds decomposition (D, A, C) from a maximum matching."""

from __future__ import annotations

from dataclasses import dataclass

# augment is no longer called here; solvebench's tracing test still reads
# this module's binding of it, so the import stays.
from .blossom import Matching, augment, maximum_matching, outer_vertices  # noqa: F401
from .graph import Graph, components, induced_subgraph, neighbor_set


@dataclass(frozen=True)
class GallaiEdmonds:
    """The partition of V(G) into D, A, C plus the matching that produced it.

    d: vertices missed by some maximum matching.
    a: N(d) outside d.
    c: the rest; the matching restricted to c is perfect on c.
    d_star: members of d with no neighbour in d (the trivial D-components).
    """

    d: frozenset[int]
    a: frozenset[int]
    c: frozenset[int]
    max_matching: Matching
    d_star: frozenset[int]


def decompose(g: Graph, m: Matching) -> GallaiEdmonds:
    """Decompose g using a maximum matching m of g.

    m must be a matching of g, such as :func:`maximum_matching` returns; it
    is not validated here.  D is read off the final alternating forest as
    the outer-labelled vertices (blossom interiors included).  The same
    multi-source search rejects m if it is not maximum: two of its trees
    meet.  D* is read from adjacency: the D-vertices with no neighbour in D.
    """
    d = outer_vertices(g, m)
    a = neighbor_set(g, d)
    c = frozenset(range(g.n)) - d - a
    d_star = frozenset(v for v in d if d.isdisjoint(g.adjacency[v]))
    return GallaiEdmonds(d, a, c, m, d_star)


def verify_decomposition(g: Graph, ge: GallaiEdmonds) -> bool:
    """Check the decomposition against the per-vertex definition of D.

    Each membership test recomputes a maximum matching of g minus a vertex,
    independently of the forest labels used by :func:`decompose`.
    """
    nu = len(maximum_matching(g))
    for v in range(g.n):
        keep = [w for w in range(g.n) if w != v]
        sub, _ = induced_subgraph(g, keep)
        in_d = len(maximum_matching(sub)) == nu
        if in_d != (v in ge.d):
            return False
    if ge.a != neighbor_set(g, ge.d):
        return False
    if ge.c != frozenset(range(g.n)) - ge.d - ge.a:
        return False
    if ge.d & ge.a or ge.d & ge.c or ge.a & ge.c:
        return False
    return True


def is_factor_critical(h: Graph) -> bool:
    """True iff h is connected and h minus any one vertex has a perfect matching."""
    if h.n == 0 or len(components(h)) != 1:
        return False
    if h.n % 2 == 0:
        return False
    for v in range(h.n):
        keep = [w for w in range(h.n) if w != v]
        sub, _ = induced_subgraph(h, keep)
        if not maximum_matching(sub).is_perfect_on(sub):
            return False
    return True
