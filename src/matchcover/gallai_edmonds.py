"""Gallai-Edmonds decomposition (D, A, C) from a maximum matching."""

from __future__ import annotations

from dataclasses import dataclass

from .blossom import Matching, outer_vertices
from .graph import Graph, neighbor_set


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
