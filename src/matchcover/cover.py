"""End-to-end assembly of an optimal matching cover of a graph."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .blossom import Matching, _from_mate
from .dstar import SwitchingPath, initial_cover, max_load, optimize
from .errors import InternalInvariantError, NoCoverError
from .gallai_edmonds import GallaiEdmonds, decompose
from .graph import Graph, _gc_paused


@dataclass(frozen=True)
class MatchingCover:
    """Ordered matchings whose covered sets union to all of V(G)."""

    matchings: tuple[Matching, ...]

    @property
    def k(self) -> int:
        return len(self.matchings)


@dataclass
class SolveResult:
    """Cover plus the run facts the CLI reports."""

    cover: MatchingCover
    # a label read off (D, A), not a code path, since every graph runs the
    # same pipeline: "perfect" (D = ∅), "factor_critical" (D ≠ ∅, A = ∅:
    # every component is factor-critical or perfectly matched) or "gstar"
    branch: str
    md: int | None
    transforms: int
    gstar_size: int | None


def verify_cover(g: Graph, mc: MatchingCover) -> bool:
    """True iff every listed matching is a matching of g and their union
    covers V(g).

    One pass over the cover's edges: each pair (u, v) must have 0 <= u < v < n,
    which rules out self-pairs, reversed pairs and out-of-range ends, and be an
    edge, found by a C-level ``in`` on the shorter adjacency list; a per-vertex
    stamp of the last level that covered it rejects two pairs of one level
    sharing a vertex, and every stamp must be set at the end.  With each level
    a matching, that costs O(n + Σ min(deg u, deg v)) ≤ O(n + k·m), and O(n + m)
    on ``solve``'s covers: level 1 costs ≤ 2m, and the D*-end or rescued end of
    each pair above it, whose degree bounds the pair's cost, is in one such pair.
    A matching of another vertex count is rejected; optimality is the oracle's job.
    """
    n, adjacency = g.n, g.adjacency
    deg = list(map(len, adjacency))
    level_of = [0] * n
    for level, m in enumerate(mc.matchings, start=1):
        if m.n != n:
            return False
        for u, v in m.pairs:
            if not 0 <= u < v < n:
                return False
            if v not in adjacency[u] if deg[u] <= deg[v] else u not in adjacency[v]:
                return False
            if level_of[u] == level or level_of[v] == level:
                return False
            level_of[u] = level_of[v] = level
    return all(level_of)


@_gc_paused
def solve(
    g: Graph, trace: Callable[[SwitchingPath, int], None] | None = None
) -> SolveResult:
    """Compute an optimal matching cover together with run statistics.

    Every graph, connected or not, runs one pipeline: :func:`decompose`,
    the seed star table of A over D*, its balancing, :func:`assemble` and
    the final check.  Without A there are no stars (D* is empty too, as
    isolated vertices are rejected first), so the table is empty and
    balancing applies nothing.  Empty input and isolated vertices (a single
    vertex included) admit no cover and raise :class:`NoCoverError`.

    The cover is checked once, at the end, with :func:`verify_cover`: a
    pair that is no edge of g, two pairs of one level sharing a vertex and
    an uncovered vertex all show up there.  Automatic garbage collection is
    paused for the call, ``trace`` included (see ``graph._gc_paused``).
    """
    if g.n == 0:
        raise NoCoverError("empty graph has no matching cover")
    if not all(g.adjacency):
        raise NoCoverError.isolated(g.adjacency.index(()))
    ge = decompose(g)
    stars = initial_cover(g.adjacency, ge.a, ge.d_star, ge.mate)
    transforms = optimize(g.adjacency, stars, trace)
    cover = assemble(g, ge, stars)
    if not verify_cover(g, cover):
        raise InternalInvariantError("assembled cover is not a valid matching cover of G")
    return SolveResult(
        cover=cover,
        branch="gstar" if ge.a else "factor_critical" if ge.d else "perfect",
        md=max_load(stars) if ge.a else None,
        transforms=transforms,
        gstar_size=len(ge.a) + len(ge.d_star) if ge.a else None,
    )


def assemble(g: Graph, ge: GallaiEdmonds, stars: dict[int, list[int]]) -> MatchingCover:
    """Turn the star table of D* (A-vertex -> ascending D*-vertices) into a cover of g.

    This is the one place that sets k: 1 when D is empty, as ``ge.mate``
    is then perfect and level 1 alone covers g, and max(2, md) otherwise,
    md being the largest star size (0 without stars, as when A is empty).
    Level 1 is ``ge.mate`` with each nonempty star's center matched to the
    star's first D*-vertex instead of its M-partner.  That keeps |M| edges
    with no blossom search: a star nonempty at seeding never empties (a
    switching path empties only a star of load >= 2), so an idle center's
    partner lies outside D*, and a first D*-vertex is exposed or matched
    to a nonempty star's center; all those centers are unmatched before
    any first edge is placed, as balancing moves partners between stars.
    Another size is an internal error.  ``ge.mate`` is perfect on C (the
    Tutte-Berge check of ``decompose``), so level 1 covers C.  Level 2
    merges a rescue edge inside its D-component for each vertex of D - D*
    left exposed with each star's next edge; higher levels take one more
    edge per star: level j + 1 from one pass over the stars with more than
    j members, a list that shrinks level by level, each pair built once as
    (u, v) with u < v, so O(n + |D*|) in all, not O(|A| · md).  The levels
    are built unchecked; ``solve``'s final :func:`verify_cover` checks them.
    """
    d_set, d_star, n = ge.d, ge.d_star, g.n
    mate1 = list(ge.mate)
    for a, ds in stars.items():
        if ds and mate1[a] != -1:
            mate1[mate1[a]] = -1
    for a, ds in stars.items():
        if ds:
            mate1[a], mate1[ds[0]] = ds[0], a
    m1 = _from_mate(mate1)
    if len(m1) != (n - ge.mate.count(-1)) // 2:
        raise InternalInvariantError("level-1 matching is not maximum")

    k = max(2, max_load(stars)) if d_set else 1
    level = []  # level 2 starts with the rescue edges
    for w in d_set:
        if mate1[w] == -1 and w not in d_star:
            x = next((x for x in g.adjacency[w] if x in d_set), None)
            if x is None:
                raise InternalInvariantError(
                    f"uncovered vertex {w} has no edge inside its D-component"
                )
            level.append((w, x) if w < x else (x, w))
    matchings = [m1]
    long = [(a, ds) for a, ds in stars.items() if len(ds) > 1]
    for j in range(1, k):  # level j + 1: member j of each star in long
        level += [(a, d) if a < (d := ds[j]) else (d, a) for a, ds in long]
        level.sort()
        matchings.append(Matching(n, tuple(level)))
        level = []
        long = [s for s in long if len(s[1]) > j + 1]
    if any(len(mm) == 0 for mm in matchings):
        raise InternalInvariantError("assembled cover contains an empty matching")
    return MatchingCover(tuple(matchings))
