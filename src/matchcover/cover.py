"""End-to-end assembly of an optimal matching cover of a graph."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .blossom import Matching, maximum_matching, maximum_matching_covering
from .dstar import StarCover, SwitchingPath, build_gstar, initial_cover, optimize
from .errors import InternalInvariantError, NoCoverError
from .gallai_edmonds import GallaiEdmonds, decompose
from .graph import Graph, components, induced_subgraph


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
    branch: str  # "perfect" | "factor_critical" | "gstar" | "per_component"
    md: int | None
    transforms: int
    gstar_size: int | None


def verify_cover(g: Graph, mc: MatchingCover) -> bool:
    """True iff every listed matching is valid on g and their union covers V(g).

    Optimality is not checked here; that is the oracle's job.
    """
    covered: set[int] = set()
    for m in mc.matchings:
        if not m.is_valid_on(g):
            return False
        covered.update(m.vertices())
    return covered == set(range(g.n))


def solve(
    g: Graph, trace: Callable[[SwitchingPath, int], None] | None = None
) -> SolveResult:
    """Compute an optimal matching cover together with run statistics.

    Connected graphs follow the three-way branch on the decomposition;
    disconnected input is solved per component with same-level matchings
    unioned (their vertex sets are disjoint) and k the maximum over
    components.  Empty input and isolated vertices (a single vertex
    included) admit no cover and raise :class:`NoCoverError`.

    The cover is checked once, at the end, with :func:`verify_cover`;
    components are vertex-disjoint, so a bad part cover fails that check.
    """
    if g.n == 0:
        raise NoCoverError("empty graph has no matching cover")
    comps = components(g)
    for comp in comps:
        if len(comp) == 1:
            raise NoCoverError(
                f"vertex {comp[0]} is isolated: no matching cover exists"
            )
    if len(comps) == 1:
        result = _solve_connected(g, trace)
    else:
        result = _solve_per_component(g, comps, trace)
    if not verify_cover(g, result.cover):
        raise InternalInvariantError("assembled cover does not cover V(G)")
    return result


def _solve_per_component(g, comps, trace):
    sub_results = []
    for comp in comps:
        sub, old_ids = induced_subgraph(g, comp)
        res = _solve_connected(sub, trace)
        sub_results.append((res, old_ids))
    k = max(res.cover.k for res, _ in sub_results)
    levels: list[list[tuple[int, int]]] = [[] for _ in range(k)]
    for res, old_ids in sub_results:
        for i, m in enumerate(res.cover.matchings):
            levels[i].extend(
                (old_ids[u], old_ids[v]) for u, v in m.edges()
            )
    cover = MatchingCover(
        tuple(Matching.from_edges(g, sorted(level)) for level in levels)
    )
    mds = [res.md for res, _ in sub_results if res.md is not None]
    return SolveResult(
        cover=cover,
        branch="per_component",
        md=max(mds) if mds else None,
        transforms=sum(res.transforms for res, _ in sub_results),
        gstar_size=None,
    )


def _solve_connected(g, trace):
    m = maximum_matching(g)
    ge = decompose(g, m)
    if not ge.a:
        if not ge.d:
            return SolveResult(
                cover=MatchingCover((m,)),
                branch="perfect",
                md=None,
                transforms=0,
                gstar_size=None,
            )
        # connected with A empty and D nonempty: factor-critical, one
        # exposed vertex; a near-perfect matching plus any edge at the
        # exposed vertex is optimal
        exposed = [v for v in range(g.n) if m.mate(v) == -1]
        if len(exposed) != 1:
            raise InternalInvariantError(
                "factor-critical branch expects exactly one exposed vertex"
            )
        v = exposed[0]
        w = g.adjacency[v][0]
        extra = Matching.from_edges(g, [(min(v, w), max(v, w))])
        return SolveResult(
            cover=MatchingCover((m, extra)),
            branch="factor_critical",
            md=None,
            transforms=0,
            gstar_size=None,
        )
    gs = build_gstar(g, ge)
    # every neighbour of a D*-vertex lies in A, so m pairs each D*-vertex
    # with an A-vertex or leaves it exposed: all that initial_cover reads
    opt = optimize(gs, initial_cover(gs, m), trace)
    return SolveResult(
        cover=assemble(g, ge, m, opt.cover),
        branch="gstar",
        md=opt.cover.max_degree(),
        transforms=opt.transforms,
        gstar_size=gs.size,
    )


def assemble(
    g: Graph, ge: GallaiEdmonds, m: Matching, sc_final: StarCover
) -> MatchingCover:
    """Turn an optimal star cover of the derived graph into a cover of g.

    Level 1 is a maximum matching grown on g itself from the perfect
    matching on C plus one edge per star; growth never uncovers a vertex,
    so level 1 keeps covering C and every star's first edge.  Level 2
    merges the rescue edges inside the nontrivial D-components with each
    star's next edge; higher levels take one further edge per star.
    """
    c_set = ge.c
    m_prime = [e for e in m.edges() if e[0] in c_set and e[1] in c_set]
    if {v for e in m_prime for v in e} != set(c_set):
        raise InternalInvariantError("matching restricted to C is not perfect on C")

    n_edges: list[tuple[int, int]] = []
    rest: dict[int, list[int]] = {}
    for a in sorted(sc_final.stars):
        ds = sc_final.stars[a]
        if not ds:
            continue
        n_edges.append((min(a, ds[0]), max(a, ds[0])))
        rest[a] = ds[1:]

    try:
        seed = Matching.from_edges(g, m_prime + n_edges)
    except ValueError as exc:
        raise InternalInvariantError(f"level-1 matching is inconsistent: {exc}")
    m1 = maximum_matching_covering(g, seed)
    if len(m1) != len(m):
        raise InternalInvariantError("level-1 matching is not maximum")

    covered = m1.vertices() | {v for d, a in sc_final.center.items() for v in (d, a)}
    d_set = ge.d
    rescue: list[tuple[int, int]] = []
    for w in sorted(d_set):
        if w not in covered:
            inside = [x for x in g.adjacency[w] if x in d_set]
            if not inside:
                raise InternalInvariantError(
                    f"uncovered vertex {w} has no edge inside its D-component"
                )
            x = inside[0]
            rescue.append((min(w, x), max(w, x)))

    k = max(2, sc_final.max_degree())
    levels: list[list[tuple[int, int]]] = [[] for _ in range(k - 1)]
    for a in sorted(rest):
        for j, d in enumerate(rest[a]):
            levels[j].append((min(a, d), max(a, d)))
    levels[0] = sorted(levels[0] + rescue)

    matchings = [m1]
    for level in levels:
        try:
            matchings.append(Matching.from_edges(g, sorted(level)))
        except ValueError as exc:
            raise InternalInvariantError(f"level matching is inconsistent: {exc}")
    for mm in matchings:
        if len(mm) == 0:
            raise InternalInvariantError("assembled cover contains an empty matching")
    return MatchingCover(tuple(matchings))
