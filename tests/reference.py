"""Brute-force and reference checks that the tests compare the solver against.

Matching numbers come from a bitmask subset DP and the derived-graph cover
number from capacity-bounded assignment, both independent of the solver
pipeline; the cover number's search, ``brute_mc``, stays in
``matchcover.oracle`` for ``matchcover oracle``.  The reference checks
:func:`verify_decomposition` and :func:`is_factor_critical` run the blossom
engine on g minus each vertex: independent of the forest that ``decompose``
reads A from and of its walk of G - A, not of the engine.
:func:`full_traversal` walks every component of G - U from every vertex,
the reference for ``decompose``'s walk, which starts at few vertices.
"""

from __future__ import annotations

from typing import Iterable

from matchcover import Graph, Matching, OracleBudget, components, induced_subgraph
from matchcover.blossom import _from_mate, _maximize
from matchcover.gallai_edmonds import GallaiEdmonds
from matchcover.oracle import _check_budget, _neighbor_masks


def maximum_matching(g: Graph) -> Matching:
    """A maximum-cardinality matching, computed deterministically."""
    mate = [-1] * g.n
    _maximize(g.adjacency, mate)
    return _from_mate(mate)


def _nu_table(g: Graph) -> list[int]:
    """nu of every induced subgraph, indexed by vertex bitmask."""
    nbr = _neighbor_masks(g)
    size = 1 << g.n
    f = [0] * size
    for mask in range(1, size):
        vbit = mask & -mask
        v = vbit.bit_length() - 1
        rest = mask ^ vbit
        best = f[rest]
        cand = nbr[v] & rest
        while cand:
            ubit = cand & -cand
            val = 1 + f[rest ^ ubit]
            if val > best:
                best = val
            cand ^= ubit
        f[mask] = best
    return f


def brute_nu(g: Graph, budget: OracleBudget | None = None) -> int:
    """Exact maximum matching cardinality by subset DP."""
    _check_budget(g.n, g.m, budget)
    return _nu_table(g)[(1 << g.n) - 1]


def brute_d_set(g: Graph, budget: OracleBudget | None = None) -> frozenset[int]:
    """{v : nu(g - v) = nu(g)}, straight from the definition."""
    _check_budget(g.n, g.m, budget)
    f = _nu_table(g)
    full = (1 << g.n) - 1
    nu = f[full]
    return frozenset(v for v in range(g.n) if f[full ^ (1 << v)] == nu)


def brute_md(adj, a, d_star, budget: OracleBudget | None = None) -> int:
    """Minimum over star covers of the maximum star size; 0 with no D-vertices.

    Each D-vertex d of ``d_star`` has the A-neighbours ``adj[d]`` (A being
    ``a``).  Feasibility of a given bound is checked by augmenting-path
    assignment with each A-vertex split into that many slots.
    """
    if not d_star:
        return 0
    _check_budget(len(a) + len(d_star), sum(len(adj[d]) for d in d_star), budget)
    for k in range(1, len(d_star) + 1):
        if _assignable(adj, d_star, k):
            return k
    raise RuntimeError("unreachable: every D-vertex has an A-neighbour")


def _assignable(adj, d_star, k: int) -> bool:
    slot_owner: dict[tuple[int, int], int] = {}

    def place(d: int, seen: set[tuple[int, int]]) -> bool:
        for a in adj[d]:
            for s in range(k):
                slot = (a, s)
                if slot in seen:
                    continue
                seen.add(slot)
                if slot not in slot_owner or place(slot_owner[slot], seen):
                    slot_owner[slot] = d
                    return True
        return False

    return all(place(d, set()) for d in sorted(d_star))


def neighbor_set(g: Graph, s: Iterable[int]) -> frozenset[int]:
    """Vertices outside ``s`` adjacent to at least one vertex of ``s``."""
    inside = frozenset(s)
    out: set[int] = set()
    for v in inside:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} not in host graph")
        for w in g.adjacency[v]:
            if w not in inside:
                out.add(w)
    return frozenset(out)


def verify_decomposition(g: Graph, ge: GallaiEdmonds) -> bool:
    """Check the decomposition against the per-vertex definition of D, and
    the matching against the Gallai-Edmonds structure.

    Each membership test recomputes a maximum matching of g minus a vertex,
    independently of how :func:`decompose` reads D and A.  Then A must be
    N(D) outside D, ``ge.mate`` must match every C-vertex to a C-neighbour,
    and every A-vertex to a neighbour in D, no two in one D-component.
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
    # the structure the Tutte-Berge walk of decompose never visits: M
    # matches C inside itself and each A-vertex into its own D-component
    mate, c = ge.mate, ge.c

    def matched_to(v):
        w = mate[v]
        return w if w != -1 and mate[w] == v and w in g.adjacency[v] else None

    if any(matched_to(v) not in c for v in c):
        return False
    sub, old_ids = induced_subgraph(g, sorted(ge.d))
    component_of = {old_ids[v]: i for i, comp in enumerate(components(sub)) for v in comp}
    hit = [component_of.get(matched_to(a)) for a in ge.a]
    return None not in hit and len(set(hit)) == len(hit)


def full_traversal(g: Graph, u: Iterable[int]):
    """(D, C, D*, odd) read off G - u with a component list for every
    component: odd ones go to D, even ones to C, one-vertex ones to D*, and
    odd counts the odd ones.  It starts a walk at every vertex outside u."""
    seen = [False] * g.n
    for v in u:
        seen[v] = True
    d, c, d_star, odd = set(), set(), set(), 0
    for s in range(g.n):
        if seen[s]:
            continue
        seen[s] = True
        comp = [s]
        for v in comp:
            for w in g.adjacency[v]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
        if len(comp) % 2:
            d.update(comp)
            odd += 1
        else:
            c.update(comp)
        if len(comp) == 1:
            d_star.add(s)
    return d, c, d_star, odd


def is_factor_critical(h: Graph) -> bool:
    """True iff h is connected and h minus any one vertex has a perfect matching."""
    if h.n == 0 or len(components(h)) != 1:
        return False
    if h.n % 2 == 0:
        return False
    for v in range(h.n):
        keep = [w for w in range(h.n) if w != v]
        sub, _ = induced_subgraph(h, keep)
        if 2 * len(maximum_matching(sub)) != sub.n:
            return False
    return True
