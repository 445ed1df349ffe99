"""Brute-force matching cover number for small instances.

The cover number comes from exhaustive star-forest search, independent of
the solver pipeline; ``matchcover oracle`` checks ``solve`` against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graph import Graph


@dataclass(frozen=True)
class OracleBudget:
    max_vertices: int = 12
    max_edges: int = 24


class OracleBudgetError(ValueError):
    """Instance exceeds what the brute-force oracle will attempt."""


def _check_budget(n: int, m: int, budget: OracleBudget | None) -> None:
    if budget is None:
        budget = OracleBudget()
    if n > budget.max_vertices:
        raise OracleBudgetError(
            f"{n} vertices exceeds oracle budget of {budget.max_vertices}"
        )
    if m > budget.max_edges:
        raise OracleBudgetError(
            f"{m} edges exceeds oracle budget of {budget.max_edges}"
        )


def _neighbor_masks(g: Graph) -> list[int]:
    nbr = [0] * g.n
    for u, v in g.edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    return nbr


def brute_mc(g: Graph, budget: OracleBudget | None = None) -> int:
    """Exact matching cover number.

    A minimal cover is a spanning star forest, and a star forest with
    maximum star size k splits into k matchings, so mc equals the minimum
    over spanning star forests of the maximum star size.  The search places
    the star containing the lowest uncovered vertex, memoized on the
    still-uncovered set, sweeping k upward.
    """
    _check_budget(g.n, g.m, budget)
    if g.n == 0:
        raise ValueError("empty graph has no matching cover")
    if g.n == 1:
        raise ValueError("a single vertex has no matching cover")
    for v in range(g.n):
        if not g.adjacency[v]:
            raise ValueError(f"isolated vertex {v} cannot be covered")
    nbr = _neighbor_masks(g)
    full = (1 << g.n) - 1

    for k in range(1, g.n):
        memo: dict[int, bool] = {}

        def feasible(mask: int) -> bool:
            if mask == 0:
                return True
            cached = memo.get(mask)
            if cached is not None:
                return cached
            vbit = mask & -mask
            v = vbit.bit_length() - 1
            ok = False
            avail = [1 << u for u in range(g.n) if nbr[v] & mask & (1 << u)]
            # v as a star center
            for r in range(1, min(k, len(avail)) + 1):
                for ends in combinations(avail, r):
                    if feasible(mask ^ vbit ^ sum(ends)):
                        ok = True
                        break
                if ok:
                    break
            # v as an end of an adjacent center
            if not ok:
                for cbit in avail:
                    c = cbit.bit_length() - 1
                    others = [
                        1 << u
                        for u in range(g.n)
                        if nbr[c] & mask & (1 << u) and u != v
                    ]
                    for r in range(0, min(k - 1, len(others)) + 1):
                        for extra in combinations(others, r):
                            if feasible(mask ^ vbit ^ cbit ^ sum(extra)):
                                ok = True
                                break
                        if ok:
                            break
                    if ok:
                        break
            memo[mask] = ok
            return ok

        if feasible(full):
            return k
    raise RuntimeError("unreachable: a spanning star forest always exists")
