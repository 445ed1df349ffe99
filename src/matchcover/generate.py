"""Seeded random connected graph generation for tests and benchmarks."""

from __future__ import annotations

import random
from itertools import combinations

from .graph import Graph, components

# G(n, p) samples drawn before giving up on a connected one
MAX_ATTEMPTS = 10000


def random_connected_graph(
    n: int,
    *,
    p: float | None = None,
    m: int | None = None,
    seed: int = 0,
) -> Graph:
    """Connected graph on n vertices, reproducible per seed.

    With edge probability p, samples G(n, p) and rejects until connected;
    ValueError if none of MAX_ATTEMPTS samples is.
    With an edge count m, builds a random attachment tree and adds random
    extra edges, which is connected by construction and stays practical for
    large sparse instances where rejection would almost never succeed.
    """
    if n < 2:
        raise ValueError("need at least two vertices")
    if (p is None) == (m is None):
        raise ValueError("specify exactly one of p and m")
    rng = random.Random(seed)
    if p is not None:
        if not (0.0 <= p <= 1.0):
            raise ValueError("edge probability must be in [0, 1]")
        for _ in range(MAX_ATTEMPTS):
            edges = [e for e in combinations(range(n), 2) if rng.random() < p]
            g = Graph.from_edges(n, edges)
            if len(components(g)) == 1:
                return g
        raise ValueError(
            f"no connected sample in {MAX_ATTEMPTS} attempts (n={n}, p={p})"
        )
    if m < n - 1:
        raise ValueError(f"{m} edges cannot connect {n} vertices")
    if m > n * (n - 1) // 2:
        raise ValueError(f"{m} edges exceed the simple-graph maximum")
    edges_set: set[tuple[int, int]] = set()
    for v in range(1, n):
        u = rng.randrange(v)
        edges_set.add((u, v))
    while len(edges_set) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        edges_set.add((min(u, v), max(u, v)))
    return Graph.from_edges(n, edges_set)
