"""Seeded instance generators for the four benchmark workload families.

Every instance is produced as solver input text (`p`/`e` lines, 1-indexed)
from a generator that lives here rather than in the package, so a change to
the solver cannot change what the benchmark feeds it.  Instance i of a
workload draws from its own ``random.Random("<workload>/<seed>/<i>")``, so a
batch is the same for a seed on every machine and in every process.

Why each family exists (which layer it loads):

- sparse3n: random connected graphs with m = 3n and no small barrier made
  of leaves (see ``_has_small_barrier``).  Three instances in four have even
  n and take the ``perfect`` branch (blossom and parse only); every fourth
  has odd n and takes the ``gstar`` branch with |D| close to n, where
  assembly's ``maximum_matching_covering`` dominates.  The fixed one-in-four
  split keeps the median inside the perfect group and the tail percentile
  inside the gstar group on every seed.
- tree: connected graphs with m = n + n/100.  Most blossom searches end in
  failed (Hungarian) trees and ``decompose`` is a third of the solve; md is
  4 to 7 with a handful of transforms.
- lopsided: complete bipartite K_{k,L} with L/k from 32 to 85.  Balancing
  in ``dstar`` dominates and mc = max(2, ceil(L/k)) is known in closed form.
- components: disconnected graphs of 100 to 200 components of 2 to 24
  vertices each, tree-like to 3s edges.  It loads the ``per_component`` path,
  all three connected branches, and the per-component ``induced_subgraph``
  scans of the whole edge list.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Instance:
    text: str
    n: int
    m: int
    expected_mc: int | None  # closed-form mc when the family has one


@dataclass(frozen=True)
class Workload:
    name: str
    batch: int
    make: Callable[[random.Random, int], Instance]


def _connected_edges(rng: random.Random, n: int, m: int) -> set[tuple[int, int]]:
    """Random attachment tree plus uniform extra edges: connected and simple."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((u, v) if u < v else (v, u))
    return edges


def _instance(rng, n, edges, expected_mc=None) -> Instance:
    """Serialize with a random relabelling, so vertex ids carry no structure."""
    label = list(range(1, n + 1))
    rng.shuffle(label)
    lines = [f"p {n} {len(edges)}"]
    lines.extend(f"e {label[u]} {label[v]}" for u, v in sorted(edges))
    return Instance("\n".join(lines), n, len(edges), expected_mc)


def _has_small_barrier(n: int, edges) -> bool:
    """Whether leaves form a small Tutte barrier: a vertex with two leaves
    (a cherry), or a non-leaf whose neighbours all carry a leaf."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    leaves_at = [0] * n
    for v in range(n):
        if len(adj[v]) == 1:
            leaves_at[adj[v][0]] += 1
    if max(leaves_at) >= 2:
        return True
    return any(len(a) >= 2 and all(leaves_at[w] for w in a) for a in adj)


def sparse3n(rng: random.Random, index: int, half_n=(1950, 2050)) -> Instance:
    # Small leaf barriers are the usual reason an even-n instance lacks a
    # perfect matching, and they turn an odd-n instance into a cheap one
    # with |D| of 2 or 3.  Resampling them away fixes the branch mix.
    n = 2 * rng.randint(*half_n) + (index % 4 == 3)
    edges = _connected_edges(rng, n, 3 * n)
    while _has_small_barrier(n, edges):
        edges = _connected_edges(rng, n, 3 * n)
    return _instance(rng, n, edges)


def tree(rng: random.Random, index: int, n_range=(2900, 3100)) -> Instance:
    n = rng.randint(*n_range)
    return _instance(rng, n, _connected_edges(rng, n, n + n // 100))


def lopsided(rng: random.Random, index: int, k_range=(4, 10), l_range=(320, 340)) -> Instance:
    # k cycles through its range so every batch holds the same mix of
    # centre counts; L is drawn per instance.
    lo, hi = k_range
    k = lo + index % (hi - lo + 1)
    big = rng.randint(*l_range)
    edges = {(a, k + b) for a in range(k) for b in range(big)}
    return _instance(rng, k + big, edges, expected_mc=max(2, -(-big // k)))


def components(rng: random.Random, index: int, counts=(100, 125, 150, 175, 200)) -> Instance:
    # The component count cycles with the index: the per-component
    # induced_subgraph scans cost about count * m, so the batch spans a
    # fourfold range and the tail percentile falls on the largest graphs.
    # More components per graph made the scans outgrow the core's cache:
    # at 350, host load slowed those graphs by up to a third while the speed
    # gauge and the smaller graphs barely moved.
    edges: set[tuple[int, int]] = set()
    n = 0
    for _ in range(counts[index % len(counts)]):
        s = rng.randint(2, 24)
        m = rng.randint(s - 1, min(3 * s, s * (s - 1) // 2))
        edges.update((n + u, n + v) for u, v in _connected_edges(rng, s, m))
        n += s
    return _instance(rng, n, edges)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sparse3n", 40, sparse3n),
        Workload("tree", 40, tree),
        Workload("lopsided", 42, lopsided),
        Workload("components", 40, components),
    )
}


def instance_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


def make_batch(workload: str, seed: int) -> list[Instance]:
    w = WORKLOADS[workload]
    return [w.make(instance_rng(workload, seed, i), i) for i in range(w.batch)]
