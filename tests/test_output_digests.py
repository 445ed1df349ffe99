"""Committed digests of the solver's whole output on named instances.

Each digest is the sha256 of one instance's mc, branch, md, transform
count, derived-graph size, every level's pairs and every traced switching
path with the maximum star size after it.  A change that is meant to keep
the output as it is must leave every digest in ``output_digests.json`` as
it is; a change that means to alter covers regenerates the file with

    PYTHONPATH=src python tests/test_output_digests.py --write

and says why in its description.  The instances mirror the benchmark's four
families (m = 3n random graphs, tree-like m = n + n/100, lopsided
K_{k,L}, disjoint unions of many small components) at smaller sizes, plus
small G(n, p) graphs, and are built here from the package's own generator
and ``Graph.from_edges`` alone.
"""

import hashlib
import json
import random
import sys
from pathlib import Path

from matchcover import Graph, random_connected_graph, solve
from matchcover.gallai_edmonds import decompose

DIGESTS = Path(__file__).with_name("output_digests.json")


def relabelled(n, edges, rng):
    """The graph on n vertices with its ids shuffled by rng."""
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])


def disjoint_union(count, rng):
    """count random connected parts of 2 to 24 vertices, tree-like to 3s
    edges, with their ids shuffled so that the parts interleave."""
    edges, n = [], 0
    for _ in range(count):
        s = rng.randint(2, 24)
        m = rng.randint(s - 1, min(3 * s, s * (s - 1) // 2))
        part = random_connected_graph(s, m=m, seed=rng.randrange(1 << 30))
        edges += [(n + u, n + v) for u, v in part.edges]
        n += s
    return relabelled(n, edges, rng)


def instances():
    """(name, graph) of every digested instance, in a fixed order."""
    for s in range(12):
        n = 2000 + 2 * s + s % 2
        yield f"sparse3n/{s}", random_connected_graph(n, m=3 * n, seed=s)
    for s in range(12):
        n = 2900 + 29 * s
        yield f"tree/{s}", random_connected_graph(n, m=n + n // 100, seed=s)
    for k, ratio in ((4, 30), (5, 47), (7, 64), (10, 88)):
        big = k * ratio + k // 2
        edges = [(a, k + b) for a in range(k) for b in range(big)]
        yield f"lopsided/{k}x{big}", Graph.from_edges(k + big, edges)
        g = relabelled(k + big, edges, random.Random(k))
        yield f"lopsided/{k}x{big}/relabelled", g
    for s, count in enumerate((100, 125, 150, 175, 200)):
        yield f"components/{count}", disjoint_union(count, random.Random(s))
    for n in range(4, 13):
        for s in range(12):
            yield f"gnp/{n}/{s}", random_connected_graph(n, p=0.2 + 0.05 * (s % 4), seed=s)


def digest(g):
    """sha256 of the solve's output on g, traced paths included."""
    paths = []
    res = solve(g, trace=lambda path, delta: paths.append([list(path.vertices), delta]))
    ge = decompose(g)
    record = [
        res.cover.k,
        res.branch,
        res.md,
        res.transforms,
        len(ge.a) + len(ge.d_star) if ge.a else None,
        [[list(e) for e in m.pairs] for m in res.cover.matchings],
        paths,
    ]
    text = json.dumps(record, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def current_digests():
    return {name: digest(g) for name, g in instances()}


def test_output_digests_unchanged():
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = current_digests()
    assert got.keys() == expected.keys()
    changed = sorted(name for name in got if got[name] != expected[name])
    assert not changed, f"output changed on {changed}"


def test_instances_reach_every_branch():
    branches = {solve(g).branch for name, g in instances() if name.startswith("gnp/")}
    assert branches == {"perfect", "factor_critical", "gstar"}


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_output_digests.py --write")
    DIGESTS.write_text(json.dumps(current_digests(), indent=1) + "\n", encoding="utf-8")
