"""Acceptance gate: one test per criterion, each printing its own verdict.

The random-instance corpus is built once per session and shared by the
criteria that inspect it, so the whole gate stays within a few minutes.
"""

import json
import time
from dataclasses import dataclass
from itertools import combinations

import pytest

from matchcover import (
    Graph,
    Matching,
    brute_mc,
    components,
    induced_subgraph,
    random_connected_graph,
    solve,
    verify_cover,
)
from matchcover.gallai_edmonds import decompose
from matchcover.cli import main
from matchcover.oracle import OracleBudget

from reference import (
    brute_d_set,
    brute_md,
    is_factor_critical,
    maximum_matching,
    verify_decomposition,
)

BUDGET = OracleBudget(max_vertices=12, max_edges=66)


def verdict(num, label, ok):
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({label}) failed"


def connected_graphs_up_to(n_max):
    for n in range(2, n_max + 1):
        all_pairs = list(combinations(range(n), 2))
        for bits in range(1 << len(all_pairs)):
            edges = [e for i, e in enumerate(all_pairs) if bits >> i & 1]
            g = Graph.from_edges(n, edges)
            if len(components(g)) == 1:
                yield g


@dataclass
class Instance:
    graph: Graph
    result: object
    decomposition: object


@pytest.fixture(scope="module")
def corpus():
    """2016 random connected graphs, n in 6..11, three densities."""
    instances = []
    for n in range(6, 12):
        for p in (0.2, 0.4, 0.7):
            for rep in range(112):
                seed = n * 100000 + int(p * 10) * 1000 + rep
                g = random_connected_graph(n, p=p, seed=seed)
                res = solve(g)
                ge = decompose(g)
                instances.append(Instance(g, res, ge))
    assert len(instances) >= 2000
    return instances


def test_criterion_1_exhaustive_tiny_scale():
    mismatches = 0
    total = 0
    for g in connected_graphs_up_to(5):
        total += 1
        if solve(g).cover.k != brute_mc(g, BUDGET):
            mismatches += 1
    assert total == 771  # connected labeled graphs on 2..5 vertices
    verdict(1, "exhaustive oracle equivalence n<=5", mismatches == 0)


def test_criterion_2_randomized_oracle_equivalence(corpus):
    mismatches = 0
    for inst in corpus:
        if inst.result.cover.k != brute_mc(inst.graph, BUDGET):
            mismatches += 1
            continue
        ge = inst.decomposition
        if ge.a:
            md = brute_md(inst.graph.adjacency, ge.a, ge.d_star, BUDGET)
            if inst.result.md != md:
                mismatches += 1
    verdict(2, "randomized oracle equivalence, 2016 instances", mismatches == 0)


def test_criterion_3_structural_laws(corpus):
    ok = True
    for g in connected_graphs_up_to(5):
        res = solve(g)
        perfect = len(maximum_matching(g)) * 2 == g.n
        ok = ok and ((res.cover.k == 1) == perfect)
        if is_factor_critical(g):
            ok = ok and res.cover.k == 2
    for inst in corpus:
        g, res, ge = inst.graph, inst.result, inst.decomposition
        perfect = len(maximum_matching(g)) * 2 == g.n
        ok = ok and ((res.cover.k == 1) == perfect)
        if is_factor_critical(g):
            ok = ok and res.cover.k == 2
        if ge.a:
            ok = ok and res.cover.k == max(2, res.md)
    verdict(3, "structural cover-size laws", ok)


def test_criterion_4_decomposition_certification(corpus):
    ok = True
    for inst in corpus:
        g, ge = inst.graph, inst.decomposition
        ok = ok and verify_decomposition(g, ge)
        ok = ok and ge.d == brute_d_set(g, BUDGET)
        sub_d, d_ids = induced_subgraph(g, ge.d)
        d_components = [
            tuple(d_ids[v] for v in comp) for comp in components(sub_d)
        ]
        for comp in d_components:
            sub, _ = induced_subgraph(g, comp)
            ok = ok and is_factor_critical(sub)
        exposed = ge.mate.count(-1)
        if ge.d:
            ok = ok and exposed == len(d_components) - len(ge.a)
        else:
            ok = ok and exposed == 0
    verdict(4, "decomposition certification", ok)


def test_criterion_5_termination_bound(corpus):
    ok = True
    for inst in corpus:
        ge = inst.decomposition
        if ge.a:
            ok = ok and inst.result.transforms <= len(ge.a) + len(ge.d_star)
        else:
            ok = ok and inst.result.transforms == 0
    verdict(5, "switching-path transform bound", ok)


def test_criterion_6_cover_validity(corpus):
    ok = True
    for g in connected_graphs_up_to(5):
        ok = ok and verify_cover(g, solve(g).cover)
    for inst in corpus:
        cover = inst.result.cover
        ok = ok and verify_cover(inst.graph, cover)
        for m in cover.matchings:
            seen = set()
            for u, v in m.pairs:
                ok = ok and u not in seen and v not in seen
                seen.update((u, v))
    verdict(6, "cover validity", ok)


def test_criterion_7_scaling_smoke():
    # seeds chosen so every size runs the derived-graph branch, keeping
    # the timing comparison like for like; best of three runs per size,
    # taken in three interleaved rounds that each time every size once, so
    # a slow stretch of the host slows all sizes of a round alike
    sizes = {500: 9, 1000: 11, 2000: 4, 4000: 9}
    graphs = {n: random_connected_graph(n, m=3 * n, seed=s) for n, s in sizes.items()}
    times = dict.fromkeys(sizes, float("inf"))
    for _ in range(3):
        for n, g in graphs.items():
            start = time.perf_counter()
            res = solve(g)
            times[n] = min(times[n], time.perf_counter() - start)
            assert res.branch == "gstar"
    ok = times[4000] < 60.0
    for small, big in ((500, 1000), (1000, 2000), (2000, 4000)):
        ok = ok and times[big] / times[small] <= 5.0
    verdict(7, "scaling smoke test m=3n", ok)


def test_criterion_8_determinism(tmp_path, capsys):
    g = random_connected_graph(9, p=0.4, seed=42)
    from matchcover import serialize_graph

    path = tmp_path / "det.g"
    path.write_text(serialize_graph(g) + "\n")
    assert main(["solve", "--json", str(path)]) == 0
    first = capsys.readouterr().out.encode()
    assert main(["solve", "--json", str(path)]) == 0
    second = capsys.readouterr().out.encode()
    json.loads(first)  # well-formed
    verdict(8, "byte-identical repeated runs", first == second)
