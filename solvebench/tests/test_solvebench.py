"""Checks on the benchmark itself.

    python3 -m pytest solvebench/tests -q

Generators are deterministic per seed, each workload reaches the shape it
exists for (read from the traced run's branch and size counters), the solver
agrees with independent references on reduced sizes, and the traced run
accounts for every second of an instance.
"""

import json
import random

import matchcover
import pytest
import run
import spans
import workloads
from matchcover import OracleBudget, brute_mc, components, induced_subgraph, parse_graph, solve

SEED = workloads.DEFAULT_SEED


def traced(batch):
    """Solve each instance under the tracer; returns the tracer and results."""
    tracer = spans.Tracer()
    results = []
    for i, inst in enumerate(batch):
        with tracer.installed(), tracer.instance(i):
            res, valid = run.solve_once(matchcover, inst.text, tracer.on_transform)
        assert valid
        results.append(res)
    return tracer, results


def first(name, count):
    w = workloads.WORKLOADS[name]
    return [w.make(workloads.instance_rng(name, SEED, i), i) for i in range(count)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_per_seed(name):
    w = workloads.WORKLOADS[name]
    again = [w.make(workloads.instance_rng(name, SEED, i), i) for i in range(2)]
    other = [w.make(workloads.instance_rng(name, SEED + 1, i), i) for i in range(2)]
    assert first(name, 2) == again
    assert [i.text for i in again] != [i.text for i in other]


def test_sparse3n_shape():
    batch = first("sparse3n", 8)
    tracer, results = traced(batch)
    branches = [r.branch for r in results]
    assert "perfect" in branches and "gstar" in branches
    for i, (inst, res) in enumerate(zip(batch, results)):
        if i % 4 == 3:  # odd n: gstar with |D| close to n
            assert res.branch == "gstar"
            assert tracer.counts[i]["gallai_edmonds.d_size"] > inst.n // 2


def test_tree_shape():
    tracer, results = traced(first("tree", 6))
    assert all(c["cover.branch.gstar"] == 1 for c in tracer.counts)
    assert all(r.md >= 4 for r in results)


def test_lopsided_shape_and_closed_form():
    batch = first("lopsided", 7)
    tracer, results = traced(batch)
    assert all(c["dstar.transforms"] > 0 for c in tracer.counts)
    assert [r.cover.k for r in results] == [i.expected_mc for i in batch]


def test_components_shape():
    tracer, _ = traced(first("components", 2))
    for c in tracer.counts:
        assert c["cover.branch.per_component"] == 1
        for branch in ("perfect", "factor_critical", "gstar"):
            assert c[f"cover.branch.{branch}"] > 0


def test_reference_covers_each_batch():
    ref = json.loads(run.REFERENCE.read_text())
    assert ref["seed"] == SEED
    for name, w in workloads.WORKLOADS.items():
        if name == "lopsided":  # closed form instead
            assert name not in ref["mc"]
        else:
            assert len(ref["mc"][name]) == w.batch


REDUCED = [
    ("sparse3n", lambda rng, i: workloads.sparse3n(rng, i, half_n=(30, 60))),
    ("tree", lambda rng, i: workloads.tree(rng, i, n_range=(80, 150))),
    ("lopsided", lambda rng, i: workloads.lopsided(rng, i, k_range=(2, 5), l_range=(15, 40))),
    ("components", lambda rng, i: workloads.components(rng, i, counts=(12,))),
]


@pytest.mark.parametrize("name,make", REDUCED, ids=[r[0] for r in REDUCED])
def test_level_one_size_matches_networkx(name, make):
    nx = pytest.importorskip("networkx")
    for i in range(8):
        inst = make(random.Random(f"{name}/nx/{i}"), i)
        g = parse_graph(inst.text)
        h = nx.Graph(g.edges)
        nu = len(nx.max_weight_matching(h, maxcardinality=True))
        assert len(solve(g).cover.matchings[0]) == nu


def test_component_mc_matches_oracle():
    budget = OracleBudget(max_vertices=10, max_edges=45)
    checked = 0
    for i in range(3):
        inst = workloads.components(random.Random(f"oracle/{i}"), i, counts=(60,))
        g = parse_graph(inst.text)
        mcs = []
        for comp in components(g):
            sub, _ = induced_subgraph(g, comp)
            mcs.append(solve(sub).cover.k)
            if sub.n <= 10:
                assert mcs[-1] == brute_mc(sub, budget)
                checked += 1
        assert solve(g).cover.k == max(mcs)
    assert checked > 50


def test_traced_run_attributes_all_time_and_restores_bindings():
    batch = first("components", 1) + first("lopsided", 1)
    original = matchcover.cover.maximum_matching
    tracer, results = traced(batch)
    assert matchcover.cover.maximum_matching is original
    assert matchcover.gallai_edmonds.augment is matchcover.blossom.augment
    own = spans.self_times(tracer.spans)
    for i, res in enumerate(results):
        idx = [j for j, s in enumerate(tracer.spans) if s[4] == i]
        root = [j for j in idx if tracer.spans[j][0] == spans.ROOT]
        assert len(root) == 1
        _, start, end, _, _ = tracer.spans[root[0]]
        assert sum(own[j] for j in idx) == pytest.approx(end - start, abs=1e-9)
        untraced, valid = run.solve_once(matchcover, batch[i].text)
        assert valid and untraced.cover.k == res.cover.k
    _, unattributed, glue_frac = run.layer_metrics(tracer, [1.0] * len(batch))
    assert unattributed < 1e-6 and glue_frac < run.GLUE_MAX_FRAC
    names = {s[0] for s in tracer.spans}
    assert {"graph.induced_subgraph", "blossom.maximum_matching_covering",
            "dstar.StarCover", "dstar.transform", "cover.assemble"} <= names


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.BENCH_DIR.parent / "BENCHMARK.json").read_text())
    tracer, _ = traced(first("lopsided", 1))
    layer, _, _ = run.layer_metrics(tracer, [1.0])
    layer["trace.overhead_frac"] = (0.0, "frac")
    exported = {k: u for k, (_, u) in layer.items() if k not in run.PRINT_ONLY}
    assert exported == {m["name"]: m["unit"] for m in spec["per_layer"]}
    e2e, _ = run.end_to_end_metrics(1.0, [(0.1, 0.1, 10)] * 20)
    assert {k: u for k, (_, u) in e2e.items()} == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert spec["workloads"] and {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_tail_leaves_ten_samples_above():
    p, value = run.tail([float(i) for i in range(1, 101)])
    assert p == 90 and value == 90.0
    p, value = run.tail([float(i) for i in range(1, 401)])
    assert p == 97 and value == 388.0
