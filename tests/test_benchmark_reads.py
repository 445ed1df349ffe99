"""The package reads that solvebench makes still work.

solvebench's tracer counts each decomposition's D, A, C and D* sizes and
each solve's branch, and its runner parses, solves and verifies through the
package's top-level names.  Its own self-tests run in a separate CI step, so
these tier-1 checks call the same functions on one graph of each branch;
nothing is timed and nothing is written.
"""

import importlib
import sys
from pathlib import Path

import pytest

import matchcover
from matchcover import serialize_graph, solve
from matchcover.gallai_edmonds import decompose

from conftest import cycle_graph, path_graph, star_graph

BENCH_DIR = Path(__file__).resolve().parents[1] / "solvebench"
BENCH_MODULES = ("spans", "run", "workloads")


@pytest.fixture
def bench(monkeypatch):
    """solvebench's ``spans`` and ``run`` modules, unloaded again afterwards."""
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    loaded = {name for name in BENCH_MODULES if name in sys.modules}
    yield importlib.import_module("spans"), importlib.import_module("run")
    for name in set(BENCH_MODULES) - loaded:
        sys.modules.pop(name, None)


@pytest.mark.parametrize(
    "g, branch",
    [(path_graph(4), "perfect"), (cycle_graph(5), "factor_critical"), (star_graph(3), "gstar")],
    ids=["perfect", "factor_critical", "gstar"],
)
def test_tracer_counts_and_runner_calls(bench, g, branch):
    spans, run = bench
    ge = decompose(g)
    counts = spans._decompose_counts(ge)
    assert counts[f"cover.branch.{branch}"] == 1
    assert counts["gallai_edmonds.c_size"] == len(ge.c)
    res = solve(g)
    assert res.branch == branch
    assert spans._solve_counts(res) == {}
    got, valid = run.solve_once(matchcover, serialize_graph(g))
    assert valid and got.cover.k == res.cover.k
