"""In-memory span tracing around matchcover's public calls.

The package's modules import each other's functions by name (``from
.blossom import maximum_matching``), so a call made inside the package
looks the function up in the caller's module globals.  ``Tracer.installed``
therefore replaces every binding of a wrapped function in every loaded
``matchcover`` module, not only the one in its home module, and restores
them all on exit.

A span is (name, start, end, parent index, instance id).  A span's self
time is its duration minus the durations of its direct child spans; every
instance runs under one root span, so the self times of an instance's spans
add up to its traced wall time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager

# layer (= module under matchcover) -> public callables wrapped in it
LAYERS = {
    "graph": ("parse_graph", "induced_subgraph", "components"),
    "blossom": (
        "maximum_matching",
        "augment",
        "outer_vertices",
        "maximum_matching_covering",
    ),
    "gallai_edmonds": ("decompose",),
    "dstar": (
        "build_gstar",
        "initial_cover",
        "optimize",
        "build_forest",
        "find_switching_path",
        "transform",
        "StarCover",
    ),
    "cover": ("solve", "assemble", "verify_cover"),
}
PACKAGE = "matchcover"
SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)
ROOT = "bench.instance"
COUNTERS = (
    "gallai_edmonds.d_size",
    "gallai_edmonds.a_size",
    "gallai_edmonds.c_size",
    "gallai_edmonds.dstar_size",
    "dstar.transforms",
    "dstar.path_edges",
    "cover.branch.perfect",
    "cover.branch.factor_critical",
    "cover.branch.gstar",
    "cover.branch.per_component",
)


def _decompose_counts(ge):
    # Every connected solve decomposes exactly once, so the decomposition
    # names the branch each connected part takes, inside per_component too.
    branch = "gstar" if ge.a else "factor_critical" if ge.d else "perfect"
    return {
        "gallai_edmonds.d_size": len(ge.d),
        "gallai_edmonds.a_size": len(ge.a),
        "gallai_edmonds.c_size": len(ge.c),
        "gallai_edmonds.dstar_size": len(ge.d_star),
        f"cover.branch.{branch}": 1,
    }


def _solve_counts(res):
    return {"cover.branch.per_component": 1} if res.branch == "per_component" else {}


_RESULT_COUNTS = {
    "gallai_edmonds.decompose": _decompose_counts,
    "cover.solve": _solve_counts,
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: list[Counter] = []  # per instance, indexed by instance id
        self._stack: list[int] = []
        self._wrappers: dict = {}
        self._instance = -1

    def _push(self):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        return idx, parent

    def _pop(self, name, idx, parent, start, end):
        self._stack.pop()
        self.spans[idx] = (name, start, end, parent, self._instance)

    def _wrap(self, name, fn):
        push, pop, clock = self._push, self._pop, time.perf_counter
        counts_of = _RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx, parent = push()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                pop(name, idx, parent, start, clock())
            if counts_of is not None:
                self.counts[self._instance].update(counts_of(result))
            return result

        return traced

    def on_transform(self, path, delta):
        """``trace`` hook for ``solve``: one call per switching-path transform."""
        c = self.counts[self._instance]
        c["dstar.transforms"] += 1
        c["dstar.path_edges"] += len(path.vertices) - 1

    @contextmanager
    def installed(self):
        """Swap every binding of each wrapped callable for its traced wrapper."""
        mods = [
            m
            for name, m in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        patched = []
        for layer, fns in LAYERS.items():
            home = sys.modules.get(f"{PACKAGE}.{layer}")
            for fn in fns:
                orig = getattr(home, fn, None)
                if orig is None:
                    continue
                key = (f"{layer}.{fn}", orig)
                if key not in self._wrappers:
                    self._wrappers[key] = self._wrap(key[0], orig)
                for mod in mods:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, self._wrappers[key])
                            patched.append((mod, attr, orig))
        try:
            yield
        finally:
            for mod, attr, orig in patched:
                setattr(mod, attr, orig)

    @contextmanager
    def instance(self, instance_id: int):
        """Root span of one instance; its duration is the traced wall time."""
        while len(self.counts) <= instance_id:
            self.counts.append(Counter())
        self._instance = instance_id
        idx, parent = self._push()
        start = time.perf_counter()
        try:
            yield idx
        finally:
            self._pop(ROOT, idx, parent, start, time.perf_counter())


def self_times(spans) -> list[float]:
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(s[2] - s[1]) - child[i] for i, s in enumerate(spans)]


def write_tsv(spans, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("name\tstart\tend\tparent\tinstance\n")
        for name, start, end, parent, inst in spans:
            fh.write(f"{name}\t{start!r}\t{end!r}\t{parent}\t{inst}\n")
