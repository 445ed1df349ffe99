#!/usr/bin/env python3
"""Layered solve benchmark for matchcover.

    python3 solvebench/run.py --workload sparse3n --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; the solver is imported from its
``src/`` directory.  The workload's instances are generated from ``--seed``
and handed to the solver as text.  Each instance runs parse_graph -> solve ->
verify_cover, one at a time in a closed loop on one thread, cycling through
the batch for ``--seconds`` seconds.  Every answer is checked (outside the
timed region): the cover must verify, lopsided mc must equal its closed form,
and at the default seed the other families' mc must equal the stored
reference values.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it runs each instance untraced and then traced, in whole passes
over the batch until ``--seconds`` is used up, reports per-layer self time,
call and counter means per instance, and writes the spans to
``solvebench/out/``.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
REFERENCE = BENCH_DIR / "reference_mc.json"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPS = 3
# Printed but left out of the JSON result: the benchmark's own per-instance
# glue, which the traced run checks instead (GLUE_MAX_FRAC).
PRINT_ONLY = {"bench.instance.self_s", "bench.instance.calls"}
# Share of traced wall time allowed outside the wrapped calls.  That glue is
# the benchmark's own code plus freeing each instance's graph and result on
# return (0.3 to 1.2 % of the time).  An unwrapped solve would put most of
# the time there, an unwrapped parse_graph 5 to 25 %.
GLUE_MAX_FRAC = 0.05
# Calibration-loop time that defines the reference speed: the loop's time on
# an idle two-core x86-64 host under CPython 3.11, so scaled figures read as
# seconds on such a host with nothing else running.
CAL_REF_S = 0.00066


def _calibration_loop() -> None:
    # List allocation and indexing.  On a shared two-core host, solve times
    # followed this loop across the host's slow and fast states with a
    # log-log slope of 0.94 to 0.99; tight dict and BFS loops slowed about
    # half again as much as the solver did.
    for _ in range(10):
        a = [-1] * 4000
        b = list(range(4000))
        for i in range(0, 4000, 16):
            a[i] = b[i]


class SpeedGauge:
    """Host speed from a fixed pure-Python loop timed between measurements.

    A shared host's speed can drift by a third or more within seconds.  Each
    measured interval is scaled by CAL_REF_S over the median loop time of the
    readings around it, so figures are seconds at one reference speed.  The
    median of a few neighbouring readings follows the drift without adding
    one reading's jitter to every sample.
    """

    WINDOW = 2  # readings taken on each side of an interval

    def __init__(self):
        self.readings = [self._sample()]

    @staticmethod
    def _sample() -> float:
        times = []
        for _ in range(3):
            start = time.perf_counter()
            _calibration_loop()
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    def read(self) -> None:
        self.readings.append(self._sample())

    def scales(self) -> list[float]:
        """One factor per interval between consecutive readings."""
        r, w = self.readings, self.WINDOW
        return [
            CAL_REF_S / statistics.median(r[max(0, i + 1 - w): i + 1 + w])
            for i in range(len(r) - 1)
        ]


def import_matchcover():
    """Import the package afresh, so each set-up repetition pays import time."""
    for name in [n for n in sys.modules if n == "matchcover" or n.startswith("matchcover.")]:
        del sys.modules[name]
    return importlib.import_module("matchcover")


def setup(workload: str, seed: int):
    """Median of SETUP_REPS timed (import + generate + serialize) rounds.

    The timed rounds build the default seed's batch, so set-up time does not
    depend on ``--seed`` (sparse3n redraws a seed-dependent number of
    graphs); the batch for another seed is built afterwards, untimed.  The
    import and each instance are timed and scaled on their own, as solves
    are, so the gauge follows host drift within a round.
    """
    import_matchcover()  # the first import may compile bytecode; not timed
    w = workloads.WORKLOADS[workload]
    gauge = SpeedGauge()
    rounds = []
    for _ in range(SETUP_REPS):
        batch = []  # the previous round's batch is released first
        start = time.perf_counter()
        mc = import_matchcover()
        pieces = [time.perf_counter() - start]
        gauge.read()
        for i in range(w.batch):
            start = time.perf_counter()
            batch.append(w.make(workloads.instance_rng(workload, workloads.DEFAULT_SEED, i), i))
            pieces.append(time.perf_counter() - start)
            gauge.read()
        rounds.append(pieces)
    if seed != workloads.DEFAULT_SEED:
        batch = []
        batch = workloads.make_batch(workload, seed)
    factors = iter(gauge.scales())
    scaled = [sum(t * next(factors) for t in pieces) for pieces in rounds]
    return mc, batch, statistics.median(scaled), statistics.median(map(sum, rounds))


def expected_mcs(workload: str, seed: int, batch) -> tuple[list, str]:
    if all(inst.expected_mc is not None for inst in batch):
        return [inst.expected_mc for inst in batch], "closed form"
    ref = json.loads(REFERENCE.read_text())
    if seed == ref["seed"]:
        return ref["mc"][workload], f"reference values for seed {seed}"
    return [None] * len(batch), f"none for seed {seed}; validity checks only"


def solve_once(mc, text, hook=None):
    g = mc.parse_graph(text)
    res = mc.solve(g, trace=hook)
    return res, mc.verify_cover(g, res.cover)


def attempt(mc, text, hook=None):
    """(mc value or None on failure, seconds, error text)."""
    start = time.perf_counter()
    try:
        res, valid = solve_once(mc, text, hook)
    except Exception as exc:  # any raise counts as a failed instance
        return None, time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if not valid:
        return None, elapsed, "verify_cover rejected the cover"
    return res.cover.k, elapsed, None


class Tally:
    def __init__(self, expected):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, index: int, got, error) -> bool:
        self.attempted += 1
        want = self.expected[index]
        if error is None and want is not None and got != want:
            error = f"mc {got}, expected {want}"
        if error is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"instance {index}: {error}")
        return error is None


def tail(samples):
    """Highest whole percentile with at least ten samples above its rank."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return 100, xs[-1]
    p = min(99, (100 * (n - 10)) // n)
    return p, xs[math.ceil(p * n / 100) - 1]


def timed_run(mc, batch, tally, seconds):
    """Closed loop over the batch; returns (scaled s, raw s, m) per good instance."""
    runs = []
    gauge = SpeedGauge()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        k = len(runs) % len(batch)
        got, elapsed, error = attempt(mc, batch[k].text)
        gauge.read()
        runs.append((tally.check(k, got, error), elapsed, batch[k].m))
    return [(t * f, t, m) for (ok, t, m), f in zip(runs, gauge.scales()) if ok]


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end_metrics(setup_s, runs):
    """Metrics of a timed run, and the percentile solve_tail_s reports."""
    scaled = [t for t, _, _ in runs]
    p, tail_s = tail(scaled)
    return {
        "setup_s": (setup_s, "s"),
        "solve_p50_s": (statistics.median(scaled), "s"),
        "solve_tail_s": (tail_s, "s"),
        "edges_per_s": (sum(m for *_, m in runs) / sum(scaled), "1/s"),
        "peak_rss_mb": (max_rss_mb(), "MB"),
    }, p


def traced_run(mc, batch, tally, seconds):
    """Whole passes of (untraced, traced) pairs; returns the tracer, per-instance
    speed factors, the scaled tracing overhead and the mc mismatch count."""
    tracer = spans.Tracer()
    gauge = SpeedGauge()
    pairs, mismatches = [], 0
    start = time.perf_counter()
    while not pairs or time.perf_counter() - start < seconds:
        for k, inst in enumerate(batch):
            got, elapsed, error = attempt(mc, inst.text)
            tally.check(k, got, error)
            with tracer.installed(), tracer.instance(len(pairs)) as root:
                got_t, _, error = attempt(mc, inst.text, tracer.on_transform)
            tally.check(k, got_t, error)
            _, t0, t1, _, _ = tracer.spans[root]
            pairs.append((elapsed, t1 - t0))
            mismatches += got_t != got
            gauge.read()
    factors = gauge.scales()
    untraced = sum(u * f for (u, _), f in zip(pairs, factors))
    traced = sum(t * f for (_, t), f in zip(pairs, factors))
    return tracer, factors, traced / untraced - 1, mismatches


def layer_metrics(tracer, factors):
    """Per-instance means of self time (scaled), calls and counters."""
    instances = len(factors)
    self_s, calls = Counter(), Counter()
    per_instance = [0.0] * instances
    wall = [0.0] * instances
    for span, own in zip(tracer.spans, spans.self_times(tracer.spans)):
        name, start, end, _, inst = span
        self_s[name] += own * factors[inst]
        calls[name] += 1
        per_instance[inst] += own
        if name == spans.ROOT:
            wall[inst] = end - start
    unattributed = max(abs(a - b) for a, b in zip(per_instance, wall))
    glue_frac = self_s[spans.ROOT] / sum(w * f for w, f in zip(wall, factors))
    totals = Counter()
    for c in tracer.counts:
        totals.update(c)
    metrics = {}
    for name in spans.SPAN_NAMES + (spans.ROOT,):
        metrics[f"{name}.self_s"] = (self_s[name] / instances, "s")
        metrics[f"{name}.calls"] = (calls[name] / instances, "count")
    for name in spans.COUNTERS:
        metrics[name] = (totals[name] / instances, "count")
    forests = calls["dstar.build_forest"]
    metrics["dstar.round_yield"] = (totals["dstar.transforms"] / forests if forests else 0.0, "ratio")
    return metrics, unattributed, glue_frac


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "matchcover" / "__init__.py").is_file():
        print(f"error: no solver sources at {SRC}; run from a matchcover checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    mc, batch, setup_s, raw_setup = setup(args.workload, args.seed)
    setup_rss = max_rss_mb()
    if Path(mc.__file__).resolve().parent != SRC / "matchcover":
        print(f"error: imported matchcover from {mc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    expected, source = expected_mcs(args.workload, args.seed, batch)
    tally = Tally(expected)
    print(f"workload {args.workload}, seed {args.seed}: {len(batch)} instances, "
          f"n {min(i.n for i in batch)}..{max(i.n for i in batch)}, "
          f"m {min(i.m for i in batch)}..{max(i.m for i in batch)}")
    print(f"expected mc: {source}")

    attempt(mc, batch[0].text)  # warm-up, not counted
    gc.collect()
    metrics: dict[str, tuple[float, str]] = {}
    correct = True
    if args.trace:
        tracer, factors, overhead, mismatches = traced_run(mc, batch, tally, args.seconds)
        instances = len(factors)
        metrics, unattributed, glue_frac = layer_metrics(tracer, factors)
        metrics["trace.overhead_frac"] = (overhead, "frac")
        OUT_DIR.mkdir(exist_ok=True)
        out = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv"
        spans.write_tsv(tracer.spans, out)
        print(f"traced {instances} instances ({instances // len(batch)} passes), "
              f"{len(tracer.spans)} spans -> {out.relative_to(BENCH_DIR.parent)}")
        print(f"traced mc differs from untraced on {mismatches} instances; "
              f"largest unattributed time per instance {unattributed:.3g} s; "
              f"{glue_frac:.3%} of traced time outside wrapped calls")
        correct = mismatches == 0 and unattributed < 1e-6 and glue_frac < GLUE_MAX_FRAC
    else:
        runs = timed_run(mc, batch, tally, args.seconds)
        if runs:
            metrics, p = end_to_end_metrics(setup_s, runs)
            raw = [t for _, t, _ in runs]
            print(f"{len(runs)} timed samples; solve_tail_s is p{p}")
            print(f"ru_maxrss: {setup_rss:.1f} MB after set-up, "
                  f"{max_rss_mb():.1f} MB after the loop")
            print(f"unscaled: setup_s {raw_setup:.6g}, solve_p50_s {statistics.median(raw):.6g}, "
                  f"solve_tail_s {tail(raw)[1]:.6g}, "
                  f"edges_per_s {sum(m for *_, m in runs) / sum(raw):.6g}")
    for err in tally.errors:
        print(f"failure: {err}")
    correct = correct and tally.failed == 0 and bool(metrics)
    # fail_frac is 0 on a healthy run, so it is printed, not put in the JSON
    # result; attempted and failed carry it there.
    fail_frac = tally.failed / tally.attempted if tally.attempted else 1.0
    shown = {**metrics, "fail_frac": (fail_frac, f"frac ({tally.failed}/{tally.attempted})")}
    for name, (value, unit) in sorted(shown.items()):
        print(f"{name:45s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            k: {"value": v, "unit": u} for k, (v, u) in metrics.items() if k not in PRINT_ONLY
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
