"""Command-line front end: solve, cross-check by brute force, generate graphs.

Exit codes: 0 success, 1 oracle mismatch, 2 bad input or parameters, 3 no cover,
4 internal error (any solver fault), 5 oracle budget exceeded, 141 broken pipe.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .cover import solve, verify_cover
from .errors import InternalInvariantError, NoCoverError
from .generate import random_connected_graph
from .graph import GraphFormatError, parse_graph, serialize_graph
from .oracle import OracleBudget, OracleBudgetError, brute_mc

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_NO_COVER = 3
EXIT_INTERNAL = 4
EXIT_BUDGET = 5
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a killed writer


def _load_graph(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return None, EXIT_USAGE
    except UnicodeDecodeError as exc:
        print(f"error: {path}: not UTF-8 text: {exc}", file=sys.stderr)
        return None, EXIT_USAGE
    try:
        return parse_graph(text), EXIT_OK
    except GraphFormatError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return None, EXIT_USAGE
    except NoCoverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, EXIT_NO_COVER


def _internal_error(exc: Exception) -> int:
    """Report a solver failure as exit 4 with no traceback: an
    InternalInvariantError by its message, any other exception by its type too."""
    kind = "" if isinstance(exc, InternalInvariantError) else f"{type(exc).__name__}: "
    print(f"internal error: {kind}{exc}", file=sys.stderr)
    return EXIT_INTERNAL


def cmd_solve(args) -> int:
    g, code = _load_graph(args.file)
    if g is None:
        return code

    trace = None
    if args.trace:

        def trace(path, delta):
            print(
                f"transform: origin={path.vertices[0] + 1}"
                f" terminus={path.vertices[-1] + 1}"
                f" length={len(path.vertices) - 1} delta={delta}"
            )

    try:
        result = solve(g, trace=trace)
    except NoCoverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_COVER
    except BrokenPipeError:
        raise  # a trace line met a closed stdout: not a solver fault
    except Exception as exc:
        # solve rejects bad input only with NoCoverError; anything else
        # comes from inside the solver
        return _internal_error(exc)

    if args.verify and not verify_cover(g, result.cover):
        print("internal error: produced cover failed verification", file=sys.stderr)
        return EXIT_INTERNAL

    if args.json:
        obj = {
            "schema": 1,
            "instance": os.path.basename(args.file),
            "n": g.n,
            "m": g.m,
            "mc": result.cover.k,
            "branch": result.branch,
            "md": result.md,
            "transforms": result.transforms,
            "cover": [
                [[u + 1, v + 1] for u, v in m.pairs]
                for m in result.cover.matchings
            ],
        }
        print(json.dumps(obj))
    else:
        print(f"mc = {result.cover.k}")
        for i, m in enumerate(result.cover.matchings, start=1):
            print(f"M{i}: " + " ".join(f"{u + 1}-{v + 1}" for u, v in m.pairs))
    return EXIT_OK


def cmd_oracle(args) -> int:
    g, code = _load_graph(args.file)
    if g is None:
        return code
    try:
        expected = brute_mc(g, OracleBudget(max_vertices=12, max_edges=66))
    except OracleBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_COVER
    try:
        got = solve(g).cover.k
    except Exception as exc:
        # the oracle has found a cover, so any failure is the solver's
        return _internal_error(exc)
    status = "OK" if got == expected else "MISMATCH"
    print(f"pipeline={got} oracle={expected} {status}")
    return EXIT_OK if got == expected else EXIT_MISMATCH


def cmd_random(args) -> int:
    try:
        g = random_connected_graph(args.n, p=args.p, m=args.m, seed=args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(serialize_graph(g))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchcover",
        description="Optimal matching covers of simple graphs without isolated"
        " vertices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one instance file")
    p_solve.add_argument("file")
    p_solve.add_argument("--json", action="store_true", help="emit a JSON report")
    p_solve.add_argument(
        "--verify", action="store_true", help="re-verify the produced cover"
    )
    p_solve.add_argument(
        "--trace", action="store_true", help="log each switching-path transform"
    )
    p_solve.set_defaults(func=cmd_solve)

    p_oracle = sub.add_parser("oracle", help="brute-force cross-check, n <= 12, m <= 66")
    p_oracle.add_argument("file")
    p_oracle.set_defaults(func=cmd_oracle)

    p_random = sub.add_parser("random", help="generate a random connected graph")
    p_random.add_argument("--n", type=int, required=True)
    kind = p_random.add_mutually_exclusive_group(required=True)
    kind.add_argument("--p", type=float)
    kind.add_argument("--m", type=int)
    p_random.add_argument("--seed", type=int, required=True)
    p_random.set_defaults(func=cmd_random)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def run() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early (`| head`): the flush at exit must not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    raise SystemExit(code)


if __name__ == "__main__":
    run()
