"""Immutable simple undirected graphs and their line-oriented text format."""

from __future__ import annotations

import json
import operator
import re
from dataclasses import dataclass
from itertools import islice, repeat
from typing import Iterable


class GraphFormatError(ValueError):
    """Malformed graph text; remembers the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1.

    The three fields are the whole graph; nothing else is cached.  Edges
    are stored as (u, v) pairs with u < v in ascending order, and each
    adjacency list is sorted ascending, so all iteration is reproducible
    and edge membership is a binary search in one list.  Instances are
    immutable and safe to share between threads.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[tuple[int, ...], ...]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        seen: set[tuple[int, int]] = set()
        norm: list[tuple[int, int]] = []
        for u, v in edges:
            if not (0 <= u < n) or not (0 <= v < n):
                raise ValueError(f"edge endpoint out of range: {u}-{v}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise ValueError(f"duplicate edge {e[0]}-{e[1]}")
            seen.add(e)
            norm.append(e)
        norm.sort()
        return cls._from_checked_pairs(n, norm)

    @classmethod
    def _from_checked_pairs(cls, n: int, pairs: list[tuple[int, int]]) -> "Graph":
        """Build from distinct ascending pairs (u, v), 0 <= u < v < n, unchecked."""
        # once the pairs are sorted, each vertex meets its lower neighbours
        # (as v) before its higher ones, so every adjacency list is ascending
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in pairs:
            adj[u].append(v)
            adj[v].append(u)
        return cls(n, tuple(pairs), tuple(map(tuple, adj)))

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])


# The layout serialize_graph writes: a header line, then `e <u> <v>` lines,
# single spaces, `\n` endings, at most one final newline (stripped first).
# _NOT_EDGE finds a newline not followed by an edge line: one lookahead per
# line keeps the matcher's state small, where one greedy repeat over all the
# lines would hold O(m) of it.
_HEADER = re.compile(r"p ([0-9]+) ([0-9]+)(?:\n|\Z)")
_NOT_EDGE = re.compile(r"\n(?!e [0-9]+ [0-9]+(?:\n|\Z))")


def parse_graph(text: str) -> Graph:
    """Parse the `p <n> <m>` / `e <u> <v>` edge-list format (1-indexed).

    Comment lines start with `c`; blank lines are ignored. Errors name the
    offending line. Vertices are stored 0-indexed.

    Text in the exact layout :func:`serialize_graph` writes (optionally
    newline-terminated) is read in bulk; any other layout, and any text that
    fails a check, is read line by line, which accepts the same inputs,
    builds the same graph and names the offending line.
    """
    return Graph._from_checked_pairs(*_parse_pairs(text))


def _parse_pairs(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Checked n and ascending 0-indexed pairs; no adjacency."""
    parsed = _parse_canonical(text)
    return _parse_lines(text) if parsed is None else parsed


def _parse_canonical(text: str) -> tuple[int, list] | None:
    """The parsed pairs of a valid canonical-layout text, or None to read it
    line by line (another layout, or a check failed)."""
    if text.endswith("\n"):
        text = text[:-1]
    header = _HEADER.match(text)
    if header is None or _NOT_EDGE.search(text):
        return None
    try:
        n, m = int(header[1]), int(header[2])
        # every endpoint in one C-level pass, the edge text after the first
        # "e " read as a JSON array: "1 2\ne 3 4" -> [1, 2, 3, 4]; json raises
        # on a leading zero, which the line reader accepts, and, like int,
        # on a digit string beyond int's length limit
        flat = json.loads(
            "[" + text[header.end() + 2 :].replace("\ne ", ",").replace(" ", ",") + "]"
        )
    except ValueError:
        return None
    if n < 1 or len(flat) != 2 * m or (flat and not 1 <= min(flat) <= max(flat) <= n):
        return None
    # the text copies die as flat is built, and flat once it is split in
    # halves: from here on at most two lists of m objects are alive at a time
    us, vs = flat[0::2], flat[1::2]
    del flat
    if any(map(operator.eq, us, vs)):
        return None
    # sort each edge as the integer lo * n + hi of its 0-indexed ends
    # lo < hi: ints order like the pairs and compare faster, and divmod by
    # n gives the pairs back
    shift = n + 1
    keys = [u * n + v - shift if u < v else v * n + u - shift for u, v in zip(us, vs)]
    del us, vs
    keys.sort()
    # a duplicate has its twin's key in either orientation, so it sorts next
    # to it; the line reader then names its line
    if any(map(operator.eq, keys, islice(keys, 1, None))):
        return None
    return n, list(map(divmod, keys, repeat(n)))


def _parse_lines(text: str) -> tuple[int, list]:
    """Line-by-line reader for every accepted layout; names the bad line."""
    n = None
    m = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise GraphFormatError("duplicate header", lineno)
            if len(parts) != 3:
                raise GraphFormatError("header must be 'p <n> <m>'", lineno)
            try:
                n = int(parts[1])
                m = int(parts[2])
            except ValueError:
                raise GraphFormatError("header must be 'p <n> <m>'", lineno) from None
            if n < 1 or m < 0:
                raise GraphFormatError("header values out of range", lineno)
        elif parts[0] == "e":
            if n is None:
                raise GraphFormatError("edge line before header", lineno)
            if len(parts) != 3:
                raise GraphFormatError("edge must be 'e <u> <v>'", lineno)
            try:
                u = int(parts[1])
                v = int(parts[2])
            except ValueError:
                raise GraphFormatError("edge must be 'e <u> <v>'", lineno) from None
            if not (1 <= u <= n) or not (1 <= v <= n):
                raise GraphFormatError(f"edge endpoint out of range: {u} {v}", lineno)
            if u == v:
                raise GraphFormatError(f"self-loop at vertex {u}", lineno)
            e = (min(u, v) - 1, max(u, v) - 1)
            if e in seen:
                raise GraphFormatError(f"duplicate edge {u} {v}", lineno)
            seen.add(e)
            edges.append(e)
        else:
            raise GraphFormatError(f"unknown line type {parts[0]!r}", lineno)
    if n is None:
        raise GraphFormatError("missing 'p <n> <m>' header")
    if len(edges) != m:
        raise GraphFormatError(f"header declares {m} edges, found {len(edges)}")
    edges.sort()
    return n, edges


def serialize_graph(g: Graph) -> str:
    """Inverse of parse_graph: header plus sorted 1-indexed edge lines."""
    lines = [f"p {g.n} {g.m}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.edges)
    return "\n".join(lines)


def induced_subgraph(g: Graph, s: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced by the vertex set ``s``, relabelled to 0..|s|-1.

    Returns (subgraph, old_ids) where old_ids[i] is the host vertex carried
    by subgraph vertex i; old_ids is sorted ascending.  Only the adjacency
    lists of ``s`` are read, so the cost is O(|s| + vol(s)).
    """
    old_ids = tuple(sorted(set(s)))
    for v in old_ids:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} not in host graph")
    idx = {old: new for new, old in enumerate(old_ids)}
    # ascending u, then ascending v in u's sorted list: the pairs come sorted
    sub_edges = [
        (idx[u], idx[v]) for u in old_ids for v in g.adjacency[u] if u < v and v in idx
    ]
    return Graph._from_checked_pairs(len(old_ids), sub_edges), old_ids


def components(g: Graph) -> list[tuple[int, ...]]:
    """Connected components as sorted vertex tuples, ordered by smallest member."""
    seen = [False] * g.n
    comps: list[tuple[int, ...]] = []
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = True
        stack = [start]
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in g.adjacency[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(tuple(sorted(comp)))
    return comps
