"""Immutable simple undirected graphs and their line-oriented text format."""

from __future__ import annotations

import functools
import gc
import json
import re
from dataclasses import dataclass
from typing import Iterable

from .errors import NoCoverError


def _gc_paused(fn):
    """Run ``fn`` with automatic garbage collection paused, if it is on.

    The readers, the builder and the solver allocate O(n + m) containers
    and make no reference cycle, so collections inside them find nothing to
    free.  On exit the one young-generation collection the allocations made
    due is run, as the allocator would run it, so the debt is not left to
    the caller's next allocation; then collection is resumed.  A call made
    while collection is off, a nested call included, changes nothing.
    """

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if 0 < gc.get_threshold()[0] < gc.get_count()[0]:
                gc.collect(0)
            gc.enable()

    return paused


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

    The two fields are the whole graph; nothing else is stored or cached.
    Each adjacency list is sorted ascending, so all iteration is
    reproducible; ``verify_cover`` tests an edge in its shorter end list.
    Parsed and ``from_edges`` graphs share one int object per vertex.
    ``edges`` and ``m`` are derived from the adjacency on each read.
    Instances are immutable and safe to share between threads.
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]

    @classmethod
    @_gc_paused
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        seen: set[tuple[int, int]] = set()
        ends: list[int] = []
        for u, v in edges:
            if not (0 <= u < n) or not (0 <= v < n):
                raise ValueError(f"edge endpoint out of range: {u}-{v}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise ValueError(f"duplicate edge {e[0]}-{e[1]}")
            seen.add(e)
            ends += (u + 1, v + 1)
        return cls._from_ends(n, ends)

    @classmethod
    def _from_ends(cls, n: int, ends: list[int]) -> "Graph | None":
        """The graph with 1-indexed edges ends[0]-ends[1], ends[2]-ends[3],
        ...; None when an end is outside 1..n, an edge is a self-loop or two
        edges are equal.  Every end must be nonnegative."""
        ids = list(range(-1, n + 1))
        # spare slots 0 and n + 1 take ends 0 and n + 1; larger ends raise IndexError
        adj: list[list[int]] = [[] for _ in range(n + 2)]
        it = iter(ends)
        try:
            for u, v in zip(it, it):
                adj[u].append(ids[v])
                adj[v].append(ids[u])
        except IndexError:
            return None
        # dropping the spare slots loses their entries, and a self-loop or a
        # repeated edge puts one vertex twice in some list: either way the n
        # lists hold fewer than 2m distinct entries
        del adj[n + 1], adj[0]
        if sum(map(len, map(set, adj))) != len(ends):
            return None
        for nbrs in adj:
            nbrs.sort()
        return cls(n, tuple(map(tuple, adj)))

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Every edge once as (u, v) with u < v, in ascending order."""
        return tuple((u, v) for u, vs in enumerate(self.adjacency) for v in vs if u < v)

    @property
    def m(self) -> int:
        return sum(map(len, self.adjacency)) // 2


# The layout serialize_graph writes: a header line, then `e <u> <v>` lines,
# single spaces, `\n` endings, at most one final newline (left unread).
# _NOT_EDGE finds a newline not followed by an edge line: one lookahead per
# line keeps the matcher's state small, where one greedy repeat over all the
# lines would hold O(m) of it.  Past that check every `e` and `\n` opens an
# edge line, so _TO_JSON deletes them and turns each space into a comma.
_HEADER = re.compile(r"p ([0-9]+) ([0-9]+)(?:\n|\Z)")
_NOT_EDGE = re.compile(r"\n(?!e [0-9]+ [0-9]+(?:\n|\Z))")
_TO_JSON = str.maketrans(" ", ",", "e\n")


@_gc_paused
def parse_graph(text: str) -> Graph:
    """Parse the `p <n> <m>` / `e <u> <v>` edge-list format (1-indexed).

    Comment lines start with `c`; blank lines are ignored. Errors name the
    offending line. Vertices are stored 0-indexed, as the graph's two
    fields: n and the sorted adjacency lists.

    Text in the exact layout :func:`serialize_graph` writes (optionally
    newline-terminated) with n <= 2m is read in bulk; any other text, and
    any text that fails a check, is read line by line, which accepts the
    same inputs, builds the same graph and names the offending line.

    Format errors come first: the line reader checks every line.  Then a
    header with n > 2m raises :class:`NoCoverError` for the lowest vertex on
    no edge, before anything of size n is built.  Then the graph is built.
    """
    g = _parse_canonical(text)
    if g is not None:
        return g
    n, ends = _parse_lines(text)
    if n > len(ends):
        covered = set(ends)
        raise NoCoverError.isolated(next(v for v in range(n) if v + 1 not in covered))
    return Graph._from_ends(n, ends)


def _parse_canonical(text: str) -> Graph | None:
    """The graph of a valid canonical-layout text with n <= 2m, its JSON ends
    passed 1-indexed to the builder; None to read it line by line (another
    layout, a failed check, or a header with n > 2m, which isolates a vertex)."""
    end = len(text) - text.endswith("\n")
    header = _HEADER.match(text, 0, end)
    if header is None or _NOT_EDGE.search(text, 0, end):
        return None
    try:
        n, m = int(header[1]), int(header[2])
        # every endpoint in one C-level translate pass, the edge text after
        # the first "e " read as a JSON array: "1 2\ne 3 4" -> "1,2,3,4" ->
        # [1, 2, 3, 4]; json raises on a leading zero, which the line reader
        # accepts, and, like int, on a digit string beyond int's length limit
        ends = json.loads("[" + text[header.end() + 2 : end].translate(_TO_JSON) + "]")
    except ValueError:
        return None
    if not 0 < n <= 2 * m == len(ends):
        return None
    return Graph._from_ends(n, ends)


def _parse_lines(text: str) -> tuple[int, list[int]]:
    """Line-by-line reader for every accepted layout; names the bad line.
    Gives n and the checked 1-indexed ends, two per edge, in line order."""
    n = m = None
    ends: list[int] = []
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
                n, m = int(parts[1]), int(parts[2])
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
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphFormatError("edge must be 'e <u> <v>'", lineno) from None
            if not (1 <= u <= n) or not (1 <= v <= n):
                raise GraphFormatError(f"edge endpoint out of range: {u} {v}", lineno)
            if u == v:
                raise GraphFormatError(f"self-loop at vertex {u}", lineno)
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise GraphFormatError(f"duplicate edge {u} {v}", lineno)
            seen.add(e)
            ends += e
        else:
            raise GraphFormatError(f"unknown line type {parts[0]!r}", lineno)
    if n is None:
        raise GraphFormatError("missing 'p <n> <m>' header")
    if len(ends) != 2 * m:
        raise GraphFormatError(f"header declares {m} edges, found {len(ends) // 2}")
    return n, ends


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
    # idx keeps the order of ids, so each host list stays sorted when filtered
    adjacency = tuple(
        tuple(idx[v] for v in g.adjacency[u] if v in idx) for u in old_ids
    )
    return Graph(len(old_ids), adjacency), old_ids


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
