"""Optimal matching covers of simple graphs without isolated vertices.

Computes the matching cover number mc(G) together with an explicit optimal
family of matchings covering V(G), built on blossom maximum matching, the
Gallai-Edmonds decomposition, and star-cover balancing on the derived
bipartite graph.  A brute-force cover number, :func:`brute_mc`, provides
independent ground truth on small instances.
"""

from .blossom import Matching
from .cover import MatchingCover, SolveResult, solve, verify_cover
from .errors import InternalInvariantError, NoCoverError
from .generate import random_connected_graph
from .graph import (
    Graph,
    GraphFormatError,
    components,
    induced_subgraph,
    parse_graph,
    serialize_graph,
)
from .oracle import OracleBudget, OracleBudgetError, brute_mc

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "GraphFormatError",
    "InternalInvariantError",
    "Matching",
    "MatchingCover",
    "NoCoverError",
    "OracleBudget",
    "OracleBudgetError",
    "SolveResult",
    "brute_mc",
    "components",
    "induced_subgraph",
    "parse_graph",
    "random_connected_graph",
    "serialize_graph",
    "solve",
    "verify_cover",
]
