"""Vertex-centric graph algorithms (the paper's evaluation workloads)."""

from repro.engine.algorithms.pagerank import PageRank
from repro.engine.algorithms.coloring import GreedyColoring
from repro.engine.algorithms.components import ConnectedComponents
from repro.engine.algorithms.subgraph_iso import CycleSearch
from repro.engine.algorithms.clique import CliqueSearch

__all__ = [
    "PageRank",
    "GreedyColoring",
    "ConnectedComponents",
    "CycleSearch",
    "CliqueSearch",
]
