"""Vertex-centric graph algorithms (the paper's evaluation workloads)."""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, {
    ".pagerank": ("PageRank",),
    ".coloring": ("GreedyColoring",),
    ".components": ("ConnectedComponents",),
    ".subgraph_iso": ("CycleSearch",),
    ".clique": ("CliqueSearch",),
})

__all__ = [
    "PageRank",
    "GreedyColoring",
    "ConnectedComponents",
    "CycleSearch",
    "CliqueSearch",
]
