"""Graph statistics: degrees, clustering coefficient, summaries.

Table II of the paper characterises each dataset by vertex count, edge count
and (sampled) average local clustering coefficient ĉ — the property that
determines whether ADWISE's clustering score is effective.  This module
reproduces those statistics, with an exact triangle-counting clustering
coefficient for small graphs and a seeded sampling estimator mirroring the
paper's "based on a graph sample" footnote.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.graph.graph import Graph


def degrees(graph: Graph) -> Dict[int, int]:
    """Return the degree of every vertex."""
    return {v: graph.degree(v) for v in graph.vertices()}


def max_degree(graph: Graph) -> int:
    """Return the maximum degree (0 for the empty graph)."""
    return max((graph.degree(v) for v in graph.vertices()), default=0)


def degree_histogram(graph: Graph) -> Dict[int, int]:
    """Map degree value -> number of vertices with that degree."""
    hist: Dict[int, int] = {}
    for v in graph.vertices():
        d = graph.degree(v)
        hist[d] = hist.get(d, 0) + 1
    return hist


def local_clustering(graph: Graph, v: int) -> float:
    """Local clustering coefficient of vertex ``v``.

    Fraction of neighbor pairs of ``v`` that are themselves connected;
    defined as 0 for degree < 2.
    """
    nbrs = list(graph.neighbors(v))
    d = len(nbrs)
    if d < 2:
        return 0.0
    links = 0
    for i, a in enumerate(nbrs):
        a_nbrs = graph.neighbors(a)
        for b in nbrs[i + 1:]:
            if b in a_nbrs:
                links += 1
    return 2.0 * links / (d * (d - 1))


def average_clustering(graph: Graph, sample_size: Optional[int] = None,
                       seed: int = 0) -> float:
    """Average local clustering coefficient ĉ.

    With ``sample_size`` set, estimates ĉ from a uniform vertex sample — the
    approach the paper uses for the billion-edge Web graph.
    """
    if sample_size is not None and sample_size < 1:
        raise ValueError(f"sample_size must be >= 1, got {sample_size}")
    verts: List[int] = list(graph.vertices())
    if not verts:
        return 0.0
    if sample_size is not None and sample_size < len(verts):
        rng = random.Random(seed)
        verts = rng.sample(verts, sample_size)
    return sum(local_clustering(graph, v) for v in verts) / len(verts)


def degree_skewness(graph: Graph) -> float:
    """Sample skewness of the degree distribution (0 for < 3 vertices).

    Power-law graphs (the paper's focus) have strongly positive skew; the
    degree-aware replication score exists precisely because of this skew.
    """
    degs = [graph.degree(v) for v in graph.vertices()]
    n = len(degs)
    if n < 3:
        return 0.0
    mean = sum(degs) / n
    var = sum((d - mean) ** 2 for d in degs) / n
    if var == 0:
        return 0.0
    third = sum((d - mean) ** 3 for d in degs) / n
    return third / (var ** 1.5)


@dataclass(frozen=True)
class GraphSummary:
    """Table II-style per-graph summary."""

    name: str
    num_vertices: int
    num_edges: int
    clustering: float
    max_degree: int
    degree_skew: float

    def row(self) -> str:
        """Render as a fixed-width table row matching Table II's columns."""
        return (f"{self.name:<12} {self.num_vertices:>10,} "
                f"{self.num_edges:>12,} {self.clustering:>8.4f} "
                f"{self.max_degree:>8} {self.degree_skew:>8.2f}")


def summarize(name: str, graph: Graph,
              clustering_sample: Optional[int] = 2000,
              seed: int = 0) -> GraphSummary:
    """Compute a :class:`GraphSummary` for ``graph``."""
    return GraphSummary(
        name=name,
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        clustering=average_clustering(graph, sample_size=clustering_sample,
                                      seed=seed),
        max_degree=max_degree(graph),
        degree_skew=degree_skewness(graph),
    )
