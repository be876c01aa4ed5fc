"""Workload definitions: scaled analogues of the paper's Table II corpus.

Each :class:`GraphSpec` names one of the paper's three evaluation graphs
and builds a scaled synthetic analogue matched on the properties the
paper's mechanisms exploit (clustering coefficient and degree skew — see
DESIGN.md §5 for the substitution argument):

* **Orkut** — social network, weak clustering (ĉ ≈ 0.04): Barabási–Albert.
* **Brain** — biological network, moderate clustering (ĉ ≈ 0.51):
  Holme–Kim power-law-cluster.
* **Web** — web graph, strong clustering (ĉ ≈ 0.82): dense near-clique
  communities with preferential hub links.

The evaluation setup constants mirror the paper: k = 32 partitions, z = 8
parallel partitioner instances (machines), spotlight spread 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence

from repro.graph.graph import Graph
from repro.graph.generators import (
    barabasi_albert_graph,
    community_powerlaw_graph,
    web_like_graph,
)
from repro.graph.stream import InMemoryEdgeStream, locally_shuffled, shuffled
from repro.core.adwise import AdwisePartitioner
from repro.partitioning.base import StreamingPartitioner
from repro.partitioning.dbh import DBHPartitioner
from repro.partitioning.greedy import GreedyPartitioner
from repro.partitioning.grid import GridPartitioner
from repro.partitioning.hashing import HashPartitioner
from repro.partitioning.hdrf import HDRFPartitioner
from repro.simtime import Clock

#: Paper setup: 32 partitions across 8 machines, spotlight spread 4.
NUM_PARTITIONS = 32
NUM_INSTANCES = 8
DEFAULT_SPREAD = 4


@dataclass(frozen=True)
class GraphSpec:
    """A named, reproducible evaluation graph."""

    name: str
    builder: Callable[[int], Graph]
    clustering_band: str
    use_clustering_score: bool
    seed: int = 7

    def build(self) -> Graph:
        return self.builder(self.seed)

    def stream(self, order: str = "adjacency",
               shuffle_seed: int = 13,
               buffer_size: int = 1024) -> InMemoryEdgeStream:
        """An edge stream of the graph.

        Orders (all reproducible, fixed seeds):

        * ``"adjacency"`` (default) — edges grouped by source vertex, the
          natural order of SNAP/KONECT edge-list files the paper streams
          from; carries the stream locality the spotlight optimisation
          exploits.
        * ``"local-shuffle"`` — coarse-grained locality with fine-grained
          disorder (a running shuffle over a ``buffer_size`` reservoir),
          modelling crawl/export order; the regime where window-based
          partitioning recovers locality single-edge streaming loses.
        * ``"shuffled"`` — uniformly random order, no locality at all.
        """
        graph = self.build()
        if order == "adjacency":
            return InMemoryEdgeStream(graph.edge_list())
        if order == "local-shuffle":
            return locally_shuffled(graph.edges(), buffer_size=buffer_size,
                                    seed=shuffle_seed)
        if order == "shuffled":
            return shuffled(graph.edges(), seed=shuffle_seed)
        raise ValueError(f"unknown stream order {order!r}")


def _build_orkut(seed: int) -> Graph:
    # Power-law social graph; average degree ~38 matches Orkut's 117M/3M.
    return barabasi_albert_graph(n=1500, m=19, seed=seed)


def _build_brain(seed: int) -> Graph:
    # Dense ER communities (clustering ~0.43) + hub overlay (degree skew),
    # matching Brain's moderate clustering and very high average degree.
    return community_powerlaw_graph(num_communities=40, community_size=50,
                                    intra_p=0.6, overlay_m=3, seed=seed)


def _build_web(seed: int) -> Graph:
    # Near-clique site communities with hub links: clustering ~0.9.
    return web_like_graph(num_communities=150, community_size=16,
                          intra_p=0.95, inter_edges=2, seed=seed)


ORKUT = GraphSpec(
    name="Orkut",
    builder=_build_orkut,
    clustering_band="low",
    # The paper switches the clustering score OFF for Orkut.
    use_clustering_score=False,
)

BRAIN = GraphSpec(
    name="Brain",
    builder=_build_brain,
    clustering_band="moderate",
    use_clustering_score=True,
)

WEB = GraphSpec(
    name="Web",
    builder=_build_web,
    clustering_band="high",
    use_clustering_score=True,
)

PAPER_GRAPHS: Dict[str, GraphSpec] = {
    "orkut": ORKUT,
    "brain": BRAIN,
    "web": WEB,
}


# ---------------------------------------------------------------------------
# Partitioner factories for the ParallelLoader
# ---------------------------------------------------------------------------

def adwise_factory(latency_preference_ms: Optional[float],
                   use_clustering: bool = True,
                   **kwargs) -> Callable[[Sequence[int], Clock],
                                         StreamingPartitioner]:
    """Factory building ADWISE instances with a shared configuration."""
    def build(partitions: Sequence[int], clock: Clock) -> StreamingPartitioner:
        return AdwisePartitioner(
            partitions,
            latency_preference_ms=latency_preference_ms,
            clock=clock,
            use_clustering=use_clustering,
            **kwargs,
        )
    return build


def baseline_factories() -> Dict[str, Callable[[Sequence[int], Clock],
                                               StreamingPartitioner]]:
    """Factories for the single-edge streaming baselines."""
    return {
        "Hash": lambda parts, clock: HashPartitioner(parts, clock=clock),
        "Grid": lambda parts, clock: GridPartitioner(parts, clock=clock),
        "DBH": lambda parts, clock: DBHPartitioner(parts, clock=clock),
        "HDRF": lambda parts, clock: HDRFPartitioner(parts, clock=clock),
        "Greedy": lambda parts, clock: GreedyPartitioner(parts, clock=clock),
    }
