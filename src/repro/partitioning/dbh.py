"""Degree-Based Hashing (DBH), Xie et al., NIPS 2014.

Hashes each edge by its *lower-degree* endpoint: low-degree vertices keep
all their edges on one partition while high-degree vertices are cut — the
degree-aware intuition of Fig. 5 in the ADWISE paper, realised with pure
hashing.  DBH is one of the two baselines in the paper's evaluation.

Degrees come from the partial degree table built while streaming (the true
degrees are unknown in a single pass), matching the original algorithm.
"""

from __future__ import annotations

from typing import Optional

from repro.graph.graph import Edge
from repro.partitioning.base import StreamingPartitioner
from repro.util import stable_hash


class DBHPartitioner(StreamingPartitioner):
    """Hash the lower-degree endpoint of every edge."""

    name = "DBH"

    def __init__(self, partitions, clock=None, state=None, seed: int = 0,
                 fast: Optional[bool] = None) -> None:
        super().__init__(partitions, clock=clock, state=state, fast=fast)
        self._seed = seed

    def select_partition(self, edge: Edge) -> int:
        self.clock.charge_score()
        deg_u, deg_v = self.state.degree_pair(edge.u, edge.v)
        if deg_u < deg_v:
            anchor = edge.u
        elif deg_v < deg_u:
            anchor = edge.v
        else:
            # Tie: hash the smaller id for determinism.
            anchor = min(edge.u, edge.v)
        digest = stable_hash(anchor, self._seed)
        return self.partitions[digest % len(self.partitions)]
