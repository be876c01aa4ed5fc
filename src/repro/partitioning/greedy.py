"""Greedy vertex-cut partitioning (PowerGraph, Gonzalez et al., OSDI 2012).

The classic locality-aware single-edge heuristic, implemented with the four
case rules from the PowerGraph paper:

1. Both endpoints already share partitions → least-loaded shared partition.
2. Both endpoints placed but disjoint → least-loaded partition holding the
   endpoint with more *unassigned* edges (approximated here by the smaller
   observed degree, which has more edges still to come under power laws —
   following common open-source implementations we use the higher-degree
   heuristic variant: pick from the partitions of the endpoint whose degree
   is larger, as that vertex is harder to keep local).
3. Exactly one endpoint placed → least-loaded partition holding it.
4. Neither placed → least-loaded partition overall.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.graph.graph import Edge
from repro.partitioning.base import StreamingPartitioner


class GreedyPartitioner(StreamingPartitioner):
    """PowerGraph's greedy single-edge heuristic."""

    name = "Greedy"

    def _least_loaded(self, candidates: Iterable[int]) -> int:
        pool: List[int] = list(candidates)
        self.clock.charge_score(len(pool))
        return min(pool, key=lambda p: (self.state.size(p), p))

    def select_partition(self, edge: Edge) -> int:
        reps_u = self.state.replicas(edge.u) & set(self.partitions)
        reps_v = self.state.replicas(edge.v) & set(self.partitions)
        shared = reps_u & reps_v
        if shared:
            return self._least_loaded(shared)
        if reps_u and reps_v:
            deg_u, deg_v = self.state.degree_pair(edge.u, edge.v)
            pool = reps_u if deg_u >= deg_v else reps_v
            return self._least_loaded(pool)
        if reps_u:
            return self._least_loaded(reps_u)
        if reps_v:
            return self._least_loaded(reps_v)
        return self._least_loaded(self.partitions)
