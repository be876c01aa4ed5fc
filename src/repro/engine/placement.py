"""Placement: how a vertex-cut partitioning maps onto worker machines.

Derived from an edge → partition assignment plus a partition → machine map
(by default ``k`` partitions are distributed in contiguous blocks over ``z``
machines, mirroring the paper's setup of 8 machines × 4 partitions).  The
placement exposes the quantities the cost model needs:

* edges per machine (compute load),
* per-vertex machine span (which machines hold a replica),
* per-machine replica-synchronisation message counts — a vertex spanning
  ``s`` machines costs ``2·(s − 1)`` messages per superstep (gather to the
  master, scatter back), the PowerGraph synchronisation pattern the paper's
  replication-degree objective stands in for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from repro.graph.graph import Edge
from repro.graph.shard import Incidence, mapping_columns


@dataclass(frozen=True)
class PlacementStats:
    """Aggregates the cost model consumes.

    Replica synchronisation is counted at *partition* granularity — each
    partition is a worker process holding replicas, exactly as in
    PowerGraph/GrapH — and split into remote messages (master and mirror
    partitions on different machines, crossing the network) and local
    messages (same machine: no network hop, but still serialisation and
    replica-maintenance work, so cheaper rather than free).
    """

    edges_per_machine: Dict[int, int]
    remote_sync_per_machine: Dict[int, int]
    local_sync_per_machine: Dict[int, int]
    replication_degree: float
    machine_span_degree: float


class Placement:
    """Edge-to-partition-to-machine layout of a partitioned graph."""

    def __init__(self, assignments: "Mapping[Edge, int] | Incidence",
                 partitions: Sequence[int],
                 num_machines: int,
                 machine_of_partition: Optional[Mapping[int, int]] = None
                 ) -> None:
        if num_machines < 1:
            raise ValueError("num_machines must be >= 1")
        self.partitions = list(partitions)
        self.num_machines = num_machines
        if machine_of_partition is None:
            machine_of_partition = self.contiguous_machine_map(
                self.partitions, num_machines)
        self.machine_of_partition = dict(machine_of_partition)
        missing = [p for p in self.partitions
                   if p not in self.machine_of_partition]
        if missing:
            raise ValueError(f"partitions without a machine: {missing}")
        outside = next((p for p in self.partitions
                        if not 0 <= self.machine_of_partition[p]
                        < num_machines), None)
        if outside is not None:
            raise ValueError(
                f"partition {outside} is on machine "
                f"{self.machine_of_partition[outside]}, outside "
                f"0..{num_machines - 1}")
        # A sharding hands its incidence over (``ShardedGraph.placement``),
        # a raw mapping is converted once; degree-0 vertices are not placed.
        inc = self._incidence = (
            assignments if isinstance(assignments, Incidence) else
            Incidence(*mapping_columns(assignments), self.partitions))
        unknown = [p for p, size in zip(inc.parts.tolist(),
                                        inc.sizes.tolist())
                   if size and p not in self.partitions]
        if unknown:
            raise ValueError(f"assignment to unknown partition {unknown[0]}")

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def contiguous_machine_map(partitions: Sequence[int],
                               num_machines: int) -> Dict[int, int]:
        """Assign partitions to machines in contiguous, near-equal blocks.

        Matches the paper's deployment: machine ``i`` hosts the ``k/z``
        partitions its own partitioner instance (spotlight) filled.
        """
        if num_machines < 1:
            raise ValueError("num_machines must be >= 1")
        k = len(partitions)
        base, extra = divmod(k, num_machines)
        mapping: Dict[int, int] = {}
        index = 0
        for machine in range(num_machines):
            size = base + (1 if machine < extra else 0)
            for _ in range(size):
                if index < k:
                    mapping[partitions[index]] = machine
                    index += 1
        return mapping

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def stats(self) -> PlacementStats:
        """Precompute the per-machine aggregates for the cost model.

        A vertex replicated on ``s`` partitions costs ``2·(s − 1)`` message
        pairs per superstep: the master partition (its lowest partition id)
        exchanges one gather and one scatter message with each mirror
        partition.  Each message charges both endpoint machines; it counts
        as *remote* when master and mirror live on different machines and
        *local* otherwise.
        """
        inc, machines = self._incidence, self.num_machines
        of_part = np.array([self.machine_of_partition[p]
                            for p in inc.parts.tolist()], dtype=np.int64)

        def per_machine(charge: int, *columns: np.ndarray) -> Dict[int, int]:
            counts = np.bincount(np.concatenate(columns), minlength=machines)
            return dict(enumerate((charge * counts).tolist()))

        # One row per mirror replica: its machine and its master's.
        machine = of_part[inc.part]
        mirror, master = machine[~inc.first], machine[inc.master[~inc.first]]
        same = mirror == master
        placed = max(1, np.count_nonzero(inc.degree))
        isolated = len(inc.ids) - np.count_nonzero(inc.degree)
        pairs = np.sort(inc.vertex * machines + machine)
        spans = np.count_nonzero(np.diff(pairs, prepend=-1))
        return PlacementStats(
            edges_per_machine=per_machine(1, np.repeat(of_part, inc.sizes)),
            # A gather and a scatter charge both ends: 2 + 2 on one machine.
            remote_sync_per_machine=per_machine(
                2, mirror[~same], master[~same]),
            local_sync_per_machine=per_machine(4, mirror[same]),
            replication_degree=(len(inc.vertex) - isolated) / placed,
            machine_span_degree=(spans - isolated) / placed,
        )
