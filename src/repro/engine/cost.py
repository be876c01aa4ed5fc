"""Latency cost model of the simulated cluster.

Translates a :class:`~repro.engine.placement.Placement` into per-superstep
latency.  The model mirrors the paper's testbed mechanics:

* **compute** — each machine scans the edges of its partitions for every
  active vertex: ``edge_compute_ms × active_fraction × machine_edges``.
* **communication** — replica synchronisation messages cross the (shared,
  1-GbE-like) network: ``message_ms × active_fraction × sync_messages``.
* a superstep finishes when the *slowest* machine finishes (BSP barrier),
  so imbalance directly stretches latency.

Workload weight knobs (``compute_weight``, ``comm_weight``) express how
heavy an algorithm's per-edge work and per-message payload are relative to
PageRank (weight 1.0) — the paper distinguishes "lightweight" PageRank from
communication- and computation-heavy subgraph isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.engine.placement import Placement, PlacementStats


@dataclass(frozen=True)
class SuperstepCost:
    """Latency breakdown of one superstep (milliseconds)."""

    compute_ms: float
    comm_ms: float
    total_ms: float
    bottleneck_machine: int


@dataclass
class CostModel:
    """Deterministic cluster cost model.

    Defaults are calibrated so that a ~100k-edge graph on 8 machines yields
    PageRank iterations in the tens of milliseconds of simulated time —
    scaled-down but proportionate to the paper's cluster numbers.

    The 0.5 µs an edge : 2 µs a message below is the *paper's* proportion
    (a 1-GbE testbed: a sync message costs four edge scans), not this
    machine's.  Measured on the cluster runtime here (serial backend,
    one core, 100 PageRank supersteps over an HDRF sharding at k = 32,
    ``adwise process`` prints both figures):

    ==============  ===========================  ====================
    graph           compute, ns per edge         exchange, ns per
                    (2 adjacency slots)          sync message
    ==============  ===========================  ====================
    24,000 edges    11.2–12.7 numpy, 5.6–6.5 C   9.9–12.2 → 3.7–4.0
    392,640 edges   14.6–16.0 numpy, 6.1–6.3 C   10.1–12.2 → 3.8
    ==============  ===========================  ====================

    ("numpy": the dense kernels' helpers and the numpy fold, "C": the
    native host step of DESIGN.md §8; three runs each.)  A message costs
    about 0.6–0.8 of an edge on either tier — in shared memory the
    exchange is an index copy — so measured wall rewards a lower
    replication degree far less than the simulated figures do; the
    constants stay the paper's because the simulated trace reproduces
    *its* Fig. 7, and a measured run is read off ``ClusterReport``.
    """

    edge_compute_ms: float = 0.0005
    message_ms: float = 0.002
    #: Relative cost of a same-machine replica-sync message: no network
    #: hop, but serialisation and replica maintenance remain.
    local_message_factor: float = 0.3
    superstep_overhead_ms: float = 1.0
    compute_weight: float = 1.0
    comm_weight: float = 1.0

    def superstep_cost(self, stats: PlacementStats,
                       active_fraction: float = 1.0) -> SuperstepCost:
        """Latency of one superstep with the given fraction of active vertices."""
        if not 0.0 <= active_fraction <= 1.0:
            raise ValueError(
                f"active_fraction must be in [0, 1], got {active_fraction}")
        worst_total = 0.0
        worst_compute = 0.0
        worst_comm = 0.0
        bottleneck = 0
        for machine, edges in stats.edges_per_machine.items():
            compute = (self.edge_compute_ms * self.compute_weight
                       * active_fraction * edges)
            weighted_msgs = (
                stats.remote_sync_per_machine.get(machine, 0)
                + self.local_message_factor
                * stats.local_sync_per_machine.get(machine, 0))
            comm = (self.message_ms * self.comm_weight * active_fraction
                    * weighted_msgs)
            total = compute + comm
            if total > worst_total:
                worst_total = total
                worst_compute = compute
                worst_comm = comm
                bottleneck = machine
        return SuperstepCost(
            compute_ms=worst_compute,
            comm_ms=worst_comm,
            total_ms=worst_total + self.superstep_overhead_ms,
            bottleneck_machine=bottleneck,
        )

    def iterations_cost_ms(self, placement: Placement, iterations: int,
                           active_fraction: float = 1.0) -> float:
        """Analytic latency of ``iterations`` stationary supersteps.

        Valid for algorithms whose activity is (near-)constant per iteration
        — PageRank and synchronous graph coloring — where every superstep
        costs the same.  Message-driven algorithms (subgraph isomorphism,
        clique search) must be *run* on the engine instead, since their
        active sets vary superstep to superstep.
        """
        if iterations < 0:
            raise ValueError("iterations must be non-negative")
        per_step = self.superstep_cost(placement.stats(), active_fraction)
        return per_step.total_ms * iterations


#: Workload presets: relative per-edge compute and per-message payload
#: weights of the paper's four algorithms (PageRank is the unit).
WORKLOAD_WEIGHTS: Dict[str, Dict[str, float]] = {
    "pagerank": {"compute_weight": 1.0, "comm_weight": 1.0},
    "coloring": {"compute_weight": 1.2, "comm_weight": 1.5},
    "subgraph_isomorphism": {"compute_weight": 4.0, "comm_weight": 6.0},
    "clique": {"compute_weight": 2.5, "comm_weight": 4.0},
}


def cost_model_for(workload: str, **overrides: float) -> CostModel:
    """Build a :class:`CostModel` preset for one of the paper's workloads."""
    if workload not in WORKLOAD_WEIGHTS:
        raise KeyError(
            f"unknown workload {workload!r}; known: {sorted(WORKLOAD_WEIGHTS)}")
    params = dict(WORKLOAD_WEIGHTS[workload])
    params.update(overrides)
    return CostModel(**params)
