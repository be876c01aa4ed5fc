"""Sharded distributed BSP runtime (real multi-process graph processing).

Where :class:`~repro.engine.runtime.Engine` *simulates* a cluster's
latency on one unsharded graph, this package *executes* the
PowerGraph-style master/mirror model the simulation stands in for:
:class:`~repro.graph.shard.ShardedGraph` splits any edge -> partition
assignment into per-partition CSR shards, and :class:`ClusterEngine`
runs BSP supersteps shard-locally (reusing the programs' dense kernels)
with gather-to-master / scatter-to-mirrors replica synchronisation
between supersteps — in-process (``serial``) or across worker OS
processes (``process``) — while measuring wall-clock and the actual
remote/local sync traffic next to the simulated latency.

The runtime is fault-tolerant: ``checkpoint_every`` enables shard-level
checkpoints (:mod:`repro.cluster.checkpoint`) and rollback recovery from
worker deaths — detected by bounded waits or injected deterministically
by a :class:`FaultInjector` (:mod:`repro.cluster.faults`) — and
``ClusterEngine.resume`` restarts a run from its on-disk checkpoints, on
its recorded machine layout or on another one.
"""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, {
    ".checkpoint": ("CheckpointState", "CheckpointStore", "RecoveryEvent"),
    ".faults": ("INJECTION_POINTS", "ClusterError", "FaultInjector", "Kill",
                "WorkerDied"),
    ".runtime": ("ClusterEngine", "ClusterReport", "SuperstepTelemetry"),
    ".transport": ("BACKENDS", "ProcessTransport", "SerialTransport",
                   "SyncStats"),
    "repro.graph.shard": ("Shard", "ShardCSR", "ShardedGraph"),
})

__all__ = [
    "BACKENDS",
    "INJECTION_POINTS",
    "CheckpointState",
    "CheckpointStore",
    "ClusterEngine",
    "ClusterError",
    "ClusterReport",
    "FaultInjector",
    "Kill",
    "ProcessTransport",
    "RecoveryEvent",
    "SerialTransport",
    "Shard",
    "ShardCSR",
    "ShardedGraph",
    "SuperstepTelemetry",
    "SyncStats",
    "WorkerDied",
]
