"""The sharded cluster engine: real multi-shard BSP execution.

:class:`ClusterEngine` executes a vertex program over a
:class:`~repro.graph.shard.ShardedGraph` the way the paper's testbed
(and the cost model standing in for it) says a PowerGraph-style system
does: every partition is computed over its own CSR shard only — a host
steps the shards it holds as one dense kernel over their block-diagonal
CSR — and between supersteps the replicas of cut vertices are made
consistent by a gather-to-master / scatter-to-mirrors exchange
(:mod:`repro.cluster.transport`).  The ``serial`` backend holds every
shard on one in-process host (deterministic reference); the ``process``
backend spreads them over worker OS processes talking over pipes.

The result is a :class:`ClusterReport` — a drop-in
:class:`~repro.engine.runtime.SimulationReport` (states, supersteps,
message counts, aggregates and the *same* simulated latency trace as
``Engine``, charged from the same active fractions) extended with what
the single-process engine cannot measure: per-superstep wall-clock and
actually-observed replica-sync traffic, split remote/local per machine.
The differential test layer holds the measured traffic equal to
:meth:`~repro.engine.placement.Placement.stats`' prediction, turning the
cost model into a validated artifact.

Programs whose kernels don't satisfy the sharding contract (see
:mod:`repro.engine.dense`) — or that have no dense kernel at all — run
on the **fallback path**: the unsharded :class:`~repro.engine.runtime.
Engine` over the reassembled graph, still wrapped in a
:class:`ClusterReport` (with ``sharded=False`` and simulated-only
traffic), so every workload runs through one entry point.

Fault tolerance
---------------
``ClusterEngine(checkpoint_every=N)`` turns the engine fault-tolerant:
every N completed supersteps it captures a shard-level checkpoint (see
:mod:`repro.cluster.checkpoint`) — per-partition kernel state plus the
coordinator's superstep trail — and when a machine dies mid-superstep
(detected by the transports' bounded waits, or killed deliberately by a
:class:`~repro.cluster.faults.FaultInjector`) the engine rolls back:
teardown, respawn of the same layout, state restore, and deterministic
replay from the checkpoint boundary.  The invariant the differential
test layer holds: a faulted-and-recovered run produces
**bit-identical** states and aggregates to the unfaulted run.  With
``checkpoint_dir`` set, checkpoints also persist to disk and
:meth:`ClusterEngine.resume` restarts an interrupted run from the last
consistent boundary — on the recorded layout, or on another backend or
worker count: a checkpoint is keyed by partition, so resuming is also
how a run changes layout.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from repro import obs
from repro.cluster.checkpoint import (
    CheckpointState,
    CheckpointStore,
    RecoveryEvent,
    capture_progress,
)
from repro.cluster.faults import ClusterError, FaultInjector, WorkerDied
from repro.cluster.transport import (
    BACKENDS,
    ProcessTransport,
    SerialTransport,
    SyncStats,
)
from repro.engine.cost import CostModel
from repro.engine.runtime import Engine, SimulationReport
from repro.engine.vertex_program import VertexProgram
from repro.graph.shard import ShardedGraph

@dataclass
class SuperstepTelemetry:
    """Measured (not simulated) facts about one superstep."""

    superstep: int
    computed: int
    active_fraction: float
    #: Coordinator wall-clock of the whole superstep (compute + sync).
    wall_ms: float
    #: Slowest *host's* kernel-step wall-clock: the whole compute on the
    #: serial backend (one host), the BSP straggler on the process one.
    compute_ms: float
    #: Whether a replica-sync exchange ran this superstep.
    synced: bool
    remote_messages: int
    local_messages: int
    payload_bytes: int
    remote_per_machine: Dict[int, int] = field(default_factory=dict)
    local_per_machine: Dict[int, int] = field(default_factory=dict)
    #: Coordinator wall-clock of the replica exchange (gather, fold,
    #: scatter); 0.0 on checkpoints written before the field existed.
    sync_ms: float = 0.0


@dataclass
class ClusterReport(SimulationReport):
    """A :class:`SimulationReport` plus measured cluster telemetry."""

    backend: str = "serial"
    #: False when the program ran on the unsharded fallback path.
    sharded: bool = True
    num_shards: int = 0
    num_machines: int = 1
    #: Total measured wall-clock of the superstep loop (milliseconds).
    wall_ms_total: float = 0.0
    telemetry: List[SuperstepTelemetry] = field(default_factory=list)
    #: Failures detected and rolled back during this run, in order.
    recoveries: List[RecoveryEvent] = field(default_factory=list)
    #: Checkpoints captured (including the initial boundary-0 one).
    checkpoints_written: int = 0
    #: Wall-clock spent capturing/persisting checkpoints (milliseconds).
    checkpoint_wall_ms: float = 0.0

    @property
    def remote_sync_messages(self) -> int:
        return sum(t.remote_messages for t in self.telemetry)

    @property
    def local_sync_messages(self) -> int:
        return sum(t.local_messages for t in self.telemetry)

    @property
    def sync_payload_bytes(self) -> int:
        return sum(t.payload_bytes for t in self.telemetry)


class ClusterEngine:
    """BSP executor over per-partition CSR shards with replica sync.

    Parameters
    ----------
    sharded:
        The sharded graph (any partitioner's assignment — see
        :meth:`~repro.graph.shard.ShardedGraph.from_assignments`).
    cost_model:
        Charges the same simulated latency trace as
        :class:`~repro.engine.runtime.Engine`, so simulated and measured
        time sit side by side in one report.
    backend:
        ``"serial"`` (in-process, deterministic) or ``"process"`` (one
        worker OS process per machine over pipes).
    num_workers:
        Process backend only: number of worker processes to group the
        partitions onto (contiguous blocks).  Defaults to one worker per
        partition, capped at the CPU count.  Machines *are* workers.
    num_machines / machine_of_partition:
        Serial backend only: the logical machine layout used to classify
        sync traffic remote vs. local (defaults to one machine per
        partition).  The process backend derives both from its workers.
    checkpoint_every:
        Capture a shard-level checkpoint every N completed supersteps
        (plus one at boundary 0).  Enables crash recovery: a dead worker
        rolls the run back to the last checkpoint and replays.  ``None``
        (default) disables checkpointing *and* recovery — a worker death
        then raises :class:`~repro.cluster.faults.ClusterError`.
    checkpoint_dir:
        Also persist checkpoints (and the run topology) to this
        directory, enabling :meth:`resume`.  Requires
        ``checkpoint_every``.
    fault_injector:
        Deterministic kill schedule for tests/benchmarks (see
        :mod:`repro.cluster.faults`).
    heartbeat_timeout:
        Process backend: per-reply bound in seconds (liveness is probed
        every poll interval regardless, so crash detection is fast; the
        timeout only catches wedged-but-alive workers).
    max_recoveries:
        Give up with :class:`ClusterError` after this many rollbacks.
    """

    def __init__(self, sharded: ShardedGraph,
                 cost_model: Optional[CostModel] = None,
                 backend: str = "serial",
                 num_workers: Optional[int] = None,
                 num_machines: Optional[int] = None,
                 machine_of_partition: Optional[Mapping[int, int]] = None,
                 checkpoint_every: Optional[int] = None,
                 checkpoint_dir: Optional[str] = None,
                 fault_injector: Optional[FaultInjector] = None,
                 heartbeat_timeout: float = ProcessTransport.DEFAULT_TIMEOUT,
                 max_recoveries: int = 8) -> None:
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r} (choose from {BACKENDS})")
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1 (or None)")
        if checkpoint_dir is not None and checkpoint_every is None:
            raise ValueError("checkpoint_dir requires checkpoint_every")
        if heartbeat_timeout <= 0:
            raise ValueError("heartbeat_timeout must be positive")
        if max_recoveries < 0:
            raise ValueError("max_recoveries must be >= 0")
        self.sharded = sharded
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.backend = backend
        self.checkpoint_every = checkpoint_every
        self.checkpoint_dir = checkpoint_dir
        self.fault_injector = fault_injector
        self.heartbeat_timeout = heartbeat_timeout
        self.max_recoveries = max_recoveries
        partitions = sharded.partitions
        if backend == "process":
            if num_machines is not None or machine_of_partition is not None:
                raise ValueError(
                    "process backend derives machines from its workers; "
                    "pass num_workers instead")
            if num_workers is not None and num_workers < 1:
                raise ValueError("num_workers must be >= 1")
            workers = (num_workers if num_workers is not None
                       else min(len(partitions), os.cpu_count() or 1))
            workers = min(workers, len(partitions))
            self.num_machines = workers
            self.machine_of = self._contiguous_map(partitions, workers)
        else:
            if num_workers is not None:
                raise ValueError("num_workers only applies to the "
                                 "process backend")
            if machine_of_partition is not None:
                self.machine_of = dict(machine_of_partition)
                self.num_machines = (num_machines if num_machines is not None
                                     else len(set(self.machine_of.values())))
            else:
                machines = (num_machines if num_machines is not None
                            else len(partitions))
                self.machine_of = self._contiguous_map(partitions, machines)
                self.num_machines = machines
        self.placement = sharded.placement(
            num_machines=self.num_machines,
            machine_of_partition=self.machine_of)
        self._stats = self.placement.stats()

    @staticmethod
    def _contiguous_map(partitions, num_machines) -> Dict[int, int]:
        from repro.engine.placement import Placement
        return Placement.contiguous_machine_map(partitions, num_machines)

    @property
    def _recovery_enabled(self) -> bool:
        return self.checkpoint_every is not None

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, program: VertexProgram,
            max_supersteps: int = 100) -> ClusterReport:
        """Execute ``program`` until convergence or ``max_supersteps``."""
        if max_supersteps < 1:
            raise ValueError("max_supersteps must be >= 1")
        if not self._can_shard(program):
            return self._run_fallback(program, max_supersteps)
        return self._run_sharded(program, max_supersteps)

    @classmethod
    def resume(cls, checkpoint_dir: str,
               backend: Optional[str] = None,
               num_workers: Optional[int] = None,
               max_supersteps: Optional[int] = None) -> ClusterReport:
        """Restart an interrupted run from its last on-disk checkpoint.

        Rebuilds the engine from ``topology.pkl`` (written by a run with
        ``checkpoint_dir`` set), restores the latest consistent superstep
        boundary, and runs to completion.  With neither override the
        recorded layout is rebuilt; ``backend``/``num_workers`` replace
        the original deployment with that backend's default layout (or
        ``num_workers`` workers) — the checkpoint is keyed by partition,
        so any layout can resume it.
        """
        store = CheckpointStore(checkpoint_dir, create=False)
        topology = store.read_topology()
        checkpoint = store.latest()
        if checkpoint is None:
            raise ClusterError(f"no checkpoint found in {checkpoint_dir}")
        if checkpoint.fingerprint != topology["sharded"].fingerprint():
            raise ClusterError(
                "checkpoint does not match the sharded graph in "
                f"{checkpoint_dir}")
        layout: Dict[str, Any] = {}
        if backend is None and num_workers is None:  # the recorded one
            layout = ({"num_workers": topology["num_machines"]}
                      if topology["backend"] == "process" else
                      {"machine_of_partition": topology["machine_of"],
                       "num_machines": topology["num_machines"]})
        backend = topology["backend"] if backend is None else backend
        if backend == "process" and num_workers is not None:
            layout = {"num_workers": num_workers}
        engine = cls(topology["sharded"],
                     cost_model=topology["cost_model"],
                     backend=backend, **layout,
                     checkpoint_every=topology["checkpoint_every"],
                     checkpoint_dir=checkpoint_dir,
                     heartbeat_timeout=topology["heartbeat_timeout"])
        return engine._run_sharded(
            topology["program"],
            max_supersteps if max_supersteps is not None
            else topology["max_supersteps"],
            start=checkpoint)

    def _can_shard(self, program: VertexProgram) -> bool:
        if not getattr(program, "shardable", False):
            return False
        if type(program).dense_kernel is VertexProgram.dense_kernel:
            return False
        # A shardable program may still decline a kernel for this graph.
        first = self.sharded.shards[self.sharded.partitions[0]]
        return program.dense_kernel(first.csr) is not None

    def _make_transport(self, program: VertexProgram):
        if self.backend == "process":
            return ProcessTransport(self.sharded, program, self.machine_of,
                                    timeout=self.heartbeat_timeout)
        return SerialTransport(self.sharded, program, self.machine_of)

    def _topology(self, program: VertexProgram,
                  max_supersteps: int) -> Dict[str, Any]:
        return {"sharded": self.sharded,
                "machine_of": dict(self.machine_of),
                "num_machines": self.num_machines,
                "backend": self.backend,
                "cost_model": self.cost_model,
                "program": program,
                "max_supersteps": max_supersteps,
                "checkpoint_every": self.checkpoint_every,
                "heartbeat_timeout": self.heartbeat_timeout,
                "fingerprint": self.sharded.fingerprint()}

    def _run_sharded(self, program: VertexProgram, max_supersteps: int,
                     start: Optional[CheckpointState] = None
                     ) -> ClusterReport:
        """Mirror of ``Engine._run_dense``'s loop, with the per-superstep
        work fanned out to the shards, measured on the way through, and —
        when checkpointing is on — wrapped in rollback recovery."""
        num_vertices = self.sharded.num_vertices
        recoveries: List[RecoveryEvent] = []
        checkpoints_written = 0
        checkpoint_wall_ms = 0.0
        store = (CheckpointStore(self.checkpoint_dir)
                 if self.checkpoint_dir else None)
        if store is not None and start is None:
            store.write_topology(self._topology(program, max_supersteps))
        last_checkpoint = start
        rollback = None
        transport = self._make_transport(program)
        try:
            while True:
                # One start for a fresh run, resume(start=...) and a
                # rollback: the last checkpoint, else boundary 0.  A death
                # while it restores is not rolled back again.
                superstep, progress = 0, capture_progress([], [], [], 0)
                if last_checkpoint is not None:
                    transport.restore(last_checkpoint.shard_states)
                    superstep = last_checkpoint.cursor
                    progress = last_checkpoint.progress
                costs, aggregates, telemetry = (
                    list(progress[key])
                    for key in ("costs", "aggregates", "telemetry"))
                total_messages = progress["messages"]
                if rollback is not None:
                    death, detected_at, rollback_start = rollback
                    recoveries.append(RecoveryEvent(
                        death.machine, death.reason, detected_at, superstep,
                        (time.perf_counter() - rollback_start) * 1000.0))
                # A checkpoint taken where should_stop ended the run
                # resumes stopped, not one superstep further.
                stopped = bool(aggregates) and program.should_stop(
                    aggregates[-1], superstep)
                try:
                    while True:
                        if (self._recovery_enabled
                                and superstep % self.checkpoint_every == 0
                                and (last_checkpoint is None
                                     or last_checkpoint.cursor != superstep)):
                            # Boundary 0 and every N-th: the one capture.
                            checkpoint_start = time.perf_counter()
                            last_checkpoint = CheckpointState(
                                cursor=superstep,
                                shard_states=transport.snapshot(),
                                progress=capture_progress(
                                    costs, aggregates, telemetry,
                                    total_messages),
                                fingerprint=self.sharded.fingerprint())
                            if store is not None:
                                store.write(last_checkpoint)
                            checkpoints_written += 1
                            checkpoint_wall_ms += (
                                time.perf_counter() - checkpoint_start
                            ) * 1000.0
                        if stopped or superstep >= max_supersteps:
                            converged = (stopped
                                         or transport.compute_owned() == 0)
                            break
                        computed = transport.compute_owned()
                        if computed == 0:
                            converged = True
                            break
                        step_start = time.perf_counter()
                        with obs.span("cluster.superstep",
                                      backend=transport.backend,
                                      superstep=superstep,
                                      active=computed):
                            result = transport.step(superstep,
                                                    self.fault_injector)
                        wall_ms = (time.perf_counter() - step_start) * 1000.0
                        active_fraction = (computed / num_vertices
                                           if num_vertices else 0.0)
                        costs.append(self.cost_model.superstep_cost(
                            self._stats, active_fraction))
                        aggregates.append(result.aggregate)
                        total_messages += result.sent
                        stats: SyncStats = result.stats
                        if obs.is_enabled():
                            # SyncStats re-expressed as registry series —
                            # the dataclass itself stays untouched, so the
                            # measured-vs-predicted suites see identical
                            # values.
                            backend = transport.backend
                            for name, count in (
                                    ("supersteps", 1),
                                    ("remote_messages", stats.remote_messages),
                                    ("local_messages", stats.local_messages),
                                    ("payload_bytes", stats.payload_bytes)):
                                obs.counter(f"repro_cluster_{name}_total",
                                            backend=backend).inc(count)
                            for name, seconds in (
                                    ("repro_cluster_superstep_seconds",
                                     wall_ms / 1000.0),
                                    ("repro_cluster_compute_seconds",
                                     result.compute_seconds),
                                    ("repro_cluster_sync_seconds",
                                     result.sync_seconds)):
                                obs.histogram(name, backend=backend
                                              ).observe(seconds)
                        telemetry.append(SuperstepTelemetry(
                            superstep=superstep,
                            computed=computed,
                            active_fraction=active_fraction,
                            wall_ms=wall_ms,
                            compute_ms=result.compute_seconds * 1000.0,
                            synced=result.synced,
                            remote_messages=stats.remote_messages,
                            local_messages=stats.local_messages,
                            payload_bytes=stats.payload_bytes,
                            remote_per_machine=dict(stats.remote_per_machine),
                            local_per_machine=dict(stats.local_per_machine),
                            sync_ms=result.sync_seconds * 1000.0,
                        ))
                        superstep += 1
                        stopped = program.should_stop(result.aggregate,
                                                      superstep)
                    states = transport.states()
                    break
                except WorkerDied as death:
                    if not self._recovery_enabled:
                        raise
                    if len(recoveries) >= self.max_recoveries:
                        raise ClusterError(
                            f"giving up after {len(recoveries)} recoveries "
                            f"(machine {death.machine}: {death.reason})"
                        ) from death
                    rollback = (death, superstep, time.perf_counter())
                    transport.close()
                    transport = self._make_transport(program)
        finally:
            transport.close()
        return ClusterReport(
            algorithm=program.name,
            supersteps=len(costs),
            latency_ms=sum(c.total_ms for c in costs),
            superstep_costs=costs,
            states=states,
            messages_sent=total_messages,
            converged=converged,
            aggregates=aggregates,
            backend=transport.backend,
            sharded=True,
            num_shards=len(self.sharded.partitions),
            num_machines=self.num_machines,
            wall_ms_total=sum(t.wall_ms for t in telemetry),
            telemetry=telemetry,
            recoveries=recoveries,
            checkpoints_written=checkpoints_written,
            checkpoint_wall_ms=checkpoint_wall_ms,
        )

    def _run_fallback(self, program: VertexProgram,
                      max_supersteps: int) -> ClusterReport:
        """Unsharded execution for programs outside the sharding contract:
        the ordinary engine over the reassembled graph (dense where the
        program has a kernel, object otherwise), measured wall included."""
        engine = Engine(self.sharded.to_graph(), self.placement,
                        self.cost_model, mode="dense")
        start = time.perf_counter()
        report = engine.run(program, max_supersteps=max_supersteps)
        wall_ms = (time.perf_counter() - start) * 1000.0
        return ClusterReport(
            algorithm=report.algorithm,
            supersteps=report.supersteps,
            latency_ms=report.latency_ms,
            superstep_costs=report.superstep_costs,
            states=report.states,
            messages_sent=report.messages_sent,
            converged=report.converged,
            aggregates=report.aggregates,
            backend=self.backend,
            sharded=False,
            num_shards=len(self.sharded.partitions),
            num_machines=self.num_machines,
            wall_ms_total=wall_ms,
            telemetry=[],
        )
