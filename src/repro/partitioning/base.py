"""Base classes for streaming vertex-cut partitioners.

Every algorithm — the single-edge baselines and ADWISE — implements
:class:`StreamingPartitioner`: a single pass over an edge stream, one
assignment per edge, all bookkeeping through a :class:`PartitionState`.
Latency is accounted on an injected :class:`~repro.simtime.Clock` so that
the "partitioning latency" axis of every experiment is deterministic.

Ingestion is incremental and first-class: a stream is consumed through
``begin() -> ingest(edges)* -> finalize()``, where each :meth:`ingest`
call may deliver any sub-slice of the stream and returns the
:class:`Assignment` decisions it emitted.  :meth:`partition_stream` is a
thin batch wrapper over those three calls, so one-shot runs and
long-lived sessions (``repro.api`` / ``repro.service``) share the exact
same driver — a batch run and any chunking of the same stream through
``ingest`` are bit-identical by construction (enforced by
``tests/test_ingest_api.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro import obs
from repro.graph.graph import Edge
from repro.graph.stream import EdgeStream
from repro.partitioning.fast_state import FastPartitionState
from repro.partitioning.state import PartitionState
from repro.simtime import Clock, SimulatedClock


@dataclass(frozen=True)
class Assignment:
    """One emitted partitioning decision: ``edge`` placed on ``partition``.

    The unit of the incremental ingest API.  Window-based partitioners
    may emit assignments in a different order than edges were ingested
    (and may defer them across ``ingest`` calls), so decisions carry the
    edge rather than relying on positional correspondence.
    """

    edge: Edge
    partition: int


@dataclass
class PartitionResult:
    """Outcome of one partitioning run.

    Attributes
    ----------
    algorithm:
        Name of the partitioner that produced this result.
    state:
        Final :class:`PartitionState` (vertex cache, partition sizes).
    assignments:
        Edge → partition mapping, in assignment order.
    latency_ms:
        Partitioning latency charged on the clock.
    score_computations:
        Number of score computations performed (the paper's complexity unit).
    """

    algorithm: str
    state: PartitionState
    assignments: Dict[Edge, int]
    latency_ms: float
    score_computations: int = 0
    extras: Dict[str, float] = field(default_factory=dict)

    @property
    def replication_degree(self) -> float:
        return self.state.replication_degree()

    @property
    def imbalance(self) -> float:
        return self.state.imbalance()

    def partition_of(self, edge: Edge) -> int:
        """Partition the canonical form of ``edge`` was assigned to."""
        return self.assignments[edge.canonical()]


class StreamingPartitioner:
    """A single-pass streaming vertex-cut partitioner.

    Subclasses implement :meth:`select_partition` (the scoring decision for
    one edge).  Window-based algorithms override :meth:`partition_stream`
    wholesale since their control flow differs.

    There are two tiers and the code picks between them from what it can
    observe (DESIGN.md §2).  An algorithm with a compiled transaction in
    ``_kernels.c`` (:attr:`compiled`: ADWISE, HDRF) runs it on an
    array-backed :class:`~repro.partitioning.fast_state.FastPartitionState`
    wherever the kernels load (:func:`repro.core._kernels.load`: numpy,
    cffi and a C compiler present); everywhere else, and for every other
    algorithm, the dict-backed :class:`PartitionState` and the per-edge
    Python below run — the reference, bit-identical by contract.
    ``fast=False`` is the differential suites' hook for that reference
    on a machine that has the kernels; ``True`` and the default ``None``
    both mean "the rule above".
    """

    name = "abstract"

    #: Whether ``_kernels.c`` holds a transaction for this algorithm.
    compiled = False

    #: Whether this algorithm can consume a stream through the
    #: incremental ``begin/ingest/finalize`` protocol.  Offline
    #: partitioners that need the whole edge set up front (NE, Ja-Be-Ja)
    #: set this to ``False`` and only support :meth:`partition_stream`.
    supports_incremental = True

    def __init__(self, partitions: Sequence[int],
                 clock: Optional[Clock] = None,
                 state: Optional[PartitionState] = None,
                 fast: Optional[bool] = None) -> None:
        if state is None:
            state = self._new_state(partitions, fast)
        self.state = state
        self.clock = clock if clock is not None else SimulatedClock()
        self._streaming = False
        self._assignments: Dict[Edge, int] = {}
        self._start_ms = 0.0

    def _new_state(self, partitions: Sequence[int], fast: Optional[bool]):
        """The tier-selection rule (see the class docstring).  Resolved
        here, not at import: loading the kernels may compile them."""
        if self.compiled and fast is not False:
            from repro.core import _kernels

            if _kernels.load() is not None:
                return FastPartitionState(partitions)
        return PartitionState(partitions)

    @property
    def partitions(self) -> List[int]:
        return self.state.partitions

    # ------------------------------------------------------------------
    # To be provided by subclasses
    # ------------------------------------------------------------------
    def select_partition(self, edge: Edge) -> int:
        """Choose the partition for ``edge`` given the current state."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------
    def partition_edge(self, edge: Edge) -> int:
        """Observe, score and assign a single edge; return its partition."""
        edge = edge.canonical()
        self.state.observe_degrees(edge)
        partition = self.select_partition(edge)
        self.state.assign(edge, partition)
        self.clock.charge_assignment()
        return partition

    def _partition_batch(self, edges: Sequence[Edge]) -> List[int]:
        """Assign ``edges`` (canonical) in order; return their partitions.

        The batch hook of :meth:`ingest`: one :meth:`partition_edge` per
        edge here; an algorithm with a compiled batch transaction
        overrides it."""
        return [self.partition_edge(edge) for edge in edges]

    # ------------------------------------------------------------------
    # Incremental ingestion protocol
    # ------------------------------------------------------------------
    def begin(self, total_edges: int = 0) -> None:
        """Open a new stream: reset per-stream driver state.

        ``total_edges`` is the expected stream length when known (batch
        runs pass ``len(stream)``); ``0`` means unbounded/unknown — the
        natural setting for a live ingest session.  Single-edge
        algorithms ignore it; window-based subclasses use it to budget
        their latency preference.
        """
        self._streaming = True
        self._assignments = {}
        self._start_ms = self.clock.now()
        obs.counter("repro_partition_streams_total",
                    algorithm=self.name).inc()

    def ingest(self, edges: Iterable[Edge]) -> List[Assignment]:
        """Consume a slice of the stream; return the decisions emitted.

        May be called any number of times between :meth:`begin` and
        :meth:`finalize`; calling it on a closed partitioner implicitly
        opens a stream of unknown length.  Single-edge algorithms assign
        every ingested edge immediately, so the returned list has one
        :class:`Assignment` per input edge, in input order.
        """
        if not self._streaming:
            self.begin()
        with obs.span("partition.ingest", algorithm=self.name):
            batch = [edge.canonical() for edge in edges]
            partitions = self._partition_batch(batch)
            self._assignments.update(zip(batch, partitions))
            out = list(map(Assignment, batch, partitions))
        obs.counter("repro_partition_edges_total",
                    algorithm=self.name).inc(len(out))
        obs.counter("repro_partition_batches_total",
                    algorithm=self.name).inc()
        return out

    def finalize(self) -> PartitionResult:
        """Close the stream: flush deferred work, return the result.

        Single-edge algorithms have nothing buffered, so this only
        assembles the :class:`PartitionResult`; window-based subclasses
        drain their window here (the window-flush semantics batch runs
        get from stream exhaustion).
        """
        if not self._streaming:
            self.begin()
        self._streaming = False
        result = PartitionResult(
            algorithm=self.name,
            state=self.state,
            assignments=self._assignments,
            latency_ms=self.clock.now() - self._start_ms,
            score_computations=getattr(self.clock, "score_computations", 0),
        )
        self._publish_observability(result)
        return result

    def _publish_observability(self, result: PartitionResult) -> None:
        """Mirror the run's totals into the shared metrics registry."""
        if not obs.is_enabled():
            return
        labels = {"algorithm": self.name}
        obs.counter("repro_partition_score_computations_total",
                    **labels).inc(result.score_computations)
        obs.histogram("repro_partition_latency_ms",
                      **labels).observe(result.latency_ms)
        obs.gauge("repro_partition_replication_degree",
                  **labels).set(result.replication_degree)
        obs.gauge("repro_partition_imbalance",
                  **labels).set(result.imbalance)

    def partition_stream(self, stream: EdgeStream) -> PartitionResult:
        """Partition the whole stream — batch wrapper over the
        incremental protocol (one ``begin``/``ingest``/``finalize``)."""
        self.begin(total_edges=len(stream))
        self.ingest(stream)
        return self.finalize()
