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

Decisions travel as columns (DESIGN.md §2): :meth:`ingest` turns its
edge-likes into one ``(n, 2)`` int64 array of canonical endpoints, the
algorithm answers with a partition column, and the three columns — an
:class:`AssignmentBatch` — are what ``ingest`` returns, what the run's
:class:`AssignmentStore` keeps and what the writer, the shards and the
daemon read.  An :class:`Assignment` or :class:`~repro.graph.graph.Edge`
object exists only when somebody indexes or iterates one of the two.
"""

from __future__ import annotations

from collections.abc import ItemsView, Mapping, ValuesView
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.graph.graph import Edge
from repro.graph.shard import collapsed_columns
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


def edge_columns(edges: Iterable[Sequence[int]]) -> np.ndarray:
    """Edge-likes (:class:`Edge` objects, ``(u, v)`` pairs, or an
    ``(n, 2)`` integer array of them, copied) as an ``(n, 2)`` int64
    array of canonical ``(lo, hi)`` rows, stream order.  Anything but a
    pair of integers that fit int64 is refused."""
    if isinstance(edges, np.ndarray):
        if (edges.ndim != 2 or edges.shape[1] != 2
                or edges.dtype.kind not in "iu" or edges.dtype == np.uint64):
            raise ValueError(f"an edge array is (n, 2) integers that fit "
                             f"int64, got {edges.dtype}{list(edges.shape)}")
        ends = edges.astype(np.int64)
    else:
        batch = edges if isinstance(edges, (list, tuple)) else list(edges)
        if set(map(len, batch)) - {2}:
            bad = next(edge for edge in batch if len(edge) != 2)
            raise ValueError(f"an edge is a (u, v) pair, got {bad!r}")
        ends = np.fromiter(chain.from_iterable(batch), dtype=np.int64,
                           count=2 * len(batch)).reshape(-1, 2)
    lo = np.minimum(ends[:, 0], ends[:, 1])
    np.maximum(ends[:, 0], ends[:, 1], out=ends[:, 1])
    ends[:, 0] = lo
    return ends


class AssignmentBatch(SequenceABC):
    """Decisions as ``(u, v, part)`` int64 columns in emission order
    (``u <= v``): what a compiled transaction hands up and everything
    downstream reads.  It *is* the ``Sequence[Assignment]`` the ingest
    API returns — indexing, slicing, iterating and comparing with a list
    of :class:`Assignment` build the objects on demand."""

    __slots__ = ("u", "v", "part")

    def __init__(self, u: np.ndarray, v: np.ndarray,
                 part: np.ndarray) -> None:
        self.u, self.v, self.part = u, v, part

    def __len__(self) -> int:
        return len(self.part)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return AssignmentBatch(self.u[index], self.v[index],
                                   self.part[index])
        return Assignment(Edge(int(self.u[index]), int(self.v[index])),
                          int(self.part[index]))

    def __iter__(self) -> Iterator[Assignment]:
        return map(Assignment, map(Edge, self.u.tolist(), self.v.tolist()),
                   self.part.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, (list, AssignmentBatch)):
            return NotImplemented
        return list(self) == list(other)


_NO_ROWS = np.zeros(0, dtype=np.int64)


def _joined(batches: Sequence[AssignmentBatch]) -> AssignmentBatch:
    """``batches`` as one batch, in order (empty columns for none)."""
    return AssignmentBatch(*(
        np.concatenate([_NO_ROWS] + [getattr(batch, column)
                                     for batch in batches])
        for column in AssignmentBatch.__slots__))


# The store's items()/values(): the abc views, iterating off the columns
# (their defaults look every key up, which would build the hash index).
class _StoreItems(ItemsView):
    def __iter__(self):
        return zip(self._mapping, self._mapping.columns()[2].tolist())


class _StoreValues(ValuesView):
    def __iter__(self):
        return iter(self._mapping.columns()[2].tolist())


class AssignmentStore(Mapping):
    """One run's canonical edge -> partition mapping, kept as the
    :class:`AssignmentBatch` es :meth:`append` ed to it.

    Read-only, with a dict's semantics: an edge the stream repeated keeps
    its first position and takes its last partition.  ``len()``,
    iteration (``keys()`` / ``items()`` / ``values()`` included), ``==``
    between stores and :meth:`columns` are answered from the arrays; a
    keyed lookup (``[...]``, ``get``, ``in``) builds a hash index the
    first time and brings it up to date, from the batches appended
    since, every time after.  :attr:`rows` counts decisions, repeats
    included.
    """

    def __init__(self, batches: Iterable[AssignmentBatch] = ()) -> None:
        self._batches = list(batches)
        self.rows = sum(map(len, self._batches))
        self._columns: Optional[Tuple[np.ndarray, ...]] = None
        self._index: Dict[Edge, int] = {}
        self._indexed = 0  # decisions the index has seen

    @classmethod
    def from_triples(cls, triples: "np.ndarray | Sequence[Tuple[int, int, int]]"):
        """Inverse of :meth:`triples` (the session snapshot's format;
        a list of ``(u, v, partition)`` tuples, as snapshots pickled
        before the array held them, is taken too)."""
        return cls([AssignmentBatch(
            *np.array(triples, dtype=np.int64).reshape(-1, 3).T)])

    def append(self, batch: AssignmentBatch) -> None:
        self._batches.append(batch)
        self.rows += len(batch)
        self._columns = None

    def decisions(self) -> AssignmentBatch:
        """Every decision so far, in emission order, as one batch."""
        if len(self._batches) != 1:
            self._batches = [_joined(self._batches)]
        return self._batches[0]

    def tail(self, count: int) -> AssignmentBatch:
        """The last ``count`` decisions (all of them when there are
        fewer, none when ``count <= 0``), in emission order, as one
        batch built from the batches that hold them only."""
        need, held = min(max(count, 0), self.rows), []
        for batch in reversed(self._batches):
            if need <= 0:
                break
            held.append(batch[max(0, len(batch) - need):])
            need -= len(batch)
        return _joined(held[::-1])

    def triples(self) -> np.ndarray:
        """Every decision as a ``(u, v, partition)`` row of one ``(n, 3)``
        int64 array (it pickles as raw bytes, not an object per int)."""
        rows = self.decisions()
        return np.stack((rows.u, rows.v, rows.part), axis=1)

    def columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The mapping as ``(u, v, part)`` columns in dict order — what
        :func:`~repro.graph.shard.mapping_columns` asks a mapping for."""
        if self._columns is None:
            rows = self.decisions()
            self._columns = collapsed_columns(rows.u, rows.v, rows.part)
        return self._columns

    def _lookup(self) -> Dict[Edge, int]:
        """The hash index, brought up to date: ``dict.update`` over the
        decisions it has not seen is the dict semantics itself."""
        skip = self._indexed
        for batch in self._batches:
            if skip < len(batch):
                self._index.update(zip(
                    map(Edge, batch.u[skip:].tolist(),
                        batch.v[skip:].tolist()),
                    batch.part[skip:].tolist()))
            skip = max(0, skip - len(batch))
        self._indexed = self.rows
        return self._index

    def __len__(self) -> int:
        return len(self.columns()[2])

    def __iter__(self) -> Iterator[Edge]:
        u, v, _ = self.columns()
        return map(Edge, u.tolist(), v.tolist())

    def __getitem__(self, edge: Edge) -> int:
        return self._lookup()[edge]

    def items(self) -> ItemsView:
        return _StoreItems(self)

    def values(self) -> ValuesView:
        return _StoreValues(self)

    def __eq__(self, other) -> bool:
        if isinstance(other, AssignmentStore) and all(
                map(np.array_equal, self.columns(), other.columns())):
            return True  # same edges, same order: no index needed
        if not isinstance(other, Mapping):
            return NotImplemented
        return dict(self.items()) == dict(other.items())


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
        Edge → partition mapping, in assignment order (a streaming
        partitioner's :class:`AssignmentStore`, or any mapping).
    latency_ms:
        Partitioning latency charged on the clock.
    score_computations:
        Number of score computations performed (the paper's complexity unit).
    """

    algorithm: str
    state: PartitionState
    assignments: Mapping
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
        self._assignments = AssignmentStore()
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

    def _partition_batch(self, ends: np.ndarray) -> np.ndarray:
        """Assign the edges ``ends`` (:func:`edge_columns`) in order;
        return their partitions as an int64 column.

        The batch hook of :meth:`ingest`: one :meth:`partition_edge` per
        edge here — the reference; an algorithm with a compiled batch
        transaction overrides it."""
        return np.fromiter(
            map(self.partition_edge, map(Edge, *ends.T.tolist())),
            dtype=np.int64, count=len(ends))

    def _emit(self, u: np.ndarray, v: np.ndarray,
              part: np.ndarray) -> AssignmentBatch:
        """Record the decisions ``(u[i], v[i]) -> part[i]`` in the run's
        store; returns them as the batch :meth:`ingest` hands back."""
        batch = AssignmentBatch(u, v, part)
        self._assignments.append(batch)
        return batch

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
        self._assignments = AssignmentStore()
        self._start_ms = self.clock.now()
        obs.counter("repro_partition_streams_total",
                    algorithm=self.name).inc()

    def ingest(self, edges: Iterable[Sequence[int]]) -> AssignmentBatch:
        """Consume a slice of the stream (:class:`Edge` objects, plain
        ``(u, v)`` pairs or an ``(n, 2)`` integer array); return the
        decisions emitted.

        May be called any number of times between :meth:`begin` and
        :meth:`finalize`; calling it on a closed partitioner implicitly
        opens a stream of unknown length.  Single-edge algorithms assign
        every ingested edge immediately, so the returned batch has one
        :class:`Assignment` per input edge, in input order; a window may
        hold edges back and emit earlier ones.
        """
        if not self._streaming:
            self.begin()
        with obs.span("partition.ingest", algorithm=self.name):
            ends = edge_columns(edges)
            out = self._ingest_columns(ends)
        obs.counter("repro_partition_edges_total",
                    algorithm=self.name).inc(len(ends))
        obs.counter("repro_partition_batches_total",
                    algorithm=self.name).inc()
        return out

    def _ingest_columns(self, ends: np.ndarray) -> AssignmentBatch:
        """Take the edges ``ends`` (:func:`edge_columns`) in; record and
        return what was decided.  One decision per edge, in order, here;
        a window-based algorithm overrides it."""
        return self._emit(ends[:, 0], ends[:, 1], self._partition_batch(ends))

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
        incremental protocol (``begin``/``ingest``/``finalize``; a file
        stream is ingested block by block, as arrays)."""
        self.begin(total_edges=len(stream))
        blocks = getattr(stream, "blocks", None)
        for batch in (stream,) if blocks is None else blocks():
            self.ingest(batch)
        return self.finalize()
