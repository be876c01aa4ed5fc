"""Partitioning sessions: the supported programmatic entry point.

A :class:`PartitionSession` wraps any incremental
:class:`~repro.partitioning.base.StreamingPartitioner` behind a small
stable surface — ``ingest / query / stats / snapshot / finalize`` — so
callers (applications, the ``repro.service`` daemon, the CLI client)
never construct partitioners, windows or clocks by hand::

    from repro import open_session

    session = open_session(algorithm="adwise", partitions=8,
                           latency_preference_ms=50.0)
    session.ingest([(0, 1), (1, 2), (0, 2)])
    session.stats().replication_degree
    result = session.finalize()

Sessions are resumable: :meth:`PartitionSession.snapshot` captures the
live mid-stream state — vertex cache, emitted assignments, pending and
windowed edges, adaptive-controller and balancer state, the simulated
clock — as a picklable :class:`SessionSnapshot`, and
:func:`restore_session` rebuilds a session that continues **bit-
identically** to an uninterrupted run (enforced by
``tests/test_session.py``).  This is the graceful-shutdown/restart
mechanism of the service daemon.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from numbers import Integral
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.graph.graph import Edge
from repro.partitioning.base import AssignmentBatch, AssignmentStore, PartitionResult
from repro.partitioning.parallel import partitioner_registry
from repro.partitioning.state import StateSnapshot
from repro.simtime import Clock, SimulatedClock

#: Edge-like inputs accepted by :meth:`PartitionSession.ingest`.
EdgeLike = Union[Edge, Tuple[int, int]]


class SessionError(ValueError):
    """Invalid session operation (unknown algorithm, closed session…)."""


@dataclass
class SessionStats:
    """Point-in-time observability snapshot of one session.

    ``edges_ingested`` counts edges accepted by :meth:`ingest`;
    ``assignments_emitted`` counts decisions already made, a repeated
    edge's every time.  The gap (``buffered_edges``) is stream the window
    is still holding — for single-edge algorithms it is always zero.
    """

    algorithm: str
    num_partitions: int
    edges_ingested: int
    assignments_emitted: int
    buffered_edges: int
    replication_degree: float
    imbalance: float
    window_size: int
    latency_ms: float

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "num_partitions": self.num_partitions,
            "edges_ingested": self.edges_ingested,
            "assignments_emitted": self.assignments_emitted,
            "buffered_edges": self.buffered_edges,
            "replication_degree": self.replication_degree,
            "imbalance": self.imbalance,
            "window_size": self.window_size,
            "latency_ms": self.latency_ms,
        }


@dataclass
class SessionSnapshot:
    """Picklable image of a live session (see module docstring).

    ``algorithm_state`` holds the window-algorithm extras (window image,
    pending edges, controller/balancer state) and is ``None`` for
    single-edge algorithms.  Built on the PR-2 :class:`StateSnapshot`
    for the vertex cache.
    """

    algorithm: str
    partitions: List[int]
    knobs: Dict[str, object]
    expected_edges: int
    state: StateSnapshot
    #: ``(u, v, partition)`` rows, one ``(n, 3)`` int64 array.
    assignments: np.ndarray
    clock: Dict[str, float]
    start_ms: float
    edges_ingested: int
    algorithm_state: Optional[dict] = None
    version: int = 1
    extras: Dict[str, object] = field(default_factory=dict)
    #: Ingest-batch sequence high-water mark at snapshot time — the
    #: service daemon's WAL recovery replays only records newer than
    #: this (read back with ``getattr(snapshot, "seq", 0)`` so
    #: pre-WAL pickles stay loadable).
    seq: int = 0

    def save(self, path: str) -> None:
        """Persist to ``path`` (pickle — floats round-trip bit-exactly)."""
        with open(path, "wb") as handle:
            pickle.dump(self, handle, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def load(cls, path: str) -> "SessionSnapshot":
        with open(path, "rb") as handle:
            snapshot = pickle.load(handle)
        if not isinstance(snapshot, cls):
            raise SessionError(f"{path} does not contain a SessionSnapshot")
        return snapshot


def _coerce_partitions(partitions: Union[int, Sequence[int]]) -> List[int]:
    """A count ``k`` (ids ``0..k-1``) or the ids themselves: integers,
    numpy's included, but never a ``str`` or a ``bool``."""
    if isinstance(partitions, (str, bool)):
        raise SessionError(f"partitions is a count or a list of ids, "
                           f"got {partitions!r}")
    if isinstance(partitions, Integral):
        if partitions < 1:
            raise SessionError("partitions must be >= 1")
        return list(range(partitions))
    ids = list(partitions)
    if not ids:
        raise SessionError("at least one partition required")
    bad = [p for p in ids
           if isinstance(p, bool) or not isinstance(p, Integral)]
    if bad:
        raise SessionError(f"a partition id is an integer, got {bad[0]!r}")
    return ids


def _build_partitioner(algorithm: str, partition_ids: List[int],
                       clock: Clock, knobs: Dict[str, object]):
    registry = partitioner_registry()
    try:
        cls = registry[algorithm]
    except KeyError:
        raise SessionError(
            f"unknown algorithm {algorithm!r} "
            f"(known: {', '.join(sorted(registry))})") from None
    if not cls.supports_incremental:
        raise SessionError(
            f"{algorithm} is an offline algorithm and cannot serve an "
            f"incremental session; use partition_stream")
    try:
        return cls(partition_ids, clock=clock, **knobs)
    except TypeError as exc:
        raise SessionError(f"bad knobs for {algorithm}: {exc}") from None


def open_session(algorithm: str = "adwise",
                 partitions: Union[int, Sequence[int]] = 32,
                 expected_edges: int = 0,
                 clock: Optional[Clock] = None,
                 **knobs) -> "PartitionSession":
    """Open a live partitioning session.

    Parameters
    ----------
    algorithm:
        Any incremental algorithm from the shared registry (the CLI's
        ``--algorithm`` choices minus the offline ones): ``adwise``,
        ``hdrf``, ``dbh``, ``greedy``, ``hash``, ``grid``, ``powerlyra``.
    partitions:
        Partition count ``k`` (ids ``0..k-1``) or an explicit id list
        (a spotlight spread).
    expected_edges:
        Stream-length hint for ADWISE's latency budget (C2); ``0`` means
        unbounded — the right setting for a continuous stream.
    clock:
        Latency accounting clock; defaults to a deterministic
        :class:`SimulatedClock` (required for snapshot support).
    knobs:
        Forwarded to the algorithm constructor
        (``latency_preference_ms=...``, ``fixed_window=...``, ...).

    ADWISE and HDRF sessions run the compiled kernels wherever they load
    on this machine and the bit-identical Python reference elsewhere
    (:class:`~repro.partitioning.base.StreamingPartitioner`); there is
    no knob to ask for either beyond ``fast=False``, which forces the
    reference — the control of the differential tests, of the
    benchmark's compiled-vs-reference parity check and of
    ``tools/profile_partition.py --reference``.
    """
    partition_ids = _coerce_partitions(partitions)
    session_clock = clock if clock is not None else SimulatedClock()
    partitioner = _build_partitioner(algorithm, partition_ids,
                                     session_clock, dict(knobs))
    return PartitionSession(partitioner, algorithm=algorithm,
                            knobs=dict(knobs),
                            expected_edges=expected_edges)


class PartitionSession:
    """A live, incrementally-fed partitioning run (see module docstring).

    Built by :func:`open_session` / :func:`restore_session`; constructing
    one directly requires a partitioner whose stream has not started.
    """

    def __init__(self, partitioner, algorithm: str,
                 knobs: Dict[str, object],
                 expected_edges: int = 0,
                 _restored: bool = False) -> None:
        self.partitioner = partitioner
        self.algorithm = algorithm
        self.knobs = knobs
        self.expected_edges = expected_edges
        self.closed = False
        self.edges_ingested = 0
        if not _restored:
            partitioner.begin(total_edges=expected_edges)

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def ingest(self, edges: Iterable[EdgeLike]) -> AssignmentBatch:
        """Feed a batch of edges; return the assignments emitted (a
        ``Sequence[Assignment]`` over their ``(u, v, part)`` columns).

        Accepts :class:`Edge` objects, plain ``(u, v)`` pairs or an
        ``(n, 2)`` integer array (taken as it is).  With a
        window-based algorithm the returned decisions may cover earlier
        edges, and some input edges stay buffered until the window can
        admit them (or :meth:`finalize` drains it).
        """
        self._require_open()
        batch = edges if hasattr(edges, "__len__") else list(edges)
        emitted = self.partitioner.ingest(batch)
        self.edges_ingested += len(batch)
        return emitted

    # ------------------------------------------------------------------
    # Online queries
    # ------------------------------------------------------------------
    def query_vertex(self, vertex: int) -> List[int]:
        """Replica set of ``vertex`` (sorted partition ids; empty if the
        vertex has not been part of any assigned edge yet)."""
        return sorted(self.partitioner.state.replicas(vertex))

    def query_edge(self, u: int, v: int) -> Optional[int]:
        """Partition the edge ``(u, v)`` was assigned to, else ``None``
        (unknown edge, or still buffered in the window)."""
        return self.partitioner._assignments.get(Edge(u, v).canonical())

    @property
    def buffered_edges(self) -> int:
        """Edges ingested but not yet assigned (pending + windowed)."""
        pending = getattr(self.partitioner, "_pending", None)
        window = getattr(self.partitioner, "window", None)
        count = len(pending) if pending is not None else 0
        if window is not None:
            count += len(window)
        return count

    def stats(self) -> SessionStats:
        state = self.partitioner.state
        controller = getattr(self.partitioner, "controller", None)
        return SessionStats(
            algorithm=self.algorithm,
            num_partitions=state.num_partitions,
            edges_ingested=self.edges_ingested,
            assignments_emitted=self.partitioner._assignments.rows,
            buffered_edges=self.buffered_edges,
            replication_degree=state.replication_degree(),
            imbalance=state.imbalance(),
            window_size=(controller.window_size
                         if controller is not None else 0),
            latency_ms=(self.partitioner.clock.now()
                        - self.partitioner._start_ms),
        )

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------
    def snapshot(self) -> SessionSnapshot:
        """Capture the full mid-stream state (see module docstring)."""
        self._require_open()
        partitioner = self.partitioner
        clock = partitioner.clock
        if not isinstance(clock, SimulatedClock):
            raise SessionError(
                "snapshot requires the deterministic SimulatedClock; "
                "wall-clock sessions cannot be resumed bit-identically")
        snapshot = SessionSnapshot(
            algorithm=self.algorithm,
            partitions=list(partitioner.state.partitions),
            knobs=dict(self.knobs),
            expected_edges=self.expected_edges,
            state=partitioner.state.snapshot(),
            assignments=partitioner._assignments.triples(),
            clock={
                "score_cost_ms": clock.score_cost_ms,
                "assignment_cost_ms": clock.assignment_cost_ms,
                "score_computations": clock.score_computations,
                "assignments": clock.assignments,
                "advanced_ms": clock._advanced_ms,
            },
            start_ms=partitioner._start_ms,
            edges_ingested=self.edges_ingested,
        )
        window = getattr(partitioner, "window", None)
        if window is not None:
            snapshot.algorithm_state = self._window_algorithm_state()
        return snapshot

    def _window_algorithm_state(self) -> dict:
        """ADWISE extras: window image + pending + controller/balancer."""
        from repro.core.adaptive import AdaptiveWindowController

        partitioner = self.partitioner
        controller = partitioner.controller
        return {
            "window_image": partitioner.window.to_image(),
            "pending": [(e.u, e.v) for e in partitioner._pending],
            "controller": (controller.to_state()
                           if isinstance(controller,
                                         AdaptiveWindowController)
                           else None),
            "balancer_value": (partitioner.scoring.balancer.value
                               if partitioner.scoring.balancer is not None
                               else None),
        }

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def finalize(self) -> PartitionResult:
        """Drain buffered work and close the session; returns the same
        :class:`PartitionResult` a batch run would have produced."""
        self._require_open()
        result = self.partitioner.finalize()
        self.closed = True
        return result

    def _require_open(self) -> None:
        if self.closed:
            raise SessionError("session already finalized")


def restore_session(snapshot: SessionSnapshot,
                    ) -> PartitionSession:
    """Rebuild a live session from a :class:`SessionSnapshot`.

    The restored session continues bit-identically to the one that was
    snapshot: same future assignments, same adaptive decisions, same
    simulated latency accounting.
    """
    clock = SimulatedClock(
        score_cost_ms=snapshot.clock["score_cost_ms"],
        assignment_cost_ms=snapshot.clock["assignment_cost_ms"])
    clock.score_computations = int(snapshot.clock["score_computations"])
    clock.assignments = int(snapshot.clock["assignments"])
    clock._advanced_ms = snapshot.clock["advanced_ms"]
    partitioner = _build_partitioner(snapshot.algorithm,
                                     list(snapshot.partitions), clock,
                                     dict(snapshot.knobs))
    # State snapshots are class-neutral: restore into the class this
    # partitioner picked here, whichever class took the snapshot.
    partitioner.state = type(partitioner.state).from_snapshot(snapshot.state)
    partitioner._streaming = True
    partitioner._start_ms = snapshot.start_ms
    partitioner._assignments = AssignmentStore.from_triples(
        snapshot.assignments)
    if snapshot.algorithm_state is not None:
        _restore_window_state(partitioner, snapshot)
    session = PartitionSession(partitioner, algorithm=snapshot.algorithm,
                               knobs=dict(snapshot.knobs),
                               expected_edges=snapshot.expected_edges,
                               _restored=True)
    session.edges_ingested = snapshot.edges_ingested
    return session


def _restore_window_state(partitioner, snapshot: SessionSnapshot) -> None:
    """Rebuild the ADWISE window/controller/balancer from the snapshot."""
    from repro.core.adaptive import (
        AdaptiveWindowController,
        FixedWindowController,
    )
    algo_state = snapshot.algorithm_state
    partitioner.scoring = partitioner._make_scoring(snapshot.expected_edges)
    if (algo_state["balancer_value"] is not None
            and partitioner.scoring.balancer is not None):
        partitioner.scoring.balancer.value = algo_state["balancer_value"]
    # Window images are backend-neutral: the restored session runs
    # whichever window a fresh one would here.
    partitioner.window = partitioner._make_window(
        partitioner.scoring, image=algo_state["window_image"])
    if partitioner.fixed_window is not None:
        partitioner.controller = FixedWindowController(
            partitioner.fixed_window)
    else:
        partitioner.controller = AdaptiveWindowController(
            partitioner.latency_preference_ms,
            total_edges=snapshot.expected_edges,
            start_ms=snapshot.start_ms,
            min_window=partitioner.min_window,
            max_window=partitioner.max_window,
        )
        partitioner.controller.restore_state(algo_state["controller"])
    partitioner._pending = [Edge(u, v) for u, v in algo_state["pending"]]
