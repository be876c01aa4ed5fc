"""Partitioning state: the vertex cache and partition bookkeeping.

The streaming partitioning model (paper §II-B, Figure 3) has three building
blocks; this module is block (iii), the *vertex cache*: replica sets for all
previously assigned vertices, plus the partition edge counts and the partial
degree table that degree-aware scoring needs.  Every partitioner — baseline
or ADWISE — mutates state exclusively through :meth:`PartitionState.assign`,
which keeps all derived quantities (max/min partition size, max degree)
consistent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Set

from repro.graph.graph import Edge


@dataclass
class StateSnapshot:
    """Compact, picklable image of a partition state: what a session
    snapshot holds and what the parallel loader merges instance states
    through (:meth:`merge`).  Replica sets are encoded as per-vertex
    bitmasks over the positions of ``partitions`` — cheap to union.
    Either state class restores either class's snapshot (a snapshot
    pickled with the old ``fast`` marker attribute restores too; nothing
    reads it).
    """

    partitions: List[int]
    replica_bits: Dict[int, int]
    sizes: List[int]
    degree: Dict[int, int]
    max_degree: int
    assigned_edges: int

    def replica_sets(self) -> Dict[int, Set[int]]:
        """Materialise the replica sets as vertex -> set of partition ids."""
        partitions = self.partitions
        out: Dict[int, Set[int]] = {}
        for vertex, bits in self.replica_bits.items():
            reps = {partitions[j] for j in iter_bits(bits)}
            if reps:
                out[vertex] = reps
        return out

    @property
    def partition_edges(self) -> Dict[int, int]:
        return dict(zip(self.partitions, self.sizes))

    @classmethod
    def merge(cls, snapshots: "Sequence[StateSnapshot]",
              partitions: Sequence[int]) -> "StateSnapshot":
        """Deterministically merge per-instance snapshots into a global one.

        Mirrors the paper's parallel-loading semantics (§III-D): global
        replica sets are unions of per-instance sets, partition sizes
        and degrees are sums (each instance observed a disjoint chunk),
        and the merged partition order is ``partitions`` — so merging is
        independent of worker completion order as long as the snapshot
        list order is fixed.
        """
        partitions = list(partitions)
        if not partitions:
            raise ValueError("cannot merge snapshots over zero partitions")
        pindex = {p: i for i, p in enumerate(partitions)}
        replica_bits: Dict[int, int] = {}
        sizes = [0] * len(partitions)
        degree: Dict[int, int] = {}
        assigned = 0
        for snap in snapshots:
            # Remap the snapshot's local bit positions to the merged order,
            # once per distinct local mask (a spread has few of them).
            remap = [pindex[p] for p in snap.partitions]
            moved: Dict[int, int] = {}
            for vertex, bits in snap.replica_bits.items():
                if bits not in moved:
                    moved[bits] = sum(1 << remap[j] for j in iter_bits(bits))
                replica_bits[vertex] = replica_bits.get(vertex, 0) | moved[bits]
            for p, size in zip(snap.partitions, snap.sizes):
                sizes[pindex[p]] += size
            for vertex, d in snap.degree.items():
                degree[vertex] = degree.get(vertex, 0) + d
            assigned += snap.assigned_edges
        return cls(
            partitions=partitions,
            replica_bits=replica_bits,
            sizes=sizes,
            degree=degree,
            max_degree=max(degree.values(), default=1),
            assigned_edges=assigned,
        )


def iter_bits(bits: int):
    """Yield the set bit positions of ``bits`` (low to high).

    The one place the replica-bitmask decoding loop lives (the
    snapshot codec).
    """
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def rebuild_size_stats(sizes: Sequence[int]
                       ) -> "tuple[Dict[int, int], int, int]":
    """``(histogram, max_size, min_size)`` recomputed from scratch.

    Snapshot restoration counterpart of :func:`bump_size_histogram`.
    """
    histogram: Dict[int, int] = {}
    for size in sizes:
        histogram[size] = histogram.get(size, 0) + 1
    return histogram, max(sizes, default=0), min(sizes, default=0)


def bump_size_histogram(histogram: Dict[int, int], old_size: int,
                        new_size: int, max_size: int, min_size: int
                        ) -> "tuple[int, int]":
    """Move one partition from ``old_size`` to ``new_size`` in ``histogram``.

    Returns the updated ``(max_size, min_size)``.  Sizes only ever grow
    by 1, which is what makes the min update exact.
    """
    histogram[old_size] -= 1
    if histogram[old_size] == 0:
        del histogram[old_size]
    histogram[new_size] = histogram.get(new_size, 0) + 1
    if new_size > max_size:
        max_size = new_size
    if old_size == min_size and old_size not in histogram:
        min_size = old_size + 1
    return max_size, min_size


class PartitionState:
    """Vertex cache + partition sizes for one partitioner instance.

    Parameters
    ----------
    partitions:
        The partition ids this instance may fill.  With spotlight
        partitioning this is a strict subset of the global partition set
        (the instance's *spread*).
    """

    #: Capability marker: no dense tables for a compiled kernel to bind
    #: (see :class:`repro.partitioning.fast_state.FastPartitionState`).
    is_fast = False

    def __init__(self, partitions: Sequence[int]) -> None:
        ids = list(partitions)
        if not ids:
            raise ValueError("at least one partition required")
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate partition ids: {ids}")
        self._partitions: List[int] = ids
        self.replica_sets: Dict[int, Set[int]] = {}
        self.partition_edges: Dict[int, int] = {p: 0 for p in ids}
        self.degree: Dict[int, int] = {}
        self.max_degree: int = 1
        self.assigned_edges: int = 0
        # max/min partition sizes are read on every score computation, so
        # they are maintained incrementally (sizes only ever grow by 1).
        self._max_size = 0
        self._min_size = 0
        self._size_histogram: Dict[int, int] = {0: len(ids)}

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def partitions(self) -> List[int]:
        """Partition ids this state may assign to (the instance's spread)."""
        return self._partitions

    @property
    def num_partitions(self) -> int:
        return len(self._partitions)

    def replicas(self, vertex: int) -> FrozenSet[int]:
        """Replica set ``R_v`` (empty if the vertex was never seen)."""
        return frozenset(self.replica_sets.get(vertex, ()))

    def is_replicated_on(self, vertex: int, partition: int) -> bool:
        """Indicator ``1{p in R_v}`` from the scoring functions."""
        reps = self.replica_sets.get(vertex)
        return reps is not None and partition in reps

    def degree_of(self, vertex: int) -> int:
        """Observed (partial) degree of ``vertex`` so far in the stream."""
        return self.degree.get(vertex, 0)

    def degree_pair(self, u: int, v: int) -> tuple:
        """Degrees of both endpoints in one call (single-edge hot paths)."""
        get = self.degree.get
        return get(u, 0), get(v, 0)

    @property
    def max_size(self) -> int:
        return self._max_size

    @property
    def min_size(self) -> int:
        return self._min_size

    def size(self, partition: int) -> int:
        return self.partition_edges[partition]

    def imbalance(self) -> float:
        """Current imbalance ι = (maxsize − minsize) / maxsize (paper §III-C)."""
        max_size = self.max_size
        if max_size == 0:
            return 0.0
        return (max_size - self.min_size) / max_size

    def observe_degrees(self, edge: Edge) -> None:
        """Update the partial degree table for an edge seen in the stream.

        Degree observation is separate from assignment: window-based
        partitioners observe an edge when it *enters the window*, before it
        is assigned, so the scoring function sees its degrees.
        Calling this twice for the same edge double-counts — callers ensure
        each stream edge is observed exactly once.
        """
        for vertex in (edge.u, edge.v):
            d = self.degree.get(vertex, 0) + 1
            self.degree[vertex] = d
            if d > self.max_degree:
                self.max_degree = d

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def assign(self, edge: Edge, partition: int) -> List[int]:
        """Assign ``edge`` to ``partition``; return vertices newly replicated.

        The returned list (0, 1 or 2 vertices) drives the lazy-traversal
        reassessment: secondary edges incident to a vertex whose replica set
        changed must be rescored.
        """
        if partition not in self.partition_edges:
            raise ValueError(
                f"partition {partition} not in this instance's spread "
                f"{self._partitions}")
        changed: List[int] = []
        for vertex in (edge.u, edge.v):
            reps = self.replica_sets.setdefault(vertex, set())
            if partition not in reps:
                reps.add(partition)
                changed.append(vertex)
        old_size = self.partition_edges[partition]
        new_size = old_size + 1
        self.partition_edges[partition] = new_size
        self.assigned_edges += 1
        # Incremental histogram update keeps max/min O(1).
        self._max_size, self._min_size = bump_size_histogram(
            self._size_histogram, old_size, new_size,
            self._max_size, self._min_size)
        return changed

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def total_replicas(self) -> int:
        return sum(len(reps) for reps in self.replica_sets.values())

    def replication_degree(self) -> float:
        """Average |R_v| over vertices seen by this instance (Eq. 1)."""
        if not self.replica_sets:
            return 0.0
        return self.total_replicas() / len(self.replica_sets)

    # ------------------------------------------------------------------
    # Serialization (process-pool boundary)
    # ------------------------------------------------------------------
    def snapshot(self) -> StateSnapshot:
        """Compact picklable image of this state (see :class:`StateSnapshot`)."""
        pindex = {p: i for i, p in enumerate(self._partitions)}
        replica_bits: Dict[int, int] = {}
        for vertex, reps in self.replica_sets.items():
            bits = 0
            for p in reps:
                bits |= 1 << pindex[p]
            if bits:
                replica_bits[vertex] = bits
        return StateSnapshot(
            partitions=list(self._partitions),
            replica_bits=replica_bits,
            sizes=[self.partition_edges[p] for p in self._partitions],
            degree=dict(self.degree),
            max_degree=self.max_degree,
            assigned_edges=self.assigned_edges,
        )

    @classmethod
    def from_snapshot(cls, snap: StateSnapshot) -> "PartitionState":
        """Rebuild a state from a snapshot (inverse of :meth:`snapshot`)."""
        state = cls(snap.partitions)
        state.replica_sets = snap.replica_sets()
        state.partition_edges = dict(zip(snap.partitions, snap.sizes))
        state.degree = dict(snap.degree)
        state.max_degree = snap.max_degree
        state.assigned_edges = snap.assigned_edges
        (state._size_histogram, state._max_size,
         state._min_size) = rebuild_size_stats(snap.sizes)
        return state

