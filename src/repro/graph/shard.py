"""Per-partition CSR shards of a vertex-cut partitioned graph.

A vertex-cut assignment places every *edge* on exactly one partition; a
vertex is replicated on every partition holding one of its edges.  The
cluster runtime (:mod:`repro.cluster`) computes each partition over its
own :class:`ShardCSR` only — the shard-local CSR adjacency with a remap
between global vertex ids and shard-local dense indices; a host steps
the shards it holds as one kernel over their
:meth:`ShardCSR.block_diagonal` — and keeps replicas consistent through
master/mirror synchronisation, the PowerGraph model the engine's cost
layer predicts.

:class:`ShardedGraph` is the sharding product:

* one :class:`Shard` per partition — its :class:`ShardCSR`, an ``owned``
  mask (True where this partition is the vertex's *master*), and the
  master/mirror routing tables;
* master election by the **min-partition rule**: the master replica of a
  vertex lives on the lowest-numbered partition holding it, matching
  :class:`~repro.engine.placement.Placement`'s ``master_machine`` choice
  so measured sync traffic lines up with predicted traffic;
* per-channel routing tables: for a (master ``p``, mirror ``q``) pair the
  shared vertices appear in ``shards[p].master_channels[q]`` and
  ``shards[q].mirror_channels[p]`` as *aligned* local-index arrays, both
  sorted by global vertex id, so gather/scatter is pure fancy indexing.

Isolated vertices (present in the graph but incident to no edge) are not
part of any assignment; they are placed round-robin over the partitions
so shard-local execution still covers them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.graph import Edge, Graph


class ShardCSR(CSRGraph):
    """Shard-local CSR whose ``degrees`` are the *logical* global degrees.

    Dense kernels read ``csr.degrees`` as the algorithmic degree of a
    vertex (PageRank divides by it, k-core thresholds on it), which for a
    replica must be the degree in the *whole* graph, not the shard.  The
    physical layout (``indptr``/``indices``/``rows``) stays shard-local;
    ``local_degrees`` keeps the per-shard adjacency-list lengths the
    runtime needs for exact message counting.
    """

    __slots__ = ("local_degrees",)

    def __init__(self, indptr: np.ndarray, indices: np.ndarray,
                 vertex_ids: np.ndarray, degrees: np.ndarray) -> None:
        super().__init__(indptr, indices, vertex_ids)
        # Force the slot->row cache while ``degrees`` still reflects the
        # physical layout, then swap in the logical view.
        self.rows
        self.local_degrees = self.degrees
        self.degrees = degrees

    @classmethod
    def build(cls, edges: Iterable[tuple], vertices: Iterable[int],
              global_degrees: Mapping[int, int]) -> "ShardCSR":
        base = CSRGraph.from_edges(edges, vertices=vertices)
        return cls(base.indptr, base.indices, base.vertex_ids, np.array(
            [global_degrees.get(int(v), 0) for v in base.vertex_ids],
            dtype=np.int64))

    @classmethod
    def block_diagonal(cls, blocks: Sequence["ShardCSR"]) -> "ShardCSR":
        """``blocks`` laid end to end as one CSR: block ``i`` takes the
        dense indices ``[starts[i], starts[i + 1])`` and its slots keep
        their order, shifted with it, so no slot's row or target leaves
        its block and a kernel over the result combines, addend by
        addend, what one kernel per block would (DESIGN.md §8).  Degrees
        and ``vertex_ids`` are the blocks' concatenated: a vertex on
        several blocks *repeats*, ids are sorted only within a block,
        and ``index_of`` is meaningless here.  ``indices`` (hence
        ``rows``) are widened to ``intp``, the one index type
        ``np.bincount`` and fancy indexing do not convert on every call
        — at a host's slot count that conversion is half a superstep.
        """
        starts = np.cumsum([0] + [block.num_vertices for block in blocks])
        slots = np.cumsum([0] + [len(block.indices) for block in blocks])
        indptr = np.concatenate(
            [block.indptr[:-1] + first
             for block, first in zip(blocks, slots)] + [slots[-1:]])
        indices = np.concatenate(
            [block.indices.astype(np.intp) + first
             for block, first in zip(blocks, starts)])
        return cls(indptr, indices,
                   np.concatenate([block.vertex_ids for block in blocks]),
                   np.concatenate([block.degrees for block in blocks]))


@dataclass
class Shard:
    """One partition's slice of the graph plus its replica routing."""

    partition: int
    csr: ShardCSR
    #: True at local indices whose master replica lives on this partition.
    owned: np.ndarray
    #: mirror partition -> local indices of vertices mastered *here* that
    #: have a replica there (sorted by global vertex id).
    master_channels: Dict[int, np.ndarray] = field(default_factory=dict)
    #: master partition -> local indices of vertices mirrored *here*
    #: (sorted by global vertex id, aligned with the master's table).
    mirror_channels: Dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def num_vertices(self) -> int:
        return self.csr.num_vertices

    @property
    def num_owned(self) -> int:
        return int(self.owned.sum())

    @property
    def num_edges(self) -> int:
        return self.csr.num_edges


class ShardedGraph:
    """A vertex-cut partitioned graph split into per-partition CSR shards."""

    def __init__(self, shards: Dict[int, Shard],
                 assignments: Dict[Edge, int],
                 vertex_partitions: Dict[int, List[int]]) -> None:
        self.shards = shards
        self.partitions = sorted(shards)
        self.assignments = assignments
        self.vertex_partitions = vertex_partitions
        self.num_vertices = len(vertex_partitions)
        self.num_edges = len(assignments)
        self._graph: Optional[Graph] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_assignments(cls, assignments: Mapping[Edge, int],
                         partitions: Optional[Sequence[int]] = None,
                         vertices: Iterable[int] = ()) -> "ShardedGraph":
        """Shard an edge -> partition assignment (any partitioner's output).

        ``partitions`` may name partitions beyond those appearing in the
        assignment (they become empty shards); ``vertices`` may name
        additional, possibly isolated, vertices to place.
        """
        normalized: Dict[Edge, int] = {}
        for edge, partition in assignments.items():
            normalized[Edge(edge[0], edge[1]).canonical()] = int(partition)
        parts = sorted(set(normalized.values()) | set(partitions or ()))
        if not parts:
            raise ValueError("no partitions: empty assignment and no "
                             "explicit partition list")

        per_part_edges: Dict[int, List[tuple]] = {p: [] for p in parts}
        vertex_parts: Dict[int, Set[int]] = {}
        global_degrees: Dict[int, int] = {}
        for edge, partition in normalized.items():
            per_part_edges[partition].append((edge.u, edge.v))
            for endpoint in (edge.u, edge.v):
                vertex_parts.setdefault(endpoint, set()).add(partition)
                global_degrees[endpoint] = global_degrees.get(endpoint, 0) + 1

        # Isolated vertices: round-robin over partitions, deterministic.
        extra_vertices: Dict[int, List[int]] = {p: [] for p in parts}
        isolated = sorted(set(int(v) for v in vertices) - set(vertex_parts))
        for index, vertex in enumerate(isolated):
            home = parts[index % len(parts)]
            vertex_parts[vertex] = {home}
            extra_vertices[home].append(vertex)

        vertex_partitions = {v: sorted(ps) for v, ps in vertex_parts.items()}

        # Master election (min-partition rule) and channel membership.
        shared: Dict[tuple, List[int]] = {}
        for vertex, ps in vertex_partitions.items():
            if len(ps) <= 1:
                continue
            master = ps[0]
            for mirror in ps[1:]:
                shared.setdefault((master, mirror), []).append(vertex)

        shards: Dict[int, Shard] = {}
        for partition in parts:
            csr = ShardCSR.build(per_part_edges[partition],
                                 extra_vertices[partition], global_degrees)
            shards[partition] = Shard(
                partition=partition,
                csr=csr,
                owned=np.ones(csr.num_vertices, dtype=bool))

        for (master, mirror), shared_vertices in shared.items():
            ids = np.array(sorted(shared_vertices), dtype=np.int64)
            master_idx = np.searchsorted(shards[master].csr.vertex_ids, ids)
            mirror_idx = np.searchsorted(shards[mirror].csr.vertex_ids, ids)
            shards[master].master_channels[mirror] = master_idx
            shards[mirror].mirror_channels[master] = mirror_idx
            shards[mirror].owned[mirror_idx] = False

        return cls(shards, normalized, vertex_partitions)

    @classmethod
    def from_result(cls, result,
                    vertices: Iterable[int] = ()) -> "ShardedGraph":
        """Shard a :class:`~repro.partitioning.base.PartitionResult` or
        :class:`~repro.partitioning.parallel.ParallelResult`."""
        sizes = getattr(result, "partition_sizes", None)
        if sizes is not None:  # ParallelResult
            partitions: Sequence[int] = sorted(sizes)
        else:
            partitions = list(result.state.partitions)
        return cls.from_assignments(result.assignments,
                                    partitions=partitions,
                                    vertices=vertices)

    @classmethod
    def from_file(cls, path: "str | os.PathLike",
                  partitions: Optional[Sequence[int]] = None,
                  vertices: Iterable[int] = ()) -> "ShardedGraph":
        """Shard a ``u v partition`` assignment file (``.gz`` supported —
        see :mod:`repro.partitioning.partition_io`)."""
        from repro.partitioning.partition_io import read_assignments
        return cls.from_assignments(read_assignments(path),
                                    partitions=partitions, vertices=vertices)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def replication_degree(self) -> float:
        """Average replicas per vertex (isolated vertices count 1)."""
        if not self.vertex_partitions:
            return 0.0
        total = sum(len(ps) for ps in self.vertex_partitions.values())
        return total / len(self.vertex_partitions)

    def master_of(self, vertex: int) -> int:
        """Partition holding ``vertex``'s master replica."""
        return self.vertex_partitions[vertex][0]

    def to_graph(self) -> Graph:
        """Reassemble the logical :class:`~repro.graph.graph.Graph`
        (cached; used by the cluster engine's unsharded fallback path)."""
        if self._graph is None:
            graph = Graph((e.u, e.v) for e in self.assignments)
            for vertex in self.vertex_partitions:
                graph.add_vertex(vertex)
            self._graph = graph
        return self._graph

    def fingerprint(self) -> str:
        """Stable digest of the sharding's shape (sizes per partition).

        Stored inside every cluster checkpoint and verified on restore,
        so a checkpoint can never be silently replayed against a
        different graph or partitioning.  Deliberately layout-free: the
        same sharding on a different machine map fingerprints identically
        (checkpoints are keyed by partition, not machine).
        """
        import hashlib
        parts = [f"{self.num_vertices}|{self.num_edges}"]
        for partition in self.partitions:
            shard = self.shards[partition]
            parts.append(f"|{partition}:{shard.num_vertices}:"
                         f"{shard.num_edges}:{shard.num_owned}")
        return hashlib.sha1("".join(parts).encode()).hexdigest()

    def placement(self, num_machines: Optional[int] = None,
                  machine_of_partition: Optional[Mapping[int, int]] = None):
        """The :class:`~repro.engine.placement.Placement` of this sharding.

        Defaults to one machine per partition (the cluster runtime's
        one-worker-per-partition deployment); pass ``num_machines`` /
        ``machine_of_partition`` for grouped layouts.
        """
        from repro.engine.placement import Placement
        if num_machines is None:
            num_machines = len(self.partitions)
        return Placement(self.assignments, self.partitions,
                         num_machines=num_machines,
                         machine_of_partition=machine_of_partition)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ShardedGraph(k={len(self.partitions)}, "
                f"|V|={self.num_vertices}, |E|={self.num_edges}, "
                f"rep={self.replication_degree:.2f})")
