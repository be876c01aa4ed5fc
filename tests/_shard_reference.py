"""The per-edge shard builder and ``Placement`` this repo used through
PR 17, kept verbatim as the reference ``tests/test_shard_columns.py``
holds :meth:`ShardedGraph.from_arrays` and the columnar ``Placement``
equal to, array for array.  One ``Dict[int, Set[int]]``/``setdefault``
walk per edge endpoint.  Beside them, :func:`reference_plan`: the
per-channel ``SyncPlan`` construction ``tests/test_sync_plan.py`` holds
the columnar plan equal to.  Nothing in ``src/`` may import this.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set

import numpy as np

from repro.engine.placement import PlacementStats
from repro.graph.csr import CSRGraph
from repro.graph.graph import Edge, Graph
from repro.graph.shard import Shard, ShardCSR, ShardedGraph


def build_csr(edges: Iterable[tuple], vertices: Iterable[int],
              global_degrees: Mapping[int, int]) -> ShardCSR:
    """What ``ShardCSR.build`` was."""
    base = CSRGraph.from_edges(edges, vertices=vertices)
    return ShardCSR(base.indptr, base.indices, base.vertex_ids, np.array(
        [global_degrees.get(int(v), 0) for v in base.vertex_ids],
        dtype=np.int64))


class ReferenceSharding:
    """What ``ShardedGraph.from_assignments`` built, field for field."""

    fingerprint = ShardedGraph.fingerprint

    def __init__(self, assignments: Mapping[Edge, int],
                 partitions: Optional[Sequence[int]] = None,
                 vertices: Iterable[int] = ()) -> None:
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
            csr = build_csr(per_part_edges[partition],
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

        self.shards = shards
        self.partitions = sorted(shards)
        self.assignments = normalized
        self.vertex_partitions = vertex_partitions
        self.num_vertices = len(vertex_partitions)
        self.num_edges = len(normalized)

    @property
    def replication_degree(self) -> float:
        if not self.vertex_partitions:
            return 0.0
        total = sum(len(ps) for ps in self.vertex_partitions.values())
        return total / len(self.vertex_partitions)

    def to_graph(self) -> Graph:
        graph = Graph((e.u, e.v) for e in self.assignments)
        for vertex in self.vertex_partitions:
            graph.add_vertex(vertex)
        return graph


class ReferencePlacement:
    """What ``Placement.__init__`` and ``stats()`` walked."""

    def __init__(self, assignments: Mapping[Edge, int],
                 partitions: Sequence[int],
                 num_machines: int,
                 machine_of_partition: Mapping[int, int]) -> None:
        self.partitions = list(partitions)
        self.num_machines = num_machines
        self.machine_of_partition = dict(machine_of_partition)
        self.partition_edges: Dict[int, List[Edge]] = {
            p: [] for p in self.partitions}
        self.vertex_partitions: Dict[int, Set[int]] = {}
        for edge, partition in assignments.items():
            if partition not in self.partition_edges:
                raise ValueError(f"assignment to unknown partition {partition}")
            self.partition_edges[partition].append(edge)
            for vertex in (edge.u, edge.v):
                self.vertex_partitions.setdefault(vertex, set()).add(partition)

        self.vertex_machines: Dict[int, Set[int]] = {
            v: {self.machine_of_partition[p] for p in parts}
            for v, parts in self.vertex_partitions.items()}
        self.master_machine: Dict[int, int] = {
            v: min(machines) for v, machines in self.vertex_machines.items()}

    def stats(self) -> PlacementStats:
        edges_per_machine = {m: 0 for m in range(self.num_machines)}
        for partition, edges in self.partition_edges.items():
            edges_per_machine[self.machine_of_partition[partition]] += len(edges)
        remote = {m: 0 for m in range(self.num_machines)}
        local = {m: 0 for m in range(self.num_machines)}
        for vertex, parts in self.vertex_partitions.items():
            if len(parts) <= 1:
                continue
            master_part = min(parts)
            master_machine = self.machine_of_partition[master_part]
            for partition in parts:
                if partition == master_part:
                    continue
                mirror_machine = self.machine_of_partition[partition]
                if mirror_machine == master_machine:
                    # Gather + scatter, both on one machine.
                    local[master_machine] += 2
                    local[mirror_machine] += 2
                else:
                    remote[master_machine] += 2
                    remote[mirror_machine] += 2
        num_vertices = max(1, len(self.vertex_partitions))
        replication = (sum(len(p) for p in self.vertex_partitions.values())
                       / num_vertices)
        machine_span = (sum(len(m) for m in self.vertex_machines.values())
                        / num_vertices)
        return PlacementStats(
            edges_per_machine=edges_per_machine,
            remote_sync_per_machine=remote,
            local_sync_per_machine=local,
            replication_degree=replication,
            machine_span_degree=machine_span,
        )


def _cat(arrays: List[np.ndarray]) -> np.ndarray:
    return (np.concatenate(arrays) if arrays
            else np.empty(0, dtype=np.int64))


def reference_plan(shards: Sequence[Shard], bounds: Mapping[int, slice],
                   host_of: Mapping[int, int]) -> SimpleNamespace:
    """What ``SyncPlan.__init__`` built through PR 38, one channel at a
    time: ``rows``, ``targets``, ``rounds`` and the per-host ``mirrors``
    / ``masters`` / ``slots`` of the group holding ``shards`` (ascending
    partition; ``bounds``: partition -> its slice of the flat space)."""
    plan = SimpleNamespace(rows=[])
    targets: List[np.ndarray] = []
    ranks: List[np.ndarray] = []
    spans: Dict[int, List[np.ndarray]] = {}
    cursor = 0
    for shard in shards:
        seen = np.zeros(shard.num_vertices, dtype=np.int64)
        for src, idx in sorted(shard.master_channels.items()):
            spans.setdefault(host_of[src], []).append(
                np.arange(cursor, cursor + len(idx)))
            targets.append(idx + bounds[shard.partition].start)
            ranks.append(seen[idx])
            seen[idx] += 1
            plan.rows.append((src, shard.partition, len(idx)))
            cursor += len(idx)
    mirrors: Dict[int, List[np.ndarray]] = {}
    for dst, src, idx in sorted(
            (dst, shard.partition, idx) for shard in shards
            for dst, idx in shard.mirror_channels.items()):
        mirrors.setdefault(host_of[dst], []).append(
            idx + bounds[src].start)
        plan.rows.append((dst, src, len(idx)))
    plan.mirrors = {h: _cat(parts) for h, parts in mirrors.items()}
    target, rank = _cat(targets), _cat(ranks)
    by_round = np.argsort(rank, kind="stable")
    slot = np.empty(len(target), dtype=np.int64)
    slot[by_round] = np.arange(len(target))
    plan.targets = target[by_round]
    plan.masters = {h: target[_cat(p)] for h, p in spans.items()}
    plan.slots = {h: slot[_cat(p)] for h, p in spans.items()}
    stops = np.cumsum(np.bincount(rank)).tolist()
    plan.rounds = list(zip([0] + stops[:-1], stops))
    return plan
