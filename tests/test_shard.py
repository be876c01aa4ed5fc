"""Shard layout invariants: ShardedGraph / ShardCSR / routing tables.

The cluster runtime's correctness rests on structural guarantees made
here: shards partition the edge set, the owned masks partition the
vertex set, channel index tables are aligned pairwise, and the CSR's
``degrees`` view is the logical (global) degree while ``local_degrees``
is the physical shard layout.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.generators import barabasi_albert_graph
from repro.graph.graph import Edge, Graph
from repro.graph.shard import ShardedGraph
from repro.partitioning.hashing import HashPartitioner
from repro.partitioning.partition_io import read_columns
from repro.graph.stream import shuffled


def hash_assignments(graph: Graph, k: int) -> dict:
    return {e: hash((e.u, e.v)) % k for e in graph.edges()}


@pytest.fixture
def sharded_powerlaw() -> tuple:
    graph = barabasi_albert_graph(n=250, m=3, seed=7)
    graph.add_vertex(4001)
    graph.add_vertex(4002)
    assignments = hash_assignments(graph, 4)
    sharded = ShardedGraph.from_assignments(
        assignments, partitions=range(4), vertices=graph.vertices())
    return graph, assignments, sharded


class TestConstruction:
    def test_edges_partition_exactly(self, sharded_powerlaw):
        graph, assignments, sharded = sharded_powerlaw
        shard_edges = []
        for shard in sharded.shards.values():
            csr = shard.csr
            for index in range(csr.num_vertices):
                u = csr.original_id(index)
                for neighbor in csr.neighbors(index):
                    v = csr.original_id(int(neighbor))
                    if u < v:
                        shard_edges.append(Edge(u, v))
        assert sorted(shard_edges) == sorted(assignments)
        # ... and each edge sits on the shard its assignment names.
        for edge, partition in assignments.items():
            csr = sharded.shards[partition].csr
            u_index = csr.index_of[edge.u]
            assert edge.v in {csr.original_id(int(n))
                              for n in csr.neighbors(u_index)}

    def test_vertex_replicas_match_incident_partitions(
            self, sharded_powerlaw):
        graph, assignments, sharded = sharded_powerlaw
        expected: dict = {}
        for edge, partition in assignments.items():
            for endpoint in (edge.u, edge.v):
                expected.setdefault(endpoint, set()).add(partition)
        for vertex, parts in expected.items():
            assert sharded.vertex_partitions[vertex] == sorted(parts)
            for partition in parts:
                assert vertex in sharded.shards[partition].csr.index_of

    def test_owned_masks_partition_vertices(self, sharded_powerlaw):
        graph, _, sharded = sharded_powerlaw
        owned_ids: list = []
        for shard in sharded.shards.values():
            owned_ids.extend(
                shard.csr.vertex_ids[shard.owned].tolist())
        assert sorted(owned_ids) == sorted(graph.vertices())

    def test_master_is_min_partition(self, sharded_powerlaw):
        _, _, sharded = sharded_powerlaw
        for vertex, parts in sharded.vertex_partitions.items():
            owners = [p for p in parts if sharded.shards[p].owned[
                sharded.shards[p].csr.index_of[vertex]]]
            assert owners == [min(parts)]

    def test_isolated_vertices_placed_once(self, sharded_powerlaw):
        graph, _, sharded = sharded_powerlaw
        for vertex in (4001, 4002):
            parts = sharded.vertex_partitions[vertex]
            assert len(parts) == 1
            csr = sharded.shards[parts[0]].csr
            index = csr.index_of[vertex]
            assert csr.degrees[index] == 0
            assert csr.local_degrees[index] == 0

    def test_empty_assignment_rejected_without_partitions(self):
        with pytest.raises(ValueError):
            ShardedGraph.from_assignments({})

    def test_explicit_partitions_create_empty_shards(self):
        sharded = ShardedGraph.from_assignments(
            {Edge(0, 1): 0}, partitions=range(3))
        assert sharded.partitions == [0, 1, 2]
        assert sharded.shards[2].num_vertices == 0
        assert sharded.shards[2].num_edges == 0

    def test_tuple_keys_are_canonicalised(self):
        sharded = ShardedGraph.from_assignments({(5, 2): 0, (2, 3): 1})
        assert Edge(2, 5) in dict(sharded.incidence.edges())
        assert sharded.vertex_partitions[2] == [0, 1]


class TestShardCSR:
    def test_degrees_are_global_local_degrees_physical(
            self, sharded_powerlaw):
        graph, _, sharded = sharded_powerlaw
        for shard in sharded.shards.values():
            csr = shard.csr
            for index in range(csr.num_vertices):
                vertex = csr.original_id(index)
                assert csr.degrees[index] == graph.degree(vertex)
                assert csr.local_degrees[index] == len(csr.neighbors(index))
            # Local degrees sum to the physical slot count; global
            # degrees can only exceed them (replicas see a subset).
            assert csr.local_degrees.sum() == len(csr.indices)
            assert (csr.degrees >= csr.local_degrees).all()

    def test_local_degrees_sum_to_global_over_shards(
            self, sharded_powerlaw):
        graph, _, sharded = sharded_powerlaw
        totals: dict = {}
        for shard in sharded.shards.values():
            csr = shard.csr
            for index in range(csr.num_vertices):
                vertex = csr.original_id(index)
                totals[vertex] = (totals.get(vertex, 0)
                                  + int(csr.local_degrees[index]))
        for vertex in graph.vertices():
            assert totals[vertex] == graph.degree(vertex)


class TestChannels:
    def test_channels_aligned_pairwise(self, sharded_powerlaw):
        _, _, sharded = sharded_powerlaw
        seen_any = False
        for partition, shard in sharded.shards.items():
            for mirror, master_idx in shard.master_channels.items():
                mirror_idx = sharded.shards[mirror].mirror_channels[partition]
                master_ids = shard.csr.vertex_ids[master_idx]
                mirror_ids = sharded.shards[mirror].csr.vertex_ids[mirror_idx]
                assert np.array_equal(master_ids, mirror_ids)
                # Sorted by global id -> strictly increasing.
                assert (np.diff(master_ids) > 0).all() or len(master_ids) <= 1
                seen_any = True
        assert seen_any, "expected at least one replicated vertex"

    def test_channel_membership_is_exactly_replication(
            self, sharded_powerlaw):
        _, _, sharded = sharded_powerlaw
        for vertex, parts in sharded.vertex_partitions.items():
            if len(parts) == 1:
                continue
            master = parts[0]
            for mirror in parts[1:]:
                ids = sharded.shards[master].csr.vertex_ids[
                    sharded.shards[master].master_channels[mirror]]
                assert vertex in ids

    def test_mirror_indices_marked_not_owned(self, sharded_powerlaw):
        _, _, sharded = sharded_powerlaw
        for shard in sharded.shards.values():
            for idx in shard.mirror_channels.values():
                assert not shard.owned[idx].any()


class TestIngestion:
    def test_from_result_partition_result(self, small_powerlaw):
        partitioner = HashPartitioner(list(range(4)))
        result = partitioner.partition_stream(
            shuffled(small_powerlaw.edges(), seed=3))
        sharded = ShardedGraph.from_result(
            result, vertices=small_powerlaw.vertices())
        assert sharded.partitions == [0, 1, 2, 3]
        assert sharded.num_edges == small_powerlaw.num_edges
        assert dict(sharded.incidence.edges()) == {
            e.canonical(): p for e, p in result.assignments.items()}

    def test_parts_file_roundtrip(self, tmp_path, sharded_powerlaw):
        from repro.partitioning.partition_io import write_assignments
        graph, assignments, sharded = sharded_powerlaw
        path = tmp_path / "assignments.txt"
        write_assignments(path, assignments)
        reloaded = ShardedGraph.from_arrays(*read_columns(path),
                                            vertices=graph.vertices())
        assert (dict(reloaded.incidence.edges())
                == dict(sharded.incidence.edges()))
        assert reloaded.vertex_partitions == sharded.vertex_partitions

    def test_to_graph_roundtrip(self, sharded_powerlaw):
        graph, _, sharded = sharded_powerlaw
        rebuilt = sharded.to_graph()
        assert sorted(rebuilt.edges()) == sorted(graph.edges())
        assert sorted(rebuilt.vertices()) == sorted(graph.vertices())

    def test_replication_degree_counts_isolated_once(self):
        sharded = ShardedGraph.from_assignments(
            {Edge(0, 1): 0, Edge(1, 2): 1}, vertices=[0, 1, 2, 9])
        # Vertex 1 has two replicas; 0, 2 and isolated 9 have one each.
        assert sharded.replication_degree == pytest.approx(5 / 4)

    def test_placement_uses_same_master_rule(self, sharded_powerlaw):
        """One machine per partition: the placement charges each
        (master, mirror) pair of the shards' channels 2 at both ends."""
        _, _, sharded = sharded_powerlaw
        placement = sharded.placement()
        expected = dict.fromkeys(sharded.partitions, 0)
        for partition, shard in sharded.shards.items():
            for mirror, table in shard.master_channels.items():
                expected[placement.machine_of_partition[partition]] += (
                    2 * len(table))
                expected[placement.machine_of_partition[mirror]] += (
                    2 * len(table))
        assert placement.stats().remote_sync_per_machine == expected
