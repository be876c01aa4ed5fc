"""Tests for the super-linear comparators: NE, Ja-Be-Ja-VC, PowerLyra."""

import pytest

from repro.graph.graph import Edge, Graph
from repro.graph.stream import InMemoryEdgeStream, shuffled
from repro.partitioning.hashing import HashPartitioner
from repro.partitioning.hdrf import HDRFPartitioner
from repro.partitioning.jabeja import JaBeJaVCPartitioner
from repro.partitioning.ne import NEPartitioner
from repro.partitioning.powerlyra import PowerLyraPartitioner
from repro.graph.shard import ShardedGraph


class TestNE:
    def test_all_edges_assigned(self, small_clustered):
        stream = shuffled(small_clustered.edges(), seed=3)
        result = NEPartitioner(range(4)).partition_stream(stream)
        assert len(result.assignments) == len(stream)
        assert sum(result.state.partition_edges.values()) == len(stream)

    def test_deterministic(self, small_clustered):
        stream = shuffled(small_clustered.edges(), seed=3)
        a = NEPartitioner(range(4), seed=1).partition_stream(stream)
        b = NEPartitioner(range(4), seed=1).partition_stream(stream)
        assert a.assignments == b.assignments

    def test_perfectly_balanced(self, small_clustered):
        stream = shuffled(small_clustered.edges(), seed=3)
        result = NEPartitioner(range(4)).partition_stream(stream)
        sizes = result.state.partition_edges.values()
        assert max(sizes) - min(sizes) <= 1

    def test_beats_hdrf_quality(self, small_clustered):
        """NE is the all-edge quality reference (Fig. 1 upper right)."""
        stream = shuffled(small_clustered.edges(), seed=3)
        ne = NEPartitioner(range(8)).partition_stream(stream)
        hdrf = HDRFPartitioner(range(8)).partition_stream(stream)
        assert ne.replication_degree < hdrf.replication_degree

    def test_keeps_clique_together(self):
        """A clique fitting in one partition's capacity stays whole."""
        clique = Graph([(a, b) for a in range(5) for b in range(a + 1, 5)])
        extra = Graph([(10 + i, 20 + i) for i in range(10)])
        edges = clique.edge_list() + extra.edge_list()
        result = NEPartitioner(range(2)).partition_stream(
            InMemoryEdgeStream(edges))
        clique_parts = {result.assignments[e] for e in clique.edges()}
        assert len(clique_parts) == 1

    def test_single_partition(self, small_powerlaw):
        stream = shuffled(small_powerlaw.edges(), seed=3)
        result = NEPartitioner([0]).partition_stream(stream)
        assert result.replication_degree == 1.0

    def test_select_partition_not_supported(self):
        with pytest.raises(NotImplementedError):
            NEPartitioner(range(2)).select_partition(Edge(1, 2))


class TestJaBeJaVC:
    def test_all_edges_assigned(self, small_powerlaw):
        stream = shuffled(small_powerlaw.edges(), seed=3)
        result = JaBeJaVCPartitioner(range(4),
                                     rounds=3).partition_stream(stream)
        assert len(result.assignments) == len(stream)

    def test_preserves_hash_balance(self, small_powerlaw):
        """Swaps preserve partition sizes exactly."""
        stream = shuffled(small_powerlaw.edges(), seed=3)
        start = HashPartitioner(range(4)).partition_stream(stream)
        refined = JaBeJaVCPartitioner(range(4), rounds=4,
                                      seed=0).partition_stream(stream)
        assert (sorted(start.state.partition_edges.values())
                == sorted(refined.state.partition_edges.values()))

    def test_improves_over_hash(self, small_clustered):
        stream = shuffled(small_clustered.edges(), seed=3)
        hashed = HashPartitioner(range(4)).partition_stream(stream)
        refined = JaBeJaVCPartitioner(range(4), rounds=6,
                                      seed=0).partition_stream(stream)
        assert refined.replication_degree < hashed.replication_degree

    def test_zero_rounds_equals_hash_start(self, small_powerlaw):
        stream = shuffled(small_powerlaw.edges(), seed=3)
        refined = JaBeJaVCPartitioner(range(4), rounds=0,
                                      seed=7).partition_stream(stream)
        hashed = HashPartitioner(range(4), seed=7).partition_stream(stream)
        assert refined.assignments == hashed.assignments

    def test_more_rounds_not_worse(self, small_clustered):
        stream = shuffled(small_clustered.edges(), seed=3)
        few = JaBeJaVCPartitioner(range(4), rounds=2,
                                  seed=0).partition_stream(stream)
        many = JaBeJaVCPartitioner(range(4), rounds=8,
                                   seed=0).partition_stream(stream)
        assert many.replication_degree <= few.replication_degree * 1.03

    def test_validation(self):
        with pytest.raises(ValueError):
            JaBeJaVCPartitioner(range(2), rounds=-1)
        with pytest.raises(ValueError):
            JaBeJaVCPartitioner(range(2), sample_size=0)
        with pytest.raises(ValueError):
            JaBeJaVCPartitioner(range(2), cooling=0.0)

    def test_select_partition_not_supported(self):
        with pytest.raises(NotImplementedError):
            JaBeJaVCPartitioner(range(2)).select_partition(Edge(1, 2))


class TestPowerLyra:
    def test_all_edges_assigned(self, small_powerlaw):
        stream = shuffled(small_powerlaw.edges(), seed=3)
        result = PowerLyraPartitioner(range(4)).partition_stream(stream)
        assert len(result.assignments) == len(stream)

    def test_low_degree_destination_groups_edges(self, star):
        """Spokes are low-degree destinations: each keeps one replica."""
        result = PowerLyraPartitioner(range(4)).partition_stream(
            InMemoryEdgeStream(star.edge_list()))
        replicas = ShardedGraph.from_result(result).vertex_partitions
        for spoke in range(1, 6):
            assert len(replicas[spoke]) == 1

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            PowerLyraPartitioner(range(2), degree_threshold=0)

    def test_beats_plain_hash(self, small_powerlaw):
        stream = shuffled(small_powerlaw.edges(), seed=3)
        hybrid = PowerLyraPartitioner(range(8)).partition_stream(stream)
        hashed = HashPartitioner(range(8)).partition_stream(stream)
        assert hybrid.replication_degree < hashed.replication_degree

    def test_deterministic(self, small_powerlaw):
        stream = shuffled(small_powerlaw.edges(), seed=3)
        a = PowerLyraPartitioner(range(4)).partition_stream(stream)
        b = PowerLyraPartitioner(range(4)).partition_stream(stream)
        assert a.assignments == b.assignments
