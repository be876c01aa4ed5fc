"""Tests for spotlight spreads and the parallel loading model."""

import pytest

from repro.graph.stream import shuffled
from repro.core.spotlight import spotlight_spreads
from repro.core.adwise import AdwisePartitioner
from repro.partitioning.dbh import DBHPartitioner
from repro.partitioning.hdrf import HDRFPartitioner
from repro.partitioning.hashing import HashPartitioner
from repro.partitioning.parallel import ParallelLoader


class TestSpotlightSpreads:
    def test_disjoint_when_spread_is_k_over_z(self):
        spreads = spotlight_spreads(list(range(32)), 8, 4)
        assert len(spreads) == 8
        flat = [p for s in spreads for p in s]
        assert sorted(flat) == list(range(32))  # exact disjoint cover

    def test_full_spread_gives_all_partitions(self):
        spreads = spotlight_spreads(list(range(8)), 4, 8)
        assert all(sorted(s) == list(range(8)) for s in spreads)

    def test_intermediate_spread_covers_all(self):
        spreads = spotlight_spreads(list(range(32)), 8, 8)
        covered = {p for s in spreads for p in s}
        assert covered == set(range(32))

    def test_each_instance_gets_spread_partitions(self):
        spreads = spotlight_spreads(list(range(32)), 8, 16)
        assert all(len(set(s)) == 16 for s in spreads)

    def test_spread_too_small_to_cover_rejected(self):
        with pytest.raises(ValueError):
            spotlight_spreads(list(range(32)), 4, 4)

    def test_spread_bounds_validated(self):
        with pytest.raises(ValueError):
            spotlight_spreads(list(range(8)), 2, 0)
        with pytest.raises(ValueError):
            spotlight_spreads(list(range(8)), 2, 9)

    def test_no_partitions_rejected(self):
        with pytest.raises(ValueError):
            spotlight_spreads([], 2, 1)

    def test_custom_partition_ids(self):
        spreads = spotlight_spreads([10, 20, 30, 40], 2, 2)
        assert spreads == [[10, 20], [30, 40]]

    def test_more_instances_than_partitions(self):
        """z > k: instances share spotlights but still cover every
        partition."""
        spreads = spotlight_spreads(list(range(4)), 8, 1)
        assert len(spreads) == 8
        assert {p for s in spreads for p in s} == set(range(4))
        assert all(len(s) == 1 for s in spreads)

    def test_more_instances_than_partitions_wider_spread(self):
        spreads = spotlight_spreads(list(range(3)), 5, 2)
        assert {p for s in spreads for p in s} == set(range(3))
        # Wrap-around keeps every spread at the requested width.
        assert all(len(set(s)) == 2 for s in spreads)

    def test_single_instance_spread_smaller_than_k_rejected(self):
        """One instance with spread < k cannot cover all partitions."""
        with pytest.raises(ValueError):
            spotlight_spreads(list(range(8)), 1, 4)

    def test_spread_one_instance_per_partition(self):
        spreads = spotlight_spreads(list(range(4)), 4, 1)
        assert spreads == [[0], [1], [2], [3]]


class TestParallelLoader:
    def _loader(self, factory, spread=None, k=8, z=4):
        return ParallelLoader(factory, partitions=list(range(k)),
                              num_instances=z, spread=spread)

    def test_runs_all_instances(self, small_powerlaw):
        loader = self._loader(
            lambda parts, clock: HDRFPartitioner(parts, clock=clock))
        result = loader.run(shuffled(small_powerlaw.edges(), seed=3))
        assert result.num_instances == 4
        assert len(result.instance_results) == 4

    def test_all_edges_assigned_once(self, small_powerlaw):
        loader = self._loader(
            lambda parts, clock: HDRFPartitioner(parts, clock=clock))
        stream = shuffled(small_powerlaw.edges(), seed=3)
        result = loader.run(stream)
        assert sum(result.state.partition_edges.values()) == len(stream)

    def test_default_spread_is_k_over_z(self, small_powerlaw):
        loader = self._loader(
            lambda parts, clock: HDRFPartitioner(parts, clock=clock))
        assert loader.spread == 2

    def test_indivisible_default_spread_rejected(self):
        with pytest.raises(ValueError):
            ParallelLoader(
                lambda parts, clock: HDRFPartitioner(parts, clock=clock),
                partitions=list(range(7)), num_instances=2)

    def test_latency_is_max_of_instances(self, small_powerlaw):
        loader = self._loader(
            lambda parts, clock: HDRFPartitioner(parts, clock=clock))
        result = loader.run(shuffled(small_powerlaw.edges(), seed=3))
        per_instance = [r.latency_ms for r in result.instance_results]
        assert result.latency_ms == max(per_instance)

    def test_merged_assignments_partition_validity(self, small_powerlaw):
        loader = self._loader(
            lambda parts, clock: HashPartitioner(parts, clock=clock))
        result = loader.run(shuffled(small_powerlaw.edges(), seed=3))
        assert set(result.assignments.values()) <= set(range(8))

    def test_empty_chunks_when_instances_outnumber_edges(self):
        """z instances over fewer than z edges: tail chunks are empty and
        the merge still accounts for every edge (both backends)."""
        from repro.graph.graph import Edge
        from repro.graph.stream import InMemoryEdgeStream
        from repro.partitioning.parallel import PartitionerSpec

        edges = [Edge(0, 1), Edge(1, 2)]
        for backend in ("simulated", "process"):
            loader = ParallelLoader(
                PartitionerSpec("hdrf"), partitions=list(range(8)),
                num_instances=8, backend=backend)
            result = loader.run(InMemoryEdgeStream(edges))
            assert sum(result.state.partition_edges.values()) == 2
            assert len(result.instance_results) == 8
            empty = [r for r in result.instance_results
                     if r.state.assigned_edges == 0]
            assert len(empty) == 6

    def test_empty_stream_all_chunks_empty(self):
        from repro.graph.stream import InMemoryEdgeStream
        from repro.partitioning.parallel import PartitionerSpec

        loader = ParallelLoader(PartitionerSpec("hdrf"),
                                partitions=list(range(4)), num_instances=4)
        result = loader.run(InMemoryEdgeStream([]))
        assert result.state.replica_sets == {}
        assert sum(result.state.partition_edges.values()) == 0
        assert result.latency_ms == 0.0
        assert result.replication_degree == 0.0


class TestSpotlightEffect:
    """The headline Fig. 8 property: smaller spread -> lower replication.

    The effect requires the conditions of the paper's setup: chunks carry
    stream locality (adjacency-ordered edge files) and vertices have enough
    edges per chunk that a large spread can spray them.  The baselines in
    Fig. 8 are DBH, HDRF, and ADWISE.
    """

    @pytest.mark.parametrize("factory", [
        lambda parts, clock: DBHPartitioner(parts, clock=clock),
        lambda parts, clock: HDRFPartitioner(parts, clock=clock),
        lambda parts, clock: AdwisePartitioner(parts, clock=clock,
                                               fixed_window=8),
    ], ids=["dbh", "hdrf", "adwise"])
    def test_small_spread_beats_max_spread(self, factory, dense_community):
        from repro.graph.stream import InMemoryEdgeStream

        def run(spread):
            loader = ParallelLoader(factory, partitions=list(range(16)),
                                    num_instances=4, spread=spread)
            return loader.run(InMemoryEdgeStream(dense_community.edge_list()))
        small = run(4)
        maximal = run(16)
        assert small.replication_degree < maximal.replication_degree

    def test_spread_monotone_trend(self, dense_community):
        from repro.graph.stream import InMemoryEdgeStream

        values = []
        for spread in (4, 8, 16):
            loader = ParallelLoader(
                lambda parts, clock: DBHPartitioner(parts, clock=clock),
                partitions=list(range(16)), num_instances=4, spread=spread)
            result = loader.run(
                InMemoryEdgeStream(dense_community.edge_list()))
            values.append(result.replication_degree)
        assert values[0] < values[1] < values[2]
