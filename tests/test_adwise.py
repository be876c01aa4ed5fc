"""Integration-level tests for the assembled ADWISE partitioner."""

import pytest

from repro.api import open_session
from repro.graph.graph import Edge, Graph
from repro.graph.stream import InMemoryEdgeStream, shuffled
from repro.core.adwise import AdwisePartitioner
from repro.partitioning.hdrf import HDRFPartitioner
from repro.partitioning.hashing import HashPartitioner
from repro.simtime import SimulatedClock


class TestContract:
    def test_all_edges_assigned(self, small_stream):
        partitioner = AdwisePartitioner(range(4), fixed_window=8)
        result = partitioner.partition_stream(small_stream)
        assert len(result.assignments) == len(small_stream)
        assert result.state.assigned_edges == len(small_stream)

    def test_assignments_within_spread(self, small_stream):
        partitioner = AdwisePartitioner([3, 7], fixed_window=8)
        result = partitioner.partition_stream(small_stream)
        assert set(result.assignments.values()) <= {3, 7}

    def test_deterministic(self, small_powerlaw):
        def run():
            stream = shuffled(small_powerlaw.edges(), seed=3)
            return AdwisePartitioner(
                range(4), fixed_window=16).partition_stream(stream)
        assert run().assignments == run().assignments

    def test_extras_populated(self, small_stream):
        result = AdwisePartitioner(
            range(4), latency_preference_ms=50.0).partition_stream(small_stream)
        assert "max_window" in result.extras
        assert "final_window" in result.extras
        assert "final_lambda" in result.extras

    def test_empty_stream(self):
        result = AdwisePartitioner(range(4)).partition_stream(
            InMemoryEdgeStream([]))
        assert result.assignments == {}
        assert result.replication_degree == 0.0

    def test_single_edge_stream(self):
        result = AdwisePartitioner(range(4)).partition_stream(
            InMemoryEdgeStream([Edge(1, 2)]))
        assert len(result.assignments) == 1


class TestLatencyPreferenceKnob:
    @pytest.mark.parametrize("fast", [None, False],
                             ids=["default", "reference"])
    @pytest.mark.parametrize("latency", [float("nan"), -1.0])
    def test_nan_and_negative_refused_as_the_stream_begins(self, latency,
                                                            fast):
        """NaN used to run with the window pinned at 1 (C2 false at every
        decision)."""
        partitioner = AdwisePartitioner(range(4), fast=fast,
                                        latency_preference_ms=latency)
        with pytest.raises(ValueError, match=f"got {latency}"):
            partitioner.partition_stream(InMemoryEdgeStream([Edge(0, 1)]))
        with pytest.raises(ValueError, match=f"got {latency}"):
            open_session("adwise", partitions=4, fast=fast,
                         latency_preference_ms=latency)

    def test_infinite_preference_is_no_preference(self, small_stream):
        runs = [AdwisePartitioner(range(4), latency_preference_ms=latency)
                .partition_stream(small_stream)
                for latency in (None, float("inf"))]
        assert runs[0].extras == runs[1].extras
        assert runs[0].extras["max_window"] > 1
        assert dict(runs[0].assignments) == dict(runs[1].assignments)


class TestWindowBehaviour:
    def test_fixed_window_one_equals_single_edge_streaming(self, small_stream):
        """w=1 is the degenerate single-edge case (paper §III-A)."""
        result = AdwisePartitioner(
            range(4), fixed_window=1).partition_stream(small_stream)
        assert result.extras["max_window"] == 1.0

    def test_zero_latency_preference_stays_single_edge(self, small_stream):
        result = AdwisePartitioner(
            range(4), latency_preference_ms=0.0).partition_stream(small_stream)
        # The controller may grow once at stream end (no edges remain),
        # but must never operate a meaningful window.
        assert result.extras["max_window"] <= 2.0

    def test_unbounded_preference_grows_window(self, small_stream):
        result = AdwisePartitioner(
            range(4), latency_preference_ms=None,
            max_window=64).partition_stream(small_stream)
        assert result.extras["max_window"] >= 8.0

    def test_latency_budget_respected_approximately(self, small_powerlaw):
        """Measured latency must not overshoot L by more than ~10%.

        (The paper reports overshoot of at most 7%.)
        """
        stream = shuffled(small_powerlaw.edges(), seed=3)
        preference = 30.0
        clock = SimulatedClock()
        result = AdwisePartitioner(
            range(4), latency_preference_ms=preference,
            clock=clock).partition_stream(stream)
        assert result.latency_ms <= preference * 1.10

    def test_larger_window_not_worse(self, small_clustered):
        stream = shuffled(small_clustered.edges(), seed=3)
        small = AdwisePartitioner(
            range(4), fixed_window=1).partition_stream(stream)
        large = AdwisePartitioner(
            range(4), fixed_window=32).partition_stream(stream)
        assert (large.replication_degree
                <= small.replication_degree * 1.02)


class TestQuality:
    def test_beats_hash(self, small_clustered):
        stream = shuffled(small_clustered.edges(), seed=3)
        adwise = AdwisePartitioner(
            range(8), fixed_window=32).partition_stream(stream)
        hashed = HashPartitioner(range(8)).partition_stream(stream)
        assert adwise.replication_degree < hashed.replication_degree

    def test_competitive_with_hdrf_on_clustered_graph(self, small_clustered):
        stream = shuffled(small_clustered.edges(), seed=3)
        adwise = AdwisePartitioner(
            range(8), fixed_window=32).partition_stream(stream)
        hdrf = HDRFPartitioner(range(8)).partition_stream(stream)
        assert adwise.replication_degree <= hdrf.replication_degree * 1.05

    def test_balanced_result(self, small_stream):
        result = AdwisePartitioner(
            range(4), fixed_window=16).partition_stream(small_stream)
        assert result.imbalance < 0.1

    def test_clustering_score_helps_on_clustered_graph(self, small_web):
        stream = shuffled(small_web.edges(), seed=3)
        with_cs = AdwisePartitioner(
            range(8), fixed_window=32,
            use_clustering=True).partition_stream(stream)
        without_cs = AdwisePartitioner(
            range(8), fixed_window=32,
            use_clustering=False).partition_stream(stream)
        assert (with_cs.replication_degree
                <= without_cs.replication_degree * 1.05)


class TestSelectPartition:
    def test_single_edge_driver_works(self):
        partitioner = AdwisePartitioner(range(4))
        partition = partitioner.partition_edge(Edge(1, 2))
        assert partition in range(4)
        assert partitioner.state.assigned_edges == 1
