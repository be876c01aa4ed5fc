"""Unit tests for the single-edge streaming baseline partitioners."""

import pytest

from repro.api import open_session
from repro.graph.graph import Edge
from repro.graph.stream import InMemoryEdgeStream, shuffled
from repro.partitioning.dbh import DBHPartitioner
from repro.partitioning.greedy import GreedyPartitioner
from repro.partitioning.grid import GridPartitioner
from repro.partitioning.hashing import HashPartitioner
from repro.partitioning.hdrf import HDRFPartitioner
from repro.partitioning.powerlyra import PowerLyraPartitioner
from repro.partitioning.state import PartitionState, StateSnapshot
from repro.partitioning.metrics import (
    partition_sizes,
    replica_sets_from_assignments,
)

ALL_BASELINES = [
    HashPartitioner,
    GridPartitioner,
    DBHPartitioner,
    HDRFPartitioner,
    GreedyPartitioner,
    PowerLyraPartitioner,
]


@pytest.mark.parametrize("cls", ALL_BASELINES)
class TestCommonContract:
    """Every baseline obeys the streaming-partitioner contract."""

    def test_every_edge_assigned_to_valid_partition(self, cls, small_stream):
        partitioner = cls(range(4))
        result = partitioner.partition_stream(small_stream)
        assert len(result.assignments) == len(small_stream)
        assert all(p in {0, 1, 2, 3} for p in result.assignments.values())

    def test_partition_sizes_sum_to_edge_count(self, cls, small_stream):
        partitioner = cls(range(4))
        result = partitioner.partition_stream(small_stream)
        assert sum(result.state.partition_edges.values()) == len(small_stream)

    def test_deterministic(self, cls, small_powerlaw):
        stream_a = shuffled(small_powerlaw.edges(), seed=3)
        stream_b = shuffled(small_powerlaw.edges(), seed=3)
        result_a = cls(range(4)).partition_stream(stream_a)
        result_b = cls(range(4)).partition_stream(stream_b)
        assert result_a.assignments == result_b.assignments

    def test_replication_degree_at_least_one(self, cls, small_stream):
        result = cls(range(4)).partition_stream(small_stream)
        assert result.replication_degree >= 1.0

    def test_latency_charged(self, cls, small_stream):
        result = cls(range(4)).partition_stream(small_stream)
        assert result.latency_ms > 0.0

    def test_respects_restricted_spread(self, cls, small_stream):
        partitioner = cls([5, 9])
        result = partitioner.partition_stream(small_stream)
        assert set(result.assignments.values()) <= {5, 9}


class TestHash:
    def test_same_edge_same_partition(self):
        p = HashPartitioner(range(8))
        a = p.select_partition(Edge(1, 2))
        b = p.select_partition(Edge(1, 2))
        assert a == b

    def test_orientation_invariant(self):
        p = HashPartitioner(range(8))
        assert p.select_partition(Edge(1, 2)) == p.select_partition(Edge(2, 1))

    def test_roughly_balanced(self, small_stream):
        result = HashPartitioner(range(4)).partition_stream(small_stream)
        sizes = result.state.partition_edges
        expected = len(small_stream) / 4
        assert all(abs(s - expected) < expected * 0.5 for s in sizes.values())


class TestDBH:
    def test_low_degree_endpoint_anchors(self):
        p = DBHPartitioner(range(4))
        # Make vertex 1 high-degree.
        for other in range(2, 8):
            p.partition_edge(Edge(1, other))
        # Edge (1, 99): 99 has lower degree, so assignment hashes 99.
        target = p.partition_edge(Edge(1, 99))
        q = DBHPartitioner(range(4))
        # In a fresh partitioner where 99 has degree 1 vs 100's 0, the
        # anchor differs; we simply verify determinism of the rule:
        assert target in range(4)

    def test_spoke_edges_follow_low_degree_vertices(self, star):
        """All star edges hash the spoke (degree-1), not the hub."""
        p = DBHPartitioner(range(4))
        result = p.partition_stream(InMemoryEdgeStream(star.edge_list()))
        replicas = replica_sets_from_assignments(result.assignments)
        # Each spoke has exactly one replica.
        for spoke in range(1, 6):
            assert len(replicas[spoke]) == 1


class TestHDRF:
    def test_lambda_validation(self):
        with pytest.raises(ValueError):
            HDRFPartitioner(range(2), lam=-1.0)

    @pytest.mark.parametrize("fast", [None, False],
                             ids=["default", "reference"])
    @pytest.mark.parametrize("lam", [float("nan"), float("inf"),
                                     float("-inf"), -1e-300])
    def test_non_finite_lambda_refused_by_name(self, lam, fast):
        """A NaN λ scores every partition NaN and an infinite one makes
        the balance term inf or NaN (inf · 0): every edge went to the
        first partition.  Both tiers refuse them, and a negative λ,
        naming the value."""
        with pytest.raises(ValueError, match=f"got {lam}"):
            HDRFPartitioner(range(4), lam=lam, fast=fast)

    def test_non_finite_lambda_refused_by_a_session(self):
        with pytest.raises(ValueError, match="got nan"):
            open_session("hdrf", partitions=4, fast=True, lam=float("nan"))

    def test_replication_score_prefers_existing_replicas(self):
        p = HDRFPartitioner(range(2))
        p.state.observe_degrees(Edge(1, 2))
        p.state.assign(Edge(1, 2), 0)
        p.state.observe_degrees(Edge(1, 3))
        assert (p.replication_score(Edge(1, 3), 0)
                > p.replication_score(Edge(1, 3), 1))

    def test_degree_weighting_favors_low_degree_endpoint(self):
        p = HDRFPartitioner(range(2))
        # Vertex 1 high degree, vertex 9 low degree; both replicated on 0.
        for other in range(2, 8):
            p.state.observe_degrees(Edge(1, other))
        p.state.observe_degrees(Edge(9, 10))
        p.state.assign(Edge(1, 2), 0)
        p.state.assign(Edge(9, 10), 0)
        p.state.observe_degrees(Edge(1, 9))
        # theta favors keeping the low-degree vertex (9) local: its term
        # (1 + 1 - theta_9) exceeds vertex 1's.
        score = p.replication_score(Edge(1, 9), 0)
        assert score > 2.0  # both endpoints replicated, with degree bonus

    def test_balance_score_prefers_empty_partition(self):
        p = HDRFPartitioner(range(2))
        p.state.assign(Edge(5, 6), 0)
        assert p.balance_score(1) > p.balance_score(0)

    def test_balance_score_at_equal_sizes_past_two_to_the_24(self):
        """``(ε + max) − min`` rounds to 0.0 there: no division, and
        every partition's headroom is exactly 0."""
        size = 2 ** 24
        state = PartitionState.from_snapshot(StateSnapshot(
            partitions=[0, 1], sizes=[size, size], replica_bits={},
            degree={}, max_degree=0, assigned_edges=2 * size))
        p = HDRFPartitioner(range(2), state=state, fast=False)
        assert p.balance_score(0) == p.balance_score(1) == 0.0

    def test_beats_hash_on_replication(self, small_powerlaw):
        stream = shuffled(small_powerlaw.edges(), seed=5)
        hdrf = HDRFPartitioner(range(8)).partition_stream(stream)
        hashed = HashPartitioner(range(8)).partition_stream(stream)
        assert hdrf.replication_degree < hashed.replication_degree

    def test_stays_balanced(self, small_stream):
        result = HDRFPartitioner(range(4)).partition_stream(small_stream)
        assert result.imbalance < 0.2


class TestGreedy:
    def test_shared_partition_preferred(self):
        p = GreedyPartitioner(range(3))
        p.partition_edge(Edge(1, 2))
        first = p.state.replicas(1) & p.state.replicas(2)
        # Next edge between the same vertices must go to the shared partition.
        assert p.select_partition(Edge(1, 2)) in first

    def test_single_known_endpoint_follows_replica(self):
        p = GreedyPartitioner(range(3))
        target = p.partition_edge(Edge(1, 2))
        assert p.select_partition(Edge(1, 99)) == target

    def test_unknown_edge_goes_least_loaded(self):
        p = GreedyPartitioner(range(3))
        p.state.assign(Edge(50, 51), 0)
        p.state.assign(Edge(52, 53), 1)
        assert p.select_partition(Edge(98, 99)) == 2


class TestGrid:
    def test_candidate_sets_intersect(self):
        p = GridPartitioner(range(9))
        cell_u = p._cell_of(1)
        cell_v = p._cell_of(2)
        inter = p._constraint_set(cell_u) & p._constraint_set(cell_v)
        assert inter  # 3x3 grid: row+column always intersect

    def test_bounded_replication_per_vertex(self, small_stream):
        result = GridPartitioner(range(16)).partition_stream(small_stream)
        replicas = replica_sets_from_assignments(result.assignments)
        # Grid bounds each vertex's replicas by 2*sqrt(k) - 1 = 7.
        assert all(len(r) <= 7 for r in replicas.values())
