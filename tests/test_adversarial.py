"""Failure-injection and adversarial-input tests.

Streaming partitioners run unattended inside loading pipelines; they must
behave sensibly on degenerate graphs, hostile stream orders, duplicate
edges, and corrupt files rather than silently corrupting state.
"""

import pytest

from repro.api import open_session
from repro.graph.graph import Edge, Graph
from repro.graph.io import read_graph
from repro.graph.stream import InMemoryEdgeStream, shuffled
from repro.core.adwise import AdwisePartitioner
from repro.partitioning.dbh import DBHPartitioner
from repro.partitioning.hdrf import HDRFPartitioner
from repro.partitioning.hashing import HashPartitioner
from repro.partitioning.validate import validate_result

PARTITIONERS = [
    lambda: HashPartitioner(range(4)),
    lambda: DBHPartitioner(range(4)),
    lambda: HDRFPartitioner(range(4)),
    lambda: AdwisePartitioner(range(4), fixed_window=8),
]
IDS = ["hash", "dbh", "hdrf", "adwise"]


@pytest.mark.parametrize("make", PARTITIONERS, ids=IDS)
class TestDegenerateStreams:
    def test_duplicate_edges(self, make):
        """The same edge repeated must not corrupt size accounting."""
        stream = InMemoryEdgeStream([Edge(1, 2)] * 10)
        result = make().partition_stream(stream)
        assert result.state.assigned_edges == 10
        assert sum(result.state.partition_edges.values()) == 10
        # A repeated edge never needs more than one replica per endpoint
        # beyond the partitions it was actually assigned to.
        assert result.state.replicas(1) <= set(range(4))

    def test_single_vertex_pair(self, make):
        stream = InMemoryEdgeStream([Edge(0, 1)])
        result = make().partition_stream(stream)
        assert len(result.assignments) == 1

    def test_star_burst(self, make):
        """A hub with thousands of spokes (worst-case degree skew)."""
        stream = InMemoryEdgeStream([Edge(0, i) for i in range(1, 2001)])
        result = make().partition_stream(stream)
        assert result.state.assigned_edges == 2000
        # The hub is replicated at most k times.
        assert len(result.state.replicas(0)) <= 4

    def test_disconnected_pairs(self, make):
        """A perfect matching — no locality whatsoever."""
        stream = InMemoryEdgeStream(
            [Edge(2 * i, 2 * i + 1) for i in range(500)])
        result = make().partition_stream(stream)
        assert result.replication_degree == 1.0

    def test_path_worst_case_order(self, make):
        """A long path delivered from both ends inward."""
        edges = [Edge(i, i + 1) for i in range(400)]
        woven = []
        lo, hi = 0, len(edges) - 1
        while lo <= hi:
            woven.append(edges[lo])
            if lo != hi:
                woven.append(edges[hi])
            lo, hi = lo + 1, hi - 1
        result = make().partition_stream(InMemoryEdgeStream(woven))
        report = validate_result(result)
        assert report.ok

    def test_sorted_adversarial_ids(self, make):
        """Vertex ids chosen to collide under naive modulo hashing.

        Locality-aware strategies may legitimately keep the whole path on
        one partition (it is perfectly local); the invariant is internal
        consistency, not spread.
        """
        stream = InMemoryEdgeStream(
            [Edge(4 * i, 4 * i + 4) for i in range(300)])
        result = make().partition_stream(stream)
        assert validate_result(result).ok
        assert result.replication_degree < 2.0  # a path is easy


class TestAdwiseRobustness:
    def test_huge_window_tiny_stream(self):
        """Window far larger than the stream must still terminate."""
        stream = InMemoryEdgeStream([Edge(i, i + 1) for i in range(10)])
        result = AdwisePartitioner(
            range(4), fixed_window=1000).partition_stream(stream)
        assert result.state.assigned_edges == 10

    def test_extreme_epsilon(self, small_powerlaw):
        stream = shuffled(small_powerlaw.edges(), seed=3)
        result = AdwisePartitioner(
            range(4), fixed_window=8,
            epsilon=1.0).partition_stream(stream)
        assert result.state.assigned_edges == len(stream)

    def test_single_candidate_budget(self, small_powerlaw):
        stream = shuffled(small_powerlaw.edges(), seed=3)
        result = AdwisePartitioner(
            range(4), fixed_window=16,
            max_candidates=1).partition_stream(stream)
        assert result.state.assigned_edges == len(stream)

    def test_negative_latency_preference_rejected(self):
        partitioner = AdwisePartitioner(range(2),
                                        latency_preference_ms=-5.0)
        with pytest.raises(ValueError):
            partitioner.partition_stream(InMemoryEdgeStream([Edge(0, 1)]))

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_non_finite_lambda_rejected(self, lam):
        """A non-finite λ makes λ·B NaN, which the compiled argmax and
        the reference's seed differently: refused on both tiers, before
        a stream opens, and through open_session."""
        for knobs in ({}, {"adaptive_lambda": False}, {"fast": False}):
            with pytest.raises(ValueError, match="initial_lambda"):
                AdwisePartitioner(range(8), initial_lambda=lam, **knobs)
        with pytest.raises(ValueError, match="initial_lambda"):
            open_session("adwise", partitions=8, initial_lambda=lam)

    @pytest.mark.parametrize("lam", [-2.5, -0.0, 0.0, 1.1, 7.0])
    def test_finite_fixed_lambda_accepted(self, lam):
        pairs = [(i % 13, (i * 7 + 3) % 17 + 13) for i in range(100)]
        results = [
            AdwisePartitioner(range(8), fixed_window=16, initial_lambda=lam,
                              adaptive_lambda=False, fast=fast)
            .partition_stream(InMemoryEdgeStream(
                [Edge(u, v) for u, v in pairs]))
            for fast in (None, False)]
        assert results[0].state.assigned_edges == len(pairs)
        assert (list(results[0].assignments.items())
                == list(results[1].assignments.items()))


class TestCorruptFiles:
    def test_truncated_edge_file(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("1 2\n3\n")
        with pytest.raises(ValueError):
            read_graph(path)

    def test_binary_garbage(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_bytes(b"\x00\x01garbage\xff")
        with pytest.raises((ValueError, UnicodeDecodeError)):
            read_graph(path)
