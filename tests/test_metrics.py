"""Unit tests for partitioning quality metrics."""

import pytest

from repro.graph.graph import Edge
from repro.partitioning.metrics import (
    imbalance,
    partition_sizes,
    replication_degree,
)


@pytest.fixture
def sample_assignments():
    return {
        Edge(0, 1): 0,
        Edge(1, 2): 0,
        Edge(2, 3): 1,
        Edge(3, 0): 1,
    }


class TestReplicaSets:
    def test_replication_degree(self):
        # The replica sets ``sample_assignments`` implies.
        replicas = {0: {0, 1}, 1: {0}, 2: {0, 1}, 3: {1}}
        assert replication_degree(replicas) == pytest.approx(6 / 4)

    def test_replication_degree_empty(self):
        assert replication_degree({}) == 0.0


class TestBalance:
    def test_partition_sizes_include_empty(self, sample_assignments):
        sizes = partition_sizes(sample_assignments, [0, 1, 2])
        assert sizes == {0: 2, 1: 2, 2: 0}

    def test_imbalance_zero_when_equal(self):
        assert imbalance({0: 3, 1: 3}) == 0.0

    def test_imbalance_formula(self):
        assert imbalance({0: 10, 1: 8}) == pytest.approx(0.2)

    def test_imbalance_all_empty(self):
        assert imbalance({0: 0, 1: 0}) == 0.0
