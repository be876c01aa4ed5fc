"""Unit tests for PartitionState: the vertex cache and bookkeeping."""

import pytest

from repro.graph.graph import Edge
from repro.partitioning.fast_state import FastPartitionState
from repro.partitioning.state import PartitionState, StateSnapshot


class TestConstruction:
    def test_requires_partitions(self):
        with pytest.raises(ValueError):
            PartitionState([])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            PartitionState([1, 1, 2])

    def test_initial_sizes_zero(self):
        state = PartitionState([0, 1, 2])
        assert state.max_size == 0
        assert state.min_size == 0
        assert state.imbalance() == 0.0


class TestAssign:
    def test_assign_updates_replicas(self):
        state = PartitionState([0, 1])
        changed = state.assign(Edge(10, 20), 0)
        assert set(changed) == {10, 20}
        assert state.replicas(10) == {0}
        assert state.replicas(20) == {0}

    def test_assign_same_partition_no_new_replica(self):
        state = PartitionState([0, 1])
        state.assign(Edge(10, 20), 0)
        changed = state.assign(Edge(10, 30), 0)
        assert changed == [30]
        assert state.replicas(10) == {0}

    def test_assign_other_partition_replicates(self):
        state = PartitionState([0, 1])
        state.assign(Edge(10, 20), 0)
        state.assign(Edge(10, 30), 1)
        assert state.replicas(10) == {0, 1}

    def test_assign_outside_spread_rejected(self):
        state = PartitionState([0, 1])
        with pytest.raises(ValueError):
            state.assign(Edge(1, 2), 5)

    def test_assigned_edges_counter(self):
        state = PartitionState([0])
        state.assign(Edge(1, 2), 0)
        state.assign(Edge(2, 3), 0)
        assert state.assigned_edges == 2


class TestSizes:
    def test_incremental_max_min(self):
        state = PartitionState([0, 1, 2])
        state.assign(Edge(1, 2), 0)
        assert state.max_size == 1
        assert state.min_size == 0
        state.assign(Edge(2, 3), 1)
        state.assign(Edge(3, 4), 2)
        assert state.min_size == 1
        assert state.max_size == 1

    def test_sizes_match_bruteforce(self):
        state = PartitionState([0, 1, 2, 3])
        import random
        rng = random.Random(0)
        for i in range(200):
            state.assign(Edge(i, i + 1), rng.choice([0, 1, 2, 3]))
            assert state.max_size == max(state.partition_edges.values())
            assert state.min_size == min(state.partition_edges.values())

    def test_imbalance_formula(self):
        state = PartitionState([0, 1])
        state.assign(Edge(1, 2), 0)
        state.assign(Edge(2, 3), 0)
        state.assign(Edge(3, 4), 1)
        assert state.imbalance() == pytest.approx(0.5)


class TestDegrees:
    def test_observe_degrees(self):
        state = PartitionState([0])
        state.observe_degrees(Edge(1, 2))
        state.observe_degrees(Edge(1, 3))
        assert state.degree_of(1) == 2
        assert state.degree_of(2) == 1
        assert state.degree_of(99) == 0

    def test_max_degree_tracks(self):
        state = PartitionState([0])
        assert state.max_degree == 1
        for other in range(2, 7):
            state.observe_degrees(Edge(1, other))
        assert state.max_degree == 5

    def test_copy_degrees(self):
        src = PartitionState([0])
        src.observe_degrees(Edge(1, 2))
        dst = PartitionState([0, 1])
        dst.copy_degrees_from(src)
        assert dst.degree_of(1) == 1
        assert dst.max_degree == src.max_degree


class TestReplicationDegree:
    def test_single_partition_degree_one(self):
        state = PartitionState([0])
        state.assign(Edge(1, 2), 0)
        state.assign(Edge(2, 3), 0)
        assert state.replication_degree() == 1.0

    def test_cut_vertex_counts_twice(self):
        state = PartitionState([0, 1])
        state.assign(Edge(1, 2), 0)
        state.assign(Edge(1, 3), 1)
        # R_1 = {0,1}, R_2 = {0}, R_3 = {1} -> (2+1+1)/3
        assert state.replication_degree() == pytest.approx(4 / 3)

    def test_empty_state_zero(self):
        assert PartitionState([0]).replication_degree() == 0.0

    def test_union_replication_degree(self):
        a = PartitionState([0, 1])
        b = PartitionState([2, 3])
        a.assign(Edge(1, 2), 0)
        b.assign(Edge(1, 3), 2)
        # Union: R_1 = {0,2}, R_2 = {0}, R_3 = {2}
        merged = PartitionState.from_snapshot(StateSnapshot.merge(
            [a.snapshot(), b.snapshot()], partitions=[0, 1, 2, 3]))
        assert merged.replication_degree() == pytest.approx(4 / 3)

    def test_merged_empty(self):
        merged = StateSnapshot.merge([PartitionState([0]).snapshot()],
                                     partitions=[0])
        assert PartitionState.from_snapshot(merged).replication_degree() == 0.0


def _populated(cls):
    state = cls([0, 1, 2])
    for edge, p in [(Edge(1, 2), 0), (Edge(2, 3), 1), (Edge(1, 3), 0),
                    (Edge(4, 5), 2), (Edge(1, 4), 1)]:
        state.observe_degrees(edge)
        state.assign(edge, p)
    return state


@pytest.mark.parametrize("cls", [PartitionState, FastPartitionState],
                         ids=["legacy", "fast"])
class TestSnapshotRoundTrip:
    def test_round_trip_preserves_everything(self, cls):
        state = _populated(cls)
        back = cls.from_snapshot(state.snapshot())
        assert back.replica_sets == state.replica_sets
        assert back.partition_edges == state.partition_edges
        assert back.degree == state.degree
        assert back.max_degree == state.max_degree
        assert back.assigned_edges == state.assigned_edges
        assert back.max_size == state.max_size
        assert back.min_size == state.min_size
        assert back.replication_degree() == state.replication_degree()

    def test_round_trip_survives_pickle(self, cls):
        import pickle

        state = _populated(cls)
        snap = pickle.loads(pickle.dumps(state.snapshot()))
        back = cls.from_snapshot(snap)
        assert back.replica_sets == state.replica_sets

    def test_restored_state_accepts_further_assignments(self, cls):
        state = _populated(cls)
        back = cls.from_snapshot(state.snapshot())
        back.observe_degrees(Edge(6, 7))
        changed = back.assign(Edge(6, 7), 2)
        assert set(changed) == {6, 7}
        assert back.assigned_edges == state.assigned_edges + 1

    def test_cross_class_restore(self, cls):
        """A snapshot from either flavour restores into the other."""
        other = FastPartitionState if cls is PartitionState else PartitionState
        state = _populated(cls)
        back = other.from_snapshot(state.snapshot())
        assert back.replica_sets == state.replica_sets
        assert back.partition_edges == state.partition_edges

    def test_empty_state_round_trip(self, cls):
        state = cls([0, 1])
        back = cls.from_snapshot(state.snapshot())
        assert back.replica_sets == {}
        assert back.partition_edges == {0: 0, 1: 0}
        assert back.assigned_edges == 0


class TestSnapshotMerge:
    def test_disjoint_spreads_union(self):
        a = PartitionState([0, 1])
        b = PartitionState([2, 3])
        for edge, p in [(Edge(1, 2), 0), (Edge(2, 3), 1)]:
            a.observe_degrees(edge)
            a.assign(edge, p)
        for edge, p in [(Edge(1, 3), 2)]:
            b.observe_degrees(edge)
            b.assign(edge, p)
        merged = StateSnapshot.merge([a.snapshot(), b.snapshot()],
                                     partitions=[0, 1, 2, 3])
        assert merged.replica_sets() == {1: {0, 2}, 2: {0, 1}, 3: {1, 2}}
        assert merged.partition_edges == {0: 1, 1: 1, 2: 1, 3: 0}
        assert merged.assigned_edges == 3
        # Degrees are summed: each instance saw a disjoint chunk.
        assert merged.degree == {1: 2, 2: 2, 3: 2}

    def test_overlapping_spreads_union_not_double_count(self):
        a = PartitionState([0, 1])
        b = PartitionState([1, 2])
        a.assign(Edge(1, 2), 1)
        b.assign(Edge(1, 2), 1)
        merged = StateSnapshot.merge([a.snapshot(), b.snapshot()],
                                     partitions=[0, 1, 2])
        assert merged.replica_sets() == {1: {1}, 2: {1}}
        assert merged.partition_edges[1] == 2

    def test_merge_order_of_partition_ids_is_deterministic(self):
        a = PartitionState([3, 1])
        b = PartitionState([2, 0])
        a.assign(Edge(1, 2), 1)
        b.assign(Edge(1, 3), 0)
        explicit = StateSnapshot.merge([a.snapshot(), b.snapshot()],
                                       partitions=[0, 1, 2, 3])
        assert explicit.partitions == [0, 1, 2, 3]
        assert explicit.sizes == [1, 1, 0, 0]
        assert explicit.replica_bits == {1: 0b11, 2: 0b10, 3: 0b01}

    def test_merge_requires_partitions(self):
        with pytest.raises(TypeError):
            StateSnapshot.merge([])
        with pytest.raises(ValueError):
            StateSnapshot.merge([], partitions=[])

    def test_merge_of_both_classes_restores(self):
        a = _populated(PartitionState)
        b = _populated(FastPartitionState)
        merged = StateSnapshot.merge([a.snapshot(), b.snapshot()],
                                     partitions=[0, 1, 2])
        state = PartitionState.from_snapshot(merged)
        assert state.assigned_edges == 10
        assert state.replica_sets == merged.replica_sets()
