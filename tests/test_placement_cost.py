"""Coverage for engine/placement.py + engine/cost.py edge paths.

Targets the gaps the cluster runtime now leans on: custom
``machine_of_partition`` maps (arbitrary, non-contiguous, validated),
bottleneck-machine attribution in :class:`SuperstepCost`, and the
``local_message_factor`` discount path end to end.
"""

from __future__ import annotations

import pytest

from repro.engine.cost import CostModel, cost_model_for
from repro.engine.placement import Placement
from repro.graph.graph import Edge


def chain_assignments(k: int) -> dict:
    """A path graph with edge i on partition i — every interior vertex
    is replicated on exactly two adjacent partitions."""
    return {Edge(i, i + 1): i for i in range(k)}


class TestCustomMachineMaps:
    def test_non_contiguous_map_respected(self):
        # Interleave partitions across machines: 0,2 -> m1; 1,3 -> m0.
        machine_of = {0: 1, 1: 0, 2: 1, 3: 0}
        placement = Placement(chain_assignments(4), partitions=range(4),
                              num_machines=2,
                              machine_of_partition=machine_of)
        assert placement.machine_of_partition == machine_of
        stats = placement.stats()
        # Every partition holds one edge.
        assert stats.edges_per_machine == {0: 2, 1: 2}
        # All three replicated vertices span both machines, so every
        # sync pair is remote under the interleaved map...
        assert stats.local_sync_per_machine == {0: 0, 1: 0}
        assert stats.remote_sync_per_machine == {0: 6, 1: 6}
        # ...whereas the default contiguous map keeps two of them local.
        contiguous = Placement(chain_assignments(4), partitions=range(4),
                               num_machines=2)
        contiguous_stats = contiguous.stats()
        assert contiguous_stats.remote_sync_per_machine == {0: 2, 1: 2}
        assert contiguous_stats.local_sync_per_machine == {0: 4, 1: 4}

    def test_machine_span_follows_custom_map(self):
        machine_of = {0: 0, 1: 0, 2: 0, 3: 0}
        placement = Placement(chain_assignments(4), partitions=range(4),
                              num_machines=3,
                              machine_of_partition=machine_of)
        # Partition span is 2 for interior vertices, machine span is 1.
        assert placement.stats().replication_degree > \
            placement.stats().machine_span_degree
        assert placement.stats().machine_span_degree == 1.0

    def test_master_is_on_the_min_partitions_machine(self):
        machine_of = {0: 2, 1: 1, 2: 0}
        placement = Placement({Edge(0, 1): 0, Edge(1, 2): 1,
                               Edge(1, 3): 2},
                              partitions=range(3), num_machines=3,
                              machine_of_partition=machine_of)
        # Vertex 1 is on partitions {0, 1, 2} -> machines {2, 1, 0}: its
        # master, on partition 0, is on machine 2 and pairs with each
        # mirror, so machine 2 is charged twice.
        stats = placement.stats()
        assert stats.remote_sync_per_machine == {0: 2, 1: 2, 2: 4}
        assert stats.local_sync_per_machine == {0: 0, 1: 0, 2: 0}

    def test_partition_without_machine_rejected(self):
        with pytest.raises(ValueError, match="without a machine"):
            Placement(chain_assignments(3), partitions=range(3),
                      num_machines=2, machine_of_partition={0: 0, 1: 1})

    @pytest.mark.parametrize("machine_of,culprit", [
        ({0: 0, 1: 2, 2: 1}, "partition 1 is on machine 2"),
        ({0: -1, 1: 0, 2: 1}, "partition 0 is on machine -1")])
    def test_machine_outside_range_rejected(self, machine_of, culprit):
        with pytest.raises(ValueError, match=culprit):
            Placement(chain_assignments(3), partitions=range(3),
                      num_machines=2, machine_of_partition=machine_of)

    def test_assignment_to_unknown_partition_rejected(self):
        with pytest.raises(ValueError, match="unknown partition"):
            Placement({Edge(0, 1): 5}, partitions=range(2),
                      num_machines=1)


class TestBottleneckAttribution:
    def test_bottleneck_is_the_loaded_machine(self):
        # Machine 1 (partition 1) carries 10 edges, machine 0 one edge.
        assignments = {Edge(0, 1): 0}
        assignments.update({Edge(100 + i, 200 + i): 1 for i in range(10)})
        placement = Placement(assignments, partitions=range(2),
                              num_machines=2)
        cost = CostModel(message_ms=0.0).superstep_cost(placement.stats())
        assert cost.bottleneck_machine == 1
        assert cost.compute_ms > 0.0
        assert cost.comm_ms == 0.0

    def test_bottleneck_can_be_comm_bound(self):
        # Machine 0 has few edges but all the replica sync; machine 1
        # has the edges.  A comm-heavy model moves the bottleneck.
        assignments = {Edge(0, i): i % 2 for i in range(1, 9)}
        placement = Placement(assignments, partitions=range(2),
                              num_machines=2)
        compute_bound = CostModel(edge_compute_ms=1.0, message_ms=0.0)
        comm_bound = CostModel(edge_compute_ms=0.0, message_ms=1.0)
        stats = placement.stats()
        compute_cost = compute_bound.superstep_cost(stats)
        comm_cost = comm_bound.superstep_cost(stats)
        assert compute_cost.comm_ms == 0.0
        assert comm_cost.compute_ms == 0.0
        assert comm_cost.comm_ms > 0.0

    def test_total_is_bottleneck_plus_overhead(self):
        placement = Placement(chain_assignments(4), partitions=range(4),
                              num_machines=2)
        model = CostModel(superstep_overhead_ms=2.5)
        cost = model.superstep_cost(placement.stats())
        assert cost.total_ms == pytest.approx(
            cost.compute_ms + cost.comm_ms + 2.5)

    def test_active_fraction_scales_both_terms(self):
        placement = Placement(chain_assignments(4), partitions=range(4),
                              num_machines=2)
        model = CostModel(superstep_overhead_ms=0.0)
        full = model.superstep_cost(placement.stats(), 1.0)
        half = model.superstep_cost(placement.stats(), 0.5)
        assert half.compute_ms == pytest.approx(full.compute_ms / 2)
        assert half.comm_ms == pytest.approx(full.comm_ms / 2)

    def test_active_fraction_validated(self):
        placement = Placement(chain_assignments(2), partitions=range(2),
                              num_machines=1)
        with pytest.raises(ValueError):
            CostModel().superstep_cost(placement.stats(), 1.5)
        with pytest.raises(ValueError):
            CostModel().superstep_cost(placement.stats(), -0.1)


class TestLocalMessageFactor:
    def placement_one_machine(self) -> Placement:
        """All partitions co-located: every sync message is local."""
        return Placement(chain_assignments(4), partitions=range(4),
                         num_machines=1)

    def test_factor_zero_makes_local_sync_free(self):
        placement = self.placement_one_machine()
        model = CostModel(edge_compute_ms=0.0, superstep_overhead_ms=0.0,
                          local_message_factor=0.0)
        assert model.superstep_cost(placement.stats()).total_ms == 0.0

    def test_factor_one_equals_remote_price(self):
        local = self.placement_one_machine()
        # Same topology split so all sync goes remote, balanced so the
        # bottleneck machine sees half the endpoints.
        remote = Placement(chain_assignments(4), partitions=range(4),
                           num_machines=2,
                           machine_of_partition={0: 1, 1: 0, 2: 1, 3: 0})
        model = CostModel(edge_compute_ms=0.0, superstep_overhead_ms=0.0,
                          local_message_factor=1.0)
        local_stats = local.stats()
        remote_stats = remote.stats()
        # Sanity: same total sync volume, differently classified.
        assert sum(local_stats.local_sync_per_machine.values()) == \
            sum(remote_stats.remote_sync_per_machine.values())
        local_cost = model.superstep_cost(local_stats)
        # One machine carries all 12 endpoint charges at factor 1.0;
        # the remote split's bottleneck carries 6 at full price.
        remote_cost = model.superstep_cost(remote_stats)
        assert local_cost.comm_ms == pytest.approx(2 * remote_cost.comm_ms)

    def test_cost_scales_linearly_in_factor(self):
        placement = self.placement_one_machine()
        stats = placement.stats()
        costs = [CostModel(edge_compute_ms=0.0, superstep_overhead_ms=0.0,
                           local_message_factor=f)
                 .superstep_cost(stats).comm_ms
                 for f in (0.25, 0.5, 1.0)]
        assert costs[1] == pytest.approx(2 * costs[0])
        assert costs[2] == pytest.approx(4 * costs[0])

    def test_workload_presets_keep_factor_overridable(self):
        model = cost_model_for("pagerank", local_message_factor=0.0)
        assert model.local_message_factor == 0.0
        assert model.compute_weight == 1.0
        with pytest.raises(KeyError):
            cost_model_for("not-a-workload")
