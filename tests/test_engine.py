"""Tests for the engine substrate: placement, cost model, runtime."""

import pytest

from repro.graph.graph import Edge, Graph
from repro.engine.cost import CostModel, cost_model_for
from repro.engine.placement import Placement
from repro.engine.runtime import Engine
from repro.engine.vertex_program import VertexProgram


@pytest.fixture
def simple_assignments():
    return {
        Edge(0, 1): 0,
        Edge(1, 2): 0,
        Edge(2, 3): 1,
        Edge(3, 4): 1,
    }


@pytest.fixture
def simple_placement(simple_assignments):
    return Placement(simple_assignments, partitions=[0, 1], num_machines=2)


class TestPlacement:
    def test_machine_map_contiguous(self):
        mapping = Placement.contiguous_machine_map(list(range(8)), 2)
        assert mapping == {0: 0, 1: 0, 2: 0, 3: 0, 4: 1, 5: 1, 6: 1, 7: 1}

    def test_machine_map_uneven(self):
        mapping = Placement.contiguous_machine_map(list(range(5)), 2)
        assert list(mapping.values()).count(0) == 3
        assert list(mapping.values()).count(1) == 2

    def test_edges_per_machine(self, simple_placement):
        assert simple_placement.stats().edges_per_machine == {0: 2, 1: 2}

    def test_vertex_span(self, simple_placement):
        # Vertex 2 is on partitions 0 and 1, so on both machines; the
        # other four are on one: spans 1, 1, 2, 1, 1.
        stats = simple_placement.stats()
        assert stats.machine_span_degree == pytest.approx(6 / 5)

    def test_sync_messages(self, simple_placement):
        stats = simple_placement.stats()
        # Only vertex 2 spans two machines: 2 messages on each side.
        assert stats.remote_sync_per_machine == {0: 2, 1: 2}
        assert stats.local_sync_per_machine == {0: 0, 1: 0}

    def test_replication_degree_stat(self, simple_placement):
        stats = simple_placement.stats()
        # R: v0=1, v1=1, v2=2, v3=1, v4=1 -> 6/5
        assert stats.replication_degree == pytest.approx(6 / 5)

    def test_unknown_partition_rejected(self):
        with pytest.raises(ValueError):
            Placement({Edge(0, 1): 9}, partitions=[0, 1], num_machines=1)

    def test_invalid_machine_count(self):
        with pytest.raises(ValueError):
            Placement({}, partitions=[0], num_machines=0)


class TestCostModel:
    def test_superstep_cost_positive(self, simple_placement):
        cost = CostModel().superstep_cost(simple_placement.stats())
        assert cost.total_ms > 0.0

    def test_zero_activity_only_overhead(self, simple_placement):
        model = CostModel(superstep_overhead_ms=1.0)
        cost = model.superstep_cost(simple_placement.stats(),
                                    active_fraction=0.0)
        assert cost.total_ms == pytest.approx(1.0)

    def test_invalid_active_fraction(self, simple_placement):
        with pytest.raises(ValueError):
            CostModel().superstep_cost(simple_placement.stats(), 1.5)

    def test_more_replication_costs_more(self):
        """The paper's causal chain: replication -> sync -> latency."""
        local = Placement({Edge(0, 1): 0, Edge(1, 2): 0},
                          partitions=[0, 1], num_machines=2)
        cut = Placement({Edge(0, 1): 0, Edge(1, 2): 1},
                        partitions=[0, 1], num_machines=2)
        model = CostModel(superstep_overhead_ms=0.0)
        assert (model.superstep_cost(cut.stats()).total_ms
                > model.superstep_cost(local.stats()).total_ms)

    def test_imbalance_stretches_latency(self):
        balanced = Placement({Edge(0, 1): 0, Edge(2, 3): 1},
                             partitions=[0, 1], num_machines=2)
        skewed = Placement({Edge(0, 1): 0, Edge(2, 3): 0},
                           partitions=[0, 1], num_machines=2)
        model = CostModel(superstep_overhead_ms=0.0)
        assert (model.superstep_cost(skewed.stats()).total_ms
                > model.superstep_cost(balanced.stats()).total_ms)

    def test_iterations_cost_linear(self, simple_placement):
        model = CostModel()
        one = model.iterations_cost_ms(simple_placement, 1)
        ten = model.iterations_cost_ms(simple_placement, 10)
        assert ten == pytest.approx(10 * one)

    def test_workload_presets(self):
        pagerank = cost_model_for("pagerank")
        si = cost_model_for("subgraph_isomorphism")
        assert si.comm_weight > pagerank.comm_weight

    def test_unknown_workload(self):
        with pytest.raises(KeyError):
            cost_model_for("sorting")

    def test_preset_override(self):
        model = cost_model_for("pagerank", comm_weight=9.0)
        assert model.comm_weight == 9.0


class _EchoOnce(VertexProgram):
    """Test program: every vertex messages its neighbors once, then halts."""

    name = "echo"

    def initial_state(self, vertex, degree):
        return 0

    def compute(self, vertex, state, messages, neighbors, ctx):
        if ctx.superstep == 0:
            ctx.send_all(neighbors, vertex)
        ctx.vote_halt()
        return state + len(messages)


class TestEngine:
    def test_runs_and_converges(self, triangle, simple_placement):
        graph = Graph([(0, 1), (1, 2), (2, 3), (3, 4)])
        engine = Engine(graph, simple_placement)
        report = engine.run(_EchoOnce(), max_supersteps=10)
        assert report.converged
        assert report.supersteps == 2
        # Every vertex received one message per neighbor.
        assert report.states[1] == 2
        assert report.states[0] == 1

    def test_message_to_unknown_vertex_raises(self, simple_placement):
        graph = Graph([(0, 1), (1, 2), (2, 3), (3, 4)])

        class Bad(_EchoOnce):
            def compute(self, vertex, state, messages, neighbors, ctx):
                ctx.send(999, "boom")
                ctx.vote_halt()
                return state

        with pytest.raises(KeyError):
            Engine(graph, simple_placement).run(Bad())

    def test_latency_accumulates_per_superstep(self, simple_placement):
        graph = Graph([(0, 1), (1, 2), (2, 3), (3, 4)])
        engine = Engine(graph, simple_placement)
        report = engine.run(_EchoOnce(), max_supersteps=10)
        assert report.latency_ms == pytest.approx(
            sum(c.total_ms for c in report.superstep_costs))

    def test_max_supersteps_cap(self, simple_placement):
        graph = Graph([(0, 1), (1, 2), (2, 3), (3, 4)])

        class Chatter(VertexProgram):
            name = "chatter"

            def initial_state(self, vertex, degree):
                return 0

            def compute(self, vertex, state, messages, neighbors, ctx):
                ctx.send_all(neighbors, 1)
                return state

        report = Engine(graph, simple_placement).run(Chatter(),
                                                     max_supersteps=5)
        assert report.supersteps == 5
        assert not report.converged

    def test_stationary_shortcut_matches_model(self, simple_placement):
        graph = Graph([(0, 1), (1, 2), (2, 3), (3, 4)])
        engine = Engine(graph, simple_placement)
        expected = engine.cost_model.iterations_cost_ms(simple_placement, 7)
        assert engine.stationary_latency_ms(7) == pytest.approx(expected)

    def test_invalid_max_supersteps(self, simple_placement):
        graph = Graph([(0, 1)])
        graph.add_vertex(2)
        graph.add_vertex(3)
        graph.add_vertex(4)
        with pytest.raises(ValueError):
            Engine(graph, simple_placement).run(_EchoOnce(), max_supersteps=0)


class TestLocalityDiscount:
    """Same-machine replica sync must be cheaper than cross-machine."""

    def test_local_mirror_cheaper_than_remote(self):
        from repro.engine.cost import CostModel
        from repro.engine.placement import Placement
        from repro.graph.graph import Edge

        # Vertex 1 is replicated on two partitions either co-located on
        # one machine or split across two.
        local = Placement({Edge(0, 1): 0, Edge(1, 2): 1},
                          partitions=[0, 1], num_machines=2,
                          machine_of_partition={0: 0, 1: 0})
        remote = Placement({Edge(0, 1): 0, Edge(1, 2): 1},
                           partitions=[0, 1], num_machines=2,
                           machine_of_partition={0: 0, 1: 1})
        model = CostModel(superstep_overhead_ms=0.0, edge_compute_ms=0.0)
        local_cost = model.superstep_cost(local.stats()).total_ms
        remote_cost = model.superstep_cost(remote.stats()).total_ms
        assert local_cost < remote_cost
        assert local_cost > 0.0  # local sync is cheaper, not free

    def test_discount_factor_scales_local_cost(self):
        from repro.engine.cost import CostModel
        from repro.engine.placement import Placement
        from repro.graph.graph import Edge

        placement = Placement({Edge(0, 1): 0, Edge(1, 2): 1},
                              partitions=[0, 1], num_machines=1)
        cheap = CostModel(superstep_overhead_ms=0.0, edge_compute_ms=0.0,
                          local_message_factor=0.1)
        dear = CostModel(superstep_overhead_ms=0.0, edge_compute_ms=0.0,
                         local_message_factor=0.9)
        assert (cheap.superstep_cost(placement.stats()).total_ms
                < dear.superstep_cost(placement.stats()).total_ms)
