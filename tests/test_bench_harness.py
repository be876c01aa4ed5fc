"""Tests for the experiment harness (small, fast configurations)."""

import pytest

from repro.graph.generators import powerlaw_cluster_graph
from repro.graph.stream import shuffled
from repro.core.adwise import AdwisePartitioner
from repro.partitioning.hdrf import HDRFPartitioner
from repro.bench.harness import (
    ExperimentConfig,
    check_balance,
    replication_sweep,
    run_partitioning,
    spotlight_sweep,
    stacked_latency_experiment,
)
from repro.bench.workloads import (
    GraphSpec,
    PAPER_GRAPHS,
    adwise_factory,
    baseline_factories,
)


@pytest.fixture(scope="module")
def graph():
    return powerlaw_cluster_graph(n=150, m=3, p=0.8, seed=2)


@pytest.fixture
def stream_factory(graph):
    return lambda: shuffled(graph.edges(), seed=4)


CONFIGS = [
    ExperimentConfig("HDRF",
                     lambda parts, clock: HDRFPartitioner(parts, clock=clock)),
    ExperimentConfig("ADWISE",
                     lambda parts, clock: AdwisePartitioner(
                         parts, clock=clock, fixed_window=8)),
]


class TestRunPartitioning:
    def test_runs_with_paper_defaults(self, stream_factory):
        result = run_partitioning(CONFIGS[0].factory, stream_factory(),
                                  num_partitions=8, num_instances=4,
                                  spread=2)
        assert result.num_instances == 4
        assert sum(result.state.partition_edges.values()) == len(stream_factory())

    def test_check_balance_passes_when_balanced(self, stream_factory):
        result = run_partitioning(CONFIGS[0].factory, stream_factory(),
                                  num_partitions=8, num_instances=4,
                                  spread=2)
        check_balance(result, limit=0.8)

    def test_check_balance_raises_with_detail(self, stream_factory):
        result = run_partitioning(CONFIGS[0].factory, stream_factory(),
                                  num_partitions=8, num_instances=4,
                                  spread=2)
        with pytest.raises(AssertionError, match="imbalance"):
            check_balance(result, limit=0.0)


class TestStackedLatency:
    def test_rows_have_blocks(self, graph, stream_factory):
        rows = stacked_latency_experiment(
            graph, stream_factory, CONFIGS,
            workload="pagerank", block_iterations=10, num_blocks=2,
            num_partitions=8, num_instances=4, spread=2,
            enforce_balance=False)
        assert len(rows) == 2
        for row in rows:
            assert len(row.block_ms) == 2
            assert row.partitioning_ms > 0
            assert all(b > 0 for b in row.block_ms)

    def test_totals_accumulate(self, graph, stream_factory):
        rows = stacked_latency_experiment(
            graph, stream_factory, CONFIGS,
            workload="pagerank", block_iterations=10, num_blocks=3,
            num_partitions=8, num_instances=4, spread=2,
            enforce_balance=False)
        row = rows[0]
        assert (row.total_after_blocks(1) < row.total_after_blocks(2)
                < row.total_after_blocks(3) == row.total_ms)

    def test_program_factory_mode(self, graph, stream_factory):
        from repro.engine.algorithms import ConnectedComponents

        rows = stacked_latency_experiment(
            graph, stream_factory, CONFIGS[:1],
            workload="pagerank", block_iterations=30, num_blocks=1,
            program_factory=lambda g: ConnectedComponents(),
            num_partitions=8, num_instances=4, spread=2,
            enforce_balance=False)
        assert rows[0].block_ms[0] > 0

    def test_unknown_workload_rejected(self, graph, stream_factory):
        with pytest.raises(KeyError):
            stacked_latency_experiment(
                graph, stream_factory, CONFIGS, workload="nope",
                num_partitions=8, num_instances=4, spread=2)

    def test_measured_wall_next_to_simulated(self, graph, stream_factory):
        """measure_wall=True runs each block on the cluster runtime and
        records real wall-clock next to the simulated latency."""
        rows = stacked_latency_experiment(
            graph, stream_factory, CONFIGS,
            workload="pagerank", block_iterations=5, num_blocks=2,
            num_partitions=8, num_instances=4, spread=2,
            enforce_balance=False, measure_wall=True)
        for row in rows:
            assert len(row.block_wall_ms) == len(row.block_ms) == 2
            assert all(wall > 0 for wall in row.block_wall_ms)
            assert row.total_wall_ms == pytest.approx(
                sum(row.block_wall_ms))

    def test_measured_wall_with_program_factory(self, graph,
                                                stream_factory):
        from repro.engine.algorithms import ConnectedComponents

        rows = stacked_latency_experiment(
            graph, stream_factory, CONFIGS[:1],
            workload="pagerank", block_iterations=30, num_blocks=1,
            program_factory=lambda g: ConnectedComponents(),
            num_partitions=8, num_instances=4, spread=2,
            enforce_balance=False, measure_wall=True)
        assert rows[0].block_wall_ms[0] > 0

    def test_wall_defaults_off(self, graph, stream_factory):
        rows = stacked_latency_experiment(
            graph, stream_factory, CONFIGS[:1],
            workload="pagerank", block_iterations=5, num_blocks=1,
            num_partitions=8, num_instances=4, spread=2,
            enforce_balance=False)
        assert rows[0].block_wall_ms == []
        assert rows[0].total_wall_ms == 0.0


class TestReplicationSweep:
    def test_rows_match_configs(self, stream_factory):
        rows = replication_sweep(stream_factory, CONFIGS,
                                 num_partitions=8, num_instances=4,
                                 spread=2, enforce_balance=False)
        assert [r.label for r in rows] == ["HDRF", "ADWISE"]
        for row in rows:
            assert row.replication_degree >= 1.0
            assert row.block_ms == []


class TestSpotlightSweep:
    def test_shape_of_results(self, stream_factory):
        results = spotlight_sweep(stream_factory, CONFIGS, spreads=(2, 8),
                                  num_partitions=8, num_instances=4)
        assert set(results) == {"HDRF", "ADWISE"}
        for per_spread in results.values():
            assert set(per_spread) == {2, 8}


class TestWorkloadSpecs:
    def test_paper_graphs_registry(self):
        assert set(PAPER_GRAPHS) == {"orkut", "brain", "web"}

    @pytest.mark.parametrize("key", ["orkut", "brain", "web"])
    def test_specs_build_and_stream(self, key):
        spec = PAPER_GRAPHS[key]
        graph = spec.build()
        assert graph.num_edges > 1000
        stream = spec.stream()
        assert len(stream) == graph.num_edges

    def test_stream_orders_are_permutations(self):
        spec = PAPER_GRAPHS["web"]
        adjacency = list(spec.stream(order="adjacency"))
        local = list(spec.stream(order="local-shuffle"))
        shuffled_order = list(spec.stream(order="shuffled"))
        assert sorted(adjacency) == sorted(local) == sorted(shuffled_order)
        assert adjacency != local
        assert adjacency != shuffled_order

    def test_unknown_order_rejected(self):
        with pytest.raises(ValueError):
            PAPER_GRAPHS["web"].stream(order="sorted")

    def test_orkut_disables_clustering_score(self):
        assert not PAPER_GRAPHS["orkut"].use_clustering_score
        assert PAPER_GRAPHS["brain"].use_clustering_score

    def test_adwise_factory_builds_partitioner(self):
        from repro.simtime import SimulatedClock

        factory = adwise_factory(100.0, use_clustering=False, fixed_window=4)
        partitioner = factory([0, 1], SimulatedClock())
        assert isinstance(partitioner, AdwisePartitioner)
        assert partitioner.latency_preference_ms == 100.0
        assert not partitioner.use_clustering

    def test_baseline_factories_complete(self):
        from repro.simtime import SimulatedClock

        factories = baseline_factories()
        assert set(factories) == {"Hash", "Grid", "DBH", "HDRF", "Greedy"}
        for factory in factories.values():
            partitioner = factory([0, 1], SimulatedClock())
            assert partitioner.partitions == [0, 1]
