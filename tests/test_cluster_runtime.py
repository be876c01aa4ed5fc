"""Differential layer: sharded cluster execution ≡ single-process engine.

Three equivalences, across partitioners × algorithms × shard counts:

* ``ClusterEngine`` (serial backend) must reproduce
  ``Engine(mode="dense")`` — and therefore ``Engine(mode="object")``,
  which the dense differential layer already pins — exactly: identical
  states (bit-exact for integer-state programs, ``allclose`` for float),
  supersteps, message counts, convergence, aggregates and simulated
  cost traces.
* The ``process`` backend (real worker OS processes over pipes) must be
  *bit-identical* to the serial backend — the sync combine order is
  fixed — and equivalent to the engine.
* Every syncing superstep's **measured** remote/local sync-message
  counts per machine must equal the :class:`PlacementStats` prediction
  exactly, for any machine layout — the cost model's central assumption,
  held as an invariant.

Programs outside the sharding contract must transparently run on the
unsharded fallback path with identical results.
"""

from __future__ import annotations

import math

import pytest

from repro.cluster import ClusterEngine
from repro.engine.algorithms import (
    ConnectedComponents,
    GreedyColoring,
    KCore,
    LabelPropagation,
    PageRank,
    SingleSourceShortestPaths,
)
from repro.engine.placement import Placement
from repro.engine.runtime import Engine
from repro.graph.generators import (
    barabasi_albert_graph,
    powerlaw_cluster_graph,
)
from repro.graph.graph import Graph
from repro.graph.shard import ShardedGraph
from repro.graph.stream import shuffled
from repro.partitioning.hdrf import HDRFPartitioner
from repro.partitioning.hashing import HashPartitioner


def graph_cases():
    isolated = Graph([(0, 1), (2, 3)])
    isolated.add_vertex(77)
    return {
        "isolated": isolated,
        "triangle": Graph([(0, 1), (1, 2), (0, 2)]),
        "star": Graph([(0, i) for i in range(1, 8)]),
        "path": Graph([(i, i + 1) for i in range(6)]),
        "powerlaw": barabasi_albert_graph(n=180, m=3, seed=13),
        "clustered": powerlaw_cluster_graph(n=150, m=3, p=0.8, seed=5),
    }


def program_cases():
    return {
        "pagerank": (lambda: PageRank(iterations=9), True),
        "components": (lambda: ConnectedComponents(), False),
        "sssp": (lambda: SingleSourceShortestPaths(source=0), True),
        "kcore": (lambda: KCore(k=3), False),
    }


def partitioner_cases():
    return {
        "hash": lambda parts: HashPartitioner(parts),
        "hdrf": lambda parts: HDRFPartitioner(parts),
    }


def shard_graph(graph: Graph, partitioner_name: str, k: int):
    """(assignments, ShardedGraph) for ``graph`` under one partitioner."""
    factory = partitioner_cases()[partitioner_name]
    edges = list(graph.edges())
    if edges:
        result = factory(list(range(k))).partition_stream(
            shuffled(edges, seed=3))
        assignments = result.assignments
    else:
        assignments = {}
    sharded = ShardedGraph.from_assignments(
        assignments, partitions=range(k), vertices=graph.vertices())
    return assignments, sharded


def assert_cluster_matches(engine_report, cluster_report, float_state):
    assert cluster_report.algorithm == engine_report.algorithm
    assert cluster_report.supersteps == engine_report.supersteps
    assert cluster_report.messages_sent == engine_report.messages_sent
    assert cluster_report.converged == engine_report.converged
    assert cluster_report.aggregates == engine_report.aggregates
    assert cluster_report.latency_ms == pytest.approx(
        engine_report.latency_ms)
    assert ([c.total_ms for c in cluster_report.superstep_costs]
            == pytest.approx(
                [c.total_ms for c in engine_report.superstep_costs]))
    assert set(cluster_report.states) == set(engine_report.states)
    for vertex, expected in engine_report.states.items():
        got = cluster_report.states[vertex]
        if float_state:
            if isinstance(expected, float) and math.isinf(expected):
                assert math.isinf(got)
            else:
                assert got == pytest.approx(expected, rel=1e-9, abs=1e-12)
        else:
            assert got == expected


def assert_sync_matches_prediction(cluster_report, placement: Placement):
    """Measured sync traffic of every syncing superstep == prediction."""
    stats = placement.stats()
    synced = [t for t in cluster_report.telemetry if t.synced]
    for telemetry in synced:
        for machine, predicted in stats.remote_sync_per_machine.items():
            assert telemetry.remote_per_machine.get(machine, 0) == predicted
        for machine, predicted in stats.local_sync_per_machine.items():
            assert telemetry.local_per_machine.get(machine, 0) == predicted
    unsynced = [t for t in cluster_report.telemetry if not t.synced]
    for telemetry in unsynced:
        assert telemetry.remote_messages == 0
        assert telemetry.local_messages == 0


class TestSerialDifferential:
    """Serial backend vs Engine(mode="dense"), full cross-product."""

    @pytest.mark.parametrize("graph_name", sorted(graph_cases()))
    @pytest.mark.parametrize("program_name", sorted(program_cases()))
    @pytest.mark.parametrize("partitioner_name",
                             sorted(partitioner_cases()))
    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_matches_dense_engine(self, graph_name, program_name,
                                  partitioner_name, k):
        graph = graph_cases()[graph_name]
        factory, float_state = program_cases()[program_name]
        assignments, sharded = shard_graph(graph, partitioner_name, k)
        machines = max(1, k // 2)
        cluster = ClusterEngine(sharded, backend="serial",
                                num_machines=machines)
        engine_report = Engine(graph, cluster.placement,
                               mode="dense").run(factory(),
                                                 max_supersteps=60)
        cluster_report = cluster.run(factory(), max_supersteps=60)
        assert cluster_report.sharded
        assert cluster_report.num_shards == k
        assert_cluster_matches(engine_report, cluster_report, float_state)
        assert_sync_matches_prediction(cluster_report, cluster.placement)

    def test_matches_object_engine(self):
        """Close the triangle explicitly: cluster ≡ object interpreter."""
        graph = graph_cases()["powerlaw"]
        _, sharded = shard_graph(graph, "hdrf", 4)
        cluster = ClusterEngine(sharded, backend="serial")
        object_report = Engine(graph, cluster.placement,
                               mode="object").run(ConnectedComponents(),
                                                  max_supersteps=60)
        cluster_report = cluster.run(ConnectedComponents(),
                                     max_supersteps=60)
        assert_cluster_matches(object_report, cluster_report,
                               float_state=False)


class TestProcessDifferential:
    """Process backend: real workers, pipes, and measured remote traffic."""

    @pytest.mark.parametrize("program_name", ["pagerank", "components"])
    @pytest.mark.parametrize("k,workers", [(2, 2), (4, 4), (8, 2), (8, 4)])
    def test_matches_dense_engine(self, program_name, k, workers):
        graph = graph_cases()["powerlaw"]
        factory, float_state = program_cases()[program_name]
        _, sharded = shard_graph(graph, "hdrf", k)
        cluster = ClusterEngine(sharded, backend="process",
                                num_workers=workers)
        engine_report = Engine(graph, cluster.placement,
                               mode="dense").run(factory(),
                                                 max_supersteps=60)
        cluster_report = cluster.run(factory(), max_supersteps=60)
        assert cluster_report.backend == "process"
        assert cluster_report.num_machines == workers
        assert_cluster_matches(engine_report, cluster_report, float_state)
        assert_sync_matches_prediction(cluster_report, cluster.placement)

    def test_bit_identical_to_serial(self):
        """Fixed combine association: process ≡ serial bit-for-bit,
        including float states."""
        graph = graph_cases()["clustered"]
        _, sharded = shard_graph(graph, "hash", 8)
        process = ClusterEngine(sharded, backend="process", num_workers=4)
        serial = ClusterEngine(sharded, backend="serial", num_machines=4,
                               machine_of_partition=process.machine_of)
        process_report = process.run(PageRank(iterations=6),
                                     max_supersteps=40)
        serial_report = serial.run(PageRank(iterations=6),
                                   max_supersteps=40)
        assert process_report.states == serial_report.states
        assert process_report.messages_sent == serial_report.messages_sent
        assert process_report.aggregates == serial_report.aggregates

        def traffic(report):
            return [(t.synced, t.remote_messages, t.local_messages,
                     t.remote_per_machine, t.local_per_machine,
                     t.payload_bytes) for t in report.telemetry]

        assert traffic(process_report) == traffic(serial_report)

    def test_one_worker_per_partition_all_remote(self):
        """Default deployment: every partition its own worker; all sync
        traffic crosses a process boundary."""
        graph = graph_cases()["powerlaw"]
        _, sharded = shard_graph(graph, "hash", 4)
        cluster = ClusterEngine(sharded, backend="process", num_workers=4)
        report = cluster.run(ConnectedComponents(), max_supersteps=60)
        assert report.local_sync_messages == 0
        assert report.remote_sync_messages > 0
        assert_sync_matches_prediction(report, cluster.placement)


class TestFallback:
    """Programs outside the sharding contract run unsharded, same result."""

    @pytest.mark.parametrize("factory", [
        lambda: LabelPropagation(max_iterations=10),
        lambda: GreedyColoring(max_iterations=20),
    ])
    def test_fallback_matches_engine(self, factory):
        graph = graph_cases()["powerlaw"]
        _, sharded = shard_graph(graph, "hash", 4)
        cluster = ClusterEngine(sharded, backend="serial")
        engine_report = Engine(graph, cluster.placement,
                               mode="dense").run(factory(),
                                                 max_supersteps=60)
        report = cluster.run(factory(), max_supersteps=60)
        assert not report.sharded
        assert report.telemetry == []
        assert report.wall_ms_total > 0.0
        assert_cluster_matches(engine_report, report, float_state=False)


class TestTelemetryAndGuards:
    def test_telemetry_shape(self):
        graph = graph_cases()["powerlaw"]
        _, sharded = shard_graph(graph, "hdrf", 4)
        cluster = ClusterEngine(sharded, backend="serial")
        report = cluster.run(PageRank(iterations=5), max_supersteps=40)
        assert len(report.telemetry) == report.supersteps
        for telemetry in report.telemetry:
            assert telemetry.wall_ms >= telemetry.compute_ms >= 0.0
            assert 0.0 < telemetry.active_fraction <= 1.0
        # PageRank syncs every superstep except the final halt step.
        assert [t.synced for t in report.telemetry] == [True] * 5 + [False]
        assert report.wall_ms_total == pytest.approx(
            sum(t.wall_ms for t in report.telemetry))
        assert report.sync_payload_bytes > 0

    def test_cost_trace_uses_machine_map(self):
        """Grouping partitions onto one machine turns remote traffic
        local — measured and predicted alike."""
        graph = graph_cases()["powerlaw"]
        _, sharded = shard_graph(graph, "hash", 4)
        one = ClusterEngine(sharded, backend="serial", num_machines=1)
        four = ClusterEngine(sharded, backend="serial", num_machines=4)
        report_one = one.run(ConnectedComponents(), max_supersteps=60)
        report_four = four.run(ConnectedComponents(), max_supersteps=60)
        assert report_one.remote_sync_messages == 0
        assert report_one.local_sync_messages == \
            report_four.remote_sync_messages + report_four.local_sync_messages
        assert_sync_matches_prediction(report_one, one.placement)
        assert_sync_matches_prediction(report_four, four.placement)

    def test_custom_machine_map(self):
        graph = graph_cases()["powerlaw"]
        _, sharded = shard_graph(graph, "hash", 4)
        machine_of = {0: 1, 1: 0, 2: 1, 3: 0}
        cluster = ClusterEngine(sharded, backend="serial",
                                machine_of_partition=machine_of)
        assert cluster.num_machines == 2
        report = cluster.run(ConnectedComponents(), max_supersteps=60)
        assert_sync_matches_prediction(report, cluster.placement)

    def test_rejects_bad_configuration(self):
        _, sharded = shard_graph(graph_cases()["triangle"], "hash", 2)
        with pytest.raises(ValueError):
            ClusterEngine(sharded, backend="bogus")
        with pytest.raises(ValueError):
            ClusterEngine(sharded, backend="serial", num_workers=2)
        with pytest.raises(ValueError):
            ClusterEngine(sharded, backend="process", num_workers=0)
        with pytest.raises(ValueError):
            ClusterEngine(sharded, backend="process", num_machines=2)
        with pytest.raises(ValueError, match="without a machine"):
            ClusterEngine(sharded, backend="serial",
                          machine_of_partition={0: 0})  # partition 1 missing
        with pytest.raises(ValueError):
            ClusterEngine(sharded).run(PageRank(iterations=1),
                                       max_supersteps=0)
        with pytest.raises(ValueError, match="num_machines"):
            ClusterEngine(sharded, num_machines=0)
        with pytest.raises(ValueError, match="num_machines"):
            Placement.contiguous_machine_map(sharded.partitions, 0)

    def test_machine_outside_the_layout_refused(self):
        """A machine id past ``num_machines`` is refused by name at
        construction, not left to fail inside the placement's stats."""
        _, sharded = shard_graph(graph_cases()["powerlaw"], "hash", 4)
        with pytest.raises(ValueError, match="partition 0 is on machine 5"):
            ClusterEngine(sharded,
                          machine_of_partition={0: 5, 1: 5, 2: 7, 3: 7})
        with pytest.raises(ValueError, match="partition 3 is on machine 2"):
            ClusterEngine(sharded, num_machines=2,
                          machine_of_partition={0: 0, 1: 1, 2: 1, 3: 2})

    def test_single_partition_no_sync(self):
        graph = graph_cases()["triangle"]
        _, sharded = shard_graph(graph, "hash", 1)
        cluster = ClusterEngine(sharded, backend="serial")
        report = cluster.run(ConnectedComponents(), max_supersteps=60)
        assert report.remote_sync_messages == 0
        assert report.local_sync_messages == 0
        engine_report = Engine(graph, cluster.placement,
                               mode="dense").run(ConnectedComponents(),
                                                 max_supersteps=60)
        assert_cluster_matches(engine_report, report, float_state=False)
