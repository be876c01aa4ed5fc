"""Correctness tests for the vertex-centric workload algorithms."""

import math

import pytest
from _hops import QUORUM, HopDistance

from repro.cluster import ClusterEngine
from repro.graph.graph import Graph
from repro.graph.shard import ShardedGraph
from repro.engine.placement import Placement
from repro.engine.runtime import Engine
from repro.engine.algorithms import (
    CliqueSearch,
    ConnectedComponents,
    CycleSearch,
    GreedyColoring,
    PageRank,
)


def engine_for(graph: Graph, k: int = 4, machines: int = 2) -> Engine:
    """All-on-one-partition placement; correctness must not depend on it."""
    assignments = {e: hash((e.u, e.v)) % k for e in graph.edges()}
    placement = Placement(assignments, partitions=list(range(k)),
                          num_machines=machines)
    return Engine(graph, placement)


class TestPageRank:
    def test_total_rank_conserved(self, small_powerlaw):
        engine = engine_for(small_powerlaw)
        report = engine.run(PageRank(iterations=10), max_supersteps=12)
        assert sum(report.states.values()) == pytest.approx(
            small_powerlaw.num_vertices, rel=1e-6)

    def test_hub_ranks_highest_on_star(self, star):
        engine = engine_for(star)
        report = engine.run(PageRank(iterations=20), max_supersteps=25)
        ranks = report.states
        assert ranks[0] == max(ranks.values())

    def test_symmetric_graph_uniform_ranks(self):
        cycle = Graph([(i, (i + 1) % 6) for i in range(6)])
        engine = engine_for(cycle)
        report = engine.run(PageRank(iterations=30), max_supersteps=35)
        values = list(report.states.values())
        assert max(values) - min(values) < 1e-9

    def test_converges_after_iterations(self, triangle):
        engine = engine_for(triangle)
        report = engine.run(PageRank(iterations=5), max_supersteps=10)
        assert report.converged

    def test_invalid_iterations(self):
        with pytest.raises(ValueError):
            PageRank(iterations=0)

    def test_is_stationary(self):
        assert PageRank().is_stationary()


class TestColoring:
    @pytest.mark.parametrize("fixture_name", [
        "triangle", "star", "two_triangles", "small_clustered"])
    def test_produces_proper_coloring(self, fixture_name, request):
        graph = request.getfixturevalue(fixture_name)
        engine = engine_for(graph)
        report = engine.run(GreedyColoring(max_iterations=30),
                            max_supersteps=32)
        colors = report.states
        conflicts = [e for e in graph.edges() if colors[e.u] == colors[e.v]]
        assert conflicts == []

    def test_triangle_needs_three_colors(self, triangle):
        engine = engine_for(triangle)
        report = engine.run(GreedyColoring(max_iterations=20),
                            max_supersteps=22)
        assert len(set(report.states.values())) == 3

    def test_star_needs_two_colors(self, star):
        engine = engine_for(star)
        report = engine.run(GreedyColoring(max_iterations=20),
                            max_supersteps=22)
        assert len(set(report.states.values())) == 2

    def test_invalid_iterations(self):
        with pytest.raises(ValueError):
            GreedyColoring(max_iterations=0)


class TestComponents:
    def test_single_component(self, small_powerlaw):
        engine = engine_for(small_powerlaw)
        report = engine.run(ConnectedComponents(), max_supersteps=100)
        assert len(set(report.states.values())) == 1
        assert report.converged

    def test_two_components(self):
        graph = Graph([(0, 1), (1, 2), (10, 11)])
        engine = engine_for(graph)
        report = engine.run(ConnectedComponents(), max_supersteps=20)
        labels = report.states
        assert labels[0] == labels[1] == labels[2] == 0
        assert labels[10] == labels[11] == 10

    def test_labels_are_component_minima(self, two_triangles):
        engine = engine_for(two_triangles)
        report = engine.run(ConnectedComponents(), max_supersteps=20)
        assert set(report.states.values()) == {0}


def run_hops(graph: Graph, engine: str, source: int = 0, quorum: int = 0):
    """The test-only hop program on ``engine``: the object or dense
    interpreter, or a cluster run (serial, or two worker processes)."""
    k = 4
    assignments = {e: hash((e.u, e.v)) % k for e in graph.edges()}
    program = HopDistance(source, quorum)
    if engine in ("object", "dense"):
        placement = Placement(assignments, partitions=list(range(k)),
                              num_machines=2)
        return Engine(graph, placement, mode=engine).run(
            program, max_supersteps=20)
    sharded = ShardedGraph.from_assignments(assignments, partitions=range(k))
    layout = {"num_workers": 2} if engine == "process" else {}
    return ClusterEngine(sharded, backend=engine, **layout).run(
        program, max_supersteps=20)


@pytest.mark.parametrize("engine", ["object", "dense", "serial", "process"])
class TestHopDistance:
    """Answers known by hand on every engine: the differential suites
    only hold the engines equal to each other."""

    def test_path_distances(self, path_graph, engine):
        report = run_hops(path_graph, engine)
        assert [report.states[i] for i in range(5)] == [0, 1, 2, 3, 4]
        # Seeding, one improvement per hop, then the far end's relay.
        assert report.aggregates == [0, 1, 1, 1, 1, 0]
        assert report.supersteps == 6 and report.converged
        assert report.messages_sent == 8

    def test_quorum_ends_the_run_before_the_frontier_dies(self, path_graph,
                                                          engine):
        report = run_hops(path_graph, engine, quorum=QUORUM)
        assert [report.states[i] for i in range(2)] == [0, 1]
        assert all(math.isinf(report.states[i]) for i in range(2, 5))
        assert report.aggregates == [0, 1]
        assert report.supersteps == 2

    def test_triangle_distances(self, triangle, engine):
        assert run_hops(triangle, engine).states == {0: 0, 1: 1, 2: 1}

    def test_unreachable_infinite(self, engine):
        states = run_hops(Graph([(0, 1), (5, 6)]), engine).states
        assert states[1] == 1
        assert math.isinf(states[5]) and math.isinf(states[6])

    def test_shortest_over_alternative_routes(self, engine):
        # Square plus a chord: 0-1-2 vs 0-3-2; the chord 0-2 is direct.
        graph = Graph([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        assert run_hops(graph, engine).states == {0: 0, 1: 1, 2: 1, 3: 1}

    def test_absent_source_reaches_nothing(self, path_graph, engine):
        report = run_hops(path_graph, engine, source=99)
        assert all(math.isinf(d) for d in report.states.values())
        assert report.supersteps == 1
        assert report.messages_sent == 0


class TestCycleSearch:
    def test_finds_triangle(self, triangle):
        engine = engine_for(triangle)
        program = CycleSearch(cycle_length=3, seeds=[0], fanout=3, seed=1)
        report = engine.run(program, max_supersteps=5)
        assert sum(report.states.values()) >= 1

    def test_no_cycles_in_tree(self, star):
        engine = engine_for(star)
        program = CycleSearch(cycle_length=3, seeds=[0, 1], fanout=5, seed=1)
        report = engine.run(program, max_supersteps=6)
        assert sum(report.states.values()) == 0

    def test_finds_square(self):
        graph = Graph([(0, 1), (1, 2), (2, 3), (3, 0)])
        engine = engine_for(graph)
        program = CycleSearch(cycle_length=4, seeds=[0], fanout=4, seed=1)
        report = engine.run(program, max_supersteps=6)
        assert sum(report.states.values()) >= 1

    def test_wrong_length_not_found(self):
        graph = Graph([(0, 1), (1, 2), (2, 3), (3, 0)])  # only a 4-cycle
        engine = engine_for(graph)
        program = CycleSearch(cycle_length=3, seeds=[0, 1, 2, 3],
                              fanout=4, seed=1)
        report = engine.run(program, max_supersteps=6)
        assert sum(report.states.values()) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            CycleSearch(cycle_length=2, seeds=[0])
        with pytest.raises(ValueError):
            CycleSearch(cycle_length=5, seeds=[0], fanout=0)
        with pytest.raises(ValueError):
            CycleSearch(cycle_length=5, seeds=[0], forward_probability=0.0)


class TestCliqueSearch:
    def test_finds_triangle_clique(self, triangle):
        engine = engine_for(triangle)
        program = CliqueSearch(clique_size=3, seeds=[0, 1, 2],
                               forward_probability=1.0, seed=1)
        report = engine.run(program, max_supersteps=5)
        assert sum(report.states.values()) >= 1

    def test_finds_k4(self):
        graph = Graph([(a, b) for a in range(4) for b in range(a + 1, 4)])
        engine = engine_for(graph)
        program = CliqueSearch(clique_size=4, seeds=[0, 1, 2, 3],
                               forward_probability=1.0, fanout=4, seed=1)
        report = engine.run(program, max_supersteps=6)
        assert sum(report.states.values()) >= 1

    def test_no_clique_in_star(self, star):
        engine = engine_for(star)
        program = CliqueSearch(clique_size=3, seeds=[0, 1],
                               forward_probability=1.0, seed=1)
        report = engine.run(program, max_supersteps=5)
        assert sum(report.states.values()) == 0

    def test_probabilistic_forwarding_bounds_messages(self, small_clustered):
        engine = engine_for(small_clustered)
        eager = CliqueSearch(clique_size=4, seeds=list(range(20)),
                             forward_probability=1.0, fanout=4, seed=1)
        lazy = CliqueSearch(clique_size=4, seeds=list(range(20)),
                            forward_probability=0.3, fanout=4, seed=1)
        eager_report = engine.run(eager, max_supersteps=6)
        lazy_report = engine.run(lazy, max_supersteps=6)
        assert lazy_report.messages_sent < eager_report.messages_sent

    def test_validation(self):
        with pytest.raises(ValueError):
            CliqueSearch(clique_size=1, seeds=[0])
        with pytest.raises(ValueError):
            CliqueSearch(clique_size=3, seeds=[0], forward_probability=1.5)
        with pytest.raises(ValueError):
            CliqueSearch(clique_size=3, seeds=[0], fanout=0)
