"""Tests for engine extensions: combiners, aggregators, and the triangle
count a reader is shown writing in ``examples/custom_vertex_program.py``."""

import runpy
from pathlib import Path

import pytest

from repro.graph.graph import Graph
from repro.engine.placement import Placement
from repro.engine.runtime import Engine
from repro.engine.vertex_program import VertexProgram
from repro.engine.algorithms import PageRank

#: The example's own program (loading it does not run its ``main``).
TriangleCount = runpy.run_path(str(
    Path(__file__).resolve().parents[1] / "examples"
    / "custom_vertex_program.py"))["TriangleCount"]


def triangles(states) -> int:
    """Each triangle is counted once at each of its three corners."""
    return sum(states.values()) // 3


def engine_for(graph: Graph, k: int = 4, machines: int = 2) -> Engine:
    assignments = {e: hash((e.u, e.v)) % k for e in graph.edges()}
    placement = Placement(assignments, partitions=list(range(k)),
                          num_machines=machines)
    return Engine(graph, placement)


class TestCombiner:
    def test_pagerank_combiner_reduces_inbox_not_result(self, small_powerlaw):
        """Combined messages must not change PageRank's fixed point."""

        class UncombinedPageRank(PageRank):
            combine = VertexProgram.combine  # opt back out

        engine = engine_for(small_powerlaw)
        combined = engine.run(PageRank(iterations=10), max_supersteps=12)
        plain = engine.run(UncombinedPageRank(iterations=10),
                           max_supersteps=12)
        for vertex, rank in combined.states.items():
            assert rank == pytest.approx(plain.states[vertex], rel=1e-9)

    def test_combiner_collapses_messages(self, triangle):
        """With a sum combiner each vertex gets exactly one message."""
        received = []

        class Probe(PageRank):
            def compute(self, vertex, state, messages, neighbors, ctx):
                if ctx.superstep == 1:
                    received.append(len(messages))
                return super().compute(vertex, state, messages,
                                       neighbors, ctx)

        engine_for(triangle).run(Probe(iterations=2), max_supersteps=3)
        assert received and all(n == 1 for n in received)


class TestAggregator:
    def test_aggregates_recorded_per_superstep(self, triangle):
        class CountActive(VertexProgram):
            name = "count"

            def initial_state(self, vertex, degree):
                return 0

            def compute(self, vertex, state, messages, neighbors, ctx):
                if ctx.superstep == 0:
                    ctx.send_all(neighbors, 1)
                ctx.vote_halt()
                return state

            def aggregate(self, vertex, state):
                return 1

        report = engine_for(triangle).run(CountActive(), max_supersteps=5)
        assert report.aggregates[0] == 3  # all vertices computed step 0

    def test_should_stop_terminates_early(self, triangle):
        class StopAfterTwo(VertexProgram):
            name = "stopper"

            def initial_state(self, vertex, degree):
                return 0

            def compute(self, vertex, state, messages, neighbors, ctx):
                ctx.send_all(neighbors, 0)  # chatter forever
                return state

            def aggregate(self, vertex, state):
                return 1

            def should_stop(self, aggregate, superstep):
                return superstep >= 2

        report = engine_for(triangle).run(StopAfterTwo(), max_supersteps=50)
        assert report.supersteps == 2
        assert report.converged


class TestTriangleCount:
    def test_single_triangle(self, triangle):
        report = engine_for(triangle).run(TriangleCount(), max_supersteps=5)
        assert triangles(report.states) == 1

    def test_star_has_none(self, star):
        report = engine_for(star).run(TriangleCount(), max_supersteps=5)
        assert triangles(report.states) == 0

    def test_k4_has_four(self):
        k4 = Graph([(a, b) for a in range(4) for b in range(a + 1, 4)])
        report = engine_for(k4).run(TriangleCount(), max_supersteps=5)
        assert triangles(report.states) == 4

    def test_matches_clustering_math(self, small_clustered):
        """Cross-check against direct adjacency-set counting."""
        direct = 0
        for e in small_clustered.edges():
            common = (small_clustered.neighbors(e.u)
                      & small_clustered.neighbors(e.v))
            direct += len(common)
        direct //= 3
        report = engine_for(small_clustered).run(TriangleCount(),
                                                 max_supersteps=5)
        assert triangles(report.states) == direct
