"""Differential layer: dense (CSR/numpy) mode ≡ object mode.

Every dense kernel must reproduce the object path's observable behaviour
on the same graph and placement: identical superstep counts, message
counts, convergence flags, per-superstep aggregates and cost traces, and
identical states — bit-exact for integer-state programs (components),
``allclose`` for float-state programs (PageRank, the test-only
:class:`~_hops.HopDistance`) whose message sums may be reassociated.
Programs without a kernel must transparently fall back to the object
path.
"""

from __future__ import annotations

import math

import pytest
from _hops import HopDistance
from hypothesis import given, settings
from hypothesis import strategies as st
from test_engine_extensions import TriangleCount

from repro.graph.generators import barabasi_albert_graph
from repro.graph.graph import Graph
from repro.graph.io import read_graph
from repro.engine.placement import Placement
from repro.engine.runtime import Engine
from repro.engine.algorithms import (
    CliqueSearch,
    ConnectedComponents,
    GreedyColoring,
    PageRank,
)

edge_list_strategy = st.lists(
    st.tuples(st.integers(0, 25), st.integers(0, 25)).filter(
        lambda t: t[0] != t[1]),
    max_size=80)


def placement_for(graph: Graph, k: int = 4, machines: int = 2) -> Placement:
    assignments = {e: hash((e.u, e.v)) % k for e in graph.edges()}
    return Placement(assignments, partitions=list(range(k)),
                     num_machines=machines)


def run_both(graph, program_factory, max_supersteps=100):
    placement = placement_for(graph)
    obj = Engine(graph, placement, mode="object").run(
        program_factory(), max_supersteps=max_supersteps)
    dense = Engine(graph, placement, mode="dense").run(
        program_factory(), max_supersteps=max_supersteps)
    return obj, dense


def assert_equivalent(obj, dense, float_state=False):
    assert dense.algorithm == obj.algorithm
    assert dense.supersteps == obj.supersteps
    assert dense.messages_sent == obj.messages_sent
    assert dense.converged == obj.converged
    assert dense.aggregates == obj.aggregates
    assert dense.latency_ms == pytest.approx(obj.latency_ms)
    assert [c.total_ms for c in dense.superstep_costs] == pytest.approx(
        [c.total_ms for c in obj.superstep_costs])
    assert set(dense.states) == set(obj.states)
    for vertex, expected in obj.states.items():
        got = dense.states[vertex]
        if float_state:
            if isinstance(expected, float) and math.isinf(expected):
                assert math.isinf(got)
            else:
                assert got == pytest.approx(expected, rel=1e-9, abs=1e-12)
        else:
            assert got == expected


def graph_cases():
    isolated = Graph([(0, 1), (2, 3)])
    isolated.add_vertex(77)
    single = Graph()
    single.add_vertex(3)
    return {
        "empty": Graph(),
        "single-vertex": single,
        "isolated": isolated,
        "triangle": Graph([(0, 1), (1, 2), (0, 2)]),
        "star": Graph([(0, i) for i in range(1, 6)]),
        "path": Graph([(i, i + 1) for i in range(5)]),
        "powerlaw": barabasi_albert_graph(n=150, m=3, seed=13),
    }


def program_cases():
    return {
        "pagerank": (lambda: PageRank(iterations=12), True),
        "components": (lambda: ConnectedComponents(), False),
        "hops": (lambda: HopDistance(source=0), True),
        "hops-settled": (lambda: HopDistance(source=0, quorum=0), True),
    }


@pytest.mark.parametrize("graph_name", sorted(graph_cases()))
@pytest.mark.parametrize("program_name", sorted(program_cases()))
def test_dense_matches_object(graph_name, program_name):
    graph = graph_cases()[graph_name]
    factory, float_state = program_cases()[program_name]
    obj, dense = run_both(graph, factory)
    assert_equivalent(obj, dense, float_state=float_state)


class TestDifferentialProperties:
    """Hypothesis sweep: random graphs (with isolated vertices) per kernel."""

    @settings(max_examples=40, deadline=None)
    @given(edges=edge_list_strategy, iterations=st.integers(1, 8))
    def test_pagerank(self, edges, iterations):
        obj, dense = run_both(
            Graph(edges), lambda: PageRank(iterations=iterations))
        assert_equivalent(obj, dense, float_state=True)

    @settings(max_examples=40, deadline=None)
    @given(edges=edge_list_strategy, extra_vertex=st.integers(26, 30))
    def test_components(self, edges, extra_vertex):
        graph = Graph(edges)
        graph.add_vertex(extra_vertex)
        obj, dense = run_both(graph, ConnectedComponents)
        assert_equivalent(obj, dense)

    @settings(max_examples=40, deadline=None)
    @given(edges=edge_list_strategy, source=st.integers(0, 30),
           quorum=st.integers(0, 4))
    def test_hops(self, edges, source, quorum):
        obj, dense = run_both(Graph(edges),
                              lambda: HopDistance(source, quorum))
        assert_equivalent(obj, dense, float_state=True)

    @settings(max_examples=25, deadline=None)
    @given(edges=edge_list_strategy, cap=st.integers(1, 6))
    def test_max_supersteps_truncation(self, edges, cap):
        """Parity must hold when the cap interrupts mid-run."""
        obj, dense = run_both(
            Graph(edges), lambda: PageRank(iterations=10),
            max_supersteps=cap)
        assert_equivalent(obj, dense, float_state=True)


class TestFileBackedGraph:
    def test_differential_on_file_graph(self, tmp_path):
        graph = barabasi_albert_graph(n=120, m=2, seed=5)
        path = tmp_path / "graph.txt"
        path.write_text("".join(f"{e.u} {e.v}\n" for e in graph.edges()),
                        encoding="utf-8")
        loaded = read_graph(str(path))
        for factory, float_state in program_cases().values():
            obj, dense = run_both(loaded, factory)
            assert_equivalent(obj, dense, float_state=float_state)


class TestFallback:
    @pytest.mark.parametrize("factory", [
        lambda: GreedyColoring(max_iterations=8),
        lambda: TriangleCount(),
        lambda: CliqueSearch(3, seeds=[0, 1], seed=2),
    ])
    def test_kernel_less_program_falls_back(self, two_triangles, factory):
        assert factory().dense_kernel(None) is None
        obj, dense = run_both(two_triangles, factory, max_supersteps=20)
        # Fallback runs the identical object path: bit-exact everything.
        assert dense.states == obj.states
        assert_equivalent(obj, dense)

    def test_dense_engine_still_validates_targets(self, two_triangles):
        from repro.engine.vertex_program import VertexProgram

        class Bad(VertexProgram):
            name = "bad"

            def initial_state(self, vertex, degree):
                return 0

            def compute(self, vertex, state, messages, neighbors, ctx):
                ctx.send(999, "boom")
                return state

        engine = Engine(two_triangles, placement_for(two_triangles),
                        mode="dense")
        with pytest.raises(KeyError):
            engine.run(Bad())


class TestEngineModeApi:
    def test_unknown_mode_rejected(self, triangle):
        with pytest.raises(ValueError):
            Engine(triangle, placement_for(triangle), mode="sparse")

    def test_csr_snapshot_cached(self, triangle):
        engine = Engine(triangle, placement_for(triangle), mode="dense")
        assert engine.csr is engine.csr

    def test_invalid_max_supersteps_in_dense_mode(self, triangle):
        engine = Engine(triangle, placement_for(triangle), mode="dense")
        with pytest.raises(ValueError):
            engine.run(PageRank(iterations=2), max_supersteps=0)

    def test_aggregates_default_is_fresh_list(self):
        from repro.engine.runtime import SimulationReport

        first = SimulationReport("a", 0, 0.0, [], {}, 0, True)
        second = SimulationReport("b", 0, 0.0, [], {}, 0, True)
        assert first.aggregates == []
        first.aggregates.append(1)
        assert second.aggregates == []
