"""Tests for the CSR graph snapshot (the dense engine's substrate)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.csr import CSRGraph
from repro.graph.graph import Graph
from repro.graph.stream import InMemoryEdgeStream

edge_list_strategy = st.lists(
    st.tuples(st.integers(0, 40), st.integers(0, 40)).filter(
        lambda t: t[0] != t[1]),
    max_size=120)


def graph_of(edges, vertices=()) -> Graph:
    graph = Graph(edges)
    for v in vertices:
        graph.add_vertex(v)
    return graph


class TestConstruction:
    def test_from_graph_matches_adjacency(self, two_triangles):
        csr = CSRGraph.from_graph(two_triangles)
        assert csr.num_vertices == two_triangles.num_vertices
        assert csr.num_edges == two_triangles.num_edges
        for index in range(csr.num_vertices):
            vid = csr.original_id(index)
            expected = sorted(two_triangles.neighbors(vid))
            got = [csr.original_id(j) for j in csr.neighbors(index)]
            assert got == expected
            assert csr.degree(index) == two_triangles.degree(vid)

    def test_vertex_ids_sorted_and_remap_consistent(self):
        csr = CSRGraph.from_edges([(30, 7), (7, 100), (100, 2)])
        assert list(csr.vertex_ids) == sorted(csr.vertex_ids)
        for vid, index in csr.index_of.items():
            assert csr.original_id(index) == vid

    def test_neighbor_rows_sorted(self):
        csr = CSRGraph.from_edges([(0, 9), (0, 3), (0, 5), (3, 9)])
        for index in range(csr.num_vertices):
            row = csr.neighbors(index)
            assert list(row) == sorted(row)

    def test_parallel_edges_collapse(self):
        csr = CSRGraph.from_edges([(1, 2), (2, 1), (1, 2)])
        assert csr.num_edges == 1
        assert list(csr.degrees) == [1, 1]

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edges([(0, 1), (2, 2)])

    def test_isolated_vertices_kept(self):
        graph = graph_of([(0, 1)], vertices=[5, 9])
        csr = CSRGraph.from_graph(graph)
        assert csr.num_vertices == 4
        assert csr.degree(csr.index_of[5]) == 0
        assert csr.degree(csr.index_of[9]) == 0

    def test_empty_graph(self):
        csr = CSRGraph.from_graph(Graph())
        assert csr.num_vertices == 0
        assert csr.num_edges == 0
        assert list(csr.indptr) == [0]
        assert len(csr.rows) == 0

    def test_from_edges_reads_a_stream(self):
        csr = CSRGraph.from_edges(InMemoryEdgeStream([(4, 2), (2, 9)]))
        assert csr.num_edges == 2
        assert list(csr.vertex_ids) == [2, 4, 9]

    def test_indices_dtype_compact(self):
        csr = CSRGraph.from_edges([(0, 1)])
        assert csr.indices.dtype == np.int32


class TestLayoutInvariants:
    def test_rows_matches_indptr(self, small_powerlaw):
        csr = CSRGraph.from_graph(small_powerlaw)
        for index in range(csr.num_vertices):
            start, end = csr.indptr[index], csr.indptr[index + 1]
            assert (csr.rows[start:end] == index).all()

    def test_each_edge_twice(self, small_powerlaw):
        csr = CSRGraph.from_graph(small_powerlaw)
        assert len(csr.indices) == 2 * csr.num_edges
        # Symmetry: (u, v) is a slot iff (v, u) is.
        directed = set(zip(csr.rows.tolist(), csr.indices.tolist()))
        assert directed == {(v, u) for u, v in directed}

    @settings(max_examples=60, deadline=None)
    @given(edges=edge_list_strategy)
    def test_equivalent_to_graph(self, edges):
        graph = graph_of(edges)
        csr = CSRGraph.from_graph(graph)
        assert csr.num_vertices == graph.num_vertices
        assert csr.num_edges == graph.num_edges
        adjacency = {
            csr.original_id(i): {csr.original_id(j)
                                 for j in csr.neighbors(i)}
            for i in range(csr.num_vertices)}
        assert adjacency == {v: set(graph.neighbors(v))
                             for v in graph.vertices()}

    @settings(max_examples=40, deadline=None)
    @given(edges=edge_list_strategy)
    def test_from_edges_matches_from_graph(self, edges):
        graph = graph_of(edges)
        via_graph = CSRGraph.from_graph(graph)
        via_edges = CSRGraph.from_edges(edges)
        assert (via_graph.vertex_ids == via_edges.vertex_ids).all()
        assert (via_graph.indptr == via_edges.indptr).all()
        assert (via_graph.indices == via_edges.indices).all()
