"""Unit tests for graph statistics."""

import pytest

from repro.graph.graph import Graph
from repro.graph.stats import (
    GraphSummary,
    average_clustering,
    degree_histogram,
    degree_skewness,
    degrees,
    local_clustering,
    max_degree,
    summarize,
)


class TestDegrees:
    def test_degrees_map(self, star):
        d = degrees(star)
        assert d[0] == 5
        assert all(d[i] == 1 for i in range(1, 6))

    def test_max_degree(self, star):
        assert max_degree(star) == 5

    def test_max_degree_empty(self):
        assert max_degree(Graph()) == 0

    def test_degree_histogram(self, star):
        assert degree_histogram(star) == {5: 1, 1: 5}


class TestClustering:
    def test_triangle_full_clustering(self, triangle):
        assert local_clustering(triangle, 0) == 1.0
        assert average_clustering(triangle) == 1.0

    def test_star_zero_clustering(self, star):
        assert average_clustering(star) == 0.0

    def test_degree_one_defined_zero(self, path_graph):
        assert local_clustering(path_graph, 0) == 0.0

    def test_path_middle_zero(self, path_graph):
        assert local_clustering(path_graph, 2) == 0.0

    def test_square_with_diagonal(self):
        graph = Graph([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        # Vertices 1 and 3 have both neighbors connected: coefficient 1.
        assert local_clustering(graph, 1) == 1.0
        # Vertex 0 has neighbors {1,2,3}; links among them: (1,2),(2,3) = 2/3.
        assert local_clustering(graph, 0) == pytest.approx(2 / 3)

    def test_sampled_estimate_close_to_exact(self, small_clustered):
        exact = average_clustering(small_clustered, sample_size=None)
        sampled = average_clustering(small_clustered, sample_size=100, seed=1)
        assert abs(exact - sampled) < 0.15

    def test_sample_larger_than_graph_is_exact(self, triangle):
        assert average_clustering(triangle, sample_size=100) == 1.0

    @pytest.mark.parametrize("sample_size", [0, -1])
    def test_sample_below_one_rejected(self, triangle, sample_size):
        with pytest.raises(ValueError, match="sample_size"):
            average_clustering(triangle, sample_size=sample_size)

    def test_empty_graph(self):
        assert average_clustering(Graph()) == 0.0


class TestSkewness:
    def test_regular_graph_zero_skew(self):
        cycle = Graph([(i, (i + 1) % 6) for i in range(6)])
        assert degree_skewness(cycle) == 0.0

    def test_star_positive_skew(self, star):
        assert degree_skewness(star) > 0.0

    def test_tiny_graph_zero(self):
        assert degree_skewness(Graph([(0, 1)])) == 0.0


class TestSummary:
    def test_summarize_fields(self, two_triangles):
        summary = summarize("toy", two_triangles, clustering_sample=None)
        assert summary.name == "toy"
        assert summary.num_vertices == 5
        assert summary.num_edges == 6
        assert summary.max_degree == 4
        assert 0.0 < summary.clustering <= 1.0

    def test_row_renders(self, triangle):
        summary = summarize("tri", triangle, clustering_sample=None)
        row = summary.row()
        assert "tri" in row
        assert "3" in row
