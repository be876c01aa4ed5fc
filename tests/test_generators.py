"""Unit tests for the synthetic graph generators.

These verify the structural properties the substitution argument in
DESIGN.md relies on: edge counts, degree skew, and the clustering
coefficient bands of the three Table II analogues.
"""

import re

import pytest
from _generator_reference import (
    powerlaw_cluster_graph as reference_powerlaw_cluster_graph,
)

from repro.graph.generators import (
    barabasi_albert_graph,
    brain_like_graph,
    orkut_like_graph,
    powerlaw_cluster_graph,
    rmat_graph,
    watts_strogatz_graph,
    web_like_graph,
)
from repro.graph.graph import Edge
from repro.graph.stats import average_clustering, degree_skewness, max_degree
from repro.graph.stream import InMemoryEdgeStream, shuffled


class TestBarabasiAlbert:
    def test_vertex_and_edge_counts(self):
        graph = barabasi_albert_graph(100, 3, seed=1)
        assert graph.num_vertices == 100
        # m seed edges + m per newcomer
        assert graph.num_edges == 3 + 3 * (100 - 4)

    def test_deterministic(self):
        a = barabasi_albert_graph(50, 2, seed=9)
        b = barabasi_albert_graph(50, 2, seed=9)
        assert set(a.edges()) == set(b.edges())

    def test_seed_changes_graph(self):
        a = barabasi_albert_graph(50, 2, seed=1)
        b = barabasi_albert_graph(50, 2, seed=2)
        assert set(a.edges()) != set(b.edges())

    def test_degree_skew_positive(self):
        graph = barabasi_albert_graph(500, 3, seed=4)
        assert degree_skewness(graph) > 1.0

    def test_low_clustering(self):
        graph = barabasi_albert_graph(1000, 4, seed=4)
        assert average_clustering(graph, sample_size=None) < 0.12

    def test_rejects_m_ge_n(self):
        with pytest.raises(ValueError):
            barabasi_albert_graph(5, 5)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            barabasi_albert_graph(0, 1)


class TestPowerlawCluster:
    def test_counts(self):
        graph = powerlaw_cluster_graph(100, 3, 0.8, seed=1)
        assert graph.num_vertices == 100
        assert graph.num_edges == 3 + 3 * (100 - 4)

    def test_clustering_above_ba(self):
        pl = powerlaw_cluster_graph(400, 3, 0.9, seed=2)
        ba = barabasi_albert_graph(400, 3, seed=2)
        assert (average_clustering(pl, sample_size=None)
                > average_clustering(ba, sample_size=None))

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            powerlaw_cluster_graph(10, 2, 1.5)

    def test_deterministic(self):
        a = powerlaw_cluster_graph(60, 2, 0.7, seed=3)
        b = powerlaw_cluster_graph(60, 2, 0.7, seed=3)
        assert set(a.edges()) == set(b.edges())


def same_graph(graph, control):
    """Edge for edge in ``edges()`` order, vertex for vertex in insertion
    order, and every adjacency set in its iteration order (what the next
    triad step, and every later stream, reads)."""
    assert list(graph.edges()) == list(control.edges())
    assert graph.num_edges == control.num_edges
    assert list(graph.vertices()) == list(control.vertices())
    assert ([list(graph.neighbors(v)) for v in graph.vertices()]
            == [list(control.neighbors(v)) for v in control.vertices()])


class TestPowerlawClusterIdentity:
    """The triad step draws from a sequence over the hub's neighbours
    instead of a list built from them: the same random numbers, the
    same targets, so the same graph as the list-building generator kept
    in ``tests/_generator_reference.py`` — at p = 0 (no triad step),
    1 (a triad step after every attachment) and in between, at m = 1
    (a hub's candidates are all but one of its neighbours) and
    m = n - 1 (the seed star alone)."""

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("n, m", [(60, 1), (60, 4), (60, 59), (2, 1),
                                      (400, 12)])
    def test_same_graph_as_the_list_building_generator(self, n, m, p, seed):
        same_graph(powerlaw_cluster_graph(n, m, p, seed=seed),
                   reference_powerlaw_cluster_graph(n, m, p, seed=seed))

    def test_edges_are_the_per_edge_walk(self):
        """``Graph.edges()`` builds each ``Edge`` without its Python
        ``__new__``: still ``Edge`` instances, in the nested walk's order."""
        graph = powerlaw_cluster_graph(200, 5, 0.6, seed=4)
        walked = [Edge(u, v) for u in graph.vertices()
                  for v in graph.neighbors(u) if u < v]
        edges = list(graph.edges())
        assert edges == walked
        assert {type(edge) for edge in edges} == {Edge}
        assert [edge.canonical() for edge in edges] == edges


class TestInMemoryStreams:
    def test_pairs_become_edges(self):
        pairs = [(3, 1), [4, 5], Edge(6, 2), (7, 7)]
        for stream in (InMemoryEdgeStream(pairs), shuffled(pairs, seed=0)):
            assert {type(edge) for edge in stream} == {Edge}
            assert sorted(stream) == sorted(Edge(u, v) for u, v in pairs)

    @pytest.mark.parametrize("pair", [(1, 2, 3), (1,), (), 5, None])
    @pytest.mark.parametrize("build", [InMemoryEdgeStream, shuffled])
    def test_a_malformed_pair_raises_what_unpacking_raises(self, build,
                                                          pair):
        try:
            u, v = pair
        except (TypeError, ValueError) as error:
            expected = error
        with pytest.raises(type(expected), match=re.escape(str(expected))):
            build([(1, 2), pair])


class TestWattsStrogatz:
    def test_ring_lattice_degree(self):
        graph = watts_strogatz_graph(20, 4, 0.0, seed=1)
        assert all(graph.degree(v) == 4 for v in graph.vertices())
        assert graph.num_edges == 20 * 2

    def test_rewired_preserves_edge_count(self):
        graph = watts_strogatz_graph(50, 4, 0.3, seed=1)
        assert graph.num_edges == 50 * 2

    def test_high_clustering_at_low_p(self):
        graph = watts_strogatz_graph(100, 6, 0.05, seed=1)
        assert average_clustering(graph, sample_size=None) > 0.3

    def test_odd_k_rejected(self):
        with pytest.raises(ValueError):
            watts_strogatz_graph(10, 3, 0.1)


class TestRmat:
    def test_vertex_id_range(self):
        graph = rmat_graph(scale=6, edge_factor=4, seed=1)
        assert all(0 <= v < 64 for v in graph.vertices())

    def test_skewed_degrees(self):
        graph = rmat_graph(scale=9, edge_factor=8, seed=2)
        assert degree_skewness(graph) > 1.0

    def test_invalid_probabilities(self):
        with pytest.raises(ValueError):
            rmat_graph(4, 2, a=0.6, b=0.3, c=0.2)


class TestWebLike:
    def test_community_structure_gives_high_clustering(self):
        graph = web_like_graph(num_communities=15, community_size=10, seed=1)
        assert average_clustering(graph, sample_size=None) > 0.6

    def test_hub_vertices_have_high_degree(self):
        graph = web_like_graph(num_communities=20, community_size=8,
                               inter_edges=3, seed=1)
        # Hubs are vertices 0, 8, 16, ... — the max degree vertex is a hub.
        hubs = {c * 8 for c in range(20)}
        degrees = {v: graph.degree(v) for v in graph.vertices()}
        top = max(degrees, key=degrees.get)
        assert top in hubs

    def test_small_community_rejected(self):
        with pytest.raises(ValueError):
            web_like_graph(5, 2)


class TestTableIIAnalogues:
    """The three analogues must land in their clustering bands (Table II)."""

    def test_orkut_band_low(self):
        graph = orkut_like_graph(n=1500, m=8, seed=7)
        assert average_clustering(graph, sample_size=None) < 0.12

    def test_brain_band_moderate(self):
        graph = brain_like_graph(n=1500, m=8, p=0.92, seed=7)
        c = average_clustering(graph, sample_size=None)
        assert 0.2 < c < 0.7

    def test_web_band_high(self):
        graph = web_like_graph(num_communities=100, community_size=14,
                               intra_p=0.92, seed=7)
        assert average_clustering(graph, sample_size=None) > 0.7

    def test_band_ordering_matches_paper(self):
        orkut = orkut_like_graph(n=1200, m=8, seed=7)
        brain = brain_like_graph(n=1200, m=8, seed=7)
        web = web_like_graph(num_communities=80, community_size=14, seed=7)
        c_orkut = average_clustering(orkut, sample_size=None)
        c_brain = average_clustering(brain, sample_size=None)
        c_web = average_clustering(web, sample_size=None)
        assert c_orkut < c_brain < c_web
