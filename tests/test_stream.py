"""Unit tests for edge streams and chunking."""

import pytest

from repro.graph.graph import Edge
from repro.graph.io import write_edges
from repro.graph.stream import (
    FileEdgeStream,
    InMemoryEdgeStream,
    chunk_stream,
    shuffled,
)


class TestInMemoryStream:
    def test_length_and_iteration(self):
        stream = InMemoryEdgeStream([Edge(0, 1), Edge(1, 2)])
        assert len(stream) == 2
        assert list(stream) == [Edge(0, 1), Edge(1, 2)]

    def test_multiple_iterations_allowed(self):
        stream = InMemoryEdgeStream([Edge(0, 1)])
        assert list(stream) == list(stream)

    def test_accepts_tuples(self):
        stream = InMemoryEdgeStream([(4, 5)])
        assert list(stream) == [Edge(4, 5)]

    @pytest.mark.parametrize("make", [
        lambda pairs: [Edge(u, v) for u, v in pairs],
        lambda pairs: [(u, v) for u, v in pairs],
        lambda pairs: ((u, v) for u, v in pairs),
        lambda pairs: [[u, v] for u, v in pairs],
    ], ids=["edges", "tuples", "generator", "lists"])
    def test_items_become_edges_in_order(self, make):
        pairs = [(3, 1), (0, 2), (2, 2), (3, 1), (7, 0)]
        items = make(pairs)
        kept = list(items) if isinstance(items, list) else None
        stream = InMemoryEdgeStream(items)
        assert stream.edges == [Edge(u, v) for u, v in pairs]
        assert all(type(edge) is Edge for edge in stream)
        if kept is not None:  # the list is copied, not aliased
            assert stream.edges is not items
            if type(kept[0]) is Edge:  # an Edge is kept as it is
                assert all(a is b for a, b in zip(stream.edges, kept))

    def test_refuses_what_is_not_a_pair(self):
        with pytest.raises(ValueError):
            InMemoryEdgeStream([(1, 2, 3)])


class TestFileStream:
    def test_length_from_line_count(self, tmp_path):
        path = tmp_path / "g.txt"
        write_edges(path, [(0, 1), (1, 2), (2, 3)])
        stream = FileEdgeStream(path)
        assert len(stream) == 3
        assert list(stream) == [Edge(0, 1), Edge(1, 2), Edge(2, 3)]


class TestShuffled:
    def test_preserves_multiset(self, small_powerlaw):
        edges = small_powerlaw.edge_list()
        stream = shuffled(edges, seed=1)
        assert sorted(stream) == sorted(edges)

    def test_deterministic_for_seed(self, small_powerlaw):
        edges = small_powerlaw.edge_list()
        assert list(shuffled(edges, seed=5)) == list(shuffled(edges, seed=5))

    def test_different_seeds_differ(self, small_powerlaw):
        edges = small_powerlaw.edge_list()
        assert list(shuffled(edges, seed=1)) != list(shuffled(edges, seed=2))


class TestChunkStream:
    def test_chunks_cover_stream(self):
        stream = InMemoryEdgeStream([Edge(i, i + 1) for i in range(10)])
        chunks = chunk_stream(stream, 3)
        assert len(chunks) == 3
        merged = [e for chunk in chunks for e in chunk]
        assert merged == list(stream)

    def test_chunk_sizes_near_equal(self):
        stream = InMemoryEdgeStream([Edge(i, i + 1) for i in range(10)])
        sizes = [len(c) for c in chunk_stream(stream, 3)]
        assert sizes == [4, 3, 3]

    def test_more_chunks_than_edges(self):
        stream = InMemoryEdgeStream([Edge(0, 1)])
        chunks = chunk_stream(stream, 4)
        assert [len(c) for c in chunks] == [1, 0, 0, 0]

    def test_invalid_chunk_count(self):
        with pytest.raises(ValueError):
            chunk_stream(InMemoryEdgeStream([]), 0)
