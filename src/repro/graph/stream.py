"""Edge streams — the input model of streaming partitioning.

A stream is a single-pass, ordered sequence of edges with a *known or
estimated length*; the adaptive window controller uses the number of
remaining edges to budget its latency preference (condition C2 in the
paper).  Streams deliberately expose an iterator-with-length interface
instead of a plain iterator.
"""

from __future__ import annotations

import os
import random
from typing import Iterable, Iterator, List, Optional

import numpy as np

from repro.graph.graph import Edge
from repro.graph.io import (
    byte_spans,
    count_edges,
    count_edges_span,
    iter_edge_blocks,
    iter_edge_file,
    iter_edge_file_span,
)


class EdgeStream:
    """A single-pass stream of edges of known total length."""

    def __iter__(self) -> Iterator[Edge]:
        raise NotImplementedError

    def __len__(self) -> int:
        """Total number of edges the stream will deliver."""
        raise NotImplementedError


def _as_edge(pair) -> Edge:
    u, v = pair
    return tuple.__new__(Edge, (u, v))  # without Edge's Python ``__new__``


class InMemoryEdgeStream(EdgeStream):
    """Stream over an in-memory edge sequence (tests, generators)."""

    def __init__(self, edges: Iterable) -> None:
        # The list is copied; an Edge is kept as it is, and only a plain
        # pair becomes one.
        self._edges = [edge if type(edge) is Edge else _as_edge(edge)
                       for edge in edges]

    def __iter__(self) -> Iterator[Edge]:
        return iter(self._edges)

    def __len__(self) -> int:
        return len(self._edges)

    @property
    def edges(self) -> List[Edge]:
        return self._edges


class FileEdgeStream(EdgeStream):
    """Stream edges from an edge-list file.

    The length is determined by a line-count pass on construction — the same
    mechanism the paper suggests ("line count on the graph file").
    """

    def __init__(self, path: "str | os.PathLike") -> None:
        self._path = os.fspath(path)
        self._length = count_edges(self._path)

    def __iter__(self) -> Iterator[Edge]:
        return iter_edge_file(self._path)

    def blocks(self) -> Iterator[np.ndarray]:
        """The stream as ``(n, 2)`` int64 arrays — no object per edge."""
        return iter_edge_blocks(self._path)

    def __len__(self) -> int:
        return self._length

    @property
    def path(self) -> str:
        return self._path


class FileChunkStream(EdgeStream):
    """Stream edges from one byte span ``[start, end)`` of an edge file.

    The out-of-core unit of parallel loading: a chunk is just
    ``(path, start, end)`` — trivially picklable across a process
    boundary — and iterating it reads only that slice of the file, so
    ``z`` workers can stream a multi-GB input concurrently without any
    of them materialising the graph.  Spans must lie on line boundaries
    (see :func:`repro.graph.io.byte_spans`).
    """

    def __init__(self, path: "str | os.PathLike", start: int, end: int,
                 length: Optional[int] = None) -> None:
        self._path = os.fspath(path)
        self.start = start
        self.end = end
        # Counted lazily on first __len__: only window-based partitioners
        # read stream lengths, and deferring the counting pass keeps it
        # out of the parent process — each worker counts its own slice.
        self._length = length

    def __iter__(self) -> Iterator[Edge]:
        return iter_edge_file_span(self._path, self.start, self.end)

    def blocks(self) -> Iterator[np.ndarray]:
        """The chunk as ``(n, 2)`` int64 arrays — no object per edge."""
        return iter_edge_blocks(self._path, self.start, self.end)

    def __len__(self) -> int:
        if self._length is None:
            self._length = count_edges_span(self._path, self.start, self.end)
        return self._length

    @property
    def path(self) -> str:
        return self._path

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FileChunkStream({self._path!r}, "
                f"[{self.start}, {self.end}))")


def chunk_file_stream(path: "str | os.PathLike",
                      num_chunks: int) -> List[FileChunkStream]:
    """Split an edge file into ``num_chunks`` out-of-core chunk streams.

    Byte-offset analogue of :func:`chunk_stream`: spans are contiguous,
    line-aligned, and cover the file exactly once, so concatenating the
    chunks reproduces :func:`repro.graph.io.iter_edge_file` order.
    Chunk sizes are near-equal in *bytes* rather than edges — the
    realistic splitting a distributed file system offers.
    """
    return [FileChunkStream(path, start, end)
            for start, end in byte_spans(path, num_chunks)]


def shuffled(edges: Iterable[Edge], seed: int = 0) -> InMemoryEdgeStream:
    """Return an in-memory stream with edges in random order.

    Streaming partitioners are sensitive to stream order; evaluations use a
    fixed seed so runs are reproducible.
    """
    rng = random.Random(seed)
    pool = list(edges)
    rng.shuffle(pool)
    return InMemoryEdgeStream(pool)


def locally_shuffled(edges: Iterable[Edge], buffer_size: int = 1024,
                     seed: int = 0) -> InMemoryEdgeStream:
    """Reservoir-style running shuffle: local disorder, global order kept.

    Maintains a buffer of ``buffer_size`` edges and repeatedly emits a
    random buffer element, so each edge lands near its original position
    but local neighborhoods are scrambled.  This models real-world edge
    files (crawl / export order): strong coarse-grained locality with fine-
    grained disorder — exactly the regime where a window-based partitioner
    can recover locality that single-edge streaming loses.
    """
    if buffer_size < 1:
        raise ValueError("buffer_size must be >= 1")
    rng = random.Random(seed)
    buffer: List[Edge] = []
    out: List[Edge] = []
    for edge in edges:
        buffer.append(edge)
        if len(buffer) > buffer_size:
            index = rng.randrange(len(buffer))
            buffer[index], buffer[-1] = buffer[-1], buffer[index]
            out.append(buffer.pop())
    rng.shuffle(buffer)
    out.extend(buffer)
    return InMemoryEdgeStream(out)


def chunk_stream(stream: EdgeStream, num_chunks: int) -> List[InMemoryEdgeStream]:
    """Split a stream into ``num_chunks`` contiguous, near-equal chunks.

    This models the parallel loading setup of the paper: each of the ``z``
    machines streams a disjoint contiguous chunk of the global edge file.
    Chunks differ in size by at most one edge, preserving the balanced-input
    assumption the spotlight optimisation relies on.
    """
    if num_chunks < 1:
        raise ValueError("num_chunks must be >= 1")
    edges = list(stream)
    total = len(edges)
    base, extra = divmod(total, num_chunks)
    chunks: List[InMemoryEdgeStream] = []
    start = 0
    for i in range(num_chunks):
        size = base + (1 if i < extra else 0)
        chunks.append(InMemoryEdgeStream(edges[start:start + size]))
        start += size
    return chunks
