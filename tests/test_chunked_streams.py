"""Property-based tests for out-of-core byte-offset file chunking.

The invariant the parallel loader stands on: splitting an edge file into
byte spans and streaming each span covers every edge of the file
*exactly once*, in order, with no loss or duplication at split
boundaries — for any chunk count and any file formatting (CRLF line
endings, blank lines, comments, missing trailing newline).
"""

from __future__ import annotations

import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.graph import Edge
from repro.graph.io import (
    byte_spans,
    count_edges,
    count_edges_span,
    iter_edge_file,
    iter_edge_file_span,
)
from repro.graph.stream import FileChunkStream, chunk_file_stream

#: One logical line of an edge file: an edge (tab- or space-separated,
#: possibly with further columns), a comment, or a blank.
line_strategy = st.one_of(
    st.tuples(st.integers(-10_000, 10_000), st.integers(0, 10_000),
              st.sampled_from([" ", "\t", "  "]),
              st.sampled_from(["", " 0.5", "\t3 x", " "])).map(
        lambda t: f"{t[0]}{t[2]}{t[1]}{t[3]}"),
    st.sampled_from(["# comment", "% other comment", "", "   ", "\t",
                     "#", "%", "#nospace 1 2", "%nospace",
                     "  # indented comment", "# 3 4"]),
)

file_strategy = st.tuples(
    st.lists(line_strategy, max_size=60),
    st.booleans(),   # CRLF line endings
    st.booleans(),   # trailing newline on the last line
)


def write_file(tmpdir: str, lines, crlf: bool, trailing_newline: bool) -> str:
    path = os.path.join(tmpdir, "graph.txt")
    ending = "\r\n" if crlf else "\n"
    text = ending.join(lines)
    if lines and trailing_newline:
        text += ending
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    return path


@settings(max_examples=60, deadline=None)
@given(spec=file_strategy, num_chunks=st.integers(1, 12))
def test_chunks_cover_every_edge_exactly_once(spec, num_chunks):
    lines, crlf, trailing_newline = spec
    with tempfile.TemporaryDirectory() as tmpdir:
        path = write_file(tmpdir, lines, crlf, trailing_newline)
        full = list(iter_edge_file(path))
        # The whole-file reader is the line parser, line by line.
        assert full == [Edge(*map(int, line.split()[:2])) for line in lines
                        if line.strip() and line.strip()[0] not in "#%"]
        spans = byte_spans(path, num_chunks)
        # Spans are contiguous and cover the whole file.
        assert len(spans) == num_chunks
        assert spans[0][0] == 0
        assert spans[-1][1] == os.path.getsize(path)
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert end == start
        # Concatenating the spans reproduces the file's edges exactly.
        chunked = [edge for start, end in spans
                   for edge in iter_edge_file_span(path, start, end)]
        assert chunked == full
        assert sum(count_edges_span(path, s, e) for s, e in spans) \
            == count_edges(path)


@settings(max_examples=40, deadline=None)
@given(spec=file_strategy, num_chunks=st.integers(1, 8))
def test_chunk_streams_report_exact_lengths(spec, num_chunks):
    lines, crlf, trailing_newline = spec
    with tempfile.TemporaryDirectory() as tmpdir:
        path = write_file(tmpdir, lines, crlf, trailing_newline)
        chunks = chunk_file_stream(path, num_chunks)
        for chunk in chunks:
            assert len(chunk) == len(list(chunk))
        assert sum(len(c) for c in chunks) == count_edges(path)


@settings(max_examples=40, deadline=None)
@given(num_edges=st.integers(0, 40), num_chunks=st.integers(1, 50))
def test_more_chunks_than_lines_yields_empty_tail_chunks(num_edges,
                                                         num_chunks):
    """Degenerate splits (chunks >> lines) produce empty, valid chunks."""
    with tempfile.TemporaryDirectory() as tmpdir:
        path = os.path.join(tmpdir, "graph.txt")
        with open(path, "w", encoding="utf-8") as handle:
            for i in range(num_edges):
                handle.write(f"{i} {i + 1}\n")
        chunks = chunk_file_stream(path, num_chunks)
        assert len(chunks) == num_chunks
        edges = [e for c in chunks for e in c]
        assert edges == [Edge(i, i + 1) for i in range(num_edges)]


class TestChunkingEdgeCases:
    def test_empty_file(self, tmp_path):
        path = os.fspath(tmp_path / "empty.txt")
        open(path, "w").close()
        for num_chunks in (1, 3):
            chunks = chunk_file_stream(path, num_chunks)
            assert [list(c) for c in chunks] == [[]] * num_chunks

    def test_comments_only_file(self, tmp_path):
        path = os.fspath(tmp_path / "comments.txt")
        with open(path, "w") as handle:
            handle.write("# a\n% b\n\n# c\n")
        chunks = chunk_file_stream(path, 3)
        assert sum(len(c) for c in chunks) == 0

    def test_invalid_chunk_count(self, tmp_path):
        path = os.fspath(tmp_path / "g.txt")
        with open(path, "w") as handle:
            handle.write("0 1\n")
        with pytest.raises(ValueError):
            byte_spans(path, 0)

    def test_invalid_span_rejected(self, tmp_path):
        path = os.fspath(tmp_path / "g.txt")
        with open(path, "w") as handle:
            handle.write("0 1\n")
        with pytest.raises(ValueError):
            list(iter_edge_file_span(path, 5, 2))

    def test_malformed_line_fails_loudly_in_span(self, tmp_path):
        path = os.fspath(tmp_path / "bad.txt")
        with open(path, "w") as handle:
            handle.write("0 1\nnot-an-edge\n")
        with pytest.raises(ValueError):
            list(iter_edge_file_span(path, 0, os.path.getsize(path)))

    def test_chunk_stream_is_reiterable(self, tmp_path):
        path = os.fspath(tmp_path / "g.txt")
        with open(path, "w") as handle:
            for i in range(10):
                handle.write(f"{i} {i + 1}\n")
        chunk = chunk_file_stream(path, 2)[0]
        assert list(chunk) == list(chunk)  # single-pass file handle per iter

    def test_explicit_length_skips_counting_pass(self, tmp_path):
        path = os.fspath(tmp_path / "g.txt")
        with open(path, "w") as handle:
            handle.write("0 1\n1 2\n")
        chunk = FileChunkStream(path, 0, os.path.getsize(path), length=2)
        assert len(chunk) == 2
        assert len(list(chunk)) == 2
