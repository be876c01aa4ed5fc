"""The block reader ≡ the per-line reader, and arrays ≡ lists at ``ingest``.

Every file reader (``iter_edge_file``, ``iter_edge_file_span``,
``iter_edge_blocks``, ``count_edges``, ``count_edges_span``,
``read_columns``) is the compiled scanner ``kern_parse_rows`` over
blocks of whole lines, with ``parse_edge_line`` deciding every line the
scanner declines (DESIGN.md §2).  The control is the reader the scanner
replaced, kept here verbatim: ``filter(None, map(parse_edge_line,
open(path)))``.  Whatever that yields, skips or refuses, every reader
must yield, skip or refuse identically — same objects, same order, the
same error after the same edges — at any block size (a line longer than
a block, a block ending mid-token) and over any ``byte_spans`` cut.

The whole module runs twice: on the compiled tier and with
``_kernels.load()`` answering ``None`` (the per-line parser is then the
whole reader).
"""

import gzip
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _window_utils import reference, result_tuple
from repro.api import open_session
from repro.core import _kernels
from repro.core.adwise import AdwisePartitioner
from repro.graph import io
from repro.graph.graph import Edge
from repro.graph.io import (
    byte_spans,
    count_edges,
    count_edges_span,
    iter_edge_blocks,
    iter_edge_file,
    iter_edge_file_span,
    parse_edge_line,
)
from repro.graph.stream import FileChunkStream, FileEdgeStream
from repro.partitioning.hdrf import HDRFPartitioner
from repro.partitioning.partition_io import read_columns

BLOCK_SIZES = (1, 7, 64, 65536)

PROPERTY = settings(max_examples=60, deadline=None, suppress_health_check=[
    HealthCheck.function_scoped_fixture, HealthCheck.too_slow])


@pytest.fixture(autouse=True, params=["compiled", "per-line"])
def tier(request, monkeypatch):
    if request.param == "per-line":
        monkeypatch.setattr(_kernels, "_loaded", None)
    elif _kernels.load() is None:
        pytest.skip("the compiled kernels do not load here")
    return request.param


@contextmanager
def block_bytes(size):
    saved = io._BLOCK_BYTES
    io._BLOCK_BYTES = size
    try:
        yield
    finally:
        io._BLOCK_BYTES = saved


def reference_edges(path):
    """The reader before the scanner, verbatim."""
    with open(path, "r", encoding="utf-8") as handle:
        yield from filter(None, map(parse_edge_line, handle))


def drain(reader):
    """``(items, error message or None)``: everything ``reader`` yields
    before it ends or refuses a line."""
    items = []
    try:
        for item in reader:
            items.append(item)
    except ValueError as refused:
        return items, str(refused)
    return items, None


def fits_int64(edges):
    return all(-2**63 <= end < 2**63 for edge in edges for end in edge)


# ---------------------------------------------------------------------------
# Files
# ---------------------------------------------------------------------------
#: Lines the per-line parser takes as edges, blanks or comments — some
#: natively scannable, some that the scanner must decline.
GOOD_LINES = [
    "1 2", "3\t4", "  5   6  ", "\t7\t \t8\t", "7 8 0.5", "1 2 x y z",
    "1 2 # trailing", "1 2 caf\u00e9", "+5 -6", "-0 +0", "007 08", "1_0 2",
    "1 2_000", "5 5", "# comment", "#nospace", "#1 2", "%konect", "% 1 2",
    "  # indented", "\t% indented", "# caf\u00e9", "#", "", " ", "\t",
    " \t ", "\x0b", "\x0c", "\x1c", "\u2028", "1\x0b2", "1 2\x0c", "1\x1c2 3",
    "1\u20282", "1\x852", "\u0661\u0662 \u0663", "\uff11 \uff12 9",
    f"{2**63 - 1} {-2**63}", f"{-2**63} {2**63 - 1}", f"{2**63} 1",
    f"1 {-2**63 - 1}", f"{2**70} {2**40}", f"{'0' * 30}7 {'0' * 40}",
    "9223372036854775799 9223372036854775809",
]

#: Lines it refuses.
BAD_LINES = [
    "7", "a b", "1 b", "a 2", "1.5 2", "1 2.0", "1, 2", "0x1 2", "1 #2",
    "1 # 2", "- 1", "+ 2 3", "1 -", "1 +", "1_ 2", "_1 2", "1__0 2",
    "\ufeff1 2", "\ufeff# bom", "1\x002 3", "1 2\x00", "--1 2", "1 ++2",
    "\u0661", "caf\u00e9 1",
]

ENDINGS = ["\n", "\n", "\n", "\r\n", "\r"]

plain_edge = st.tuples(st.integers(-2**64, 2**64), st.integers(0, 99),
                       st.sampled_from([" ", "\t", "  ", " \t"])).map(
    lambda t: f"{t[0]}{t[2]}{t[1]}")
good_line = st.one_of(st.sampled_from(GOOD_LINES), plain_edge, plain_edge)


def file_text(lines, endings, terminated):
    text = "".join(line + ending for line, ending in zip(lines, endings))
    if not terminated and lines:
        text = text[:len(text) - len(endings[len(lines) - 1])]
    return text


@st.composite
def good_files(draw, max_lines=40):
    lines = draw(st.lists(good_line, max_size=max_lines))
    endings = draw(st.lists(st.sampled_from(ENDINGS), min_size=len(lines),
                            max_size=len(lines)))
    # "\r" then an empty line ended "\n" would read as one "\r\n".
    for i in range(len(lines) - 1):
        if endings[i] == "\r" and not lines[i + 1] and endings[i + 1] == "\n":
            endings[i] = "\n"
    return file_text(lines, endings, draw(st.booleans()))


@st.composite
def bad_files(draw):
    before = draw(good_files(max_lines=12))
    if before and not before.endswith(("\n", "\r")):
        before += "\n"
    if before.endswith("\r"):
        before += "\n"
    bad = draw(st.sampled_from(BAD_LINES))
    ending = draw(st.sampled_from(ENDINGS + [""]))
    after = draw(good_files(max_lines=5)) if ending else ""
    if ending == "\r" and after.startswith("\n"):
        ending = "\r\n"
    return before + bad + ending + after


def write(tmp_path, text, name="g.txt"):
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    return str(path)


@PROPERTY
@given(text=good_files())
def test_every_reader_is_the_per_line_reader(tmp_path, text):
    path = write(tmp_path, text)
    expected = list(reference_edges(path))
    for size in BLOCK_SIZES:
        with block_bytes(size):
            edges = list(iter_edge_file(path))
            assert edges == expected
            assert all(type(edge) is Edge and type(edge.u) is int
                       and type(edge.v) is int for edge in edges)
            assert count_edges(path) == len(expected)
            assert len(FileEdgeStream(path)) == len(expected)
            if fits_int64(expected):
                blocks = list(iter_edge_blocks(path))
                assert all(block.dtype == np.int64 and block.ndim == 2
                           and block.shape[1] == 2 and len(block)
                           for block in blocks)
                assert [tuple(row) for block in blocks
                        for row in block.tolist()] == expected
            else:
                with pytest.raises(OverflowError):
                    list(iter_edge_blocks(path))


@PROPERTY
@given(text=good_files(), chunks=st.integers(1, 5),
       size=st.sampled_from(BLOCK_SIZES))
def test_spans_cover_the_file_once(tmp_path, text, chunks, size):
    """Lines a lone ``\\r`` ends included: a span is cut at ``\\n`` and
    read with universal newlines, like the whole file."""
    path = write(tmp_path, text)
    expected = list(reference_edges(path))
    spans = byte_spans(path, chunks)
    with block_bytes(size):
        assert [edge for start, end in spans
                for edge in iter_edge_file_span(path, start, end)] == expected
        assert sum(count_edges_span(path, start, end)
                   for start, end in spans) == len(expected)
        assert sum(len(FileChunkStream(path, start, end))
                   for start, end in spans) == len(expected)
        if fits_int64(expected):
            assert [tuple(row) for start, end in spans
                    for block in FileChunkStream(path, start, end).blocks()
                    for row in block.tolist()] == expected


@PROPERTY
@given(text=bad_files())
def test_a_malformed_line_is_refused_where_the_per_line_reader_refuses_it(
        tmp_path, text):
    path = write(tmp_path, text)
    expected, message = drain(reference_edges(path))
    assert message is not None and message.startswith("malformed edge line: ")
    for size in BLOCK_SIZES:
        with block_bytes(size):
            assert drain(iter_edge_file(path)) == (expected, message)
            assert drain(iter_edge_file_span(path, 0, len(text.encode()))) \
                == (expected, message)
            with pytest.raises(ValueError) as refused:
                count_edges(path)
            assert str(refused.value) == message
            if fits_int64(expected):
                blocks, block_message = drain(iter_edge_blocks(path))
                assert block_message == message
                assert [tuple(row) for block in blocks
                        for row in block.tolist()] == expected


@pytest.mark.parametrize("size", BLOCK_SIZES)
def test_fixed_cases(tmp_path, size):
    """The boundaries worth naming: an empty file, no trailing newline,
    a line much longer than a block, CRLF cut between its two bytes."""
    with block_bytes(size):
        assert list(iter_edge_file(write(tmp_path, ""))) == []
        assert count_edges(write(tmp_path, "\n\r\n\r")) == 0
        assert list(iter_edge_file(write(tmp_path, "1 2"))) == [Edge(1, 2)]
        long_line = "3 4 " + "x" * 300 + "\r\n5 6" + " " * 200 + "\n7 8\r"
        path = write(tmp_path, long_line)
        assert list(iter_edge_file(path)) == [(3, 4), (5, 6), (7, 8)]
        assert np.concatenate(list(iter_edge_blocks(path))).tolist() == [
            [3, 4], [5, 6], [7, 8]]
        path = write(tmp_path, "1 2\r\n" * 50)
        assert list(iter_edge_file(path)) == [(1, 2)] * 50
        assert count_edges(path) == 50
        assert sum(count_edges_span(path, start, end)
                   for start, end in byte_spans(path, 7)) == 50


def test_undecodable_bytes_are_an_error_not_an_edge(tmp_path):
    path = tmp_path / "g.txt"
    path.write_bytes(b"1 2\n3 4 \xff\xfe\n5 6\n")
    with pytest.raises(UnicodeDecodeError):
        list(reference_edges(path))
    for reader in (iter_edge_file, iter_edge_blocks, count_edges):
        with pytest.raises(UnicodeDecodeError):
            list(reader(path)) if reader is not count_edges else reader(path)


def test_blocks_are_the_callers_to_keep(tmp_path):
    """No block aliases the reader's scratch array."""
    path = write(tmp_path, "".join(f"{i} {i + 1}\n" for i in range(500)))
    with block_bytes(64):
        blocks = list(iter_edge_blocks(path))
    assert len(blocks) > 10
    assert np.concatenate(blocks).tolist() == [[i, i + 1]
                                               for i in range(500)]


# ---------------------------------------------------------------------------
# Assignment files (three columns, .gz)
# ---------------------------------------------------------------------------
def reference_assignments(path):
    """The per-line ``.parts`` reader that preceded the scanner, verbatim."""
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rt", encoding="utf-8") as handle:
        for line in handle:
            stripped = line.strip()
            if not stripped or stripped.startswith(("#", "%")):
                continue
            parts = stripped.split()
            if len(parts) < 3:
                raise ValueError(f"malformed assignment line: {line!r}")
            yield int(parts[0]), int(parts[1]), int(parts[2])


ASSIGNMENT_LINES = [
    "1 2 0", "5 2 3 extra", "  2 5 1", "-7 9000000000 0", "3\t4\t31",
    "# header", "%other", "", "  ", "  # indented", "1_0 2 +3",
    f"{-2**63} {2**63 - 1} 7", "1 2 3 # trailing", "\u0661 2 3", "0 0 0",
]


@PROPERTY
@given(lines=st.lists(st.sampled_from(ASSIGNMENT_LINES), max_size=30),
       malformed=st.sampled_from([None, "3 4", "9"]),
       name=st.sampled_from(["p.txt", "p.txt.gz"]),
       size=st.sampled_from(BLOCK_SIZES))
def test_read_columns_is_the_per_line_reader(tmp_path, lines, malformed,
                                             name, size):
    if malformed is not None:
        lines = lines + [malformed, "1 2 3"]
    text = "".join(line + "\n" for line in lines)
    path = tmp_path / name
    (gzip.open if name.endswith(".gz") else open)(path, "wb").write(
        text.encode("utf-8"))
    expected, message = drain(reference_assignments(path))
    with block_bytes(size):
        if message is not None:
            with pytest.raises(ValueError) as refused:
                read_columns(path)
            assert str(refused.value) == message
            return
        columns = read_columns(path)
    assert all(column.dtype == np.int64 for column in columns)
    flat = np.array([value for row in expected for value in row],
                    dtype=np.int64)
    for column, control in zip(columns, (flat[0::3], flat[1::3], flat[2::3])):
        assert np.array_equal(column, control)


# ---------------------------------------------------------------------------
# ingest(ndarray) == ingest(list of tuples)
# ---------------------------------------------------------------------------
PAIRS = [((i * 37) % 101, (i * 53 + 7) % 97 + (i % 4) * 2**34)
         for i in range(700)]

CONFIGS = {"hdrf": ("hdrf", {}),
           "adwise-w16": ("adwise", {"fixed_window": 16}),
           "adwise-adaptive": ("adwise", {"latency_preference_ms": 400.0})}


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("fast", [True, False])
@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint16])
def test_ingest_takes_an_array_as_it_takes_a_list(config, fast, dtype):
    algorithm, knobs = CONFIGS[config]
    pairs = [(u % 2**15, v % 2**15) for u, v in PAIRS] \
        if dtype is not np.int64 else PAIRS
    build = dict(partitions=8, expected_edges=len(pairs), **knobs)
    if fast:
        listed, arrayed = (open_session(algorithm, **build)
                           for _ in range(2))
    else:
        listed, arrayed = (reference(open_session, algorithm, **build)
                           for _ in range(2))
    array = np.array(pairs, dtype=dtype)
    before = array.copy()
    for start in range(0, len(pairs), 96):
        from_list = listed.ingest(pairs[start:start + 96])
        from_array = arrayed.ingest(array[start:start + 96])
        assert list(from_array) == list(from_list)
    assert np.array_equal(array, before)  # canonicalised on a copy
    assert arrayed.edges_ingested == listed.edges_ingested == len(pairs)
    assert result_tuple(arrayed.finalize()) == result_tuple(listed.finalize())


@pytest.mark.parametrize("bad", [
    np.array([[1.0, 2.0]]), np.array([[1, 2, 3]]), np.array([1, 2]),
    np.array([[[1, 2]]]), np.array([[True, False]]),
    np.array([["1", "2"]]), np.array([[1, 2**63]], dtype=np.uint64),
    np.array([[1, 2**70]], dtype=object)])
def test_ingest_refuses_an_array_that_is_not_integer_pairs(bad):
    session = open_session("hdrf", partitions=4)
    with pytest.raises(ValueError, match=r"\(n, 2\) integers"):
        session.ingest(bad)
    assert session.edges_ingested == 0
    assert session.ingest(np.empty((0, 2), dtype=np.int64)) == []


@pytest.mark.parametrize("cls,knobs", [
    (HDRFPartitioner, {}), (AdwisePartitioner, {"fixed_window": 32}),
    (AdwisePartitioner, {"latency_preference_ms": 300.0})])
def test_partition_stream_feeds_a_file_block_by_block(tmp_path, cls, knobs):
    """A file stream goes in as arrays, several to a file; the result is
    the one-shot run's, bit for bit, and a chunk stream's likewise."""
    path = write(tmp_path, "# header\n" + "".join(
        f"{u} {v}\n" for u, v in PAIRS))
    edges = [Edge(u, v) for u, v in PAIRS]
    control = cls(range(8), **knobs)
    control.begin(total_edges=len(edges))
    control.ingest(edges)
    expected = result_tuple(control.finalize())
    with block_bytes(256):
        assert len(list(FileEdgeStream(path).blocks())) > 5
        result = cls(range(8), **knobs).partition_stream(FileEdgeStream(path))
        assert result_tuple(result) == expected
        start, end = byte_spans(path, 1)[0]
        chunk = FileChunkStream(path, start, end)
        assert result_tuple(cls(range(8), **knobs).partition_stream(chunk)) \
            == expected
