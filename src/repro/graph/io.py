"""Edge-list file IO.

The paper's partitioners consume graphs stored "in a large file, a graph
database, or a distributed file system" as a stream of edges.  We support the
ubiquitous whitespace-separated edge-list format used by SNAP / KONECT
datasets: one ``u v`` pair per line, ``#`` or ``%`` comment lines ignored.

There is one reader (DESIGN.md §2): :func:`iter_int_rows` cuts the file
into blocks of whole lines and hands each to the compiled scanner
(``kern_parse_rows``), which returns the rows it is certain about as an
``(n, 2)`` int64 array and *declines* at the first line it is not; that
line goes to :func:`parse_edge_line`, the definition of what an edge
line means.  Where the kernels do not load, every line goes there.
"""

from __future__ import annotations

import io
import os
import re
from functools import partial
from itertools import repeat
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.graph import Edge, Graph

_COMMENT_PREFIXES = ("#", "%")

#: Bytes per read of the block reader (the tests shrink it).
_BLOCK_BYTES = 1 << 16

#: What ends a line, as universal-newline text mode has it (the "\n"
#: of a "\r\n" reads as a blank line of its own).
_LINE_END = re.compile(rb"[\r\n]")

#: ``Edge`` without the Python frame of its generated ``__new__``.
_new_tuple = tuple.__new__


def _malformed(line: str, what: str = "edge") -> ValueError:
    return ValueError(f"malformed {what} line: {line!r}")


def parse_edge_line(line: str) -> "Edge | None":
    """Parse one edge-list line; return None for blanks/comments.

    Raises ``ValueError`` on malformed lines so corrupt inputs fail loudly
    rather than silently dropping edges.  One pass: the line is converted
    first and looked at only when that fails (further columns — weights —
    are ignored).
    """
    parts = line.split()
    try:
        return _new_tuple(Edge, (int(parts[0]), int(parts[1])))
    except (ValueError, IndexError):
        if not parts or parts[0].startswith(_COMMENT_PREFIXES):
            return None
        raise _malformed(line) from None


def _parse_row(line: str, ncols: int, what: str) -> Optional[tuple]:
    """:func:`parse_edge_line` for a file of ``ncols`` integer columns:
    it decides about blanks, comments and the first two."""
    try:
        row = parse_edge_line(line)
        if row is not None:
            row += tuple(map(int, line.split()[2:ncols]))
            if len(row) < ncols:
                raise ValueError
        return row
    except ValueError:
        raise _malformed(line, what) from None


def _line_blocks(handle, limit: Optional[int]) -> Iterator[bytes]:
    """``handle`` from its position on, in blocks of whole lines:
    ``_BLOCK_BYTES`` reads cut after their last line ending, the rest
    carried into the next.  With ``limit``, the lines that start within
    the next ``limit`` bytes (as ``\\n`` ends them)."""
    tail = b""
    while limit is None or limit > 0:
        data = handle.read(_BLOCK_BYTES if limit is None
                           else min(_BLOCK_BYTES, limit))
        if not data:
            break
        if limit is not None:
            limit -= len(data)
            if limit <= 0 and not data.endswith(b"\n"):
                data += handle.readline()
        data = tail + data
        cut = max(data.rfind(b"\n"), data.rfind(b"\r")) + 1
        tail = data[cut:]
        if cut:
            yield data[:cut]
    if tail:
        yield tail


def iter_int_rows(handle, ncols: int = 2, limit: Optional[int] = None,
                  what: str = "edge", keep: bool = True) -> Iterator:
    """The first ``ncols`` integer columns of a binary ``handle``'s
    lines, in file order: an ``(n, ncols)`` int64 array per stretch of
    lines the scanner took, a list of the per-line parser's rows (any
    Python ints) for the lines it declined — every line, without the
    kernels.  A malformed line raises that parser's error after
    everything before it was yielded.  ``keep=False`` only counts: the
    row counts are yielded instead, and no row is stored."""
    from repro.core import _kernels  # lazy: repro.core imports this module

    kernels = _kernels.load()
    parse = (parse_edge_line if ncols == 2
             else partial(_parse_row, ncols=ncols, what=what))
    out = None
    for block in _line_blocks(handle, limit):
        if kernels is None:
            rows: List[tuple] = []
            try:
                rows.extend(filter(None, map(parse, io.StringIO(
                    block.decode("utf-8"), newline=None))))
            finally:  # a malformed line: what came before it goes first
                if rows:
                    yield rows if keep else len(rows)
            continue
        ffi, lib = kernels
        size = len(block)
        cap = size // 4 + 1  # "1 2\n": no more rows than this
        if keep and (out is None or len(out) < cap):
            out = np.empty((cap, ncols), dtype=np.int64)
        start = ffi.from_buffer("uint8_t[]", block)
        rows_at = ffi.from_buffer("int64_t[]", out) if keep else ffi.NULL
        consumed = ffi.new("int64_t *")
        position = 0
        while position < size:
            n = lib.kern_parse_rows(start + position, size - position, ncols,
                                    rows_at, cap, consumed)
            if n:
                yield out[:n].copy() if keep else n
            position += consumed[0]
            if position < size and n < cap:  # declined at this line
                end = _LINE_END.search(block, position)
                stop = end.start() if end else size
                row = parse(block[position:stop].decode("utf-8")
                            + ("\n" if end else ""))
                if row is not None:
                    yield [row] if keep else 1
                position = end.end() if end else size


def format_int_rows(rows: np.ndarray, open: bytes,
                    sep: "bytes | Sequence[bytes]", close: bytes) -> bytes:
    """The inverse of :func:`iter_int_rows`: every row of an ``(n,
    ncols)`` integer array as ``open`` + its columns in decimal joined
    by ``sep`` + ``close`` (``b"", b" ", b"\\n"`` is a ``u v part`` file's
    lines).  ``sep`` may also be ``ncols - 1`` separators, one before
    each column after the first (what frames a row as a JSON object).
    One ``kern_format_rows`` call into a buffer sized from the widest
    value; without the kernels, ``%d`` formatting over ``tolist()`` —
    the same bytes."""
    from repro.core import _kernels  # lazy: repro.core imports this module

    rows = np.ascontiguousarray(rows, dtype=np.int64)
    if rows.ndim != 2 or not rows.shape[1]:
        raise ValueError(f"rows must be (n, ncols >= 1), got {rows.shape}")
    n, ncols = rows.shape
    seps = [sep] * (ncols - 1) if isinstance(sep, bytes) else list(sep)
    if len(seps) != ncols - 1:
        raise ValueError(f"{len(seps)} separators for {ncols} columns")
    leads = [open, *seps]
    kernels = _kernels.load()
    if kernels is None:
        line = b"".join(part.replace(b"%", b"%%") + b"%d" for part in leads)
        return (line + close.replace(b"%", b"%%")) * n % tuple(
            rows.ravel().tolist())
    ffi, lib = kernels
    width = n and max(len(str(rows.min())), len(str(rows.max())))
    lead = b"".join(leads)
    out = bytearray(n * (len(lead) + len(close) + ncols * width))
    lead_end = np.cumsum([len(part) for part in leads], dtype=np.int64)
    written = lib.kern_format_rows(
        ffi.from_buffer("int64_t[]", rows), n, ncols, lead,
        ffi.from_buffer("int64_t[]", lead_end), close, len(close),
        ffi.from_buffer("uint8_t[]", out), len(out))
    if written < 0:
        raise RuntimeError("kern_format_rows ran past its buffer")
    del out[written:]
    return bytes(out)


def _scan_file(path: "str | os.PathLike", start: int, end: Optional[int],
               keep: bool = True) -> Iterator:
    """:func:`iter_int_rows` over the lines of an edge file that start
    inside ``[start, end)`` (``end=None``: to the end of the file)."""
    if start < 0 or (end is not None and end < start):
        raise ValueError(f"invalid span [{start}, {end})")
    with open(path, "rb") as handle:
        handle.seek(start)
        yield from iter_int_rows(handle, keep=keep,
                                 limit=None if end is None else end - start)


def iter_edge_blocks(path: "str | os.PathLike", start: int = 0,
                     end: Optional[int] = None) -> Iterator[np.ndarray]:
    """Stream an edge file (or its span ``[start, end)``, see
    :func:`iter_edge_file_span`) as ``(n, 2)`` int64 arrays of ``(u, v)``
    rows — what ``ingest`` takes as it is.  An id outside int64 is an
    ``OverflowError``."""
    for rows in _scan_file(path, start, end):
        yield np.asarray(rows, dtype=np.int64)


def _iter_edges(path: "str | os.PathLike", start: int,
                end: Optional[int]) -> Iterator[Edge]:
    for rows in _scan_file(path, start, end):
        if type(rows) is np.ndarray:
            rows = map(_new_tuple, repeat(Edge), zip(*rows.T.tolist()))
        yield from rows


def iter_edge_file(path: "str | os.PathLike") -> Iterator[Edge]:
    """Stream edges from an edge-list file without materialising the graph."""
    return _iter_edges(path, 0, None)


def read_graph(path: "str | os.PathLike") -> Graph:
    """Load a full :class:`Graph` from an edge-list file."""
    graph = Graph()
    for edge in iter_edge_file(path):
        if not edge.is_loop():
            graph.add_edge(edge.u, edge.v)
    return graph


def write_edges(path: "str | os.PathLike",
                edges: Iterable[Tuple[int, int]],
                header: str = "") -> int:
    """Write edges to an edge-list file; return the number written."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        if header:
            for line in header.splitlines():
                handle.write(f"# {line}\n")
        for u, v in edges:
            handle.write(f"{u} {v}\n")
            count += 1
    return count


def write_graph(path: "str | os.PathLike", graph: Graph,
                header: str = "") -> int:
    """Write all edges of ``graph`` to ``path``; return the edge count."""
    return write_edges(path, graph.edges(), header=header)


def byte_spans(path: "str | os.PathLike",
               num_chunks: int) -> List[Tuple[int, int]]:
    """Split an edge file into ``num_chunks`` byte ranges on line boundaries.

    This is the out-of-core analogue of
    :func:`repro.graph.stream.chunk_stream`: the file is divided at
    ``size * i / num_chunks`` byte targets and each boundary is advanced
    to the next newline, so no line straddles two spans and every byte
    of the file belongs to exactly one span.  Workers can then stream
    their span independently without anyone materialising the graph.

    Spans are contiguous, cover ``[0, filesize)`` exactly, and may be
    empty (``start == end``) when the file has fewer lines than chunks.
    """
    if num_chunks < 1:
        raise ValueError("num_chunks must be >= 1")
    path = os.fspath(path)
    size = os.path.getsize(path)
    bounds = [0]
    with open(path, "rb") as handle:
        for i in range(1, num_chunks):
            target = (size * i) // num_chunks
            if target <= bounds[-1]:
                bounds.append(bounds[-1])
                continue
            handle.seek(target)
            # Discard the (possibly partial) line the target landed in;
            # it belongs to the previous span.
            handle.readline()
            bounds.append(min(handle.tell(), size))
    bounds.append(size)
    return [(bounds[i], bounds[i + 1]) for i in range(num_chunks)]


def iter_edge_file_span(path: "str | os.PathLike", start: int,
                        end: int) -> Iterator[Edge]:
    """Stream edges whose lines start inside ``[start, end)`` of the file.

    ``start`` must be a line boundary (0 or a position just past a
    newline), as produced by :func:`byte_spans`.  Reading is binary, so
    byte offsets stay exact.
    """
    return _iter_edges(path, start, end)


def count_edges_span(path: "str | os.PathLike", start: int, end: int) -> int:
    """Count edge lines inside ``[start, end)`` (span analogue of
    :func:`count_edges`): what :func:`iter_edge_file_span` would yield,
    scanned without storing a row."""
    return sum(_scan_file(path, start, end, keep=False))


def count_edges(path: "str | os.PathLike") -> int:
    """Count edges in a file (the paper's "line count on the graph file").

    The adaptive controller needs ``|E|`` up front to budget the latency
    preference; this mirrors how the authors obtain it.
    """
    return sum(_scan_file(path, 0, None, keep=False))
