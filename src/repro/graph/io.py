"""Edge-list file IO.

The paper's partitioners consume graphs stored "in a large file, a graph
database, or a distributed file system" as a stream of edges.  We support the
ubiquitous whitespace-separated edge-list format used by SNAP / KONECT
datasets: one ``u v`` pair per line, ``#`` or ``%`` comment lines ignored.
"""

from __future__ import annotations

import os
from typing import Iterable, Iterator, List, Tuple

from repro.graph.graph import Edge, Graph

_COMMENT_PREFIXES = ("#", "%")


#: ``Edge`` without the Python frame of its generated ``__new__``.
_new_tuple = tuple.__new__


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
        raise ValueError(f"malformed edge line: {line!r}") from None


def iter_edge_file(path: "str | os.PathLike") -> Iterator[Edge]:
    """Stream edges from an edge-list file without materialising the graph."""
    with open(path, "r", encoding="utf-8") as handle:
        yield from filter(None, map(parse_edge_line, handle))


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
    newline), as produced by :func:`byte_spans`.  Reading is binary with
    explicit UTF-8 decoding so byte offsets stay exact; ``\\r`` from
    CRLF files is stripped by the line parser.
    """
    if start < 0 or end < start:
        raise ValueError(f"invalid span [{start}, {end})")
    with open(path, "rb") as handle:
        handle.seek(start)
        position = start
        while position < end:
            line = handle.readline()
            if not line:
                break
            position += len(line)
            edge = parse_edge_line(line.decode("utf-8"))
            if edge is not None:
                yield edge


_COMMENT_PREFIX_BYTES = tuple(p.encode() for p in _COMMENT_PREFIXES)


def count_edges_span(path: "str | os.PathLike", start: int, end: int) -> int:
    """Count edge lines inside ``[start, end)`` (span analogue of
    :func:`count_edges`).

    Applies the same blank/comment filter as :func:`count_edges` without
    parsing endpoints, so counting a slice costs a strip per line rather
    than a full edge parse.
    """
    if start < 0 or end < start:
        raise ValueError(f"invalid span [{start}, {end})")
    total = 0
    with open(path, "rb") as handle:
        handle.seek(start)
        position = start
        while position < end:
            line = handle.readline()
            if not line:
                break
            position += len(line)
            stripped = line.strip()
            if stripped and not stripped.startswith(_COMMENT_PREFIX_BYTES):
                total += 1
    return total


def count_edges(path: "str | os.PathLike") -> int:
    """Count edges in a file (the paper's "line count on the graph file").

    The adaptive controller needs ``|E|`` up front to budget the latency
    preference; this mirrors how the authors obtain it.
    """
    total = 0
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            stripped = line.strip()
            if stripped and not stripped.startswith(_COMMENT_PREFIXES):
                total += 1
    return total
