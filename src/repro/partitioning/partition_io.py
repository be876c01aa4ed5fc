"""Persist and reload partitionings.

A partitioning is the product a preprocessing pipeline hands to the graph
engine, so it must survive a process boundary.  The format is a plain
text file of ``u v partition`` lines with ``#`` comments — trivially
consumable by any downstream system and diffable across runs.

Multi-million-edge assignment files are practical shard inputs for the
cluster runtime: lines are formatted from the mapping's ``(u, v, part)``
columns ~16k at a time, straight to bytes
(:func:`~repro.graph.io.format_int_rows`: one ``kern_format_rows`` call
and one binary write per batch, no object per edge), and read back
through the edge-file reader's scanner; paths ending in ``.gz`` go
through :mod:`gzip` transparently, on both the write and the read side.
"""

from __future__ import annotations

import gzip
import os
from typing import Mapping, Tuple

import numpy as np

from repro.graph.graph import Edge
from repro.graph.io import format_int_rows, iter_int_rows
from repro.graph.shard import mapping_columns

#: Lines formatted per write.
_WRITE_BATCH = 16384


def _open(path: "str | os.PathLike", mode: str):
    """Open ``path`` for binary I/O, through gzip when it ends in ``.gz``."""
    return (gzip.open if os.fspath(path).endswith(".gz") else open)(
        path, mode + "b")


def write_assignments(path: "str | os.PathLike",
                      assignments: Mapping[Edge, int],
                      header: str = "") -> int:
    """Write ``u v partition`` lines; return the number written."""
    rows = np.stack(mapping_columns(assignments), axis=1)
    with _open(path, "w") as handle:
        handle.write("".join(f"# {line}\n"
                             for line in header.splitlines()).encode())
        for start in range(0, len(rows), _WRITE_BATCH):
            handle.write(format_int_rows(rows[start:start + _WRITE_BATCH],
                                         b"", b" ", b"\n"))
        handle.flush()  # .gz: the sync-flush block text mode's close wrote
    return len(rows)


def read_columns(path: "str | os.PathLike") -> Tuple[np.ndarray, ...]:
    """A ``u v partition`` file as three int64 columns, file order — what
    :meth:`~repro.graph.shard.ShardedGraph.from_arrays` takes (rows off
    :func:`repro.graph.io.iter_int_rows`; ``.gz`` transparent)."""
    with _open(path, "r") as handle:
        table = np.concatenate([np.empty((0, 3), dtype=np.int64)] + [
            np.asarray(rows, dtype=np.int64)
            for rows in iter_int_rows(handle, ncols=3, what="assignment")])
    return table[:, 0], table[:, 1], table[:, 2]
