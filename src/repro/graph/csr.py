"""Compressed sparse row (CSR) graph — the engine's vectorized substrate.

:class:`CSRGraph` is an immutable, array-backed snapshot of an undirected
graph: the standard ``indptr``/``indices`` layout over *dense* vertex
indices ``0..n-1``, plus a remap table back to the original (arbitrary
integer) vertex ids.  It is built once — from a :class:`~repro.graph.graph.Graph`
or directly from an edge iterable/stream — and then drives the engine's
``mode="dense"`` superstep kernels: whole-frontier numpy operations over
the adjacency arrays instead of per-vertex dict/set traversal.

Layout invariants:

* ``vertex_ids`` is sorted ascending, so the dense index order equals the
  original-id order (remapping is monotonic — ``min`` over ids and ``min``
  over indices agree, which the label-propagating kernels rely on).
* each undirected edge appears twice in ``indices`` (once per direction);
  ``num_edges`` counts undirected edges, ``len(indices) == 2 * num_edges``.
* within each row, ``indices`` is sorted ascending — matching the sorted
  adjacency snapshot the object-mode engine hands to vertex programs.
* ``indices`` uses int32 when the vertex count allows it (halving memory
  traffic on large graphs) and int64 otherwise.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro.graph.graph import Graph

#: Vertex counts below this fit dense indices into int32.
_INT32_MAX = np.iinfo(np.int32).max


class CSRGraph:
    """Immutable CSR adjacency over dense vertex indices.

    Build via :meth:`from_graph` or :meth:`from_edges`; the constructor
    takes pre-validated arrays and is not meant to be called directly.
    """

    __slots__ = ("indptr", "indices", "degrees", "vertex_ids",
                 "num_vertices", "num_edges", "_index_of", "_rows")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray,
                 vertex_ids: np.ndarray) -> None:
        self.indptr = indptr
        self.indices = indices
        self.vertex_ids = vertex_ids
        self.num_vertices = len(vertex_ids)
        self.num_edges = len(indices) // 2
        self.degrees = np.diff(indptr)
        self._index_of: Optional[Dict[int, int]] = None
        self._rows: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(cls, edges: Iterable[Tuple[int, int]],
                   vertices: Iterable[int] = ()) -> "CSRGraph":
        """Build from an edge iterable (e.g. an
        :class:`~repro.graph.stream.EdgeStream`).

        Parallel edges are collapsed and self-loops rejected, mirroring
        :class:`~repro.graph.graph.Graph`.  ``vertices`` optionally names
        additional (possibly isolated) vertices to include.
        """
        from repro.graph.shard import ranked, ranked_edges

        ends = np.fromiter(chain.from_iterable(edges), dtype=np.int64)
        vertex_ids, _, _, key = ranked_edges(ends[0::2], ends[1::2],
                                             vertices, loops=False)
        n = max(len(vertex_ids), 1)
        # Distinct canonical (lo, hi) keys, then both directions of each
        # in one sort: row-major, ascending neighbour within a row.
        key = ranked(key, ranks=False)[0]
        src, dst = np.divmod(np.sort(np.concatenate(
            [key, key % n * n + key // n])), n)
        indices = dst.astype(np.int32 if n <= _INT32_MAX else np.int64)
        indptr = np.zeros(len(vertex_ids) + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=len(vertex_ids)),
                  out=indptr[1:])
        return cls(indptr, indices, vertex_ids)

    @classmethod
    def from_graph(cls, graph: Graph) -> "CSRGraph":
        """Snapshot a :class:`~repro.graph.graph.Graph` (keeps isolated
        vertices)."""
        return cls.from_edges(graph.edges(), vertices=graph.vertices())

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def index_of(self) -> Dict[int, int]:
        """Original vertex id -> dense index (built lazily, cached)."""
        if self._index_of is None:
            self._index_of = {
                int(v): i for i, v in enumerate(self.vertex_ids)}
        return self._index_of

    @property
    def rows(self) -> np.ndarray:
        """Row (source) index of each adjacency slot (lazily cached).

        ``rows[s]`` is the vertex whose adjacency list contains slot ``s``;
        together with ``indices[s]`` it enumerates every directed edge —
        the scatter side of the dense kernels' message exchange.
        """
        if self._rows is None:
            n = self.num_vertices
            arange = np.arange(n, dtype=self.indices.dtype)
            self._rows = np.repeat(arange, self.degrees)
        return self._rows

    def neighbors(self, index: int) -> np.ndarray:
        """Dense neighbor indices of dense vertex ``index`` (a view)."""
        return self.indices[self.indptr[index]:self.indptr[index + 1]]

    def degree(self, index: int) -> int:
        return int(self.degrees[index])

    def original_id(self, index: int) -> int:
        return int(self.vertex_ids[index])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CSRGraph(|V|={self.num_vertices}, |E|={self.num_edges})"
