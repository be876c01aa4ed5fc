"""Array-backed partition state: the vertex cache the compiled kernels run on.

:class:`FastPartitionState` is a drop-in replacement for
:class:`~repro.partitioning.state.PartitionState` that stores the vertex
cache in flat arrays instead of per-vertex dicts and sets.  Vertex ids
are interned to a dense row index on first sight by an open-addressing
id → row table the kernels probe (``kern_intern``; DESIGN.md §14), with
the row → id column ``_ids`` written beside it — so ``_ids[:n]`` read in
order *is* the intern table's insertion order, and row order is
first-sight order.  Every quantity is kept **once**, in the table the
kernels (``repro/core/_kernels.c``: ADWISE's window pump, HDRF's stream
kernel) read and write in place:

* replica membership — a ``(capacity, k)`` boolean matrix whose row
  ``i`` is the indicator vector ``1{p in R_v}`` of dense vertex ``i``,
  plus a per-row version counter bumped whenever the row gains a bit
  (the window's memo-validity key, DESIGN.md §14),
* partial degrees — a dense ``int64`` vector,
* partition sizes — an ``int64`` vector in spread order.

Only a handful of scalars live beside the tables (``max_degree``,
``assigned_edges``, max/min partition size); a compiled transaction
maintains its own copies of them while it runs and
:meth:`FastPartitionState.absorb_pump` adopts them afterwards — nothing
else needs reconciling, because there is no second copy of any table.

The ``PartitionState`` API is preserved: every query and mutation
*method* behaves identically (the per-edge ``observe_degrees`` /
``assign`` are what restore, merge and injected-state drivers use), and
``degree`` / ``replica_sets`` / ``partition_edges`` are materialised on
access (aggregate/validation paths only).  The one deliberate
divergence: those three attributes are throwaway **snapshots**, so
writes to them are silently discarded, whereas the dict class exposes
its live dicts.  All mutation must go through ``observe_degrees`` /
``assign`` / ``copy_degrees_from`` — which is the only way the shipped
code mutates state.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

import numpy as np

from repro.graph.graph import Edge
from repro.partitioning.state import StateSnapshot

#: Initial row capacity of the vertex tables; doubled on demand.
_INITIAL_CAPACITY = 1024

#: Initial slot count of the intern table (a power of two, at least 2);
#: doubled before it would pass half full.
_INITIAL_TABLE = 2048


class FastPartitionState:
    """Vertex cache + partition sizes backed by flat arrays.

    API-compatible with :class:`~repro.partitioning.state.PartitionState`;
    additionally exposes the dense tables (``replica_matrix``,
    ``row_version_array``, ``degrees_dense``, ``sizes_vector``) that
    :class:`~repro.core._binding.KernelBinding` points the kernels at.
    """

    #: Capability marker: this state has dense tables a kernel can bind.
    is_fast = True

    def __init__(self, partitions: Sequence[int]) -> None:
        ids = list(partitions)
        if not ids:
            raise ValueError("at least one partition required")
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate partition ids: {ids}")
        self._partitions: List[int] = ids
        self._pindex: Dict[int, int] = {p: i for i, p in enumerate(ids)}
        k = len(ids)
        self._sizes = np.zeros(k, dtype=np.int64)
        # Vertex tables, indexed by the dense intern index.  Row i
        # belongs to the i-th vertex interned, ``_ids[i]``.
        self._interned = 0
        self._capacity = _INITIAL_CAPACITY
        self._replicas = np.zeros((self._capacity, k), dtype=bool)
        # ``_row_version[i]`` bumps whenever row ``i`` gains a bit: memo
        # keys the window records against it stay valid exactly as long
        # as a fresh recomputation would produce the memoized value.
        self._row_version = np.zeros(self._capacity, dtype=np.int64)
        self._deg = np.zeros(self._capacity, dtype=np.int64)
        # Row -> vertex id, written at intern time: how a kernel's dense
        # rows come back as the ids they stand for, without a lookup.
        self._ids = np.zeros(self._capacity, dtype=np.int64)
        # Id -> row: the ``(id, row)`` slots of the native intern table
        # (``InternTable`` in ``_kernels.c``); row -1 marks a slot empty.
        self._table = np.full((_INITIAL_TABLE, 2), -1, dtype=np.int64)
        self.max_degree: int = 1
        self.assigned_edges: int = 0
        self._max_size = 0
        self._min_size = 0

    # ------------------------------------------------------------------
    # Vertex interning
    # ------------------------------------------------------------------
    def dense_rows(self, vertices: np.ndarray,
                   intern: bool = True) -> np.ndarray:
        """Dense rows of the int64 vertex ids ``vertices`` (a batch's
        endpoints, interleaved in stream order) from the native table,
        in one kernel call: each id not seen before is interned to the
        next row, in that order — or, with ``intern=False``, reads -1
        and nothing is interned."""
        from repro.core import _kernels  # lazy: repro.core imports us

        kernels = _kernels.load()
        if kernels is None:
            raise RuntimeError(
                "FastPartitionState interns vertex ids through the compiled "
                "kernels, which could not be built here (no C compiler or "
                "cffi); use the dict-backed PartitionState")
        ffi, lib = kernels
        ids = np.ascontiguousarray(vertices)
        if ids.dtype != np.int64 or ids.ndim != 1:
            raise TypeError("vertex ids must be a flat int64 array, got "
                            f"{ids.dtype} with shape {ids.shape}")
        rows = np.empty(ids.size, dtype=np.int64)
        if not ids.size:
            return rows
        # The table handle lives for this call only: nothing of cffi's
        # is kept on the state, which stays picklable.
        table = ffi.new("InternTable *")
        table.n_rows = self._interned
        args = (ffi.from_buffer("int64_t[]", ids), ids.size,
                ffi.from_buffer("int64_t[]", rows))
        self._bind_table(ffi, table)
        if not intern:
            lib.kern_lookup(table, *args)
            return rows
        while True:
            status = lib.kern_intern(table, *args)
            self._interned = table.n_rows
            if status == lib.KERN_DONE:
                return rows
            # The id at the call's cursor did not fit and was written
            # nowhere: make room, rebind, and the call resumes there.
            if status == lib.KERN_NEED_ROWS:
                self._grow()
                self._bind_table(ffi, table)
            else:  # KERN_NEED_TABLE
                self._table = np.full((2 * len(self._table), 2), -1,
                                      dtype=np.int64)
                self._bind_table(ffi, table)
                lib.kern_rehash(table)

    def _bind_table(self, ffi, table) -> None:
        """Point ``table`` at the intern arrays as they are now."""
        slots = len(self._table)
        if (slots < 2 or slots & (slots - 1)
                or 2 * self._interned > slots
                or not self._interned <= self._capacity <= self._ids.size):
            raise RuntimeError("vertex intern table is inconsistent")
        table.slots = ffi.from_buffer("int64_t[]", self._table)
        table.ids = ffi.from_buffer("int64_t[]", self._ids)
        table.cap = slots
        table.row_cap = self._capacity

    def _find(self, vertex: int) -> int:
        """Dense row of ``vertex``, -1 if it was never seen."""
        try:
            ids = np.array([vertex], dtype=np.int64)
        except OverflowError:  # outside int64: never interned
            return -1
        return int(self.dense_rows(ids, intern=False)[0])

    @property
    def _vindex(self) -> Dict[int, int]:
        """Id → row as a dict in row order, built on demand for
        introspection; nothing on the ingest or query path reads it."""
        n = self._interned
        return dict(zip(self._ids[:n].tolist(), range(n)))

    def _grow(self) -> None:
        capacity = self._capacity * 2
        replicas = np.zeros((capacity, len(self._partitions)), dtype=bool)
        replicas[:self._capacity] = self._replicas
        self._replicas = replicas
        row_version = np.zeros(capacity, dtype=np.int64)
        row_version[:self._capacity] = self._row_version
        self._row_version = row_version
        deg = np.zeros(capacity, dtype=np.int64)
        deg[:self._capacity] = self._deg
        self._deg = deg
        ids = np.zeros(capacity, dtype=np.int64)
        ids[:self._capacity] = self._ids
        self._ids = ids
        self._capacity = capacity

    def _seen_ids(self) -> List[int]:
        """Every interned vertex id, in row order."""
        return self._ids[:self._interned].tolist()

    def _seen_replicas(self) -> np.ndarray:
        """The replica rows of every interned vertex (a view)."""
        return self._replicas[:self._interned]

    # ------------------------------------------------------------------
    # Queries (PartitionState API)
    # ------------------------------------------------------------------
    @property
    def partitions(self) -> List[int]:
        """Partition ids this state may assign to (the instance's spread)."""
        return self._partitions

    @property
    def num_partitions(self) -> int:
        return len(self._partitions)

    def replicas(self, vertex: int) -> FrozenSet[int]:
        """Replica set ``R_v`` (empty if the vertex was never seen)."""
        idx = self._find(vertex)
        if idx < 0:
            return frozenset()
        partitions = self._partitions
        return frozenset(partitions[j] for j in
                         np.flatnonzero(self._replicas[idx]).tolist())

    def is_replicated_on(self, vertex: int, partition: int) -> bool:
        """Indicator ``1{p in R_v}`` from the scoring functions."""
        j = self._pindex.get(partition)
        if j is None:
            return False
        idx = self._find(vertex)
        return idx >= 0 and bool(self._replicas[idx, j])

    def degree_of(self, vertex: int) -> int:
        """Observed (partial) degree of ``vertex`` so far in the stream."""
        idx = self._find(vertex)
        return int(self._deg[idx]) if idx >= 0 else 0

    def degree_pair(self, u: int, v: int) -> Tuple[int, int]:
        """Degrees of both endpoints in one call (single-edge hot paths)."""
        return self.degree_of(u), self.degree_of(v)

    @property
    def max_size(self) -> int:
        return self._max_size

    @property
    def min_size(self) -> int:
        return self._min_size

    def size(self, partition: int) -> int:
        return int(self._sizes[self._pindex[partition]])

    def imbalance(self) -> float:
        """Current imbalance ι = (maxsize − minsize) / maxsize (paper §III-C)."""
        max_size = self._max_size
        if max_size == 0:
            return 0.0
        return (max_size - self._min_size) / max_size

    # ------------------------------------------------------------------
    # Dense tables (compiled kernels, DESIGN.md §14)
    # ------------------------------------------------------------------
    def vertex_ids(self, rows: np.ndarray) -> np.ndarray:
        """The vertex ids dense ``rows`` stand for (int64)."""
        return self._ids[rows]

    def replica_matrix(self) -> np.ndarray:
        """The ``(capacity, k)`` replica indicator matrix.

        Kernels index rows by dense vertex index; callers must re-fetch
        (and rebind pointers) whenever the identity changes — the vertex
        tables are reallocated together when the intern table grows.
        """
        return self._replicas

    def row_version_array(self) -> np.ndarray:
        """Per-dense-vertex replica-row version counters."""
        return self._row_version

    def degrees_dense(self) -> np.ndarray:
        """Partial degrees by dense vertex index."""
        return self._deg

    def sizes_vector(self) -> np.ndarray:
        """Partition sizes in spread order (never reallocated)."""
        return self._sizes

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def observe_degrees(self, edge: Edge) -> None:
        """Update the partial degree table for an edge seen in the stream."""
        # Intern before touching ``_deg``: a first sighting may
        # reallocate it.  An id outside int64 is refused here.
        for idx in self.dense_rows(np.array(edge, dtype=np.int64)).tolist():
            d = int(self._deg[idx]) + 1
            self._deg[idx] = d
            if d > self.max_degree:
                self.max_degree = d

    def assign(self, edge: Edge, partition: int) -> List[int]:
        """Assign ``edge`` to ``partition``; return vertices newly replicated."""
        j = self._pindex.get(partition)
        if j is None:
            raise ValueError(
                f"partition {partition} not in this instance's spread "
                f"{self._partitions}")
        changed: List[int] = []
        rows = self.dense_rows(np.array(edge, dtype=np.int64)).tolist()
        for vertex, idx in zip(edge, rows):
            if not self._replicas[idx, j]:
                self._replicas[idx, j] = True
                self._row_version[idx] += 1
                changed.append(vertex)
        sizes = self._sizes
        old_size = int(sizes[j])
        sizes[j] = old_size + 1
        self.assigned_edges += 1
        # Sizes only ever grow by 1: the max moves only through this
        # partition, the min only when this partition held it.
        if old_size + 1 > self._max_size:
            self._max_size = old_size + 1
        if old_size == self._min_size:
            self._min_size = int(sizes.min())
        return changed

    def absorb_pump(self, assigned_edges: int, max_degree: int,
                    max_size: int, min_size: int) -> None:
        """Adopt the scalars of a compiled transaction (DESIGN.md §14:
        the window pump, the single-edge stream kernel).

        The kernel updated the tables themselves in place — degrees,
        replica bits, row versions, sizes — so its running copies of
        the scalars derived from them are all that is left to take."""
        self.assigned_edges = assigned_edges
        self.max_degree = max_degree
        self._max_size = max_size
        self._min_size = min_size

    def copy_degrees_from(self, other) -> None:
        """Adopt the degree table (``degree`` and ``max_degree``) of a
        snapshot or of another state."""
        degree = other.degree
        rows = self.dense_rows(
            np.fromiter(degree, dtype=np.int64, count=len(degree)))
        self._deg[:] = 0
        self._deg[rows] = np.fromiter(degree.values(), dtype=np.int64,
                                      count=len(degree))
        self.max_degree = other.max_degree

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def total_replicas(self) -> int:
        return int(np.count_nonzero(self._seen_replicas()))

    def replication_degree(self) -> float:
        """Average |R_v| over vertices seen by this instance (Eq. 1)."""
        per_vertex = np.count_nonzero(self._seen_replicas(), axis=1)
        replicated = int(np.count_nonzero(per_vertex))
        if replicated == 0:
            return 0.0
        return int(per_vertex.sum()) / replicated

    # ------------------------------------------------------------------
    # Serialization (process-pool boundary)
    # ------------------------------------------------------------------
    def snapshot(self) -> StateSnapshot:
        """Compact picklable image of this state (see :class:`StateSnapshot`).

        Replica rows are packed little-endian, so bit ``j`` of a
        vertex's mask is spread position ``j`` for any ``k``.
        """
        packed = np.packbits(self._seen_replicas(), axis=1,
                             bitorder="little")
        width = packed.shape[1]
        data = packed.tobytes()
        masks = (int.from_bytes(data[start:start + width], "little")
                 for start in range(0, len(data), width))
        return StateSnapshot(
            partitions=list(self._partitions),
            replica_bits={vertex: bits
                          for vertex, bits in zip(self._seen_ids(), masks)
                          if bits},
            sizes=self._sizes.tolist(),
            degree=self.degree,
            max_degree=self.max_degree,
            assigned_edges=self.assigned_edges,
        )

    @classmethod
    def from_snapshot(cls, snap: StateSnapshot) -> "FastPartitionState":
        """Rebuild a state from a snapshot (inverse of :meth:`snapshot`)."""
        state = cls(snap.partitions)
        k = len(snap.partitions)
        width = (k + 7) // 8
        replicated = {vertex: bits
                      for vertex, bits in snap.replica_bits.items() if bits}
        rows = state.dense_rows(
            np.fromiter(replicated, dtype=np.int64, count=len(replicated)))
        if rows.size:
            packed = np.frombuffer(
                b"".join(bits.to_bytes(width, "little")
                         for bits in replicated.values()),
                dtype=np.uint8).reshape(len(rows), width)
            state._replicas[rows] = np.unpackbits(
                packed, axis=1, count=k, bitorder="little")
        state._sizes[:] = snap.sizes
        state._max_size = max(snap.sizes, default=0)
        state._min_size = min(snap.sizes, default=0)
        state.copy_degrees_from(snap)
        state.assigned_edges = snap.assigned_edges
        return state

    # ------------------------------------------------------------------
    # Dict views (aggregate / validation paths — O(n) snapshots)
    # ------------------------------------------------------------------
    @property
    def degree(self) -> Dict[int, int]:
        """Partial degrees of every observed vertex as a dict *snapshot*."""
        degrees = self._deg[:self._interned].tolist()
        return {vertex: d for vertex, d in zip(self._seen_ids(), degrees)
                if d}

    @property
    def replica_sets(self) -> Dict[int, Set[int]]:
        """Replica sets as a dict *snapshot* (non-empty sets only)."""
        vertices = self._seen_ids()
        partitions = self._partitions
        out: Dict[int, Set[int]] = {}
        rows, cols = np.nonzero(self._seen_replicas())
        for idx, j in zip(rows.tolist(), cols.tolist()):
            out.setdefault(vertices[idx], set()).add(partitions[j])
        return out

    @property
    def partition_edges(self) -> Dict[int, int]:
        """Partition sizes as a dict *snapshot*."""
        return dict(zip(self._partitions, self._sizes.tolist()))
