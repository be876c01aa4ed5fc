"""Array-backed partition state: the fast path of the vertex cache.

:class:`FastPartitionState` is a drop-in replacement for
:class:`~repro.partitioning.state.PartitionState` that stores the vertex
cache in flat arrays instead of per-vertex dicts and sets.  Vertex ids
are interned to a dense index on first sight; each derived quantity then
lives in the representation its consumers read fastest:

* replica membership is kept twice — as a ``(vertices, k)`` boolean
  matrix whose rows are the indicator vectors ``1{p in R_v}`` the
  batched scoring kernels (:meth:`repro.core.scoring.AdwiseScoring.
  score_all`, :meth:`repro.partitioning.hdrf.HDRFPartitioner.score_all`)
  consume wholesale, and as per-vertex integer bitmasks for the scalar
  membership tests and the set algebra of the greedy baseline (Python
  int bit-ops beat NumPy on single rows of width k),
* the partial degree table is kept twice as well — a plain
  vertex-keyed dict, the fastest scalar read path, and a dense ``int64``
  mirror indexed by the intern index, which is what the compiled kernels
  read and increment — while partition sizes live in a flat Python list
  mirrored into an ``int64`` vector for the kernels,
* max/min partition sizes use the same incremental histogram as the
  legacy state.

The compiled kernels (``repro/core/_kernels.c``: ADWISE's window pump,
HDRF's stream kernel) update the dense tables in place, a batch at a
time; :meth:`FastPartitionState.absorb_pump` is the one entry that
brings the Python-side mirrors back in step after any such transaction.

The legacy dict API is preserved for reading: every query/mutation
*method* of ``PartitionState`` behaves identically, and ``replica_sets``
/ ``partition_edges`` are materialised on access (aggregate/validation
paths only — the hot loops never touch them).  The one deliberate
divergence: those two attributes are throwaway **snapshots**, so writes
to them are silently discarded, whereas the legacy class exposes its
live dicts.  All mutation must go through ``observe_degrees`` /
``assign`` — which is the only way the shipped code mutates state.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised only on numpy-free installs
    np = None

from repro.graph.graph import Edge
from repro.partitioning.state import (
    StateSnapshot,
    bump_size_histogram,
    iter_bits,
    rebuild_size_stats,
)

#: Initial replica-matrix row capacity; doubled on demand.
_INITIAL_CAPACITY = 1024

#: Queued replica-matrix writes are force-drained at this size so the
#: queue stays bounded even when no vectorised reader ever runs.
_SYNC_THRESHOLD = 8192


class FastPartitionState:
    """Vertex cache + partition sizes backed by flat arrays.

    API-compatible with :class:`~repro.partitioning.state.PartitionState`;
    additionally exposes the vectorised accessors ``sizes_vector``,
    ``replica_vector``, ``replica_bits`` and ``replica_hits`` that the
    batched scoring kernels and fast baselines build on.
    """

    #: Capability marker the scoring kernels dispatch on.
    is_fast = True

    def __init__(self, partitions: Sequence[int]) -> None:
        if np is None:
            raise ImportError(
                "FastPartitionState requires numpy; install it or use the "
                "dict-backed PartitionState (fast=False)")
        ids = list(partitions)
        if not ids:
            raise ValueError("at least one partition required")
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate partition ids: {ids}")
        self._partitions: List[int] = ids
        self._pindex: Dict[int, int] = {p: i for i, p in enumerate(ids)}
        k = len(ids)
        self._sizes_list: List[int] = [0] * k
        # NumPy mirror of the sizes list, synced lazily on vector reads.
        self._sizes = np.zeros(k, dtype=np.int64)
        self._sizes_dirty = False
        # Vertex tables, indexed by the dense intern index.
        self._vindex: Dict[int, int] = {}
        self.degree: Dict[int, int] = {}
        self._replica_bits: List[int] = []
        self._capacity = _INITIAL_CAPACITY
        self._replicas = np.zeros((self._capacity, k), dtype=bool)
        # Matrix writes are deferred: assign() queues (row, column) pairs
        # and the matrix is synced when a vectorised reader needs it or
        # the queue reaches _SYNC_THRESHOLD, so partitioners that never
        # touch the matrix (DBH, greedy) pay only an occasional batched
        # drain — and the queue stays bounded on arbitrarily long streams.
        self._pending_replicas: List[Tuple[int, int]] = []
        # Pull-validity counters for the window's component memos
        # (DESIGN.md §14): ``_row_version[i]`` bumps whenever dense
        # vertex ``i``'s replica row gains a bit, and ``_deg`` mirrors
        # the degree table densely so compiled kernels can read degrees
        # without dict lookups.  Memo keys recorded against these
        # counters stay valid exactly as long as a fresh recomputation
        # would produce the memoized value.
        self._row_version = np.zeros(self._capacity, dtype=np.int64)
        self._deg = np.zeros(self._capacity, dtype=np.int64)
        self._zero_row = np.zeros(k, dtype=bool)
        self._zero_row.setflags(write=False)
        self.max_degree: int = 1
        self.assigned_edges: int = 0
        self._max_size = 0
        self._min_size = 0
        self._size_histogram: Dict[int, int] = {0: k}
        self._total_replicas = 0
        self._replicated_vertices = 0

    # ------------------------------------------------------------------
    # Vertex interning
    # ------------------------------------------------------------------
    def _row(self, vertex: int) -> int:
        """Dense index of ``vertex``, interning it on first sight."""
        idx = self._vindex.get(vertex)
        if idx is None:
            idx = len(self._vindex)
            self._vindex[vertex] = idx
            self._replica_bits.append(0)
            if idx >= self._capacity:
                self._grow()
        return idx

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
        self._capacity = capacity

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
        idx = self._vindex.get(vertex)
        if idx is None:
            return frozenset()
        partitions = self._partitions
        return frozenset(partitions[j]
                         for j in iter_bits(self._replica_bits[idx]))

    def is_replicated_on(self, vertex: int, partition: int) -> bool:
        """Indicator ``1{p in R_v}`` from the scoring functions."""
        idx = self._vindex.get(vertex)
        if idx is None:
            return False
        j = self._pindex.get(partition)
        if j is None:
            return False
        return bool((self._replica_bits[idx] >> j) & 1)

    def degree_of(self, vertex: int) -> int:
        """Observed (partial) degree of ``vertex`` so far in the stream."""
        return self.degree.get(vertex, 0)

    def degree_pair(self, u: int, v: int) -> Tuple[int, int]:
        """Degrees of both endpoints in one call (single-edge hot paths)."""
        get = self.degree.get
        return get(u, 0), get(v, 0)

    @property
    def max_size(self) -> int:
        return self._max_size

    @property
    def min_size(self) -> int:
        return self._min_size

    def size(self, partition: int) -> int:
        return self._sizes_list[self._pindex[partition]]

    def imbalance(self) -> float:
        """Current imbalance ι = (maxsize − minsize) / maxsize (paper §III-C)."""
        max_size = self._max_size
        if max_size == 0:
            return 0.0
        return (max_size - self._min_size) / max_size

    # ------------------------------------------------------------------
    # Vectorised accessors (batched scoring kernel API)
    # ------------------------------------------------------------------
    def sizes_vector(self) -> np.ndarray:
        """Partition sizes in spread order (lazily synced read-only view)."""
        if self._sizes_dirty:
            self._sizes[:] = self._sizes_list
            self._sizes_dirty = False
        return self._sizes

    def sizes_list(self) -> List[int]:
        """Partition sizes in spread order as a plain list (scalar paths)."""
        return self._sizes_list

    def _sync_replicas(self) -> None:
        """Apply queued replica-matrix writes before a vectorised read."""
        pending = self._pending_replicas
        if len(pending) > 32:
            rows, cols = zip(*pending)
            self._replicas[list(rows), list(cols)] = True
        else:
            replicas = self._replicas
            for idx, j in pending:
                replicas[idx, j] = True
        pending.clear()

    def replica_vector(self, vertex: int) -> np.ndarray:
        """Boolean indicator row ``[1{p in R_v} for p in partitions]``.

        Returns a shared all-zero row for unseen vertices; callers must
        treat the result as read-only.
        """
        if self._pending_replicas:
            self._sync_replicas()
        idx = self._vindex.get(vertex)
        if idx is None:
            return self._zero_row
        return self._replicas[idx]

    def replica_bits(self, vertex: int) -> int:
        """Replica set of ``vertex`` as a bitmask over spread positions."""
        idx = self._vindex.get(vertex)
        return self._replica_bits[idx] if idx is not None else 0

    def replica_bits_pair(self, u: int, v: int) -> Tuple[int, int]:
        """Replica bitmasks of both endpoints in one call (greedy fast path)."""
        vindex = self._vindex
        bits = self._replica_bits
        iu = vindex.get(u)
        iv = vindex.get(v)
        return (bits[iu] if iu is not None else 0,
                bits[iv] if iv is not None else 0)

    def replica_rows_pair(self, u: int, v: int
                          ) -> Tuple[np.ndarray, np.ndarray]:
        """Indicator rows of both endpoints with a single matrix sync.

        The single-edge kernels (HDRF/ADWISE ``score_all``) read exactly
        two rows per edge; fetching them together halves the pending-queue
        checks on the hot path.  Rows are read-only views (the shared
        zero row for unseen vertices).
        """
        if self._pending_replicas:
            self._sync_replicas()
        vindex = self._vindex
        iu = vindex.get(u)
        iv = vindex.get(v)
        replicas = self._replicas
        return (replicas[iu] if iu is not None else self._zero_row,
                replicas[iv] if iv is not None else self._zero_row)

    def replica_rows(self, vertices: Sequence[int]) -> np.ndarray:
        """Indicator rows for a batch of vertex ids as one ``(N, k)`` matrix.

        The row for an unseen vertex is all-zero, mirroring
        :meth:`replica_vector`.  The result is a fresh matrix (safe to
        mutate); the batched window kernel consumes whole slot batches
        through this accessor instead of ``N`` scalar row reads.
        """
        if self._pending_replicas:
            self._sync_replicas()
        get = self._vindex.get
        if isinstance(vertices, np.ndarray):
            vertices = vertices.tolist()
        idx = [get(v, -1) for v in vertices]
        if not idx:
            return np.zeros((0, len(self._partitions)), dtype=bool)
        out = self._replicas[idx]
        if -1 in idx:
            out[np.asarray(idx, dtype=np.int64) < 0] = False
        return out

    def degrees_array(self, vertices: Sequence[int]) -> np.ndarray:
        """Observed degrees for a batch of vertex ids (``0`` if unseen)."""
        get = self.degree.get
        if isinstance(vertices, np.ndarray):
            vertices = vertices.tolist()
        return np.fromiter((get(v, 0) for v in vertices),
                           dtype=np.int64, count=len(vertices))

    def replica_hits(self, vertices: Iterable[int]) -> np.ndarray:
        """Per-partition count of ``vertices`` replicated there.

        The vectorised form of the clustering-score numerator: one row
        gather + column sum instead of ``|N| × k`` indicator probes.
        """
        if self._pending_replicas:
            self._sync_replicas()
        vindex = self._vindex
        rows = [idx for idx in (vindex.get(v) for v in vertices)
                if idx is not None]
        if not rows:
            return np.zeros(len(self._partitions), dtype=np.int64)
        return self._replicas[rows].sum(axis=0, dtype=np.int64)

    # ------------------------------------------------------------------
    # Dense accessors (compiled kernels, DESIGN.md §14)
    # ------------------------------------------------------------------
    def dense_pair(self, u: int, v: int) -> Tuple[int, int]:
        """Dense intern indices of both endpoints (interning on first sight)."""
        row = self._row
        return row(u), row(v)

    def dense_rows(self, edges: Sequence[Edge]) -> np.ndarray:
        """Dense ``(u, v)`` rows of ``edges``, interleaved in one int64
        array (interning on first sight, in stream order)."""
        vindex = self._vindex
        try:
            rows = [vindex[vertex] for edge in edges for vertex in edge]
        except KeyError:  # some vertex is new: intern as we go
            row = self._row
            rows = [row(vertex) for edge in edges for vertex in edge]
        return np.array(rows, dtype=np.int64)

    def replica_matrix(self) -> np.ndarray:
        """The synced ``(capacity, k)`` replica indicator matrix.

        Kernels index rows by dense vertex index; callers must re-fetch
        (and rebind pointers) whenever the identity changes — the matrix
        is reallocated when the intern table grows.
        """
        if self._pending_replicas:
            self._sync_replicas()
        return self._replicas

    def row_version_array(self) -> np.ndarray:
        """Per-dense-vertex replica-row version counters (read-only use)."""
        return self._row_version

    def degrees_dense(self) -> np.ndarray:
        """Dense mirror of the degree table (read-only use)."""
        return self._deg

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def observe_degrees(self, edge: Edge) -> None:
        """Update the partial degree table for an edge seen in the stream.

        Vertices are interned on first observation so the dense degree
        mirror (read by the compiled kernels) always covers every
        observed vertex; the dict stays the scalar read path.
        """
        degree = self.degree
        row = self._row
        for vertex in (edge.u, edge.v):
            d = degree.get(vertex, 0) + 1
            degree[vertex] = d
            # Intern before touching ``_deg``: a first sighting may
            # reallocate it.
            idx = row(vertex)
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
        bit = 1 << j
        changed: List[int] = []
        vindex = self._vindex
        for vertex in (edge.u, edge.v):
            idx = vindex.get(vertex)
            if idx is None:
                idx = self._row(vertex)
            bits = self._replica_bits[idx]
            if not bits & bit:
                if bits == 0:
                    self._replicated_vertices += 1
                self._replica_bits[idx] = bits | bit
                self._pending_replicas.append((idx, j))
                self._total_replicas += 1
                self._row_version[idx] += 1
                changed.append(vertex)
        if len(self._pending_replicas) >= _SYNC_THRESHOLD:
            self._sync_replicas()
        old_size = self._sizes_list[j]
        new_size = old_size + 1
        self._sizes_list[j] = new_size
        self._sizes_dirty = True
        self.assigned_edges += 1
        self._max_size, self._min_size = bump_size_histogram(
            self._size_histogram, old_size, new_size,
            self._max_size, self._min_size)
        return changed

    def absorb_pump(self, edges: Sequence[Edge], changed_rows: List[int],
                    changed_cols: List[int], assigned_edges: int,
                    max_degree: int) -> None:
        """The one reconcile entry for any compiled transaction
        (DESIGN.md §14: the window pump, the single-edge stream kernel).

        Brings the Python-side mirrors in step with what the kernel did
        to the dense tables directly: it observed ``edges`` into the
        dense degree table, set replica bit
        ``(changed_rows[i], changed_cols[i])`` for every ``i`` (bumping
        that row's version), and counted each assignment into the sizes
        vector."""
        degree = self.degree
        for u, v in edges:
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        self.max_degree = max_degree
        bits = self._replica_bits
        for row, col in zip(changed_rows, changed_cols):
            if not bits[row]:
                self._replicated_vertices += 1
            bits[row] |= 1 << col
        self._total_replicas += len(changed_rows)
        self._sizes_list[:] = self._sizes.tolist()
        self.assigned_edges = assigned_edges
        (self._size_histogram, self._max_size,
         self._min_size) = rebuild_size_stats(self._sizes_list)

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def total_replicas(self) -> int:
        return self._total_replicas

    def replication_degree(self) -> float:
        """Average |R_v| over vertices seen by this instance (Eq. 1)."""
        if self._replicated_vertices == 0:
            return 0.0
        return self._total_replicas / self._replicated_vertices

    def copy_degrees_from(self, other) -> None:
        """Adopt another state's degree table (restreaming support)."""
        self.degree = dict(other.degree)
        self.max_degree = other.max_degree
        self._mirror_degrees()

    def _mirror_degrees(self) -> None:
        """Rebuild the dense degree mirror from the degree dict."""
        rows = [self._row(vertex) for vertex in self.degree]
        self._deg[rows] = list(self.degree.values())

    # ------------------------------------------------------------------
    # Serialization (process-pool boundary)
    # ------------------------------------------------------------------
    def snapshot(self) -> StateSnapshot:
        """Compact picklable image of this state (see :class:`StateSnapshot`).

        The fast state already keeps replica sets as bitmasks in spread
        order, so the snapshot is a near-verbatim copy — no matrix sync
        needed.
        """
        replica_bits = {vertex: self._replica_bits[idx]
                        for vertex, idx in self._vindex.items()
                        if self._replica_bits[idx]}
        return StateSnapshot(
            partitions=list(self._partitions),
            replica_bits=replica_bits,
            sizes=list(self._sizes_list),
            degree=dict(self.degree),
            max_degree=self.max_degree,
            assigned_edges=self.assigned_edges,
            fast=True,
        )

    @classmethod
    def from_snapshot(cls, snap: StateSnapshot) -> "FastPartitionState":
        """Rebuild a state from a snapshot (inverse of :meth:`snapshot`)."""
        state = cls(snap.partitions)
        for vertex, bits in snap.replica_bits.items():
            if not bits:
                continue
            idx = state._row(vertex)
            state._replica_bits[idx] = bits
            state._replicated_vertices += 1
            state._total_replicas += bits.bit_count()
            for j in iter_bits(bits):
                state._pending_replicas.append((idx, j))
        if len(state._pending_replicas) >= _SYNC_THRESHOLD:
            state._sync_replicas()
        state._sizes_list = list(snap.sizes)
        state._sizes_dirty = True
        state.degree = dict(snap.degree)
        state._mirror_degrees()
        state.max_degree = snap.max_degree
        state.assigned_edges = snap.assigned_edges
        (state._size_histogram, state._max_size,
         state._min_size) = rebuild_size_stats(snap.sizes)
        return state

    # ------------------------------------------------------------------
    # Legacy dict views (aggregate / validation paths — O(n) snapshots)
    # ------------------------------------------------------------------
    @property
    def replica_sets(self) -> Dict[int, Set[int]]:
        """Replica sets as a dict *snapshot* (legacy read API).

        Unlike the legacy class this is not live storage — mutating the
        returned dict has no effect on the state.
        """
        return {vertex: set(self.replicas(vertex))
                for vertex, idx in self._vindex.items()
                if self._replica_bits[idx]}

    @property
    def partition_edges(self) -> Dict[int, int]:
        """Partition sizes as a dict *snapshot* (legacy read API).

        Unlike the legacy class this is not live storage — mutating the
        returned dict has no effect on the state.
        """
        return dict(zip(self._partitions, self._sizes_list))

