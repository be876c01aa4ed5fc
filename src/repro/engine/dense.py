"""Dense (vectorized) superstep kernels over a CSR graph.

The object-mode engine interprets a vertex program one vertex at a time;
``mode="dense"`` instead runs each superstep as a handful of whole-frontier
numpy operations over a :class:`~repro.graph.csr.CSRGraph`.  A program
opts in by returning a :class:`DenseKernel` from
:meth:`~repro.engine.vertex_program.VertexProgram.dense_kernel`; programs
without a kernel transparently fall back to the object path.

A kernel owns the dense mirror of the engine's per-superstep state:

* ``self.active`` — boolean mask of vertices that did not vote to halt in
  the previous superstep (all vertices before superstep 0);
* a message buffer (kernel-specific arrays) plus a boolean receive mask.

The engine's dense loop only asks two things of a kernel each superstep:
the *compute mask* (``active | has-messages``, exactly the object path's
``active | set(inbox)``), and a :meth:`DenseKernel.step` that advances all
masked vertices at once and reports ``(messages_sent, aggregate)`` with
object-path-identical counting (one message per ``ctx.send``, i.e. the
sender's degree for a ``send_all``).  Latency is charged by the engine
from the same ``active_fraction`` as in object mode, so dense and object
runs produce identical cost traces.

Message exchange is expressed with the scatter helpers below: a send mask
selects adjacency slots via the CSR ``rows`` array, and per-target
combination is a segment sum (``np.bincount``) or min
(``np.minimum.at``) over the selected ``indices``.

Sharded execution (the cluster runtime's contract)
--------------------------------------------------
:mod:`repro.cluster` runs one kernel instance per *host* over the
block-diagonal :class:`~repro.graph.shard.ShardCSR` of the shards the
host holds (no slot crosses a shard) and keeps replicas consistent by
combining the scatter helpers' per-shard partial results at each vertex's
master replica (sum and min are both associative) and broadcasting the
combined value back to the mirrors.  A kernel is safe to shard — and its
program may declare :attr:`~repro.engine.vertex_program.VertexProgram.
shardable` — when it follows the message-buffer discipline:

* all inter-vertex data flows through ``scatter_sum`` / ``scatter_min``,
  at most one call per superstep, issued as the *last* data exchange of
  :meth:`step` (results are stored, and only read in the next superstep
  — never consumed within the same ``step`` call), always
  through ``self.scatter_*``: the host rebinds those names, and where the
  compiled kernels are built it answers a call whose ``send_mask`` is a
  C-contiguous bool array and whose ``values`` a C-contiguous float64
  (sum) or float64 / int64 (min) array, one element per vertex, from one
  C pass over the slots (``kern_scatter``) — the same elements as the
  helpers below, bit for bit — and any other call from the helpers
  themselves, which stay the reference, the tier without a compiler and
  what whole-graph ``Engine(mode="dense")`` always runs;
* ``csr.degrees`` is read as the vertex's *logical* (whole-graph) degree
  — true on a shard too, where :class:`~repro.graph.shard.ShardCSR`
  presents global degrees while the slot layout stays shard-local;
* per-vertex aggregate contributions are masked with ``self.owned``;
* per-vertex state lives in arrays of length ``csr.num_vertices``
  (what a checkpoint slices per partition), and ``csr.vertex_ids`` may
  repeat — one entry per replica the host holds — so nothing goes
  through ``csr.index_of``; any other attribute is one value per host.
  The host adds no attribute of its own to the kernel, on either tier:
  the kernel's ``__dict__`` is the checkpoint image.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

import numpy as np

from repro.graph.csr import CSRGraph


class DenseKernel:
    """One vertex program's vectorized superstep implementation.

    Subclasses allocate their state arrays in ``__init__`` and implement
    :meth:`step` and :meth:`states`; the default :meth:`compute_mask`
    covers the standard Pregel activation rule.
    """

    def __init__(self, csr: CSRGraph) -> None:
        self.csr = csr
        n = csr.num_vertices
        #: Vertices that did not halt in the previous superstep.
        self.active = np.ones(n, dtype=bool)
        #: Vertices with a pending message for the next superstep.
        self.has_msg = np.zeros(n, dtype=bool)
        #: Vertices this kernel instance *owns* for global accounting.
        #: All of them on a whole-graph run; under the sharded cluster
        #: runtime (:mod:`repro.cluster`) only master replicas, so that
        #: per-host aggregate contributions sum to the global aggregate
        #: without double-counting mirrors.  Kernels computing aggregates
        #: must mask their per-vertex contributions with ``self.owned``.
        self.owned = np.ones(n, dtype=bool)

    # ------------------------------------------------------------------
    # Engine-facing protocol
    # ------------------------------------------------------------------
    def compute_mask(self) -> np.ndarray:
        """Vertices to compute this superstep (``active | inbox``)."""
        return self.active | self.has_msg

    def step(self, superstep: int, mask: np.ndarray) -> Tuple[int, Any]:
        """Advance all vertices in ``mask`` one superstep.

        Returns ``(messages_sent, aggregate)`` where ``messages_sent``
        counts individual sends exactly as the object path does and
        ``aggregate`` is the superstep's global aggregate (``None`` if the
        program does not aggregate).
        """
        raise NotImplementedError

    def states(self) -> Dict[int, Any]:
        """Final per-vertex states, keyed by *original* vertex id."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Scatter helpers (send to all neighbors, combine per target)
    # ------------------------------------------------------------------
    def _sending_slots(self, send_mask: np.ndarray
                       ) -> Tuple[np.ndarray, np.ndarray]:
        """``(targets, sources)`` of every adjacency slot whose source
        vertex is in ``send_mask`` (full-frontier sends skip the filter —
        slots only exist for vertices with neighbors)."""
        csr = self.csr
        sel = send_mask[csr.rows]
        if sel.all():
            return csr.indices, csr.rows
        return csr.indices[sel], csr.rows[sel]

    def scatter_sum(self, send_mask: np.ndarray,
                    values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Each sender sends ``values[sender]`` to all neighbors; messages
        addressed to one target are summed.  Returns ``(recv_mask, sums)``.
        """
        n = self.csr.num_vertices
        targets, sources = self._sending_slots(send_mask)
        # bincount answers an empty input with integer zeros, weights or
        # not; sums are float64 whether or not anything was sent.
        sums = np.bincount(targets, weights=values[sources],
                           minlength=n).astype(np.float64, copy=False)
        recv = np.zeros(n, dtype=bool)
        recv[targets] = True
        return recv, sums

    def scatter_min(self, send_mask: np.ndarray, values: np.ndarray,
                    sentinel: Any) -> Tuple[np.ndarray, np.ndarray]:
        """Like :meth:`scatter_sum` but combines with ``min``; targets
        without a message hold ``sentinel``."""
        n = self.csr.num_vertices
        targets, sources = self._sending_slots(send_mask)
        mins = np.full(n, sentinel, dtype=values.dtype)
        np.minimum.at(mins, targets, values[sources])
        recv = np.zeros(n, dtype=bool)
        recv[targets] = True
        return recv, mins

    def sent_from(self, send_mask: np.ndarray) -> int:
        """Message count of a ``send_all`` from every vertex in the mask."""
        return int(self.csr.degrees[send_mask].sum())
