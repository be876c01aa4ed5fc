"""PageRank — the paper's lightweight reference workload.

Standard synchronous PageRank with damping 0.85 on the undirected graph
(each edge contributes in both directions).  Vertices exchange numeric
values and do trivial arithmetic — the paper's canonical example of a
*communication-light* workload, hence ``is_stationary`` so the harness can
use the analytic latency shortcut for the 100-iteration blocks of Fig. 7a-c.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.core._binding import _CTYPES
from repro.engine.dense import DenseKernel
from repro.engine.vertex_program import Context, VertexProgram
from repro.graph.csr import CSRGraph

DAMPING = 0.85


class _DensePageRank(DenseKernel):
    """Whole-frontier PageRank: ranks and combined contributions as arrays.

    Mirrors :meth:`PageRank.compute` exactly: every vertex stays active
    through superstep ``iterations`` (isolated vertices included — they
    just never send), the per-target message combination is the sum the
    object path's combiner produces, and the rank update reads the
    combined inbox (zero where no message arrived).  Float sums are
    reassociated relative to the object path, so parity is ``allclose``
    rather than bit-exact.
    """

    def __init__(self, csr: CSRGraph, iterations: int) -> None:
        super().__init__(csr)
        self.iterations = iterations
        n = csr.num_vertices
        self.rank = np.ones(n, dtype=np.float64)
        self.incoming = np.zeros(n, dtype=np.float64)

    def step(self, superstep: int, mask: np.ndarray) -> Tuple[int, Any]:
        # Masked ufuncs, not boolean gathers: each element is the same
        # double the gathered form computes, and the rest stay untouched.
        if superstep > 0:
            # sum(messages) is 0.0 for computed vertices with no inbox,
            # which self.incoming already encodes.
            np.add(1.0 - DAMPING, DAMPING * self.incoming, out=self.rank,
                   where=mask)
        if superstep < self.iterations:
            senders = mask & (self.csr.degrees > 0)
            share = np.zeros(len(self.rank), dtype=np.float64)
            np.divide(self.rank, self.csr.degrees, out=share, where=senders)
            self.has_msg, self.incoming = self.scatter_sum(senders, share)
            self.active = mask.copy()
            return self.sent_from(senders), None
        self.has_msg[:] = False
        self.active[:] = False  # every computed vertex voted to halt
        return 0, None

    def states(self) -> Dict[int, Any]:
        return dict(zip(self.csr.vertex_ids.tolist(), self.rank.tolist()))

    def host_steps(self) -> Optional["HostSteps"]:
        # C is this class's step after the default mask: a subclass that
        # overrides either keeps its own.
        kind = type(self)
        if (kind.step is not _DensePageRank.step
                or kind.compute_mask is not DenseKernel.compute_mask):
            return None
        n = self.csr.num_vertices
        return HostSteps(self, np.zeros(n, dtype=bool), np.zeros(n))


#: ``kern_pagerank_step``'s mask, rank, active, incoming, has_msg, senders
#: and share.
_ARRAYS = (np.bool_, np.float64, np.bool_, np.float64, np.bool_, np.bool_,
           np.float64)


class HostSteps(NamedTuple):
    """PageRank's supersteps below ``iterations`` in C on a cluster host
    (:class:`~repro.cluster.transport.ShardGroup`, DESIGN.md §8): which
    entries run and what they are handed.  ``senders`` and ``share`` are
    the step's scratch, made once.  Each method takes the host's ``(ffi,
    lib)``, its index arrays bound as int64 pointers (``index``: slots,
    logical and local degrees, sync plan) and its ``plain`` check, and
    answers ``None`` where C does not take the supersteps: from
    ``iterations`` on, or where an array is not plain — the host then
    runs :meth:`_DensePageRank.step`."""

    kernel: _DensePageRank
    senders: np.ndarray
    share: np.ndarray

    def _views(self, native, plain, arrays, dtypes) -> Optional[List]:
        if not all(map(plain, arrays, dtypes)):
            return None
        return [native[0].from_buffer(_CTYPES[array.dtype], array)
                for array in arrays]

    def _arrays(self, mask: np.ndarray) -> Tuple[np.ndarray, ...]:
        kernel = self.kernel
        return (mask, kernel.rank, kernel.active, kernel.incoming,
                kernel.has_msg, self.senders, self.share)

    def step(self, native, index, plain, superstep: int,
             mask: np.ndarray) -> Optional[Tuple[int, Tuple]]:
        """One superstep, ``kern_pagerank_step`` — the same elements as
        :meth:`_DensePageRank.step`, message buffers refilled in place:
        ``(sent, parked)``, the buffers as ``(kind, values, recv)``."""
        views = (superstep < self.kernel.iterations
                 and self._views(native, plain, self._arrays(mask),
                                 _ARRAYS))
        if not views:
            return None
        sent = native[1].kern_pagerank_step(
            DAMPING, superstep > 0, views[0], index["degrees"],
            index["local_degrees"], len(mask), *views[1:], index["indices"],
            index["rows"], len(index["indices"]))
        return sent, ("sum", self.kernel.incoming, self.kernel.has_msg)

    def run(self, native, index, plain, first: int,
            stop: int) -> Optional[Tuple[np.ndarray, Tuple]]:
        """Supersteps ``first`` .. ``stop - 1``, below ``iterations``, on
        a host whose sync plan is all its own: one ``kern_pagerank_run``,
        each superstep the mask and its owned count, the step, the fold
        and the put.  ``(rows, parked)``: one row per superstep run —
        owned computed count, sends and five ``perf_counter_ns`` stamps
        (before the mask, before the step, after it, after the fold,
        after the put) — fewer than asked where a mask came up empty."""
        kernel = self.kernel
        stop = min(stop, kernel.iterations)
        arrays = (kernel.owned,) + self._arrays(
            np.empty(len(self.share), dtype=bool))
        views = first < stop and self._views(native, plain, arrays,
                                             (np.bool_,) + _ARRAYS)
        if not views:
            return None
        rows = np.empty((stop - first, 7), dtype=np.int64)
        ran = native[1].kern_pagerank_run(
            DAMPING, first, stop, views[0], views[1], index["degrees"],
            index["local_degrees"], len(self.share), *views[2:],
            index["indices"], index["rows"], len(index["indices"]),
            index["targets"], index["own"], len(index["targets"]),
            index["masters"], index["mirrors"], len(index["mirrors"]),
            native[0].from_buffer("int64_t[]", rows))
        return rows[:ran], ("sum", kernel.incoming, kernel.has_msg)


class PageRank(VertexProgram):
    """Synchronous PageRank; state is the vertex's current rank.

    Uses the engine's message combiner: rank contributions addressed to
    the same vertex are summed in flight, so each vertex receives a single
    pre-combined message — the standard Pregel optimisation.
    """

    name = "pagerank"
    #: Kernel follows the sharded contract: one trailing scatter_sum per
    #: superstep, degrees read as logical degrees (the rank share).
    shardable = True

    def __init__(self, iterations: int = 100) -> None:
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        self.iterations = iterations

    def combine(self, accumulated: float, message: float) -> float:
        return accumulated + message

    def initial_state(self, vertex: int, degree: int) -> float:
        return 1.0

    def compute(self, vertex: int, state: float, messages: List[float],
                neighbors: List[int], ctx: Context) -> float:
        if ctx.superstep == 0:
            rank = state
        else:
            rank = (1.0 - DAMPING) + DAMPING * sum(messages)
        if ctx.superstep < self.iterations:
            if neighbors:
                share = rank / len(neighbors)
                ctx.send_all(neighbors, share)
        else:
            ctx.vote_halt()
        return rank

    def is_stationary(self) -> bool:
        return True

    def dense_kernel(self, csr: CSRGraph) -> _DensePageRank:
        return _DensePageRank(csr, self.iterations)
