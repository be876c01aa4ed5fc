"""PageRank — the paper's lightweight reference workload.

Standard synchronous PageRank with damping 0.85 on the undirected graph
(each edge contributes in both directions).  Vertices exchange numeric
values and do trivial arithmetic — the paper's canonical example of a
*communication-light* workload, hence ``is_stationary`` so the harness can
use the analytic latency shortcut for the 100-iteration blocks of Fig. 7a-c.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

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
