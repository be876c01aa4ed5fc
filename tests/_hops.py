"""Hop distance from one source: a test-only program for three paths no
shipped program takes — a float64 ``scatter_min`` with an ``inf``
sentinel (``kern_scatter`` and the sync fold across hosts), a frontier
that is exactly the receive mask (every vertex halts every superstep),
and an ``owned``-masked aggregate (vertices improved) that ends the run
through ``should_stop`` — or, at ``quorum=0``, a run that ends only
when no message is in flight."""

import math

import numpy as np

from repro.engine.dense import DenseKernel
from repro.engine.vertex_program import VertexProgram

#: By default a superstep past the seeding one that improves fewer
#: vertices than this ends the run: on a path or a triangle, before the
#: frontier dies.
QUORUM = 3


class _DenseHops(DenseKernel):
    def __init__(self, csr, source: int) -> None:
        super().__init__(csr)
        self.dist = np.full(csr.num_vertices, np.inf)
        self.msg = np.full(csr.num_vertices, np.inf)
        # Every replica of the source (a host's CSR may repeat it).
        self.dist[csr.vertex_ids == source] = 0.0

    def step(self, superstep, mask):
        if superstep == 0:
            senders = self.dist == 0.0
            improved = np.zeros_like(senders)
        else:
            senders = improved = mask & (self.msg < self.dist)
            self.dist[improved] = self.msg[improved]
        self.has_msg, self.msg = self.scatter_min(senders, self.dist + 1.0,
                                                  np.inf)
        self.active = np.zeros(self.csr.num_vertices, dtype=bool)
        return self.sent_from(senders), int((improved & self.owned).sum())

    def states(self):
        return dict(zip(self.csr.vertex_ids.tolist(), self.dist.tolist()))


class HopDistance(VertexProgram):
    """State is the hop count from ``source`` (``inf`` if unreached)."""

    name = "hops"
    shardable = True

    def __init__(self, source: int, quorum: int = QUORUM) -> None:
        self.source = source
        self.quorum = quorum
        self._improved = False

    def initial_state(self, vertex, degree):
        return 0.0 if vertex == self.source else math.inf

    def compute(self, vertex, state, messages, neighbors, ctx):
        best = min(messages, default=math.inf)
        self._improved = ctx.superstep > 0 and best < state
        if self._improved:
            state = best
        if self._improved or (ctx.superstep == 0 and state == 0.0):
            ctx.send_all(neighbors, state + 1.0)
        ctx.vote_halt()
        return state

    def aggregate(self, vertex, state):
        return int(self._improved)

    def should_stop(self, aggregate, superstep):
        return superstep > 1 and aggregate < self.quorum

    def dense_kernel(self, csr):
        return _DenseHops(csr, self.source)
