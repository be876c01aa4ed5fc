"""Single-source shortest paths (unit edge weights, BFS-style relaxation)."""

from __future__ import annotations

import math
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.engine.dense import DenseKernel
from repro.engine.vertex_program import Context, VertexProgram
from repro.graph.csr import CSRGraph


class _DenseSSSP(DenseKernel):
    """Frontier-masked BFS relaxation over distance arrays.

    Every vertex halts every superstep (the object program is purely
    message-driven), so the compute mask after the seeding step is exactly
    the receive mask; a vertex relaxes and re-broadcasts only when the
    combined (min) incoming distance improves on its own.  Distances are
    exact small integers stored as float64, so parity is bit-exact even
    though the state is floating point.
    """

    def __init__(self, csr: CSRGraph, source: int) -> None:
        super().__init__(csr)
        n = csr.num_vertices
        self.dist = np.full(n, np.inf)
        self.msg_min = np.full(n, np.inf)
        #: Every replica of the source (a host's CSR may repeat it).
        self.is_source = csr.vertex_ids == source
        self.dist[self.is_source] = 0.0

    def step(self, superstep: int, mask: np.ndarray) -> Tuple[int, Any]:
        n = self.csr.num_vertices
        if superstep == 0:
            senders = self.is_source
            values = np.ones(n)
        else:
            senders = mask & self.has_msg & (self.msg_min < self.dist)
            self.dist[senders] = self.msg_min[senders]
            values = self.dist + 1.0
        self.has_msg, self.msg_min = self.scatter_min(senders, values, np.inf)
        self.active = np.zeros(n, dtype=bool)  # everyone votes to halt
        return self.sent_from(senders), None

    def states(self) -> Dict[int, Any]:
        return dict(zip(self.csr.vertex_ids.tolist(), self.dist.tolist()))


class SingleSourceShortestPaths(VertexProgram):
    """State is the best-known distance from the source (inf if unreached)."""

    name = "sssp"
    #: Kernel follows the sharded contract: one trailing scatter_min.
    shardable = True

    def __init__(self, source: int) -> None:
        self.source = source

    def initial_state(self, vertex: int, degree: int) -> float:
        return 0.0 if vertex == self.source else math.inf

    def compute(self, vertex: int, state: float, messages: List[float],
                neighbors: List[int], ctx: Context) -> float:
        candidate = min(messages) if messages else math.inf
        if ctx.superstep == 0:
            if vertex == self.source:
                ctx.send_all(neighbors, 1.0)
            ctx.vote_halt()
            return state
        if candidate < state:
            ctx.send_all(neighbors, candidate + 1.0)
            ctx.vote_halt()
            return candidate
        ctx.vote_halt()
        return state

    def dense_kernel(self, csr: CSRGraph) -> _DenseSSSP:
        return _DenseSSSP(csr, self.source)
