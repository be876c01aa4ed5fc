"""HDRF — High-Degree Replicated First (Petroni et al., CIKM 2015).

The strongest single-edge streaming baseline in the ADWISE evaluation.  For
edge ``(u, v)`` and partition ``p`` HDRF scores

    C(p) = C_rep(u, v, p) + λ · C_bal(p)

where the replication term rewards partitions already holding a replica of
an endpoint, weighted so that the *lower-degree* endpoint dominates (hence
high-degree vertices get replicated first), and the balance term pushes
toward the least-loaded partition.  λ is a fixed, user-chosen parameter; the
paper uses the authors' recommended λ = 1.1.

Where the compiled kernels load (:func:`repro.core._kernels.load`) the
partitioner runs on the array-backed state and a whole ingest batch is
one C transaction, ``kern_hdrf`` (DESIGN.md §14).  Per edge it observes
both degrees, fills a k-entry score row (``C_rep`` from the replica
bytes plus a cached ``λ · C_bal`` column, rebuilt only when the max or
min size moves), takes the first maximum in a pass of its own and
updates the vertex cache — every double as :meth:`HDRFPartitioner.score`
computes it.  The two rows are numpy buffers bound here; C allocates
nothing.  λ must be finite and non-negative.  Otherwise — and
always as the :meth:`~HDRFPartitioner.select_partition` policy other
drivers call — the per-edge Python below runs; the two are bit-identical.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro import obs
from repro.graph.graph import Edge
from repro.partitioning.base import PartitionResult, StreamingPartitioner

_EPSILON = 1e-9


class HDRFPartitioner(StreamingPartitioner):
    """Single-edge streaming with degree-weighted replication scoring."""

    name = "HDRF"
    compiled = True

    def __init__(self, partitions, clock=None, state=None,
                 lam: float = 1.1, fast: Optional[bool] = None) -> None:
        super().__init__(partitions, clock=clock, state=state, fast=fast)
        if not (math.isfinite(lam) and lam >= 0):
            raise ValueError(
                f"lambda must be finite and non-negative, got {lam}")
        self.lam = lam
        #: This stream's state tables bound into a kernel context
        #: (:class:`~repro.core._binding.KernelBinding`), once a batch
        #: has run natively.
        self.kernel = None

    # ------------------------------------------------------------------
    # Batch ingestion: one compiled transaction per batch
    # ------------------------------------------------------------------
    def begin(self, total_edges: int = 0) -> None:
        super().begin(total_edges)
        self.kernel = None

    def _bound_kernel(self):
        """The current state's kernel binding, or ``None`` where batches
        take the per-edge path: a dict-backed state, or (under an
        injected array-backed one) no compiled kernels on this machine."""
        kernel = self.kernel
        if kernel is None or kernel.state is not self.state:
            from repro.core import _kernels

            kernels = _kernels.load() if self.state.is_fast else None
            if kernels is None:
                return None
            from repro.core._binding import KernelBinding

            kernel = self.kernel = KernelBinding(kernels, self.state)
            # kern_hdrf's two k-entry rows: lam * C_bal per partition
            # and one edge's scores (C never allocates).
            k = self.state.num_partitions
            kernel.bind("lamb", np.zeros(k, dtype=np.float64), k)
            kernel.bind("krow", np.zeros(k, dtype=np.float64), k)
        return kernel

    def _partition_batch(self, ends: np.ndarray) -> np.ndarray:
        kernel = self._bound_kernel()
        if kernel is None:
            return super()._partition_batch(ends)
        n = len(ends)
        pairs = kernel.stage(ends)
        kernel.call(kernel.lib.kern_hdrf, kernel.pointer(pairs), n, self.lam)
        self.clock.charge_score(n * self.state.num_partitions)
        self.clock.charge_assignment(n)
        kernel.absorb()
        return kernel.out_partitions(n)

    def _publish_observability(self, result: PartitionResult) -> None:
        """Base series plus the stream kernel's tallies."""
        super()._publish_observability(result)
        kernel = self.kernel
        if kernel is None or not obs.is_enabled():
            return
        obs.counter("repro_partition_kernel_calls_total",
                    algorithm=self.name).inc(kernel.kernel_calls)
        obs.counter("repro_partition_kernel_seconds_total",
                    algorithm=self.name).inc(kernel.kernel_ns / 1e9)

    # ------------------------------------------------------------------
    # Scoring (public so tests and Fig. 1 analysis can probe it)
    # ------------------------------------------------------------------
    def replication_score(self, edge: Edge, partition: int) -> float:
        """Degree-weighted replication reward ``C_rep``."""
        deg_u, deg_v = self.state.degree_pair(edge.u, edge.v)
        total = deg_u + deg_v
        # Relative degrees θ; equal split when both degrees are zero.
        theta_u = deg_u / total if total > 0 else 0.5
        theta_v = 1.0 - theta_u
        score = 0.0
        if self.state.is_replicated_on(edge.u, partition):
            score += 1.0 + (1.0 - theta_u)
        if self.state.is_replicated_on(edge.v, partition):
            score += 1.0 + (1.0 - theta_v)
        return score

    def balance_score(self, partition: int) -> float:
        """Normalised headroom of ``partition`` (``C_bal``)."""
        max_size = self.state.max_size
        min_size = self.state.min_size
        return ((max_size - self.state.size(partition))
                / (_EPSILON + max_size - min_size))

    def score(self, edge: Edge, partition: int) -> float:
        return (self.replication_score(edge, partition)
                + self.lam * self.balance_score(partition))

    def select_partition(self, edge: Edge) -> int:
        best_partition = self.partitions[0]
        best_score = float("-inf")
        for partition in self.partitions:
            self.clock.charge_score()
            s = self.score(edge, partition)
            if s > best_score:
                best_score = s
                best_partition = partition
        return best_partition
