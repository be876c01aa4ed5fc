"""The ADWISE partitioner: Algorithm 1 of the paper, fully assembled.

Wires together the four mechanisms:

* the :class:`~repro.core.window.EdgeWindow` (edge universe of ``w`` edges,
  with lazy candidate traversal),
* the :class:`~repro.core.adaptive.AdaptiveWindowController` (grow / keep /
  shrink on conditions C1 and C2 against the latency preference ``L``),
* the :class:`~repro.core.scoring.AdwiseScoring` function
  ``g(e,p) = λ(ι,α)·B(p) + R(e,p) + CS(e,p)``,
* spotlight support by construction: the partitioner only ever fills the
  partitions of its :class:`~repro.partitioning.state.PartitionState`.

Main loop (Algorithm 1): refill the window to ``w`` edges from the stream,
pop the best (edge, partition) pair, assign it, adapt λ and (every ``w``
assignments) the window size.

The loop is driven incrementally: :meth:`AdwisePartitioner.ingest`
buffers arriving edges and advances Algorithm 1 exactly as far as a
batch run with the same prefix could have — the window refills to the
controller's target ``w`` and edges are popped only while it is full
(more stream may still arrive), with :meth:`AdwisePartitioner.finalize`
supplying the end-of-stream drain.  Any chunking of a stream through
``ingest`` is therefore bit-identical to :meth:`partition_stream` on the
whole stream.

The loop exists twice, by design.  On the object
:class:`~repro.core.window.EdgeWindow` it is the Python below, one
window call per step — the reference.  On the
:class:`~repro.core.array_window.ArrayEdgeWindow` the whole loop body
(refill, pop, vertex-cache update, λ adaptation, rule 3) is one compiled
transaction per ingest batch (DESIGN.md §14) and Python only stages the
batch's id columns, reads the controller's decisions at block boundaries
and takes the popped decisions back as columns.  The differential suites hold the two bit-identical.
Which one runs is not an option: the compiled window wherever the
kernels load, the reference elsewhere (and under ``fast=False``, the
suites' hook) — see :class:`~repro.partitioning.base.StreamingPartitioner`.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from repro import obs
from repro.graph.graph import Edge
from repro.core import _kernels
from repro.core.adaptive import (
    AdaptiveWindowController,
    FixedWindowController,
)
from repro.core.scoring import AdaptiveBalancer, AdwiseScoring
from repro.core.window import EdgeWindow
from repro.partitioning.base import (
    AssignmentBatch,
    PartitionResult,
    StreamingPartitioner,
    edge_columns,
)
from repro.partitioning.state import PartitionState
from repro.simtime import Clock


class AdwisePartitioner(StreamingPartitioner):
    """Adaptive window-based streaming edge partitioner.

    Parameters
    ----------
    partitions:
        Partition ids this instance fills (its spotlight spread).
    latency_preference_ms:
        The latency preference ``L``.  ``None`` (or ``inf``) lets the
        window grow while quality improves; ``0`` forces single-edge
        behaviour; the stream refuses NaN and negative values as it
        begins.
    use_clustering:
        Enable the clustering score CS (disable on weakly clustered graphs,
        as the paper does for Orkut).
    lazy:
        Enable lazy window traversal (candidate/secondary sets).
    fixed_window:
        If set, disables adaptation and pins ``w`` (ablation mode).
    epsilon:
        ε of the candidate threshold ``Θ = g_avg + ε``.
    initial_lambda:
        Starting value of the adaptive balancing weight λ (the weight
        itself with ``adaptive_lambda=False``); must be finite.
    max_window:
        Upper bound on ``w`` (memory guard).
    fast:
        ``False`` forces the reference tier (dict-backed state, object
        window) — the differential suites' control.  ``None`` (default)
        and ``True`` run the compiled tier wherever it loads.  Both
        produce bit-identical results.
    """

    name = "ADWISE"
    compiled = True

    def __init__(self, partitions: Sequence[int],
                 latency_preference_ms: Optional[float] = None,
                 clock: Optional[Clock] = None,
                 state: Optional[PartitionState] = None,
                 use_clustering: bool = True,
                 lazy: bool = True,
                 fixed_window: Optional[int] = None,
                 epsilon: float = 0.1,
                 initial_lambda: float = 1.0,
                 adaptive_lambda: bool = True,
                 min_window: int = 1,
                 max_window: int = 16384,
                 max_candidates: int = 64,
                 fast: Optional[bool] = None) -> None:
        if not math.isfinite(initial_lambda):
            raise ValueError(
                f"initial_lambda must be finite, got {initial_lambda}")
        super().__init__(partitions, clock=clock, state=state, fast=fast)
        self.latency_preference_ms = latency_preference_ms
        self.use_clustering = use_clustering
        self.lazy = lazy
        self.fixed_window = fixed_window
        self.epsilon = epsilon
        self.initial_lambda = initial_lambda
        self.adaptive_lambda = adaptive_lambda
        self.min_window = min_window
        self.max_window = max_window
        self.max_candidates = max_candidates
        self.controller = None  # populated per stream
        self.window = None  # populated per stream
        self.scoring: Optional[AdwiseScoring] = None
        self._edge_scoring: Optional[AdwiseScoring] = None
        self._pending: List[Edge] = []

    # ------------------------------------------------------------------
    # StreamingPartitioner contract
    # ------------------------------------------------------------------
    def select_partition(self, edge: Edge) -> int:
        """Single-edge fallback (used only if someone drives edge-by-edge).

        The scoring function is cached on the instance — rebuilding it per
        edge was pure allocation overhead (its balancer only ever adapts
        through ``after_assignment``, which this path never calls, so a
        cached instance scores identically to a fresh one).  The cache is
        invalidated when ``state`` or ``clock`` is swapped out, as
        :func:`~repro.api.restore_session` swaps in the restored state.
        """
        scoring = self._edge_scoring
        if (scoring is None or scoring.state is not self.state
                or scoring.clock is not self.clock):
            scoring = self._make_scoring(total_edges=0)
            self._edge_scoring = scoring
        _, best_partition = scoring.best(edge, ())
        return best_partition

    def _make_scoring(self, total_edges: int) -> AdwiseScoring:
        balancer = (AdaptiveBalancer(total_edges, self.initial_lambda)
                    if self.adaptive_lambda else None)
        return AdwiseScoring(
            self.state,
            balancer=balancer,
            use_clustering=self.use_clustering,
            fixed_lambda=self.initial_lambda,
            clock=self.clock,
        )

    def _make_window(self, scoring: AdwiseScoring, image=None):
        """Build the window for this stream — compiled over an
        array-backed state where the kernels load, the object reference
        otherwise — empty or, restoring a session, from a
        :class:`~repro.core.window.WindowImage`; images are
        backend-neutral, so the choice never depends on which window
        took the snapshot."""
        knobs = dict(lazy=self.lazy, epsilon=self.epsilon,
                     max_candidates=self.max_candidates)
        if self.state.is_fast and _kernels.load() is not None:
            from repro.core.array_window import ArrayEdgeWindow

            initial = self.fixed_window or self.min_window
            knobs["initial_capacity"] = min(self.max_window, 2 * initial)
            window_cls = ArrayEdgeWindow
        else:
            window_cls = EdgeWindow
        if image is not None:
            return window_cls.from_image(scoring, image, **knobs)
        return window_cls(scoring, **knobs)

    # ------------------------------------------------------------------
    # Incremental ingestion protocol (Algorithm 1, resumable)
    # ------------------------------------------------------------------
    def begin(self, total_edges: int = 0) -> None:
        """Open a stream: build scoring, window and controller.

        ``total_edges = 0`` (unknown length — live sessions) disables the
        controller's end-of-stream special case and makes condition C2
        vacuous once no remaining-edge estimate exists; batch runs pass
        the stream length and reproduce the paper's budgeting exactly.
        """
        super().begin(total_edges)
        self.scoring = self._make_scoring(total_edges)
        self.window = self._make_window(self.scoring)
        if self.fixed_window is not None:
            self.controller = FixedWindowController(self.fixed_window)
        else:
            self.controller = AdaptiveWindowController(
                self.latency_preference_ms,
                total_edges=total_edges,
                start_ms=self._start_ms,
                min_window=self.min_window,
                max_window=self.max_window,
            )
        self._pending = []

    def _ingest_columns(self, ends: np.ndarray) -> AssignmentBatch:
        """Buffer the arriving edges and advance Algorithm 1 as far as
        the buffered prefix allows; return the assignments popped.

        Edges the window cannot yet admit (the refill target is the
        controller's current ``w``) stay in the pending buffer, and the
        window never pops while under-filled — a batch run would have
        refilled it from the rest of the stream first.
        """
        return self._pump(ends, force=False)

    def finalize(self) -> PartitionResult:
        """End of stream: drain the pending buffer and the window."""
        if not self._streaming:
            self.begin()
        with obs.span("partition.finalize", algorithm=self.name):
            self._pump(edge_columns(()), force=True)
        result = super().finalize()
        result.extras["max_window"] = float(self.controller.max_window_reached)
        result.extras["final_window"] = float(self.controller.window_size)
        result.extras["promotions"] = float(self.window.promotions)
        if self.scoring.balancer is not None:
            result.extras["final_lambda"] = self.scoring.balancer.value
        return result

    def _publish_observability(self, result: PartitionResult) -> None:
        """Base series plus window-engine tallies and memo hit-rates."""
        super()._publish_observability(result)
        if not obs.is_enabled():
            return
        window = self.window
        backend = type(window).__name__
        labels = {"algorithm": self.name, "backend": backend}
        obs.counter("repro_window_refills_total",
                    **labels).inc(getattr(window, "stat_refills", 0))
        obs.counter("repro_window_pops_total",
                    **labels).inc(getattr(window, "stat_pops", 0))
        obs.counter("repro_window_promotions_total",
                    **labels).inc(getattr(window, "promotions", 0))
        rescored = getattr(window, "stat_rescored_slots", 0)
        obs.counter("repro_window_rescored_slots_total",
                    **labels).inc(rescored)
        obs.counter("repro_window_assembled_slots_total",
                    **labels).inc(getattr(window, "stat_assembled", rescored))
        for component, recomputed in (
                ("replication", getattr(window, "stat_rep_recomputed", 0)),
                ("clustering", getattr(window, "stat_cs_recomputed", 0))):
            obs.counter("repro_window_memo_misses_total", component=component,
                        **labels).inc(recomputed)
            if rescored:
                obs.gauge("repro_window_memo_hit_rate", component=component,
                          **labels).set(1.0 - recomputed / rescored)
        kernel = getattr(window, "kernel_backend", None)
        if kernel is not None:  # compiled-kernel tallies (array window only)
            kernel_labels = dict(labels, kernel=kernel)
            for op, tally in (("insert", window.stat_agenda_inserts),
                              ("remove", window.stat_agenda_removes),
                              ("rescore", window.stat_agenda_rescores)):
                obs.counter("repro_window_agenda_ops_total", op=op,
                            **kernel_labels).inc(tally)
            obs.counter("repro_window_kernel_calls_total",
                        **kernel_labels).inc(window.kernel_calls)
            obs.counter("repro_window_kernel_seconds_total",
                        **kernel_labels).inc(window.kernel_ns / 1e9)
        if self.controller is not None:
            obs.gauge("repro_window_size",
                      algorithm=self.name).set(self.controller.window_size)
            obs.gauge("repro_window_max_size_reached", algorithm=self.name
                      ).set(self.controller.max_window_reached)

    def _pump(self, ends: np.ndarray, force: bool) -> AssignmentBatch:
        """Advance Algorithm 1 over the pending buffer and the arriving
        edges ``ends`` with whichever driver the window takes."""
        if isinstance(self.window, EdgeWindow):
            return self._pump_reference(ends, force)
        return self._pump_native(ends, force)

    def _pump_reference(self, ends: np.ndarray,
                        force: bool) -> AssignmentBatch:
        """Refill → pop → adapt until input runs out (Algorithm 1), one
        window call per step — the object window's driver.

        With ``force`` the pending buffer is the whole rest of the stream
        (finalize / end of batch): the window drains even under-filled,
        exactly the exhausted-stream behaviour of a batch run.
        """
        out: List[tuple] = []
        window = self.window
        pending = self._pending
        pending.extend(map(Edge, *ends.T.tolist()))
        controller = self.controller
        state = self.state
        clock = self.clock
        scoring = self.scoring
        observe = state.observe_degrees
        while True:
            # Refill the window up to the current target size w (degrees
            # are observed inside add_block, edge by edge).
            need = controller.window_size - len(window)
            if need > 0 and pending:
                block = pending[:need]
                del pending[:len(block)]
                window.add_block(block, observe=observe)
                need -= len(block)
            if len(window) == 0:
                break
            if need > 0 and not force:
                # Under-filled and more stream may arrive: a batch run
                # would have kept refilling before popping.
                break
            edge, partition, score = window.pop_best()
            changed = state.assign(edge, partition)
            clock.charge_assignment()
            out.append((edge.u, edge.v, partition))
            scoring.after_assignment()
            if changed:
                # Rule 3 with no changed replica sets touches nothing
                # (no rescores, no promotions, no charges).
                window.on_replicas_changed(changed)
            controller.record(score, clock.now())
        return self._emit(*np.array(out, dtype=np.int64).reshape(-1, 3).T)

    def _pump_native(self, ends: np.ndarray, force: bool) -> AssignmentBatch:
        """The same loop as one compiled transaction per batch
        (:meth:`ArrayEdgeWindow.pump`): it returns to Python only at the
        adaptive controller's block boundaries — with the clock charged
        exactly as far as the reference loop would have charged it when
        it called ``controller.record`` — and when the batch is done."""
        window = self.window
        controller = self.controller
        clock = self.clock
        if self._pending:  # a restored snapshot's: they go first
            ends = np.concatenate([edge_columns(self._pending), ends])
            self._pending = []
        window.begin_batch(ends)
        done = 0
        more = True
        while more:
            remaining = controller.block_remaining
            more = window.pump(controller.window_size, force,
                               -1 if remaining is None else done + remaining)
            emitted = window.emitted
            clock.charge_assignment(emitted - done)
            if remaining is not None:
                # Only a controller with block boundaries reads scores.
                now = clock.now()
                for score in window.scores(done, emitted):
                    controller.record(score, now)
            done = emitted
        return self._emit(*window.end_batch())
