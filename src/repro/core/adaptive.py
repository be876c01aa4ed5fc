"""Adaptive window sizing (paper §III-A, Algorithm 1).

The controller starts at window size ``w = 1`` and, after every block of
``w`` edge assignments, evaluates two conditions:

* **C1** — the last window growth improved assignment quality: the average
  score ``g(e, p)`` over the just-finished block exceeds the average over
  the previous block.
* **C2** — the latency preference ``L`` can still be met: the measured
  average per-edge assignment latency ``lat_w`` is below the remaining
  budget per remaining edge, ``lat_w < L' / |E'|``.

Decision: ``C1 ∧ C2 → w ← 2w``;  ``¬C2 → w ← ⌊w/2⌋`` (floored at 1);
otherwise keep.  With a latency preference of zero the controller decays to
``w = 1``, i.e. single-edge streaming — exactly the paper's boundary case.

The controller is a pure observer: the partitioner feeds it per-assignment
(score, timestamp, edges-remaining) observations and reads back the target
window size.  That makes the C1/C2 logic unit-testable without a stream.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional


class WindowDecision(enum.Enum):
    """Outcome of one adaptation step."""

    GROW = "grow"
    KEEP = "keep"
    SHRINK = "shrink"


@dataclass
class AdaptationEvent:
    """Trace record of one adaptation decision (for analysis/EXPERIMENTS)."""

    at_ms: float
    assignments: int
    window_before: int
    window_after: int
    decision: WindowDecision
    block_avg_score: float
    avg_latency_ms: float


def check_latency_preference(latency_preference_ms: Optional[float]) -> None:
    """Refuse a latency preference C2 cannot read: NaN (every C2 comparison
    would be false, pinning ``w`` at 1) or a negative value.  ``None``
    and ``inf`` both mean "no preference"."""
    if latency_preference_ms is not None and not latency_preference_ms >= 0:
        raise ValueError("latency preference must be non-negative (inf: "
                         f"no preference), got {latency_preference_ms}")


class AdaptiveWindowController:
    """Implements the grow/keep/shrink policy of Algorithm 1.

    Parameters
    ----------
    latency_preference_ms:
        The user's latency preference ``L`` in milliseconds.  ``None`` means
        "no preference": C2 is always satisfied and the window grows as long
        as quality improves (capped at ``max_window``); ``inf`` acts the
        same.  NaN and negative values are refused.
    total_edges:
        ``|E|``, known up front (e.g. via line count on the graph file).
    start_ms:
        Clock reading when partitioning began.
    min_window / max_window:
        Hard bounds on ``w``; ``max_window`` defaults to 2**14 to bound
        memory on adversarial inputs.
    """

    def __init__(self, latency_preference_ms: Optional[float],
                 total_edges: int, start_ms: float = 0.0,
                 initial_window: int = 1,
                 min_window: int = 1, max_window: int = 16384) -> None:
        check_latency_preference(latency_preference_ms)
        if total_edges < 0:
            raise ValueError("total_edges must be non-negative")
        if not 1 <= min_window <= max_window:
            raise ValueError("need 1 <= min_window <= max_window")
        if not min_window <= initial_window <= max_window:
            raise ValueError("initial_window outside [min_window, max_window]")
        self.latency_preference_ms = latency_preference_ms
        self.total_edges = total_edges
        self.min_window = min_window
        self.max_window = max_window
        self.window_size = initial_window
        self.start_ms = start_ms
        self._peak_window = initial_window
        self.events: List[AdaptationEvent] = []
        self._block_assignments = 0
        self._block_score_sum = 0.0
        self._block_start_ms = start_ms
        self._prev_block_avg: Optional[float] = None
        self._total_assignments = 0

    # ------------------------------------------------------------------
    # Conditions (exposed for tests)
    # ------------------------------------------------------------------
    def condition_c1(self, block_avg: float) -> bool:
        """C1: quality improved since the previous block."""
        if self._prev_block_avg is None:
            return True
        return block_avg > self._prev_block_avg

    def condition_c2(self, avg_latency_ms: float, now_ms: float) -> bool:
        """C2: the latency preference can still be met."""
        if self.latency_preference_ms is None:
            return True
        remaining_edges = self.total_edges - self._total_assignments
        if remaining_edges <= 0:
            return True
        budget_left = self.latency_preference_ms - (now_ms - self.start_ms)
        if budget_left <= 0:
            return False
        return avg_latency_ms < budget_left / remaining_edges

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    @property
    def block_remaining(self) -> Optional[int]:
        """Assignments left until the next adaptation decision — how far
        a batched driver may run before :meth:`record` needs an exact
        clock reading (``None``: never)."""
        return self.window_size - self._block_assignments

    def record(self, score: float, now_ms: float) -> Optional[WindowDecision]:
        """Register one edge assignment; adapt after ``w`` of them.

        Returns the decision taken, or ``None`` if the block is not full.
        """
        self._block_assignments += 1
        self._total_assignments += 1
        self._block_score_sum += score
        if self._block_assignments < self.window_size:
            return None
        return self._adapt(now_ms)

    def _adapt(self, now_ms: float) -> WindowDecision:
        block_avg = self._block_score_sum / self._block_assignments
        elapsed = now_ms - self._block_start_ms
        avg_latency = elapsed / self._block_assignments
        c1 = self.condition_c1(block_avg)
        c2 = self.condition_c2(avg_latency, now_ms)
        if self._total_assignments >= self.total_edges > 0:
            # Stream exhausted: growing (or shrinking) is pointless.
            c1 = False
            c2 = True
        window_before = self.window_size
        if c1 and c2 and self.window_size < self.max_window:
            self.window_size = min(self.max_window, self.window_size * 2)
            self._peak_window = max(self._peak_window, self.window_size)
            decision = WindowDecision.GROW
        elif not c2 and self.window_size > self.min_window:
            self.window_size = max(self.min_window, self.window_size // 2)
            decision = WindowDecision.SHRINK
        else:
            decision = WindowDecision.KEEP
        self.events.append(AdaptationEvent(
            at_ms=now_ms,
            assignments=self._total_assignments,
            window_before=window_before,
            window_after=self.window_size,
            decision=decision,
            block_avg_score=block_avg,
            avg_latency_ms=avg_latency,
        ))
        self._prev_block_avg = block_avg
        self._block_assignments = 0
        self._block_score_sum = 0.0
        self._block_start_ms = now_ms
        return decision

    # ------------------------------------------------------------------
    # Serialization (session snapshot boundary)
    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """Picklable image of the adaptation state (without the event
        trace) — enough to continue grow/keep/shrink bit-identically."""
        return {
            "window_size": self.window_size,
            "peak_window": self._peak_window,
            "block_assignments": self._block_assignments,
            "block_score_sum": self._block_score_sum,
            "block_start_ms": self._block_start_ms,
            "prev_block_avg": self._prev_block_avg,
            "total_assignments": self._total_assignments,
        }

    def restore_state(self, state: dict) -> None:
        """Inverse of :meth:`to_state`; the event trace restarts empty."""
        self.window_size = state["window_size"]
        self._peak_window = state["peak_window"]
        self._block_assignments = state["block_assignments"]
        self._block_score_sum = state["block_score_sum"]
        self._block_start_ms = state["block_start_ms"]
        self._prev_block_avg = state["prev_block_avg"]
        self._total_assignments = state["total_assignments"]

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def max_window_reached(self) -> int:
        """Largest window size the controller ever selected.

        Tracked incrementally at each grow decision — the adaptive trace
        (``events``) can hold one record per window block, so scanning it
        on every result read was O(assignments).
        """
        return self._peak_window


class FixedWindowController:
    """Degenerate controller pinning ``w`` (fixed-window ablation)."""

    def __init__(self, window_size: int) -> None:
        if window_size < 1:
            raise ValueError("window_size must be >= 1")
        self.window_size = window_size
        self.events: List[AdaptationEvent] = []

    #: No adaptation decisions, ever (see the adaptive controller).
    block_remaining: Optional[int] = None

    def record(self, score: float, now_ms: float) -> Optional[WindowDecision]:
        return None

    @property
    def max_window_reached(self) -> int:
        return self.window_size
