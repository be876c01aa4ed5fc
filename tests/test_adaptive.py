"""Unit tests for the adaptive window controller (Algorithm 1, C1/C2)."""

import pytest

from repro.core.adaptive import (
    AdaptiveWindowController,
    FixedWindowController,
    WindowDecision,
)


def make_controller(latency=1000.0, total_edges=1000, **kwargs):
    return AdaptiveWindowController(latency, total_edges, **kwargs)


class TestValidation:
    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            AdaptiveWindowController(-1.0, 100)

    @pytest.mark.parametrize("latency", [float("nan"), -1e-300,
                                         float("-inf")])
    def test_nan_and_negative_latency_refused_by_name(self, latency):
        """NaN made every C2 comparison false: the window stayed at 1."""
        with pytest.raises(ValueError, match=f"got {latency}"):
            AdaptiveWindowController(latency, 100)

    def test_negative_edges_rejected(self):
        with pytest.raises(ValueError):
            AdaptiveWindowController(10.0, -5)

    def test_bad_window_bounds(self):
        with pytest.raises(ValueError):
            AdaptiveWindowController(10.0, 100, min_window=5, max_window=2)

    def test_initial_window_within_bounds(self):
        with pytest.raises(ValueError):
            AdaptiveWindowController(10.0, 100, initial_window=100,
                                     max_window=10)


class TestConditions:
    def test_c1_true_without_history(self):
        controller = make_controller()
        assert controller.condition_c1(0.5)

    def test_c1_requires_strict_improvement(self):
        controller = make_controller()
        controller._prev_block_avg = 1.0
        assert controller.condition_c1(1.1)
        assert not controller.condition_c1(1.0)
        assert not controller.condition_c1(0.9)

    def test_c2_true_without_preference(self):
        controller = AdaptiveWindowController(None, 1000)
        assert controller.condition_c2(avg_latency_ms=1e9, now_ms=1e9)

    def test_c2_true_when_budget_ample(self):
        controller = make_controller(latency=1000.0, total_edges=100)
        # 1000 ms for 100 edges -> 10 ms/edge budget.
        assert controller.condition_c2(avg_latency_ms=1.0, now_ms=0.0)

    def test_c2_false_when_too_slow(self):
        controller = make_controller(latency=100.0, total_edges=100)
        assert not controller.condition_c2(avg_latency_ms=5.0, now_ms=0.0)

    def test_c2_false_when_budget_exhausted(self):
        controller = make_controller(latency=100.0, total_edges=100)
        assert not controller.condition_c2(avg_latency_ms=0.001, now_ms=200.0)

    def test_c2_true_when_no_edges_remaining(self):
        controller = make_controller(latency=1.0, total_edges=2)
        controller._total_assignments = 2
        assert controller.condition_c2(avg_latency_ms=100.0, now_ms=500.0)


class TestDecisions:
    def test_grows_when_fast_and_improving(self):
        controller = make_controller(latency=1e6, total_edges=1000)
        decision = controller.record(score=1.0, now_ms=0.01)
        assert decision == WindowDecision.GROW
        assert controller.window_size == 2

    def test_doubles_each_improving_block(self):
        controller = make_controller(latency=1e6, total_edges=10000)
        now = 0.0
        score = 1.0
        for expected in (2, 4, 8):
            for _ in range(controller.window_size):
                now += 0.001
                score += 0.1  # strictly improving averages
                decision = controller.record(score, now)
            assert controller.window_size == expected

    def test_shrinks_when_too_slow(self):
        controller = make_controller(latency=10.0, total_edges=1000,
                                     initial_window=8)
        # One block of 8 assignments at 1 ms each: avg 1 ms > 10/992 budget.
        decision = None
        for i in range(8):
            decision = controller.record(score=1.0, now_ms=float(i + 1))
        assert decision == WindowDecision.SHRINK
        assert controller.window_size == 4

    def test_keep_when_quality_stalls_but_fast(self):
        controller = make_controller(latency=1e6, total_edges=1000)
        controller.record(score=1.0, now_ms=0.001)       # grow to 2
        controller.record(score=0.5, now_ms=0.002)
        decision = controller.record(score=0.5, now_ms=0.003)  # avg 0.5 < 1.0
        assert decision == WindowDecision.KEEP
        assert controller.window_size == 2

    def test_never_below_min_window(self):
        controller = make_controller(latency=0.0, total_edges=1000)
        for i in range(10):
            controller.record(score=1.0, now_ms=float(i + 1))
        assert controller.window_size == 1

    def test_never_above_max_window(self):
        controller = make_controller(latency=1e9, total_edges=10**6,
                                     max_window=4)
        now = 0.0
        score = 1.0
        for _ in range(50):
            now += 0.0001
            score += 0.01
            controller.record(score, now)
        assert controller.window_size <= 4

    def test_zero_latency_preference_degenerates_to_single_edge(self):
        """Paper: 'if L is too tight (e.g. 0 seconds) ... w = 1'."""
        controller = make_controller(latency=0.0, total_edges=100)
        for i in range(20):
            controller.record(score=2.0, now_ms=0.5 * (i + 1))
        assert controller.window_size == 1

    def test_block_not_full_returns_none(self):
        controller = make_controller(initial_window=4)
        assert controller.record(score=1.0, now_ms=0.1) is None

    def test_events_trace_recorded(self):
        controller = make_controller(latency=1e6, total_edges=100)
        controller.record(score=1.0, now_ms=0.001)
        assert len(controller.events) == 1
        event = controller.events[0]
        assert event.decision == WindowDecision.GROW
        assert event.window_before == 1
        assert event.window_after == 2

    def test_max_window_reached(self):
        controller = make_controller(latency=1e6, total_edges=10000)
        now, score = 0.0, 1.0
        for _ in range(20):
            now += 0.001
            score += 0.1
            controller.record(score, now)
        assert controller.max_window_reached >= 4


class TestFixedWindow:
    def test_fixed_never_adapts(self):
        controller = FixedWindowController(8)
        for i in range(100):
            assert controller.record(1.0, float(i)) is None
        assert controller.window_size == 8
        assert controller.max_window_reached == 8

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            FixedWindowController(0)
