"""Differential tests: the array window must equal the object window exactly.

The struct-of-arrays :class:`ArrayEdgeWindow` (compiled pump, component
memos, free-list slots) is only admissible because it is *bit-identical*
to the dict-of-objects :class:`EdgeWindow` reference — same assignments
in the same order, same replication factor and imbalance, same simulated
latency and score-computation counts, same adaptive window-size trace,
same promotion counts.  These tests enforce that contract with
property-based random streams (duplicate edges included — window entries
are distinct items), a full configuration grid, and targeted unit checks
of the window API itself.
"""

from functools import partial

import pytest
from _window_utils import reference
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import _kernels
from repro.core.adwise import AdwisePartitioner
from repro.core.array_window import ArrayEdgeWindow
from repro.core.scoring import AdwiseScoring
from repro.core.window import EdgeWindow
from repro.graph.graph import Edge
from repro.graph.stream import InMemoryEdgeStream
from repro.partitioning.fast_state import FastPartitionState
from repro.partitioning.state import PartitionState
from repro.simtime import SimulatedClock

pytestmark = pytest.mark.skipif(_kernels.load() is None,
                                reason="compiled kernels unavailable")

# ---------------------------------------------------------------------------
# Strategies: small vertex universe so duplicate edges and dense windows
# are common, which is exactly where entry ordering and memo invalidation
# can go wrong.
# ---------------------------------------------------------------------------

edge_lists = st.lists(
    st.tuples(st.integers(0, 20), st.integers(0, 20)).filter(
        lambda t: t[0] != t[1]),
    min_size=1, max_size=90)

partition_counts = st.integers(2, 9)


def stream_of(pairs):
    return InMemoryEdgeStream([Edge(u, v) for u, v in pairs])


def run_both(pairs, k, **kwargs):
    """(the reference: dict state + object window, the compiled tier)."""
    partitioners = [reference(AdwisePartitioner, range(k), **kwargs),
                    AdwisePartitioner(range(k), **kwargs)]
    results = [partitioner.partition_stream(stream_of(pairs))
               for partitioner in partitioners]
    assert isinstance(partitioners[1].window, ArrayEdgeWindow)
    return partitioners, results


def window_trace(partitioner):
    """The adaptive controller's window-size evolution, decision by decision."""
    return [(event.assignments, event.window_before, event.window_after,
             event.decision, event.block_avg_score)
            for event in partitioner.controller.events]


def assert_identical(partitioners, results):
    control = results[0]
    ref_trace = window_trace(partitioners[0])
    for partitioner, result in zip(partitioners[1:], results[1:]):
        # Assignment order matters: dict equality alone would hide a
        # different pop order that happens to reach the same mapping.
        assert (list(result.assignments.items())
                == list(control.assignments.items()))
        assert result.replication_degree == control.replication_degree
        assert result.imbalance == control.imbalance
        assert result.latency_ms == control.latency_ms
        assert result.score_computations == control.score_computations
        assert result.extras == control.extras  # incl. promotions, windows
        assert window_trace(partitioner) == ref_trace


# ---------------------------------------------------------------------------
# Property-based parity across the configuration grid
# ---------------------------------------------------------------------------

@settings(deadline=None, max_examples=30)
@given(edge_lists, partition_counts)
def test_adaptive_lazy_parity(pairs, k):
    assert_identical(*run_both(pairs, k, latency_preference_ms=5.0))


@settings(deadline=None, max_examples=25)
@given(edge_lists, partition_counts, st.integers(1, 24))
def test_fixed_window_lazy_parity(pairs, k, window):
    assert_identical(*run_both(pairs, k, fixed_window=window))


@settings(deadline=None, max_examples=20)
@given(edge_lists, partition_counts, st.integers(1, 24))
def test_fixed_window_eager_parity(pairs, k, window):
    assert_identical(*run_both(pairs, k, fixed_window=window, lazy=False))


@settings(deadline=None, max_examples=15)
@given(edge_lists, partition_counts)
def test_adaptive_eager_parity(pairs, k):
    assert_identical(*run_both(pairs, k, latency_preference_ms=5.0,
                                lazy=False))


@settings(deadline=None, max_examples=15)
@given(edge_lists, partition_counts)
def test_no_clustering_parity(pairs, k):
    assert_identical(*run_both(pairs, k, latency_preference_ms=5.0,
                                use_clustering=False))


@settings(deadline=None, max_examples=15)
@given(edge_lists, partition_counts)
def test_unbounded_preference_parity(pairs, k):
    """No latency preference: the window grows as long as quality improves."""
    assert_identical(*run_both(pairs, k, latency_preference_ms=None,
                                max_window=32))


@settings(deadline=None, max_examples=15)
@given(edge_lists, partition_counts)
def test_parity_from_w1(pairs, k):
    """The array window runs from w=1 (no mid-stream engine switch) and
    must stay bit-identical to the pure object window as it grows."""
    doubled = [pair for pair in pairs for _ in (0, 1, 2)] * 3
    assert_identical(*run_both(doubled, k, latency_preference_ms=None,
                               max_window=64))


@settings(deadline=None, max_examples=15)
@given(edge_lists, partition_counts)
def test_duplicate_heavy_stream_parity(pairs, k):
    """Every edge twice back to back: duplicate window entries everywhere."""
    doubled = [pair for pair in pairs for _ in (0, 1)]
    assert_identical(*run_both(doubled, k, fixed_window=8))


@settings(deadline=None, max_examples=10)
@given(edge_lists, partition_counts)
def test_tiny_candidate_cap_parity(pairs, k):
    """A tiny candidate cap exercises rule-2 fallback promotion ordering."""
    assert_identical(*run_both(pairs, k, fixed_window=12, max_candidates=2))


# ---------------------------------------------------------------------------
# Capacity management: growth and compaction under adaptive resizing
# ---------------------------------------------------------------------------

def test_grow_then_shrink_compacts_and_stays_identical():
    """A stream long enough to grow past the initial capacity, with a
    latency preference that later forces shrinking back to w=1."""
    pairs = [(i % 37, (i * 7 + 1) % 41 + 37) for i in range(600)]
    partitioners, results = run_both(pairs, 4, latency_preference_ms=3.0,
                                      max_window=256)
    assert_identical(partitioners, results)
    window = partitioners[1].window
    # The controller shrank near the end; compaction keeps capacity at
    # most a small multiple of the final occupancy (bounded by the
    # compaction floor).
    assert window._ctx.slot_cap <= max(64, 4 * max(1, len(window)))


def test_forced_growth_from_small_initial_capacity():
    state = FastPartitionState([0, 1, 2])
    scoring = AdwiseScoring(state, balancer=None)
    window = ArrayEdgeWindow(scoring, initial_capacity=1)
    edges = [Edge(i, i + 100) for i in range(200)]
    ids = window.add_block(edges, observe=state.observe_degrees)
    assert len(ids) == 200
    assert len(window) == 200
    assert window.edges() == edges  # insertion order preserved across growth
    popped = [window.pop_best()[0] for _ in range(200)]
    assert sorted(e.u for e in popped) == sorted(e.u for e in edges)
    assert len(window) == 0


# ---------------------------------------------------------------------------
# Window API unit tests (mirror of the object window's contract)
# ---------------------------------------------------------------------------

def make_array_window(partitions=(0, 1), lazy=True, epsilon=0.1,
                      max_candidates=64):
    state = FastPartitionState(list(partitions))
    scoring = AdwiseScoring(state, balancer=None)
    return ArrayEdgeWindow(scoring, lazy=lazy, epsilon=epsilon,
                           max_candidates=max_candidates), state


class TestArrayWindowBasics:
    def test_empty_window_pop_raises(self):
        window, _ = make_array_window()
        with pytest.raises(IndexError):
            window.pop_best()

    def test_requires_fast_state(self):
        scoring = AdwiseScoring(PartitionState([0, 1]), balancer=None)
        with pytest.raises(ValueError):
            ArrayEdgeWindow(scoring)

    def test_invalid_epsilon(self):
        state = FastPartitionState([0])
        with pytest.raises(ValueError):
            ArrayEdgeWindow(AdwiseScoring(state, balancer=None), epsilon=2.0)

    def test_invalid_max_candidates(self):
        state = FastPartitionState([0])
        with pytest.raises(ValueError):
            ArrayEdgeWindow(AdwiseScoring(state, balancer=None),
                            max_candidates=0)

    def test_duplicate_edges_kept_as_distinct_entries(self):
        window, _ = make_array_window()
        window.add(Edge(1, 2))
        window.add(Edge(1, 2))
        assert len(window) == 2

    def test_pop_removes_entry(self):
        window, _ = make_array_window()
        window.add(Edge(1, 2))
        edge, partition, _ = window.pop_best()
        assert edge == Edge(1, 2)
        assert partition in (0, 1)
        assert len(window) == 0

    def test_threshold_matches_object_window(self):
        array_window, astate = make_array_window(epsilon=0.25)
        object_window = EdgeWindow(
            AdwiseScoring(PartitionState([0, 1]), balancer=None),
            epsilon=0.25)
        assert array_window.threshold == object_window.threshold == 0.25
        for win, state in ((array_window, astate),):
            state.observe_degrees(Edge(1, 2))
            win.add(Edge(1, 2))
        assert array_window.threshold == pytest.approx(
            array_window._ctx.score_sum / 1 + 0.25)

    def test_neighborhood_matches_object_window(self):
        array_window, astate = make_array_window()
        legacy_state = PartitionState([0, 1])
        object_window = EdgeWindow(AdwiseScoring(legacy_state, balancer=None))
        for edge in (Edge(1, 2), Edge(2, 3), Edge(8, 9), Edge(1, 3)):
            astate.observe_degrees(edge)
            legacy_state.observe_degrees(edge)
            array_window.add(edge)
            object_window.add(edge)
        for probe in (Edge(1, 2), Edge(2, 3), Edge(8, 9), Edge(4, 5)):
            assert (array_window.neighborhood(probe)
                    == object_window.neighborhood(probe))

    def test_max_candidates_cap(self):
        window, state = make_array_window(lazy=True, max_candidates=2)
        state.observe_degrees(Edge(50, 51))
        state.assign(Edge(50, 51), 0)
        for i in range(5):
            window.add(Edge(50, 200 + i))
        assert window.candidate_count <= 2

    def test_promotions_counted(self):
        window, state = make_array_window(lazy=True)
        for i in range(8):
            state.observe_degrees(Edge(i, i + 100))
            window.add(Edge(i, i + 100))
        assert window.candidate_count == 0
        window.pop_best()  # rule-2 rescue must promote
        assert window.promotions >= 1


class TestPopBestFallbackFix:
    """Satellite: pop_best must not default to partitions[0] silently."""

    def test_best_initialised_from_first_candidate(self):
        # Partition ids deliberately not starting at 0: a sentinel
        # fallback to partitions[0] would be observable as partition 7.
        state = FastPartitionState([7, 3])
        state.observe_degrees(Edge(1, 2))
        state.assign(Edge(1, 2), 3)
        window, wstate = make_array_window(partitions=(7, 3))
        wstate.observe_degrees(Edge(1, 2))
        wstate.assign(Edge(1, 2), 3)
        wstate.observe_degrees(Edge(1, 5))
        window.add(Edge(1, 5))
        edge, partition, score = window.pop_best()
        assert partition == 3  # follows the replica, not the sentinel

    def test_object_window_same_fix(self):
        legacy = PartitionState([7, 3])
        legacy.observe_degrees(Edge(1, 2))
        legacy.assign(Edge(1, 2), 3)
        window = EdgeWindow(AdwiseScoring(legacy, balancer=None))
        legacy.observe_degrees(Edge(1, 5))
        window.add(Edge(1, 5))
        edge, partition, score = window.pop_best()
        assert partition == 3


class TestAdwiseWiring:
    @pytest.mark.parametrize("knobs", [
        {"fixed_window": 64}, {"fixed_window": 1}, {"fixed_window": 4},
        {"latency_preference_ms": 0.0}, {"latency_preference_ms": None}])
    def test_default_picks_the_array_window(self, knobs):
        """With the kernels built the array window runs at every size,
        from the first edge, without being asked for."""
        partitioner = AdwisePartitioner(range(4), **knobs)
        partitioner.begin()
        assert isinstance(partitioner.window, ArrayEdgeWindow)
        partitioner.partition_stream(stream_of([(1, 2), (2, 3)]))
        assert isinstance(partitioner.window, ArrayEdgeWindow)

    def test_fast_false_picks_the_reference(self):
        partitioner = reference(AdwisePartitioner, range(4))
        partitioner.partition_stream(stream_of([(1, 2), (2, 3)]))
        assert isinstance(partitioner.window, EdgeWindow)

    def test_no_window_backend_knob(self):
        with pytest.raises(TypeError):
            AdwisePartitioner(range(4), window_backend="object")

    def test_promotions_surface_in_extras(self):
        pairs = [(i % 9, (i * 3 + 1) % 9 + 9) for i in range(60)]
        for fast in (False, True):
            partitioner = AdwisePartitioner(range(4), fixed_window=8,
                                            fast=fast)
            result = partitioner.partition_stream(stream_of(pairs))
            assert "promotions" in result.extras
            assert result.extras["promotions"] == float(
                partitioner.window.promotions)

    def test_clock_parity_between_backends(self):
        pairs = [(i % 11, (i * 5 + 2) % 11 + 11) for i in range(80)]
        clocks = []
        for build in (partial(reference, AdwisePartitioner),
                      AdwisePartitioner):
            clock = SimulatedClock()
            build(range(4), fixed_window=16,
                  clock=clock).partition_stream(stream_of(pairs))
            clocks.append((clock.score_computations, clock.assignments,
                           clock.now()))
        assert clocks[0] == clocks[1]
