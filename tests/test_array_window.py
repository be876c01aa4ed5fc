"""Differential tests: the array window must equal the object window exactly.

The struct-of-arrays :class:`ArrayEdgeWindow` (compiled pump, component
memos, free-list slots) is only admissible because it is *bit-identical*
to the dict-of-objects :class:`EdgeWindow` reference — same assignments
in the same order, same replication factor and imbalance, same simulated
latency and score-computation counts, same adaptive window-size trace,
same promotion counts.  These tests enforce that contract with
property-based random streams (duplicate edges included — window entries
are distinct items), a full configuration grid, and targeted unit checks
fed one edge per ``ingest`` to both tiers (the compiled window has no
per-edge step API of its own).
"""

from functools import partial

import pytest
from _window_utils import ingest_both, lockstep, outcome, reference
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
    """A window built at its smallest capacity holds 200 edges, in
    insertion order, across two doublings, then drains them all."""
    pair = lockstep(AdwisePartitioner, [0, 1, 2], fixed_window=201)
    compiled = pair[0]
    compiled.begin()
    compiled.window = ArrayEdgeWindow(compiled.scoring, initial_capacity=1)
    edges = [(i, i + 100) for i in range(200)]
    assert ingest_both(pair, edges) == []
    assert compiled.window._ctx.slot_cap == 256
    assert compiled.window.edges() == [Edge(u, v) for u, v in edges]
    results = [partitioner.finalize() for partitioner in pair]
    assert outcome(compiled, results[0]) == outcome(pair[1], results[1])
    assert len(results[0].assignments) == 200
    assert len(compiled.window) == 0


# ---------------------------------------------------------------------------
# Window unit checks, one edge per ingest against the reference
# ---------------------------------------------------------------------------

def adwise_pair(partitions=(0, 1), seeds=(), **knobs):
    """A compiled and a reference ADWISE partitioner whose states already
    hold the ``((u, v), partition)`` assignments ``seeds``."""
    pair = lockstep(AdwisePartitioner, list(partitions), **knobs)
    for partitioner in pair:
        partitioner.begin()
        for (u, v), partition in seeds:
            partitioner.state.observe_degrees(Edge(u, v))
            partitioner.state.assign(Edge(u, v), partition)
    return pair


class TestArrayWindowBasics:
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
        pair = adwise_pair(fixed_window=3)
        ingest_both(pair, [(1, 2)])
        ingest_both(pair, [(1, 2)])
        assert len(pair[0].window) == 2

    def test_pop_removes_entry(self):
        pair = adwise_pair(fixed_window=1)
        [assignment] = ingest_both(pair, [(1, 2)])
        assert assignment.edge == Edge(1, 2)
        assert assignment.partition in (0, 1)
        assert len(pair[0].window) == 0

    def test_threshold_matches_object_window(self):
        compiled, control = pair = adwise_pair(fixed_window=3, epsilon=0.25)
        assert compiled.window.threshold == control.window.threshold == 0.25
        ingest_both(pair, [(1, 2)])
        assert compiled.window.threshold == control.window.threshold
        assert compiled.window.threshold == pytest.approx(
            compiled.window._ctx.score_sum / 1 + 0.25)

    def test_max_candidates_cap(self):
        pair = adwise_pair(seeds=[((50, 51), 0)], fixed_window=6,
                           max_candidates=2)
        for i in range(5):
            ingest_both(pair, [(50, 200 + i)])
            assert pair[0].window.candidate_count <= 2

    def test_promotions_counted(self):
        pair = adwise_pair(fixed_window=8)
        for i in range(7):
            ingest_both(pair, [(i, i + 100)])
        assert pair[0].window.candidate_count == 0
        ingest_both(pair, [(7, 107)])  # full: the pop's rule-2 rescue
        assert pair[0].window.promotions >= 1


class TestPopBestFallbackFix:
    """The pop must not default to partitions[0] silently."""

    def test_best_initialised_from_first_candidate(self):
        # Partition ids deliberately not starting at 0: a sentinel
        # fallback to partitions[0] would be observable as partition 7.
        pair = adwise_pair(partitions=(7, 3), seeds=[((1, 2), 3)],
                           fixed_window=1)
        [assignment] = ingest_both(pair, [(1, 5)])
        assert assignment.partition == 3  # follows the replica

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
