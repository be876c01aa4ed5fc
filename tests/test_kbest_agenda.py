"""The compiled k-best agenda must equal the object window.

The pump (DESIGN.md §14) is only admissible because it produces
*bit-identical* traversals to the object :class:`EdgeWindow`: same pop
order, same scores, same promotions, same simulated clock.  This module
enforces that contract three ways:

* differential runs — the array window vs. the object window, across
  lazy/eager, fixed/adaptive windows and duplicate-heavy streams, both
  through the partitioner (one pump per batch) and through the step API
  (``add_block`` / ``pop_best`` / ``on_replicas_changed``, the same C
  primitives one call at a time);
* heap property tests — random push/remove/restamp interleavings keep
  the C heap's shape, order and position-index invariants, driven
  through cffi on a bare kernel context and checked on a live window;
* structure — one ingest batch is O(1) kernel calls.

(The fallback rule where the kernels cannot be built is in
``tests/test_window_fallback.py``, which runs without them.)
"""

from functools import partial

import numpy as np
import pytest
from _window_utils import outcome, reference
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

pytestmark = pytest.mark.skipif(_kernels.load() is None,
                                reason="compiled kernels unavailable")

# ---------------------------------------------------------------------------
# Strategies: small vertex universe => duplicate edges, dense incidence
# lists, frequent rule-2/rule-3 activity.
# ---------------------------------------------------------------------------

edge_lists = st.lists(
    st.tuples(st.integers(0, 18), st.integers(0, 18)).filter(
        lambda t: t[0] != t[1]),
    min_size=1, max_size=70)

partition_counts = st.integers(2, 8)


def stream_of(pairs):
    return InMemoryEdgeStream([Edge(u, v) for u, v in pairs])


def run_partitioner(pairs, k, build=AdwisePartitioner, **kwargs):
    partitioner = build(range(k), **kwargs)
    result = partitioner.partition_stream(stream_of(pairs))
    return partitioner, result


def assert_parity(pairs, k, **kwargs):
    compiled = run_partitioner(pairs, k, **kwargs)
    assert isinstance(compiled[0].window, ArrayEdgeWindow)
    assert outcome(*compiled) == outcome(*run_partitioner(
        pairs, k, build=partial(reference, AdwisePartitioner), **kwargs))


# ---------------------------------------------------------------------------
# Differential grid: pumped array window == object window
# ---------------------------------------------------------------------------

@settings(deadline=None, max_examples=12)
@given(edge_lists, partition_counts)
def test_lazy_fixed_window_parity(pairs, k):
    assert_parity(pairs, k, fixed_window=12)


@settings(deadline=None, max_examples=10)
@given(edge_lists, partition_counts)
def test_lazy_adaptive_window_parity(pairs, k):
    assert_parity(pairs, k, latency_preference_ms=5.0)


@settings(deadline=None, max_examples=8)
@given(edge_lists, partition_counts)
def test_eager_fixed_window_parity(pairs, k):
    assert_parity(pairs, k, fixed_window=10, lazy=False)


@settings(deadline=None, max_examples=8)
@given(edge_lists, partition_counts)
def test_eager_adaptive_window_parity(pairs, k):
    assert_parity(pairs, k, latency_preference_ms=5.0, lazy=False)


@settings(deadline=None, max_examples=8)
@given(edge_lists, partition_counts)
def test_duplicate_heavy_stream_parity(pairs, k):
    doubled = [pair for pair in pairs for _ in (0, 1)]
    assert_parity(doubled, k, fixed_window=8)


@settings(deadline=None, max_examples=6)
@given(edge_lists, partition_counts)
def test_tiny_candidate_cap_parity(pairs, k):
    """max_candidates=2 forces constant rule-2 rescues and promotions."""
    assert_parity(pairs, k, fixed_window=10, max_candidates=2)


@settings(deadline=None, max_examples=8)
@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                min_size=1, max_size=60), partition_counts)
def test_self_loops_parity(pairs, k):
    """Self-loops hold one incidence node, not two."""
    assert_parity(pairs, k, fixed_window=7)


def test_longer_stream_parity():
    pairs = [((i * 13 + 3) % 59, (i * 7 + 1) % 61 + 59) for i in range(500)]
    assert_parity(pairs, 6, fixed_window=48)


# ---------------------------------------------------------------------------
# The step API: the same C primitives one call at a time == object window
# ---------------------------------------------------------------------------

def drive(window_cls, pairs, k, window=9, lazy=True):
    """Drive a window the way the reference loop does, each on its own
    tier's state; pop trace."""
    state = (FastPartitionState if window_cls is ArrayEdgeWindow
             else PartitionState)(range(k))
    scoring = AdwiseScoring(state, balancer=None)
    win = window_cls(scoring, lazy=lazy)
    edges = [Edge(u, v).canonical() for u, v in pairs]
    trace = []
    i = 0
    while i < len(edges) or len(win):
        block = []
        while i < len(edges) and len(win) + len(block) < window:
            block.append(edges[i])
            i += 1
        if block:
            win.add_block(block, observe=state.observe_degrees)
        edge, partition, score = win.pop_best()
        changed = state.assign(edge, partition)
        scoring.after_assignment()
        if changed:
            win.on_replicas_changed(changed)
        trace.append((edge.u, edge.v, partition, score,
                      win.candidate_count, win.promotions))
    return trace


@settings(deadline=None, max_examples=10)
@given(edge_lists, partition_counts, st.booleans())
def test_step_api_equals_object(pairs, k, lazy):
    assert (drive(ArrayEdgeWindow, pairs, k, lazy=lazy)
            == drive(EdgeWindow, pairs, k, lazy=lazy))


def test_step_api_long_stream():
    pairs = [(i % 23, (i * 7 + 1) % 29 + 23) for i in range(300)]
    assert (drive(ArrayEdgeWindow, pairs, 4, window=24)
            == drive(EdgeWindow, pairs, 4, window=24))


# ---------------------------------------------------------------------------
# Heap invariants: property tests over the C heap, through cffi
# ---------------------------------------------------------------------------

_CAPACITY = 32

heap_ops = st.lists(
    st.tuples(st.sampled_from(["push", "remove", "restamp"]),
              st.integers(0, _CAPACITY - 1),
              st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.5, -3.0])),
    min_size=1, max_size=80)


class BareHeap:
    """A kernel context with only the arrays the heap entry points touch."""

    def __init__(self):
        self.ffi, self.lib = _kernels.load()
        self.ctx = self.ffi.new("KernCtx *")
        self.heap = np.zeros(_CAPACITY, dtype=np.int64)
        self.heap_pos = np.full(_CAPACITY, -1, dtype=np.int64)
        self.score = np.zeros(_CAPACITY, dtype=np.float64)
        self.entry = np.arange(_CAPACITY, dtype=np.int64)  # unique ids
        self.ctx.heap = self.ffi.from_buffer("int64_t[]", self.heap)
        self.ctx.heap_pos = self.ffi.from_buffer("int64_t[]", self.heap_pos)
        self.ctx.score = self.ffi.from_buffer("double[]", self.score)
        self.ctx.entry = self.ffi.from_buffer("int64_t[]", self.entry)
        self.members = set()

    def push(self, slot, value):
        self.score[slot] = value
        self.lib.kern_heap_push(self.ctx, slot)
        self.members.add(slot)

    def check(self):
        check_heap(self.heap, self.heap_pos, self.ctx.heap_size,
                   self.score, self.entry, self.members)


def better(score, entry, a, b):
    """The agenda's strict total order: (score desc, entry asc)."""
    return (-score[a], entry[a]) < (-score[b], entry[b])


def check_heap(heap, heap_pos, n, score, entry, members):
    assert n == len(members)
    assert set(heap[:n].tolist()) == members
    for pos in range(n):
        slot = int(heap[pos])
        assert int(heap_pos[slot]) == pos
        for child in (2 * pos + 1, 2 * pos + 2):
            if child < n:
                assert better(score, entry, slot, int(heap[child]))
    for slot in range(len(heap_pos)):
        if slot not in members:
            assert int(heap_pos[slot]) == -1


@settings(deadline=None, max_examples=200)
@given(heap_ops)
def test_heap_invariants_c(ops):
    bare = BareHeap()
    for op, slot, value in ops:
        if op == "push":
            if slot in bare.members:
                continue
            bare.push(slot, value)
        elif op == "remove":
            bare.lib.kern_heap_remove(bare.ctx, slot)
            bare.members.discard(slot)
        else:  # restamp: score changes in place, then a full repair
            bare.score[slot] = value
            bare.lib.kern_heap_heapify(bare.ctx)
        bare.check()


@settings(deadline=None, max_examples=150)
@given(heap_ops, st.integers(0, _CAPACITY - 1))
def test_heap_fix_matches_full_heapify(ops, fix_slot):
    """Single-key repair (heap_fix) must restore the same invariant a
    full heapify would — this is the pop path's m==1 fast case."""
    bare = BareHeap()
    for op, slot, value in ops:
        if op == "push" and slot not in bare.members:
            bare.push(slot, value)
    if fix_slot not in bare.members:
        return
    bare.score[fix_slot] = 7.25  # single stale key, repaired in place
    bare.lib.kern_heap_fix(bare.ctx, int(bare.heap_pos[fix_slot]))
    bare.check()


def test_live_window_heap_invariants():
    """After a duplicate-heavy run with interleaved pops, the live
    window's agenda must still be a valid indexed max-heap."""
    pairs = [(i % 11, (i * 5 + 2) % 13 + 11) for i in range(120)] * 2
    state = FastPartitionState(range(4))
    scoring = AdwiseScoring(state, balancer=None)
    win = ArrayEdgeWindow(scoring, lazy=True)
    edges = [Edge(u, v).canonical() for u, v in pairs]
    for i, edge in enumerate(edges):
        win.add_block([edge], observe=state.observe_degrees)
        if i % 3 == 2:
            edge_out, partition, _ = win.pop_best()
            changed = state.assign(edge_out, partition)
            scoring.after_assignment()
            if changed:
                win.on_replicas_changed(changed)
    candidate = win._array("candidate")
    members = set(np.flatnonzero(candidate).tolist())
    assert len(members) == win.candidate_count
    check_heap(win._array("heap"), win._array("heap_pos"),
               win._ctx.heap_size, win._array("score"), win._array("entry"),
               members)


# ---------------------------------------------------------------------------
# Structure: O(1) kernel calls per ingest batch
# ---------------------------------------------------------------------------

def test_fixed_window_batch_is_one_kernel_call():
    pairs = [((i * 13 + 3) % 199, (i * 7 + 1) % 211 + 199)
             for i in range(256 * 12)]
    partitioner = AdwisePartitioner(range(8), fixed_window=256)
    partitioner.begin(total_edges=len(pairs))
    tallies = []
    for start in range(0, len(pairs), 256):
        before = partitioner.window.kernel_calls
        partitioner.ingest(Edge(u, v) for u, v in pairs[start:start + 256])
        tallies.append(partitioner.window.kernel_calls - before)
    partitioner.finalize()
    # Early batches may re-enter after growing a buffer; the steady
    # state is exactly one call per batch.
    assert max(tallies) <= 3
    assert tallies[-4:] == [1, 1, 1, 1]


def test_adaptive_window_calls_follow_block_boundaries():
    """An adaptive window re-enters once per controller decision, not
    once per edge."""
    pairs = [((i * 13 + 3) % 199, (i * 7 + 1) % 211 + 199)
             for i in range(2000)]
    partitioner = AdwisePartitioner(range(8), fast=True,
                                    latency_preference_ms=None,
                                    max_window=128)
    partitioner.partition_stream(stream_of(pairs))
    decisions = len(partitioner.controller.events)
    assert decisions < 200
    assert partitioner.window.kernel_calls <= decisions + 16


# ---------------------------------------------------------------------------
# Restore: snapshot/restore through the backend-neutral image
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("source", [ArrayEdgeWindow, EdgeWindow])
def test_image_roundtrip_continues_identically(source):
    pairs = [(i % 15, (i * 3 + 1) % 17 + 15) for i in range(90)]
    state = FastPartitionState(range(4))
    scoring = AdwiseScoring(state, balancer=None)
    win = source(scoring, lazy=True)
    edges = [Edge(u, v).canonical() for u, v in pairs]
    for edge in edges[:40]:
        win.add_block([edge], observe=state.observe_degrees)
    for _ in range(20):
        edge, partition, _ = win.pop_best()
        changed = state.assign(edge, partition)
        scoring.after_assignment()
        if changed:
            win.on_replicas_changed(changed)
    restored = ArrayEdgeWindow.from_image(scoring, win.to_image())
    assert len(restored) == len(win)
    assert restored.edges() == win.edges()
    assert restored.promotions == win.promotions
    while len(win):
        assert restored.pop_best() == win.pop_best()
