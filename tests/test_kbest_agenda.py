"""The compiled k-best agenda must equal the object window.

The pump (DESIGN.md §14) is only admissible because it produces
*bit-identical* traversals to the object :class:`EdgeWindow`: same pop
order, same scores, same promotions, same simulated clock.  This module
enforces that contract four ways:

* differential runs — the array window vs. the object window, across
  lazy/eager, fixed/adaptive windows and duplicate-heavy streams, both
  through the partitioner (one pump per batch) and through the step API
  (``add_block`` / ``pop_best`` / ``on_replicas_changed``, the same C
  primitives one call at a time);
* cases aimed at the two things the kernel does differently from the
  reference's loops — an agenda kept in entry order (eager windows,
  rule 2's out-of-order promotions, restore) and CS hits counted in
  byte lanes of 64-bit words (hub neighbourhoods across the 255-hit
  flush, every k mod 8 and 64-column layout, the 0/1 precondition);
* agenda invariants — on a live window, after every step of a random
  add / pop / rule 3 / snapshot-restore / compact interleaving, the
  agenda is exactly the candidate slots in strictly ascending entry
  order;
* structure — one ingest batch is O(1) kernel calls.

(The fallback rule where the kernels cannot be built is in
``tests/test_window_fallback.py``, which runs without them.)
"""

from functools import partial

import numpy as np
import pytest
from _window_utils import load_mutant, outcome, reference
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import _kernels
from repro.core._binding import KernelBinding
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
# New differential cases: what the entry-ordered agenda and the integer
# CS count could get wrong
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("window", [64, 1024])
def test_eager_agenda_is_the_whole_window(window):
    """``lazy=False``: every admit is a candidate, so the agenda is the
    window — far past ``max_candidates`` — and every insert an append."""
    pairs = [((i * 13 + 3) % 59, (i * 7 + 1) % 61 + 59) for i in range(1100)]
    # The reference rescans the whole window per pop: CS only at w = 64.
    assert_parity(pairs, 2, fixed_window=window, lazy=False,
                  use_clustering=window == 64)


def test_uniform_scores_take_rule_twos_best_eighth():
    """ε = 1 puts Θ above every score of a stream without shared
    replicas, so each rule 2 promotes its best eighth by (score desc,
    entry asc): promotions reach the agenda out of entry order."""
    pairs = [((i * 5) % 97, (i * 11 + 1) % 89 + 97) for i in range(400)]
    compiled = run_partitioner(pairs, 4, fixed_window=64, epsilon=1.0)
    assert compiled[1].extras["promotions"] > len(pairs) / 16
    assert outcome(*compiled) == outcome(*run_partitioner(
        pairs, 4, build=partial(reference, AdwisePartitioner),
        fixed_window=64, epsilon=1.0))


def lockstep(k, **knobs):
    """An array window and an object window, each with its own tier's
    state and scoring."""
    sides = []
    for window_cls, state_cls in ((ArrayEdgeWindow, FastPartitionState),
                                  (EdgeWindow, PartitionState)):
        scoring = AdwiseScoring(state_cls(range(k)), balancer=None)
        sides.append((window_cls(scoring, **knobs), scoring))
    return sides


def pop_and_assign(win, scoring):
    edge, partition, score = win.pop_best()
    changed = scoring.state.assign(edge, partition)
    scoring.after_assignment()
    if changed:
        win.on_replicas_changed(changed)
    return edge, partition, score, win.candidate_count, win.promotions


def test_restore_then_pop_when_the_candidates_are_the_highest_entries():
    """An image lists entries in entry order; ``kern_restore`` must
    leave the agenda in that order whichever entries are candidates."""
    pairs = [(i % 15, (i * 3 + 1) % 17 + 15) for i in range(60)]
    traces = []
    for win, scoring in lockstep(4):
        state = scoring.state
        win.add_block([Edge(u, v).canonical() for u, v in pairs],
                      observe=state.observe_degrees)
        trace = [pop_and_assign(win, scoring) for _ in range(10)]
        image = win.to_image()
        image.entries = [row[:6] + (i >= len(image.entries) - 6,)
                         for i, row in enumerate(image.entries)]
        win = type(win).from_image(scoring, image)
        assert win.candidate_count == 6
        if isinstance(win, ArrayEdgeWindow):
            check_agenda(win)
        while len(win):
            trace.append(pop_and_assign(win, scoring))
        traces.append(trace)
    assert traces[0] == traces[1]


def hub_stream(spokes, fillers):
    """A star in adjacency order with a clique over eight of its spokes
    in the middle, then duplicates of both, then ``fillers`` edges that
    touch nothing else (they push a window past full)."""
    star = [(0, x) for x in range(1, spokes + 1)]
    clique = [(a, b) for a in range(1, 9) for b in range(a + 1, 9)]
    return (star[:spokes // 2] + clique + star[spokes // 2:] + star[:20]
            + clique[:10]
            + [(30_000 + 2 * i, 30_001 + 2 * i) for i in range(fillers)])


def seeded(build, k, seeds, **knobs):
    """A partitioner whose state already holds the ``(vertex,
    partition)`` replicas ``seeds``, each from one edge to a vertex no
    stream names."""
    partitioner = build(range(k), **knobs)
    for i, (vertex, partition) in enumerate(seeds):
        partitioner.state.assign(Edge(vertex, 10_000 + i), partition)
    return partitioner


def midstream(partitioner, emitted):
    """What the bit-identity contract covers before ``finalize``: the
    assignments so far, every cached score still in the window, the
    clock and the promotion count."""
    return (list(emitted), partitioner.window.to_image(),
            partitioner.clock.now(), partitioner.clock.score_computations,
            partitioner.window.promotions)


@pytest.mark.parametrize("window,spokes,fillers,sizes", [
    (256, 300, 0, {254, 255}),
    (1024, 720, 262, {254, 255, 256, 510, 511, 700}),
])
def test_hub_neighbourhoods_cross_the_lane_flush(window, spokes, fillers,
                                                 sizes):
    """Every spoke already has replicas on partition 0 (and every other
    one on 3), so a hub edge's CS numerator on column 0 is |N| itself:
    a byte lane not flushed by its 255th neighbour wraps to a wrong
    score.  The window image holds every admit's score, |N| = 0 up to
    the whole star; the pops at a full window rescore at the top sizes.
    (Only the smaller window is drained: the reference pays 0.15 s a pop
    at |N| = 700.)"""
    pairs = hub_stream(spokes, fillers)
    seeds = ([(x, 0) for x in range(1, spokes + 1)]
             + [(x, 3) for x in range(1, spokes + 1, 2)])
    control = seeded(partial(reference, AdwisePartitioner), 9, seeds,
                     fixed_window=window)
    control.begin(total_edges=len(pairs))
    expected = midstream(control, control.ingest(
        Edge(u, v) for u, v in pairs))
    assert len(expected[0]) == len(pairs) - window + 1
    compiled = seeded(AdwisePartitioner, 9, seeds, fixed_window=window)
    compiled.begin(total_edges=len(pairs))
    emitted, seen = [], set()
    for u, v in pairs:  # one pump per edge: look at the segments between
        emitted.extend(compiled.ingest([Edge(u, v)]))
        win = compiled.window
        seen.update(win._array("nbr_count")[
            win._array("alive").astype(bool)].tolist())
    assert sizes <= seen
    assert midstream(compiled, emitted) == expected
    if window == 256:
        assert (outcome(compiled, compiled.finalize())
                == outcome(control, control.finalize()))


@pytest.mark.parametrize("k", [1, 7, 8, 9, 32, 63, 64, 65, 130])
def test_cs_count_at_every_column_layout(k):
    """k mod 8 tail columns only (1, 7), whole words (8, 32, 64), words
    plus a tail (9, 63, 65), more than one 64-column pass (65, 130).
    Every vertex starts replicated on the last column and on one of its
    own, so hits land on every lane and the tail decides assignments."""
    pairs = [(i % 23, (i * 7 + 1) % 29 + 23) for i in range(260)]
    seeds = [(x, p) for x in range(52) for p in {k - 1, x * 5 % k}]
    outcomes = []
    for build in (AdwisePartitioner, partial(reference, AdwisePartitioner)):
        partitioner = seeded(build, k, seeds, fixed_window=24)
        outcomes.append(outcome(
            partitioner, partitioner.partition_stream(stream_of(pairs))))
    assert outcomes[0] == outcomes[1]


def test_replica_matrix_must_be_bool():
    """The integer count reads replica bytes as 0/1: a ``uint8`` matrix
    (which could hold a 2) is refused when it is bound, not miscounted."""
    state = FastPartitionState(range(8))
    kernel = KernelBinding(_kernels.load(), state)
    matrix = np.zeros((4, 8), dtype=np.uint8)
    matrix[1, 3] = 2
    with pytest.raises(RuntimeError, match="kernel buffer 'replicas'.*bool"):
        kernel.bind("replicas", matrix, matrix.size)
    state._replicas = state._replicas.astype(np.uint8)
    with pytest.raises(RuntimeError, match="kernel buffer 'replicas'.*bool"):
        kernel.sync_state()


# ---------------------------------------------------------------------------
# Agenda invariants on a live window, after every step
# ---------------------------------------------------------------------------

def check_agenda(win):
    """``agenda[:num_candidates]`` is exactly the candidate slots, in
    strictly ascending entry order."""
    n = win.candidate_count
    agenda = win._array("agenda")[:n]
    assert np.all(np.diff(win._array("entry")[agenda]) > 0)
    assert (sorted(agenda.tolist())
            == np.flatnonzero(win._array("candidate")).tolist())
    assert np.all(win._array("alive")[agenda] == 1)
    assert 0 <= n <= len(win)


agenda_ops = st.lists(
    st.one_of(st.tuples(st.just("add"), st.integers(0, 14),
                        st.integers(15, 29)),
              st.just(("pop",)), st.just(("pop",)), st.just(("restore",))),
    max_size=80)


def live_window(**knobs):
    """An array window holding 70 edges: past the 64-slot initial
    capacity, so the slot arrays (the agenda with them) grew."""
    scoring = AdwiseScoring(FastPartitionState(range(4)), balancer=None)
    win = ArrayEdgeWindow(scoring, **knobs)
    for i in range(70):
        win.add_block([Edge(i % 15, (i * 3 + 1) % 17 + 15)],
                      observe=scoring.state.observe_degrees)
        check_agenda(win)
    return win, scoring


@settings(deadline=None, max_examples=60)
@given(agenda_ops, st.booleans(), st.sampled_from([2, 64]))
def test_live_window_agenda_invariants(ops, lazy, max_candidates):
    """add / pop (+ rule 3) / snapshot-restore in any interleaving, then
    a drain that takes the window through compaction."""
    knobs = dict(lazy=lazy, max_candidates=max_candidates)
    win, scoring = live_window(**knobs)
    for op, *ends in ops + [("pop",)] * 160:
        if op == "add":
            win.add_block([Edge(*ends)],
                          observe=scoring.state.observe_degrees)
        elif op == "restore":
            win = ArrayEdgeWindow.from_image(scoring, win.to_image(), **knobs)
        elif len(win):
            pop_and_assign(win, scoring)
        check_agenda(win)
    assert len(win) == 0 and win.candidate_count == 0


def test_agenda_survives_growth_and_compaction():
    win, scoring = live_window()
    assert win._ctx.slot_cap == 128
    while len(win):
        pop_and_assign(win, scoring)
        check_agenda(win)
    assert win._ctx.slot_cap == 64  # re-loaded from its own image


# ---------------------------------------------------------------------------
# The cases above catch what they are aimed at: C mutants
# ---------------------------------------------------------------------------

MUTANTS = {
    "argmax takes the last maximum": (
        "if (c->score[agenda[i]] > c->score[agenda[best]])",
        "if (c->score[agenda[i]] >= c->score[agenda[best]])"),
    "lanes flushed a neighbour late": (
        "int64_t stop = cnt - i < 255 ? cnt : i + 255;",
        "int64_t stop = cnt - i < 256 ? cnt : i + 256;"),
    "promote always appends": (
        "for (; pos > 0 && c->entry[c->agenda[pos - 1]] > c->entry[s]; "
        "pos--)", "for (; 0; )"),
    "every 64-column pass reads the first": (
        "+ nbr[i] * k + 8 * base;", "+ nbr[i] * k;"),
    "last tail column dropped": (
        "for (j = 8 * words; j < k; j++)\n            tail[",
        "for (j = 8 * words; j < k - 1; j++)\n            tail["),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_is_caught(name, tmp_path, monkeypatch):
    load_mutant(MUTANTS[name], tmp_path, monkeypatch)
    with pytest.raises(AssertionError):
        test_longer_stream_parity()
        test_uniform_scores_take_rule_twos_best_eighth()
        test_cs_count_at_every_column_layout(9)
        test_cs_count_at_every_column_layout(130)
        test_hub_neighbourhoods_cross_the_lane_flush(
            1024, 720, 262, {254, 255, 256, 510, 511, 700})


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
