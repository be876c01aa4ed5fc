"""The compiled k-best agenda must equal the object window.

The pump (DESIGN.md §14) is only admissible because it produces
*bit-identical* traversals to the object :class:`EdgeWindow`: same pop
order, same scores, same promotions, same simulated clock.  This module
enforces that contract four ways:

* differential runs — the array window vs. the object window, across
  lazy/eager, fixed/adaptive windows and duplicate-heavy streams, both
  one pump per batch and one edge per ``ingest`` with the two tiers
  compared after every edge (the compiled window has no step API: the
  partitioner and the session are its only way in);
* cases aimed at the two things the kernel does differently from the
  reference's loops — an agenda kept in entry order (eager windows,
  rule 2's out-of-order promotions, restore) and CS read off per-vertex
  neighbour counters instead of a scan of N(u) ∪ N(v) (duplicate window
  edges, self-loops, shared neighbours, hubs on both endpoints, counter
  rows rebound as the vertex tables grow, compaction, restore, a state
  moved between pumps — each also checked against counters recomputed
  from the window after every step; hub neighbourhoods up to 700; every
  k up to 130; the 0/1 precondition);
* agenda invariants — on a live session, after every step of a random
  add / pop (+ rule 3) / snapshot-pickle-restore / compact interleaving
  (single-edge ingests whose target size puts the pump exactly one
  admit or one pop ahead), the agenda is exactly the candidate slots in
  strictly ascending entry order, and both tiers agree;
* structure — one ingest batch is O(1) kernel calls.

(The fallback rule where the kernels cannot be built is in
``tests/test_window_fallback.py``, which runs without them.)
"""

import pickle
from functools import partial

import numpy as np
import pytest
from _window_utils import (
    check_agenda,
    ingest_both,
    load_mutant,
    lockstep,
    outcome,
    reference,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import open_session, restore_session
from repro.core import _kernels
from repro.core._binding import KernelBinding
from repro.core.adwise import AdwisePartitioner
from repro.core.array_window import ArrayEdgeWindow
from repro.graph.graph import Edge
from repro.graph.stream import InMemoryEdgeStream
from repro.partitioning import fast_state
from repro.partitioning.fast_state import FastPartitionState

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
# Step grain: one edge per ingest, both tiers compared after every edge
# ---------------------------------------------------------------------------

def drive(pairs, k, window=9, lazy=True):
    """Feed ``pairs`` one edge per ``ingest`` to both tiers, comparing
    after every edge, then drain both."""
    pair = lockstep(AdwisePartitioner, range(k), fixed_window=window,
                    lazy=lazy)
    for ends in pairs:
        ingest_both(pair, [ends])
    results = [partitioner.finalize() for partitioner in pair]
    assert outcome(pair[0], results[0]) == outcome(pair[1], results[1])


@settings(deadline=None, max_examples=10)
@given(edge_lists, partition_counts, st.booleans())
def test_one_edge_per_ingest_parity(pairs, k, lazy):
    drive(pairs, k, lazy=lazy)


def test_one_edge_per_ingest_long_stream():
    drive([(i % 23, (i * 7 + 1) % 29 + 23) for i in range(300)], 4,
          window=24)


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


def test_restore_then_pop_when_the_candidates_are_the_highest_entries():
    """An image lists entries in entry order; ``kern_restore`` must
    leave the agenda in that order whichever entries are candidates."""
    pairs = [(i % 15, (i * 3 + 1) % 17 + 15) for i in range(60)]
    sessions = lockstep(open_session, "adwise", partitions=4,
                        fixed_window=51)
    ingest_both(sessions, pairs)  # ten pops, fifty edges left
    snapshots = [session.snapshot() for session in sessions]
    for snapshot in snapshots:
        image = snapshot.algorithm_state["window_image"]
        image.entries = [row[:6] + (i >= len(image.entries) - 6,)
                         for i, row in enumerate(image.entries)]
    sessions = [restore_session(snapshot) for snapshot in snapshots]
    assert [session.partitioner.window.candidate_count
            for session in sessions] == [6, 6]
    check_agenda(sessions[0].partitioner.window)
    drain(sessions)


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
    one on 3), so a hub edge's CS numerator on column 0 is |N| itself,
    up to 700.  The window image holds every admit's score, |N| = 0 up
    to the whole star; the pops at a full window rescore at the top
    sizes.  (Only the smaller window is drained: the reference pays
    0.15 s a pop at |N| = 700.)"""
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
    for u, v in pairs:  # one pump per edge: look at the counts between
        emitted.extend(compiled.ingest([Edge(u, v)]))
        win = compiled.window
        alive = win._array("alive").astype(bool)
        seen.update(win._array("nn")[np.concatenate((
            win._array("ui")[alive], win._array("vi")[alive]))].tolist())
    assert sizes <= seen
    assert midstream(compiled, emitted) == expected
    if window == 256:
        assert (outcome(compiled, compiled.finalize())
                == outcome(control, control.finalize()))


def fixed_lambda_lockstep(lam, use_clustering, lazy):
    """Both tiers at a fixed λ, 50-edge batches compared through
    :func:`ingest_both`, then drained; returns the compiled window.
    Every stream vertex starts with a replica on one partition, so R and
    CS spread the edges.  From an empty state a λ of 0 or below sends
    every edge to the first partition instead: ``max_size`` then moves
    on every assignment, every step moves all of λ·B, and neither the
    per-column skip nor the check that ``lamb[j*]`` did not rise (the
    one that fails on a negative λ) is ever reached."""
    pairs = [((i * 13 + 3) % 59, (i * 7 + 1) % 61 + 59) for i in range(400)]
    seeds = [(x, x % 8) for x in range(120)]
    knobs = dict(fixed_window=32, adaptive_lambda=False, initial_lambda=lam,
                 use_clustering=use_clustering, lazy=lazy)
    pair = [seeded(build, 8, seeds, **knobs) for build in (
        AdwisePartitioner, partial(reference, AdwisePartitioner))]
    for start in range(0, len(pairs), 50):
        ingest_both(pair, pairs[start:start + 50])
    results = [partitioner.finalize() for partitioner in pair]
    assert outcome(pair[0], results[0]) == outcome(pair[1], results[1])
    return pair[0].window


FIXED_LAMBDA_GRID = [(lam, use_clustering, lazy) for lam in (0.0, 1.1, 3.0)
                     for use_clustering in (True, False)
                     for lazy in (True, False)]


@pytest.mark.parametrize("lam,use_clustering,lazy", FIXED_LAMBDA_GRID)
def test_fixed_lambda_rescores_skip_the_argmax(lam, use_clustering, lazy):
    """At a fixed λ most assignments move λ·B at their own column only:
    a rescored slot whose best column is another one keeps its cached
    score and column, without re-assembling the argmax."""
    window = fixed_lambda_lockstep(lam, use_clustering, lazy)
    assert 0 < window.stat_assembled < window.stat_rescored_slots


def test_negative_fixed_lambda_rises_the_assigned_column():
    """λ < 0: an assignment that leaves the extremes alone *raises*
    ``lamb[j*]``, which must re-assemble every slot (no skip at all)."""
    window = fixed_lambda_lockstep(-0.5, True, True)
    assert window.stat_assembled == window.stat_rescored_slots


#: A kernel whose ``stat_assembled`` counts only the re-assemblies the
#: best-column test forced: both memos held and λ·B moved only by
#: one-column steps, one of them at the slot's cached column.
BEST_COLUMN_PROBE = (
    "    } else {\n        assemble(c, s);\n        c->stat_assembled++;",
    "    } else {\n        c->stat_assembled += fresh_r && fresh_c\n"
    "            && c->slot_version[s] >= c->lamb_epoch;\n"
    "        assemble(c, s);")


def test_fixed_lambda_reassembles_the_moved_column(tmp_path, monkeypatch):
    """Each case of the grid also re-assembles slots *because* their
    best column was the one assigned — what a skip must not cover."""
    load_mutant(BEST_COLUMN_PROBE, tmp_path, monkeypatch)
    for case in FIXED_LAMBDA_GRID:
        assert fixed_lambda_lockstep(*case).stat_assembled > 0, case


def test_a_rise_of_max_degree_stales_every_slot():
    """Every R key holds ``max_degree``: a star's hub raises it on every
    spoke admit, and the window's other edges, which share no vertex with
    the hub, must still see their R recomputed when next rescored."""
    pairs = []
    for x in range(1, 401):
        pairs.append((0, x))
        if x % 2 == 0:
            pairs.append((1000 + x, 1001 + x))
    seeds = [(x, x % 8) for x in range(1, 1402)]
    pair = [seeded(build, 8, seeds, fixed_window=48) for build in (
        AdwisePartitioner, partial(reference, AdwisePartitioner))]
    for start in range(0, len(pairs), 40):
        ingest_both(pair, pairs[start:start + 40])
    results = [partitioner.finalize() for partitioner in pair]
    assert outcome(pair[0], results[0]) == outcome(pair[1], results[1])


def test_state_moved_between_pumps():
    """``partition_edge`` between two ingests moves degrees, replica rows
    and ``max_degree`` behind the window's back: the next pump must not
    trust a key of any slot it holds."""
    pairs = [((i * 13 + 3) % 59, (i * 7 + 1) % 61 + 59) for i in range(400)]
    pair = lockstep(AdwisePartitioner, range(6), fixed_window=40)
    for start in range(0, len(pairs), 25):
        ingest_both(pair, pairs[start:start + 25])
        for partitioner in pair:
            for x in pairs[start][0], pairs[start + 3][1]:
                partitioner.partition_edge(Edge(x, 500 + start))
    results = [partitioner.finalize() for partitioner in pair]
    assert outcome(pair[0], results[0]) == outcome(pair[1], results[1])


@pytest.mark.parametrize("k", [1, 7, 8, 9, 32, 63, 64, 65, 130])
def test_cs_count_at_every_column_layout(k):
    """Counter rows k columns wide, from 1 to 130 (row strides of every
    residue mod 8, past one and two 64-column spans).  Every vertex
    starts replicated on the last column and on one of its own, so hits
    land on every column and the last one decides assignments."""
    pairs = [(i % 23, (i * 7 + 1) % 29 + 23) for i in range(260)]
    seeds = [(x, p) for x in range(52) for p in {k - 1, x * 5 % k}]
    outcomes = []
    for build in (AdwisePartitioner, partial(reference, AdwisePartitioner)):
        partitioner = seeded(build, k, seeds, fixed_window=24)
        outcomes.append(outcome(
            partitioner, partitioner.partition_stream(stream_of(pairs))))
    assert outcomes[0] == outcomes[1]


def test_replica_matrix_must_be_bool():
    """The neighbour counters add replica bytes as 0/1: a ``uint8``
    matrix (which could hold a 2) is refused when it is bound, not
    miscounted."""
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
# Agenda invariants on a live session, after every step
# ---------------------------------------------------------------------------

agenda_ops = st.lists(
    st.one_of(st.tuples(st.just("add"), st.integers(0, 14),
                        st.integers(15, 29)),
              st.just(("pop",)), st.just(("pop",)), st.just(("restore",))),
    max_size=80)


def set_window(sessions, w):
    """Pin both fixed windows' target size to ``w`` — what an adaptive
    controller's decision does between batches."""
    for session in sessions:
        session.partitioner.controller.window_size = w


def add(sessions, edge):
    """Admit ``edge`` on both tiers without a pop (the target is past
    the window's size)."""
    set_window(sessions, len(sessions[0].partitioner.window) + 2)
    ingest_both(sessions, [edge])


def pop(sessions):
    """Pop one edge on both tiers: an empty ingest whose target is the
    window's own size (assign, rule 3, and compaction if it is due)."""
    set_window(sessions, len(sessions[0].partitioner.window))
    ingest_both(sessions, [])


def drain(sessions):
    """Pop both windows empty one edge at a time, then finalize both."""
    while len(sessions[0].partitioner.window):
        pop(sessions)
    results = [session.finalize() for session in sessions]
    assert (outcome(sessions[0].partitioner, results[0])
            == outcome(sessions[1].partitioner, results[1]))


def live_sessions(**knobs):
    """A session per tier whose window holds 70 edges: past the 64-slot
    initial capacity, so the slot arrays (the agenda with them) grew."""
    sessions = lockstep(open_session, "adwise", partitions=4,
                        fixed_window=1, **knobs)
    for i in range(70):
        add(sessions, (i % 15, (i * 3 + 1) % 17 + 15))
    return sessions


@settings(deadline=None, max_examples=60)
@given(agenda_ops, st.booleans(), st.sampled_from([2, 64]))
def test_live_window_agenda_invariants(ops, lazy, max_candidates):
    """add / pop (+ rule 3) / snapshot-pickle-restore in any
    interleaving, then a drain that takes the window through compaction;
    both tiers compared and the agenda checked after every step."""
    sessions = live_sessions(lazy=lazy, max_candidates=max_candidates)
    for op, *ends in ops:
        if op == "add":
            add(sessions, ends)
        elif op == "restore":
            sessions = [restore_session(pickle.loads(pickle.dumps(
                session.snapshot()))) for session in sessions]
            check_agenda(sessions[0].partitioner.window)
        elif len(sessions[0].partitioner.window):
            pop(sessions)
    drain(sessions)


def test_agenda_survives_growth_and_compaction():
    sessions = live_sessions()
    window = sessions[0].partitioner.window
    assert window._ctx.slot_cap == 128
    drain(sessions)
    assert window._ctx.slot_cap == 64  # re-loaded from its own image


# ---------------------------------------------------------------------------
# Neighbour counters: nn[v] and cnt[v][p], exact after every step
# ---------------------------------------------------------------------------

def check_counters(win):
    """``nn`` and ``cnt`` of every bound vertex row equal what the
    window's edges and the replica matrix say: ``nn[v]`` is the number
    of distinct window neighbours of v (v itself not counted) and
    ``cnt[v][p]`` how many of them are replicated on p — a row the
    kernel reads only while ``nn[v] > 0``."""
    k = win._ctx.k
    alive = win._array("alive").astype(bool)
    neighbours = {}
    for u, v in zip(win._array("ui")[alive].tolist(),
                    win._array("vi")[alive].tolist()):
        if u != v:
            neighbours.setdefault(u, set()).add(v)
            neighbours.setdefault(v, set()).add(u)
    replicas = win._kern.array("replicas")
    nn = np.zeros(win._ctx.vertex_cap, dtype=np.int64)
    cnt = np.zeros((win._ctx.vertex_cap, k), dtype=np.int64)
    for x, ys in neighbours.items():
        nn[x] = len(ys)
        cnt[x] = replicas[sorted(ys)].sum(axis=0)
    assert np.array_equal(win._array("nn"), nn)
    assert np.array_equal(win._array("cnt").reshape(-1, k)[nn > 0],
                          cnt[nn > 0])


def counter_sessions(seeds, k=4, **knobs):
    """:func:`live_sessions`' pair, empty, over a state that already
    holds the ``(vertex, partition)`` replicas ``seeds``."""
    sessions = lockstep(open_session, "adwise", partitions=k,
                        fixed_window=1, **knobs)
    for session in sessions:
        for i, (vertex, partition) in enumerate(seeds):
            session.partitioner.state.assign(Edge(vertex, 10_000 + i),
                                             partition)
    return sessions


def walk(sessions, edges):
    """Admit ``edges`` one at a time, then pop the window empty; both
    tiers compared and the counters checked after every step."""
    window = sessions[0].partitioner.window
    for ends in edges:
        add(sessions, ends)
        check_counters(window)
    while len(window):
        pop(sessions)
        check_counters(window)
    drain(sessions)


SEEDS = [(x, x % 4) for x in range(12)] + [(x, (x + 1) % 4)
                                           for x in range(0, 12, 3)]


def test_counters_follow_a_duplicated_edge():
    """Two window copies of (0, 1): 1 stays 0's neighbour — counted
    once — until the second copy pops (multiplicity 2 -> 1 -> 0)."""
    sessions = counter_sessions(SEEDS)
    edges = [(0, 1), (1, 2), (0, 1), (0, 3), (2, 3), (1, 3)]
    window = sessions[0].partitioner.window
    for ends in edges:
        add(sessions, ends)
        check_counters(window)
    assert [tuple(edge) for edge in window.edges()].count((0, 1)) == 2
    assert window._array("nn")[window.scoring.state.dense_rows(
        np.array([0, 1]), intern=False)].tolist() == [2, 3]
    walk(sessions, [])


def test_counters_skip_self_loops():
    """A self-loop makes no vertex a neighbour, and its own S is
    N_w(u)."""
    walk(counter_sessions(SEEDS), [(0, 0), (0, 1), (1, 1), (1, 2), (0, 2),
                                   (2, 2), (0, 0), (3, 0), (3, 3)])


def test_counters_close_triangles():
    """(1, 2) closes triangles over 0 and 3, which both endpoints hold
    as window neighbours: cnt[1] + cnt[2] counts them twice, and the
    intersection walk takes them out once.  Of S = {0, 3, 4} only 0
    and 3 are replicated on partition 0, so CS(e, 0) is 2/3, not 4/5;
    the partitions start equal and 1, 2 unreplicated, so it is e's
    score."""
    seeds = [(0, 0), (3, 0), (4, 1), (5, 1), (6, 2), (7, 2), (8, 3), (9, 3)]
    walk(counter_sessions(seeds), [(0, 1), (0, 2), (1, 3), (2, 3), (1, 4),
                                   (1, 2), (0, 3), (4, 5), (1, 2)])


def test_counters_under_a_hub_on_both_endpoints():
    """Two hubs sharing most spokes, then the edge between them: both
    lists are long and the intersection is most of each."""
    edges = [(hub, x) for x in range(1, 40) for hub in (100, 200)
             if x % 5 or hub == 100]
    seeds = SEEDS + [(x, x % 3) for x in range(12, 40)] + [(100, 1),
                                                          (200, 2)]
    walk(counter_sessions(seeds), edges + [(100, 200), (1, 2), (100, 1)])


def test_counter_rows_follow_the_vertex_tables(monkeypatch):
    """From a two-row state, the vertex tables double while the window
    holds edges (every batch brings new vertices), so the k-column
    counter matrix is regrown and rebound under a live window."""
    monkeypatch.setattr(fast_state, "_INITIAL_CAPACITY", 2)
    sessions = lockstep(open_session, "adwise", partitions=5,
                        fixed_window=24)
    window = sessions[0].partitioner.window
    grown = []
    for start in range(0, 300, 20):
        batch = [((i * 7) % (8 + i // 2), (i * 11 + 3) % (9 + i // 2))
                 for i in range(start, start + 20)]
        before = window._ctx.vertex_cap
        held = len(window)
        ingest_both(sessions, batch)
        check_counters(window)
        if held and window._ctx.vertex_cap > before:
            grown.append(window._ctx.vertex_cap)
    assert len(grown) >= 3, grown
    drain(sessions)


def test_counters_survive_compaction_after_a_shrink():
    """An adaptive window grows, then shrinks past a quarter of its slot
    capacity: the end of that batch re-loads it into fresh slot arrays,
    and kern_restore recounts."""
    edges = [((i * 7) % (8 + i // 8), (i * 13 + 5) % (9 + i // 8))
             for i in range(3000)]
    pair = lockstep(AdwisePartitioner, range(6),
                    latency_preference_ms=400.0, max_window=256)
    for partitioner in pair:
        partitioner.begin(total_edges=len(edges))
    window = pair[0].window
    capacities = []
    for start in range(0, len(edges), 100):
        ingest_both(pair, edges[start:start + 100])
        check_counters(window)
        capacities.append(window._ctx.slot_cap)
    peak = capacities.index(max(capacities))
    assert min(capacities[peak:]) < max(capacities), capacities
    results = [partitioner.finalize() for partitioner in pair]
    assert outcome(pair[0], results[0]) == outcome(pair[1], results[1])


def test_counters_after_a_restore_in_mid_window():
    """A snapshot restores into a fresh window: the counters are rebuilt
    from the image's edges before the next pop reads them."""
    pairs = [(i % 15, (i * 3 + 1) % 17 + 15) for i in range(90)]
    sessions = lockstep(open_session, "adwise", partitions=4,
                        fixed_window=33)
    ingest_both(sessions, pairs[:50])
    sessions = [restore_session(pickle.loads(pickle.dumps(
        session.snapshot()))) for session in sessions]
    check_counters(sessions[0].partitioner.window)
    for ends in pairs[50:]:
        ingest_both(sessions, [ends])
        check_counters(sessions[0].partitioner.window)
    drain(sessions)


def test_counters_after_the_state_moved_between_pumps():
    """``partition_edge`` between two ingests replicates window vertices
    behind the counters' back: the next pump recounts."""
    pairs = [((i * 13 + 3) % 59, (i * 7 + 1) % 61 + 59) for i in range(400)]
    pair = lockstep(AdwisePartitioner, range(6), fixed_window=40)
    for start in range(0, len(pairs), 25):
        ingest_both(pair, pairs[start:start + 25])
        check_counters(pair[0].window)
        for partitioner in pair:
            for x in pairs[start + 20]:
                partitioner.partition_edge(Edge(x, 500 + start))
    results = [partitioner.finalize() for partitioner in pair]
    assert outcome(pair[0], results[0]) == outcome(pair[1], results[1])


# ---------------------------------------------------------------------------
# The cases above catch what they are aimed at: C mutants
# ---------------------------------------------------------------------------

MUTANTS = {
    "argmax takes the last maximum": (
        "if (score[s] > score[agenda[best]])",
        "if (score[s] >= score[agenda[best]])"),
    "promote always appends": (
        "for (; pos > 0 && c->entry[c->agenda[pos - 1]] > c->entry[s]; "
        "pos--)", "for (; 0; )"),
    "skip ignores the best column": (
        "return v >= epoch && lamb_version[j] <= v;", "return v >= epoch;"),
    "a λ-only step counted as one column": (
        "c->max_size == max_size\n"
        "                && c->min_size == min_size && ", ""),
    "a rise of the assigned column counted as a step": (
        " && c->lamb[j] <= lamb_j)", ")"),
    "no two-hop walk": (
        "for (node = c->head[rows[r]]; c->use_cs && node >= 0;",
        "for (node = c->head[rows[r]]; 0 && node >= 0;"),
    "no mark-all on max_degree": (
        "    if (c->max_degree > max_degree)  /* every R key holds it */\n"
        "        memset(c->dirty, 1, (size_t)c->slot_cap);\n", ""),
    "no re-mark at pump entry": (
        "    c->lamb_epoch = c->version;\n"
        "    memset(c->dirty, 1, (size_t)c->slot_cap);\n",
        "    c->lamb_epoch = c->version;\n"),
    "the ∩ correction dropped": (
        "if (!joined(c, y, far))", "if (1)"),
    "duplicate-edge multiplicity ignored": (
        "if (c->use_cs && du != dv && !joined(c, du, dv))",
        "if (c->use_cs && du != dv)"),
    "set_replica's neighbour bump skipped": (
        "        count_replica(c, row, j);", "        ;"),
    "no rebuild after an outside change": (
        "    if (c->use_cs && c->counted != c->assigned_edges)\n"
        "        recount(c);\n", ""),
    "a counter row read at another vertex's stride": (
        "const int32_t *cv = c->cnt + v * k;",
        "const int32_t *cv = c->cnt + v * (k - (k > 1));"),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_is_caught(name, tmp_path, monkeypatch):
    load_mutant(MUTANTS[name], tmp_path, monkeypatch)
    with pytest.raises(AssertionError):
        test_negative_fixed_lambda_rises_the_assigned_column()
        test_longer_stream_parity()
        test_a_rise_of_max_degree_stales_every_slot()
        test_state_moved_between_pumps()
        test_uniform_scores_take_rule_twos_best_eighth()
        test_cs_count_at_every_column_layout(9)
        test_cs_count_at_every_column_layout(130)
        test_counters_follow_a_duplicated_edge()
        test_counters_close_triangles()
        test_counters_after_the_state_moved_between_pumps()
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

@pytest.mark.parametrize("source", ["compiled", "reference"])
def test_image_roundtrip_continues_identically(source):
    """A snapshot taken on either tier restores into the compiled window
    (images are backend-neutral) and continues as the uninterrupted
    reference does, one edge per ingest."""
    pairs = [(i % 15, (i * 3 + 1) % 17 + 15) for i in range(90)]
    sessions = lockstep(open_session, "adwise", partitions=4,
                        fixed_window=21)
    ingest_both(sessions, pairs[:40])  # twenty pops, twenty edges left
    snapshot = sessions[source == "reference"].snapshot()
    snapshot.knobs.pop("fast", None)  # restore on the compiled tier
    restored = restore_session(pickle.loads(pickle.dumps(snapshot)))
    assert type(restored.partitioner.window) is ArrayEdgeWindow
    pair = (restored, sessions[1])
    assert (restored.partitioner.window.edges()
            == sessions[1].partitioner.window.edges())
    for ends in pairs[40:]:
        ingest_both(pair, [ends])
    drain(pair)
