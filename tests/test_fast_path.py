"""Differential tests: the compiled tier must equal the reference exactly.

The array-backed :class:`FastPartitionState` and the kernels that run on
it are only admissible because they are *bit-identical* to the
dict-backed reference — same assignments, same replication degree, same
imbalance, same simulated latency.  These tests enforce that contract
with property-based random streams, targeted unit checks of the state
API itself, and the one-copy invariant: whether the kernels or the
per-edge ``observe_degrees``/``assign`` wrote the dense tables, every
query and the snapshot read back what the dict reference holds.
"""

import ast
import dataclasses
import inspect
import json
import textwrap
from functools import partial

import pytest
from _window_utils import reference
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import open_session
from repro.core import _kernels
from repro.core.adwise import AdwisePartitioner
from repro.graph.graph import Edge
from repro.graph.stream import InMemoryEdgeStream
from repro.partitioning.dbh import DBHPartitioner
from repro.partitioning.fast_state import FastPartitionState
from repro.partitioning.greedy import GreedyPartitioner
from repro.partitioning.hdrf import HDRFPartitioner
from repro.partitioning.state import PartitionState, StateSnapshot
from repro.partitioning.validate import validate_result
from repro.simtime import SimulatedClock

needs_kernels = pytest.mark.skipif(_kernels.load() is None,
                                   reason="compiled kernels unavailable")


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

edge_lists = st.lists(
    st.tuples(st.integers(0, 30), st.integers(0, 30)).filter(
        lambda t: t[0] != t[1]),
    min_size=1, max_size=100)

partition_counts = st.integers(2, 9)


def stream_of(pairs):
    return InMemoryEdgeStream([Edge(u, v) for u, v in pairs])


def run_both(factory, pairs):
    legacy = reference(factory).partition_stream(stream_of(pairs))
    fast = factory().partition_stream(stream_of(pairs))
    return legacy, fast


def assert_identical(legacy, fast):
    assert fast.assignments == legacy.assignments
    assert fast.replication_degree == legacy.replication_degree
    assert fast.imbalance == legacy.imbalance
    assert fast.latency_ms == legacy.latency_ms
    assert fast.score_computations == legacy.score_computations


# ---------------------------------------------------------------------------
# Property-based parity on random streams
# ---------------------------------------------------------------------------

@settings(deadline=None, max_examples=60)
@given(edge_lists, partition_counts)
def test_hdrf_parity(pairs, k):
    assert_identical(*run_both(partial(HDRFPartitioner, range(k)), pairs))


@settings(deadline=None, max_examples=25)
@given(edge_lists, partition_counts)
def test_adwise_adaptive_parity(pairs, k):
    """Full ADWISE: adaptive window + adaptive λ + clustering score."""
    assert_identical(*run_both(
        partial(AdwisePartitioner, range(k), latency_preference_ms=5.0),
        pairs))


@settings(deadline=None, max_examples=25)
@given(edge_lists, partition_counts, st.integers(1, 16))
def test_adwise_fixed_window_parity(pairs, k, window):
    assert_identical(*run_both(
        partial(AdwisePartitioner, range(k), fixed_window=window), pairs))


@settings(deadline=None, max_examples=20)
@given(edge_lists, partition_counts)
def test_adwise_no_clustering_parity(pairs, k):
    assert_identical(*run_both(
        partial(AdwisePartitioner, range(k), latency_preference_ms=5.0,
                use_clustering=False), pairs))


@settings(deadline=None, max_examples=40)
@given(edge_lists, partition_counts)
def test_fast_state_matches_legacy_after_identical_mutations(pairs, k):
    """Drive both states through the same mutation sequence directly."""
    legacy = PartitionState(range(k))
    fast = FastPartitionState(range(k))
    for i, (u, v) in enumerate(pairs):
        edge = Edge(u, v).canonical()
        legacy.observe_degrees(edge)
        fast.observe_degrees(edge)
        target = (u + v + i) % k
        assert fast.assign(edge, target) == legacy.assign(edge, target)
        assert fast.max_size == legacy.max_size
        assert fast.min_size == legacy.min_size
        assert fast.imbalance() == legacy.imbalance()
    assert fast.replica_sets == legacy.replica_sets
    assert fast.partition_edges == legacy.partition_edges
    assert fast.degree == legacy.degree
    assert fast.max_degree == legacy.max_degree
    assert fast.total_replicas() == legacy.total_replicas()
    assert fast.replication_degree() == legacy.replication_degree()
    for v in range(31):
        assert fast.replicas(v) == legacy.replicas(v)
        assert fast.degree_of(v) == legacy.degree_of(v)
        for p in range(k):
            assert fast.is_replicated_on(v, p) == legacy.is_replicated_on(v, p)


# ---------------------------------------------------------------------------
# One copy of the vertex cache: whoever wrote the dense tables, every
# query reads back the dict reference's answer.  9,097 vertices cross
# the 1,024-row capacity four times; k = 65 crosses the 64-bit word of
# the snapshot's bitmask encoding.
# ---------------------------------------------------------------------------

BIG_PAIRS = [(i % 97, 100 + (i * 7) % 9000) for i in range(12000)]
SPREADS = pytest.mark.parametrize("k", [1, 32, 65])


def answers(state, k):
    """Every query of the state API, as one comparable value."""
    vertices = sorted({v for pair in BIG_PAIRS for v in pair}) + [10 ** 9]
    probed = vertices[::41] + [10 ** 9]
    return {
        "replicas": [state.replicas(v) for v in vertices],
        "is_replicated_on": [state.is_replicated_on(v, p)
                             for v in probed for p in range(k + 1)],
        "degree_of": [state.degree_of(v) for v in vertices],
        "degree_pair": [state.degree_pair(u, v)
                        for u, v in zip(probed, probed[1:])],
        "size": [state.size(p) for p in range(k)],
        "max_min": (state.max_size, state.min_size, state.max_degree,
                    state.assigned_edges),
        "imbalance": state.imbalance(),
        "total_replicas": state.total_replicas(),
        "replication_degree": state.replication_degree(),
        "replica_sets": state.replica_sets,
        "partition_edges": state.partition_edges,
        "degree": state.degree,
    }


#: A snapshot field for field.
snapshot_fields = dataclasses.asdict


def per_edge_pair(k, pairs=BIG_PAIRS):
    """Both state classes driven through the same per-edge mutations."""
    legacy, fast = PartitionState(range(k)), FastPartitionState(range(k))
    for i, (u, v) in enumerate(pairs):
        edge = Edge(u, v)
        for state in (legacy, fast):
            state.observe_degrees(edge)
            state.assign(edge, (u * 31 + i) % k)
    return legacy, fast


@SPREADS
def test_queries_after_per_edge_mutation(k):
    legacy, fast = per_edge_pair(k)
    assert fast._capacity >= 8 * 1024
    fast_answers = answers(fast, k)
    assert fast_answers == answers(legacy, k)
    # Plain Python numbers, not numpy scalars: sessions and the daemon
    # put these straight into JSON and pickles.
    json.dumps({name: fast_answers[name] for name in (
        "is_replicated_on", "degree_of", "degree_pair", "size", "max_min",
        "total_replicas", "partition_edges", "degree")})


@needs_kernels
@SPREADS
@pytest.mark.parametrize("factory", [
    partial(HDRFPartitioner), partial(AdwisePartitioner, fixed_window=16)],
    ids=["hdrf", "adwise"])
def test_queries_after_kernel_batches(factory, k):
    states = []
    for build in (partial(reference, factory), factory):
        partitioner = build(range(k))
        partitioner.begin(total_edges=len(BIG_PAIRS))
        for start in range(0, len(BIG_PAIRS), 1500):
            partitioner.ingest(
                [Edge(u, v) for u, v in BIG_PAIRS[start:start + 1500]])
        states.append(partitioner.finalize().state)
    legacy, fast = states
    assert type(fast) is FastPartitionState and fast._capacity >= 8 * 1024
    assert answers(fast, k) == answers(legacy, k)
    assert snapshot_fields(fast.snapshot()) == snapshot_fields(
        legacy.snapshot())


@SPREADS
def test_snapshot_crosses_classes_field_for_field(k):
    legacy, fast = per_edge_pair(k)
    image = snapshot_fields(legacy.snapshot())
    assert snapshot_fields(fast.snapshot()) == image
    for source in (legacy, fast):
        for cls in (PartitionState, FastPartitionState):
            restored = cls.from_snapshot(source.snapshot())
            assert snapshot_fields(restored.snapshot()) == image
            assert answers(restored, k) == answers(legacy, k)


@SPREADS
def test_merge_of_mixed_class_snapshots(k):
    half = len(BIG_PAIRS) // 2
    first = per_edge_pair(k, BIG_PAIRS[:half])
    second = per_edge_pair(k, BIG_PAIRS[half:])
    merged = [snapshot_fields(StateSnapshot.merge(
                  [a.snapshot(), b.snapshot()], partitions=range(k)))
              for a in first for b in second]
    assert all(image == merged[0] for image in merged[1:])
    restored = FastPartitionState.from_snapshot(StateSnapshot.merge(
        [first[1].snapshot(), second[0].snapshot()], partitions=range(k)))
    assert snapshot_fields(restored.snapshot()) == merged[0]


# ---------------------------------------------------------------------------
# Fast state API unit tests
# ---------------------------------------------------------------------------

class TestFastPartitionState:
    def test_rejects_empty_spread(self):
        with pytest.raises(ValueError):
            FastPartitionState([])

    def test_rejects_duplicate_partitions(self):
        with pytest.raises(ValueError):
            FastPartitionState([1, 1])

    def test_rejects_assignment_outside_spread(self):
        state = FastPartitionState([0, 1])
        with pytest.raises(ValueError):
            state.assign(Edge(1, 2), 5)

    def test_non_contiguous_partition_ids(self):
        state = FastPartitionState([7, 3, 11])
        state.assign(Edge(1, 2), 3)
        assert state.replicas(1) == frozenset({3})
        assert state.size(3) == 1
        assert state.partition_edges == {7: 0, 3: 1, 11: 0}

    def test_vertex_table_growth(self):
        state = FastPartitionState(range(4))
        for i in range(3000):
            state.assign(Edge(2 * i, 2 * i + 1), i % 4)
        assert state.assigned_edges == 3000
        assert state.total_replicas() == 6000
        assert state.is_replicated_on(0, 0)
        assert state.replicas(5999) == frozenset({3})

    def test_holds_one_copy_of_the_vertex_cache(self):
        """The native intern table (its hash array, the row -> id
        column that is its insertion order and how a kernel's rows come
        back as ids, the count of rows taken), the four tables the
        kernels write and four scalars — no attribute that could hold a
        second copy of replica membership, degrees or sizes, no id ->
        row dict, and nothing of cffi's (the state pickles as it is)."""
        state = FastPartitionState(range(4))
        state.observe_degrees(Edge(1, 2))
        state.assign(Edge(1, 2), 3)
        state.snapshot()
        assert state._vindex == {1: 0, 2: 1}  # a view, built on demand
        assert set(vars(state)) == {
            "_partitions", "_pindex", "_table", "_ids", "_interned",
            "_capacity",
            "_replicas", "_row_version", "_deg", "_sizes",
            "max_degree", "assigned_edges", "_max_size", "_min_size"}

    def test_absorb_adopts_scalars_without_a_loop(self):
        source = textwrap.dedent(
            inspect.getsource(FastPartitionState.absorb_pump))
        loops = (ast.For, ast.While, ast.comprehension)
        assert not any(isinstance(node, loops)
                       for node in ast.walk(ast.parse(source)))

    def test_copy_degrees_between_state_kinds(self):
        legacy = PartitionState(range(2))
        legacy.observe_degrees(Edge(1, 2))
        legacy.observe_degrees(Edge(1, 3))
        fast = FastPartitionState(range(2))
        fast.copy_degrees_from(legacy)
        assert fast.degree_of(1) == 2
        assert fast.max_degree == legacy.max_degree

    def test_validate_result_accepts_fast_state(self):
        partitioner = HDRFPartitioner(
            range(4), state=FastPartitionState(range(4)))
        edges = [Edge(i, i + 1) for i in range(40)]
        result = partitioner.partition_stream(InMemoryEdgeStream(edges))
        report = validate_result(result)
        assert report.ok, report.problems


class TestTierWiring:
    @needs_kernels
    @pytest.mark.parametrize("cls", [HDRFPartitioner, AdwisePartitioner])
    def test_compiled_algorithms_default_to_the_array_state(self, cls):
        for fast in (None, True):
            assert type(cls(range(2), fast=fast).state) is FastPartitionState
        assert type(cls(range(2)).state) is FastPartitionState
        assert type(reference(cls, range(2)).state) is PartitionState

    @needs_kernels
    def test_defaults_run_the_kernels_end_to_end(self):
        """No knobs anywhere: the kernels still do the work."""
        edges = [Edge(i % 17, 17 + (i * 5) % 23) for i in range(300)]
        hdrf = HDRFPartitioner(range(8))
        hdrf.partition_stream(InMemoryEdgeStream(edges))
        assert hdrf.kernel.kernel_calls > 0
        adwise = AdwisePartitioner(range(8))
        adwise.partition_stream(InMemoryEdgeStream(edges))
        assert adwise.window.kernel_calls > 0
        session = open_session("adwise", partitions=8)
        session.ingest(edges)
        session.finalize()
        assert session.partitioner.window.kernel_calls > 0

    @pytest.mark.parametrize("cls", [DBHPartitioner, GreedyPartitioner])
    def test_other_algorithms_hold_the_dict_state_whatever_fast_says(
            self, cls):
        for fast in (None, True, False):
            assert type(cls(range(2), fast=fast).state) is PartitionState

    def test_explicit_state_wins_over_flag(self):
        state = PartitionState(range(2))
        partitioner = HDRFPartitioner(range(2), state=state, fast=True)
        assert partitioner.state is state

    def test_adwise_select_partition_caches_scoring(self):
        partitioner = AdwisePartitioner(range(4))
        partitioner.partition_edge(Edge(1, 2))
        scoring = partitioner._edge_scoring
        assert scoring is not None
        partitioner.partition_edge(Edge(2, 3))
        assert partitioner._edge_scoring is scoring

    def test_adwise_scoring_cache_follows_state_swap(self):
        """``restore_session`` reassigns ``.state`` after construction;
        the cached scoring must track the live state and clock."""
        partitioner = AdwisePartitioner(range(4))
        partitioner.partition_edge(Edge(1, 2))
        partitioner.state = PartitionState(range(4))
        partitioner.clock = SimulatedClock()
        partitioner.partition_edge(Edge(3, 4))
        assert partitioner._edge_scoring.state is partitioner.state
        assert partitioner._edge_scoring.clock is partitioner.clock
        # The swapped-in clock was actually charged.
        assert partitioner.clock.score_computations > 0

    def test_simulated_clock_batch_equals_singles(self):
        batched = SimulatedClock()
        singles = SimulatedClock()
        batched.charge_score(17)
        for _ in range(17):
            singles.charge_score()
        assert batched.now() == singles.now()
