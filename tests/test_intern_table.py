"""The native vertex intern table ≡ a plain dict filled one id at a time.

``FastPartitionState`` interns vertex ids to dense rows through an
open-addressing table in ``_kernels.c`` (``kern_intern`` /
``kern_lookup`` / ``kern_rehash``, DESIGN.md §14).  The contract is the
one the ``_vindex`` dict used to give by construction: a first sighting
takes the next row, in order, so row order is first-sight order — which
is what every table, snapshot and digest downstream is keyed on.  Each
case is here because a plausible wrong table passes the others:
duplicates inside a batch (an id must be findable the moment it is
written), ids that differ only in their high bits or are congruent
modulo the capacity (probe chains), the ``±2**63`` edges (the hash is
unsigned arithmetic on a signed id), both growths crossed *inside* one
batch from capacity 2 (the resume cursor, the rehash), lookups that must
intern nothing, and a restored state that must keep interning where the
live one would have.
"""

import copy
import pickle

import numpy as np
import pytest
from _window_utils import result_tuple
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import open_session, restore_session
from repro.core import _kernels
from repro.graph.generators import powerlaw_cluster_graph
from repro.graph.graph import Edge
from repro.graph.stream import shuffled
from repro.partitioning import fast_state
from repro.partitioning.fast_state import FastPartitionState

pytestmark = pytest.mark.skipif(_kernels.load() is None,
                                reason="compiled kernels unavailable")

INT64_MIN, INT64_MAX = -2**63, 2**63 - 1

#: Few distinct values (duplicates within and across batches), both
#: signs, the int64 edges, and ids that agree in their low bits: equal
#: modulo every power-of-two capacity up to 2**48, or up to 2**11 (the
#: default table's 2,048 slots).
vertex_ids = st.one_of(
    st.integers(-6, 6),
    st.integers(INT64_MIN, INT64_MAX),
    st.sampled_from([INT64_MIN, INT64_MIN + 1, INT64_MAX - 1, INT64_MAX]),
    st.integers(-40, 40).map(lambda j: j << 48),
    st.integers(-40, 40).map(lambda j: 5 + j * 2048))
batches = st.lists(st.lists(vertex_ids, max_size=40), max_size=8)


def state_with(rows, slots, k=4):
    """A state whose row tables start at ``rows`` and whose intern table
    starts at ``slots`` (the constants are read at construction)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fast_state, "_INITIAL_CAPACITY", rows)
        patch.setattr(fast_state, "_INITIAL_TABLE", slots)
        return FastPartitionState(range(k))


@pytest.fixture
def tiny(monkeypatch):
    """Every state built in the test starts at two rows and two slots."""
    monkeypatch.setattr(fast_state, "_INITIAL_CAPACITY", 2)
    monkeypatch.setattr(fast_state, "_INITIAL_TABLE", 2)


def assert_is(state, index):
    """``state`` holds exactly the dict ``index``, in its order, and its
    table finds every id at its row."""
    assert list(state._vindex.items()) == list(index.items())
    assert state._interned == len(index) <= state._capacity
    assert 2 * len(index) <= len(state._table)
    known = np.fromiter(index, dtype=np.int64, count=len(index))
    found = state.dense_rows(known, intern=False)
    assert found.tolist() == list(index.values())
    assert state.vertex_ids(np.arange(len(index))).tolist() == list(index)


@settings(max_examples=150, deadline=None)
@given(batches=batches,
       sizes=st.sampled_from([(2, 2), (2, 2048), (1024, 2), (1024, 2048)]))
def test_interning_equals_a_dict_filled_one_id_at_a_time(batches, sizes):
    state = state_with(*sizes)
    index = {}
    for batch in batches:
        expected = [index.setdefault(i, len(index)) for i in batch]
        rows = state.dense_rows(np.array(batch, dtype=np.int64))
        assert rows.tolist() == expected
        assert_is(state, index)


@pytest.mark.parametrize("rows,slots,capacity,table", [
    (2, 2048, 128, 2048),     # the row tables double, six times
    (1024, 2, 1024, 256),     # the slot array doubles, seven times
    (2, 2, 128, 256),         # both, interleaved
])
def test_both_growths_are_crossed_inside_one_batch(rows, slots, capacity,
                                                   table):
    """100 first sightings, each followed by repeats of ids seen before:
    the call resumes at its cursor after every growth, and what was
    interned before a rehash is found after it."""
    state = state_with(rows, slots)
    batch = [j for i in range(100)
             for j in (i * 7919, i * 7919, (i // 3) * 7919)]
    index = {}
    expected = [index.setdefault(i, len(index)) for i in batch]
    state._deg[:2] = (11, 12)  # row tables keep their contents as they move
    rows = state.dense_rows(np.array(batch, dtype=np.int64))
    assert rows.tolist() == expected
    assert_is(state, index)
    assert (state._capacity, len(state._table)) == (capacity, table)
    assert state._deg[:3].tolist() == [11, 12, 0]
    assert len(state._replicas) == len(state._row_version) == capacity


def test_colliding_ids_chain_and_wrap_around_the_table():
    """Eight slots, four ids: with a table this small every probe chain
    is exercised, including the one that wraps from the last slot."""
    for base in range(-64, 64):
        state = state_with(8, 8)
        ids = [base, base + 8, base - 8, base << 32]
        index = {}
        expected = [index.setdefault(i, len(index)) for i in ids + ids[::-1]]
        assert state.dense_rows(
            np.array(ids + ids[::-1], dtype=np.int64)).tolist() == expected
        assert len(state._table) == 8
        assert_is(state, index)


def test_lookup_of_never_seen_ids_interns_nothing(tiny):
    state = FastPartitionState(range(4))
    state.observe_degrees(Edge(3, 4))
    state.assign(Edge(3, 4), 2)
    before = (state._interned, state._capacity, state._table.tobytes())
    unseen = np.array([0, -3, 5, 2**40, INT64_MIN, INT64_MAX], dtype=np.int64)
    assert state.dense_rows(unseen, intern=False).tolist() == [-1] * 6
    assert state.dense_rows(np.array([4, 0, 3]),
                            intern=False).tolist() == [1, -1, 0]
    for vertex in (0, 5, INT64_MAX, 2**63, -2**70):  # the last two: not int64
        assert state.replicas(vertex) == frozenset()
        assert state.degree_of(vertex) == 0
        assert not state.is_replicated_on(vertex, 2)
    assert state.replicas(4) == frozenset({2}) and state.degree_of(3) == 1
    assert (state._interned, state._capacity, state._table.tobytes()) == before

    session = open_session("hdrf", partitions=4)
    session.ingest([Edge(1, 2)])
    assert session.query_vertex(99) == [] and session.query_vertex(1) != []
    assert session.partitioner.state._interned == 2


def test_ids_outside_int64_are_refused_before_anything_is_mutated(tiny):
    state = FastPartitionState(range(4))
    state.assign(Edge(1, 2), 0)
    image = pickle.dumps(state)
    for bad in (Edge(1, 2**63), Edge(-2**63 - 1, 5)):
        with pytest.raises(OverflowError):
            state.observe_degrees(bad)
        with pytest.raises(OverflowError):
            state.assign(bad, 1)
    donor = FastPartitionState(range(4)).snapshot()
    donor.degree[2**64] = 3
    with pytest.raises(OverflowError):
        state.copy_degrees_from(donor)
    with pytest.raises(OverflowError):
        FastPartitionState.from_snapshot(donor)
    with pytest.raises(TypeError, match="int64"):
        state.dense_rows(np.array([1.0, 2.0]))
    assert pickle.dumps(state) == image
    session = open_session("hdrf", partitions=4)
    with pytest.raises(OverflowError):
        session.ingest([(1, 2), (3, 2**63)])
    assert session.partitioner.state._interned == 0


def test_a_state_is_picklable_and_keeps_interning_after_the_round_trip(tiny):
    """Nothing of cffi's lives on the state: the table travels as its
    arrays and the copy interns on from where the original stood."""
    state = FastPartitionState(range(4))
    for i in range(40):
        state.assign(Edge(i * 31, i * 31 + 1), i % 4)
    more = np.array([31, 5, 10**12, 5, 0], dtype=np.int64)
    for twin in (pickle.loads(pickle.dumps(state)), copy.deepcopy(state)):
        index = dict(state._vindex)
        expected = [index.setdefault(i, len(index)) for i in more.tolist()]
        assert twin.dense_rows(more).tolist() == expected
        assert_is(twin, index)
    assert state._interned == 80  # the original did not move


def test_no_kernels_no_second_interning_path(monkeypatch):
    """A hand-built array state on a machine without the kernels says
    so on first intern (``_new_state`` never selects it there)."""
    state = FastPartitionState(range(4))
    monkeypatch.setattr(_kernels, "_loaded", None)
    with pytest.raises(RuntimeError, match="compiled kernels"):
        state.observe_degrees(Edge(1, 2))
    with pytest.raises(RuntimeError, match="compiled kernels"):
        state.replicas(1)
    assert state._interned == 0


@pytest.mark.parametrize("algorithm,knobs", [
    ("adwise", {"fixed_window": 16}),
    ("adwise", {"latency_preference_ms": 150.0}),
    ("hdrf", {}),
], ids=["adwise-fixed", "adwise-adaptive", "hdrf"])
def test_snapshot_restore_keep_ingesting_equals_uninterrupted(tiny, algorithm,
                                                              knobs):
    """Restore interns the snapshot's vertices in one batch; the rows it
    hands out afterwards must continue the sequence, through both
    growths, so the resumed run decides what the live one does."""
    graph = powerlaw_cluster_graph(n=300, m=6, p=0.5, seed=5)
    edges = list(shuffled(graph.edges(), seed=7))
    batches = [edges[i:i + 97] for i in range(0, len(edges), 97)]

    def session():
        return open_session(algorithm, partitions=8,
                            expected_edges=len(edges), **knobs)

    live = session()
    for batch in batches:
        live.ingest(batch)
    uninterrupted = live.finalize()

    resumed = session()
    for cut, batch in enumerate(batches):
        if cut in (1, 4, len(batches) - 1):
            resumed = restore_session(
                pickle.loads(pickle.dumps(resumed.snapshot())))
        resumed.ingest(np.array(batch, dtype=np.int64))
    result = resumed.finalize()
    assert result_tuple(result) == result_tuple(uninterrupted)
    mine, theirs = result.state.snapshot(), uninterrupted.state.snapshot()
    assert mine.degree == theirs.degree
    assert mine.replica_bits == theirs.replica_bits
    assert mine.sizes == theirs.sizes
    assert type(result.state) is FastPartitionState
    assert len(result.state._table) >= 2 * 300
