"""The columnar assignment spine: kernel -> result -> writer -> shards -> daemon.

``ingest`` hands ``(u, v, part)`` columns up from a compiled transaction
as an :class:`AssignmentBatch`; a run keeps them in an
:class:`AssignmentStore`, which reads as the ``Dict[Edge, int]`` it
replaced; ``write_assignments``, ``ShardedGraph.from_result``, the
session snapshot and the daemon's ack / audit ring consume the columns.
The contract everywhere is *what a per-edge dict would have held*:
compiled ≡ ``fast=False`` ≡ a plain dict that a wrapper around the
reference state's ``assign`` fills one edge at a time.  The streams
repeat edges in both orientations (a dict keeps the first position and
the last partition), use ids beyond 2³¹ and below zero (int64 columns,
not int32 or unsigned), and bring more than 2,048 new vertices in one
batch (the vertex tables and the output lists double under a live
binding).
"""

import base64
import gzip
import json
import pickle
import random
import zlib
from collections.abc import Sequence

import numpy as np
import pytest
from _service_utils import SupervisedDaemon
from _window_utils import reference, result_tuple

from repro.api import open_session, restore_session
from repro.core import _kernels
from repro.graph.graph import Edge
from repro.graph.shard import ShardedGraph
from repro.partitioning.base import (
    Assignment,
    AssignmentBatch,
    AssignmentStore,
)
from repro.partitioning.partition_io import write_assignments
from repro.service.client import ServiceClient
from repro.service.server import AUDIT_WINDOW

pytestmark = pytest.mark.skipif(_kernels.load() is None,
                                reason="compiled kernels unavailable")

PARTITIONS = 6

CONFIGS = {
    "hdrf": ("hdrf", {}),
    "adwise-w1": ("adwise", {"fixed_window": 1}),
    "adwise-w8": ("adwise", {"fixed_window": 8}),
    "adwise-w256": ("adwise", {"fixed_window": 256}),
    "adwise-adaptive": ("adwise", {"latency_preference_ms": 60.0,
                                   "max_window": 64}),
}


def repeats():
    """Edges that come back, as they were and reversed."""
    rng = random.Random(7)
    pairs = [(1, 2), (2, 3), (2, 1), (1, 2), (3, 4), (4, 5), (5, 6),
             (6, 7), (7, 8)]
    while len(pairs) < 200:
        u, v = rng.sample(range(30), 2)
        pairs.append((u, v))
        if rng.random() < 0.3:
            pairs.append(rng.choice(pairs))
        if rng.random() < 0.3:
            pairs.append(rng.choice(pairs)[::-1])
    return pairs


def far_ids():
    """Ids past 2³¹, past 2⁴⁰ and below zero, some edges repeated."""
    rng = random.Random(11)
    ids = ([2**31 + i for i in range(12)] + [2**40 + 5 * i for i in range(12)]
           + [-1 - i for i in range(12)] + [-2**35 - i for i in range(6)])
    return [tuple(rng.sample(ids, 2)) for _ in range(180)]


def wide():
    """2,400 vertices, every one new when it arrives: a path."""
    return [(3 * i, 3 * i + 3) for i in range(2400)]


STREAMS = {"repeats": repeats(), "far-ids": far_ids(), "wide": wide()}


def batches(pairs, chunking):
    if chunking == "whole":
        return [pairs]
    if chunking == "with-empty":  # an empty batch before every third one
        out = []
        for index, batch in enumerate(batches(pairs, 7)):
            out += [[]] * (index % 3 == 0) + [batch]
        return out + [[]]
    return [pairs[i:i + chunking] for i in range(0, len(pairs), chunking)]


def sessions(config, expected_edges):
    """The compiled session, the ``fast=False`` one and the plain dict
    the latter's ``state.assign`` fills, one edge at a time."""
    algorithm, knobs = CONFIGS[config]
    knobs = dict(knobs, partitions=PARTITIONS, expected_edges=expected_edges)
    compiled = open_session(algorithm, **knobs)
    control = reference(open_session, algorithm, **knobs)
    assert compiled.partitioner.state.is_fast
    plain = {}
    state = control.partitioner.state
    assign = state.assign

    def recorded(edge, partition):
        assert edge == edge.canonical()
        plain[edge] = partition
        return assign(edge, partition)

    state.assign = recorded
    return compiled, control, plain


def assert_reads_as(store, plain):
    """``store`` answers everything ``plain`` does, the same way."""
    assert isinstance(store, AssignmentStore)
    assert len(store) == len(plain)
    assert list(store) == list(plain)
    assert list(store.keys()) == list(plain.keys())
    assert list(store.items()) == list(plain.items())
    assert list(store.values()) == list(plain.values())
    assert store == plain and plain == store
    assert not store != plain
    u, v, part = (column.tolist() for column in store.columns())
    assert list(zip(u, v, part)) == [(e.u, e.v, p) for e, p in plain.items()]
    for edge, partition in plain.items():
        assert store[edge] == partition
        assert type(store[edge]) is int
    assert all(type(edge) is Edge for edge in store)
    missing = Edge(-999_999, 999_999)
    assert missing not in store and store.get(missing) is None
    with pytest.raises(KeyError):
        store[missing]
    if plain:
        first = next(iter(plain))
        assert first in store
        flipped = dict(plain)
        flipped[first] = plain[first] + 1
        assert store != flipped and flipped != store
        del flipped[first]
        assert store != flipped


# ---------------------------------------------------------------------------
# The store against the dict, after every batch
# ---------------------------------------------------------------------------

CASES = [(config, stream, chunking)
         for config in CONFIGS
         for stream in STREAMS
         for chunking in (1, 7, 256, "whole", "with-empty")
         # One- and seven-edge batches of the 2,400-edge stream add
         # nothing the 256-edge ones do not, at ten times the checks.
         if not (stream == "wide" and chunking in (1, 7, "with-empty"))]


@pytest.mark.parametrize("config,stream,chunking", CASES)
def test_store_is_the_dict_after_every_batch(config, stream, chunking):
    pairs = STREAMS[stream]
    compiled, control, plain = sessions(config, len(pairs))
    for batch in batches(pairs, chunking):
        emitted = compiled.ingest(batch)
        assert emitted == control.ingest(batch)
        for session in (compiled, control):
            store = session.partitioner._assignments
            assert_reads_as(store, plain)
            assert store.rows == session.partitioner.state.assigned_edges
            stats = session.stats()
            assert (stats.edges_ingested
                    == stats.assignments_emitted + stats.buffered_edges)
            for edge, partition in plain.items():
                assert session.query_edge(edge.u, edge.v) == partition
                assert session.query_edge(edge.v, edge.u) == partition
            assert session.query_edge(-999_999, 999_999) is None
    results = [compiled.finalize(), control.finalize()]
    assert result_tuple(results[0]) == result_tuple(results[1])
    assert len(plain) == len({Edge(*pair).canonical() for pair in pairs})
    for result in results:
        assert_reads_as(result.assignments, plain)
        assert result.assignments.rows == len(pairs)
        for edge, partition in plain.items():
            assert result.partition_of(edge) == partition
            assert result.partition_of(Edge(edge.v, edge.u)) == partition
    assert results[0].assignments == results[1].assignments


def test_tables_and_output_lists_double_inside_one_batch():
    """The wide stream in one batch: 2,401 new vertices (the vertex
    tables go 1,024 -> 4,096 while the batch is interned) and 2,400
    decisions (the output lists go 64 -> 4,096 across re-entries)."""
    compiled, control, plain = sessions("hdrf", 2400)
    emitted = compiled.ingest(STREAMS["wide"])
    assert emitted == control.ingest(STREAMS["wide"])
    kernel = compiled.partitioner.kernel
    assert kernel.ctx.vertex_cap == 4096 and kernel.ctx.out_cap == 4096
    assert kernel.kernel_calls == 7
    assert_reads_as(compiled.partitioner._assignments, plain)


# ---------------------------------------------------------------------------
# What ingest returns
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("config", ["hdrf", "adwise-w8"])
@pytest.mark.parametrize("fast", [True, False], ids=["compiled", "reference"])
def test_ingest_returns_what_reads_as_a_list_of_assignments(config, fast):
    algorithm, knobs = CONFIGS[config]
    session = open_session(algorithm, partitions=4, fast=fast, **knobs)
    emitted = session.ingest(STREAMS["far-ids"][:40])
    as_list = list(emitted)
    assert len(as_list) == len(emitted) == (40 if config == "hdrf" else 33)
    assert isinstance(emitted, Sequence)
    assert all(type(a) is Assignment and type(a.edge) is Edge
               and a.edge == a.edge.canonical() for a in as_list)
    # Plain ints, not numpy scalars: the daemon serialises them.
    json.dumps([[a.edge.u, a.edge.v, a.partition] for a in emitted])
    assert emitted == as_list and as_list == emitted
    assert not emitted != as_list
    assert emitted != as_list[:-1] and emitted != as_list[::-1]
    assert (emitted == 5) is False and (emitted == tuple(as_list)) is False
    for index in (0, 1, -1, len(as_list) - 1, -len(as_list)):
        assert emitted[index] == as_list[index]
    for bad in (len(as_list), -len(as_list) - 1):
        with pytest.raises(IndexError):
            emitted[bad]
    for cut in (slice(2, 9), slice(None, None, -1), slice(5, 5),
                slice(-3, None), slice(1, 30, 4)):
        assert emitted[cut] == as_list[cut]
        assert len(emitted[cut]) == len(as_list[cut])
    assert list(reversed(emitted)) == as_list[::-1]
    assert as_list[3] in emitted
    assert Assignment(Edge(0, 1), 0) not in emitted
    assert emitted.index(as_list[3]) == as_list.index(as_list[3])
    assert emitted.count(as_list[3]) == as_list.count(as_list[3])
    grown = []
    grown += emitted
    grown.extend(emitted)
    assert grown == as_list * 2
    [only] = session.ingest(STREAMS["far-ids"][40:41])[:1]
    assert type(only) is Assignment
    nothing = session.ingest([])
    assert not nothing and nothing == [] and list(nothing) == []
    assert len(nothing) == 0 and nothing[:3] == []


@pytest.mark.parametrize("config", ["hdrf", "adwise-w8"])
@pytest.mark.parametrize("fast", [True, False], ids=["compiled", "reference"])
@pytest.mark.parametrize("bad", [
    [(1,)], [(1, 2, 3)], [(1, 2), (3,)], [(1,), (1, 2, 3)], [()],
    [(1, 2), [3, 4, 5], (6, 7)]])
def test_wrong_arity_edges_are_refused(config, fast, bad):
    """Not a pair: refused by name, before anything is partitioned —
    ``[(1,), (1, 2, 3)]`` flattens to an even count and must not pass."""
    algorithm, knobs = CONFIGS[config]
    session = open_session(algorithm, partitions=4, fast=fast, **knobs)
    twin = open_session(algorithm, partitions=4, fast=fast, **knobs)
    good = STREAMS["repeats"]
    assert session.ingest(good[:20]) == twin.ingest(good[:20])
    with pytest.raises(ValueError, match=r"an edge is a \(u, v\) pair"):
        session.ingest(bad)
    assert session.stats() == twin.stats()
    assert session.ingest(good[20:60]) == twin.ingest(good[20:60])
    assert result_tuple(session.finalize()) == result_tuple(twin.finalize())


@pytest.mark.parametrize("bad", [[("a", "b")], [(None, 1)], [(2**63, 1)],
                                 [(1, -2**63 - 1)]])
def test_ids_that_are_not_int64_are_refused(bad):
    session = open_session("hdrf", partitions=4)
    with pytest.raises((ValueError, TypeError, OverflowError)):
        session.ingest(bad)
    assert session.stats().edges_ingested == 0
    assert len(session.ingest([(1, 2)])) == 1


# ---------------------------------------------------------------------------
# Downstream: the writer, the shards
# ---------------------------------------------------------------------------

def finished(config, stream):
    algorithm, knobs = CONFIGS[config]
    session = open_session(algorithm, partitions=PARTITIONS, **knobs)
    for batch in batches(STREAMS[stream], 64):
        session.ingest(batch)
    return session.finalize()


@pytest.mark.parametrize("suffix", ["", ".gz"])
@pytest.mark.parametrize("config", ["hdrf", "adwise-w8"])
@pytest.mark.parametrize("stream", ["repeats", "far-ids"])
def test_written_file_is_the_dicts(tmp_path, config, stream, suffix):
    result = finished(config, stream)
    opener = gzip.open if suffix else open
    written = {}
    for name, mapping in (("store", result.assignments),
                          ("dict", dict(result.assignments))):
        path = tmp_path / f"{name}.parts{suffix}"
        assert write_assignments(path, mapping, header="k=6\nsecond") == len(
            mapping)
        with opener(path, "rb") as handle:
            written[name] = handle.read()
    per_edge = "# k=6\n# second\n" + "".join(
        f"{edge.u} {edge.v} {partition}\n"
        for edge, partition in dict(result.assignments).items())
    assert written["store"] == written["dict"] == per_edge.encode()


def test_an_empty_mapping_writes_its_header_only(tmp_path):
    path = tmp_path / "empty.parts"
    assert write_assignments(path, AssignmentStore(), header="none") == 0
    assert write_assignments(tmp_path / "dict.parts", {}) == 0
    assert path.read_text() == "# none\n"


@pytest.mark.parametrize("config", ["hdrf", "adwise-w8"])
def test_shards_from_the_store_are_the_dicts(config):
    result = finished(config, "repeats")
    plain = dict(result.assignments)
    shardings = [ShardedGraph.from_result(result),
                 ShardedGraph.from_assignments(result.assignments,
                                               partitions=range(PARTITIONS)),
                 ShardedGraph.from_assignments(plain,
                                               partitions=range(PARTITIONS))]
    assert len({sharded.fingerprint() for sharded in shardings}) == 1
    for sharded in shardings:
        edges = dict(sharded.incidence.edges())
        assert edges == plain
        assert list(edges.items()) == list(plain.items())


# ---------------------------------------------------------------------------
# Sessions: snapshot, pickle, restore
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("stream", ["repeats", "far-ids"])
def test_snapshot_pickle_restore_continues_identically(config, stream):
    algorithm, knobs = CONFIGS[config]
    pairs = STREAMS[stream]
    knobs = dict(knobs, partitions=PARTITIONS, expected_edges=len(pairs))
    whole = open_session(algorithm, **knobs)
    first = open_session(algorithm, **knobs)
    cut = 90
    emitted = [whole.ingest(batch) for batch in batches(pairs, 30)]
    resumed_emitted = [first.ingest(batch)
                       for batch in batches(pairs[:cut], 30)]
    snapshot = first.snapshot()
    assert snapshot.assignments.dtype == np.int64
    assert snapshot.assignments.shape == (first.stats().assignments_emitted, 3)
    resumed = restore_session(pickle.loads(pickle.dumps(snapshot)))
    assert resumed.stats() == first.stats()
    assert resumed.partitioner._assignments == first.partitioner._assignments
    resumed_emitted += [resumed.ingest(batch)
                        for batch in batches(pairs[cut:], 30)]
    assert resumed_emitted == emitted
    assert resumed.stats() == whole.stats()
    done, control = resumed.finalize(), whole.finalize()
    assert result_tuple(done) == result_tuple(control)
    assert done.assignments.rows == control.assignments.rows == len(pairs)


#: ``pickle.dumps(session.snapshot(), protocol=4)`` (zlib, base64) taken
#: by the commit before the store existed (PR 18), after
#: ``ingest(PARENT_PAIRS[:30])`` on ``open_session(algorithm,
#: partitions=4, **knobs)``: ``assignments`` is what its dict held.
PARENT_SNAPSHOTS = {
    "adwise": (
        "eNplVMtu00AU9fiV96NJGl6FZVUW5BforkKjokpdsELGcaaJ1dgOfrQREgJWLdHs"
        "GH4BCb6DL+BP2COVe8czSdrasuZxzx3fc+be+9n+vu8a8uG1lC3SZOQvQsE7pyzL"
        "wiQ+jf1FNkty8U08/yI+igNe8+fTJA3zWSS4608uw4wJXl/4aR7m4JCJt+KAGpRQ"
        "k1qMO+dxMs7AkTfPwiWbeJdhPEkuBa1mvM2WCxbksMkmU5YJanAny/0czntYhrI+"
        "NYynI2VqneJ4L65Z5dZ/m3DAPAx8bxzm+Hs0WfA6tELbK6cNfE1q0za1Vo4JCxts"
        "LVqlu/D1qblyGgpRp9WVM5SIKt2BrwObA/iGlKycqkQR6qJLX6Jg0lO+NnVWjit3"
        "CW2Ar4nWbgmjNbB38fSOhMPEKqFlRCZOjBJbgDDhB1Zq68LrUJdxd8KmKWNb7Exg"
        "Z2l2BNjZmp0J7CxghwpADEQhmrhoqgi3eBPgbWreBHibwJsAb/Mub6J5E82bUCnC"
        "hjehPbQ6yiqJdZW1Bl8XNzqa8n0RWgpLcNG8LQ0peD3yl56Sgtq87UPiTuNNVj3g"
        "9pmf5eK6GPNGaYxYnOtEtahxBakH7AmMllbAhEVdK2DhAlTAsa0lRXgHJYFxqCXB"
        "swZaCbS4a31g0VBn2FoehK9TAhE2KIJuXa0Iwg2tCsIhfyWyou/ZlJstiWzhFW+C"
        "LOPpr8W6ElCRwTwJzmUpt7IgSZkXJFnuRZk4enkyPv7z9+c/3tvItGV9p63aLVoU"
        "UIuy6I/3yOwpSN3wJxd+HID66GKop+BVqN40v7UJ9Y8X5EFtswy6gKDPeGfdXLyy"
        "3DHMZtkzvDDyp9AAdsregDGMVDfhjTdy8koi1q2qAvGnYVk2B2U1ysRfhwDXbnzN"
        "IQ0c2lR1cN/WQFWPDvs3Nze/Hv2GLBxe43af9lROb7s0pctjuqvS9r7fE5g52y4D"
        "6bKnIzDvujBeidky90KpUK0UPysicXT4AoCf9n/wygVLsVtjstdBnCgpb4VWIecr"
        "CxZPQGRQgdeDBCRJ5nOWite8PfbneFmpd+HPCwYHDtR9zU4o4S78NfVl87Yy9h7y"
        "sBiP/gPXnKHb"
    ),
    "hdrf": (
        "eNptlM2O0zAQgGMn7v8f7W7FAXHevewrcORggZB6RiFNvW20bRJid1UhIS0nUOQb"
        "5iF4Hd6EOwdmnDjNajeRZY3nxzPfWPMQ/Lpmnv10vxB5kd1EeWL0dCWkTLJ0lUa5"
        "3GXK/DTX38xXc6X70X6bFYnaHYwOdpvi1uhBHhUqUWAuzUdzxT1OOOW+0OwuzdYS"
        "3PREnHIRK7EJxWYrpOGeZlJFShj9srq2iZGk25taNV7h/iSHXffRLSMIsE/iKFwn"
        "Ci+rVD6sLp+UbAK1UbCc8KBkFISAB3zMe/wSFuOkZMRaED7itGQja0H5AjXDWjNA"
        "32Xt+wLWFCwuYC15r2Q9a9XjHfRfVP4lm9f3BhioY08JH4I4Rx9W+1DUzmptH9YM"
        "faeVb8n8SlMlTjGLsT3pgSWpkrV2XmV3BKrJF1G1YQD1d3lH6M5GbAshajQ+/BQU"
        "vkND2mgooPEBjQ9o6LNoCKChbTTUoSGAhgIaUqMhDg0BNMShIQ4N4ZbTGQ0BNMSh"
        "Ic+hIQ4NeYKGODSkjYa00AwO0SmsUfBATyJ44dv0/CRf6+A2ksr8OK71sFIeRKrc"
        "m/a5993wbkMNhElDDYQxUoOdOWpoPmqogeABOTz0HT0UBo4exhggQdinQBA9lo4g"
        "Bu40BDEP7BPsFw1NEAJHEwMP61hzRxTNqSOKFgFQxX3WUMUkHVlbLTwNei6UWuHS"
        "kcaABN5Jq9AqxsJRBw1MgXifxXd2eIxlnBUijDOpwoM0b998WL/78/f3Pz0/825p"
        "PzmtczvkR5gIdtDw0+4VtGwYbe6jNIYuoodXf0fdgxFSqEeHMISw0SEMGCFhFGHH"
        "p800C6uZ815370WBow9q0x1xUkVkJ5gvxWegc1zf/AcFdD7i"
    ),
}

PARENT_PAIRS = [((i * 7) % 23, (i * 11 + 3) % 23 + (i % 3) * 2**33)
                for i in range(60)]
PARENT_PAIRS = [(u, v) for u, v in PARENT_PAIRS if u != v]
PARENT_PAIRS[10] = PARENT_PAIRS[2]
PARENT_PAIRS[11] = PARENT_PAIRS[3][::-1]


@pytest.mark.parametrize("algorithm,knobs", [("adwise", {"fixed_window": 8}),
                                             ("hdrf", {})])
def test_a_snapshot_pickled_by_the_parent_commit_restores(algorithm, knobs):
    snapshot = pickle.loads(zlib.decompress(base64.b64decode(
        "".join(PARENT_SNAPSHOTS[algorithm]))))
    assert snapshot.version == 1 and snapshot.edges_ingested == 30
    resumed = restore_session(snapshot)
    whole = open_session(algorithm, partitions=4, **knobs)
    whole.ingest(PARENT_PAIRS[:30])
    assert resumed.partitioner._assignments == whole.partitioner._assignments
    assert (list(resumed.partitioner._assignments.items())
            == list(whole.partitioner._assignments.items()))
    assert (resumed.ingest(PARENT_PAIRS[30:])
            == whole.ingest(PARENT_PAIRS[30:]))
    assert result_tuple(resumed.finalize()) == result_tuple(whole.finalize())


@pytest.mark.parametrize("config", CONFIGS)
def test_a_snapshot_holds_one_array_and_restores_from_a_list_too(config):
    """The decisions travel as one ``(n, 3)`` int64 array, which pickles
    as its 24 bytes an edge and no object (compaction runs on the
    daemon's event loop); a list of tuples — what the parent commit's
    snapshots hold — still restores, to the same session."""
    algorithm, knobs = CONFIGS[config]
    pairs = STREAMS["far-ids"]
    session = open_session(algorithm, partitions=PARTITIONS, **knobs)
    session.ingest(pairs[:120])
    snapshot = session.snapshot()
    emitted = session.stats().assignments_emitted
    assert type(snapshot.assignments) is np.ndarray
    assert len(pickle.dumps(snapshot.assignments,
                            protocol=4)) <= 24 * emitted + 200
    listed = pickle.loads(pickle.dumps(snapshot))
    listed.assignments = [tuple(row) for row in snapshot.assignments.tolist()]
    assert all(type(value) is int for row in listed.assignments
               for value in row)
    resumed, relisted = (restore_session(pickle.loads(pickle.dumps(image)))
                         for image in (snapshot, listed))
    assert resumed.partitioner._assignments == relisted.partitioner._assignments
    assert (list(resumed.partitioner._assignments.items())
            == list(relisted.partitioner._assignments.items()))
    assert resumed.ingest(pairs[120:]) == relisted.ingest(pairs[120:])
    assert result_tuple(resumed.finalize()) == result_tuple(relisted.finalize())


# ---------------------------------------------------------------------------
# The daemon: ack JSON and the audit tail
# ---------------------------------------------------------------------------

def test_store_tail_is_the_last_decisions():
    """``AssignmentStore.tail`` (what the daemon's ``audit`` reads)
    against a list of every decision, for batches smaller than the
    tail, as large, larger, empty and straddling its edge; it joins no
    batches, and reads the same after :meth:`decisions` joined them."""
    rng = random.Random(3)
    store, model, appended = AssignmentStore(), [], 0
    assert store.tail(5) == []
    for size in [3, 0, 5, 8, 256, 1, 0, 7, 256, 300, 2, 9] * 2:
        rows = [(rng.randrange(99), rng.randrange(99), rng.randrange(4))
                for _ in range(size)]
        store.append(AssignmentBatch(
            *np.array(rows, dtype=np.int64).reshape(-1, 3).T))
        appended += 1
        model += [Assignment(Edge(u, v), p) for u, v, p in rows]
        for count in (0, -1, 1, 3, 8, 300, len(model) - 1, len(model),
                      len(model) + 5):
            tail = store.tail(count)
            assert tail == (model[-count:] if count > 0 else [])
            assert all(column.dtype == np.int64
                       for column in (tail.u, tail.v, tail.part))
        assert len(store._batches) == appended
    store.decisions()
    assert len(store._batches) == 1
    assert store.tail(300) == model[-300:]


@pytest.fixture
def audit_daemon():
    daemon = SupervisedDaemon(queue_depth=4, max_tenants=4)
    daemon.start()
    yield daemon
    daemon.shutdown()


@pytest.mark.parametrize("config", ["hdrf", "adwise-adaptive"])
def test_daemon_acks_and_audit_are_the_per_edge_ones(audit_daemon, config):
    """Each ack's JSON and, after it, the audit tail: exactly what a
    direct ``fast=False`` session's decisions make them, edge by edge.
    HDRF runs past the audit window (4,096 decisions), so the window's
    edge falls inside, across and around 256-edge batches."""
    algorithm, knobs = CONFIGS[config]
    window = AUDIT_WINDOW
    sizes = [3, 4, 256, 0, 5, 256, 256, 2]
    if config == "hdrf":
        sizes += [256] * 14 + [1, 250, 9]
    pairs = STREAMS["repeats"] * 25
    assert len(pairs) >= sum(sizes)
    control = reference(open_session, algorithm, partitions=4, **knobs)
    decisions = []
    with ServiceClient(port=audit_daemon.port) as client:
        client.open("t", algorithm=algorithm, partitions=4, **knobs)
        start = 0
        for seq, size in enumerate(sizes, start=1):
            batch = pairs[start:start + size]
            start += size
            ack = client.request({"op": "ingest", "tenant": "t", "seq": seq,
                                  "edges": [list(pair) for pair in batch]})
            emitted = [[a.edge.u, a.edge.v, a.partition]
                       for a in control.ingest(batch)]
            ack.pop("id", None)
            assert ack == {"ok": True, "accepted": size, "seq": seq,
                           "assignments": emitted}
            decisions += emitted
            kept = [{"seq": seq_no, "u": u, "v": v, "partition": p}
                    for seq_no, (u, v, p) in enumerate(decisions)][-window:]
            for limit in (window + 5, window, 3):
                audit = client.audit("t", limit=limit)
                assert audit["decisions"] == kept[-limit:]
                assert audit["dropped"] == len(decisions) - len(kept)
            stats = client.stats("t")
            assert stats["audit"] == {
                "recorded": len(decisions), "retained": len(kept),
                "capacity": window, "dropped": len(decisions) - len(kept)}
            assert (stats["session"]["assignments_emitted"]
                    == len(decisions))
        assert (stats["audit"]["dropped"] > 0) == (config == "hdrf")
        final = client.request({"op": "finalize", "tenant": "t"})
    result = control.finalize()
    assert final["assignments"] == sorted(
        [e.u, e.v, p] for e, p in result.assignments.items())
