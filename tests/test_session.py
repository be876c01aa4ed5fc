"""Session facade tests: open/ingest/query/stats and snapshot-resume.

The snapshot contract is the strong one: a session snapshot taken
mid-stream, restored (optionally through a pickle file), and fed the
rest of the stream must produce **bit-identical** results — same
assignments, same simulated latency, same adaptive extras — as the
uninterrupted session and as the batch ``partition_stream`` reference.
"""

import dataclasses
import pickle
import random

import pytest
from _window_utils import reference

from repro.api import (
    PartitionSession,
    SessionError,
    SessionSnapshot,
    SessionStats,
    open_session,
    restore_session,
)
from repro.core.adwise import AdwisePartitioner
from repro.graph.graph import Edge
from repro.graph.stream import InMemoryEdgeStream
from repro.partitioning.state import StateSnapshot
from repro.simtime import SimulatedClock, WallClock


def _edges(n, vertices, seed):
    rng = random.Random(seed)
    out = [Edge(rng.randrange(vertices), rng.randrange(vertices))
           for _ in range(n)]
    return [e for e in out if e.u != e.v]


EDGES = _edges(1600, 250, seed=9)


def _feed(session, edges, chunk=53):
    for start in range(0, len(edges), chunk):
        session.ingest(edges[start:start + chunk])


class TestOpenSession:
    def test_returns_session(self):
        session = open_session(algorithm="adwise", partitions=4)
        assert isinstance(session, PartitionSession)
        assert session.algorithm == "adwise"

    def test_partition_count_and_explicit_ids(self):
        by_count = open_session(algorithm="hdrf", partitions=5)
        assert by_count.partitioner.state.partitions == [0, 1, 2, 3, 4]
        by_ids = open_session(algorithm="hdrf", partitions=[3, 7, 9])
        assert by_ids.partitioner.state.partitions == [3, 7, 9]

    def test_knobs_forwarded(self):
        session = open_session(algorithm="adwise", partitions=4,
                               fixed_window=16)
        assert session.partitioner.fixed_window == 16

    def test_bad_inputs_raise(self):
        with pytest.raises(SessionError):
            open_session(algorithm="nope", partitions=4)
        with pytest.raises(SessionError):
            open_session(algorithm="adwise", partitions=0)
        with pytest.raises(SessionError):
            open_session(algorithm="adwise", partitions=[])
        with pytest.raises(SessionError):
            open_session(algorithm="hdrf", partitions=4,
                         not_a_knob=True)

    def test_accepts_tuples_and_edges(self):
        session = open_session(algorithm="dbh", partitions=4)
        session.ingest([(0, 1), Edge(1, 2)])
        assert session.edges_ingested == 2


class TestQueriesAndStats:
    def test_query_vertex_and_edge(self):
        session = open_session(algorithm="hdrf", partitions=4)
        [assignment] = session.ingest([(5, 9)])
        assert session.query_edge(5, 9) == assignment.partition
        assert session.query_edge(9, 5) == assignment.partition
        assert session.query_vertex(5) == [assignment.partition]
        assert session.query_edge(1, 2) is None
        assert session.query_vertex(123) == []

    def test_stats_reflect_buffering(self):
        session = open_session(algorithm="adwise", partitions=4,
                               fixed_window=64)
        session.ingest(EDGES[:40])  # under the window target: all buffered
        stats = session.stats()
        assert isinstance(stats, SessionStats)
        assert stats.edges_ingested == 40
        assert stats.assignments_emitted == 0
        assert stats.buffered_edges == 40
        assert stats.window_size == 64
        round_trip = stats.to_dict()
        assert round_trip["edges_ingested"] == 40

    @pytest.mark.parametrize("fast", [None, False],
                             ids=["default", "reference"])
    @pytest.mark.parametrize("algorithm,knobs,emitted", [
        ("hdrf", {}, 9), ("adwise", {"fixed_window": 4}, 6)])
    def test_emitted_counts_decisions_not_distinct_edges(self, algorithm,
                                                         knobs, emitted,
                                                         fast):
        """A stream that repeats an edge: every decision counts (the
        mapping holds 7 distinct edges, the state assigned 9), so the
        books balance after every batch."""
        pairs = [(1, 2), (2, 3), (2, 1), (1, 2), (3, 4), (4, 5), (5, 6),
                 (6, 7), (7, 8)]
        for chunk in (1, 2, 4, 9):
            session = open_session(algorithm, partitions=4, fast=fast,
                                   **knobs)
            for start in range(0, len(pairs), chunk):
                session.ingest(pairs[start:start + chunk])
                stats = session.stats()
                assert (stats.edges_ingested
                        == stats.assignments_emitted + stats.buffered_edges)
                assert (stats.assignments_emitted
                        == session.partitioner.state.assigned_edges)
            stats = session.stats()
            assert (stats.edges_ingested, stats.assignments_emitted,
                    stats.buffered_edges) == (9, emitted, 9 - emitted)
            result = session.finalize()
            assert len(result.assignments) == 7
            assert session.stats().assignments_emitted == 9

    def test_finalize_closes(self):
        session = open_session(algorithm="hdrf", partitions=4)
        session.ingest(EDGES[:10])
        result = session.finalize()
        assert len(result.assignments) == session.stats().assignments_emitted
        with pytest.raises(SessionError):
            session.ingest([(0, 1)])
        with pytest.raises(SessionError):
            session.snapshot()

    def test_finalize_matches_batch(self):
        session = open_session(algorithm="adwise", partitions=6,
                               expected_edges=len(EDGES),
                               latency_preference_ms=40.0)
        _feed(session, EDGES)
        result = session.finalize()
        control = reference(
            AdwisePartitioner, list(range(6)), clock=SimulatedClock(),
            latency_preference_ms=40.0,
        ).partition_stream(InMemoryEdgeStream(EDGES))
        assert result.assignments == control.assignments
        assert result.latency_ms == control.latency_ms
        assert result.extras == control.extras


def _adwise_knobs(compiled):
    """Session knobs for the default (compiled where the kernels load)
    or the reference tier."""
    knobs = {"latency_preference_ms": 40.0}
    if not compiled:
        knobs["fast"] = False
    return knobs


class TestSnapshotResume:
    @pytest.mark.parametrize("cut", [1, 400, 777, len(EDGES) - 1])
    @pytest.mark.parametrize("compiled", [False, True],
                             ids=["reference", "compiled"])
    def test_adwise_midstream_resume_bit_identical(self, cut, compiled,
                                                   tmp_path):
        """snapshot -> pickle -> restore -> continue == uninterrupted
        == the reference run in one piece.

        The default session runs the array window, so this also proves
        its image round-trip mid-traversal.
        """
        knobs = _adwise_knobs(compiled)
        live = open_session(algorithm="adwise", partitions=6,
                            expected_edges=len(EDGES), **knobs)
        _feed(live, EDGES[:cut])

        path = tmp_path / "session.snapshot"
        live.snapshot().save(str(path))
        resumed = restore_session(SessionSnapshot.load(str(path)))

        _feed(live, EDGES[cut:])
        _feed(resumed, EDGES[cut:])
        live_result = live.finalize()
        resumed_result = resumed.finalize()

        assert resumed_result.assignments == live_result.assignments
        assert resumed_result.latency_ms == live_result.latency_ms
        assert resumed_result.extras == live_result.extras

        control = reference(
            AdwisePartitioner, list(range(6)), clock=SimulatedClock(),
            latency_preference_ms=40.0,
        ).partition_stream(InMemoryEdgeStream(EDGES))
        assert resumed_result.assignments == control.assignments
        assert resumed_result.latency_ms == control.latency_ms

    @pytest.mark.parametrize("algorithm", ["adwise", "hdrf"])
    @pytest.mark.parametrize("compiled", [False, True],
                             ids=["reference", "compiled"])
    def test_snapshot_pickled_with_fast_marker_resumes(self, algorithm,
                                                       compiled):
        """State images pickled while :class:`StateSnapshot` still had a
        ``fast`` field (a daemon's WAL snapshot files, for one) carry it
        in their ``__dict__``: they restore, continue bit-identically on
        either tier and merge like a current image."""
        knobs = (_adwise_knobs(compiled) if algorithm == "adwise"
                 else {} if compiled else {"fast": False})
        live = open_session(algorithm=algorithm, partitions=6,
                            expected_edges=len(EDGES), **knobs)
        _feed(live, EDGES[:777])
        snapshot = live.snapshot()
        current = StateSnapshot(**dataclasses.asdict(snapshot.state))
        snapshot.state.__dict__["fast"] = compiled
        old = pickle.loads(pickle.dumps(snapshot))
        assert old.state.__dict__["fast"] is compiled
        resumed = restore_session(old)

        _feed(live, EDGES[777:])
        _feed(resumed, EDGES[777:])
        live_result = live.finalize()
        resumed_result = resumed.finalize()
        assert resumed_result.assignments == live_result.assignments
        assert resumed_result.latency_ms == live_result.latency_ms
        assert resumed_result.extras == live_result.extras
        assert (resumed_result.state.snapshot()
                == live_result.state.snapshot())

        partitions = list(range(6))
        assert (StateSnapshot.merge([old.state, old.state], partitions)
                == StateSnapshot.merge([current, current], partitions))
        assert StateSnapshot.merge([old.state], partitions) == current

    def test_array_window_live_at_snapshot(self):
        """Sanity-check the interesting case really occurs: a default
        adwise session runs the array window, so the compiled resume
        params above really do round-trip an ArrayEdgeWindow
        mid-traversal."""
        from repro.core.array_window import ArrayEdgeWindow

        session = open_session(algorithm="adwise", partitions=6,
                               expected_edges=len(EDGES),
                               **_adwise_knobs(compiled=True))
        _feed(session, EDGES[:777])
        assert isinstance(session.partitioner.window, ArrayEdgeWindow)
        restored = restore_session(session.snapshot())
        assert isinstance(restored.partitioner.window, ArrayEdgeWindow)

    @pytest.mark.parametrize("algorithm", ["hdrf", "dbh", "greedy",
                                           "grid", "hash"])
    def test_single_edge_algorithms_resume(self, algorithm):
        live = open_session(algorithm=algorithm, partitions=5)
        _feed(live, EDGES[:500])
        resumed = restore_session(live.snapshot())
        _feed(live, EDGES[500:])
        _feed(resumed, EDGES[500:])
        live_result = live.finalize()
        resumed_result = resumed.finalize()
        assert resumed_result.assignments == live_result.assignments
        assert resumed_result.latency_ms == live_result.latency_ms

    def test_snapshot_preserves_queries(self):
        live = open_session(algorithm="hdrf", partitions=4)
        live.ingest(EDGES[:200])
        resumed = restore_session(live.snapshot())
        probe = EDGES[0].canonical()
        assert (resumed.query_edge(probe.u, probe.v)
                == live.query_edge(probe.u, probe.v))
        assert resumed.query_vertex(probe.u) == live.query_vertex(probe.u)
        assert resumed.edges_ingested == live.edges_ingested

    def test_fixed_window_resume(self):
        live = open_session(algorithm="adwise", partitions=4,
                            expected_edges=len(EDGES), fixed_window=128)
        _feed(live, EDGES[:600])
        resumed = restore_session(live.snapshot())
        _feed(live, EDGES[600:])
        _feed(resumed, EDGES[600:])
        assert (resumed.finalize().assignments
                == live.finalize().assignments)

    def test_wall_clock_sessions_cannot_snapshot(self):
        session = open_session(algorithm="hdrf", partitions=4,
                               clock=WallClock())
        session.ingest(EDGES[:10])
        with pytest.raises(SessionError):
            session.snapshot()

    def test_snapshot_file_rejects_other_pickles(self, tmp_path):
        import pickle

        path = tmp_path / "junk.snapshot"
        path.write_bytes(pickle.dumps({"not": "a snapshot"}))
        with pytest.raises(SessionError):
            SessionSnapshot.load(str(path))
