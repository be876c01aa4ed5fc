"""Daemon tests: protocol, multi-tenant parity, backpressure, durability.

Each test boots a real :class:`PartitionService` on an OS-assigned port
in a background thread and talks to it over TCP with the blocking
:class:`ServiceClient` — the same stack production traffic would use.
The headline contract: interleaved tenants are fully isolated, and a
tenant's stream produces **bit-identical** assignments to a local
``partition_stream`` run, even across a shutdown + restart over the
daemon's write-ahead-log directory.
"""

import random
import threading

import numpy as np
import pytest

from _async_utils import wait_until
from _service_utils import SupervisedDaemon
from repro.core.adwise import AdwisePartitioner
from repro.graph.graph import Edge
from repro.graph.stream import InMemoryEdgeStream
from repro.partitioning.hdrf import HDRFPartitioner
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import run_service
from repro.simtime import SimulatedClock


def _edges(n, vertices, seed):
    rng = random.Random(seed)
    out = [(rng.randrange(vertices), rng.randrange(vertices))
           for _ in range(n)]
    return [(u, v) for u, v in out if u != v]


EDGES = _edges(1200, 200, seed=17)

#: ``TestCanonicalLines.test_finalize_reply_bytes``'s reply, as the daemon
#: wrote it when it sorted the rows with ``np.lexsort``.
PINNED_FINALIZE = (
    b'"assignments": [[-9, -3, 2], [-3, 8, 2], [1, 9, 1], [2, 7, 0], '
    b'[3, 5, 0], [4, 1099511627776, 2], [1099511627776, 1099511627777, 2]]')

#: ``TestCanonicalLines.test_audit_reply_bytes``'s replies (limits 0, 1, 4
#: and 100), as the daemon wrote them when it built each decision as a
#: dict and ``json.dumps``-ed the list.
PINNED_AUDIT = [
    b'{"ok": true, "tenant": "t", "decisions": [], "dropped": 0}\n',
    b'{"ok": true, "tenant": "t", "decisions": [{"seq": 14, "u": -9, '
    b'"v": -3, "partition": 2}], "dropped": 0}\n',
    b'{"ok": true, "tenant": "t", "decisions": [{"seq": 11, "u": -9, '
    b'"v": -3, "partition": 2}, {"seq": 12, "u": 1099511627776, '
    b'"v": 1099511627777, "partition": 2}, {"seq": 13, "u": 1, "v": 9, '
    b'"partition": 1}, {"seq": 14, "u": -9, "v": -3, "partition": 2}], '
    b'"dropped": 0}\n',
    b'{"ok": true, "tenant": "t", "decisions": [{"seq": 0, "u": 3, "v": 5, '
    b'"partition": 0}, {"seq": 1, "u": 3, "v": 5, "partition": 0}, '
    b'{"seq": 2, "u": 1, "v": 9, "partition": 1}, {"seq": 3, "u": 4, '
    b'"v": 1099511627776, "partition": 2}, {"seq": 4, "u": 1, "v": 9, '
    b'"partition": 1}, {"seq": 5, "u": -3, "v": 8, "partition": 2}, '
    b'{"seq": 6, "u": 2, "v": 7, "partition": 0}, {"seq": 7, "u": 4, '
    b'"v": 1099511627776, "partition": 2}, {"seq": 8, "u": 3, "v": 5, '
    b'"partition": 0}, {"seq": 9, "u": -3, "v": 8, "partition": 2}, '
    b'{"seq": 10, "u": 2, "v": 7, "partition": 0}, {"seq": 11, "u": -9, '
    b'"v": -3, "partition": 2}, {"seq": 12, "u": 1099511627776, '
    b'"v": 1099511627777, "partition": 2}, {"seq": 13, "u": 1, "v": 9, '
    b'"partition": 1}, {"seq": 14, "u": -9, "v": -3, "partition": 2}], '
    b'"dropped": 0}\n']


@pytest.fixture
def daemon(tmp_path):
    """A live daemon; yields (port, wal_dir, restart)."""
    wal_dir = str(tmp_path / "wal")
    threads = []

    def boot():
        ready = threading.Event()
        box = {}

        def on_ready(service):
            box["port"] = service.port
            ready.set()

        thread = threading.Thread(
            target=run_service,
            kwargs=dict(port=0, queue_depth=4, max_tenants=4,
                        wal_dir=wal_dir,
                        ready_callback=on_ready),
            daemon=True)
        thread.start()
        assert ready.wait(10), "daemon did not come up"
        threads.append((thread, box["port"]))
        return box["port"]

    yield boot(), wal_dir, boot
    for thread, port in threads:
        if thread.is_alive():
            try:
                with ServiceClient(port=port) as client:
                    client.shutdown()
            except (OSError, ServiceError):
                pass
        thread.join(10)
        wait_until(lambda: not thread.is_alive(),
                   message="daemon thread to exit after shutdown")


def _reference(algorithm_cls, partitions, edge_pairs, **knobs):
    partitioner = algorithm_cls(list(range(partitions)),
                                clock=SimulatedClock(), **knobs)
    stream = InMemoryEdgeStream([Edge(u, v) for u, v in edge_pairs])
    return partitioner.partition_stream(stream)


def _expected_triples(result):
    return sorted([e.u, e.v, p] for e, p in result.assignments.items())


class TestProtocol:
    def test_ping_and_unknown_op(self, daemon):
        port, _, _ = daemon
        with ServiceClient(port=port) as client:
            assert client.ping()["pong"] is True
            with pytest.raises(ServiceError, match="unknown op"):
                client.request({"op": "frobnicate"})

    def test_unknown_tenant_and_duplicate_open(self, daemon):
        port, _, _ = daemon
        with ServiceClient(port=port) as client:
            with pytest.raises(ServiceError, match="unknown tenant"):
                client.stats("ghost")
            client.open("t", algorithm="hdrf", partitions=4)
            with pytest.raises(ServiceError, match="already exists"):
                client.open("t", algorithm="hdrf", partitions=4)
            with pytest.raises(ServiceError):
                client.open("../escape", algorithm="hdrf", partitions=4)

    def test_max_tenants_enforced(self, daemon):
        port, _, _ = daemon
        with ServiceClient(port=port) as client:
            for i in range(4):
                client.open(f"t{i}", algorithm="dbh", partitions=2)
            with pytest.raises(ServiceError, match="tenant limit"):
                client.open("overflow", algorithm="dbh", partitions=2)
            client.close_tenant("t0")
            client.open("overflow", algorithm="dbh", partitions=2)

    def test_bad_knobs_reported_not_fatal(self, daemon):
        port, _, _ = daemon
        with ServiceClient(port=port) as client:
            with pytest.raises(ServiceError, match="bad knobs"):
                client.open("t", algorithm="hdrf", partitions=4,
                            bogus_knob=1)
            assert client.ping()["pong"] is True  # daemon survived

    @pytest.mark.parametrize("algorithm,knob", [
        ("hdrf", "lam"), ("adwise", "latency_preference_ms")])
    def test_nan_knob_refused_not_fatal(self, daemon, algorithm, knob):
        """The client sends ``{"knobs": {knob: NaN}}``, which
        ``json.loads`` reads: the open is answered with the
        partitioner's refusal, no tenant is left behind, and the daemon
        keeps serving the same name."""
        port, _, _ = daemon
        with ServiceClient(port=port) as client:
            with pytest.raises(ServiceError, match="got nan"):
                client.open("t", algorithm=algorithm, partitions=4,
                            **{knob: float("nan")})
            assert client.tenants() == []
            client.open("t", algorithm=algorithm, partitions=4)
            client.ingest("t", [(1, 2), (2, 3)])
            assert client.ping()["pong"] is True


class TestMultiTenantParity:
    def test_interleaved_tenants_bit_identical(self, daemon):
        """Two algorithms, batches interleaved on one connection: each
        tenant's final result equals its local batch reference."""
        port, _, _ = daemon
        with ServiceClient(port=port) as client:
            client.open("alice", algorithm="adwise", partitions=8,
                        expected_edges=len(EDGES),
                        latency_preference_ms=50.0)
            client.open("bob", algorithm="hdrf", partitions=4)
            pending_a, pending_b = [], []
            for start in range(0, len(EDGES), 100):
                batch = EDGES[start:start + 100]
                pending_a.append(client.ingest_async("alice", batch))
                pending_b.append(client.ingest_async("bob", batch))
            client.drain(pending_a)
            client.drain(pending_b)
            alice = client.finalize("alice")
            bob = client.finalize("bob")

        ref_alice = _reference(AdwisePartitioner, 8, EDGES,
                               latency_preference_ms=50.0)
        ref_bob = _reference(HDRFPartitioner, 4, EDGES)
        assert alice["assignments"] == _expected_triples(ref_alice)
        assert bob["assignments"] == _expected_triples(ref_bob)
        assert alice["latency_ms"] == ref_alice.latency_ms
        assert alice["replication_degree"] == pytest.approx(
            ref_alice.replication_degree)

    def test_concurrent_connections(self, daemon):
        """One connection per tenant, driven from separate threads."""
        port, _, _ = daemon
        results = {}

        def drive(name, algorithm, partitions):
            with ServiceClient(port=port) as client:
                client.open(name, algorithm=algorithm,
                            partitions=partitions)
                for start in range(0, len(EDGES), 64):
                    client.ingest(name, EDGES[start:start + 64])
                results[name] = client.finalize(name)

        workers = [
            threading.Thread(target=drive, args=("w1", "hdrf", 4)),
            threading.Thread(target=drive, args=("w2", "dbh", 6)),
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(30)
        assert results["w1"]["assignments"] == _expected_triples(
            _reference(HDRFPartitioner, 4, EDGES))
        from repro.partitioning.dbh import DBHPartitioner
        assert results["w2"]["assignments"] == _expected_triples(
            _reference(DBHPartitioner, 6, EDGES))

    def test_query_and_audit(self, daemon):
        port, _, _ = daemon
        with ServiceClient(port=port) as client:
            client.open("t", algorithm="hdrf", partitions=4)
            triples = client.ingest("t", EDGES[:50])
            u, v, p = triples[0]
            assert client.query_edge("t", u, v) == p
            assert p in client.query_vertex("t", u)
            audit = client.audit("t", limit=10)
            assert len(audit["decisions"]) == 10
            assert audit["decisions"][-1]["seq"] == 49
            stats = client.stats("t")
            assert stats["session"]["edges_ingested"] == 50
            assert stats["metrics"]["batches"] == 1
            assert stats["audit"]["recorded"] == 50

    def test_backpressure_queue_bound(self, daemon):
        """More pipelined batches than queue_depth=4: all are served
        (the bounded queue suspends the feeder, drops nothing)."""
        port, _, _ = daemon
        with ServiceClient(port=port) as client:
            client.open("t", algorithm="dbh", partitions=4)
            pending = [client.ingest_async("t", EDGES[i:i + 10])
                       for i in range(0, 400, 10)]
            assignments = client.drain(pending)
            assert len(assignments) == len(EDGES[:400])
            stats = client.stats("t")
            assert stats["metrics"]["batches"] == 40
            assert stats["metrics"]["queue_high_water"] >= 1


class TestDurability:
    def test_shutdown_snapshot_restart_bit_identical(self, daemon):
        """Feed half a stream, shutdown (compacts the WAL to a snapshot),
        boot a new daemon over the same directory, feed the rest: the
        final result is bit-identical to an uninterrupted local batch
        run."""
        port, _, boot = daemon
        cut = 600
        with ServiceClient(port=port) as client:
            client.open("t", algorithm="adwise", partitions=8,
                        expected_edges=len(EDGES),
                        latency_preference_ms=50.0)
            for start in range(0, cut, 64):
                client.ingest("t", EDGES[start:min(start + 64, cut)])
            report = client.shutdown()
        assert report["snapshots"] == ["t"]

        port2 = boot()
        with ServiceClient(port=port2) as client:
            tenants = client.tenants()
            assert [t["tenant"] for t in tenants] == ["t"]
            assert tenants[0]["edges_ingested"] == cut
            for start in range(cut, len(EDGES), 64):
                client.ingest("t", EDGES[start:start + 64])
            final = client.finalize("t")
            client.shutdown()

        reference = _reference(AdwisePartitioner, 8, EDGES,
                               latency_preference_ms=50.0)
        assert final["assignments"] == _expected_triples(reference)
        assert final["latency_ms"] == reference.latency_ms
        assert final["extras"] == reference.extras

    def test_audit_numbering_continues_across_a_restart(self, daemon):
        """The audit reads the session's own decisions: after a graceful
        stop and a restart over the same directory, ``recorded``,
        ``retained`` and each decision's ``seq`` go on from 200."""
        port, _, boot = daemon
        with ServiceClient(port=port) as client:
            client.open("t", algorithm="hdrf", partitions=4)
            before = []
            for start in range(0, 200, 50):
                before += client.ingest("t", EDGES[start:start + 50])
            last = client.audit("t", limit=3)["decisions"]
            client.shutdown()

        port2 = boot()
        with ServiceClient(port=port2) as client:
            stats = client.stats("t")
            assert stats["session"]["assignments_emitted"] == 200
            assert stats["audit"] == {"recorded": 200, "retained": 200,
                                      "capacity": 4096, "dropped": 0}
            assert client.audit("t", limit=3)["decisions"] == last
            after = client.ingest("t", EDGES[200:210])
            audit = client.audit("t", limit=12)
            assert audit["decisions"] == [
                {"seq": seq, "u": u, "v": v, "partition": p}
                for seq, (u, v, p) in enumerate(
                    before[-2:] + after, start=198)]
            assert client.stats("t")["audit"]["recorded"] == 210
            client.shutdown()

    def test_snapshot_op_keeps_tenant_live(self, daemon):
        port, wal_dir, _ = daemon
        import os
        with ServiceClient(port=port) as client:
            client.open("t", algorithm="hdrf", partitions=4)
            client.ingest("t", EDGES[:100])
            response = client.snapshot("t")
            assert os.path.isfile(response["path"])
            assert os.path.dirname(response["path"]) == wal_dir
            client.ingest("t", EDGES[100:200])  # still live
            assert (client.stats("t")["session"]["edges_ingested"]
                    == 200)


class TestGarbageInput:
    """Every class of garbage must answer ``ok: false`` and leave the
    connection (and the daemon) fully serviceable."""

    @staticmethod
    def _exchange(port, raw_lines):
        """Send raw bytes, read one response per expected line."""
        import socket

        with socket.create_connection(("127.0.0.1", port),
                                      timeout=10) as sock:
            reader = sock.makefile("rb")
            sock.sendall(raw_lines)
            sock.sendall(b'{"op": "ping", "id": 99}\n')
            responses = []
            while True:
                import json
                response = json.loads(reader.readline())
                responses.append(response)
                if response.get("id") == 99:
                    return responses

    def test_invalid_json(self, daemon):
        port, _, _ = daemon
        responses = self._exchange(port, b"{nope nope\n")
        assert responses[0]["ok"] is False
        assert "bad request" in responses[0]["error"]
        assert responses[-1]["pong"] is True  # connection survived

    def test_binary_garbage(self, daemon):
        port, _, _ = daemon
        responses = self._exchange(port, b"\x00\xff\xfe\x9c\n")
        assert responses[0]["ok"] is False
        assert responses[-1]["pong"] is True

    def test_non_dict_payload(self, daemon):
        port, _, _ = daemon
        responses = self._exchange(port, b"[1, 2, 3]\n")
        assert responses[0]["ok"] is False
        assert "JSON object" in responses[0]["error"]
        assert responses[-1]["pong"] is True

    def test_unknown_op_keeps_connection(self, daemon):
        port, _, _ = daemon
        responses = self._exchange(port, b'{"op": "zap"}\n')
        assert responses[0]["ok"] is False
        assert "unknown op" in responses[0]["error"]
        assert responses[-1]["pong"] is True

    def test_oversized_line_discarded(self, daemon):
        """A line past max_line_bytes (default 1 MiB) is discarded with
        a diagnostic instead of buffered unboundedly."""
        port, _, _ = daemon
        huge = b'{"op": "ingest", "edges": [' + \
            b"[1,2]," * 300_000 + b"[1,2]]}\n"
        assert len(huge) > 1_048_576
        responses = self._exchange(port, huge)
        assert responses[0]["ok"] is False
        assert "exceeds" in responses[0]["error"]
        assert responses[-1]["pong"] is True

    @pytest.fixture
    def bounded(self):
        """A daemon serving lines of at most 1,024 bytes."""
        daemon = SupervisedDaemon(max_line_bytes=1024)
        yield daemon.start()
        daemon.shutdown()

    @staticmethod
    def _ping(length):
        """A ``ping`` line of ``length`` bytes, newline included."""
        head, tail = b'{"op": "ping", "pad": "', b'"}\n'
        return head + b"x" * (length - len(head) - len(tail)) + tail

    def test_line_past_the_bound_in_one_write(self, bounded):
        """The bound holds when the whole line, newline and all, arrives
        in the read that crosses it: a 1,500-byte line is refused, not
        served, and the next line is answered."""
        responses = self._exchange(bounded, self._ping(1500))
        assert responses[0] == {"ok": False, "error":
                                "bad request: line exceeds 1024 bytes"}
        assert responses[1]["pong"] is True and len(responses) == 2

    @pytest.mark.parametrize("length,served", [(1024, True), (1025, False)])
    def test_bound_counts_the_newline(self, bounded, length, served):
        line = self._ping(length)
        assert len(line) == length
        responses = self._exchange(bounded, line)
        assert responses[0].get("pong", False) is served
        assert ("exceeds" in responses[0].get("error", "")) is not served
        assert responses[-1]["pong"] is True and len(responses) == 2

    def test_malformed_edges_and_seq(self, daemon):
        port, _, _ = daemon
        with ServiceClient(port=port) as client:
            client.open("t", algorithm="hdrf", partitions=4)
            with pytest.raises(ServiceError):
                client.request({"op": "ingest", "tenant": "t",
                                "edges": [["x", "y"]]})
            with pytest.raises(ServiceError):
                client.request({"op": "ingest", "tenant": "t",
                                "edges": [[1, 2]], "seq": "later"})
            with pytest.raises(ServiceError):
                client.request({"op": "ingest", "tenant": "t",
                                "edges": [[1, 2]], "seq": 0})
            with pytest.raises(ServiceError):
                client.request({"op": "open", "tenant": "u",
                                "knobs": "not-a-dict"})
            assert client.ping()["pong"] is True


    @pytest.mark.parametrize("edges,culprit", [
        ([[1, 2], [1.9, 2]], "[1.9, 2]"), ([["3", 4]], "['3', 4]"),
        ([[1, 2], [True, 2]], "[True, 2]"), ([[3.0, 4.0]], "[3.0, 4.0]"),
        ([[1, 2, 3]], "[1, 2, 3]"), ([[1, 2], [3]], "[3]"),
        ([[1, 2], 3], "3"), ([[1, None]], "[1, None]"),
        ([[2**63, 1]], f"[{2**63}, 1]"), ("12", "'12'"), (7, "7")])
    def test_non_integer_endpoints_are_a_bad_request(self, daemon, edges,
                                                     culprit):
        """No ``int()`` at the socket: ``[1.9, 2]`` is not edge (1, 2)
        and ``["3", 4]`` is not edge (3, 4).  The offending pair is
        named, nothing of the batch is applied and the tenant's seq
        does not move."""
        port, _, _ = daemon
        with ServiceClient(port=port) as client:
            client.open("t", algorithm="hdrf", partitions=4)
            with pytest.raises(ServiceError) as refused:
                client.request({"op": "ingest", "tenant": "t", "seq": 1,
                                "edges": edges})
            assert str(refused.value) == (
                "bad request: an edge is a [u, v] pair of int64 integers, "
                f"got {culprit}")
            stats = client.stats("t")
            assert stats["accepted_seq"] == 0
            assert stats["session"]["edges_ingested"] == 0
            assert client.ingest("t", [(1, 2), (-2**63, 2**63 - 1)]) != []
            for bad in ([(1.9, 2)], [("3", 4)]):
                with pytest.raises(TypeError):  # nor does the client int()
                    client.ingest("t", bad)
            assert client.ingest("t", np.array([[5, 6]])) == [
                (5, 6, client.query_edge("t", 5, 6))]
            assert client.stats("t")["session"]["edges_ingested"] == 3


    @pytest.mark.parametrize("query,error", [
        ({"vertex": "2"}, "a vertex is an int64 integer, got '2'"),
        ({"vertex": True}, "a vertex is an int64 integer, got True"),
        ({"vertex": 2.7}, "a vertex is an int64 integer, got 2.7"),
        ({"vertex": 2**70}, f"a vertex is an int64 integer, got {2**70}"),
        ({"edge": [1.9, "2"]}, "an edge is a [u, v] pair of int64 "
                               "integers, got [1.9, '2']")])
    def test_query_ids_follow_the_ingest_rule(self, daemon, query, error):
        """``query`` refuses what ``ingest`` refuses: no ``"2"`` -> 2,
        ``true`` -> 1, ``2.7`` -> 2, and no ``ok`` for an id past int64;
        the connection keeps serving."""
        port, _, _ = daemon
        with ServiceClient(port=port) as client:
            client.open("t", algorithm="hdrf", partitions=4)
            client.ingest("t", [(1, 2), (2, 3)])
            with pytest.raises(ServiceError) as refused:
                client.request(dict(query, op="query", tenant="t"))
            assert str(refused.value) == f"bad request: {error}"
            assert client.query_edge("t", 1, 2) in range(4)
            assert client.query_vertex("t", 2) != []

    @pytest.mark.parametrize("request_,error", [
        ({"op": "ingest", "seq": True}, "seq is an int64 integer, got True"),
        ({"op": "ingest", "seq": 2.9}, "seq is an int64 integer, got 2.9"),
        ({"op": "ingest", "seq": "3"}, "seq is an int64 integer, got '3'"),
        ({"op": "open", "expected_edges": 7.9},
         "expected_edges is an int64 integer, got 7.9"),
        ({"op": "open", "expected_edges": True},
         "expected_edges is an int64 integer, got True"),
        ({"op": "open", "partitions": "4"},
         "partitions is an int64 integer, got '4'"),
        ({"op": "open", "partitions": True},
         "partitions is an int64 integer, got True"),
        ({"op": "open", "partitions": [True, 2]},
         "a partition id is an int64 integer, got True"),
        ({"op": "audit", "limit": True},
         "limit is an int64 integer, got True"),
        ({"op": "audit", "limit": "1"}, "limit is an int64 integer, got '1'"),
        ({"op": "ingest", "seq": 2**63},
         f"seq is an int64 integer, got {2**63}"),
        ({"op": "open", "expected_edges": 2**63},
         f"expected_edges is an int64 integer, got {2**63}"),
        ({"op": "open", "partitions": 2**63},
         f"partitions is an int64 integer, got {2**63}"),
        ({"op": "open", "partitions": [1, -2**63 - 1]},
         f"a partition id is an int64 integer, got {-2**63 - 1}"),
        ({"op": "audit", "limit": -2**63 - 1},
         f"limit is an int64 integer, got {-2**63 - 1}"),
    ], ids=["seq-true", "seq-float", "seq-str", "expected-float",
            "expected-true", "partitions-str", "partitions-true",
            "partition-id-true", "limit-true", "limit-str",
            "seq-over-int64", "expected-over-int64", "partitions-over-int64",
            "partition-id-under-int64", "limit-under-int64"])
    def test_integer_fields_follow_the_query_rule(self, daemon, request_,
                                                  error):
        """``seq``, ``expected_edges``, ``partitions`` and ``limit`` are
        JSON integers within int64, as ``query``'s ids are: ``true``,
        ``2.9`` and ``"3"`` are refused, not read as 1, 2 and 3.  Nothing
        is applied or opened and the connection keeps serving."""
        port, _, _ = daemon
        with ServiceClient(port=port) as client:
            client.open("t", algorithm="hdrf", partitions=4)
            client.ingest("t", [(1, 2)])
            tenant = "t" if request_["op"] != "open" else "u"
            with pytest.raises(ServiceError) as refused:
                client.request(dict(request_, tenant=tenant,
                                    algorithm="hdrf", edges=[[2, 3]]))
            assert str(refused.value) == f"bad request: {error}"
            assert [t["tenant"] for t in client.tenants()] == ["t"]
            stats = client.stats("t")
            assert stats["accepted_seq"] == 1
            assert stats["session"]["edges_ingested"] == 1
            assert len(client.audit("t", limit=5)["decisions"]) == 1
            assert client.ping()["pong"] is True

    @pytest.mark.parametrize("partitions,ids", [
        (3, [0, 1, 2]), (np.int64(2), [0, 1]), (range(1, 3), [1, 2]),
        (np.arange(2), [0, 1]), ([np.int64(4), 7], [4, 7])])
    def test_session_partitions_accept_integers(self, partitions, ids):
        from repro.api import open_session

        session = open_session(algorithm="hdrf", partitions=partitions)
        assert list(session.partitioner.state.partitions) == ids

    @pytest.mark.parametrize("partitions", ["4", True, [True, 2], [1.5]])
    def test_session_partitions_refuse_str_and_bool(self, partitions):
        """In process, as over the wire: ``"4"`` is not four partitions
        and ``True`` is not partition 1."""
        from repro.api import SessionError, open_session

        with pytest.raises(SessionError):
            open_session(algorithm="hdrf", partitions=partitions)


class TestCanonicalLines:
    """Every response line is byte for byte ``json.dumps`` of what it
    decodes to, keys in the order the daemon built them — the
    ``assignments`` the daemon formats straight from its columns
    included, and ``replayed`` / ``id`` added after them."""

    def test_daemon_lines_are_canonical(self, daemon):
        import json
        import socket

        port, _, _ = daemon
        ack = ["ok", "accepted", "seq", "assignments"]
        script = [
            ({"op": "open", "tenant": "t", "algorithm": "hdrf",
              "partitions": 4}, None),
            ({"op": "ingest", "tenant": "t", "seq": 1, "edges": []},
             ack + ["id"]),
            ({"op": "ingest", "tenant": "t", "seq": 2,
              "edges": EDGES[:3]}, ack + ["id"]),
            ({"op": "ingest", "tenant": "t", "seq": 3,
              "edges": EDGES[3:259]}, ack + ["id"]),
            ({"op": "ingest", "tenant": "t", "seq": 3,
              "edges": EDGES[3:259]}, ack + ["replayed", "id"]),
            ({"op": "query", "tenant": "t", "edge": list(EDGES[0])},
             ["ok", "edge", "partition", "id"]),
            ({"op": "query", "tenant": "t", "vertex": 2.5},
             ["ok", "error", "id"]),
            ({"op": "finalize", "tenant": "t"},
             ["ok", "tenant", "assignments", "replication_degree",
              "imbalance", "latency_ms", "extras", "id"]),
        ]
        answers = []
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=10) as sock:
            reader = sock.makefile("rb")
            for number, (request, keys) in enumerate(script):
                sock.sendall(json.dumps(dict(request, id=number)).encode()
                             + b"\n")
                line = reader.readline()
                response = json.loads(line)
                assert line == json.dumps(response).encode() + b"\n"
                assert response["id"] == number
                if keys is not None:
                    assert list(response) == keys
                answers.append(response)
        assert [len(answers[i]["assignments"]) for i in (1, 2, 3)] \
            == [0, 3, 256]
        assert answers[4] == dict(answers[3], replayed=True, id=4)
        final = answers[-1]["assignments"]
        assert final == sorted(final) and len(final) > 250

    def test_finalize_reply_bytes(self, daemon):
        """The finalize reply lists each distinct edge once, in ``(u, v)``
        order, with its last partition — pinned byte for byte on a
        stream that repeats edges in both orientations, with negative
        ids and ids past 2**32."""
        import json
        import socket

        port, _, _ = daemon
        big = 2**40
        edges = [(5, 3), (3, 5), (1, 9), (big, 4), (9, 1), (-3, 8),
                 (2, 7), (4, big), (5, 3), (8, -3), (7, 2), (-3, -9),
                 (big + 1, big), (1, 9), (-9, -3)]
        script = [{"op": "open", "tenant": "t", "algorithm": "hdrf",
                   "partitions": 3},
                  {"op": "ingest", "tenant": "t", "seq": 1,
                   "edges": edges},
                  {"op": "finalize", "tenant": "t"}]
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=10) as sock:
            reader = sock.makefile("rb")
            for request in script:
                sock.sendall(json.dumps(request).encode() + b"\n")
                line = reader.readline()
        start = line.index(b'"assignments": ')
        assert line[start:line.index(b', "replication_degree"')] == (
            PINNED_FINALIZE)

    def test_audit_reply_bytes(self, daemon):
        """The audit reply, formatted from the store's columns, pinned
        byte for byte: an empty tenant, tails inside the last batch and
        across both, negative ids and ids past 2**32."""
        import json
        import socket

        port, _, _ = daemon
        big = 2**40
        edges = [(5, 3), (3, 5), (1, 9), (big, 4), (9, 1), (-3, 8),
                 (2, 7), (4, big), (5, 3), (8, -3), (7, 2), (-3, -9),
                 (big + 1, big), (1, 9), (-9, -3)]
        script = [{"op": "open", "tenant": "t", "algorithm": "hdrf",
                   "partitions": 3},
                  {"op": "audit", "tenant": "t", "limit": 5},
                  {"op": "ingest", "tenant": "t", "seq": 1,
                   "edges": edges[:4]},
                  {"op": "ingest", "tenant": "t", "seq": 2,
                   "edges": edges[4:]}]
        script += [{"op": "audit", "tenant": "t", "limit": limit}
                   for limit in (0, 1, 4, 100)]
        audits = []
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=10) as sock:
            reader = sock.makefile("rb")
            for request in script:
                sock.sendall(json.dumps(request).encode() + b"\n")
                line = reader.readline()
                if request["op"] == "audit":
                    audits.append(line)
        assert audits == [PINNED_AUDIT[0]] + PINNED_AUDIT


class _ScriptedServer:
    """One-connection fake daemon replying with canned lines — for
    exercising the client's response bookkeeping."""

    def __init__(self, replies_per_line):
        import socket

        self._replies = list(replies_per_line)
        self._listener = socket.socket()
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(1)
        self.port = self._listener.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        conn, _ = self._listener.accept()
        reader = conn.makefile("rb")
        try:
            for reply in self._replies:
                if not reader.readline():
                    return
                conn.sendall(reply)
            reader.readline()  # linger until the client hangs up
        except OSError:
            pass
        finally:
            conn.close()

    def close(self):
        self._listener.close()


class TestClientBookkeeping:
    """The `_wait_for` satellite: un-id'd responses raise instead of
    wedging the loop; stale responses are dropped, not accumulated."""

    def test_unidentified_response_raises(self):
        server = _ScriptedServer([b'{"ok": true, "pong": true}\n'])
        try:
            with ServiceClient(port=server.port, max_retries=0) as client:
                with pytest.raises(ServiceError,
                                   match="un-correlated"):
                    client.ping()
        finally:
            server.close()

    def test_stale_responses_dropped(self):
        """A reply for an id that is no longer pending (e.g. abandoned
        after a timeout) must not accumulate in ``_responses``."""
        server = _ScriptedServer([
            b'{"ok": true, "id": 999}\n'
            b'{"ok": true, "id": 998}\n'
            b'{"ok": true, "pong": true, "id": 0}\n'])
        try:
            with ServiceClient(port=server.port, max_retries=0) as client:
                assert client.ping()["pong"] is True
                assert client._responses == {}
                assert client._pending == {}
        finally:
            server.close()
