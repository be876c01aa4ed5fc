"""Write-ahead-log tests: record format, torn tails, recovery edges,
exactly-once seq semantics.

The chaos suite (``test_service_chaos.py``) proves crash safety end to
end; this file pins down the WAL building blocks — framing, checksum
rejection of torn records, topology verification, compaction — and the
daemon's seq/replay protocol through a live (uncrashed) daemon.
"""

import asyncio
import json
import os
import struct
import zlib

import numpy as np
import pytest

from _service_utils import SupervisedDaemon
from repro.api import open_session
from repro.partitioning.hdrf import HDRFPartitioner
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import PartitionService
from repro.service.wal import (
    MAGIC,
    TenantWAL,
    WALError,
    read_wal,
    wal_path,
    wal_snapshot_path,
)
from test_service import EDGES, _expected_triples, _reference

HEADER = {"tenant": "t", "algorithm": "hdrf",
          "partitions": [0, 1, 2, 3], "format": 1}


def _write_wal(path, batches, fsync="off"):
    wal = TenantWAL(str(path), HEADER, fsync=fsync)
    for seq, batch in enumerate(batches, start=1):
        wal.append(seq, batch)
    wal.close()


class TestWALFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.wal"
        batches = [EDGES[:10], EDGES[10:25], EDGES[25:26]]
        _write_wal(path, batches)
        header, records, torn = read_wal(str(path))
        assert header == HEADER
        assert not torn
        assert [(seq, rows.tolist()) for seq, rows in records] == [
            (i, [list(edge) for edge in batch])
            for i, batch in enumerate(batches, start=1)]

    @pytest.mark.parametrize("batch", [
        [], [(7, 9)], [(i, 3 * i + 1) for i in range(256)],
        [(-2**63, 2**63 - 1), (2**63 - 1, -2**63), (0, -1)]],
        ids=["empty", "one", "256", "int64-limits"])
    def test_record_round_trip(self, tmp_path, batch):
        """A data record is ``<i64 seq><u32 n>`` and the batch's bytes:
        what comes back is the ``(n, 2)`` int64 array that went in,
        whether it went in as an array or as pairs."""
        path = tmp_path / "t.wal"
        array = np.array(batch, dtype=np.int64).reshape(-1, 2)
        wal = TenantWAL(str(path), HEADER, fsync="off")
        wal.append(2**40, array)
        wal.append(2**40 + 1, batch)
        wal.close()
        _, records, torn = read_wal(str(path))
        assert not torn and [seq for seq, _ in records] == [2**40, 2**40 + 1]
        for _, rows in records:
            assert rows.dtype == np.int64 and rows.shape == (len(batch), 2)
            assert np.array_equal(rows, array)
        header = json.dumps(HEADER, separators=(",", ":")).encode()
        assert os.path.getsize(path) == (
            len(MAGIC) + 8 + len(header) + 2 * (8 + 12 + 16 * len(batch)))

    def test_truncation_anywhere_in_the_last_record_reads_as_torn(
            self, tmp_path):
        path = tmp_path / "t.wal"
        _write_wal(path, [EDGES[:10], EDGES[10:13]])
        whole = path.read_bytes()
        last = 8 + 12 + 16 * 3  # frame + seq/count + rows
        for cut in range(1, last):
            path.write_bytes(whole[:-cut])
            _, records, torn = read_wal(str(path))
            assert torn, cut
            assert [seq for seq, _ in records] == [1], cut
        path.write_bytes(whole[:-last])
        _, records, torn = read_wal(str(path))
        assert not torn and [seq for seq, _ in records] == [1]

    def test_any_flipped_payload_byte_fails_the_checksum(self, tmp_path):
        path = tmp_path / "t.wal"
        _write_wal(path, [EDGES[:10], EDGES[10:13]])
        whole = path.read_bytes()
        for back in range(1, 12 + 16 * 3 + 1):  # every payload byte
            data = bytearray(whole)
            data[-back] ^= 0x01
            path.write_bytes(bytes(data))
            _, records, torn = read_wal(str(path))
            assert torn and [seq for seq, _ in records] == [1], back

    def test_a_format_1_log_is_refused_by_name(self, tmp_path):
        """The JSON-record format of earlier versions: same magic but
        for its last byte — never misread as binary records."""
        path = tmp_path / "old.wal"
        header = json.dumps(HEADER, separators=(",", ":")).encode()
        record = json.dumps([1, [[1, 2], [3, 4]]]).encode()
        path.write_bytes(b"ADWISEWAL\x01" + b"".join(
            struct.pack("<II", len(payload), zlib.crc32(payload)) + payload
            for payload in (header, record)))
        with pytest.raises(WALError, match="format-1 WAL"):
            read_wal(str(path))
        assert MAGIC == b"ADWISEWAL\x02"

    def test_torn_final_record_discarded(self, tmp_path):
        """A crash mid-write leaves a partial record: the checksum (or
        short frame) rejects it and everything before it survives."""
        path = tmp_path / "t.wal"
        _write_wal(path, [EDGES[:10], EDGES[10:20], EDGES[20:30]])
        intact = os.path.getsize(path)
        for cut in (1, 5, 11):  # inside frame header and payload
            with open(path, "r+b") as handle:
                handle.truncate(intact - cut)
            header, records, torn = read_wal(str(path))
            assert torn
            assert [seq for seq, _ in records] == [1, 2]
            with open(path, "r+b") as handle:  # restore for next cut
                handle.truncate(intact - cut)
            _write_wal(path, [EDGES[:10], EDGES[10:20], EDGES[20:30]])

    def test_corrupt_payload_rejected_by_checksum(self, tmp_path):
        path = tmp_path / "t.wal"
        _write_wal(path, [EDGES[:10], EDGES[10:20]])
        data = bytearray(open(path, "rb").read())
        data[-3] ^= 0xFF  # flip a byte inside the last payload
        open(path, "wb").write(bytes(data))
        _, records, torn = read_wal(str(path))
        assert torn
        assert [seq for seq, _ in records] == [1]

    def test_bad_magic_and_missing_header(self, tmp_path):
        path = tmp_path / "junk.wal"
        path.write_bytes(b"not a wal at all\n")
        with pytest.raises(WALError, match="bad magic"):
            read_wal(str(path))
        path.write_bytes(MAGIC)  # magic but no header record
        with pytest.raises(WALError, match="missing WAL header"):
            read_wal(str(path))

    def test_truncate_through_keeps_newer_records(self, tmp_path):
        path = tmp_path / "t.wal"
        wal = TenantWAL(str(path), HEADER, fsync="off")
        for seq in range(1, 7):
            wal.append(seq, EDGES[seq:seq + 3])
        wal.truncate_through(4)
        wal.append(7, EDGES[7:9])  # appends continue after compaction
        wal.close()
        header, records, torn = read_wal(str(path))
        assert header == HEADER
        assert not torn
        assert [seq for seq, _ in records] == [5, 6, 7]

    def test_fsync_mode_validated(self, tmp_path):
        with pytest.raises(WALError, match="unknown fsync mode"):
            TenantWAL(str(tmp_path / "t.wal"), HEADER, fsync="sometimes")


def _seed_tenant(wal_dir, batches):
    """Hand-build the on-disk state of a tenant: snapshot at seq 0 plus
    a WAL holding ``batches`` — what a daemon killed before its first
    compaction leaves behind."""
    os.makedirs(wal_dir, exist_ok=True)
    session = open_session(algorithm="hdrf", partitions=4)
    snapshot = session.snapshot()
    snapshot.seq = 0
    snapshot.save(wal_snapshot_path(str(wal_dir), "t"))
    _write_wal(wal_path(str(wal_dir), "t"), batches)


class TestRecoveryEdges:
    def test_torn_wal_tail_skipped_on_recovery(self, tmp_path):
        """Recovery over a torn WAL resumes from the intact prefix; the
        client re-ingests the torn batch and parity holds."""
        wal_dir = tmp_path / "wal"
        batches = [EDGES[i:i + 40] for i in range(0, 200, 40)]
        _seed_tenant(wal_dir, batches)
        log = wal_path(str(wal_dir), "t")
        with open(log, "r+b") as handle:  # tear the final record
            handle.truncate(os.path.getsize(log) - 9)

        daemon = SupervisedDaemon(wal_dir=str(wal_dir))
        port = daemon.start()
        try:
            with ServiceClient(port=port) as client:
                assert daemon.last_recovered() == {"t": 4}
                seq = client.resume_seq("t")
                assert seq == 4  # batch 5 was torn away
                client.ingest("t", batches[4])  # re-ingest it
                for start in range(200, len(EDGES), 40):
                    client.ingest("t", EDGES[start:start + 40])
                final = client.finalize("t")
        finally:
            daemon.shutdown()
        reference = _reference(HDRFPartitioner, 4, EDGES)
        assert final["assignments"] == _expected_triples(reference)

    def test_topology_mismatch_refused(self, tmp_path):
        wal_dir = tmp_path / "wal"
        _seed_tenant(wal_dir, [EDGES[:10]])
        session = open_session(algorithm="hdrf", partitions=8)
        snapshot = session.snapshot()  # claims 8 partitions, WAL says 4
        snapshot.seq = 0
        snapshot.save(wal_snapshot_path(str(wal_dir), "t"))

        async def boot():
            await PartitionService(wal_dir=str(wal_dir)).start()

        with pytest.raises(WALError, match="topology mismatch"):
            asyncio.run(boot())

    def test_wal_without_snapshot_refused(self, tmp_path):
        wal_dir = tmp_path / "wal"
        os.makedirs(wal_dir)
        _write_wal(wal_path(str(wal_dir), "ghost"), [EDGES[:10]])

        async def boot():
            await PartitionService(wal_dir=str(wal_dir)).start()

        with pytest.raises(WALError, match="without its snapshot"):
            asyncio.run(boot())

    def test_pre_seq_snapshot_still_loads(self, tmp_path):
        """A snapshot pickled before the ``seq`` field existed, alone in
        a ``--wal-dir`` (as an old graceful-shutdown snapshot directory
        passed as one), restores with a high-water mark of 0 and is
        durable from then on."""
        wal_dir = tmp_path / "wal"
        os.makedirs(wal_dir)
        session = open_session(algorithm="hdrf", partitions=4)
        session.ingest(EDGES[:50])
        snapshot = session.snapshot()
        delattr(snapshot, "seq")  # simulate an old pickle
        snapshot.save(str(wal_dir / "legacy.snapshot"))

        daemon = SupervisedDaemon(wal_dir=str(wal_dir))
        port = daemon.start()
        try:
            with ServiceClient(port=port) as client:
                tenants = client.tenants()
                assert [t["tenant"] for t in tenants] == ["legacy"]
                assert tenants[0]["edges_ingested"] == 50
                stats = client.stats("legacy")
                assert stats["accepted_seq"] == 0
                assert stats["applied_seq"] == 0
                assert stats["durability"]["wal"] is True
                assert stats["audit"]["recorded"] == 50
            assert daemon.last_recovered() == {"legacy": 0}
            assert os.path.exists(wal_path(str(wal_dir), "legacy"))
        finally:
            daemon.shutdown()

    def test_without_wal_dir_tenants_live_in_memory_only(self):
        """No ``--wal-dir``: ``snapshot`` is refused by name and a
        graceful stop reports every live tenant as dropped."""
        daemon = SupervisedDaemon()
        port = daemon.start()
        try:
            with ServiceClient(port=port) as client:
                client.open("t", algorithm="hdrf", partitions=4)
                client.ingest("t", EDGES[:20])
                assert client.tenants()[0]["durable"] is False
                with pytest.raises(ServiceError,
                                   match="started without --wal-dir"):
                    client.snapshot("t")
                report = client.shutdown()
            assert report["snapshots"] == []
            assert report["dropped"] == ["t"]
        finally:
            daemon.shutdown()


class TestExactlyOnce:
    """Seq/replay protocol through a live daemon (no crashes)."""

    @pytest.fixture
    def wal_daemon(self, tmp_path):
        daemon = SupervisedDaemon(wal_dir=str(tmp_path / "wal"),
                                  wal_compact_every=4, replay_depth=4)
        port = daemon.start()
        yield port, daemon
        daemon.shutdown()

    def test_duplicate_seq_replays_cached_response(self, wal_daemon):
        port, _ = wal_daemon
        with ServiceClient(port=port) as client:
            client.open("t", algorithm="hdrf", partitions=4)
            first = client.request({"op": "ingest", "tenant": "t",
                                    "edges": EDGES[:30], "seq": 1})
            again = client.request({"op": "ingest", "tenant": "t",
                                    "edges": EDGES[:30], "seq": 1})
            assert again["replayed"] is True
            assert again["assignments"] == first["assignments"]
            stats = client.stats("t")
            assert stats["session"]["edges_ingested"] == 30  # applied once
            assert stats["accepted_seq"] == stats["applied_seq"] == 1

    def test_seq_gap_refused(self, wal_daemon):
        port, _ = wal_daemon
        with ServiceClient(port=port) as client:
            client.open("t", algorithm="hdrf", partitions=4)
            client.ingest("t", EDGES[:10])  # seq 1 via the client counter
            with pytest.raises(ServiceError, match="seq gap"):
                client.request({"op": "ingest", "tenant": "t",
                                "edges": EDGES[:5], "seq": 7})

    def test_evicted_seq_reports_clear_error(self, wal_daemon):
        port, _ = wal_daemon  # replay_depth=4
        with ServiceClient(port=port) as client:
            client.open("t", algorithm="hdrf", partitions=4)
            for seq in range(1, 7):
                client.request({"op": "ingest", "tenant": "t",
                                "edges": EDGES[seq:seq + 5], "seq": seq})
            with pytest.raises(ServiceError, match="replay cache"):
                client.request({"op": "ingest", "tenant": "t",
                                "edges": EDGES[1:6], "seq": 1})

    def test_compaction_bounds_wal_and_preserves_parity(self, wal_daemon):
        """With wal_compact_every=4, the on-disk WAL stays short while
        the stream's full history survives via snapshots."""
        port, daemon = wal_daemon
        with ServiceClient(port=port) as client:
            client.open("t", algorithm="hdrf", partitions=4)
            for start in range(0, len(EDGES), 40):
                client.ingest("t", EDGES[start:start + 40])
            stats = client.stats("t")
            assert stats["durability"]["wal"] is True
            assert stats["durability"]["compacted_seq"] >= 4
            log = wal_path(daemon.kwargs["wal_dir"], "t")
            _, records, torn = read_wal(log)
            assert not torn
            assert len(records) < 8  # compaction kept the log short
            final = client.finalize("t")
            assert not os.path.exists(log)  # finalize retires the WAL
        reference = _reference(HDRFPartitioner, 4, EDGES)
        assert final["assignments"] == _expected_triples(reference)

    def test_graceful_stop_then_restart_resumes_from_wal_dir(
            self, tmp_path):
        """shutdown over a wal_dir compacts; a new daemon over the same
        directory resumes."""
        wal_dir = str(tmp_path / "wal")
        daemon = SupervisedDaemon(wal_dir=wal_dir)
        port = daemon.start()
        cut = 600
        with ServiceClient(port=port) as client:
            client.open("t", algorithm="hdrf", partitions=4)
            for start in range(0, cut, 60):
                client.ingest("t", EDGES[start:start + 60])
        daemon.shutdown()

        daemon2 = SupervisedDaemon(wal_dir=wal_dir)
        port2 = daemon2.start()
        try:
            with ServiceClient(port=port2) as client:
                assert client.resume_seq("t") == cut // 60
                for start in range(cut, len(EDGES), 60):
                    client.ingest("t", EDGES[start:start + 60])
                final = client.finalize("t")
        finally:
            daemon2.shutdown()
        reference = _reference(HDRFPartitioner, 4, EDGES)
        assert final["assignments"] == _expected_triples(reference)
