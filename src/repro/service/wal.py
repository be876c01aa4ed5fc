"""Per-tenant write-ahead log: crash durability for the service daemon.

The graceful-shutdown snapshots of PR 6 only protect a daemon that is
*asked* to stop; a SIGKILL (OOM kill, node loss, deploy gone wrong)
loses every tenant's state since start.  This module closes that gap
with the classic database recipe, applied per tenant:

* every ingest batch is appended to the tenant's WAL — **before** it is
  enqueued for partitioning — as a length-prefixed, CRC-checksummed
  record ``(tenant_seq, edges)``;
* periodically (``wal_compact_every`` applied batches) the daemon
  snapshots the live session, stamps it with the applied ``seq``
  high-water mark, and rewrites the WAL keeping only records newer than
  the snapshot, so recovery cost stays bounded;
* on start, the daemon restores the newest snapshot and replays WAL
  records with ``seq`` greater than the snapshot's high-water mark,
  skipping duplicates — partitioning is deterministic, so a SIGKILL'd
  daemon restarted over the same directory resumes every tenant
  **bit-identically** to an uninterrupted run.

File layout (one pair per tenant under ``wal_dir``)::

    <tenant>.snapshot     pickled SessionSnapshot, seq high-water mark
    <tenant>.wal          MAGIC + header record + data records

Record framing is ``<u32 length><u32 crc32(payload)><payload>``.  The
header payload is a JSON dict carrying the tenant's topology (name,
algorithm, partition ids) which recovery verifies against the snapshot;
a data payload is ``<i64 seq><u32 n>`` followed by the batch itself,
``n`` rows of ``<i64 u><i64 v>`` — the bytes of the ``(n, 2)`` array the
daemon ingests, so logging a batch builds no object per edge.  A torn
final record — the crash landed mid-``write`` — fails its length or
checksum test and is discarded: its batch was never enqueued, never
acked, and the client retries it.

Fsync policy (``fsync=``):

* ``always`` — fsync after every append: a record is durable before the
  batch is acknowledged, even against OS/power loss.
* ``batch``  — flush every append, fsync every ``fsync_every`` appends
  (and at every compaction): durable against process crashes
  immediately, against OS crashes within the batch window.  The
  default, and the mode ``bench_service.py --durability`` records the
  log's cost in.
* ``off``    — flush only; durability rides on the page cache.

Fault injection: the daemon threads a ``fault_hook(point, tenant, seq)``
callable through every WAL/snapshot/ack boundary (the
:data:`SERVICE_INJECTION_POINTS` catalog, the serving-path twin of
``cluster/faults.INJECTION_POINTS``).  A hook that raises
:class:`SimulatedCrash` makes the daemon abort exactly as a SIGKILL
would — no graceful snapshot, connections reset — which is how
``tests/test_service_chaos.py`` proves exactly-once delivery at every
boundary.  :class:`SimulatedCrash` derives from ``BaseException`` so no
``except Exception`` recovery path can accidentally swallow a scheduled
crash.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro import obs

#: File magic; bump the trailing byte when the record format changes
#: (1: JSON data records; 2: binary ones).
MAGIC = b"ADWISEWAL\x02"

#: ``<u32 payload length><u32 crc32(payload)>``.
_FRAME = struct.Struct("<II")

#: What a data payload starts with: ``<i64 seq><u32 edge count>``.
_RECORD = struct.Struct("<qI")

#: The batch behind it: little-endian int64 ``(u, v)`` rows.
_ROWS = np.dtype("<i8")

#: Accepted values for the daemon's ``fsync`` knob.
FSYNC_MODES = ("always", "batch", "off")

#: Crash boundaries of the serving path, in the order one ingest batch
#: crosses them.  The chaos harness kills the daemon at every one:
#:
#: * ``wal-pre-append``   — nothing written: the batch is simply lost
#:   and the client's retry re-submits it;
#: * ``wal-torn-append``  — the crash lands mid-``write``: the torn
#:   record must be detected by checksum and discarded on recovery;
#: * ``wal-post-append``  — the record is durable but the batch was
#:   never enqueued: recovery must replay it exactly once;
#: * ``pre-ack``          — the batch is applied and logged but the
#:   response never left: the retry must be answered from the replay
#:   cache, not re-partitioned;
#: * ``pre-compact``      — before the compaction snapshot is written;
#: * ``mid-compact``      — snapshot replaced, WAL not yet truncated:
#:   recovery must skip the now-duplicate WAL records;
#: * ``post-compact``     — compaction fully committed.
SERVICE_INJECTION_POINTS: Tuple[str, ...] = (
    "wal-pre-append", "wal-torn-append", "wal-post-append",
    "pre-ack", "pre-compact", "mid-compact", "post-compact")

#: Suffixes of the per-tenant files under ``wal_dir``.
WAL_SUFFIX = ".wal"
WAL_SNAPSHOT_SUFFIX = ".snapshot"

#: ``fault_hook`` signature: ``(point, tenant, seq)``.
FaultHook = Callable[[str, str, int], None]


class WALError(RuntimeError):
    """The write-ahead log is unusable (corrupt, mismatched, missing)."""


class SimulatedCrash(BaseException):
    """Raised by a fault hook to kill the daemon at an injection point.

    A ``BaseException`` on purpose: the worker/dispatch error handling
    catches ``Exception`` to keep the daemon alive, and a simulated
    crash must never be survivable the way a bad request is.
    """


def _frame(payload: bytes) -> bytes:
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def _header_record(header: dict) -> bytes:
    return MAGIC + _frame(json.dumps(header, separators=(",", ":")).encode())


def read_wal(path: str) -> Tuple[dict, List[Tuple[int, np.ndarray]], bool]:
    """Parse a WAL file into ``(header, records, torn)``.

    ``records`` is ``[(seq, (n, 2) int64 array), ...]`` in append order
    (the arrays are read-only views of the file's bytes).
    ``torn`` is True when the file ends in a partial or
    checksum-corrupt record — the crash-mid-write case — whose bytes
    are ignored; everything before the tear is returned.  A file whose
    *header* is unreadable, or whose records an earlier format wrote,
    is not a WAL this code can replay and raises :class:`WALError`.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    if data.startswith(MAGIC[:-1] + b"\x01"):
        raise WALError(f"{path} is a format-1 WAL (JSON records); this "
                       f"daemon reads format {MAGIC[-1]} — recover it "
                       f"with the version that wrote it")
    if not data.startswith(MAGIC):
        raise WALError(f"{path} is not a WAL file (bad magic)")
    offset = len(MAGIC)
    header: Optional[dict] = None
    records: List[Tuple[int, np.ndarray]] = []
    torn = False
    while offset < len(data):
        if offset + _FRAME.size > len(data):
            torn = True
            break
        length, crc = _FRAME.unpack_from(data, offset)
        start = offset + _FRAME.size
        if start + length > len(data):
            torn = True
            break
        payload = data[start:start + length]
        if zlib.crc32(payload) != crc:
            torn = True
            break
        try:
            if header is None:
                header = json.loads(payload)
                if not isinstance(header, dict):
                    raise WALError(f"{path}: first record is not a header")
            else:
                seq, count = _RECORD.unpack_from(payload)
                records.append((seq, np.frombuffer(
                    payload, _ROWS, offset=_RECORD.size).reshape(count, 2)))
        except (ValueError, struct.error):  # checksummed, yet no record
            torn = True
            break
        offset = start + length
    if header is None:
        raise WALError(f"{path}: missing WAL header")
    return header, records, torn


class TenantWAL:
    """Append-side handle on one tenant's write-ahead log.

    Keeps the un-compacted records' framed bytes in memory (bounded by
    ``wal_compact_every`` plus the queue depth) so compaction can
    rewrite the file with only the records newer than the snapshot —
    batches that were accepted into the WAL but not yet applied when
    the snapshot was cut must survive the truncation.
    """

    def __init__(self, path: str, header: dict, fsync: str = "batch",
                 fsync_every: int = 16,
                 fault_hook: Optional[FaultHook] = None) -> None:
        if fsync not in FSYNC_MODES:
            raise WALError(f"unknown fsync mode {fsync!r} "
                           f"(choose from {FSYNC_MODES})")
        if fsync_every < 1:
            raise WALError("fsync_every must be >= 1")
        self.path = path
        self.header = dict(header)
        self.fsync = fsync
        self.fsync_every = fsync_every
        self.fault_hook = fault_hook
        self._tail: List[Tuple[int, bytes]] = []
        self._unsynced = 0
        self._file = open(path, "wb")
        self._file.write(_header_record(self.header))
        self._flush(force=self.fsync != "off")

    @property
    def tenant(self) -> str:
        return str(self.header.get("tenant", "?"))

    def _hook(self, point: str, seq: int) -> None:
        if self.fault_hook is not None:
            self.fault_hook(point, self.tenant, seq)

    def _flush(self, force: bool = False) -> None:
        self._file.flush()
        if self.fsync == "always" or force or (
                self.fsync == "batch"
                and self._unsynced >= self.fsync_every):
            os.fsync(self._file.fileno())
            self._unsynced = 0
            obs.counter("repro_wal_fsyncs_total",
                        tenant=self.tenant).inc()

    # ------------------------------------------------------------------
    # Append
    # ------------------------------------------------------------------
    def append(self, seq: int, edges) -> None:
        """Durably log one accepted batch, ``(n, 2)`` integer ``edges``
        (called *before* enqueue)."""
        rows = np.asarray(edges, dtype=_ROWS).reshape(-1, 2)
        record = _frame(_RECORD.pack(seq, len(rows)) + rows.tobytes())
        self._hook("wal-pre-append", seq)
        try:
            self._hook("wal-torn-append", seq)
        except SimulatedCrash:
            # Simulate the crash landing mid-write: leave a partial
            # record on disk for recovery's checksum to reject.
            self._file.write(record[:max(1, len(record) // 2)])
            self._file.flush()
            raise
        self._file.write(record)
        self._unsynced += 1
        self._flush()
        self._tail.append((seq, record))
        obs.counter("repro_wal_appends_total", tenant=self.tenant).inc()
        obs.counter("repro_wal_bytes_total",
                    tenant=self.tenant).inc(len(record))
        self._hook("wal-post-append", seq)

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def truncate_through(self, seq: int) -> None:
        """Drop records with ``seq`` <= the snapshot high-water mark.

        Atomic (temp file + ``os.replace``): a crash mid-compaction
        leaves either the old WAL (whose stale records the replay skips
        as duplicates of the new snapshot) or the rewritten one.
        """
        self._tail = [(s, record) for s, record in self._tail if s > seq]
        tmp = f"{self.path}.tmp"
        with open(tmp, "wb") as handle:
            handle.write(_header_record(self.header))
            for _, record in self._tail:
                handle.write(record)
            handle.flush()
            if self.fsync != "off":
                os.fsync(handle.fileno())
        self._file.close()
        os.replace(tmp, self.path)
        self._file = open(self.path, "ab")
        self._unsynced = 0
        obs.counter("repro_wal_compactions_total",
                    tenant=self.tenant).inc()

    def close(self, remove: bool = False) -> None:
        """Flush and close; ``remove=True`` deletes the file (the tenant
        finalized — its log has nothing left to protect)."""
        if not self._file.closed:
            self._flush(force=self.fsync != "off")
            self._file.close()
        if remove and os.path.exists(self.path):
            os.remove(self.path)


def wal_path(directory: str, tenant: str) -> str:
    return os.path.join(directory, tenant + WAL_SUFFIX)


def wal_snapshot_path(directory: str, tenant: str) -> str:
    return os.path.join(directory, tenant + WAL_SNAPSHOT_SUFFIX)


def write_snapshot_atomic(path: str, snapshot, fsync: bool = True) -> None:
    """Persist a ``SessionSnapshot`` via temp file + ``os.replace`` so a
    crash mid-write can never clobber the last restorable snapshot."""
    import pickle

    tmp = f"{path}.tmp"
    with open(tmp, "wb") as handle:
        pickle.dump(snapshot, handle, protocol=pickle.HIGHEST_PROTOCOL)
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())
    os.replace(tmp, path)


__all__ = [
    "FSYNC_MODES",
    "MAGIC",
    "SERVICE_INJECTION_POINTS",
    "SimulatedCrash",
    "TenantWAL",
    "WALError",
    "WAL_SNAPSHOT_SUFFIX",
    "WAL_SUFFIX",
    "read_wal",
    "wal_path",
    "wal_snapshot_path",
    "write_snapshot_atomic",
]
