"""The multi-tenant partitioning daemon.

One :class:`PartitionService` process serves many *tenants*.  Each
tenant is a named, long-lived :class:`~repro.api.PartitionSession` —
its own algorithm, partition count and knobs — fed incrementally over
TCP.  The wire protocol is line-delimited JSON: one request object per
line, one response object per line, with an optional ``id`` echoed back
so clients may pipeline requests.

Concurrency model
-----------------
The server is a single asyncio event loop.  Every tenant owns a bounded
``asyncio.Queue`` and one worker task; connection handlers *enqueue*
ingest batches and move on to the next request, while the worker drains
the queue in FIFO order and writes each response when its batch has
been partitioned.  The bounded queue is the backpressure mechanism:
when a tenant's queue is full, ``await queue.put(...)`` suspends the
connection that is feeding it — TCP's flow control then pushes back on
the client — without stalling other tenants.  Because a single worker
serializes each tenant's batches, results are bit-identical to feeding
the same stream through a local session (``tests/test_service.py``
proves parity against :meth:`partition_stream`).

Durability
----------
One path, ``wal_dir`` (see :mod:`repro.service.wal` for the crash-safety
design): every accepted ingest batch is appended to a per-tenant
write-ahead log *before* it is enqueued, compacted into a snapshot
every ``wal_compact_every`` batches and at a graceful ``shutdown``; a
SIGKILL'd daemon restarted over the same directory replays the log and
resumes every tenant bit-identically (``tests/test_service_chaos.py``).
Without ``wal_dir`` tenants live in memory only.  A directory of bare
``<tenant>.snapshot`` files, with no log beside them, restores as
tenants that have applied nothing since.

Exactly-once ingest
-------------------
Every ingest batch carries a per-tenant ``seq`` (clients that omit it
get server-assigned seqs and no idempotency).  A batch is *accepted*
when its WAL record is durable and it is enqueued, *applied* when the
partitioner has consumed it.  A duplicate seq — a client retry after a
dropped connection or a daemon crash — is answered from a bounded
replay cache (applied batches) or by waiting on the in-flight batch
(accepted ones), never re-partitioned; a seq gap is refused loudly.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from collections import OrderedDict
from itertools import chain
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro import obs
from repro.api import (
    PartitionSession,
    SessionError,
    SessionSnapshot,
    open_session,
    restore_session,
)
from repro.core import _kernels
from repro.graph.io import format_int_rows
from repro.graph.shard import mapping_columns, ranked_edges
from repro.partitioning.base import AssignmentStore
from repro.service.metrics import TenantMetrics
from repro.service.wal import (
    FSYNC_MODES,
    MAGIC,
    FaultHook,
    SimulatedCrash,
    TenantWAL,
    WALError,
    WAL_SNAPSHOT_SUFFIX,
    WAL_SUFFIX,
    read_wal,
    wal_path,
    wal_snapshot_path,
    write_snapshot_atomic,
)

#: Most decisions an ``audit`` reply carries: the tenant's newest.
AUDIT_WINDOW = 4096


class _JSON(bytes):
    """A response value already encoded as JSON (see :func:`_encode`)."""


def _json_rows(rows: np.ndarray, open: bytes = b"[",
               sep: "bytes | Sequence[bytes]" = b", ",
               close: bytes = b"]") -> _JSON:
    """An ``(n, ncols)`` integer array (``[u, v, part]`` rows here) as
    ``json.dumps`` writes the list of its rows, byte for byte, without
    building that list; ``open``, ``sep`` and ``close`` frame one row
    (see :func:`~repro.graph.io.format_int_rows`)."""
    text = format_int_rows(rows, open, sep, close + b", ")
    return _JSON(b"[" + text[:-2] + b"]")


def _encode(payload: dict) -> bytes:
    """One response line: ``json.dumps(payload).encode() + b"\\n"``, byte
    for byte, with each :class:`_JSON` value spliced in as it is."""
    if _JSON not in map(type, payload.values()):
        return json.dumps(payload).encode() + b"\n"
    return b"{" + b", ".join(
        json.dumps(key).encode() + b": "
        + (value if type(value) is _JSON else json.dumps(value).encode())
        for key, value in payload.items()) + b"}\n"


def _decode_request(line: bytes) -> dict:
    """One request line as ``json.loads`` reads it, except that its
    ``edges`` may already be the array :func:`_edge_array` makes of
    them.  ``kern_scan_edges`` writes a top-level ``edges`` value that
    is plainly ``[[int, int], ...]`` straight into ``(u, v)`` rows, and
    ``json.loads`` reads the rest of the line with that value cut out
    (``[]`` in its place).  A line the scanner declines, a rest that
    does not parse, and every line without the kernels is
    ``json.loads(line)`` whole: the definition, its errors and their
    offsets included.  Traced as ``service.decode`` (``op``, ``bytes``,
    and ``native``: whether the scanner took the line)."""
    with obs.span("service.decode", op=None, bytes=len(line),
                  native=False) as span:
        request = None
        kernels = _kernels.load()
        if kernels is not None:
            ffi, lib = kernels
            rows = np.empty((len(line) // 5 + 1, 2), dtype=np.int64)
            bounds = ffi.new("int64_t[2]")
            n = lib.kern_scan_edges(
                ffi.from_buffer("uint8_t[]", line), len(line),
                ffi.from_buffer("int64_t[]", rows), len(rows), bounds)
            if n >= 0:
                try:
                    request = json.loads(
                        line[:bounds[0]] + b"[]" + line[bounds[1]:])
                except ValueError:
                    pass  # re-read whole: the error names its offsets
                else:
                    request["edges"] = rows[:n].copy()
                    span.set_attr("native", True)
        if request is None:
            request = json.loads(line)
        if not isinstance(request, dict):
            raise ValueError("request must be a JSON object")
        span.set_attr("op", str(request.get("op")))
    return request


def _edge_array(pairs) -> np.ndarray:
    """An ingest request's ``edges`` as the ``(n, 2)`` int64 array the
    WAL logs and the session ingests (an array is what
    :func:`_decode_request` already made of them: no JSON value decodes
    to one).  Anything but a list of ``[u, v]`` pairs of JSON integers
    that fit int64 is a bad request (no ``int()``: ``1.9``, ``"3"`` and
    ``true`` are not vertex ids)."""
    if type(pairs) is np.ndarray:
        return pairs
    try:
        if (set(map(type, chain.from_iterable(pairs))) - {int}
                or set(map(len, pairs)) - {2}):
            raise TypeError("not all [int, int]")
        return np.fromiter(chain.from_iterable(pairs), np.int64,
                           2 * len(pairs)).reshape(-1, 2)
    except (TypeError, ValueError, OverflowError):
        def bad(pair):
            return not (isinstance(pair, list) and len(pair) == 2
                        and all(type(end) is int and -2**63 <= end < 2**63
                                for end in pair))
        culprit = (next(filter(bad, pairs), pairs)
                   if isinstance(pairs, list) else pairs)
        raise ValueError(f"bad request: an edge is a [u, v] pair of int64 "
                         f"integers, got {culprit!r}") from None


def _int64(value, what: str) -> int:
    """``value`` if it is a JSON integer within int64, else a bad request
    naming ``what`` (no ``int()``: ``2.9``, ``"3"`` and ``true`` are
    refused, not read as 2, 3 and 1)."""
    if type(value) is not int or not -2**63 <= value < 2**63:
        raise ValueError(f"bad request: {what} is an int64 integer, "
                         f"got {value!r}")
    return value


class Tenant:
    """Daemon-side state for one tenant: session + queue + worker."""

    def __init__(self, name: str, session: PartitionSession,
                 queue_depth: int, replay_depth: int = 256) -> None:
        self.name = name
        self.session = session
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=queue_depth)
        self.metrics = TenantMetrics()
        self.worker: Optional[asyncio.Task] = None
        self.closed = False
        #: Write-ahead log handle; ``None`` without ``wal_dir``.
        self.wal: Optional[TenantWAL] = None
        #: Highest seq durably logged + enqueued.
        self.accepted_seq = 0
        #: Highest seq the partitioner has consumed.
        self.applied_seq = 0
        #: Applied seq at the last WAL compaction.
        self.compacted_seq = 0
        #: Bounded ``seq -> response`` cache answering retried batches.
        self.replay: "OrderedDict[int, dict]" = OrderedDict()
        self.replay_depth = replay_depth
        #: Futures of duplicate requests waiting on an in-flight seq.
        self.waiters: Dict[int, List[asyncio.Future]] = {}
        self.last_compact_error: Optional[str] = None

    @property
    def decisions(self) -> AssignmentStore:
        """Every decision the session has made, in order: what ``audit``
        reads (a restored session's store holds its past ones too)."""
        return self.session.partitioner._assignments

    def audit_counts(self) -> dict:
        """``stats``' ``audit`` block: decisions made, how many of the
        newest an ``audit`` reply can carry, and how many it cannot."""
        recorded = self.decisions.rows
        retained = min(recorded, AUDIT_WINDOW)
        return {"recorded": recorded, "retained": retained,
                "capacity": AUDIT_WINDOW, "dropped": recorded - retained}


class _LineReader:
    """Bounded ndjson line reader over a raw ``StreamReader``.

    ``asyncio``'s own ``readline`` raises (and wedges the buffer) past
    its limit; this reader instead *discards* an oversized line and
    reports it, so the connection can answer a diagnostic and keep
    serving — garbage input must never kill a connection's task.
    """

    def __init__(self, reader: asyncio.StreamReader,
                 max_line_bytes: int) -> None:
        self._reader = reader
        self._max = max_line_bytes
        self._buffer = bytearray()

    async def readline(self) -> Tuple[Optional[bytes], bool]:
        """Next line as ``(line, overflowed)``; ``(None, False)`` on EOF."""
        while True:
            newline = self._buffer.find(b"\n")
            if newline >= self._max:  # the bound counts the newline
                del self._buffer[:newline + 1]
                return None, True
            if newline >= 0:
                line = bytes(self._buffer[:newline + 1])
                del self._buffer[:newline + 1]
                return line, False
            if len(self._buffer) > self._max:
                return None, await self._discard_line()
            chunk = await self._reader.read(65536)
            if not chunk:
                if self._buffer:  # final line without a newline
                    line = bytes(self._buffer)
                    self._buffer.clear()
                    return line, False
                return None, False
            self._buffer.extend(chunk)

    async def _discard_line(self) -> bool:
        """Drop buffered bytes up to and including the next newline."""
        while True:
            newline = self._buffer.find(b"\n")
            if newline >= 0:
                del self._buffer[:newline + 1]
                return True
            self._buffer.clear()
            chunk = await self._reader.read(65536)
            if not chunk:
                return True
            self._buffer.extend(chunk)


class PartitionService:
    """Asyncio TCP daemon multiplexing partitioning sessions.

    Parameters
    ----------
    host / port:
        Bind address; ``port=0`` picks a free port (read it back from
        :attr:`port` after :meth:`start`).
    max_tenants:
        Upper bound on concurrently open sessions; ``open`` beyond it
        is refused.
    queue_depth:
        Per-tenant ingest queue bound — the backpressure knob.
    wal_dir:
        Directory for per-tenant write-ahead logs + compaction
        snapshots — crash-safe durability (see module docstring).
        ``None`` keeps tenants in memory only.
    wal_compact_every:
        Applied batches between WAL compactions (snapshot + truncate).
    fsync:
        WAL fsync policy: ``always`` / ``batch`` / ``off``.
    max_line_bytes:
        Request-line bound, newline included; longer lines are
        discarded and answered with a diagnostic instead of buffered
        unboundedly or served.
    replay_depth:
        Per-tenant bound on cached ingest responses for duplicate
        (retried) seqs.
    fault_hook:
        Test-only crash injection: called at every WAL/snapshot/ack
        boundary (see ``wal.SERVICE_INJECTION_POINTS``); raising
        :class:`~repro.service.wal.SimulatedCrash` aborts the daemon
        as a SIGKILL would.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 max_tenants: int = 64, queue_depth: int = 16,
                 wal_dir: Optional[str] = None,
                 wal_compact_every: int = 64,
                 fsync: str = "batch",
                 max_line_bytes: int = 1_048_576,
                 replay_depth: int = 256,
                 fault_hook: Optional[FaultHook] = None) -> None:
        if max_tenants < 1:
            raise ValueError("max_tenants must be >= 1")
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if wal_compact_every < 1:
            raise ValueError("wal_compact_every must be >= 1")
        if fsync not in FSYNC_MODES:
            raise ValueError(f"fsync must be one of {FSYNC_MODES}")
        if max_line_bytes < 1024:
            raise ValueError("max_line_bytes must be >= 1024")
        if replay_depth < 1:
            raise ValueError("replay_depth must be >= 1")
        self.host = host
        self.port = port
        self.max_tenants = max_tenants
        self.queue_depth = queue_depth
        self.wal_dir = wal_dir
        self.wal_compact_every = wal_compact_every
        self.fsync = fsync
        self.max_line_bytes = max_line_bytes
        self.replay_depth = replay_depth
        self.fault_hook = fault_hook
        self.tenants: Dict[str, Tenant] = {}
        self.started_at = 0.0
        self.crashed = False
        #: Tenants recovered from the WAL on the last :meth:`start`,
        #: with the number of replayed batches (observability + tests).
        self.recovered: Dict[str, int] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopping = asyncio.Event()
        self._connections: Set[asyncio.StreamWriter] = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind, recover the WAL's tenants, begin accepting clients."""
        restored = self._restore_wal_tenants()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self.started_at = time.monotonic()
        for tenant in restored:
            self._start_worker(tenant)

    async def serve_forever(self) -> None:
        """Run until :meth:`stop` (or a ``shutdown`` request) fires."""
        if self._server is None:
            await self.start()
        await self._stopping.wait()

    async def stop(self) -> dict:
        """Graceful shutdown: quiesce workers, compact live tenants'
        WALs (a tenant without one is reported ``dropped``)."""
        report = {"snapshots": [], "dropped": []}
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for tenant in list(self.tenants.values()):
            await self._quiesce(tenant)
            if tenant.session.closed:
                continue
            if tenant.wal is None:
                report["dropped"].append(tenant.name)
                continue
            # Final compaction: the WAL directory alone resumes the
            # tenant on the next start.
            try:
                self._compact(tenant)
                tenant.wal.close()
                report["snapshots"].append(tenant.name)
            except SessionError:
                # Wall-clock session: not resumable, nothing to persist.
                report["dropped"].append(tenant.name)
        self._stopping.set()
        return report

    async def _abort(self) -> None:
        """Simulated hard crash (a :class:`SimulatedCrash` fired).

        Mirrors a SIGKILL as closely as an in-process stop can: no
        graceful snapshots, workers cancelled mid-batch, connections
        reset.  Durability must come from the WAL alone.
        """
        if self.crashed:
            return
        self.crashed = True
        if self._server is not None:
            self._server.close()
            self._server = None
        current = asyncio.current_task()
        for tenant in self.tenants.values():
            if tenant.worker is not None and tenant.worker is not current:
                tenant.worker.cancel()
            for futures in tenant.waiters.values():
                for future in futures:
                    if not future.done():
                        future.cancel()
            tenant.waiters.clear()
        for writer in list(self._connections):
            transport = writer.transport
            if transport is not None:
                transport.abort()
        self._connections.clear()
        self._stopping.set()

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _restore_wal_tenants(self) -> list:
        """Crash recovery: snapshot + WAL replay per tenant (tentpole)."""
        self.recovered = {}
        restored = []
        if self.wal_dir is None:
            return restored
        os.makedirs(self.wal_dir, exist_ok=True)
        names = sorted(
            filename[:-len(WAL_SNAPSHOT_SUFFIX)]
            for filename in os.listdir(self.wal_dir)
            if filename.endswith(WAL_SNAPSHOT_SUFFIX)
            and not filename.startswith("."))
        for name in names:
            restored.append(self._recover_tenant(name))
        for filename in sorted(os.listdir(self.wal_dir)):
            if filename.endswith(WAL_SUFFIX):
                name = filename[:-len(WAL_SUFFIX)]
                if name not in self.tenants:
                    raise WALError(
                        f"{os.path.join(self.wal_dir, filename)}: WAL "
                        f"present without its snapshot — refusing to "
                        f"silently drop tenant {name!r}")
        return restored

    def _recover_tenant(self, name: str) -> Tenant:
        snap_path = wal_snapshot_path(self.wal_dir, name)
        snapshot = SessionSnapshot.load(snap_path)
        applied = int(getattr(snapshot, "seq", 0))
        session = restore_session(snapshot)
        tenant = Tenant(name, session, self.queue_depth, self.replay_depth)
        log_path = wal_path(self.wal_dir, name)
        replayed = 0
        if os.path.exists(log_path):
            header, records, _torn = read_wal(log_path)
            self._verify_topology(name, header, snapshot, log_path)
            for seq, edges in records:
                if seq <= applied:
                    continue  # duplicate of the snapshot (mid-compact)
                if seq != applied + 1:
                    raise WALError(
                        f"{log_path}: WAL gap — record seq {seq} "
                        f"follows applied seq {applied}")
                self._apply_batch(tenant, seq, edges)
                applied = seq
                replayed += 1
        else:
            header = self._wal_header(name, session)
        tenant.accepted_seq = tenant.applied_seq = applied
        # Bound the *next* recovery: snapshot the recovered state, then
        # start a clean log.  Snapshot-before-truncate: a crash between
        # the two leaves duplicates the replay above skips.
        compaction = session.snapshot()
        compaction.seq = applied
        write_snapshot_atomic(snap_path, compaction,
                              fsync=self.fsync != "off")
        tenant.wal = TenantWAL(log_path, header, fsync=self.fsync,
                               fault_hook=self.fault_hook)
        tenant.compacted_seq = applied
        self.tenants[name] = tenant
        self.recovered[name] = replayed
        return tenant

    @staticmethod
    def _verify_topology(name: str, header: dict,
                         snapshot: SessionSnapshot, path: str) -> None:
        expected = {"tenant": name, "algorithm": snapshot.algorithm,
                    "partitions": [int(p) for p in snapshot.partitions]}
        actual = {key: header.get(key) for key in expected}
        if actual != expected:
            raise WALError(
                f"{path}: WAL/snapshot topology mismatch — WAL header "
                f"{actual} vs snapshot {expected}")

    @staticmethod
    def _wal_header(name: str, session: PartitionSession) -> dict:
        return {"tenant": name, "algorithm": session.algorithm,
                "partitions": [int(p) for p in
                               session.partitioner.state.partitions],
                "format": MAGIC[-1]}

    # ------------------------------------------------------------------
    # Tenant workers
    # ------------------------------------------------------------------
    def _start_worker(self, tenant: Tenant) -> None:
        tenant.worker = asyncio.get_running_loop().create_task(
            self._ingest_worker(tenant))

    def _hook(self, point: str, tenant: str, seq: int) -> None:
        if self.fault_hook is not None:
            self.fault_hook(point, tenant, seq)

    def _apply_batch(self, tenant: Tenant, seq: int, edges) -> dict:
        """Partition one batch and cache its response (worker + replay)."""
        try:
            emitted = tenant.session.ingest(edges)
            response = {
                "ok": True,
                "accepted": len(edges),
                "seq": seq,
                "assignments": _json_rows(np.stack(
                    (emitted.u, emitted.v, emitted.part), axis=1)),
            }
        except Exception as exc:  # surface, don't kill the worker
            response = {"ok": False, "error": str(exc), "seq": seq}
        tenant.applied_seq = seq
        tenant.replay[seq] = response
        while len(tenant.replay) > tenant.replay_depth:
            tenant.replay.popitem(last=False)
        return response

    @staticmethod
    def _fire_waiters(tenant: Tenant, seq: int, response: dict) -> None:
        for future in tenant.waiters.pop(seq, []):
            if not future.done():
                future.set_result(response)

    async def _ingest_worker(self, tenant: Tenant) -> None:
        """Drain one tenant's queue; one batch at a time, FIFO."""
        while True:
            item = await tenant.queue.get()
            if item is None:
                tenant.queue.task_done()
                return
            seq, edges, enqueued_at, reply, trace_ctx = item
            try:
                # Adopt the client's trace context (sent over ndjson) so
                # this span joins the caller's partition->service trace.
                with obs.use_context(trace_ctx), \
                        obs.span("service.apply_batch", tenant=tenant.name,
                                 seq=seq, edges=len(edges)):
                    response = self._apply_batch(tenant, seq, edges)
                tenant.metrics.observe_batch(
                    len(edges), time.monotonic() - enqueued_at)
                self._fire_waiters(tenant, seq, response)
                self._hook("pre-ack", tenant.name, seq)
                try:
                    # The ack's service.reply span joins the client's trace.
                    with obs.use_context(trace_ctx):
                        await reply(response)
                except (ConnectionError, OSError):
                    # The requesting connection is gone; the response
                    # stays in the replay cache for the client's retry.
                    pass
                if (tenant.wal is not None
                        and tenant.applied_seq - tenant.compacted_seq
                        >= self.wal_compact_every):
                    try:
                        self._compact(tenant)
                    except SimulatedCrash:
                        raise
                    except Exception as exc:
                        tenant.last_compact_error = str(exc)
            except SimulatedCrash:
                tenant.queue.task_done()
                asyncio.get_running_loop().create_task(self._abort())
                return
            tenant.queue.task_done()

    def _compact(self, tenant: Tenant) -> None:
        """Snapshot + truncate: bound WAL replay cost (tentpole)."""
        seq = tenant.applied_seq
        self._hook("pre-compact", tenant.name, seq)
        snapshot = tenant.session.snapshot()
        snapshot.seq = seq
        write_snapshot_atomic(wal_snapshot_path(self.wal_dir, tenant.name),
                              snapshot, fsync=self.fsync != "off")
        self._hook("mid-compact", tenant.name, seq)
        tenant.wal.truncate_through(seq)
        tenant.compacted_seq = seq
        tenant.last_compact_error = None
        self._hook("post-compact", tenant.name, seq)

    async def _quiesce(self, tenant: Tenant) -> None:
        """Stop a tenant's worker after the queued batches drain."""
        if tenant.worker is None:
            return
        await tenant.queue.put(None)
        await tenant.worker
        tenant.worker = None

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        write_lock = asyncio.Lock()
        self._connections.add(writer)

        async def send(payload: dict) -> int:
            line = _encode(payload)
            async with write_lock:
                writer.write(line)
                await writer.drain()
            return len(line)

        lines = _LineReader(reader, self.max_line_bytes)
        try:
            while True:
                line, overflowed = await lines.readline()
                if overflowed:
                    await send({"ok": False, "error":
                                f"bad request: line exceeds "
                                f"{self.max_line_bytes} bytes"})
                    continue
                if line is None:
                    break
                if not line.strip():
                    continue
                try:
                    request = _decode_request(line)
                except ValueError as exc:
                    await send({"ok": False, "error": f"bad request: {exc}"})
                    continue
                stop_after = await self._dispatch(request, send)
                if stop_after:
                    break
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            raise
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch(self, request: dict, send) -> bool:
        """Route one request; returns True when the connection (and the
        daemon, for ``shutdown``) should wind down afterwards."""
        op = request.get("op")
        request_id = request.get("id")
        obs.counter("repro_service_requests_total", op=str(op)).inc()

        async def reply(payload: dict) -> None:
            """Send one response (tenant workers send acks through it),
            its encode and write traced as ``service.reply``."""
            if request_id is not None:
                payload = dict(payload, id=request_id)
            with obs.span("service.reply", op=str(op),
                          tenant=request.get("tenant")) as span:
                span.set_attr("bytes", await send(payload))

        try:
            if op == "ping":
                await reply({"ok": True, "pong": True,
                             "tenants": len(self.tenants)})
            elif op == "open":
                await reply(self._op_open(request))
            elif op == "ingest":
                await self._op_ingest(request, reply)
            elif op == "query":
                await reply(self._op_query(request))
            elif op == "stats":
                await reply(self._op_stats(request))
            elif op == "audit":
                await reply(self._op_audit(request))
            elif op == "finalize":
                await reply(await self._op_finalize(request))
            elif op == "snapshot":
                await reply(await self._op_snapshot(request))
            elif op == "close":
                await reply(await self._op_close(request))
            elif op == "tenants":
                await reply(self._op_tenants())
            elif op == "metrics_text":
                await reply(self._op_metrics_text())
            elif op == "shutdown":
                report = await self.stop()
                await reply(dict(report, ok=True))
                return True
            else:
                await reply({"ok": False, "error": f"unknown op {op!r}"})
        except SimulatedCrash:
            await self._abort()
            return True
        except (SessionError, WALError, KeyError, TypeError,
                ValueError) as exc:
            await reply({"ok": False, "error": str(exc)})
        return False

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def _tenant_of(self, request: dict) -> Tenant:
        name = request.get("tenant")
        if not isinstance(name, str) or name not in self.tenants:
            raise SessionError(f"unknown tenant {name!r}")
        tenant = self.tenants[name]
        if tenant.closed:
            raise SessionError(f"tenant {name!r} is closed")
        return tenant

    def _op_open(self, request: dict) -> dict:
        name = request.get("tenant")
        if not name or not isinstance(name, str):
            raise SessionError("open requires a tenant name")
        if any(c in name for c in "/\\\0") or name.startswith("."):
            raise SessionError(f"invalid tenant name {name!r}")
        if name in self.tenants:
            raise SessionError(f"tenant {name!r} already exists")
        if len(self.tenants) >= self.max_tenants:
            raise SessionError(
                f"tenant limit reached ({self.max_tenants})")
        knobs = request.get("knobs") or {}
        if not isinstance(knobs, dict):
            raise SessionError("knobs must be an object")
        partitions = request.get("partitions", 32)  # a count or the ids
        partitions = ([_int64(p, "a partition id") for p in partitions]
                      if isinstance(partitions, list)
                      else _int64(partitions, "partitions"))
        session = open_session(
            algorithm=request.get("algorithm", "adwise"),
            partitions=partitions,
            expected_edges=_int64(request.get("expected_edges", 0),
                                  "expected_edges"),
            **knobs)
        tenant = Tenant(name, session, self.queue_depth, self.replay_depth)
        if self.wal_dir is not None:
            # Snapshot first so a crash between the two writes leaves a
            # resumable tenant (a WAL alone is unrecoverable state).
            os.makedirs(self.wal_dir, exist_ok=True)
            snapshot = session.snapshot()
            snapshot.seq = 0
            write_snapshot_atomic(wal_snapshot_path(self.wal_dir, name),
                                  snapshot, fsync=self.fsync != "off")
            tenant.wal = TenantWAL(wal_path(self.wal_dir, name),
                                   self._wal_header(name, session),
                                   fsync=self.fsync,
                                   fault_hook=self.fault_hook)
        self.tenants[name] = tenant
        self._start_worker(tenant)
        return {"ok": True, "tenant": name,
                "algorithm": session.algorithm,
                "partitions": session.partitioner.state.num_partitions,
                "durable": tenant.wal is not None}

    async def _op_ingest(self, request: dict, reply) -> None:
        """Accept one batch: WAL append -> enqueue (replies come from
        the tenant worker; the ``queue.put`` is the backpressure
        point).  Duplicate seqs answer from the replay cache."""
        tenant = self._tenant_of(request)
        edges = _edge_array(request.get("edges", []))
        raw_seq = request.get("seq")
        if raw_seq is None:
            seq = tenant.accepted_seq + 1  # legacy client: no idempotency
        else:
            seq = _int64(raw_seq, "seq")
            if seq < 1:
                raise SessionError("ingest seq must be >= 1")
            if seq <= tenant.applied_seq:
                cached = tenant.replay.get(seq)
                if cached is None:
                    raise SessionError(
                        f"batch seq {seq} was applied but its response "
                        f"left the replay cache "
                        f"(depth {tenant.replay_depth})")
                await reply(dict(cached, replayed=True))
                return
            if seq <= tenant.accepted_seq:
                # Duplicate of an in-flight batch: wait for the worker.
                future = asyncio.get_running_loop().create_future()
                tenant.waiters.setdefault(seq, []).append(future)
                response = await future
                await reply(dict(response, replayed=True))
                return
            if seq != tenant.accepted_seq + 1:
                raise SessionError(
                    f"ingest seq gap for tenant {tenant.name!r}: got "
                    f"{seq}, expected {tenant.accepted_seq + 1}")
        if tenant.wal is not None:
            tenant.wal.append(seq, edges)
        tenant.accepted_seq = seq
        obs.counter("repro_service_edges_total",
                    tenant=tenant.name).inc(len(edges))
        tenant.metrics.observe_queue_depth(tenant.queue.qsize() + 1)
        trace_ctx = request.get("trace")
        if not isinstance(trace_ctx, dict):
            trace_ctx = None
        await tenant.queue.put((seq, edges, time.monotonic(), reply,
                                trace_ctx))

    def _op_query(self, request: dict) -> dict:
        """A vertex's replicas or an edge's partition.  Ids are held to
        ingest's rule (:func:`_edge_array`, :func:`_int64`): int64 JSON
        integers, not ``"2"``, ``2.7`` or ``true``."""
        tenant = self._tenant_of(request)
        if "vertex" in request:
            vertex = _int64(request["vertex"], "a vertex")
            return {"ok": True, "vertex": vertex,
                    "replicas": tenant.session.query_vertex(vertex)}
        if "edge" in request:
            u, v = map(int, _edge_array([request["edge"]])[0])
            return {"ok": True, "edge": [u, v],
                    "partition": tenant.session.query_edge(u, v)}
        raise SessionError("query requires 'vertex' or 'edge'")

    def _op_stats(self, request: dict) -> dict:
        tenant = self._tenant_of(request)
        return {"ok": True, "tenant": tenant.name,
                "session": tenant.session.stats().to_dict(),
                "metrics": tenant.metrics.to_dict(),
                "queue_depth": tenant.queue.qsize(),
                "accepted_seq": tenant.accepted_seq,
                "applied_seq": tenant.applied_seq,
                "durability": {
                    "wal": tenant.wal is not None,
                    "compacted_seq": tenant.compacted_seq,
                    "last_compact_error": tenant.last_compact_error},
                "audit": tenant.audit_counts()}

    def _op_audit(self, request: dict) -> dict:
        """The tenant's newest ``min(limit, AUDIT_WINDOW)`` decisions,
        each numbered by its place in the whole decision stream."""
        tenant = self._tenant_of(request)
        limit = _int64(request.get("limit", 32), "limit")
        store = tenant.decisions
        tail = store.tail(min(limit, AUDIT_WINDOW))
        seq = np.arange(store.rows - len(tail), store.rows, dtype=np.int64)
        return {"ok": True, "tenant": tenant.name,
                "decisions": _json_rows(
                    np.stack((seq, tail.u, tail.v, tail.part), axis=1),
                    b'{"seq": ', (b', "u": ', b', "v": ', b', "partition": '),
                    b"}"),
                "dropped": tenant.audit_counts()["dropped"]}

    def _remove_wal_files(self, tenant: Tenant) -> None:
        if tenant.wal is None:
            return
        tenant.wal.close(remove=True)
        snap_path = wal_snapshot_path(self.wal_dir, tenant.name)
        if os.path.exists(snap_path):
            os.remove(snap_path)

    async def _op_finalize(self, request: dict) -> dict:
        """Drain the queue, finalize the session, retire the tenant."""
        tenant = self._tenant_of(request)
        tenant.closed = True  # refuse new batches while draining
        await self._quiesce(tenant)
        result = tenant.session.finalize()
        del self.tenants[tenant.name]
        self._remove_wal_files(tenant)
        u, v, part = mapping_columns(result.assignments)
        order = np.argsort(ranked_edges(u, v)[3])  # (u, v) order
        return {"ok": True, "tenant": tenant.name,
                "assignments": _json_rows(
                    np.stack((u, v, part), axis=1)[order]),
                "replication_degree": result.replication_degree,
                "imbalance": result.imbalance,
                "latency_ms": result.latency_ms,
                "extras": result.extras}

    async def _op_snapshot(self, request: dict) -> dict:
        """On-demand WAL compaction of one live tenant (tenant stays
        live)."""
        if self.wal_dir is None:
            raise SessionError("daemon started without --wal-dir")
        tenant = self._tenant_of(request)
        await tenant.queue.join()  # settle in-flight batches first
        self._compact(tenant)
        return {"ok": True, "tenant": tenant.name,
                "path": wal_snapshot_path(self.wal_dir, tenant.name)}

    async def _op_close(self, request: dict) -> dict:
        """Drop a tenant without finalizing (abandon its stream)."""
        tenant = self._tenant_of(request)
        tenant.closed = True
        await self._quiesce(tenant)
        del self.tenants[tenant.name]
        self._remove_wal_files(tenant)
        return {"ok": True, "tenant": tenant.name, "closed": True}

    def _op_tenants(self) -> dict:
        return {"ok": True, "tenants": [
            {"tenant": t.name,
             "algorithm": t.session.algorithm,
             "edges_ingested": t.session.edges_ingested,
             "queue_depth": t.queue.qsize(),
             "applied_seq": t.applied_seq,
             "durable": t.wal is not None}
            for t in self.tenants.values()]}

    def _scrape_snapshot(self) -> dict:
        """Scrape-time snapshot: the process registry plus per-tenant
        series synthesized from each tenant's always-on bookkeeping.

        Built at scrape time so the ingest hot path pays nothing for
        these series beyond what ``TenantMetrics`` already records.
        """
        snap = obs.snapshot()
        snap["gauges"].append({
            "name": "repro_service_uptime_seconds", "labels": {},
            "value": max(time.monotonic() - self.started_at, 0.0)})
        snap["gauges"].append({
            "name": "repro_service_tenants", "labels": {},
            "value": float(len(self.tenants))})
        for tenant in sorted(self.tenants.values(), key=lambda t: t.name):
            labels = {"tenant": tenant.name}
            metrics = tenant.metrics
            snap["counters"].extend([
                {"name": "repro_tenant_edges_ingested_total",
                 "labels": labels, "value": float(metrics.edges_ingested)},
                {"name": "repro_tenant_batches_total",
                 "labels": labels, "value": float(metrics.batches)},
                {"name": "repro_tenant_audit_recorded_total",
                 "labels": labels,
                 "value": float(tenant.decisions.rows)},
            ])
            snap["gauges"].extend([
                {"name": "repro_tenant_queue_depth",
                 "labels": labels, "value": float(tenant.queue.qsize())},
                {"name": "repro_tenant_queue_high_water",
                 "labels": labels, "value": float(metrics.queue_high_water)},
                {"name": "repro_tenant_applied_seq",
                 "labels": labels, "value": float(tenant.applied_seq)},
                {"name": "repro_tenant_edges_per_second",
                 "labels": labels, "value": metrics.edges_per_second},
            ])
            snap["histograms"].append(
                metrics.latency_histogram.snapshot_entry(
                    "repro_tenant_ingest_latency_seconds", labels))
        return snap

    def _op_metrics_text(self) -> dict:
        """Prometheus text exposition of daemon + tenant series."""
        return {"ok": True,
                "metrics_text": obs.prometheus_text(self._scrape_snapshot())}


def run_service(host: str = "127.0.0.1", port: int = 0,
                max_tenants: int = 64, queue_depth: int = 16,
                wal_dir: Optional[str] = None,
                wal_compact_every: int = 64,
                fsync: str = "batch",
                max_line_bytes: int = 1_048_576,
                fault_hook: Optional[FaultHook] = None,
                ready_callback=None) -> None:
    """Blocking entry point used by ``repro-cli serve``.

    ``ready_callback(service)`` fires once the socket is bound — the CLI
    uses it to print the actual port (``--port 0``), tests use it to
    learn where to connect.
    """

    async def main() -> None:
        service = PartitionService(host=host, port=port,
                                   max_tenants=max_tenants,
                                   queue_depth=queue_depth,
                                   wal_dir=wal_dir,
                                   wal_compact_every=wal_compact_every,
                                   fsync=fsync,
                                   max_line_bytes=max_line_bytes,
                                   fault_hook=fault_hook)
        await service.start()
        if ready_callback is not None:
            ready_callback(service)
        await service.serve_forever()

    asyncio.run(main())


__all__ = ["AUDIT_WINDOW", "PartitionService", "Tenant", "run_service"]
