"""The daemon as a child process, and the load generator of ``job-service``.

The load generator is this process with one thread and one connection
per tenant.  It is a closed loop: each connection keeps at most
``depth`` 256-edge ingests in flight and, after every ``query_every``-th
ingest, sends a ``query`` and waits for the answer — a read beside the
writes, which on a single event loop waits behind whichever batch is
being applied.  It speaks the ndjson protocol directly, so every
response carries the time its last byte arrived.
"""

from __future__ import annotations

import json
import os
import re
import socket
import subprocess
import sys
import threading
from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from time import perf_counter as now
from typing import Dict, List, Optional, Tuple

from repro.graph.graph import Edge
from repro.graph.io import iter_edge_file
from repro.service.wal import wal_path, wal_snapshot_path

Interval = Tuple[float, float]


@dataclass
class TenantLog:
    """Everything one load-generator connection saw."""

    name: str
    #: The ``workloads.Tenant`` this connection opens.
    tenant: object
    sent: int = 0
    acks: List[Interval] = field(default_factory=list)
    failed: int = 0
    #: ``(sent, answered, vertex, replicas)`` per query.
    queries: List[Tuple[float, float, int, List[int]]] = field(
        default_factory=list)
    open: Optional[Interval] = None
    final: Optional[Interval] = None
    stats: dict = field(default_factory=dict)
    final_response: dict = field(default_factory=dict)
    wal_bytes: int = 0
    batches: List[List[Tuple[int, int]]] = field(default_factory=list)
    #: How long parsing each batch out of the file took.
    reads: List[Interval] = field(default_factory=list)
    error: Optional[str] = None

    def assignments(self) -> Dict[Edge, int]:
        return {Edge(u, v): p
                for u, v, p in self.final_response["assignments"]}


class Wire:
    """One ndjson connection; every response line carries the time the
    bytes that completed it arrived."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._buffer = b""
        self._lines: deque = deque()
        self._next_id = 0

    def send(self, payload: dict) -> Tuple[int, float]:
        self._next_id += 1
        data = json.dumps(dict(payload, id=self._next_id)).encode() + b"\n"
        sent = now()
        self._sock.sendall(data)
        return self._next_id, sent

    def receive(self) -> Tuple[float, dict]:
        while not self._lines:
            chunk = self._sock.recv(1 << 20)
            arrived = now()
            if not chunk:
                raise ConnectionError("the daemon closed the connection")
            *complete, self._buffer = (self._buffer + chunk).split(b"\n")
            self._lines.extend((arrived, line) for line in complete)
        arrived, line = self._lines.popleft()
        return arrived, json.loads(line)

    def call(self, payload: dict) -> Tuple[float, float, dict]:
        """Send and wait; only with nothing else in flight."""
        request_id, sent = self.send(payload)
        arrived, response = self.receive()
        if response.get("id") != request_id:
            raise ConnectionError(f"unexpected response {response!r}")
        return sent, arrived, response


class Rendezvous:
    """Where the load threads meet so that the probe can be read.

    A reading taken beside running load threads measures the interpreter
    lock, not the host (25-35 ms against 10 ms in the same second).  So
    when a reading is due, each streaming thread waits for its acks in
    flight and parks here between two batches; the last to arrive reads
    the probe while the others sleep and the daemon is idle, and all go
    on.  The reading's duration is cut out of the timings like any other.
    """

    def __init__(self, tick, gap_s: float, parties: int) -> None:
        self._tick = tick
        self._gap_s = gap_s
        self._cond = threading.Condition()
        self._streaming = parties
        self._parked = 0
        self._round = 0
        self._due = now() + gap_s

    def due(self) -> bool:
        return now() >= self._due

    def park(self) -> None:
        with self._cond:
            self._parked += 1
            if self._parked == self._streaming:
                self._read()
                return
            this_round = self._round
            while this_round == self._round:
                self._cond.wait()

    def leave(self) -> None:
        """This thread has finalized its tenant and parks no more."""
        with self._cond:
            self._streaming -= 1
            if self._streaming and self._parked == self._streaming:
                self._read()

    def _read(self) -> None:
        self._tick()
        self._due = now() + self._gap_s
        self._parked = 0
        self._round += 1
        self._cond.notify_all()


def ping(port: int) -> None:
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        if not Wire(sock).call({"op": "ping"})[2].get("pong"):
            raise ConnectionError("the daemon did not answer the ping")


def drive_tenant(port: int, wal_dir: str, inputs, log: TenantLog,
                 rendezvous: Rendezvous) -> None:
    """One connection: open, stream the file, read the tenant's stats,
    finalize.  Whatever goes wrong ends up in ``log.error``."""
    try:
        try:
            with socket.create_connection(("127.0.0.1", port),
                                          timeout=60) as sock:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                _drive(Wire(sock), wal_dir, inputs, log, rendezvous)
        finally:
            if log.final is None:       # died mid-stream: free the others
                rendezvous.leave()
    except (OSError, ValueError, KeyError) as exc:
        log.error = f"{type(exc).__name__}: {exc}"


def _drive(wire: Wire, wal_dir: str, inputs, log: TenantLog,
           rendezvous: Rendezvous) -> None:
    sizes = inputs.sizes
    in_flight: Dict[int, Tuple[float, int]] = {}
    query: Dict[int, Tuple[float, int]] = {}

    def take_one() -> None:
        arrived, response = wire.receive()
        request_id = response.get("id")
        if request_id in in_flight:
            sent, size = in_flight.pop(request_id)
            log.acks.append((sent, arrived))
            if not (response.get("ok") and response.get("accepted") == size):
                log.failed += 1
        elif request_id in query:
            sent, vertex = query.pop(request_id)
            if not response.get("ok"):
                log.failed += 1
            log.queries.append((sent, arrived, vertex,
                                response.get("replicas", [])))
        else:
            raise ConnectionError(f"unexpected response {response!r}")

    sent, arrived, response = wire.call({
        "op": "open", "tenant": log.name,
        "algorithm": log.tenant.algorithm, "partitions": sizes.partitions,
        "expected_edges": inputs.num_edges,
        "knobs": log.tenant.knob_dict()})
    if not response.get("ok"):
        raise ConnectionError(f"open refused: {response!r}")
    log.open = (sent, arrived)
    reader = iter_edge_file(inputs.path)
    while True:
        read_start = now()
        batch = [(e.u, e.v) for e in islice(reader, sizes.batch)]
        if not batch:
            break
        log.reads.append((read_start, now()))
        if rendezvous.due():
            while in_flight:
                take_one()
            rendezvous.park()
        while len(in_flight) >= sizes.depth:
            take_one()
        log.sent += 1
        request_id, sent = wire.send({
            "op": "ingest", "tenant": log.name, "seq": log.sent,
            "edges": batch})
        in_flight[request_id] = (sent, len(batch))
        log.batches.append(batch)
        if log.sent % sizes.query_every == 0:
            vertex = batch[0][0]
            request_id, sent = wire.send({
                "op": "query", "tenant": log.name, "vertex": vertex})
            query[request_id] = (sent, vertex)
            while query:
                take_one()
    while in_flight:
        take_one()
    log.stats = wire.call({"op": "stats", "tenant": log.name})[2]
    log.wal_bytes = sum(
        os.path.getsize(path)
        for path in (wal_path(wal_dir, log.name),
                     wal_snapshot_path(wal_dir, log.name))
        if os.path.exists(path))
    sent, arrived, response = wire.call(
        {"op": "finalize", "tenant": log.name})
    if not response.get("ok"):
        raise ConnectionError(f"finalize refused: {response!r}")
    log.final_response = response
    log.final = (sent, arrived)
    rendezvous.leave()


class Daemon:
    """``python -m repro.cli serve`` as a child, stopped on every way out."""

    def __init__(self, workdir: str, src: str) -> None:
        self.wal_dir = os.path.join(workdir, "wal")
        self._log_path = os.path.join(workdir, "daemon.log")
        self._src = src
        self._proc: Optional[subprocess.Popen] = None
        self.port = 0

    def __enter__(self) -> "Daemon":
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (self._src, env.get("PYTHONPATH")) if p)
        with open(self._log_path, "w", encoding="utf-8") as log:
            self._proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                 "--wal-dir", self.wal_dir, "--fsync", "batch"],
                stdout=subprocess.PIPE, stderr=log, env=env, text=True)
        try:
            line = self._proc.stdout.readline()
            match = re.search(r"listening on [\d.]+:(\d+)", line)
            if not match:
                raise RuntimeError(
                    f"the daemon did not come up (see {self._log_path}): "
                    f"{line!r}")
            self.port = int(match.group(1))
            ping(self.port)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def peak_rss_mb(self) -> float:
        """The daemon's ``VmHWM`` (read it before leaving the block)."""
        with open(f"/proc/{self._proc.pid}/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def __exit__(self, *exc_info) -> None:
        proc, self._proc = self._proc, None
        if proc is None:
            return
        try:
            if proc.poll() is None and self.port:
                with socket.create_connection(("127.0.0.1", self.port),
                                              timeout=5) as sock:
                    Wire(sock).call({"op": "shutdown"})
                proc.wait(timeout=10)
        except (OSError, ValueError, subprocess.TimeoutExpired):
            pass
        finally:
            if proc.poll() is None:
                proc.terminate()
                try:
                    proc.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
            proc.stdout.close()
