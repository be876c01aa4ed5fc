"""Synchronous, self-healing client for the partitioning daemon.

A blocking wrapper over the line-delimited-JSON protocol (see
:mod:`repro.service.server`), for tests, the ``repro-cli client``
subcommand and the service benchmark.  One client = one logical
connection; requests are tagged with sequential ``id``s and responses
are matched by id, so ingest batches may be pipelined with
:meth:`ingest_async` and collected later with :meth:`drain`.

Self-healing
------------
A dropped TCP connection (daemon crash, network blip, proxy reset) is
not an error the caller sees: the client reconnects with jittered
exponential backoff (``max_retries`` attempts, delays growing from
``retry_base`` to ``retry_max``) and *resends every unresolved
request* under its original id.  That is only safe because the resent
requests are idempotent:

* ingest batches carry a per-tenant ``seq`` (assigned by the client for
  tenants it opened or attached via :meth:`resume_seq`); the daemon
  answers a retried seq from its replay cache instead of partitioning
  the batch twice — exactly-once even when the ack, not the request,
  was lost;
* reads (``ping``/``query``/``stats``/``audit``/``tenants``) are
  harmless to repeat.

If a *non*-idempotent request (``open``, ``finalize``, ``close``,
``shutdown``, or a legacy seq-less ingest) is in flight when the
connection dies, the client refuses to guess and raises
:class:`ServiceConnectionError`.

Errors are typed: :class:`ServiceTimeout` for an overdue response
(instead of a raw ``socket.timeout``), :class:`ServiceConnectionError`
when reconnection is exhausted or unsafe — both subclass
:class:`ServiceError`, which still covers ``ok: false`` answers.
"""

from __future__ import annotations

import json
import random
import socket
import time
from operator import index
from typing import Dict, Iterable, List, Optional, Tuple

from repro import obs


class ServiceError(RuntimeError):
    """The daemon answered ``ok: false`` (or broke the protocol)."""


class ServiceConnectionError(ServiceError):
    """Could not (re)connect, or reconnecting would not be safe."""


class ServiceTimeout(ServiceError):
    """No response arrived within the client's ``timeout``."""


class _ConnectionLost(Exception):
    """Internal: the TCP connection died; recovery may resend."""


#: Ops that are safe to resend after a reconnect.  ``ingest`` joins the
#: set only when the payload carries an idempotency ``seq``.
_RETRYABLE_OPS = frozenset({"ping", "query", "stats", "audit", "tenants",
                            "metrics_text"})


class ServiceClient:
    """Blocking ndjson client for :class:`PartitionService`.

    Parameters
    ----------
    timeout:
        Per-read socket timeout; an overdue response raises
        :class:`ServiceTimeout` (and abandons that request id).
    max_retries:
        Reconnection attempts after the first failure, both at
        construction time and after a mid-flight drop.
    retry_base / retry_max:
        Backoff schedule: attempt *n* sleeps
        ``min(retry_max, retry_base * 2**(n-1))`` scaled by a jitter
        factor in ``[0.5, 1.0]``.
    seed:
        Seeds the jitter RNG (deterministic tests).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 timeout: float = 30.0, max_retries: int = 5,
                 retry_base: float = 0.05, retry_max: float = 2.0,
                 seed: Optional[int] = None) -> None:
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if retry_base <= 0 or retry_max < retry_base:
            raise ValueError("need 0 < retry_base <= retry_max")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.max_retries = max_retries
        self.retry_base = retry_base
        self.retry_max = retry_max
        self._rng = random.Random(seed)
        self._next_id = 0
        #: id -> full request payload (kept until resolved so recovery
        #: can resend it verbatim under the same id).
        self._pending: Dict[int, dict] = {}
        self._responses: Dict[int, dict] = {}
        #: tenant -> last assigned ingest seq, for tenants this client
        #: opened (or attached with :meth:`resume_seq`).
        self._seq: Dict[str, int] = {}
        self._sock, self._reader = self._connect()

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------
    def _connect(self):
        last_error: Optional[OSError] = None
        for attempt in range(self.max_retries + 1):
            if attempt:
                delay = min(self.retry_max,
                            self.retry_base * 2 ** (attempt - 1))
                time.sleep(delay * (0.5 + 0.5 * self._rng.random()))
            try:
                sock = socket.create_connection((self.host, self.port),
                                                timeout=self.timeout)
                return sock, sock.makefile("rb")
            except OSError as exc:
                last_error = exc
        raise ServiceConnectionError(
            f"could not connect to {self.host}:{self.port} after "
            f"{self.max_retries + 1} attempts: {last_error}")

    def _close_socket(self) -> None:
        for closer in (self._reader.close, self._sock.close):
            try:
                closer()
            except OSError:
                pass

    @staticmethod
    def _retryable(payload: dict) -> bool:
        op = payload.get("op")
        if op == "ingest":
            return "seq" in payload
        return op in _RETRYABLE_OPS

    def _recover(self) -> None:
        """Reconnect and resend every unresolved request.

        Raises :class:`ServiceConnectionError` if any unresolved
        request is not idempotent — resending an ``open`` or a seq-less
        ingest could apply it twice.
        """
        unresolved = {rid: payload
                      for rid, payload in self._pending.items()
                      if rid not in self._responses}
        for payload in unresolved.values():
            if not self._retryable(payload):
                self._close_socket()
                raise ServiceConnectionError(
                    f"connection lost with a non-idempotent "
                    f"{payload.get('op')!r} request in flight — its "
                    f"outcome at the daemon is unknown")
        last_error: Optional[Exception] = None
        for _ in range(self.max_retries + 1):
            self._close_socket()
            try:
                self._sock, self._reader = self._connect()
                for rid in sorted(unresolved):
                    self._transmit(rid, unresolved[rid])
                return
            except OSError as exc:  # resend died: reconnect again
                last_error = exc
        raise ServiceConnectionError(
            f"could not resend {len(unresolved)} pending request(s) "
            f"after reconnecting: {last_error}")

    # ------------------------------------------------------------------
    # Wire plumbing
    # ------------------------------------------------------------------
    def _transmit(self, request_id: int, payload: dict) -> None:
        self._sock.sendall(
            json.dumps(dict(payload, id=request_id)).encode() + b"\n")

    def _send(self, payload: dict) -> int:
        request_id = self._next_id
        self._next_id += 1
        self._pending[request_id] = payload
        try:
            self._transmit(request_id, payload)
        except OSError:
            self._recover()  # resends this id along with the rest
        return request_id

    def _read_one(self) -> dict:
        try:
            line = self._reader.readline()
        except socket.timeout as exc:
            raise ServiceTimeout(
                f"no response from daemon within {self.timeout}s") from exc
        except OSError as exc:
            raise _ConnectionLost(str(exc)) from exc
        if not line:
            raise _ConnectionLost("connection closed by daemon")
        try:
            response = json.loads(line)
        except ValueError as exc:
            raise ServiceError(
                f"daemon sent an undecodable response: {line[:128]!r}"
            ) from exc
        if not isinstance(response, dict):
            raise ServiceError(
                f"daemon sent a non-object response: {response!r}")
        return response

    def _wait_for(self, request_id: int) -> dict:
        while request_id not in self._responses:
            try:
                response = self._read_one()
            except _ConnectionLost:
                self._recover()
                continue
            except ServiceTimeout:
                # Abandon the id so a late response is dropped as stale
                # instead of accumulating forever.
                self._pending.pop(request_id, None)
                raise
            response_id = response.get("id")
            if response_id is None:
                raise ServiceError(
                    f"daemon sent an un-correlated response "
                    f"(missing 'id'): {response!r}")
            if response_id in self._pending:
                self._responses[response_id] = response
            # else: stale response for an abandoned id — drop it.
        self._pending.pop(request_id, None)
        response = self._responses.pop(request_id)
        if not response.get("ok", False):
            raise ServiceError(response.get("error", "daemon error"))
        return response

    def request(self, payload: dict) -> dict:
        """Send one request and block for its response."""
        return self._wait_for(self._send(payload))

    # ------------------------------------------------------------------
    # Protocol helpers
    # ------------------------------------------------------------------
    def ping(self) -> dict:
        return self.request({"op": "ping"})

    def open(self, tenant: str, algorithm: str = "adwise",
             partitions: int = 32, expected_edges: int = 0,
             **knobs) -> dict:
        response = self.request({"op": "open", "tenant": tenant,
                                 "algorithm": algorithm,
                                 "partitions": partitions,
                                 "expected_edges": expected_edges,
                                 "knobs": knobs})
        self._seq[tenant] = 0  # this client owns the tenant's seqs now
        return response

    def resume_seq(self, tenant: str) -> int:
        """Adopt an existing tenant's seq stream (e.g. after a daemon
        crash recovered it from the WAL, or when taking over from
        another client).  Returns the daemon's accepted high-water
        mark; subsequent :meth:`ingest` calls continue from there."""
        seq = int(self.stats(tenant).get("accepted_seq", 0))
        self._seq[tenant] = seq
        return seq

    def ingest(self, tenant: str,
               edges: Iterable[Tuple[int, int]]) -> List[Tuple[int, int, int]]:
        """Ingest a batch; block until it is partitioned.  Returns the
        emitted assignments as ``(u, v, partition)`` triples."""
        return self._assignments(self.request(self._ingest_payload(
            tenant, edges)))

    def ingest_async(self, tenant: str,
                     edges: Iterable[Tuple[int, int]]) -> int:
        """Pipeline a batch without waiting; pair with :meth:`drain`."""
        return self._send(self._ingest_payload(tenant, edges))

    def drain(self, request_ids: Iterable[int]
              ) -> List[Tuple[int, int, int]]:
        """Collect the assignments of previously pipelined batches."""
        out: List[Tuple[int, int, int]] = []
        for request_id in request_ids:
            out.extend(self._assignments(self._wait_for(request_id)))
        return out

    def _ingest_payload(self, tenant: str,
                        edges: Iterable[Tuple[int, int]]) -> dict:
        # index(), not int(): 1.9 and "3" are a TypeError here rather
        # than a different vertex at the daemon.
        payload = {"op": "ingest", "tenant": tenant,
                   "edges": [[index(u), index(v)] for u, v in edges]}
        trace_ctx = obs.current_context()
        if trace_ctx is not None:
            # Carry the caller's trace across the ndjson boundary so the
            # daemon's apply-batch span joins this trace.
            payload["trace"] = trace_ctx
        if tenant in self._seq:
            # Idempotency key: makes the batch safe to resend after a
            # reconnect (the daemon replays the cached response).
            self._seq[tenant] += 1
            payload["seq"] = self._seq[tenant]
        return payload

    @staticmethod
    def _assignments(response: dict) -> List[Tuple[int, int, int]]:
        return [(u, v, p) for u, v, p in response.get("assignments", [])]

    def query_vertex(self, tenant: str, vertex: int) -> List[int]:
        return self.request({"op": "query", "tenant": tenant,
                             "vertex": vertex})["replicas"]

    def query_edge(self, tenant: str, u: int, v: int) -> Optional[int]:
        return self.request({"op": "query", "tenant": tenant,
                             "edge": [u, v]})["partition"]

    def stats(self, tenant: str) -> dict:
        return self.request({"op": "stats", "tenant": tenant})

    def audit(self, tenant: str, limit: int = 32) -> dict:
        return self.request({"op": "audit", "tenant": tenant,
                             "limit": limit})

    def tenants(self) -> List[dict]:
        return self.request({"op": "tenants"})["tenants"]

    def metrics_text(self) -> str:
        """Prometheus text exposition of the daemon's metrics."""
        return self.request({"op": "metrics_text"})["metrics_text"]

    def snapshot(self, tenant: str) -> dict:
        return self.request({"op": "snapshot", "tenant": tenant})

    def finalize(self, tenant: str) -> dict:
        response = self.request({"op": "finalize", "tenant": tenant})
        self._seq.pop(tenant, None)
        return response

    def close_tenant(self, tenant: str) -> dict:
        response = self.request({"op": "close", "tenant": tenant})
        self._seq.pop(tenant, None)
        return response

    def shutdown(self) -> dict:
        return self.request({"op": "shutdown"})

    def close(self) -> None:
        self._close_socket()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
