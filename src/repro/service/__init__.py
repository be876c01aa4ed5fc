"""Partitioning-as-a-service: a multi-tenant asyncio daemon.

This package turns the session API (:mod:`repro.api`) into a long-lived
network service: a single :class:`~repro.service.server.PartitionService`
process multiplexes many tenants, each bound to a live
:class:`~repro.api.PartitionSession`, over a line-delimited-JSON TCP
protocol.  Per-tenant bounded ingest queues provide backpressure, a
metrics/audit layer exposes throughput, replication degree, imbalance
and each session's latest decisions, and one durability path persists
state: a per-tenant write-ahead log (``wal_dir``,
:mod:`repro.service.wal`) that makes a SIGKILL'd daemon resume every
tenant bit-identically after restart, with exactly-once ingest keyed by
``(tenant, seq)``.

Entry points: ``repro-cli serve`` starts a daemon,
:class:`~repro.service.client.ServiceClient` talks to one (and
transparently reconnects + resends across connection drops).
"""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, {
    ".client": ("ServiceClient", "ServiceConnectionError", "ServiceError",
                "ServiceTimeout"),
    ".metrics": ("TenantMetrics",),
    ".server": ("PartitionService",),
    ".wal": ("FSYNC_MODES", "SERVICE_INJECTION_POINTS", "SimulatedCrash",
             "TenantWAL", "WALError", "read_wal"),
})

__all__ = [
    "FSYNC_MODES",
    "PartitionService",
    "SERVICE_INJECTION_POINTS",
    "ServiceClient",
    "ServiceConnectionError",
    "ServiceError",
    "ServiceTimeout",
    "SimulatedCrash",
    "TenantMetrics",
    "TenantWAL",
    "WALError",
    "read_wal",
]
