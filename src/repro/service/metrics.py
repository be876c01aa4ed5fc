"""Per-tenant service metrics: throughput and ingest-latency quantiles.

The daemon's observability layer.  Each tenant owns one
:class:`TenantMetrics`; the ingest worker feeds it one observation per
batch (size + enqueue-to-completion latency) and ``stats`` requests read
it back as a plain dict.

Latencies live in a :class:`repro.obs.Histogram` — a bounded ring of the
most recent ``capacity`` batches plus cumulative buckets — so a
long-lived tenant cannot grow daemon memory, the reported p99 is a
latency that actually occurred (exact nearest-rank over the window, the
same definition every other percentile in the repo uses), and the
daemon's ``metrics_text`` op can expose the identical series in
Prometheus form without a second bookkeeping path.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.obs.registry import Histogram


class TenantMetrics:
    """Rolling ingest statistics for one tenant."""

    def __init__(self, capacity: int = 1024,
                 clock: Optional[object] = None) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._now = clock if clock is not None else time.monotonic
        self.capacity = capacity
        self.opened_at = self._now()
        self.edges_ingested = 0
        self.batches = 0
        self.queue_high_water = 0
        # Always-on (independent of the global obs enable flag): these
        # numbers are part of the service protocol's `stats` response.
        self._latency = Histogram(window=capacity)

    def observe_batch(self, edges: int, latency_s: float) -> None:
        """Record one completed ingest batch."""
        self.edges_ingested += edges
        self.batches += 1
        self._latency.observe(latency_s)

    def observe_queue_depth(self, depth: int) -> None:
        if depth > self.queue_high_water:
            self.queue_high_water = depth

    @property
    def uptime_s(self) -> float:
        return max(self._now() - self.opened_at, 0.0)

    @property
    def edges_per_second(self) -> float:
        """Sustained ingest throughput since the tenant opened."""
        uptime = self.uptime_s
        if uptime <= 0.0:
            return 0.0
        return self.edges_ingested / uptime

    @property
    def latency_histogram(self) -> Histogram:
        """The underlying shared-format histogram (for exporters)."""
        return self._latency

    def latency_percentile_ms(self, fraction: float) -> float:
        return self._latency.percentile(fraction) * 1000.0

    def to_dict(self) -> dict:
        return {
            "edges_ingested": self.edges_ingested,
            "batches": self.batches,
            "uptime_s": self.uptime_s,
            "edges_per_second": self.edges_per_second,
            "queue_high_water": self.queue_high_water,
            "metrics_window": self.capacity,
            "p50_ingest_ms": self.latency_percentile_ms(0.50),
            "p99_ingest_ms": self.latency_percentile_ms(0.99),
        }
