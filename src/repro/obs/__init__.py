"""``repro.obs`` — unified observability plane.

One registry + one tracer per process, disabled by default.  Call sites
use the module-level helpers::

    from repro import obs

    edges = obs.counter("repro_partition_edges_total", algorithm="adwise")
    edges.inc(len(batch))

    with obs.span("partition.ingest", batch=len(batch)):
        ...

When disabled (the default) every helper returns a shared no-op object —
no allocation, no locking, a single attribute call of overhead — so
instrumented hot paths cost nothing measurable until it is enabled
(``benchmarks/bench_obs.py`` records what enabling it costs).

Enablement propagates to child processes through environment variables:
``enable()`` sets ``REPRO_OBS=1`` (and ``REPRO_TRACE_FILE`` when a span
sink is configured), which forked *and* spawned workers read at import,
so a partition → cluster-superstep → service-ingest run writes one
correlated trace across every participating process.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Iterable, Optional

from .export import (
    chrome_trace_events,
    dump_jsonl,
    load_trace_jsonl,
    prometheus_text,
    registry_jsonl,
    render_tree,
    write_chrome_trace,
)
from .registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NOOP_COUNTER,
    NOOP_GAUGE,
    NOOP_HISTOGRAM,
    nearest_rank,
)
from .trace import (
    NOOP_SPAN,
    Span,
    SpanTracer,
    current_context,
    record_span,
    traced,
    use_context,
)

__all__ = [
    "enable",
    "disable",
    "is_enabled",
    "registry",
    "tracer",
    "counter",
    "gauge",
    "histogram",
    "span",
    "record",
    "traced",
    "current_context",
    "use_context",
    "snapshot",
    "merge_snapshot",
    "prometheus_text",
    "registry_jsonl",
    "dump_jsonl",
    "chrome_trace_events",
    "write_chrome_trace",
    "load_trace_jsonl",
    "render_tree",
    "nearest_rank",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "SpanTracer",
    "DEFAULT_BUCKETS",
    "NOOP_COUNTER",
    "NOOP_GAUGE",
    "NOOP_HISTOGRAM",
    "NOOP_SPAN",
]

ENV_FLAG = "REPRO_OBS"
ENV_TRACE_FILE = "REPRO_TRACE_FILE"

_registry = MetricsRegistry()
_tracer = SpanTracer()
_enabled = False


def _activate_from_env() -> None:
    """Pick up enablement set by a parent process (fork or spawn)."""
    global _enabled
    if os.environ.get(ENV_FLAG, "") not in ("", "0"):
        _enabled = True
        sink = os.environ.get(ENV_TRACE_FILE) or None
        if sink:
            _tracer.set_sink(sink)


def enable(trace_file: Optional[str] = None) -> None:
    """Turn observability on for this process and its future children.

    ``trace_file`` configures the shared JSONL span sink; every process
    that inherits the environment appends finished spans to it, which is
    how one request yields one trace across process boundaries.
    """
    global _enabled
    _enabled = True
    os.environ[ENV_FLAG] = "1"
    if trace_file is not None:
        os.environ[ENV_TRACE_FILE] = trace_file
        _tracer.set_sink(trace_file)


def disable() -> None:
    """Turn observability off (the default state)."""
    global _enabled
    _enabled = False
    os.environ.pop(ENV_FLAG, None)
    os.environ.pop(ENV_TRACE_FILE, None)
    _tracer.set_sink(None)


def is_enabled() -> bool:
    return _enabled


def registry() -> MetricsRegistry:
    """The live process-local registry (even while disabled)."""
    return _registry


def tracer() -> SpanTracer:
    return _tracer


def counter(name: str, **labels: object):
    if not _enabled:
        return NOOP_COUNTER
    return _registry.counter(name, **labels)


def gauge(name: str, **labels: object):
    if not _enabled:
        return NOOP_GAUGE
    return _registry.gauge(name, **labels)


def histogram(
    name: str,
    window: int = 1024,
    bounds: Optional[Iterable[float]] = None,
    **labels: object,
):
    if not _enabled:
        return NOOP_HISTOGRAM
    return _registry.histogram(name, window=window, bounds=bounds, **labels)


def span(name: str, **attrs: Any):
    if not _enabled:
        return NOOP_SPAN
    return Span(_tracer, name, attrs)


def record(name: str, start_ns: int, end_ns: int,
           parent: Optional[Dict[str, str]] = None,
           **attrs: Any) -> Optional[Dict[str, str]]:
    """A span timed elsewhere, from ``time.perf_counter_ns`` stamps
    (:func:`~repro.obs.trace.record_span`); ``None`` while disabled."""
    if not _enabled:
        return None
    return record_span(_tracer, name, start_ns, end_ns, attrs, parent)


def snapshot() -> Dict[str, list]:
    return _registry.snapshot()


def merge_snapshot(snap: Dict[str, list]) -> None:
    _registry.merge_snapshot(snap)


_activate_from_env()
