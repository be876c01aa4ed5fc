"""Span tracer: context-manager spans with cross-process correlation.

Spans nest through a :mod:`contextvars` variable, time themselves with
``time.perf_counter_ns`` (monotonic), and carry ``trace_id`` / ``span_id``
pairs that survive the repo's three process boundaries:

* the PR-2 parallel-loading pickle boundary (``partitioning/parallel.py``),
* the PR-4 cluster transport pipes (``cluster/transport.py``), and
* the PR-6 ndjson service protocol (``service/client.py`` → ``server.py``).

Producers call :func:`current_context` to capture ``{"trace_id", "span_id"}``
and ship it with the payload; consumers wrap their work in
:func:`use_context` so their spans parent to the remote caller.  Finished
spans land in a bounded in-process ring and, when a sink file is
configured (``REPRO_TRACE_FILE``), are appended as JSONL — one
``os.write`` per span, so concurrent processes can share one sink file
and still produce one loadable trace.

When tracing is disabled, :func:`repro.obs.span` returns a shared
stateless no-op context manager: zero allocation on the hot path.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import os
import threading
import time
import uuid
from collections import deque
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "Span",
    "SpanTracer",
    "NOOP_SPAN",
    "current_context",
    "record_span",
    "use_context",
]

# (trace_id, span_id) of the innermost live span, or None at root.
_CURRENT: contextvars.ContextVar[Optional[Tuple[str, str]]] = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)

_id_counter = itertools.count(1)
_id_lock = threading.Lock()


def _new_span_id() -> str:
    with _id_lock:
        seq = next(_id_counter)
    return "%x-%x" % (os.getpid(), seq)


def _new_trace_id() -> str:
    return uuid.uuid4().hex[:16]


def current_context() -> Optional[Dict[str, str]]:
    """Wire-format trace context of the innermost live span, if any."""
    current = _CURRENT.get()
    if current is None:
        return None
    return {"trace_id": current[0], "span_id": current[1]}


@contextmanager
def use_context(ctx: Optional[Dict[str, str]]) -> Iterator[None]:
    """Adopt a remote trace context so local spans parent to it.

    ``ctx`` is the dict produced by :func:`current_context` on the other
    side of a pickle/ndjson boundary; ``None`` is a no-op so call sites
    need no guards.
    """
    if not ctx or "trace_id" not in ctx or "span_id" not in ctx:
        yield
        return
    token = _CURRENT.set((str(ctx["trace_id"]), str(ctx["span_id"])))
    try:
        yield
    finally:
        _CURRENT.reset(token)


class SpanTracer:
    """Collects finished spans; optionally mirrors them to a JSONL sink."""

    def __init__(self, capacity: int = 8192, sink_path: Optional[str] = None) -> None:
        self.capacity = capacity
        self.finished: deque = deque(maxlen=capacity)
        self._sink_path = sink_path
        self._sink_fd: Optional[int] = None

    @property
    def sink_path(self) -> Optional[str]:
        return self._sink_path

    def set_sink(self, path: Optional[str]) -> None:
        if self._sink_fd is not None:
            os.close(self._sink_fd)
            self._sink_fd = None
        self._sink_path = path

    def emit(self, span: Dict[str, Any]) -> None:
        self.finished.append(span)
        if self._sink_path is not None:
            if self._sink_fd is None:
                self._sink_fd = os.open(
                    self._sink_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
                )
            line = json.dumps(span, separators=(",", ":")) + "\n"
            # One O_APPEND write per span: atomic enough for concurrent
            # processes sharing the sink file.
            os.write(self._sink_fd, line.encode("utf-8"))

    def spans(self) -> List[Dict[str, Any]]:
        return list(self.finished)

    def clear(self) -> None:
        self.finished.clear()

    def close(self) -> None:
        if self._sink_fd is not None:
            os.close(self._sink_fd)
            self._sink_fd = None


class Span:
    """A timed region.  Use via ``repro.obs.span(...)``, not directly."""

    __slots__ = (
        "name",
        "attrs",
        "tracer",
        "trace_id",
        "span_id",
        "parent_id",
        "_token",
        "_start_ns",
        "_wall_us",
    )

    def __init__(self, tracer: SpanTracer, name: str, attrs: Dict[str, Any]) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.trace_id = ""
        self.span_id = ""
        self.parent_id: Optional[str] = None
        self._token: Optional[contextvars.Token] = None
        self._start_ns = 0
        self._wall_us = 0

    def __enter__(self) -> "Span":
        parent = _CURRENT.get()
        if parent is None:
            self.trace_id = _new_trace_id()
            self.parent_id = None
        else:
            self.trace_id, self.parent_id = parent
        self.span_id = _new_span_id()
        self._token = _CURRENT.set((self.trace_id, self.span_id))
        self._wall_us = time.time_ns() // 1000
        self._start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        dur_us = (time.perf_counter_ns() - self._start_ns) // 1000
        if self._token is not None:
            _CURRENT.reset(self._token)
            self._token = None
        record: Dict[str, Any] = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "pid": os.getpid(),
            "tid": threading.get_ident() & 0xFFFFFFFF,
            "ts_us": self._wall_us,
            "dur_us": int(dur_us),
        }
        if self.attrs:
            record["attrs"] = {k: _jsonable(v) for k, v in self.attrs.items()}
        if exc_type is not None:
            record["error"] = exc_type.__name__
        self.tracer.emit(record)
        return False

    def set_attr(self, key: str, value: Any) -> None:
        self.attrs[key] = value


def record_span(tracer: SpanTracer, name: str, start_ns: int, end_ns: int,
                attrs: Dict[str, Any],
                parent: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    """Emit a span that ran without a :class:`Span` open around it —
    ``start_ns`` / ``end_ns`` read from ``time.perf_counter_ns``'s clock,
    say by compiled code — as a child of ``parent`` (a
    :func:`current_context` dict), else of the live span.  Returns its
    context, to parent its children to."""
    if parent is None:
        parent = current_context()
    record: Dict[str, Any] = {
        "name": name,
        "trace_id": parent["trace_id"] if parent else _new_trace_id(),
        "span_id": _new_span_id(),
        "parent_id": parent["span_id"] if parent else None,
        "pid": os.getpid(),
        "tid": threading.get_ident() & 0xFFFFFFFF,
        "ts_us": (time.time_ns() - time.perf_counter_ns() + start_ns) // 1000,
        "dur_us": (end_ns - start_ns) // 1000,
    }
    if attrs:
        record["attrs"] = {k: _jsonable(v) for k, v in attrs.items()}
    tracer.emit(record)
    return {"trace_id": record["trace_id"], "span_id": record["span_id"]}


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


class _NoopSpan:
    """Stateless reusable context manager for disabled tracing."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set_attr(self, key: str, value: Any) -> None:
        pass


NOOP_SPAN = _NoopSpan()


def traced(
    name: Optional[str] = None, **attrs: Any
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Decorator form of ``repro.obs.span``; resolves enablement per call."""

    def decorate(fn: Callable[..., Any]) -> Callable[..., Any]:
        span_name = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            from repro import obs

            with obs.span(span_name, **attrs):
                return fn(*args, **kwargs)

        return wrapper

    return decorate
