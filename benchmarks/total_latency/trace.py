"""The benchmark's own span recorder (independent of ``repro.obs``).

A span is ``bench.<layer>.<call>`` with start and end in nanoseconds and
the repetition it belongs to, recorded by the benchmark around a call
into a layer's public function.  The spans of one repetition nest by
containment, so a span's parent is worked out when the run ends, not
tracked while the job runs.  A layer's self time is its spans' duration
minus the part their child spans cover.  Spans added with
``concurrent=True`` (acks and queries in flight on the ``job-service``
connections) overlap each other; they are kept for the trace viewer and
left out of the nesting and of self time.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional

#: Span names are ``bench.<layer>.<call>``.
PREFIX = "bench."
#: The repetition's root span; its self time is the unattributed share.
ROOT = "bench.job.run"
#: A probe reading inside the job: cut out of the job's wall time.
PROBE = "bench.host.probe"


def layer_of(name: str) -> str:
    """``bench.graph.io.parse`` -> ``graph.io``."""
    return name[len(PREFIX):].rsplit(".", 1)[0]


@dataclass(slots=True)
class Span:
    id: int
    name: str
    start: int
    end: int
    rep: int
    tid: int
    concurrent: bool
    args: dict
    parent: Optional[int] = None

    @property
    def duration(self) -> int:
        return self.end - self.start


class SpanRecorder:
    """In-memory span list; ``rep`` is set by the runner per repetition."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.rep = 0

    def add(self, name: str, start_s: float, end_s: float,
            concurrent: bool = False, tid: int = 0, **args) -> Span:
        """Record one finished span from ``perf_counter`` seconds."""
        span = Span(len(self.spans), name, int(start_s * 1e9),
                    int(end_s * 1e9), self.rep, tid, concurrent, args)
        self.spans.append(span)
        return span

    def add_inner(self, parent: Span, name: str, duration_ns: float,
                  offset_ns: int = 0, **args) -> Span:
        """A child whose duration was measured in a second pass that
        called the inner layer directly on the same input; it is laid
        at the parent's start and cannot outlast the parent."""
        start = parent.start + offset_ns
        end = min(parent.end, start + max(int(duration_ns), 0))
        span = Span(len(self.spans), name, start, end, parent.rep,
                    parent.tid, False, dict(args, second_pass=True))
        self.spans.append(span)
        return span

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def link_parents(self) -> None:
        """Set each nesting span's parent to the tightest span of its
        repetition that contains it."""
        by_rep: Dict[int, List[Span]] = defaultdict(list)
        for span in self.spans:
            if not span.concurrent:
                by_rep[span.rep].append(span)
        for spans in by_rep.values():
            # A second-pass child shares its parent's start, so the id
            # breaks the tie: children are always added after parents.
            spans.sort(key=lambda s: (s.start, -s.end, s.id))
            stack: List[Span] = []
            for span in spans:
                while stack and stack[-1].end < span.end:
                    stack.pop()
                span.parent = stack[-1].id if stack else None
                stack.append(span)
        roots = {s.rep: s.id for s in self.spans if s.name == ROOT}
        for span in self.spans:
            if span.concurrent:
                span.parent = roots.get(span.rep)

    def self_time_by_layer(self, rep: int) -> Dict[str, int]:
        """Nanoseconds of self time per layer in one repetition
        (call :meth:`link_parents` first)."""
        covered: Dict[int, int] = defaultdict(int)
        spans = [s for s in self.spans if s.rep == rep and not s.concurrent]
        for span in spans:
            if span.parent is not None:
                covered[span.parent] += span.duration
        totals: Dict[str, int] = defaultdict(int)
        for span in spans:
            totals[layer_of(span.name)] += span.duration - covered[span.id]
        return dict(totals)

    def shares(self, rep: int) -> Dict[str, float]:
        """Each layer's self time over the job's wall time with the
        probe readings cut out; ``unattributed`` is the root's own."""
        totals = self.self_time_by_layer(rep)
        totals.pop(layer_of(PROBE), None)
        wall = sum(s.duration if s.name == ROOT else -s.duration
                   for s in self.spans if s.rep == rep
                   and (s.name == ROOT
                        or s.name == PROBE and s.parent is not None))
        if wall <= 0:
            return {}
        shares = {layer: ns / wall for layer, ns in totals.items()}
        shares["unattributed"] = shares.pop(layer_of(ROOT), 0.0)
        return shares

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def write_chrome_trace(self, path: str, process_name: str) -> int:
        """Write Chrome/Perfetto ``traceEvents`` JSON; returns the span
        count.  Open it at https://ui.perfetto.dev or chrome://tracing."""
        self.link_parents()
        origin = min((s.start for s in self.spans), default=0)
        events: List[dict] = [{
            "name": "process_name", "ph": "M", "pid": 1, "tid": 0,
            "args": {"name": process_name}}]
        for span in self.spans:
            events.append({
                "name": span.name, "cat": layer_of(span.name), "ph": "X",
                "pid": 1, "tid": span.tid,
                "ts": (span.start - origin) / 1000.0,
                "dur": span.duration / 1000.0,
                "args": dict(span.args, id=span.id, parent=span.parent,
                             rep=span.rep)})
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                      handle)
        return len(self.spans)


class NullRecorder:
    """What the untraced runs pass instead: records nothing."""

    def add(self, *args, **kwargs) -> None:
        return None
