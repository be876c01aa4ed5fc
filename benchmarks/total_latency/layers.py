"""The traced run: per-layer metrics (``--trace 1``).

A round is one untraced repetition, one traced repetition (their ratio
is the tracing overhead) and the second passes.  Where one public call
wraps another layer (``session.ingest`` -> ``partitioner.ingest``, the
daemon -> a session) the inner layer is timed by calling it directly on
the batches the repetition parsed, and laid into the trace as a child of
the outer span, so that the outer layer's self time is the difference.
Every figure is the median over rounds of a probe-scaled interval;
counts come from the program's own return values and repeat exactly.
"""

from __future__ import annotations

import gc
import os
import pickle
import statistics
from dataclasses import dataclass
from time import perf_counter as now
from typing import Dict, List, Tuple

from repro import obs
from repro.cluster import ClusterEngine
from repro.core import _kernels
from repro.engine.algorithms import PageRank
from repro.engine.cost import cost_model_for
from repro.engine.runtime import Engine
from repro.graph.graph import Edge
from repro.partitioning.parallel import partitioner_registry
from repro.simtime import SimulatedClock

from total_latency import workloads
from total_latency.probe import Timeline, nearest_rank
from total_latency.trace import NullRecorder, SpanRecorder

#: The layer a tenant's partitioner belongs to: ADWISE is ``core``, the
#: single-edge baselines live in ``partitioning``.
INNER_LAYER = {"adwise": "core", "hdrf": "partitioning"}
LAYERS = ("graph.io", "api", "core", "partitioning", "graph.shard",
          "cluster", "service")
UNATTRIBUTED_WARNING = 0.05

Interval = Tuple[float, float]


# ----------------------------------------------------------------------
# Second passes: one layer called directly.  Each is a timed phase like
# the job's: a probe reading before, after, and between batches.
# ----------------------------------------------------------------------
def _tick_if_due(timeline: Timeline) -> None:
    if now() - timeline.last_end > workloads.PROBE_GAP_S:
        timeline.tick()


@dataclass
class InnerPass:
    """A partitioner driven directly, and when each call ran."""

    result: object
    partitioner: object
    begin: Interval
    ingests: List[Interval]
    finalize: Interval


def direct_partitioner(inputs, tenant, batches,
                       timeline: Timeline) -> InnerPass:
    """``begin/ingest/finalize`` on the partitioner itself, built the way
    ``repro.api`` builds it."""
    sizes = inputs.sizes
    edges = [[Edge(u, v) for u, v in batch] for batch in batches]
    timeline.tick()
    start = now()
    partitioner = partitioner_registry()[tenant.algorithm](
        list(range(sizes.partitions)), clock=SimulatedClock(),
        **tenant.knob_dict())
    partitioner.begin(total_edges=inputs.num_edges)
    begun = now()
    ingests: List[Interval] = []
    for batch in edges:
        before = now()
        partitioner.ingest(batch)
        ingests.append((before, now()))
        _tick_if_due(timeline)
    before = now()
    result = partitioner.finalize()
    final = (before, now())
    timeline.tick()
    return InnerPass(result, partitioner, (start, begun), ingests, final)


def direct_session(inputs, tenant, batches, timeline: Timeline):
    """The same batches through an in-process ``repro.api`` session, as
    the daemon feeds them.  Returns ``(result, (start, end))``."""
    timeline.tick()
    start = now()
    session = workloads.open_session(
        tenant.algorithm, partitions=inputs.sizes.partitions,
        expected_edges=inputs.num_edges, **tenant.knob_dict())
    for batch in batches:
        session.ingest(batch)
        _tick_if_due(timeline)
    result = session.finalize()
    end = now()
    timeline.tick()
    return result, (start, end)


def dense_engine_run(inputs, sharded, timeline: Timeline):
    """PageRank on the single-process dense ``Engine`` over the same
    placement: the reference for the check, the floor under
    ``process_s``.  Returns ``(report, (start, end))``."""
    sizes = inputs.sizes
    graph = sharded.to_graph()
    placement = sharded.placement(num_machines=sizes.machines)
    timeline.tick()
    start = now()
    engine = Engine(graph, placement, cost_model_for("pagerank"),
                    mode="dense")
    report = engine.run(PageRank(iterations=sizes.iterations),
                        max_supersteps=sizes.iterations + 2)
    end = now()
    timeline.tick()
    return report, (start, end)


def process_backend_run(inputs, sharded, timeline: Timeline):
    """One PageRank on ``ProcessTransport`` with two workers.  Ungated:
    a coordinator and two workers oversubscribe two cores, so this
    figure does not repeat; it is kept for ROADMAP item 5b."""
    sizes = inputs.sizes
    timeline.tick()
    start = now()
    engine = ClusterEngine(sharded, cost_model_for("pagerank"),
                           backend="process", num_workers=2)
    report = engine.run(PageRank(iterations=sizes.iterations),
                        max_supersteps=sizes.iterations + 2)
    end = now()
    timeline.tick()
    return report, (start, end)


def window_counters(inputs, tenant, batches,
                    timeline: Timeline) -> Dict[str, float]:
    """Memo hit ratio and agenda operations of the window, read from
    ``repro.obs`` — switched on for this one pass only."""
    registry = obs.registry()
    registry.reset()
    obs.enable()
    try:
        direct_partitioner(inputs, tenant, batches, timeline)
        snapshot = obs.snapshot()
    finally:
        obs.disable()
        registry.reset()
    hit_rates = [g["value"] for g in snapshot["gauges"]
                 if g["name"] == "repro_window_memo_hit_rate"]
    return {
        "core.memo_hit_ratio": (statistics.fmean(hit_rates)
                                if hit_rates else 0.0),
        "core.agenda_ops": sum(
            c["value"] for c in snapshot["counters"]
            if c["name"] == "repro_window_agenda_ops_total"),
    }


# ----------------------------------------------------------------------
# One round's figures
# ----------------------------------------------------------------------
class Round:
    """Per-layer figures of one traced repetition and its second passes."""

    def __init__(self, workload, inputs, job, timeline: Timeline,
                 rec: SpanRecorder) -> None:
        self.workload = workload
        self.inputs = inputs
        self.job = job
        self.timeline = timeline
        self.rec = rec
        self.rep = rec.rep
        self.values: Dict[str, float] = {}
        #: Direct-session results per daemon tenant, for the checks.
        self.direct: Dict[str, object] = {}

    def scaled(self, interval: Interval) -> float:
        return self.timeline.scaled(*interval)

    def span_seconds(self, *names: str) -> float:
        """Scaled total of this repetition's spans with these names."""
        return sum(self.timeline.scaled(s.start / 1e9, s.end / 1e9)
                   for s in self.rec.spans
                   if s.rep == self.rep and s.name in names)

    def report_seconds(self, report, interval: Interval):
        """``(loop, compute)`` seconds of a cluster report.  The times a
        report carries are raw; they are brought to reference speed with
        the factor of the interval they were taken in."""
        factor = self.scaled(interval) / self.timeline.raw(*interval)
        return (report.wall_ms_total / 1e3 * factor,
                sum(t.compute_ms for t in report.telemetry) / 1e3 * factor)

    def hang(self, parent, name: str, inner_s: float, offset_ns: int = 0):
        """Lay a second-pass timing under ``parent``: the share of the
        parent's scaled time it took, of the parent's raw duration."""
        outer_s = self.timeline.scaled(parent.start / 1e9, parent.end / 1e9)
        share = min(inner_s / outer_s, 1.0) if outer_s > 0 else 0.0
        return self.rec.add_inner(parent, name, parent.duration * share,
                                  offset_ns)

    # -- partitioning, in process ------------------------------------
    def local_partition(self) -> None:
        job, tenant = self.job, self.workload.primary
        layer = INNER_LAYER[tenant.algorithm]
        inner = direct_partitioner(self.inputs, tenant, job.batches,
                                   self.timeline)
        for span, interval in zip(job.ingest_spans, inner.ingests):
            self.hang(span, f"bench.{layer}.ingest", self.scaled(interval))
        self.hang(job.finalize_span, f"bench.{layer}.finalize",
                  self.scaled(inner.finalize))
        inner_s = self.inner_figures(layer, inner)
        api_s = self.span_seconds("bench.api.open", "bench.api.ingest",
                                  "bench.api.finalize")
        parse_s = self.span_seconds("bench.graph.io.count",
                                    "bench.graph.io.read_batch")
        self.values.update({
            "api.ingest_s": api_s,
            # The difference of two passes: within noise of zero it can
            # come out negative, and is printed as measured.
            "api.overhead_s": api_s - inner_s,
            "graph.io.parse_s": parse_s,
            # The count pass and the read pass each go through the file.
            "graph.io.parse_eps": 2 * self.inputs.num_edges / parse_s,
            "graph.io.bytes": 2 * os.path.getsize(self.inputs.path),
        })

    def inner_figures(self, layer: str, inner: InnerPass) -> float:
        """The inner layer's own figures; returns its total seconds."""
        ingest_s = sum(self.scaled(i) for i in inner.ingests)
        finalize_s = self.scaled(inner.finalize)
        total_s = self.scaled(inner.begin) + ingest_s + finalize_s
        result = inner.result
        if layer == "core":
            self.values.update({
                "core.ingest_s": ingest_s,
                "core.finalize_s": finalize_s,
                "core.score_computations": result.score_computations,
                "core.scores_per_edge": (result.score_computations
                                         / len(result.assignments)),
                "core.window_max": result.extras["max_window"],
                "core.promotions": result.extras["promotions"],
            })
        else:
            self.values["partitioning.ingest_s"] = total_s
        if layer == INNER_LAYER[self.workload.primary.algorithm]:
            before = now()
            image = pickle.dumps(inner.partitioner.state.snapshot(),
                                 protocol=pickle.HIGHEST_PROTOCOL)
            self.values["partitioning.snapshot_s"] = self.scaled(
                (before, now()))
            self.values["partitioning.snapshot_bytes"] = len(image)
        return total_s

    # -- partitioning, behind the daemon ------------------------------
    def service_partition(self) -> None:
        job = self.job
        span = job.partition_span
        service_s = self.scaled(job.phases["partition"])
        offset = 0
        direct_total = 0.0
        for log in job.tenants:
            layer = INNER_LAYER[log.tenant.algorithm]
            result, interval = direct_session(self.inputs, log.tenant,
                                              log.batches, self.timeline)
            self.direct[log.name] = result
            session_s = self.scaled(interval)
            direct_total += session_s
            inner_s = self.inner_figures(layer, direct_partitioner(
                self.inputs, log.tenant, log.batches, self.timeline))
            child = self.hang(span, "bench.api.session", session_s, offset)
            self.hang(child, f"bench.{layer}.partitioner", inner_s)
            offset += child.duration
            self.values["api.ingest_s"] = (
                self.values.get("api.ingest_s", 0.0) + session_s)
            self.values["api.overhead_s"] = (
                self.values.get("api.overhead_s", 0.0)
                + session_s - inner_s)
        waits = [self.scaled(w) for w in job.batch_waits]
        queries = [self.scaled((sent, got))
                   for log in job.tenants for sent, got, _, _ in log.queries]
        reads = [self.scaled(r) for log in job.tenants for r in log.reads]
        server_p50 = statistics.median(
            log.stats["metrics"]["p50_ingest_ms"] for log in job.tenants)
        # The daemon's own p50 is raw time on the daemon's clock; scale
        # it as the partition phase was scaled.
        server_p50 *= service_s / self.timeline.raw(*job.phases["partition"])
        batch_p50 = nearest_rank(waits, 0.50) * 1000.0
        edges = job.edges_partitioned
        self.values.update({
            "service.open_s": sum(self.scaled(log.open)
                                  for log in job.tenants),
            "service.finalize_s": sum(self.scaled(log.final)
                                      for log in job.tenants),
            "service.server_p50_ms": server_p50,
            "service.queue_wait_ms": batch_p50 - server_p50,
            "service.queue_high_water": max(
                log.stats["metrics"]["queue_high_water"]
                for log in job.tenants),
            "service.query_p50_ms": nearest_rank(queries, 0.50) * 1000.0,
            "service.query_p95_ms": nearest_rank(queries, 0.95) * 1000.0,
            "service.failed_ops": sum(log.failed for log in job.tenants),
            "service.wal_bytes": sum(log.wal_bytes for log in job.tenants),
            "service.direct_eps": edges / direct_total,
            "service.overhead_ratio": service_s / direct_total,
            "graph.io.parse_s": sum(reads),
            "graph.io.parse_eps": edges / sum(reads),
            "graph.io.bytes": (len(job.tenants)
                               * os.path.getsize(self.inputs.path)),
        })

    # -- the part every workload shares -------------------------------
    def downstream(self) -> None:
        job, sizes = self.job, self.inputs.sizes
        report, sharded = job.report, job.sharded
        process_s = self.scaled(job.phases["process"])
        loop_s, compute_s = self.report_seconds(report, job.phases["process"])
        factor = loop_s / (report.wall_ms_total / 1e3)
        steps = [t.wall_ms * factor for t in report.telemetry]
        remote = [sum(t.remote_per_machine.get(m, 0)
                      for t in report.telemetry)
                  for m in range(sizes.machines)]
        shard_s = self.scaled(job.phases["shard"])
        engine_report, engine_interval = dense_engine_run(
            self.inputs, sharded, self.timeline)
        engine_s = self.scaled(engine_interval)
        self.values.update({
            "partitioning.imbalance": job.reported_imbalance,
            "partitioning.write_s": self.scaled(job.phases["write"]),
            "partitioning.write_bytes": job.write_bytes,
            "graph.shard.build_s": shard_s,
            "graph.shard.build_eps": sharded.num_edges / shard_s,
            "graph.shard.mirrors": sum(
                len(ps) - 1 for ps in sharded.vertex_partitions.values()),
            "cluster.spawn_s": process_s - loop_s,
            "cluster.loop_s": loop_s,
            "cluster.compute_s": compute_s,
            "cluster.sync_s": loop_s - compute_s,
            "cluster.superstep_p50_ms": nearest_rank(steps, 0.50),
            "cluster.superstep_p95_ms": nearest_rank(steps, 0.95),
            "cluster.remote_messages": report.remote_sync_messages,
            "cluster.payload_bytes_per_superstep": (
                report.sync_payload_bytes / report.supersteps),
            "cluster.machine_skew": (max(remote) * len(remote) / sum(remote)
                                     if sum(remote) else 0.0),
            "engine.run_s": engine_s,
            "engine.superstep_ms": (engine_s * 1000.0
                                    / engine_report.supersteps),
        })

    def process_backend(self) -> Dict[str, float]:
        report, interval = process_backend_run(
            self.inputs, self.job.sharded, self.timeline)
        run_s = self.scaled(interval)
        loop_s, compute_s = self.report_seconds(report, interval)
        return {
            "cluster.process.run_s": run_s,
            "cluster.process.sync_s": loop_s - compute_s,
            "cluster.process.over_serial": (
                run_s / self.scaled(self.job.phases["process"])),
        }

    def shares(self) -> None:
        self.rec.link_parents()
        shares = self.rec.shares(self.rep)
        for layer in LAYERS:
            self.values[f"share.{layer}"] = shares.get(layer, 0.0)
        self.values["share.unattributed"] = shares.get("unattributed", 0.0)


def traced_run(workload, inputs, daemon, seconds: float, at_least: int,
               timeline: Timeline, verifier, trace_dir: str):
    """Rounds for about ``seconds``; returns ``(metrics, summary)``."""
    rec = SpanRecorder()
    rounds: List[Dict[str, float]] = []
    once: Dict[str, float] = {}
    direct: Dict[str, object] = {}

    def one_round(index: int) -> None:
        rec.rep = index
        plain = workloads.run_job(workload, inputs, daemon, f"u{index}",
                                  timeline, NullRecorder())
        verifier.repetition(plain)
        plain_job = plain.phases["job"]
        # Both repetitions start from the same heap: nothing of the
        # first is alive, and collected, when the second begins.
        del plain
        gc.collect()
        traced = workloads.run_job(workload, inputs, daemon, f"t{index}",
                                   timeline, rec)
        verifier.repetition(traced)
        figures = Round(workload, inputs, traced, timeline, rec)
        if workload.service:
            figures.service_partition()
        else:
            figures.local_partition()
        figures.downstream()
        figures.shares()
        figures.values.update({
            "raw.job_s": timeline.raw(*plain_job),
            "trace.overhead_frac": (
                timeline.scaled(*traced.phases["job"])
                / timeline.scaled(*plain_job) - 1.0),
        })
        rounds.append(figures.values)
        if index == 0:
            direct.update(figures.direct)
            once.update(figures.process_backend())
            if workload.primary.algorithm == "adwise":
                batches = (traced.tenants[0].batches if workload.service
                           else traced.batches)
                once.update(window_counters(inputs, workload.primary,
                                            batches, timeline))

    workloads.repeat(seconds, max(at_least // 2, 1), one_round)
    verifier.run_level(direct)

    os.makedirs(trace_dir, exist_ok=True)
    trace_path = os.path.join(trace_dir, f"{workload.name}.json")
    spans = rec.write_chrome_trace(trace_path, workload.name)
    names = set().union(*rounds)
    metrics = {name: statistics.median(r[name] for r in rounds if name in r)
               for name in names}
    metrics.update(once)
    metrics.update({
        "core.kernel_native": float(
            _kernels.resolve_backend_name() in ("cc", "numba")),
        "host.speed": timeline.speed(),
        "host.speed_spread": timeline.speed_spread(),
        "trace.spans": spans,
    })
    unattributed = metrics["share.unattributed"]
    if unattributed > UNATTRIBUTED_WARNING:
        print(f"warning: {unattributed:.1%} of the traced job is not "
              f"attributed to any layer")
    return metrics, {"rounds": len(rounds), "trace_file": trace_path}
