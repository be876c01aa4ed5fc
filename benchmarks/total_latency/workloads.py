"""The whole job, and the three ways the workloads drive it.

Every workload runs the in-process equivalent of ``adwise pipeline FILE
--fast --cluster``: edge file on disk -> 256-edge batches -> a
``repro.api`` session -> ``finalize`` -> ``write_assignments`` ->
``ShardedGraph.from_assignments`` -> serial ``ClusterEngine`` PageRank.
``job-adwise`` and ``job-hdrf`` feed the session in this process;
``job-service`` puts the partitioning behind the daemon and drives it
with a closed-loop load generator that speaks the ndjson protocol
directly, so each ack is stamped when it arrives.

The job only takes timestamps; :mod:`probe` scales them and
:mod:`trace` nests them after the repetition has ended.
"""

from __future__ import annotations

import gc
import os
import threading
from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from time import perf_counter as now
from typing import Dict, List, Optional, Tuple

from repro.api import open_session
from repro.cluster import ClusterEngine
from repro.engine.algorithms import PageRank
from repro.engine.cost import cost_model_for
from repro.graph.generators import powerlaw_cluster_graph
from repro.graph.graph import Edge
from repro.graph.io import write_edges
from repro.graph.shard import ShardedGraph
from repro.graph.stream import FileEdgeStream, shuffled
from repro.partitioning.partition_io import write_assignments

from total_latency.probe import Timeline
from total_latency.service import Daemon, Rendezvous, TenantLog, drive_tenant
from total_latency.trace import PROBE, ROOT

#: Inside a phase, a probe reading is taken between batches once this
#: long has passed since the last one, so that no piece of a timing is
#: scaled by readings further than this from it.
PROBE_GAP_S = 0.2


@dataclass(frozen=True)
class Sizes:
    """Input and job sizes.  1,024 vertices because at HEAD ``fast=True``
    dies on the 1,025th distinct vertex (ROADMAP item 0)."""

    vertices: int = 1024
    attach: int = 24
    triangle_p: float = 0.5
    partitions: int = 32
    batch: int = 256
    machines: int = 8
    iterations: int = 100
    warmup_edges: int = 4096
    parity_edges: int = 1024
    #: Closed loop: batches in flight per connection, and a query the
    #: connection waits for after every ``query_every``-th ingest.
    depth: int = 4
    query_every: int = 4


FULL = Sizes()
SMOKE = Sizes(vertices=256, iterations=10, warmup_edges=1024,
              parity_edges=256)


@dataclass(frozen=True)
class Tenant:
    """One partitioner configuration: a session's, or a daemon tenant's."""

    algorithm: str
    knobs: Tuple[Tuple[str, object], ...]

    def knob_dict(self) -> Dict[str, object]:
        return dict(self.knobs)


ADWISE_FIXED = Tenant("adwise", (("fast", True), ("fixed_window", 256)))
HDRF = Tenant("hdrf", (("fast", True),))
#: The latency preference lets the adaptive window peak at 128 on the
#: benchmark graph (64 is the floor the checks demand), which takes the
#: tenant through the object -> array window migration at w = 8.
ADWISE_ADAPTIVE = Tenant("adwise", (("fast", True),
                                    ("latency_preference_ms", 8000.0)))


@dataclass(frozen=True)
class Workload:
    name: str
    #: The tenant whose partitioning is written, sharded and processed.
    primary: Tenant
    #: ``job-service`` only: the HDRF tenant streaming the same file.
    co_tenant: Optional[Tenant] = None

    @property
    def service(self) -> bool:
        return self.co_tenant is not None


#: Why each was chosen is recorded once, in ``BENCHMARK.json`` (and at
#: length in README.md): ``job-adwise`` puts the work on ``core``,
#: ``job-hdrf`` bypasses it, ``job-service`` adds the daemon on top.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("job-adwise", ADWISE_FIXED),
    Workload("job-hdrf", HDRF),
    Workload("job-service", ADWISE_ADAPTIVE, co_tenant=HDRF),
)}


@dataclass
class Inputs:
    """What set-up hands the job: the edge file and what made it."""

    sizes: Sizes
    seed: int
    path: str
    num_edges: int
    workdir: str


def make_inputs(sizes: Sizes, seed: int, workdir: str) -> Inputs:
    """``orkut1k``: a Holme-Kim graph from ``seed``, shuffled with
    ``seed + 2``, written as an edge-list file."""
    graph = powerlaw_cluster_graph(n=sizes.vertices, m=sizes.attach,
                                   p=sizes.triangle_p, seed=seed)
    stream = shuffled(graph.edges(), seed=seed + 2)
    path = os.path.join(workdir, f"orkut1k-{seed}.txt")
    written = write_edges(path, stream.edges)
    return Inputs(sizes, seed, path, written, workdir)


# ----------------------------------------------------------------------
# What one repetition leaves behind
# ----------------------------------------------------------------------
Interval = Tuple[float, float]


@dataclass
class JobResult:
    """Timestamps and outputs of one repetition of the job."""

    #: ``job``, ``partition``, ``write``, ``shard``, ``process``.
    phases: Dict[str, Interval]
    #: What the caller waited for each 256-edge ingest.
    batch_waits: List[Interval]
    edges_partitioned: int
    assignments: Dict[Edge, int]
    reported_replication: float
    reported_imbalance: float
    extras: Dict[str, float]
    sharded: ShardedGraph
    #: The ``ClusterReport`` of the PageRank run.
    report: object
    write_bytes: int
    #: The parsed batches, for the passes that call inner layers directly.
    batches: List[List[Edge]] = field(default_factory=list)
    #: Spans the second passes hang children on (traced runs only).
    ingest_spans: list = field(default_factory=list)
    finalize_span: object = None
    partition_span: object = None
    tenants: List[TenantLog] = field(default_factory=list)


def _tick(timeline: Timeline, rec) -> None:
    """A probe reading inside the job, kept as a span so that the trace
    can cut it out of the job's wall time as the timeline does."""
    rec.add(PROBE, *timeline.tick())


# ----------------------------------------------------------------------
# The job, partitioned in this process
# ----------------------------------------------------------------------
def run_local_job(workload: Workload, inputs: Inputs, timeline: Timeline,
                  rec) -> JobResult:
    sizes = inputs.sizes
    tenant = workload.primary
    timeline.tick()
    job_start = now()
    stream = FileEdgeStream(inputs.path)
    counted = now()
    session = open_session(tenant.algorithm, partitions=sizes.partitions,
                           expected_edges=len(stream), **tenant.knob_dict())
    opened = now()
    rec.add("bench.graph.io.count", job_start, counted)
    rec.add("bench.api.open", counted, opened)
    reader = iter(stream)
    batches: List[List[Edge]] = []
    waits: List[Interval] = []
    ingest_spans = []
    while True:
        read_start = now()
        batch = list(islice(reader, sizes.batch))
        read_end = now()
        if not batch:
            break
        session.ingest(batch)
        ingested = now()
        rec.add("bench.graph.io.read_batch", read_start, read_end)
        ingest_spans.append(rec.add("bench.api.ingest", read_end, ingested))
        waits.append((read_end, ingested))
        batches.append(batch)
        if ingested - timeline.last_end > PROBE_GAP_S:
            _tick(timeline, rec)
    drain_start = now()
    result = session.finalize()
    partitioned = now()
    finalize_span = rec.add("bench.api.finalize", drain_start, partitioned)
    return JobResult(
        batch_waits=waits,
        edges_partitioned=len(result.assignments),
        assignments=result.assignments,
        reported_replication=result.replication_degree,
        reported_imbalance=result.imbalance,
        extras=dict(result.extras),
        batches=batches, ingest_spans=ingest_spans,
        finalize_span=finalize_span,
        **_downstream(inputs, result.assignments, job_start,
                      (counted, partitioned), timeline, rec))


def _downstream(inputs: Inputs, assignments: Dict[Edge, int],
                job_start: float, partition: Interval, timeline: Timeline,
                rec) -> dict:
    """Write, shard and process the assignments: the part of the job that
    is the same on every workload.  Returns the ``JobResult`` fields it
    fills: the phases, the shards, the report, the bytes written."""
    sizes = inputs.sizes
    parts_path = inputs.path + ".parts"
    _tick(timeline, rec)
    write_start = now()
    write_assignments(parts_path, assignments,
                      header=f"k={sizes.partitions}")
    written = now()
    _tick(timeline, rec)
    shard_start = now()
    sharded = ShardedGraph.from_assignments(
        assignments, partitions=range(sizes.partitions))
    sharded_at = now()
    _tick(timeline, rec)
    process_start = now()
    engine = ClusterEngine(sharded, cost_model_for("pagerank"),
                           backend="serial", num_machines=sizes.machines)
    report = engine.run(PageRank(iterations=sizes.iterations),
                        max_supersteps=sizes.iterations + 2)
    processed = now()
    timeline.tick()
    rec.add("bench.partitioning.write", write_start, written)
    rec.add("bench.graph.shard.build", shard_start, sharded_at)
    rec.add("bench.cluster.process", process_start, processed)
    rec.add(ROOT, job_start, processed)
    return {
        "phases": {"job": (job_start, processed), "partition": partition,
                   "write": (write_start, written),
                   "shard": (shard_start, sharded_at),
                   "process": (process_start, processed)},
        "sharded": sharded, "report": report,
        "write_bytes": os.path.getsize(parts_path)}


# ----------------------------------------------------------------------
# The job, partitioned behind the daemon
# ----------------------------------------------------------------------
def run_service_job(workload: Workload, inputs: Inputs, daemon: Daemon,
                    rep: int, timeline: Timeline, rec) -> JobResult:
    """Both tenants stream the file through the daemon, one thread and
    one connection each; tenant ``a``'s finalize response is then
    written, sharded and processed like the other workloads' result."""
    logs = [TenantLog(f"a-{rep}", workload.primary),
            TenantLog(f"h-{rep}", workload.co_tenant)]
    rendezvous = Rendezvous(partial(_tick, timeline, rec), PROBE_GAP_S,
                            parties=len(logs))
    threads = [threading.Thread(
        target=drive_tenant,
        args=(daemon.port, daemon.wal_dir, inputs, log, rendezvous),
        daemon=True) for log in logs]
    timeline.tick()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    errors = [f"{log.name}: {log.error}" for log in logs if log.error]
    if errors:
        raise RuntimeError("load generator failed: " + "; ".join(errors))
    primary = logs[0]
    response = primary.final_response
    first_open = min(log.open[0] for log in logs)
    last_final = max(log.final[1] for log in logs)
    partition_span = rec.add("bench.service.partition", first_open,
                             last_final)
    decode_start = now()
    assignments = primary.assignments()
    decoded = now()
    rec.add("bench.service.decode", decode_start, decoded)
    downstream = _downstream(inputs, assignments, first_open,
                             (first_open, last_final), timeline, rec)
    # What was in flight on the connections, for the trace viewer only;
    # recorded once the job is over so that it costs the job nothing.
    for tid, log in enumerate(logs, start=1):
        rec.add("bench.service.open", *log.open, concurrent=True, tid=tid)
        rec.add("bench.service.finalize", *log.final, concurrent=True,
                tid=tid)
        for sent, arrived in log.acks:
            rec.add("bench.service.ack", sent, arrived, concurrent=True,
                    tid=tid)
        for start, end in log.reads:
            rec.add("bench.graph.io.read_batch", start, end,
                    concurrent=True, tid=tid)
        for sent, arrived, vertex, _ in log.queries:
            rec.add("bench.service.query", sent, arrived, concurrent=True,
                    tid=tid, vertex=vertex)
    return JobResult(
        batch_waits=[wait for log in logs for wait in log.acks],
        edges_partitioned=sum(len(log.final_response["assignments"])
                              for log in logs),
        assignments=assignments,
        reported_replication=response["replication_degree"],
        reported_imbalance=response["imbalance"],
        extras=dict(response.get("extras", {})),
        partition_span=partition_span, tenants=logs, **downstream)


# ----------------------------------------------------------------------
# Repeating it
# ----------------------------------------------------------------------
def run_job(workload: Workload, inputs: Inputs, daemon: Optional[Daemon],
            rep, timeline: Timeline, rec) -> JobResult:
    if workload.service:
        return run_service_job(workload, inputs, daemon, rep, timeline, rec)
    return run_local_job(workload, inputs, timeline, rec)


def repeat(seconds: float, at_least: int, one_repetition) -> None:
    """Call ``one_repetition(index)`` for about ``seconds``: another is
    started while the time left is more than half the last one took.
    The collector runs before each repetition and stays on."""
    started = now()
    index, last = 0, 0.0
    while index < at_least or now() - started + last / 2.0 < seconds:
        gc.collect()
        before = now()
        one_repetition(index)
        last = now() - before
        index += 1
