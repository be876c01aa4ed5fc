"""What a run does around its repetitions: set-up, the end-to-end
figures of one repetition, and the verification of every output."""

from __future__ import annotations

import contextlib
import os
import resource
from itertools import islice
from typing import Dict, List, Optional

from repro.api import open_session
from repro.graph.io import iter_edge_file, write_edges

from total_latency import checks, layers, workloads
from total_latency.probe import Timeline, nearest_rank
from total_latency.service import Daemon
from total_latency.trace import NullRecorder


def set_up(workload, sizes, seed: int, workdir: str, src: str,
           stack: contextlib.ExitStack):
    """Everything before the first timed repetition: the graph from the
    seed, the edge file, the daemon up to its first ``ping``
    (``job-service``) and one warm-up job on the first stream edges
    (loads or compiles the kernels).  Returns ``(inputs, daemon)``; the
    daemon is stopped when ``stack`` unwinds."""
    inputs = workloads.make_inputs(sizes, seed, workdir)
    daemon = (stack.enter_context(Daemon(workdir, src))
              if workload.service else None)
    head = islice(iter_edge_file(inputs.path), sizes.warmup_edges)
    warm_path = os.path.join(workdir, "warmup.txt")
    warm = workloads.Inputs(sizes, seed, warm_path,
                            write_edges(warm_path, head), workdir)
    workloads.run_job(workload, warm, daemon, "warm", Timeline(),
                      NullRecorder())
    return inputs, daemon


def parity_problems(workload, inputs) -> List[str]:
    """``fast=True`` against ``fast=False`` on the first stream edges.
    A check, not set-up a user pays for: the legacy ADWISE window takes
    seconds over 1,024 edges, so it runs once, outside the timed set-ups."""
    sizes = inputs.sizes
    head = list(islice(iter_edge_file(inputs.path), sizes.parity_edges))
    outputs = []
    for fast in (True, False):
        knobs = dict(workload.primary.knob_dict(), fast=fast)
        session = open_session(
            workload.primary.algorithm, partitions=sizes.partitions,
            expected_edges=sizes.parity_edges, **knobs)
        session.ingest(head)
        outputs.append(session.finalize().assignments)
    return checks.check_same("fast against legacy", outputs[1], outputs[0])


def end_to_end(job, timeline: Timeline) -> Dict[str, float]:
    """One repetition's end-to-end figures at reference speed."""
    waits = [timeline.scaled(start, end) for start, end in job.batch_waits]
    return {
        "job_s": timeline.scaled(*job.phases["job"]),
        "partition_eps": (job.edges_partitioned
                          / timeline.scaled(*job.phases["partition"])),
        "batch_p50_ms": nearest_rank(waits, 0.50) * 1000.0,
        "batch_p95_ms": nearest_rank(waits, 0.95) * 1000.0,
        "shard_build_s": timeline.scaled(*job.phases["shard"]),
        "process_s": timeline.scaled(*job.phases["process"]),
        "replication_degree": job.sharded.replication_degree,
    }


def peak_rss_mb(daemon) -> float:
    """Largest resident set of this process, the children it waited for
    and the daemon (``ru_maxrss`` is in KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return max(own, children, daemon.peak_rss_mb() if daemon else 0.0)


class Verifier:
    """Checks repetitions as they finish and keeps the failure count.

    The first repetition is checked in full; the others must reproduce
    its assignment digest and PageRank states exactly, which is what
    makes checking them cheap.  An operation is a repetition, the set-up
    check and, on ``job-service``, each ack and each query."""

    def __init__(self, workload, inputs, timeline: Timeline) -> None:
        self.workload = workload
        self.inputs = inputs
        self.timeline = timeline
        self.first = None
        self.digest = ""
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, problems: List[str]) -> None:
        """Count one operation; it failed if anything is wrong with it."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def repetition(self, job) -> None:
        problems: List[str] = []
        for log in job.tenants:
            self.attempted += log.sent + len(log.queries)
            self.failed += log.failed
            problems += checks.check_acks(log.name, log.sent, len(log.acks))
        digest = checks.digest(job.assignments)
        if self.first is None:
            self.first, self.digest = job, digest
            stream_edges = [(e.u, e.v)
                            for e in iter_edge_file(self.inputs.path)]
            problems += checks.check_partitioning(
                stream_edges, job.assignments, self.inputs.sizes.partitions,
                job.reported_replication, job.sharded.replication_degree)
        else:
            problems += checks.check_same(
                "assignment digest across repetitions", self.digest, digest)
            if (job.report.states != self.first.report.states
                    or job.report.supersteps
                    != self.first.report.supersteps):
                problems.append("PageRank differs between repetitions")
        self.check(problems)

    def run_level(self, direct: Optional[dict] = None) -> None:
        """Once per run, on the first repetition: PageRank against the
        dense engine and, on ``job-service``, the window's peak and each
        tenant against a direct session fed the same batches (``direct``
        has the sessions' results when the traced run made them)."""
        job = self.first
        reference, _ = layers.dense_engine_run(self.inputs, job.sharded,
                                               self.timeline)
        problems = checks.check_pagerank(
            job.report.states, job.report.supersteps,
            reference.states, reference.supersteps)
        if self.workload.service:
            problems += checks.check_window(job.extras.get("max_window", 0.0))
        for log in job.tenants:
            result = (direct or {}).get(log.name) or layers.direct_session(
                self.inputs, log.tenant, log.batches, self.timeline)[0]
            problems += checks.check_tenant(
                log.name,
                [(vertex, answer) for _, _, vertex, answer in log.queries],
                log.assignments(), result.assignments)
        self.check(problems)
