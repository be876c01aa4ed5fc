"""Command-line interface: partition an edge-list file with any strategy.

Examples::

    adwise partition graph.txt --algorithm adwise --partitions 32 \
        --latency-preference 500
    adwise stats graph.txt
    adwise process graph.txt graph.parts --cluster --backend process
    adwise pipeline graph.txt --algorithm adwise --partitions 8 \
        --workload pagerank --cluster
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

import numpy as np

from repro.core.adaptive import check_latency_preference
from repro.graph.io import iter_edge_blocks, read_graph
from repro.graph.shard import ShardedGraph
from repro.graph.stream import FileEdgeStream
from repro.graph.stats import summarize
from repro.partitioning.parallel import partitioner_registry
from repro.partitioning.partition_io import read_columns, write_assignments
from repro.simtime import SimulatedClock, WallClock

#: Single source of truth for --algorithm choices, shared with
#: PartitionerSpec so the serial and parallel paths can never drift.
_ALGORITHMS = partitioner_registry()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adwise",
        description="Streaming vertex-cut graph partitioning (ADWISE repro)")
    sub = parser.add_subparsers(dest="command", required=True)

    part = sub.add_parser("partition", help="partition an edge-list file")
    part.add_argument("path", help="edge-list file (u v per line)")
    part.add_argument("--algorithm", choices=sorted(_ALGORITHMS),
                      default="adwise")
    part.add_argument("--partitions", type=int, default=32,
                      help="number of partitions k")
    part.add_argument("--latency-preference", type=float, default=None,
                      help="ADWISE latency preference L in ms")
    part.add_argument("--no-clustering", action="store_true",
                      help="disable ADWISE's clustering score")
    part.add_argument("--wall-clock", action="store_true",
                      help="measure wall-clock instead of simulated latency")
    part.add_argument("--workers", type=int, default=1,
                      help="parallel loading with z partitioner instances "
                           "over byte-offset chunks of the input file "
                           "(paper §III-D); 1 = single-instance streaming")
    part.add_argument("--backend", choices=["process", "simulated"],
                      default=None,
                      help="execution backend for --workers > 1: real OS "
                           "processes (default) or the sequential "
                           "simulator (bit-identical results)")
    part.add_argument("--spread", type=int, default=None,
                      help="partitions each parallel instance may fill "
                           "(default k/z, the spotlight setting; k = "
                           "maximal spread)")
    part.add_argument("--output", default=None,
                      help="write 'u v partition' lines to this file")

    stats = sub.add_parser("stats", help="Table II-style graph summary")
    stats.add_argument("path", help="edge-list file")
    stats.add_argument("--sample", type=int, default=2000,
                       help="vertex sample size for clustering estimate")

    process = sub.add_parser(
        "process",
        help="run a graph algorithm on a partitioned graph "
             "(simulated, or sharded with --cluster)")
    process.add_argument("graph", help="edge-list file")
    process.add_argument("assignments",
                         help="'u v partition' file (see partition "
                              "--output; .gz supported)")
    _add_processing_arguments(process)

    pipeline = sub.add_parser(
        "pipeline",
        help="partition, persist the assignment, then process — the "
             "whole paper pipeline in one invocation")
    pipeline.add_argument("path", help="edge-list file (u v per line)")
    pipeline.add_argument("--algorithm", choices=sorted(_ALGORITHMS),
                          default="adwise")
    pipeline.add_argument("--partitions", type=int, default=32,
                          help="number of partitions k")
    pipeline.add_argument("--latency-preference", type=float, default=None,
                          help="ADWISE latency preference L in ms")
    pipeline.add_argument("--no-clustering", action="store_true",
                          help="disable ADWISE's clustering score")
    pipeline.add_argument("--load-workers", type=int, default=1,
                          help="parallel loading instances for the "
                               "partitioning stage (1 = serial streaming)")
    pipeline.add_argument("--spread", type=int, default=None,
                          help="partitions per parallel loading instance "
                               "(default k/z)")
    pipeline.add_argument("--output", default=None,
                          help="assignment file to write between the "
                               "stages (default <input>.parts; a .gz "
                               "suffix compresses transparently)")
    _add_processing_arguments(pipeline)

    serve = sub.add_parser(
        "serve",
        help="run the multi-tenant partitioning daemon "
             "(ndjson over TCP; see repro.service)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7733,
                       help="TCP port (0 = pick a free port and print it)")
    serve.add_argument("--max-tenants", type=int, default=64,
                       help="maximum concurrently open sessions")
    serve.add_argument("--queue-depth", type=int, default=16,
                       help="per-tenant ingest queue bound (backpressure)")
    serve.add_argument("--wal-dir", default=None,
                       help="directory for per-tenant write-ahead logs: "
                            "every ingest batch is logged before it is "
                            "applied, so a killed daemon restarted over "
                            "the same directory resumes every tenant "
                            "bit-identically (without it, tenants live "
                            "in memory only)")
    serve.add_argument("--wal-compact-every", type=int, default=64,
                       help="applied batches between WAL compactions "
                            "(snapshot + truncate; bounds recovery cost)")
    serve.add_argument("--fsync", choices=["always", "batch", "off"],
                       default="batch",
                       help="WAL fsync policy: every append (always), "
                            "batched (default), or page-cache only (off)")

    resume = sub.add_parser(
        "resume",
        help="restart an interrupted --cluster run from its "
             "--checkpoint-dir (last consistent superstep boundary)")
    resume.add_argument("checkpoint_dir",
                        help="directory a previous run checkpointed into")
    resume.add_argument("--cluster-backend", choices=["serial", "process"],
                        default=None,
                        help="override the original run's backend")
    resume.add_argument("--workers", type=int, default=None,
                        help="override worker count (process backend; the "
                             "checkpoint is keyed by partition, so any "
                             "layout can resume it)")
    resume.add_argument("--max-supersteps", type=int, default=None,
                        help="override the original superstep budget")

    top = sub.add_parser(
        "top",
        help="metrics view of a running daemon: service totals plus a "
             "per-tenant table (Prometheus scrape under the hood)")
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument("--port", type=int, default=7733)
    top.add_argument("--raw", action="store_true",
                     help="print the raw Prometheus text exposition "
                          "(what a scraper would ingest) and exit")
    top.add_argument("--watch", type=float, default=None,
                     help="refresh every N seconds until interrupted")

    client = sub.add_parser(
        "client",
        help="stream an edge-list file into a running daemon "
             "and print the tenant's stats")
    client.add_argument("path", help="edge-list file (u v per line)")
    client.add_argument("--host", default="127.0.0.1")
    client.add_argument("--port", type=int, default=7733)
    client.add_argument("--tenant", default="cli",
                        help="tenant name to open (must not exist yet)")
    client.add_argument("--algorithm", choices=sorted(_ALGORITHMS),
                        default="adwise")
    client.add_argument("--partitions", type=int, default=32,
                        help="number of partitions k")
    client.add_argument("--latency-preference", type=float, default=None,
                        help="ADWISE latency preference L in ms")
    client.add_argument("--batch-size", type=int, default=512,
                        help="edges per ingest request")
    client.add_argument("--keep-open", action="store_true",
                        help="leave the tenant open (skip finalize) so "
                             "later invocations or queries can continue it")
    client.add_argument("--retries", type=int, default=5,
                        help="reconnection attempts after a dropped "
                             "connection (jittered exponential backoff); "
                             "0 fails fast")
    return parser


def _add_processing_arguments(parser: argparse.ArgumentParser) -> None:
    """Processing-stage flags shared by ``process`` and ``pipeline``."""
    parser.add_argument("--workload",
                        choices=["pagerank", "components", "coloring"],
                        default="pagerank")
    parser.add_argument("--iterations", type=int, default=100)
    parser.add_argument("--machines", type=int, default=None,
                        help="simulated machine count (default 8; with "
                             "--cluster, also the serial backend's "
                             "machine layout — the process backend "
                             "derives machines from --workers instead)")
    parser.add_argument("--mode", choices=["object", "dense"],
                        default=None,
                        help="execution backend (default dense): "
                             "vectorized CSR kernels (dense; falls back "
                             "per program) or the per-vertex reference "
                             "interpreter (object); not applicable with "
                             "--cluster")
    parser.add_argument("--cluster", action="store_true",
                        help="execute sharded: per-partition CSR shards "
                             "with master/mirror replica sync, measured "
                             "wall-clock and sync traffic next to the "
                             "simulated latency")
    parser.add_argument("--cluster-backend", choices=["serial", "process"],
                        default=None,
                        help="--cluster execution (default serial): "
                             "in-process shards (serial) or one worker "
                             "OS process per machine (process)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes for --cluster-backend "
                             "process (default: one per partition, "
                             "capped at the CPU count)")
    parser.add_argument("--checkpoint-every", type=int, default=None,
                        help="with --cluster: checkpoint shard state every "
                             "N supersteps, enabling rollback recovery "
                             "from worker deaths")
    parser.add_argument("--checkpoint-dir", default=None,
                        help="with --checkpoint-every: persist checkpoints "
                             "here so an interrupted run can be restarted "
                             "with `adwise resume`")
    parser.add_argument("--heartbeat-timeout", type=float, default=None,
                        help="with --cluster-backend process: per-reply "
                             "bound in seconds before a wedged worker is "
                             "declared dead (default 30)")


def _partition_file(args: argparse.Namespace, workers: int,
                    workers_flag: str):
    """The partitioning stage of ``partition`` and ``pipeline``: parallel
    loading with ``workers`` > 1 instances over byte-offset chunks of the
    file (paper §III-D), else one streaming partitioner.  Returns the
    result, or exit code 2 after printing the error."""
    options = vars(args)
    clock_factory = WallClock if options.get("wall_clock") else SimulatedClock
    kwargs: dict = {}
    if args.algorithm == "adwise":
        # The window controller refuses these only when the stream
        # begins (in a worker, with parallel loading): refuse them here.
        try:
            check_latency_preference(args.latency_preference)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        kwargs.update(latency_preference_ms=args.latency_preference,
                      use_clustering=not args.no_clustering)
    partitions = list(range(args.partitions))
    if workers > 1:
        from repro.partitioning.parallel import ParallelLoader, PartitionerSpec

        try:
            loader = ParallelLoader(
                PartitionerSpec(args.algorithm, kwargs),
                partitions=partitions, num_instances=workers,
                spread=args.spread, clock_factory=clock_factory,
                backend=options.get("backend") or "process")
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        # run_file skips the parent-side line-count pass a FileEdgeStream
        # constructor would do; workers count their own slices lazily.
        return loader.run_file(args.path)
    if args.spread is not None or options.get("backend") is not None:
        flags = ("--backend/--spread only apply" if "backend" in options
                 else "--spread only applies")
        print(f"error: {flags} to parallel loading; pass {workers_flag} N "
              "(N > 1)", file=sys.stderr)
        return 2
    try:
        partitioner = _ALGORITHMS[args.algorithm](
            partitions, clock=clock_factory(), **kwargs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return partitioner.partition_stream(FileEdgeStream(args.path))


def _run_partition(args: argparse.Namespace) -> int:
    if args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    result = _partition_file(args, args.workers, "--workers")
    if isinstance(result, int):
        return result
    parallel = args.workers > 1
    print(f"algorithm:          {result.algorithm}")
    if parallel:
        print(f"backend:            {result.backend} "
              f"({result.num_instances} workers, spread {result.spread})")
    print(f"edges assigned:     {result.state.assigned_edges}")
    print(f"replication degree: {result.replication_degree:.4f}")
    print(f"imbalance:          {result.imbalance:.4f}")
    print(f"latency:            {result.latency_ms:.2f} ms "
          f"({'wall' if args.wall_clock else 'simulated'}"
          f"{', max over instances' if parallel else ''})")
    if not parallel:
        for key, value in sorted(result.extras.items()):
            print(f"{key}:{' ' * max(1, 19 - len(key))}{value:g}")
    if args.output:
        write_assignments(args.output, result.assignments)
        print(f"assignments written to {args.output}")
    return 0


def _run_stats(args: argparse.Namespace) -> int:
    graph = read_graph(args.path)
    summary = summarize(args.path, graph, clustering_sample=args.sample)
    print("name         |V|        |E|          c-hat    maxdeg   skew")
    print(summary.row())
    return 0


def _validate_processing_flags(args: argparse.Namespace) -> Optional[str]:
    """Static flag-combination errors, checked *before* any work runs
    (a pipeline may spend minutes partitioning first)."""
    if args.cluster_backend is not None and not args.cluster:
        return "--cluster-backend only applies with --cluster"
    cluster_backend = args.cluster_backend or "serial"
    if args.workers is not None and not (
            args.cluster and cluster_backend == "process"):
        return "--workers only applies to --cluster --cluster-backend process"
    if args.workers is not None and args.workers < 1:
        return "--workers must be >= 1"
    if args.machines is not None and args.machines < 1:
        return "--machines must be >= 1"
    if args.mode is not None and args.cluster:
        return ("--mode selects the simulator's backend; --cluster always "
                "runs sharded dense kernels (with engine fallback)")
    if (args.machines is not None and args.cluster
            and cluster_backend == "process"):
        return ("--machines does not apply to --cluster-backend process "
                "(machines are the workers; pass --workers)")
    if args.checkpoint_every is not None:
        if not args.cluster:
            return "--checkpoint-every only applies with --cluster"
        if args.checkpoint_every < 1:
            return "--checkpoint-every must be >= 1"
    if args.checkpoint_dir is not None and args.checkpoint_every is None:
        return "--checkpoint-dir requires --checkpoint-every"
    if args.heartbeat_timeout is not None:
        if not (args.cluster and cluster_backend == "process"):
            return ("--heartbeat-timeout only applies to --cluster "
                    "--cluster-backend process")
        if args.heartbeat_timeout <= 0:
            return "--heartbeat-timeout must be positive"
    return None


def _print_cluster_report(report, stats) -> None:
    print(f"workload:            {report.algorithm}")
    print(f"execution:           cluster ({report.backend}, "
          f"{report.num_shards} shards, {report.num_machines} "
          f"machines{'' if report.sharded else ', unsharded fallback'})")
    print(f"supersteps:          {report.supersteps}")
    print(f"converged:           {report.converged}")
    print(f"messages sent:       {report.messages_sent}")
    print(f"simulated latency:   {report.latency_ms:.2f} ms")
    print(f"measured wall:       {report.wall_ms_total:.2f} ms")
    if report.sharded:
        print(f"sync messages:       "
              f"{report.remote_sync_messages} remote + "
              f"{report.local_sync_messages} local "
              f"({report.sync_payload_bytes} payload bytes)")
        # Measured unit costs, to hold against engine/cost.py's simulated
        # 0.5 us an edge : 2 us a message.  A message sent crosses one
        # adjacency slot; compute is the slowest host's per superstep.
        compute_ms = sum(t.compute_ms for t in report.telemetry)
        sync_ms = sum(t.sync_ms for t in report.telemetry)
        print(f"compute + exchange:  {compute_ms:.2f} ms + "
              f"{sync_ms:.2f} ms")
        for label, spent_ms, count, unit in (
                ("compute cost:", compute_ms, report.messages_sent,
                 "adjacency slot"),
                ("exchange cost:", sync_ms, report.remote_sync_messages
                 + report.local_sync_messages, "sync message")):
            if count:
                print(f"{label:<21}{1e6 * spent_ms / count:.1f} ns per "
                      f"{unit}")
    if report.checkpoints_written:
        print(f"checkpoints:         {report.checkpoints_written} "
              f"({report.checkpoint_wall_ms:.2f} ms)")
    for event in report.recoveries:
        print(f"recovery:            machine {event.machine} died at "
              f"superstep {event.superstep_detected} ({event.reason}); "
              f"replayed {event.supersteps_lost} supersteps from "
              f"{event.resumed_from} in {event.wall_ms:.2f} ms")
    if stats is not None:
        print(f"replication degree:  {stats.replication_degree:.4f}")


def _run_resume(args: argparse.Namespace) -> int:
    from repro.cluster import ClusterEngine, ClusterError

    if args.workers is not None and args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    if args.max_supersteps is not None and args.max_supersteps < 1:
        print("error: --max-supersteps must be >= 1", file=sys.stderr)
        return 2
    if (args.workers is not None
            and args.cluster_backend not in (None, "process")):
        print("error: --workers only applies to --cluster-backend process",
              file=sys.stderr)
        return 2
    try:
        report = ClusterEngine.resume(
            args.checkpoint_dir,
            backend=args.cluster_backend,
            num_workers=args.workers,
            max_supersteps=args.max_supersteps)
    except (ClusterError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"resumed from:        {args.checkpoint_dir}")
    _print_cluster_report(report, None)
    return 0


def _execute_processing(graph, sharded,
                        args: argparse.Namespace) -> int:
    """Processing stage shared by ``process`` and ``pipeline``: the
    cluster's shards and the simulated engine's placement both come off
    the one :class:`~repro.graph.shard.ShardedGraph` the caller built."""
    from repro.engine.algorithms import (
        ConnectedComponents,
        GreedyColoring,
        PageRank,
    )
    from repro.engine.cost import cost_model_for
    from repro.engine.runtime import Engine

    programs = {
        "pagerank": lambda: PageRank(iterations=args.iterations),
        "components": lambda: ConnectedComponents(),
        "coloring": lambda: GreedyColoring(max_iterations=args.iterations),
    }
    workload = "pagerank" if args.workload != "coloring" else "coloring"
    cost_model = cost_model_for(workload)
    program = programs[args.workload]()
    max_supersteps = args.iterations + 2
    machines = args.machines if args.machines is not None else 8
    mode = args.mode if args.mode is not None else "dense"

    if args.cluster:
        from repro.cluster import ClusterEngine, ClusterError

        kwargs: dict = {"checkpoint_every": args.checkpoint_every,
                        "checkpoint_dir": args.checkpoint_dir}
        if (args.cluster_backend or "serial") == "process":
            if args.heartbeat_timeout is not None:
                kwargs["heartbeat_timeout"] = args.heartbeat_timeout
            engine = ClusterEngine(sharded, cost_model,
                                   backend="process",
                                   num_workers=args.workers, **kwargs)
        else:
            engine = ClusterEngine(sharded, cost_model, backend="serial",
                                   num_machines=machines, **kwargs)
        try:
            report = engine.run(program, max_supersteps=max_supersteps)
        except ClusterError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        _print_cluster_report(report, engine.placement.stats())
        return 0

    placement = sharded.placement(num_machines=machines)
    engine = Engine(graph, placement, cost_model, mode=mode)
    report = engine.run(program, max_supersteps=max_supersteps)
    print(f"workload:            {report.algorithm}")
    print(f"mode:                {mode}")
    print(f"supersteps:          {report.supersteps}")
    print(f"converged:           {report.converged}")
    print(f"messages sent:       {report.messages_sent}")
    print(f"simulated latency:   {report.latency_ms:.2f} ms "
          f"({machines} machines)")
    stats = placement.stats()
    print(f"replication degree:  {stats.replication_degree:.4f}")
    return 0


def _run_process(args: argparse.Namespace) -> int:
    error = _validate_processing_flags(args)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    graph = read_graph(args.graph)
    try:
        u, v, part = read_columns(args.assignments)
        error = _edge_mismatch(args.graph, u, v)
        if error is None:
            sharded = ShardedGraph.from_arrays(u, v, part,
                                               vertices=graph.vertices())
    except ValueError as exc:
        error = str(exc)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return _execute_processing(graph, sharded, args)


def _edge_mismatch(graph_path, u, v) -> Optional[str]:
    """Why the assignment rows ``(u[i], v[i])`` do not cover exactly the
    edges of the graph file (both canonical, with self-loops dropped as
    :func:`read_graph` drops them), or ``None``: the simulated engine runs
    the graph's edges, the cluster the rows.  Both sides stay numpy
    columns until a mismatch has to be named."""
    def pairs(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Sorted, distinct canonical ``(min, max)`` rows."""
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        order = np.lexsort((hi, lo))
        rows = np.column_stack([lo[order], hi[order]])
        distinct = np.ones(len(rows), dtype=bool)
        distinct[1:] = (rows[1:] != rows[:-1]).any(axis=1)
        return rows[distinct]

    edges = np.concatenate([np.empty((0, 2), dtype=np.int64),
                            *iter_edge_blocks(graph_path)])
    edges = edges[edges[:, 0] != edges[:, 1]]
    assigned, present = pairs(u, v), pairs(edges[:, 0], edges[:, 1])
    if np.array_equal(assigned, present):
        return None
    in_file, in_graph = (set(map(tuple, rows.tolist()))
                         for rows in (assigned, present))
    what = (f"graph edge {min(in_graph - in_file)} has no row"
            if in_graph - in_file
            else f"row {min(in_file - in_graph)} is not a graph edge")
    return (f"assignment file does not match the graph: {what} "
            f"({len(assigned)} edges in the file, {len(present)} in the "
            f"graph)")


def _run_pipeline(args: argparse.Namespace) -> int:
    """Chain partition -> write_assignments -> (sharded) process."""
    error = _validate_processing_flags(args)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.load_workers < 1:
        print("error: --load-workers must be >= 1", file=sys.stderr)
        return 2

    result = _partition_file(args, args.load_workers, "--load-workers")
    if isinstance(result, int):
        return result
    assignments = result.assignments

    output = args.output or f"{args.path}.parts"
    written = write_assignments(
        output, assignments,
        header=f"algorithm={args.algorithm} k={args.partitions}")
    print(f"partitioned:         {written} edges "
          f"({args.algorithm}, k={args.partitions}, "
          f"replication {result.replication_degree:.4f})")
    print(f"assignments written: {output}")

    graph = read_graph(args.path)
    sharded = ShardedGraph.from_assignments(
        assignments, partitions=range(args.partitions),
        vertices=graph.vertices())
    return _execute_processing(graph, sharded, args)


def _run_serve(args: argparse.Namespace) -> int:
    from repro.service.server import run_service

    if args.max_tenants < 1 or args.queue_depth < 1:
        print("error: --max-tenants and --queue-depth must be >= 1",
              file=sys.stderr)
        return 2
    if args.wal_compact_every < 1:
        print("error: --wal-compact-every must be >= 1", file=sys.stderr)
        return 2

    def announce(service) -> None:
        durability = "wal" if service.wal_dir is not None else "none"
        print(f"listening on {service.host}:{service.port} "
              f"(max {service.max_tenants} tenants, queue depth "
              f"{service.queue_depth}, durability {durability})",
              flush=True)

    try:
        run_service(host=args.host, port=args.port,
                    max_tenants=args.max_tenants,
                    queue_depth=args.queue_depth,
                    wal_dir=args.wal_dir,
                    wal_compact_every=args.wal_compact_every,
                    fsync=args.fsync,
                    ready_callback=announce)
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _parse_prometheus(text: str) -> dict:
    """Parse text exposition into ``{(name, labels-tuple): value}``.

    Just enough of the format for the ``top`` view: ``#``-comment lines
    are skipped, labels are ``key="value"`` pairs with no escapes the
    exporter doesn't itself produce.
    """
    series: dict = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            key, value = line.rsplit(" ", 1)
        except ValueError:
            continue
        name, labels = key, ()
        if "{" in key and key.endswith("}"):
            name, _, raw = key.partition("{")
            labels = tuple(sorted(
                (pair.split("=", 1)[0],
                 pair.split("=", 1)[1].strip('"'))
                for pair in raw[:-1].split(",") if "=" in pair))
        try:
            series[(name, labels)] = float(value)
        except ValueError:
            continue
    return series


def _render_top(text: str, tenants: list) -> None:
    series = _parse_prometheus(text)

    def scalar(name: str, **labels: str) -> float:
        return series.get((name, tuple(sorted(labels.items()))), 0.0)

    uptime = scalar("repro_service_uptime_seconds")
    print(f"service: {len(tenants)} tenant(s), up {uptime:.1f}s")
    header = (f"{'TENANT':<16} {'ALGO':<8} {'EDGES':>10} {'E/S':>9} "
              f"{'QUEUE':>5} {'SEQ':>6} {'P99MS':>7} {'DUR':>4}")
    print(header)
    for info in sorted(tenants, key=lambda t: t["tenant"]):
        name = info["tenant"]
        eps = scalar("repro_tenant_edges_per_second", tenant=name)
        p99_s = scalar("repro_tenant_ingest_latency_seconds",
                       quantile="0.99", tenant=name)
        print(f"{name:<16} {info['algorithm']:<8} "
              f"{info['edges_ingested']:>10} {eps:>9.0f} "
              f"{info['queue_depth']:>5} {info['applied_seq']:>6} "
              f"{p99_s * 1000.0:>7.2f} "
              f"{'wal' if info['durable'] else '-':>4}")


def _run_top(args: argparse.Namespace) -> int:
    import time as _time

    from repro.service.client import ServiceClient, ServiceError

    if args.watch is not None and args.watch <= 0:
        print("error: --watch must be positive", file=sys.stderr)
        return 2
    try:
        with ServiceClient(host=args.host, port=args.port) as client:
            while True:
                text = client.metrics_text()
                if args.raw:
                    print(text, end="")
                else:
                    _render_top(text, client.tenants())
                if args.watch is None:
                    return 0
                _time.sleep(args.watch)
                print()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        return 0
    except (ServiceError, ConnectionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run_client(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient, ServiceError

    if args.batch_size < 1:
        print("error: --batch-size must be >= 1", file=sys.stderr)
        return 2
    if args.retries < 0:
        print("error: --retries must be >= 0", file=sys.stderr)
        return 2
    knobs: dict = {}
    if args.algorithm == "adwise" and args.latency_preference is not None:
        knobs["latency_preference_ms"] = args.latency_preference
    try:
        with ServiceClient(host=args.host, port=args.port,
                           max_retries=args.retries) as client:
            client.open(args.tenant, algorithm=args.algorithm,
                        partitions=args.partitions, **knobs)
            size = args.batch_size
            rows: list = []
            pending: list = []
            for block in iter_edge_blocks(args.path):
                rows += block.tolist()
                full = len(rows) - len(rows) % size
                pending += [client.ingest_async(args.tenant, rows[i:i + size])
                            for i in range(0, full, size)]
                rows = rows[full:]
            if rows:
                pending.append(client.ingest_async(args.tenant, rows))
            client.drain(pending)
            stats = client.stats(args.tenant)
            session = stats["session"]
            metrics = stats["metrics"]
            print(f"tenant:             {args.tenant}")
            print(f"algorithm:          {session['algorithm']}")
            print(f"edges ingested:     {session['edges_ingested']}")
            print(f"replication degree: "
                  f"{session['replication_degree']:.4f}")
            print(f"imbalance:          {session['imbalance']:.4f}")
            print(f"throughput:         "
                  f"{metrics['edges_per_second']:.0f} edges/s "
                  f"(p99 batch {metrics['p99_ingest_ms']:.2f} ms)")
            if not args.keep_open:
                result = client.finalize(args.tenant)
                print(f"finalized:          "
                      f"{len(result['assignments'])} assignments, "
                      f"replication "
                      f"{result['replication_degree']:.4f}")
    except (ServiceError, ConnectionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "partition":
        return _run_partition(args)
    if args.command == "stats":
        return _run_stats(args)
    if args.command == "process":
        return _run_process(args)
    if args.command == "pipeline":
        return _run_pipeline(args)
    if args.command == "resume":
        return _run_resume(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "top":
        return _run_top(args)
    if args.command == "client":
        return _run_client(args)
    return 2  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
