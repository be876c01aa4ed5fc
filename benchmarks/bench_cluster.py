"""Cluster-runtime benchmark: partitioning quality -> real processing speed.

The paper's headline claim is that better (ADWISE window-based)
partitions make downstream distributed processing measurably faster.
This script runs that claim on the cluster runtime (:mod:`repro.cluster`):
the same graph is partitioned by hashing and by ADWISE, sharded, and
executed — PageRank and connected components — and it records, per
program, each sharding's wall-clock and the remote replica-sync messages
actually exchanged, plus the process backend at 2 and 4 workers; with
``--faults``, what checkpoints cost and how long recovering from a
killed worker takes.

The readings are recorded, not gated.  Parity is checked, and a parity
break is the only thing that exits non-zero:

* the sharded run must match ``Engine(mode="dense")``
  states/supersteps/messages, and its measured per-superstep sync
  messages must equal the :class:`PlacementStats` prediction;
* each process-backend run must reach the serial run's states;
* with ``--faults``, the recovered run must reach the unfaulted states.

Usage::

    PYTHONPATH=src python benchmarks/bench_cluster.py              # full
    PYTHONPATH=src python benchmarks/bench_cluster.py --smoke \
        --faults --repeats 1 --out bench_cluster_smoke.json        # CI
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.cluster import ClusterEngine, FaultInjector, Kill      # noqa: E402
from repro.core.adwise import AdwisePartitioner                   # noqa: E402
from repro.engine.algorithms import (                             # noqa: E402
    ConnectedComponents,
    PageRank,
)
from repro.engine.runtime import Engine                           # noqa: E402
from repro.graph.generators import barabasi_albert_graph          # noqa: E402
from repro.graph.shard import ShardedGraph                        # noqa: E402
from repro.graph.stream import locally_shuffled                   # noqa: E402
from repro.partitioning.hashing import HashPartitioner            # noqa: E402

NUM_PARTITIONS = 8

#: Process-backend worker counts run beside the serial backend.
SCALING_WORKERS = (2, 4)

#: --faults: checkpoint interval.  Checkpoint cost is a property of the
#: box, and as a share of the run it rises whenever the supersteps get
#: faster (9 % -> 12 % when they halved, the checkpoints themselves
#: cheaper).
CHECKPOINT_EVERY = 8


def build_workload(smoke: bool):
    if smoke:
        name, n, m, iterations = "cluster-powerlaw-smoke", 10_000, 4, 15
    else:
        name, n, m, iterations = "cluster-powerlaw", 30_000, 5, 30
    graph = barabasi_albert_graph(n=n, m=m, seed=3)
    return name, graph, iterations


def partition_both(graph):
    """(label -> ShardedGraph, label -> replication degree)."""
    partitions = list(range(NUM_PARTITIONS))

    def stream():
        return locally_shuffled(graph.edges(), buffer_size=512, seed=3)

    sharded = {}
    replication = {}
    for label, partitioner in (
            ("hash", HashPartitioner(partitions)),
            ("adwise", AdwisePartitioner(partitions, fixed_window=8))):
        result = partitioner.partition_stream(stream())
        sharded[label] = ShardedGraph.from_assignments(
            result.assignments, partitions=partitions,
            vertices=graph.vertices())
        replication[label] = result.replication_degree
    return sharded, replication


def algorithms(iterations: int):
    return [
        ("PageRank", lambda: PageRank(iterations=iterations),
         iterations + 2, True),
        ("Components", lambda: ConnectedComponents(), 200, False),
    ]


def states_match(expected, got, float_state: bool) -> bool:
    if set(expected) != set(got):
        return False
    for vertex, want in expected.items():
        have = got[vertex]
        if float_state:
            if not math.isclose(have, want, rel_tol=1e-9, abs_tol=1e-12):
                return False
        elif have != want:
            return False
    return True


def verify_parity(engine_report, cluster_report, placement,
                  float_state: bool) -> bool:
    """Sharded run == dense engine run, and measured sync == predicted."""
    if (cluster_report.supersteps != engine_report.supersteps
            or cluster_report.messages_sent != engine_report.messages_sent
            or cluster_report.converged != engine_report.converged
            or not cluster_report.sharded
            or not states_match(engine_report.states,
                                cluster_report.states, float_state)):
        return False
    stats = placement.stats()
    for telemetry in cluster_report.telemetry:
        if not telemetry.synced:
            if telemetry.remote_messages or telemetry.local_messages:
                return False
            continue
        for machine, predicted in stats.remote_sync_per_machine.items():
            if telemetry.remote_per_machine.get(machine, 0) != predicted:
                return False
        for machine, predicted in stats.local_sync_per_machine.items():
            if telemetry.local_per_machine.get(machine, 0) != predicted:
                return False
    return True


def measure_cluster(sharded, factory, max_supersteps, repeats,
                    backend="serial", num_workers=None):
    """Best-of-``repeats`` cluster run; returns (report, seconds)."""
    kwargs = {"num_workers": num_workers} if backend == "process" else {}
    engine = ClusterEngine(sharded, backend=backend, **kwargs)
    best_report, best_seconds = None, float("inf")
    for _ in range(repeats):
        report = engine.run(factory(), max_supersteps=max_supersteps)
        seconds = report.wall_ms_total / 1000.0
        if seconds < best_seconds:
            best_report, best_seconds = report, seconds
    return engine, best_report, best_seconds


def run_faults(sharded, iterations, repeats):
    """Fault-tolerance costs: checkpoint cost and recovery time.

    Checkpoint cost is time spent capturing + persisting checkpoints,
    per checkpoint and relative to the superstep loop (best ratio over
    ``repeats``, disk-backed so the measurement is honest).  Recovery
    kills a real process-backend worker mid-run and measures the
    rollback (teardown + respawn + restore) plus the supersteps it must
    replay; the recovered states must still match the unfaulted serial
    run bit-for-bit.
    """
    factory = lambda: PageRank(iterations=iterations)  # noqa: E731
    max_supersteps = iterations + 2
    _, serial_report, _ = measure_cluster(
        sharded, factory, max_supersteps, repeats)

    best = None
    with tempfile.TemporaryDirectory() as directory:
        for index in range(repeats):
            engine = ClusterEngine(
                sharded, checkpoint_every=CHECKPOINT_EVERY,
                checkpoint_dir=os.path.join(directory, str(index)))
            started = time.perf_counter()
            report = engine.run(factory(), max_supersteps=max_supersteps)
            run_ms = (time.perf_counter() - started) * 1000.0
            overhead = 100.0 * report.checkpoint_wall_ms / run_ms
            if best is None or overhead < best[0]:
                best = (overhead, run_ms, report)
    overhead_pct, run_wall_ms, checkpointed = best

    recovery = None
    for _ in range(repeats):
        injector = FaultInjector([Kill(superstep=CHECKPOINT_EVERY + 1,
                                       point="pre-gather", machine=1)])
        engine = ClusterEngine(sharded, backend="process", num_workers=2,
                               checkpoint_every=CHECKPOINT_EVERY,
                               fault_injector=injector)
        report = engine.run(factory(), max_supersteps=max_supersteps)
        event = report.recoveries[0]
        if recovery is None or event.wall_ms < recovery["recovery_wall_ms"]:
            recovery = {
                "recovery_wall_ms": event.wall_ms,
                "supersteps_lost": event.supersteps_lost,
                "replay_wall_ms": sum(
                    t.wall_ms for t in report.telemetry
                    if event.resumed_from <= t.superstep
                    < event.superstep_detected),
                "recovery_parity": states_match(
                    serial_report.states, report.states, float_state=True),
            }

    return {
        "checkpoint_every": CHECKPOINT_EVERY,
        "checkpoints_written": checkpointed.checkpoints_written,
        "checkpoint_wall_ms": checkpointed.checkpoint_wall_ms,
        "checkpoint_ms_each": (checkpointed.checkpoint_wall_ms
                               / checkpointed.checkpoints_written),
        "run_wall_ms": run_wall_ms,
        "checkpoint_overhead_pct": overhead_pct,
        **recovery,
    }


def run(smoke: bool, repeats: int, faults: bool = False):
    workload, graph, iterations = build_workload(smoke)
    sharded, replication = partition_both(graph)
    rows = []
    for name, factory, max_supersteps, float_state in algorithms(iterations):
        measurements = {}
        parity = True
        for label in ("hash", "adwise"):
            engine, report, seconds = measure_cluster(
                sharded[label], factory, max_supersteps, repeats)
            dense = Engine(graph, engine.placement, mode="dense").run(
                factory(), max_supersteps=max_supersteps)
            parity = parity and verify_parity(
                dense, report, engine.placement, float_state)
            measurements[label] = (report, seconds)
        hash_report, hash_seconds = measurements["hash"]
        adwise_report, adwise_seconds = measurements["adwise"]
        rows.append({
            "algorithm": name,
            "supersteps": adwise_report.supersteps,
            "messages": adwise_report.messages_sent,
            "hash_wall_ms": hash_seconds * 1000.0,
            "adwise_wall_ms": adwise_seconds * 1000.0,
            "hash_remote_sync": hash_report.remote_sync_messages,
            "adwise_remote_sync": adwise_report.remote_sync_messages,
            "sync_reduction": (hash_report.remote_sync_messages
                               / max(1, adwise_report.remote_sync_messages)),
            "parity": parity,
        })
    scaling = run_scaling(sharded["adwise"], graph, iterations, repeats)
    report = {
        "workload": workload,
        "smoke": smoke,
        "num_vertices": graph.num_vertices,
        "num_edges": graph.num_edges,
        "num_partitions": NUM_PARTITIONS,
        "iterations": iterations,
        "replication": replication,
        "results": rows,
        "scaling": scaling,
    }
    if faults:
        report["faults"] = run_faults(sharded["adwise"], iterations, repeats)
    return report


def run_scaling(sharded, graph, iterations, repeats):
    """Wall-clock and edges/sec vs. worker count (ADWISE PageRank).

    The serial row is the reference; each process-backend row must reach
    state parity with it.
    """
    factory = lambda: PageRank(iterations=iterations)  # noqa: E731
    max_supersteps = iterations + 2
    _, serial_report, serial_seconds = measure_cluster(
        sharded, factory, max_supersteps, repeats)
    rows = [{
        "backend": "serial", "workers": 1,
        "wall_ms": serial_seconds * 1000.0,
        "eps": serial_report.messages_sent / serial_seconds,
        "parity": True,
    }]
    for workers in SCALING_WORKERS:
        _, report, seconds = measure_cluster(
            sharded, factory, max_supersteps, repeats,
            backend="process", num_workers=workers)
        rows.append({
            "backend": "process", "workers": workers,
            "wall_ms": seconds * 1000.0,
            "eps": report.messages_sent / seconds,
            "parity": states_match(serial_report.states, report.states,
                                   float_state=True),
        })
    return rows


def format_report(report) -> str:
    lines = [
        f"Cluster runtime benchmark — {report['workload']} "
        f"({report['num_vertices']} vertices, {report['num_edges']} edges, "
        f"k={report['num_partitions']}, rep hash "
        f"{report['replication']['hash']:.2f} vs adwise "
        f"{report['replication']['adwise']:.2f})",
        f"{'algorithm':<12} {'hash ms':>9} {'adwise ms':>10} "
        f"{'hash sync':>10} {'adwise sync':>12} "
        f"{'sync red.':>9} {'parity':>7}",
    ]
    for row in report["results"]:
        lines.append(
            f"{row['algorithm']:<12} {row['hash_wall_ms']:>9.1f} "
            f"{row['adwise_wall_ms']:>10.1f} "
            f"{row['hash_remote_sync']:>10} {row['adwise_remote_sync']:>12} "
            f"{row['sync_reduction']:>8.2f}x "
            f"{'ok' if row['parity'] else 'FAIL':>7}")
    lines.append("")
    lines.append(f"{'scaling (adwise PageRank)':<28} "
                 f"{'wall ms':>9} {'edges/s':>12} {'parity':>7}")
    for row in report["scaling"]:
        label = f"{row['backend']} x{row['workers']}"
        lines.append(
            f"{label:<28} {row['wall_ms']:>9.1f} {row['eps']:>12.0f} "
            f"{'ok' if row['parity'] else 'FAIL':>7}")
    faults = report.get("faults")
    if faults:
        lines.append("")
        lines.append(
            f"fault tolerance (every {faults['checkpoint_every']} "
            f"supersteps): {faults['checkpoint_ms_each']:.2f} ms a "
            f"checkpoint ({faults['checkpoints_written']} checkpoints, "
            f"{faults['checkpoint_wall_ms']:.1f} ms of a "
            f"{faults['run_wall_ms']:.1f} ms run = "
            f"{faults['checkpoint_overhead_pct']:.2f}%)")
        lines.append(
            f"  recovery: rollback {faults['recovery_wall_ms']:.1f} ms + "
            f"replay of {faults['supersteps_lost']} supersteps "
            f"({faults['replay_wall_ms']:.1f} ms), parity "
            f"{'ok' if faults['recovery_parity'] else 'FAIL'}")
    return "\n".join(lines)


def parity_failures(report) -> list:
    """Parity breaks (empty list == every check held)."""
    problems = [
        f"{row['algorithm']}: cluster/dense parity or measured-vs-"
        f"predicted sync traffic broken"
        for row in report["results"] if not row["parity"]]
    problems += [
        f"scaling {row['backend']} x{row['workers']}: state parity with "
        f"serial broken"
        for row in report["scaling"] if not row["parity"]]
    faults = report.get("faults")
    if faults and not faults["recovery_parity"]:
        problems.append(
            "faults: recovered states diverge from the unfaulted "
            "serial run")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small graph (CI variant)")
    parser.add_argument("--repeats", type=int, default=2,
                        help="wall-clock repeats per configuration "
                             "(best-of)")
    parser.add_argument("--faults", action="store_true",
                        help="also measure checkpoint cost and "
                             "kill-a-worker recovery (parity checked)")
    parser.add_argument("--out", help="write the report as JSON")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    report = run(smoke=args.smoke, repeats=args.repeats, faults=args.faults)
    print(format_report(report))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
        print(f"\nwrote {args.out}")

    problems = parity_failures(report)
    if problems:
        print("\nPARITY BROKEN:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
