"""Service benchmark: multi-tenant daemon throughput vs direct sessions.

Boots a real :class:`~repro.service.server.PartitionService`, opens
interleaved tenants (different algorithms, same stream), pipelines edge
batches over TCP, and records

* aggregate service throughput (edges/sec across all tenants) beside
  the aggregate throughput of direct in-process ``partition_stream``
  runs of the same streams, measured back-to-back on the same machine,
  and their ratio — once, for the whole mix;
* per tenant, what is measured per tenant: p99 ingest-batch latency
  (from the daemon's own metrics), the simulated ``latency_ms``, the
  replication degree and **parity** — the tenant's final assignment
  must be bit-identical to its direct run.

``--durability`` adds what the write-ahead log costs at ``fsync=batch``
and how fast a cold recovery replays it (:func:`run_durability`).  The
readings are recorded, not gated; a parity break is the only thing that
exits non-zero.

Usage::

    PYTHONPATH=src python benchmarks/bench_service.py               # full
    PYTHONPATH=src python benchmarks/bench_service.py --smoke \
        --durability --repeats 1 --out bench_service_smoke.json     # CI
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import sys
import tempfile
import threading
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.api import open_session                                # noqa: E402
from repro.graph.generators import barabasi_albert_graph          # noqa: E402
from repro.graph.graph import Edge                                # noqa: E402
from repro.graph.stream import InMemoryEdgeStream                 # noqa: E402
from repro.partitioning.parallel import partitioner_registry      # noqa: E402
from repro.service.client import ServiceClient                    # noqa: E402
from repro.service.server import PartitionService, run_service    # noqa: E402
from repro.service.wal import (                                   # noqa: E402
    TenantWAL,
    wal_path,
    wal_snapshot_path,
)
from repro.simtime import SimulatedClock                          # noqa: E402

#: The interleaved tenant mix: name -> (algorithm, knobs), from the
#: cheap hashed baseline to windowed ADWISE.
TENANTS = {
    "t-adwise": ("adwise", {"latency_preference_ms": 50.0}),
    "t-hdrf": ("hdrf", {}),
    "t-dbh": ("dbh", {}),
}

NUM_PARTITIONS = 8

DURABILITY_TENANT = "t-wal"
#: ~4 compactions over the full stream — compaction (snapshot pickle +
#: log truncate) is in the measured window, at an amortized cadence.
DURABILITY_COMPACT_EVERY = 100


def build_stream(smoke: bool):
    if smoke:
        name, n, m = "service-multitenant-smoke", 4_000, 4
    else:
        name, n, m = "service-multitenant", 20_000, 5
    graph = barabasi_albert_graph(n=n, m=m, seed=5)
    edges = [(e.u, e.v) for e in graph.edges()]
    return name, edges


def direct_run(algorithm: str, knobs: dict, edges):
    """In-process reference: result + wall seconds."""
    partitioner = partitioner_registry()[algorithm](
        list(range(NUM_PARTITIONS)), clock=SimulatedClock(), **knobs)
    stream = InMemoryEdgeStream([Edge(u, v) for u, v in edges])
    begin = time.perf_counter()
    result = partitioner.partition_stream(stream)
    return result, time.perf_counter() - begin


def boot_daemon(**service_kwargs):
    ready = threading.Event()
    bound = {}

    def on_ready(service):
        bound["port"] = service.port
        ready.set()

    thread = threading.Thread(
        target=run_service,
        kwargs=dict(port=0, queue_depth=16, ready_callback=on_ready,
                    **service_kwargs),
        daemon=True)
    thread.start()
    if not ready.wait(10):
        raise RuntimeError("service did not start")
    return bound["port"], thread


def service_run(edges, batch_size: int):
    """One interleaved multi-tenant run; returns (wall_s, per-tenant)."""
    port, thread = boot_daemon()
    per_tenant = {}
    with ServiceClient(port=port) as client:
        for tenant, (algorithm, knobs) in TENANTS.items():
            client.open(tenant, algorithm=algorithm,
                        partitions=NUM_PARTITIONS,
                        expected_edges=len(edges), **knobs)
        begin = time.perf_counter()
        pending = {tenant: [] for tenant in TENANTS}
        for start in range(0, len(edges), batch_size):
            batch = edges[start:start + batch_size]
            for tenant in TENANTS:
                pending[tenant].append(client.ingest_async(tenant, batch))
        for tenant, ids in pending.items():
            client.drain(ids)
        wall = time.perf_counter() - begin
        for tenant in TENANTS:
            stats = client.stats(tenant)
            per_tenant[tenant] = {
                "p99_ms": stats["metrics"]["p99_ingest_ms"],
                "final": None,
            }
        for tenant in TENANTS:
            per_tenant[tenant]["final"] = client.finalize(tenant)
        client.shutdown()
    thread.join(10)
    return wall, per_tenant


def durability_service_run(edges, batch_size: int, wal_dir, fsync="batch"):
    """One single-tenant daemon run, with or without a WAL; returns
    (ingest wall seconds, finalize response)."""
    kwargs = {}
    if wal_dir is not None:
        kwargs = dict(wal_dir=wal_dir, fsync=fsync,
                      wal_compact_every=DURABILITY_COMPACT_EVERY)
    port, thread = boot_daemon(**kwargs)
    with ServiceClient(port=port) as client:
        client.open(DURABILITY_TENANT, algorithm="hdrf",
                    partitions=NUM_PARTITIONS, expected_edges=len(edges))
        begin = time.perf_counter()
        pending = [client.ingest_async(DURABILITY_TENANT,
                                       edges[start:start + batch_size])
                   for start in range(0, len(edges), batch_size)]
        client.drain(pending)
        wall = time.perf_counter() - begin
        final = client.finalize(DURABILITY_TENANT)
        client.shutdown()
    thread.join(10)
    return wall, final


def cold_recovery_run(edges, batch_size: int, wal_dir):
    """Build the on-disk state a daemon killed before its first
    compaction leaves behind (snapshot at seq 0 + a WAL holding every
    batch), then time a fresh daemon's recovery over it.  Returns
    (recovery wall seconds, replayed batch count, finalize result)."""
    os.makedirs(wal_dir, exist_ok=True)
    session = open_session(algorithm="hdrf", partitions=NUM_PARTITIONS,
                           expected_edges=len(edges))
    snapshot = session.snapshot()
    snapshot.seq = 0
    snapshot.save(wal_snapshot_path(wal_dir, DURABILITY_TENANT))
    wal = TenantWAL(wal_path(wal_dir, DURABILITY_TENANT),
                    {"tenant": DURABILITY_TENANT, "algorithm": "hdrf",
                     "partitions": list(range(NUM_PARTITIONS)),
                     "format": 1}, fsync="off")
    for seq, start in enumerate(range(0, len(edges), batch_size),
                                start=1):
        wal.append(seq, edges[start:start + batch_size])
    wal.close()

    box = {}

    async def recover():
        service = PartitionService(port=0, wal_dir=wal_dir)
        begin = time.perf_counter()
        await service.start()
        wall = time.perf_counter() - begin
        box["replayed"] = service.recovered[DURABILITY_TENANT]
        tenant = service.tenants[DURABILITY_TENANT]
        box["final"] = tenant.session.finalize()
        await service.stop()
        return wall

    wall = asyncio.run(recover())
    return wall, box["replayed"], box["final"]


def run_durability(repeats: int, batch_size: int) -> dict:
    """The ``--durability`` readings: WAL overhead and cold recovery.

    Always measured on the full-size stream, even under ``--smoke``: the
    smoke stream finishes in ~0.2 s, where one scheduling hiccup moves a
    throughput ratio by more than the WAL costs.  Baseline and measured
    runs alternate in adjacent pairs and the best pair is recorded —
    ambient load only ever slows a run, so the cleanest pair is the
    truest estimate.
    """
    _, edges = build_stream(smoke=False)
    reference = None

    wal_pairs, wal_parity = [], True
    for _ in range(repeats):
        nowal_wall, _ = durability_service_run(edges, batch_size, None)
        workdir = tempfile.mkdtemp(prefix="bench-service-wal-")
        try:
            wal_wall, final = durability_service_run(
                edges, batch_size, os.path.join(workdir, "wal"))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if reference is None:
            reference = final["assignments"]
        wal_parity = wal_parity and final["assignments"] == reference
        wal_pairs.append((nowal_wall, wal_wall))
    nowal_wall, wal_wall = max(wal_pairs, key=lambda p: p[0] / p[1])

    recovery_pairs, recovery_parity, replayed = [], True, 0
    for _ in range(repeats):
        result, direct_wall = direct_run("hdrf", {}, edges)
        triples = sorted([e.u, e.v, p]
                         for e, p in result.assignments.items())
        recovery_parity = recovery_parity and triples == reference
        workdir = tempfile.mkdtemp(prefix="bench-service-recover-")
        try:
            recovery_wall, replayed, final = cold_recovery_run(
                edges, batch_size, os.path.join(workdir, "wal"))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        triples = sorted([e.u, e.v, p]
                         for e, p in final.assignments.items())
        recovery_parity = recovery_parity and triples == reference
        recovery_pairs.append((direct_wall, recovery_wall))
    direct_wall, recovery_wall = max(recovery_pairs,
                                     key=lambda p: p[0] / p[1])

    return {
        # Durable (fsync=batch, compaction included) vs non-durable
        # daemon throughput.
        "wal_overhead": {
            "edges": len(edges),
            "nowal_eps": len(edges) / nowal_wall,
            "wal_eps": len(edges) / wal_wall,
            "overhead_pct": 100.0 * (1.0 - nowal_wall / wal_wall),
            "parity": wal_parity,
        },
        # WAL replay beside direct in-process ingest of the same stream;
        # parity means the recovered tenant finalizes bit-identically.
        "cold_recovery": {
            "edges": len(edges),
            "replayed_batches": replayed,
            "recovery_wall_s": recovery_wall,
            "recovery_eps": len(edges) / recovery_wall,
            "direct_eps": len(edges) / direct_wall,
            "parity": recovery_parity,
        },
    }


def run_benchmark(smoke: bool, repeats: int, batch_size: int) -> dict:
    workload, edges = build_stream(smoke)
    total_edges = len(edges) * len(TENANTS)

    # Direct references: best wall over repeats, parity data once.
    references = {}
    direct_walls = []
    for attempt in range(repeats):
        wall_sum = 0.0
        for tenant, (algorithm, knobs) in TENANTS.items():
            result, wall = direct_run(algorithm, knobs, edges)
            wall_sum += wall
            if attempt == 0:
                references[tenant] = sorted(
                    [e.u, e.v, p]
                    for e, p in result.assignments.items())
        direct_walls.append(wall_sum)
    direct_wall = min(direct_walls)

    best_service_wall = None
    per_tenant = None
    for _ in range(repeats):
        wall, tenants = service_run(edges, batch_size)
        if best_service_wall is None or wall < best_service_wall:
            best_service_wall = wall
            per_tenant = tenants

    direct_eps = total_edges / direct_wall
    service_eps = total_edges / best_service_wall
    rows = []
    for tenant, (algorithm, _) in TENANTS.items():
        final = per_tenant[tenant]["final"]
        rows.append({
            "tenant": tenant,
            "algorithm": algorithm,
            "p99_ms": per_tenant[tenant]["p99_ms"],
            "latency_ms": final["latency_ms"],
            "replication_degree": final["replication_degree"],
            "parity": final["assignments"] == references[tenant],
        })
    return {
        "workload": workload,
        "smoke": smoke,
        "edges_per_tenant": len(edges),
        "batch_size": batch_size,
        "num_partitions": NUM_PARTITIONS,
        "direct_eps": direct_eps,
        "service_eps": service_eps,
        "service_over_direct": service_eps / direct_eps,
        "tenants": rows,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small stream for CI")
    parser.add_argument("--durability", action="store_true",
                        help="also record WAL overhead and cold-recovery "
                             "speed (full-size stream)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats (best-of)")
    parser.add_argument("--batch-size", type=int, default=256,
                        help="edges per ingest request")
    parser.add_argument("--out", default=None,
                        help="write the JSON report here")
    args = parser.parse_args(argv)

    report = run_benchmark(args.smoke, max(1, args.repeats),
                           args.batch_size)
    if args.durability:
        report["durability"] = run_durability(max(1, args.repeats),
                                              args.batch_size)
    print(f"workload: {report['workload']} "
          f"({len(report['tenants'])} tenants x "
          f"{report['edges_per_tenant']} edges)")
    print(f"  service {report['service_eps']:.0f} e/s vs direct "
          f"{report['direct_eps']:.0f} e/s in-process: ratio "
          f"{report['service_over_direct']:.3f}")
    for row in report["tenants"]:
        print(f"  {row['tenant']:<9} {row['algorithm']:<7} p99 "
              f"{row['p99_ms']:.2f} ms, latency {row['latency_ms']:.1f} "
              f"ms, replication {row['replication_degree']:.3f}, parity "
              f"{'ok' if row['parity'] else 'BROKEN'}")
    durability = report.get("durability", {})
    if durability:
        wal, cold = durability["wal_overhead"], durability["cold_recovery"]
        print(f"  WAL at fsync=batch: {wal['wal_eps']:.0f} e/s vs "
              f"{wal['nowal_eps']:.0f} e/s without, "
              f"{wal['overhead_pct']:+.1f}% overhead, parity "
              f"{'ok' if wal['parity'] else 'BROKEN'}")
        print(f"  cold recovery: {cold['replayed_batches']} batches in "
              f"{cold['recovery_wall_s']:.2f} s = "
              f"{cold['recovery_eps']:.0f} e/s (direct ingest "
              f"{cold['direct_eps']:.0f} e/s), parity "
              f"{'ok' if cold['parity'] else 'BROKEN'}")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
        print(f"report written to {args.out}")

    broken = [row["tenant"] for row in report["tenants"] if not row["parity"]]
    broken += [name for name, row in durability.items() if not row["parity"]]
    if broken:
        print(f"\nPARITY BROKEN: {', '.join(broken)} differ from the "
              f"direct partition_stream reference")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
