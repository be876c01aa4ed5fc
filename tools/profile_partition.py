"""cProfile any partitioner over a synthetic workload: top-N hot spots.

The perf work on the window engine (DESIGN.md §9) lives or dies by where
the per-edge time actually goes, so this tool makes the check a one-liner
instead of an ad-hoc script: build a workload, run one partitioner under
cProfile, print the top functions by cumulative and internal time.

Usage::

    PYTHONPATH=src python tools/profile_partition.py \
        --algorithm adwise --window 64 --top 15
    PYTHONPATH=src python tools/profile_partition.py \
        --algorithm adwise --reference   # dict state + object window
    PYTHONPATH=src python tools/profile_partition.py \
        --algorithm hdrf --n 2000 --m 8 --partitions 16

The stream is fed through ``begin/ingest/finalize`` in ``--batch``-edge
batches, once plain (wall clock, edges/s and — where a compiled kernel
ran: ADWISE's array window, HDRF's stream kernel — the seconds spent
inside the C kernels and the kernel calls per ingest batch: ROADMAP
item 4's "kernel share") and once under cProfile (the tables).  Used to
verify that an optimisation actually moved the hot path rather than just
the benchmark number.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats
import sys
import os
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.core.adwise import AdwisePartitioner          # noqa: E402
from repro.graph.generators import barabasi_albert_graph  # noqa: E402
from repro.graph.stream import shuffled                   # noqa: E402
from repro.partitioning.dbh import DBHPartitioner         # noqa: E402
from repro.partitioning.greedy import GreedyPartitioner   # noqa: E402
from repro.partitioning.hashing import HashPartitioner    # noqa: E402
from repro.partitioning.hdrf import HDRFPartitioner       # noqa: E402


def build_partitioner(args):
    partitions = range(args.partitions)
    tier = {"fast": False} if args.reference else {}
    if args.algorithm == "adwise":
        return AdwisePartitioner(
            partitions, fixed_window=args.window,
            latency_preference_ms=(None if args.window else
                                   args.latency_preference), **tier)
    if args.algorithm == "hdrf":
        return HDRFPartitioner(partitions, **tier)
    simple = {
        "greedy": GreedyPartitioner,
        "dbh": DBHPartitioner,
        "hash": HashPartitioner,
    }
    return simple[args.algorithm](partitions)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--algorithm", default="adwise",
                        choices=["adwise", "hdrf", "greedy", "dbh", "hash"])
    parser.add_argument("--reference", action="store_true",
                        help="profile the Python reference tier of "
                             "adwise/hdrf (fast=False) instead of the "
                             "compiled kernels")
    parser.add_argument("--batch", type=int, default=256,
                        help="edges per ingest call")
    parser.add_argument("--window", type=int, default=64,
                        help="fixed ADWISE window size (0 = adaptive)")
    parser.add_argument("--latency-preference", type=float, default=10.0,
                        help="ADWISE latency preference when adaptive")
    parser.add_argument("--partitions", type=int, default=32)
    parser.add_argument("--n", type=int, default=800,
                        help="power-law graph vertices")
    parser.add_argument("--m", type=int, default=10,
                        help="power-law attachment degree")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--top", type=int, default=20,
                        help="rows per profile table")
    parser.add_argument("--sort", default="tottime",
                        choices=["tottime", "cumulative"],
                        help="primary sort of the profile table")
    parser.add_argument("--trace", default=None, metavar="OUT.json",
                        help="also run with repro.obs spans enabled and "
                             "write a Chrome/Perfetto trace of the run "
                             "to this path")
    args = parser.parse_args(argv)
    if args.window == 0:
        args.window = None
    from repro.core import _kernels
    print(f"kernel backend: {_kernels.resolve_backend_name()}")

    graph = barabasi_albert_graph(n=args.n, m=args.m, seed=args.seed)
    edges = list(shuffled(graph.edges(), seed=args.seed + 2))
    batches = [edges[i:i + args.batch]
               for i in range(0, len(edges), args.batch)]

    def run(partitioner):
        partitioner.begin(total_edges=len(edges))
        for batch in batches:
            partitioner.ingest(batch)
        return partitioner.finalize()

    partitioner = build_partitioner(args)
    plain_wall = time.perf_counter()
    run(partitioner)
    plain_wall = time.perf_counter() - plain_wall
    print(f"unprofiled: {plain_wall:.3f}s partition wall, "
          f"{len(edges) / plain_wall:,.0f} edges/s")
    # Whatever ran compiled transactions keeps their tallies: ADWISE's
    # array window, or a single-edge partitioner's kernel binding.
    for kernel in (getattr(partitioner, "window", None),
                   getattr(partitioner, "kernel", None)):
        if hasattr(kernel, "kernel_ns"):
            kernel_s = kernel.kernel_ns / 1e9
            print(f"kernel: {kernel_s:.3f}s inside the C kernels = "
                  f"{kernel_s / plain_wall:.0%} of partition wall; "
                  f"{kernel.kernel_calls} kernel calls over "
                  f"{len(batches) + 1} ingest/finalize batches = "
                  f"{kernel.kernel_calls / (len(batches) + 1):.2f} per batch")

    partitioner = build_partitioner(args)
    if args.trace:
        from repro import obs
        obs.enable()

    profiler = cProfile.Profile()
    wall = time.perf_counter()
    profiler.enable()
    result = run(partitioner)
    profiler.disable()
    wall = time.perf_counter() - wall

    if args.trace:
        from repro import obs
        obs.write_chrome_trace(args.trace, obs.tracer().spans())
        print(f"chrome trace written to {args.trace} "
              f"({len(obs.tracer().spans())} spans; load in Perfetto or "
              f"chrome://tracing)")
        obs.disable()

    print(f"{partitioner.name} over {len(edges)} power-law edges "
          f"(n={args.n}, m={args.m}, k={args.partitions}, "
          f"state={type(partitioner.state).__name__}) under "
          f"cProfile: {wall:.2f}s wall, {len(edges) / wall:,.0f} edges/s")
    print(f"replication_degree={result.replication_degree:.3f} "
          f"imbalance={result.imbalance:.4f} "
          f"score_computations={result.score_computations}")
    out = io.StringIO()
    stats = pstats.Stats(profiler, stream=out)
    stats.sort_stats(args.sort).print_stats(args.top)
    print(out.getvalue())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
