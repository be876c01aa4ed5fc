"""Where a partitioning session's wall time goes: layers, then cProfile.

The perf work on the ingest path (DESIGN.md §2, §14) lives or dies by
where the per-edge time actually goes, so this tool makes the check a
one-liner instead of an ad-hoc script: stream an edge file through a
``repro.api`` session in ``--batch``-edge batches, the way a job does,
and print

* the partition wall split into **scan** (the block reader: file
  reads, the compiled line scanner, the per-line parser for what it
  declines), **objects** (turning the scanned rows into the batch's
  ``Edge`` list — nothing with ``--blocks``), **convert** (edge-likes ->
  id columns), **intern** (vertex ids -> dense rows: the native intern
  table, ``kern_intern``), **bind+validate** (the rest of
  ``KernelBinding.stage``), **kernel** (inside the C transaction) and
  **store** (recording the decisions), with the rest of ``ingest`` as
  "other" — and the kernel's share of the partition wall, ROADMAP item
  2's "share in C" gate;
* the intern calls and the transaction's kernel calls per ingest batch,
  separately (one of each on a steady batch);
* for ADWISE's compiled window, one **pump** row from its tallies —
  rescored slots (and how many of them re-assembled their argmax rather
  than keep the cached best column) and agenda length per pop, and CS
  recomputations per edge: what the kernel's time is spent *on* (a hub
  streaming through in ``--order adjacency`` re-derives the CS of every
  slot at it on each of its pops);
* a second run under cProfile, top functions by internal or cumulative
  time.

Usage::

    PYTHONPATH=src python tools/profile_partition.py graph.txt \
        --algorithm hdrf
    PYTHONPATH=src python tools/profile_partition.py \
        --algorithm adwise --window 64 --top 15   # synthetic power-law file
    PYTHONPATH=src python tools/profile_partition.py \
        --algorithm adwise --reference   # dict state + object window
    PYTHONPATH=src python tools/profile_partition.py graph.txt \
        --algorithm hdrf --blocks        # feed (n, 2) arrays: no Edge at all

Without a path a power-law graph (``--n``, ``--m``, ``--seed``) is
written to a temporary edge file first, shuffled or — ``--order
adjacency``, the paper's stream order — one vertex's edges after
another's.  Used to verify that an
optimisation actually moved the hot path rather than just the benchmark
number.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import os
import pstats
import sys
import tempfile
import time
from itertools import islice

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.api import open_session                        # noqa: E402
from repro.core._binding import KernelBinding             # noqa: E402
from repro.graph.generators import barabasi_albert_graph  # noqa: E402
from repro.graph import io as graph_io                    # noqa: E402
from repro.graph.io import write_edges                    # noqa: E402
from repro.graph.stream import FileEdgeStream, shuffled   # noqa: E402
from repro.partitioning import base                       # noqa: E402
from repro.partitioning.fast_state import FastPartitionState  # noqa: E402


class Stopwatch:
    """Seconds spent inside the callables it wraps, and calls made to
    them, by label."""

    def __init__(self) -> None:
        self.seconds = {}
        self.calls = {}

    def wrap(self, label, function):
        def timed(*args, **kwargs):
            self.calls[label] = self.calls.get(label, 0) + 1
            entered = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                self.seconds[label] = (self.seconds.get(label, 0.0)
                                       + time.perf_counter() - entered)
        return timed

    def wrap_generator(self, label, function):
        """The same for a generator function: time inside its frames."""
        def timed(*args, **kwargs):
            inner = function(*args, **kwargs)
            while True:
                entered = time.perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self.seconds[label] = (self.seconds.get(label, 0.0)
                                           + time.perf_counter() - entered)
                yield item
        return timed


def open_for(args, expected_edges):
    knobs = {"fast": False} if args.reference else {}
    if args.algorithm == "adwise":
        knobs.update(fixed_window=args.window,
                     latency_preference_ms=(None if args.window else
                                            args.latency_preference))
    return open_session(args.algorithm, partitions=args.partitions,
                        expected_edges=expected_edges, **knobs)


def batches_of(stream, args):
    """The stream in ``--batch``-edge batches: ``Edge`` lists as a job
    reads them, or with ``--blocks`` slices of the reader's arrays."""
    if args.blocks:
        for block in stream.blocks():
            for start in range(0, len(block), args.batch):
                yield block[start:start + args.batch]
    else:
        reader = iter(stream)
        yield from iter(lambda: list(islice(reader, args.batch)), [])


def run(args):
    """One job's partition phase; returns ``(session, result, parse
    seconds, ingest seconds, batches)``."""
    stream = FileEdgeStream(args.path)
    session = open_for(args, len(stream))
    reader = batches_of(stream, args)
    parse = ingest = 0.0
    batches = 0
    while True:
        started = time.perf_counter()
        batch = next(reader, None)
        read = time.perf_counter()
        parse += read - started
        if batch is None:
            break
        session.ingest(batch)
        ingest += time.perf_counter() - read
        batches += 1
    started = time.perf_counter()
    result = session.finalize()
    ingest += time.perf_counter() - started
    return session, result, parse, ingest, batches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("path", nargs="?", default=None,
                        help="edge file to stream (default: a synthetic "
                             "power-law graph, written to a temp file)")
    parser.add_argument("--algorithm", default="adwise",
                        choices=["adwise", "hdrf", "greedy", "dbh", "hash"])
    parser.add_argument("--reference", action="store_true",
                        help="profile the Python reference tier of "
                             "adwise/hdrf (fast=False) instead of the "
                             "compiled kernels")
    parser.add_argument("--blocks", action="store_true",
                        help="feed the session the block reader's (n, 2) "
                             "arrays instead of Edge lists")
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
    parser.add_argument("--order", default="shuffled",
                        choices=["shuffled", "adjacency"],
                        help="stream order of the synthetic file")
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

    with tempfile.TemporaryDirectory() as workdir:
        if args.path is None:
            graph = barabasi_albert_graph(n=args.n, m=args.m, seed=args.seed)
            args.path = os.path.join(workdir, "graph.txt")
            write_edges(args.path, graph.edges()
                        if args.order == "adjacency"
                        else shuffled(graph.edges(), seed=args.seed + 2))
        run(args)  # warm: compile/load the kernels, fill the page cache
        layers(args)
        profile(args)
    return 0


def layers(args) -> None:
    """The plain run, with a stopwatch on each ingest layer."""
    watch = Stopwatch()
    plain = (base.edge_columns, KernelBinding.stage,
             base.StreamingPartitioner._emit, graph_io.iter_int_rows,
             FastPartitionState.dense_rows)
    rows, timed_rows = plain[3], watch.wrap_generator("scan", plain[3])
    # The counting pass (keep=False) happens before the partition wall.
    graph_io.iter_int_rows = lambda *args, keep=True, **kwargs: (
        timed_rows if keep else rows)(*args, keep=keep, **kwargs)
    base.edge_columns = watch.wrap("convert", base.edge_columns)
    KernelBinding.stage = watch.wrap("stage", KernelBinding.stage)
    FastPartitionState.dense_rows = watch.wrap(
        "intern", FastPartitionState.dense_rows)
    base.StreamingPartitioner._emit = watch.wrap(
        "store", base.StreamingPartitioner._emit)
    try:
        session, result, parse, ingest, batches = run(args)
    finally:
        (base.edge_columns, KernelBinding.stage,
         base.StreamingPartitioner._emit, graph_io.iter_int_rows,
         FastPartitionState.dense_rows) = plain
    edges = result.assignments.rows
    wall = parse + ingest
    print(f"{session.partitioner.name} over {edges} edges of {args.path} "
          f"(k={args.partitions}, "
          f"state={type(session.partitioner.state).__name__}): "
          f"{wall:.3f}s partition wall, {edges / wall:,.0f} edges/s")
    # Whatever ran compiled transactions keeps their tallies: ADWISE's
    # array window, or a single-edge partitioner's kernel binding.
    kernel = next((k for k in (getattr(session.partitioner, "window", None),
                               getattr(session.partitioner, "kernel", None))
                   if hasattr(k, "kernel_ns")), None)
    seconds = dict(watch.seconds)
    seconds["objects"] = parse - seconds["scan"]
    if "stage" in seconds:  # interning happens inside stage
        seconds["bind+validate"] = (seconds.pop("stage")
                                    - seconds.get("intern", 0.0))
    if kernel is not None:
        seconds["kernel"] = kernel.kernel_ns / 1e9
    seconds["other"] = wall - sum(seconds.values())
    for label in ("scan", "objects", "convert", "intern", "bind+validate",
                  "kernel", "store", "other"):
        if label in seconds:
            print(f"  {label:14s}{seconds[label]:8.4f}s "
                  f"{seconds[label] / wall:6.1%}")
    if kernel is not None:
        interns = watch.calls.get("intern", 0)
        print(f"kernel: {seconds['kernel'] / wall:.0%} of partition wall "
              f"inside the C kernels; over {batches + 1} ingest/finalize "
              f"batches {interns} intern calls = "
              f"{interns / (batches + 1):.2f} per batch, "
              f"{kernel.kernel_calls} transaction kernel calls = "
              f"{kernel.kernel_calls / (batches + 1):.2f} per batch")
    pops = getattr(kernel, "stat_pops", 0)
    if pops:  # ADWISE's compiled window
        print(f"pump: {kernel.stat_rescored_slots / pops:.2f} rescored "
              f"slots per pop ({kernel.stat_assembled / pops:.2f} "
              f"re-assembled), {kernel.stat_cs_recomputed / edges:.2f} CS "
              f"recomputations per edge, agenda length "
              f"{kernel.stat_agenda_scanned / pops:.2f} per pop")


def profile(args) -> None:
    """The same run under cProfile (and, with ``--trace``, obs spans)."""
    if args.trace:
        from repro import obs
        obs.enable()
    profiler = cProfile.Profile()
    wall = time.perf_counter()
    profiler.enable()
    session, result, _, _, _ = run(args)
    profiler.disable()
    wall = time.perf_counter() - wall
    if args.trace:
        obs.write_chrome_trace(args.trace, obs.tracer().spans())
        print(f"chrome trace written to {args.trace} "
              f"({len(obs.tracer().spans())} spans; load in Perfetto or "
              f"chrome://tracing)")
        obs.disable()
    edges = result.assignments.rows
    print(f"under cProfile: {wall:.2f}s wall, {edges / wall:,.0f} edges/s; "
          f"replication_degree={result.replication_degree:.3f} "
          f"imbalance={result.imbalance:.4f} "
          f"score_computations={result.score_computations}")
    out = io.StringIO()
    stats = pstats.Stats(profiler, stream=out)
    stats.sort_stats(args.sort).print_stats(args.top)
    print(out.getvalue())


if __name__ == "__main__":
    raise SystemExit(main())
