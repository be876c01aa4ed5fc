"""Fast-path scoring kernel benchmark: legacy vs array-backed state.

Runs every degree-aware partitioner twice over the same synthetic
power-law stream — once on the dict-backed legacy
:class:`~repro.partitioning.state.PartitionState`, once on the
array-backed :class:`~repro.partitioning.fast_state.FastPartitionState`
with the batched ``score_all`` kernels — and reports wall-clock
edges/sec for both, the speedup, and a hard parity check (assignments
and quality must be bit-identical between the paths).

Usage::

    PYTHONPATH=src python benchmarks/bench_fast_path.py            # full
    PYTHONPATH=src python benchmarks/bench_fast_path.py --smoke \
        --check --out bench_smoke.json                             # CI gate
    PYTHONPATH=src python benchmarks/bench_fast_path.py \
        --window-bench --check --out bench_window.json             # window gate

The smoke variant is wired into CI together with
``tools/check_bench_regression.py``, which diffs the emitted JSON
against the committed baseline ``benchmarks/BENCH_seed.json``.

``--window-bench`` measures the array window (the compiled pump)
against a faithful in-process reconstruction of the PR 1 fast path —
the object window driven by PR 1's committed ``score_all`` kernel,
pinned below as :class:`PR1Scoring` — on the power-law workload at
w ≥ 64.  Runs are interleaved and best-of so the ratio is a same-machine
A/B; assignments must stay bit-identical between the two engines.  The
committed baseline is ``benchmarks/BENCH_window.json``.

Speedup gates are per-algorithm: the scoring-bound partitioners (HDRF,
ADWISE) must beat the legacy path outright; greedy must not lose; DBH
computes no partition scores at all (pure degree hashing), so the fast
path can only match its bookkeeping cost — it is gated on rough parity,
not on a win.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

try:
    import numpy as np
except ImportError:  # pragma: no cover - the fast path needs numpy anyway
    np = None

from repro.core.adwise import AdwisePartitioner          # noqa: E402
from repro.core.scoring import AdwiseScoring, _EPSILON   # noqa: E402
from repro.graph.generators import barabasi_albert_graph  # noqa: E402
from repro.graph.stream import InMemoryEdgeStream, shuffled  # noqa: E402
from repro.partitioning.dbh import DBHPartitioner         # noqa: E402
from repro.partitioning.greedy import GreedyPartitioner   # noqa: E402
from repro.partitioning.hdrf import HDRFPartitioner       # noqa: E402

#: Paper setup: k = 32 partitions.
NUM_PARTITIONS = 32

#: Smoke gates: minimum acceptable fast/legacy speedup per algorithm,
#: chosen well below measured values to absorb CI machine noise.  HDRF's
#: fast path is the compiled stream kernel (DESIGN.md §14): six smoke
#: runs on the committing machine measured 16.4x-27.6x, and the floor is
#: the lowest of them less 20 % — a fall back to the per-edge Python
#: loop (2.85x when it was last measured) fails it.  The ADWISE rows
#: are gated at scale by the window benchmark below; greedy ~2x.  DBH
#: computes no partition scores (pure degree hashing), so its fast path
#: can only match the legacy bookkeeping cost (~0.95x steady-state, with
#: single-run jitter well below that under load); its gate is a loose
#: sanity floor against pathological slowdowns, not a win requirement.
SMOKE_GATES = {
    "HDRF": 13.0,
    "Greedy": 1.0,
    "DBH": 0.4,
    "ADWISE-adaptive": 1.3,
    "ADWISE-fixed": 1.3,
}

#: Full-run gates: the acceptance bar — the scoring kernels must be at
#: least 2x over legacy on the power-law workload.
FULL_GATES = {
    "HDRF": 2.0,
    "Greedy": 1.3,
    "DBH": 0.4,
    "ADWISE-adaptive": 2.0,
    "ADWISE-fixed": 2.0,
}


#: Window-engine gates: minimum acceptable array-window / PR1-fast-path
#: speedup per window size.  The committed baseline (the batch-grain
#: compiled pump, DESIGN.md §14) records ~78x at w=64, ~111x at w=256
#: and ~122x at w=1024; the floors sit at roughly 40% of measured — a
#: compiled/interpreted ratio spreads widely across machines — which
#: still fails a fall back to the per-edge Python loop around the
#: kernels (6.5x/13x/21x when it was last measured).
WINDOW_GATES = {
    "ADWISE-w64": 30.0,
    "ADWISE-w256": 45.0,
    "ADWISE-w1024": 50.0,
}

#: Window sizes of the window-engine benchmark (the paper's large-window
#: regime starts at w=64; w=1024 exercises the agenda where a linear
#: scan would dominate).
WINDOW_SIZES = (64, 256, 1024)


class PR1Scoring(AdwiseScoring):
    """PR 1's committed ``score_all``/``best``, pinned operation-for-
    operation (per-row replica reads, no λ·B memo, wrapper argmax).

    This is the benchmark control: running today's object window over
    this scoring function reproduces the PR 1 fast path's wall-clock
    behaviour in-process, so the array-window speedup is a same-machine
    A/B instead of a cross-machine absolute comparison.
    """

    def score_all(self, edge, neighborhood=()):
        state = self.state
        if self.clock is not None:
            self.clock.charge_score(state.num_partitions)
        max_size = state.max_size
        balance = (max_size - state.sizes_vector()) / (
            max_size - state.min_size + _EPSILON)
        replication = (
            state.replica_vector(edge.u) * (2.0 - self.psi(edge.u))
            + state.replica_vector(edge.v) * (2.0 - self.psi(edge.v)))
        total = self.current_lambda * balance + replication
        if self.use_clustering:
            nbrs = list(neighborhood)
            if nbrs:
                total += state.replica_hits(nbrs) / len(nbrs)
        return total

    def best(self, edge, neighborhood=()):
        state = self.state
        if state.is_fast:
            scores = self.score_all(edge, neighborhood)
            idx = int(np.argmax(scores))
            return float(scores[idx]), state.partitions[idx]
        return super().best(edge, neighborhood)


class PR1AdwisePartitioner(AdwisePartitioner):
    """ADWISE on the object window with :class:`PR1Scoring` (the control)."""

    def _make_scoring(self, total_edges):
        base = super()._make_scoring(total_edges)
        return PR1Scoring(base.state, balancer=base.balancer,
                          use_clustering=base.use_clustering,
                          fixed_lambda=base.fixed_lambda, clock=base.clock)


def run_window_bench(repeats: int):
    """Array window vs the PR 1 fast path at w >= 64 (interleaved A/B)."""
    workload, edges = build_workload(smoke=False)
    num_edges = len(edges)
    rows = []
    for window in WINDOW_SIZES:
        def pr1():
            return PR1AdwisePartitioner(range(NUM_PARTITIONS),
                                        fixed_window=window, fast=True,
                                        window_backend="object")

        def arrow():
            return AdwisePartitioner(range(NUM_PARTITIONS),
                                     fixed_window=window, fast=True,
                                     window_backend="array")

        pr1_s = array_s = float("inf")
        pr1_result = array_result = None
        for _ in range(repeats):
            # Interleave the two engines so machine-load drift cancels
            # out of the ratio.
            for factory, is_array in ((pr1, False), (arrow, True)):
                partitioner = factory()
                stream = InMemoryEdgeStream(edges)
                start = time.perf_counter()
                result = partitioner.partition_stream(stream)
                elapsed = time.perf_counter() - start
                if is_array and elapsed < array_s:
                    array_result, array_s = result, elapsed
                elif not is_array and elapsed < pr1_s:
                    pr1_result, pr1_s = result, elapsed
        parity = (
            list(array_result.assignments.items())
            == list(pr1_result.assignments.items())
            and array_result.replication_degree == pr1_result.replication_degree
            and array_result.imbalance == pr1_result.imbalance
            and array_result.score_computations == pr1_result.score_computations)
        rows.append({
            "algorithm": f"ADWISE-w{window}",
            "legacy_eps": num_edges / pr1_s,
            "fast_eps": num_edges / array_s,
            "speedup": pr1_s / array_s,
            "parity": parity,
            "replication_degree": array_result.replication_degree,
            "imbalance": array_result.imbalance,
        })
    return {
        "workload": f"{workload}-window",
        "smoke": False,
        "num_partitions": NUM_PARTITIONS,
        "num_edges": num_edges,
        "gates": dict(WINDOW_GATES),
        "results": rows,
    }


def algorithms(smoke: bool):
    """(name, factory) pairs; factories take the ``fast`` flag."""
    window = 32 if smoke else 64
    return [
        ("HDRF", lambda fast: HDRFPartitioner(
            range(NUM_PARTITIONS), fast=fast)),
        ("Greedy", lambda fast: GreedyPartitioner(
            range(NUM_PARTITIONS), fast=fast)),
        ("DBH", lambda fast: DBHPartitioner(
            range(NUM_PARTITIONS), fast=fast)),
        ("ADWISE-adaptive", lambda fast: AdwisePartitioner(
            range(NUM_PARTITIONS), latency_preference_ms=10.0, fast=fast)),
        ("ADWISE-fixed", lambda fast: AdwisePartitioner(
            range(NUM_PARTITIONS), fixed_window=window, fast=fast)),
    ]


def build_workload(smoke: bool):
    """Synthetic power-law (Barabási–Albert) edge stream, fixed seeds."""
    if smoke:
        name, n, m = "powerlaw-smoke", 250, 6
    else:
        name, n, m = "powerlaw", 800, 10
    graph = barabasi_albert_graph(n=n, m=m, seed=3)
    edges = list(shuffled(graph.edges(), seed=5))
    return name, edges


def measure(factory, fast: bool, edges, repeats: int):
    """Best-of-``repeats`` wall-clock run; returns (result, seconds)."""
    best_result, best_time = None, float("inf")
    for _ in range(repeats):
        partitioner = factory(fast)
        stream = InMemoryEdgeStream(edges)
        start = time.perf_counter()
        result = partitioner.partition_stream(stream)
        elapsed = time.perf_counter() - start
        if elapsed < best_time:
            best_result, best_time = result, elapsed
    return best_result, best_time


def run(smoke: bool, repeats: int):
    workload, edges = build_workload(smoke)
    num_edges = len(edges)
    rows = []
    for name, factory in algorithms(smoke):
        legacy, legacy_s = measure(factory, False, edges, repeats)
        fast, fast_s = measure(factory, True, edges, repeats)
        parity = (fast.assignments == legacy.assignments
                  and fast.replication_degree == legacy.replication_degree
                  and fast.imbalance == legacy.imbalance)
        rows.append({
            "algorithm": name,
            "legacy_eps": num_edges / legacy_s,
            "fast_eps": num_edges / fast_s,
            "speedup": legacy_s / fast_s,
            "parity": parity,
            "replication_degree": fast.replication_degree,
            "imbalance": fast.imbalance,
        })
    return {
        "workload": workload,
        "smoke": smoke,
        "num_partitions": NUM_PARTITIONS,
        "num_edges": num_edges,
        # Absolute floors, embedded so check_bench_regression.py can
        # distinguish "slower machine ratio" from "genuinely too slow".
        "gates": dict(SMOKE_GATES if smoke else FULL_GATES),
        "results": rows,
    }


def format_report(report) -> str:
    lines = [
        f"Fast-path kernel benchmark — {report['workload']} "
        f"({report['num_edges']} edges, k={report['num_partitions']})",
        f"{'algorithm':<18} {'legacy e/s':>12} {'fast e/s':>12} "
        f"{'speedup':>8} {'parity':>7}",
    ]
    for row in report["results"]:
        lines.append(
            f"{row['algorithm']:<18} {row['legacy_eps']:>12.0f} "
            f"{row['fast_eps']:>12.0f} {row['speedup']:>7.2f}x "
            f"{'ok' if row['parity'] else 'FAIL':>7}")
    return "\n".join(lines)


def check(report) -> list:
    """Gate violations (empty list == pass)."""
    gates = report.get("gates") or (SMOKE_GATES if report["smoke"]
                                    else FULL_GATES)
    problems = []
    for row in report["results"]:
        if not row["parity"]:
            problems.append(f"{row['algorithm']}: fast/legacy parity broken")
        floor = gates.get(row["algorithm"])
        if floor is not None and row["speedup"] < floor:
            problems.append(
                f"{row['algorithm']}: speedup {row['speedup']:.2f}x "
                f"below gate {floor:.2f}x")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload + relaxed gates (CI variant)")
    parser.add_argument("--window-bench", action="store_true",
                        help="array window vs the PR 1 fast path at w >= 64")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero if a speedup gate or parity fails")
    parser.add_argument("--repeats", type=int, default=3,
                        help="wall-clock repeats per configuration (best-of)")
    parser.add_argument("--out", help="write the report as JSON to this path")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    if args.window_bench:
        report = run_window_bench(repeats=args.repeats)
    else:
        report = run(smoke=args.smoke, repeats=args.repeats)
    print(format_report(report))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
        print(f"\nwrote {args.out}")

    problems = check(report)
    if problems:
        print("\nGATE FAILURES:")
        for problem in problems:
            print(f"  - {problem}")
    if args.check and problems:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
