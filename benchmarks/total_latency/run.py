"""Total-latency benchmark: one whole job, three workloads.

    python3 benchmarks/total_latency/run.py --workload job-adwise \\
        --seed 1 --seconds 25 --trace 0

repeats the job (see :mod:`workloads`) on inputs made from ``--seed`` for
``--seconds`` seconds, checks every repetition's outputs, and prints as
its last line ``{"correct", "attempted", "failed", "metrics"}`` with the
end-to-end metrics of ``BENCHMARK.json`` (``--trace 0``) or the per-layer
ones (``--trace 1``).  Every timing is a median over repetitions of a
probe-scaled interval (see :mod:`probe`).  README.md has the rest.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter as now

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(os.path.dirname(_HERE))
SRC = os.path.join(_ROOT, "src")
#: Edge files, WAL directories, the compiled-kernel cache and the traces
#: all stay under here (``TMPDIR`` is pointed at it).
WORK = os.path.join(_HERE, ".work")

if __name__ == "__main__":
    # Import the benchmark's modules as the package ``total_latency``:
    # with this directory itself on the path its trace.py would shadow
    # the standard library's.
    sys.path[0] = os.path.dirname(_HERE)

#: Set-ups timed per run (each a fresh interpreter, so imports count).
SETUPS = 3
MIN_REPETITIONS = 3


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="256-vertex graph, 2 repetitions, 10 PageRank "
                             "iterations, one timed set-up")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def bootstrap() -> None:
    """Find ``src/repro`` or give up before printing anything, and keep
    every file the run writes under :data:`WORK`."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: {SRC} has no repro package: run this from a "
              f"checkout of the repository", file=sys.stderr)
        sys.exit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = None  # forget a directory picked before this


def _terminate(signum, frame) -> None:
    raise SystemExit(128 + signum)


def setup_child(args) -> int:
    """``--setup-only``: one complete set-up in this fresh interpreter;
    prints when it was ready, on the clock the parent reads too."""
    from total_latency import measure, workloads

    with contextlib.ExitStack() as stack:
        workdir = stack.enter_context(
            tempfile.TemporaryDirectory(prefix="setup-", dir=WORK))
        measure.set_up(workloads.WORKLOADS[args.workload],
                       workloads.SMOKE if args.smoke else workloads.FULL,
                       args.seed, workdir, SRC, stack)
        print(json.dumps({"ready": now()}))
    return 0


def timed_setups(args, count: int, timeline) -> list:
    """Run ``count`` set-ups, each in a fresh interpreter (so imports
    count) in a process group of its own (a set-up of ``job-service`` has
    a daemon under it), and time each from spawn to ready."""
    command = [sys.executable, os.path.abspath(__file__), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        command.append("--smoke")
    seconds = []
    for _ in range(count):
        timeline.tick()
        spawned = now()
        child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                                 start_new_session=True)
        try:
            out, _ = child.communicate(timeout=150)
        except BaseException:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
            raise
        timeline.tick()
        if child.returncode != 0:
            raise RuntimeError(f"set-up exited with {child.returncode}")
        ready = json.loads(out.strip().splitlines()[-1])["ready"]
        seconds.append(timeline.scaled(spawned, ready))
    return seconds


def main(argv=None) -> int:
    args = parse_args(argv)
    bootstrap()
    from total_latency import layers, measure, probe, trace, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (known: "
              f"{', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    if args.setup_only:
        return setup_child(args)
    signal.signal(signal.SIGTERM, _terminate)
    workload = workloads.WORKLOADS[args.workload]
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    seconds = 0.0 if args.smoke else args.seconds
    at_least = 2 if args.smoke else MIN_REPETITIONS
    timeline = probe.Timeline()

    with contextlib.ExitStack() as stack:
        setup_seconds = timed_setups(args, 1 if args.smoke else SETUPS,
                                     timeline)
        workdir = stack.enter_context(tempfile.TemporaryDirectory(
            prefix=f"{workload.name}-", dir=WORK))
        inputs, daemon = measure.set_up(workload, sizes, args.seed, workdir,
                                        SRC, stack)
        verifier = measure.Verifier(workload, inputs, timeline)
        verifier.check(measure.parity_problems(workload, inputs))

        if args.trace:
            metrics, summary = layers.traced_run(
                workload, inputs, daemon, seconds, at_least, timeline,
                verifier, os.path.join(WORK, "traces"))
        else:
            rows: list = []

            def one_repetition(index: int) -> None:
                job = workloads.run_job(workload, inputs, daemon, index,
                                        timeline, trace.NullRecorder())
                rows.append(measure.end_to_end(job, timeline))
                verifier.repetition(job)

            workloads.repeat(seconds, at_least, one_repetition)
            verifier.run_level()
            metrics = {name: statistics.median(row[name] for row in rows)
                       for name in rows[0]}
            metrics["setup_s"] = statistics.median(setup_seconds)
            metrics["peak_rss_mb"] = measure.peak_rss_mb(daemon)
            summary = {"repetitions": len(rows)}

    with open(os.path.join(_ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    summary.update(
        workload=workload.name, seed=args.seed, trace=args.trace,
        host_speed=timeline.speed(),
        host_speed_spread=timeline.speed_spread(),
        digest=verifier.digest, problems=verifier.problems, claim=None)
    print(json.dumps(summary))
    print(json.dumps({
        "correct": verifier.failed == 0,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        # Every workload prints every per-layer metric: 0 where the layer
        # does not run on it (test_smoke.py holds that each one is
        # measured on some workload, so a misspelt name cannot hide here).
        "metrics": {m["name"]: {
            "value": (metrics.get(m["name"], 0.0) if args.trace
                      else metrics[m["name"]]),
            "unit": m["unit"]} for m in declared}}))
    return 0 if verifier.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
