"""Does the benchmark repeat?  Run it the way the driver does and see.

    python3 benchmarks/total_latency/steadiness.py

runs every workload of ``BENCHMARK.json`` in two sets of ten runs (seeds
1-10, ``--trace 0``, the declared ``run_seconds``) and prints, per
end-to-end metric and workload, each set's median, its spread (the
distance between the first and third quartile over the median) and how
much worse the second median is than the first.  It exits non-zero if a
spread exceeds half the metric's bound, if the second median is worse
than the first by more than half the bound, or if a seed's assignment
digest or replication degree differs between the sets.  ``setup_s`` is
held to the medians only, as the driver holds it.  Every run's result
and summary lines are kept in ``.work/steadiness.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def run_once(contract: dict, workload: str, seed: int, seconds: int):
    """One run; returns ``(result line, summary line)`` as dicts."""
    command = contract["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=_ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=180)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(command)} exited with "
                           f"{done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} of "
                           f"{result['attempted']} operations failed")
    return result, json.loads(lines[-2])


def quartile_spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="*", default=None)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args(argv)
    with open(os.path.join(_ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        contract = json.load(f)
    seconds = args.seconds or contract["run_seconds"]
    names = args.workloads or [w["name"] for w in contract["workloads"]]
    unsteady = 0
    kept = {}
    print(f"{'workload':<12} {'metric':<19} {'median 1':>11} {'spread 1':>9} "
          f"{'median 2':>11} {'spread 2':>9} {'2 worse by':>10} "
          f"{'bound':>6}")
    for workload in names:
        sets = []
        for _ in range(2):
            runs = [run_once(contract, workload, seed, seconds)
                    for seed in range(1, args.runs + 1)]
            sets.append(runs)
        kept[workload] = sets
        speeds = [[summary["host_speed"] for _, summary in runs]
                  for runs in sets]
        print(f"{workload}: host speed {min(speeds[0]):.2f}-"
              f"{max(speeds[0]):.2f} in set 1, {min(speeds[1]):.2f}-"
              f"{max(speeds[1]):.2f} in set 2 (1.00 = reference box)")
        for seed, ((_, first), (_, second)) in enumerate(zip(*sets), 1):
            if first["digest"] != second["digest"]:
                print(f"{workload}: seed {seed} gave two different "
                      f"assignment digests")
                unsteady += 1
        for metric in contract["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[result["metrics"][name]["value"]
                       for result, _ in runs] for runs in sets]
            medians = [statistics.median(v) for v in values]
            spreads = [quartile_spread(v) for v in values]
            worse = (medians[1] / medians[0] - 1.0
                     if metric["better"] == "lower"
                     else medians[0] / medians[1] - 1.0)
            exact = name == "replication_degree" and values[0] != values[1]
            bad = (worse > bound / 2 or exact or name != "setup_s"
                   and max(spreads) > bound / 2)
            unsteady += bad
            print(f"{workload:<12} {name:<19} {medians[0]:>11.5g} "
                  f"{spreads[0]:>9.2%} {medians[1]:>11.5g} "
                  f"{spreads[1]:>9.2%} {worse:>+10.2%} {bound:>6.2f}"
                  f"{'  UNSTEADY' if bad else ''}", flush=True)
    work = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".work")
    os.makedirs(work, exist_ok=True)
    with open(os.path.join(work, "steadiness.json"), "w",
              encoding="utf-8") as f:
        json.dump(kept, f)
    print(f"{unsteady} unsteady" if unsteady else "steady")
    return 1 if unsteady else 0


if __name__ == "__main__":
    sys.exit(main())
