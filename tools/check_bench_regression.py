"""CI gate: fail if a legacy perf bench regressed against its baseline.

Compares a freshly produced ``benchmarks/bench_*.py`` JSON report
(``bench_engine``, ``bench_cluster``, ``bench_service``, ``bench_obs``)
against the committed baseline of the same script
(``benchmarks/BENCH_*.json``) and exits non-zero if any row's *speedup*
dropped by more than the tolerance (default 20%).

Speedup ratios, not raw edges/sec, are compared: absolute throughput is
machine-dependent (the committed baseline was produced on one box, CI
runs on another), while a ratio of two runs on the same machine in the
same process is portable.  Raw throughput deltas are reported as
information only.

Two floors per row:

* the **absolute gate** embedded in the baseline report (the same
  floors the bench script's own ``--check`` enforces) — dropping below
  it always fails;
* the **relative floor** (baseline speedup minus tolerance) — because
  even the ratio has some cross-machine spread, a drop beyond tolerance
  that still clears the absolute gate is downgraded to a *warning*.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine.py --smoke \
        --out bench_engine_smoke.json
    python tools/check_bench_regression.py --fresh bench_engine_smoke.json \
        --baseline benchmarks/BENCH_engine.json

See DESIGN.md ("Benchmark regression workflow") for when and how to
refresh a baseline.  (The repo's contract benchmark is
``BENCHMARK.json`` / ``benchmarks/total_latency/``, not this.)
"""

from __future__ import annotations

import argparse
import json
import sys

#: A fresh speedup below ``(1 - TOLERANCE) * baseline speedup`` fails.
TOLERANCE = 0.20


def load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def by_algorithm(report: dict) -> dict:
    return {row["algorithm"]: row for row in report["results"]}


def compare(baseline: dict, fresh: dict, tolerance: float) -> tuple:
    """Return ``(problems, warnings)``; empty ``problems`` == pass."""
    problems = []
    warnings = []
    if baseline.get("workload") != fresh.get("workload"):
        problems.append(
            f"workload mismatch: baseline {baseline.get('workload')!r} "
            f"vs fresh {fresh.get('workload')!r} — compare like with like")
        return problems, warnings
    gates = baseline.get("gates", {})
    base_rows = by_algorithm(baseline)
    fresh_rows = by_algorithm(fresh)
    for name, base_row in base_rows.items():
        fresh_row = fresh_rows.get(name)
        if fresh_row is None:
            problems.append(f"{name}: missing from fresh report")
            continue
        if not fresh_row.get("parity", False):
            problems.append(f"{name}: parity broken")
        gate = gates.get(name)
        if gate is not None and fresh_row["speedup"] < gate:
            problems.append(
                f"{name}: speedup {fresh_row['speedup']:.2f}x below the "
                f"absolute gate {gate:.2f}x")
            continue
        floor = base_row["speedup"] * (1.0 - tolerance)
        if fresh_row["speedup"] < floor:
            message = (
                f"{name}: speedup regressed {base_row['speedup']:.2f}x -> "
                f"{fresh_row['speedup']:.2f}x (floor {floor:.2f}x)")
            if gate is not None:
                warnings.append(
                    f"{message} — still above the absolute gate "
                    f"{gate:.2f}x, treating as machine variance")
            else:
                problems.append(message)
    return problems, warnings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fresh", required=True,
                        help="JSON report from a fresh bench run")
    parser.add_argument("--baseline", required=True,
                        help="committed baseline of the same bench script "
                             "(benchmarks/BENCH_*.json)")
    parser.add_argument("--tolerance", type=float, default=TOLERANCE,
                        help="allowed fractional speedup drop (default 0.20)")
    args = parser.parse_args(argv)

    try:
        baseline = load(args.baseline)
        fresh = load(args.fresh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read report: {exc}", file=sys.stderr)
        return 2

    print(f"baseline: {args.baseline} ({baseline['workload']})")
    print(f"fresh:    {args.fresh} ({fresh['workload']})")
    base_rows = by_algorithm(baseline)
    for name, row in by_algorithm(fresh).items():
        base = base_rows.get(name)
        base_speedup = f"{base['speedup']:.2f}x" if base else "n/a"
        print(f"  {name:<18} speedup {row['speedup']:.2f}x "
              f"(baseline {base_speedup}), fast {row['fast_eps']:.0f} e/s")

    problems, warnings = compare(baseline, fresh, args.tolerance)
    if warnings:
        print("\nWARNINGS:")
        for warning in warnings:
            print(f"  - {warning}")
    if problems:
        print("\nREGRESSIONS:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print("\nno regression: all speedups within tolerance of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
