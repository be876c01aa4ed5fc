#!/usr/bin/env python
"""Survey every implemented partitioning strategy on one graph.

Runs the complete roster — hash family, degree-aware streaming, hybrid
cuts, the window-based ADWISE, and the super-linear comparators (swap
refinement, neighborhood expansion) — on a clustered graph, validates
every result's invariants, and prints the latency/quality landscape
(the paper's Fig. 1 shape).

Run:  python examples/compare_all_partitioners.py
"""

from repro import (
    AdwisePartitioner,
    DBHPartitioner,
    GreedyPartitioner,
    GridPartitioner,
    HashPartitioner,
    HDRFPartitioner,
    JaBeJaVCPartitioner,
    NEPartitioner,
    PowerLyraPartitioner,
    community_powerlaw_graph,
    shuffled,
)
from repro.partitioning.validate import validate_result

NUM_PARTITIONS = 16


def main() -> None:
    graph = community_powerlaw_graph(num_communities=15, community_size=30,
                                     intra_p=0.5, overlay_m=3, seed=4)
    print(f"graph: {graph.num_vertices} vertices, {graph.num_edges} edges\n")

    strategies = [
        ("Hash", lambda: HashPartitioner(range(NUM_PARTITIONS))),
        ("Grid", lambda: GridPartitioner(range(NUM_PARTITIONS))),
        ("DBH", lambda: DBHPartitioner(range(NUM_PARTITIONS))),
        ("PowerLyra", lambda: PowerLyraPartitioner(range(NUM_PARTITIONS))),
        ("Greedy", lambda: GreedyPartitioner(range(NUM_PARTITIONS))),
        ("HDRF", lambda: HDRFPartitioner(range(NUM_PARTITIONS))),
        ("ADWISE w=32", lambda: AdwisePartitioner(range(NUM_PARTITIONS),
                                                  fixed_window=32)),
        ("JaBeJa-VC", lambda: JaBeJaVCPartitioner(range(NUM_PARTITIONS),
                                                  rounds=6)),
        ("NE", lambda: NEPartitioner(range(NUM_PARTITIONS))),
    ]

    print(f"{'strategy':<12} {'replication':>11} {'imbalance':>9} "
          f"{'sim latency':>12}  valid")
    for name, make in strategies:
        result = make().partition_stream(shuffled(graph.edges(), seed=6))
        report = validate_result(result)
        print(f"{name:<12} {result.replication_degree:>11.3f} "
              f"{result.imbalance:>9.3f} {result.latency_ms:>10.1f}ms  "
              f"{'ok' if report.ok else 'INVALID: ' + report.errors[0]}")

    print("\nReading the table as the paper's Fig. 1: hashing strategies "
          "are cheapest and worst,\ndegree-aware streaming improves "
          "quality at small extra cost, ADWISE trades latency\nfor "
          "quality controllably, and NE (all-edge) anchors the "
          "high-quality/high-cost corner.")


if __name__ == "__main__":
    main()
