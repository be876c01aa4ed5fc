#!/usr/bin/env python
"""Three ways to parallelise / amortise streaming partitioning.

Compares, on the same graph and stream:

1. **Independent instances + spotlight** (the paper's model): each of z
   partitioners owns a chunk and a private vertex cache, filling its own
   exclusive partitions.
2. **Independent instances, maximal spread**: the same z instances, each
   free to use all k partitions — the parallel loading of prior systems.
3. **Restreaming**: one instance, two passes — the second pass scores
   with exact degrees, paying double latency.

Run:  python examples/parallel_modes.py
"""

from repro import (
    HDRFPartitioner,
    ParallelLoader,
    RestreamingDriver,
    community_powerlaw_graph,
    locally_shuffled,
)

K = 16
Z = 4


def hdrf(parts, clock):
    return HDRFPartitioner(parts, clock=clock)


def main() -> None:
    graph = community_powerlaw_graph(num_communities=12, community_size=30,
                                     intra_p=0.5, overlay_m=3, seed=8)
    # Realistic file order: coarse locality with local disorder.  (On a
    # *perfectly* adjacency-ordered stream HDRF degenerates: the
    # replication reward overwhelms its fixed balance weight and all
    # edges pile onto one partition.)
    stream = locally_shuffled(graph.edges(), buffer_size=256, seed=8)
    print(f"graph: {graph.num_vertices} vertices, {graph.num_edges} edges; "
          f"k={K} partitions\n")
    print(f"{'mode':<34} {'replication':>11} {'latency':>10}")

    spotlight = ParallelLoader(hdrf, partitions=list(range(K)),
                               num_instances=Z, spread=K // Z).run(stream)
    print(f"{'independent + spotlight (z=4)':<34} "
          f"{spotlight.replication_degree:>11.3f} "
          f"{spotlight.latency_ms:>8.1f}ms")

    max_spread = ParallelLoader(hdrf, partitions=list(range(K)),
                                num_instances=Z, spread=K).run(stream)
    print(f"{'independent, maximal spread':<34} "
          f"{max_spread.replication_degree:>11.3f} "
          f"{max_spread.latency_ms:>8.1f}ms")

    restream = RestreamingDriver(hdrf, list(range(K)), passes=2).run(stream)
    print(f"{'restreaming (1 instance, 2 pass)':<34} "
          f"{restream.replication_degree:>11.3f} "
          f"{restream.latency_ms:>8.1f}ms")

    print("\nSpotlight keeps each instance's vertex cache on a few "
          "partitions;\nmaximal spread shows why prior systems' parallel "
          "loading underperforms (Fig. 8).")


if __name__ == "__main__":
    main()
