"""ADWISE reproduction: adaptive window-based streaming edge partitioning.

A full implementation of the ICDCS 2018 paper "ADWISE: Adaptive
Window-based Streaming Edge Partitioning for High-Speed Graph Processing"
(Mayer et al.), including the single-edge streaming baselines it compares
against (Hash, Grid, DBH, HDRF, Greedy), the parallel loading model with
spotlight partitioning, and a deterministic distributed graph-processing
engine simulator used to reproduce the paper's partitioning-vs-processing
latency trade-off experiments.

Quickstart::

    from repro import open_session

    session = open_session(algorithm="adwise", partitions=8,
                           latency_preference_ms=50.0)
    session.ingest([(0, 1), (1, 2), (0, 2)])
    result = session.finalize()
    print(result.replication_degree, result.imbalance)

or, batch-style with explicit objects::

    from repro import AdwisePartitioner, shuffled, barabasi_albert_graph

    graph = barabasi_albert_graph(n=1000, m=5, seed=1)
    stream = shuffled(graph.edges(), seed=2)
    partitioner = AdwisePartitioner(range(8), latency_preference_ms=50.0)
    result = partitioner.partition_stream(stream)

For a long-lived multi-tenant daemon speaking this API over TCP, see
``repro.service`` and the ``serve`` CLI subcommand.
"""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, {
    ".graph.graph": ("Edge", "Graph"),
    ".graph.stream": ("EdgeStream", "FileChunkStream", "FileEdgeStream",
                      "InMemoryEdgeStream", "chunk_file_stream",
                      "chunk_stream", "locally_shuffled", "shuffled"),
    ".graph.generators": ("barabasi_albert_graph", "brain_like_graph",
                          "community_powerlaw_graph", "orkut_like_graph",
                          "powerlaw_cluster_graph", "rmat_graph",
                          "watts_strogatz_graph", "web_like_graph"),
    ".graph.stats": ("average_clustering", "summarize"),
    ".core.scoring": ("AdaptiveBalancer", "AdwiseScoring"),
    ".core.adaptive": ("AdaptiveWindowController",),
    ".core.adwise": ("AdwisePartitioner",),
    ".core.window": ("EdgeWindow",),
    ".core.spotlight": ("spotlight_spreads",),
    ".partitioning.dbh": ("DBHPartitioner",),
    ".partitioning.greedy": ("GreedyPartitioner",),
    ".partitioning.grid": ("GridPartitioner",),
    ".partitioning.hashing": ("HashPartitioner",),
    ".partitioning.hdrf": ("HDRFPartitioner",),
    ".partitioning.jabeja": ("JaBeJaVCPartitioner",),
    ".partitioning.ne": ("NEPartitioner",),
    ".partitioning.parallel": ("ParallelLoader", "ParallelResult",
                               "PartitionerSpec"),
    ".partitioning.base": ("Assignment", "PartitionResult",
                           "StreamingPartitioner"),
    ".partitioning.state": ("PartitionState", "StateSnapshot"),
    ".partitioning.powerlyra": ("PowerLyraPartitioner",),
    ".partitioning.metrics": ("replication_degree",),
    ".engine.cost": ("CostModel",),
    ".engine.runtime": ("Engine", "SimulationReport"),
    ".engine.placement": ("Placement",),
    ".engine.vertex_program": ("VertexProgram",),
    ".cluster.runtime": ("ClusterEngine", "ClusterReport"),
    ".cluster.faults": ("ClusterError", "FaultInjector"),
    ".graph.shard": ("ShardedGraph",),
    ".simtime": ("SimulatedClock", "WallClock"),
    ".api": ("PartitionSession", "SessionError", "SessionSnapshot",
             "SessionStats", "open_session", "restore_session"),
})

__version__ = "1.1.0"

__all__ = [
    "Edge",
    "Graph",
    "EdgeStream",
    "FileEdgeStream",
    "InMemoryEdgeStream",
    "FileChunkStream",
    "chunk_file_stream",
    "chunk_stream",
    "locally_shuffled",
    "shuffled",
    "barabasi_albert_graph",
    "brain_like_graph",
    "community_powerlaw_graph",
    "orkut_like_graph",
    "powerlaw_cluster_graph",
    "rmat_graph",
    "watts_strogatz_graph",
    "web_like_graph",
    "average_clustering",
    "summarize",
    "AdaptiveBalancer",
    "AdaptiveWindowController",
    "AdwisePartitioner",
    "AdwiseScoring",
    "EdgeWindow",
    "spotlight_spreads",
    "DBHPartitioner",
    "GreedyPartitioner",
    "GridPartitioner",
    "HashPartitioner",
    "HDRFPartitioner",
    "JaBeJaVCPartitioner",
    "NEPartitioner",
    "PowerLyraPartitioner",
    "ParallelLoader",
    "PartitionerSpec",
    "StateSnapshot",
    "ParallelResult",
    "PartitionResult",
    "PartitionState",
    "StreamingPartitioner",
    "replication_degree",
    "CostModel",
    "Engine",
    "Placement",
    "SimulationReport",
    "VertexProgram",
    "ClusterEngine",
    "ClusterError",
    "ClusterReport",
    "FaultInjector",
    "ShardedGraph",
    "SimulatedClock",
    "WallClock",
    "Assignment",
    "PartitionSession",
    "SessionError",
    "SessionSnapshot",
    "SessionStats",
    "open_session",
    "restore_session",
    "__version__",
]
