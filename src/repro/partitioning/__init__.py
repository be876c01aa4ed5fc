"""Vertex-cut streaming partitioning framework and baseline algorithms."""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, {
    ".state": ("PartitionState", "StateSnapshot"),
    ".fast_state": ("FastPartitionState",),
    ".base": ("PartitionResult", "StreamingPartitioner"),
    ".metrics": ("imbalance", "partition_sizes", "replication_degree"),
    ".hashing": ("HashPartitioner",),
    ".grid": ("GridPartitioner",),
    ".dbh": ("DBHPartitioner",),
    ".hdrf": ("HDRFPartitioner",),
    ".greedy": ("GreedyPartitioner",),
    ".ne": ("NEPartitioner",),
    ".jabeja": ("JaBeJaVCPartitioner",),
    ".powerlyra": ("PowerLyraPartitioner",),
    ".parallel": ("ParallelLoader", "ParallelResult", "PartitionerSpec"),
    ".validate": ("ValidationReport", "validate_result"),
    ".partition_io": ("write_assignments",),
})

__all__ = [
    "PartitionState",
    "StateSnapshot",
    "FastPartitionState",
    "PartitionResult",
    "StreamingPartitioner",
    "imbalance",
    "partition_sizes",
    "replication_degree",
    "HashPartitioner",
    "GridPartitioner",
    "DBHPartitioner",
    "HDRFPartitioner",
    "GreedyPartitioner",
    "NEPartitioner",
    "JaBeJaVCPartitioner",
    "PowerLyraPartitioner",
    "ParallelLoader",
    "ParallelResult",
    "PartitionerSpec",
    "ValidationReport",
    "validate_result",
    "write_assignments",
]
