"""Vertex-cut streaming partitioning framework and baseline algorithms."""

from repro.partitioning.state import PartitionState, StateSnapshot
from repro.partitioning.fast_state import FastPartitionState
from repro.partitioning.base import PartitionResult, StreamingPartitioner
from repro.partitioning.metrics import (
    imbalance,
    partition_sizes,
    replication_degree,
)
from repro.partitioning.hashing import HashPartitioner
from repro.partitioning.grid import GridPartitioner
from repro.partitioning.dbh import DBHPartitioner
from repro.partitioning.hdrf import HDRFPartitioner
from repro.partitioning.greedy import GreedyPartitioner
from repro.partitioning.ne import NEPartitioner
from repro.partitioning.jabeja import JaBeJaVCPartitioner
from repro.partitioning.powerlyra import PowerLyraPartitioner
from repro.partitioning.parallel import (
    ParallelLoader,
    ParallelResult,
    PartitionerSpec,
)
from repro.partitioning.restream import RestreamingDriver
from repro.partitioning.validate import ValidationReport, validate_result
from repro.partitioning.partition_io import write_assignments

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
    "RestreamingDriver",
    "ValidationReport",
    "validate_result",
    "write_assignments",
]
