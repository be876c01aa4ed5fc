"""Partitioning quality metrics.

Implements the objective and constraint of the paper's problem statement:
replication degree (Eq. 1) and edge balance (Eq. 2), computed from an
edge -> partition mapping or a replica-set table.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Set

from repro.graph.graph import Edge


def replication_degree(replicas: Mapping[int, Set[int]]) -> float:
    """Average replica-set size ``(1/|V|) Σ |R_v|`` (Eq. 1)."""
    if not replicas:
        return 0.0
    return sum(len(r) for r in replicas.values()) / len(replicas)


def partition_sizes(assignments: Mapping[Edge, int],
                    partitions: Iterable[int]) -> Dict[int, int]:
    """Edge counts per partition, including empty partitions."""
    sizes = {p: 0 for p in partitions}
    for partition in assignments.values():
        sizes[partition] = sizes.get(partition, 0) + 1
    return sizes


def imbalance(sizes: Mapping[int, int]) -> float:
    """``(maxsize − minsize) / maxsize`` — the paper's Fig. 7 balance check."""
    if not sizes:
        return 0.0
    max_size = max(sizes.values())
    if max_size == 0:
        return 0.0
    return (max_size - min(sizes.values())) / max_size
