"""Partitioning validation: invariant checks for any PartitionResult.

A partitioning that silently violates an invariant (an edge assigned to a
partition outside the configured set, replica sets inconsistent with the
assignments, the balance constraint of Eq. 2 broken) poisons everything
downstream.  :func:`validate_result` checks all of them and returns a
structured report; the benchmark harness and the CLI run it after every
partitioning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.partitioning.base import PartitionResult
from repro.partitioning.metrics import replica_sets_from_assignments


@dataclass
class ValidationReport:
    """Outcome of validating one partitioning."""

    errors: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def raise_if_invalid(self) -> None:
        if self.errors:
            raise AssertionError("invalid partitioning:\n  "
                                 + "\n  ".join(self.errors))


def validate_result(result: PartitionResult,
                    tau: Optional[float] = None,
                    expected_edges: Optional[int] = None
                    ) -> ValidationReport:
    """Check a :class:`PartitionResult` against the model's invariants.

    Parameters
    ----------
    tau:
        If given, enforce the balance constraint of Eq. 2:
        ``minsize / maxsize > tau`` for the loaded partitions.
    expected_edges:
        If given, require exactly this many assigned edges.
    """
    report = ValidationReport()
    state = result.state
    valid_partitions = set(state.partitions)

    # 1. Every assignment targets a configured partition.
    for edge, partition in result.assignments.items():
        if partition not in valid_partitions:
            report.errors.append(
                f"edge {tuple(edge)} assigned to unknown partition "
                f"{partition}")

    # 2. Edge accounting.
    size_total = sum(state.partition_edges.values())
    if size_total != state.assigned_edges:
        report.errors.append(
            f"partition sizes sum to {size_total} but "
            f"{state.assigned_edges} edges were assigned")
    if expected_edges is not None and state.assigned_edges != expected_edges:
        report.errors.append(
            f"expected {expected_edges} assigned edges, "
            f"found {state.assigned_edges}")

    # 3. Replica sets consistent with assignments: each endpoint's set
    #    contains the edge's partition, and no replica exists without a
    #    supporting edge (assignments may deduplicate stream duplicates,
    #    so extra replicas are an error but the reverse check is exact).
    derived = replica_sets_from_assignments(result.assignments)
    stored_sets = state.replica_sets  # one read: a snapshot on the array state
    for vertex, reps in derived.items():
        stored = stored_sets.get(vertex, set())
        if not reps <= stored:
            report.errors.append(
                f"vertex {vertex}: assignments imply replicas {sorted(reps)} "
                f"but state records {sorted(stored)}")
    for vertex, stored in stored_sets.items():
        if vertex not in derived and stored:
            report.warnings.append(
                f"vertex {vertex} has replicas {sorted(stored)} with no "
                f"assignment in the result (duplicate stream edges?)")

    # 4. Balance constraint (Eq. 2), if requested.
    if tau is not None:
        max_size = state.max_size
        if max_size > 0:
            ratio = state.min_size / max_size
            if ratio <= tau:
                report.errors.append(
                    f"balance violated: min/max = {ratio:.3f} <= tau = {tau}")

    # 5. Soft signals.
    if result.latency_ms < 0:
        report.errors.append(f"negative latency {result.latency_ms}")
    empty = [p for p, size in state.partition_edges.items() if size == 0]
    if empty and state.assigned_edges >= len(state.partitions):
        report.warnings.append(f"empty partitions: {empty}")
    return report
