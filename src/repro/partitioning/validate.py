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

import numpy as np

from repro.graph.shard import mapping_columns, ranked, ranked_edges
from repro.partitioning.base import PartitionResult


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
    u, v, part = mapping_columns(result.assignments)

    # 1. Every assignment targets a configured partition.
    for row in np.flatnonzero(~np.isin(part, list(state.partitions))):
        report.errors.append(
            f"edge {(int(u[row]), int(v[row]))} assigned to unknown "
            f"partition {int(part[row])}")

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
    #    Both sides as ranked (vertex, partition) rows; a vertex is
    #    reported in the order the assignments first name it.
    vertices, stored = state.replica_rows()  # a vertex's rows adjacent
    starts = np.ones(len(vertices), dtype=bool)
    starts[1:] = vertices[1:] != vertices[:-1]
    bounds = np.append(np.flatnonzero(starts), len(vertices))
    names = vertices[bounds[:-1]]  # one per vertex, in replica_sets order

    def recorded_for(group: int) -> List[int]:
        return sorted(stored[bounds[group]:bounds[group + 1]].tolist())

    ids, ru, rv, _ = ranked_edges(u, v, names)
    ends = np.stack([ru, rv], axis=1).ravel()  # in the order rows name them
    del ru, rv, _  # frees their edge-sized rank array: ``ends`` is read
    parts, pos = ranked(np.concatenate([part, stored]))
    k, mine = max(len(parts), 1), np.searchsorted(ids, names)
    implied = ranked((ends.reshape(-1, 2) * k + pos[:len(part), None]).ravel(),
                     ranks=False)[0]  # sorted: R_v, vertex by vertex
    recorded = np.searchsorted(ids, vertices) * k + pos[len(part):]
    lacking = np.zeros(len(ids), dtype=bool)
    lacking[implied[~np.isin(implied, recorded)] // k] = True
    group_of = np.full(len(ids), -1)
    group_of[mine] = np.arange(len(names))
    for at in dict.fromkeys(ends[lacking[ends]].tolist()):
        a, b = np.searchsorted(implied, [at * k, at * k + k])
        group = int(group_of[at])
        report.errors.append(
            f"vertex {int(ids[at])}: assignments imply replicas "
            f"{parts[implied[a:b] % k].tolist()} but state records "
            f"{recorded_for(group) if group >= 0 else []}")
    named = np.zeros(len(ids), dtype=bool)
    named[ends] = True
    for group in np.flatnonzero(~named[mine]).tolist():
        report.warnings.append(
            f"vertex {int(names[group])} has replicas {recorded_for(group)} "
            f"with no assignment in the result (duplicate stream edges?)")

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
