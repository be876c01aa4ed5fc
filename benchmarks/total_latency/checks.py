"""Output checks: every one returns the list of what is wrong (empty
when the output is right), so the runner can count failures and the
tests can hand each checker a corrupted output and expect a complaint.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.graph.graph import Edge
from repro.partitioning.base import PartitionResult
from repro.partitioning.state import PartitionState
from repro.partitioning.validate import validate_result

#: The balance the paper's partitioners hold (ι of §III-C).
MAX_IMBALANCE = 0.05
#: Cluster PageRank against the single-process dense engine.
PAGERANK_TOLERANCE = 1e-9
#: The adaptive tenant of ``job-service`` must have used a real window.
MIN_ADAPTIVE_WINDOW = 64


def digest(assignments: Mapping[Edge, int]) -> str:
    """sha256 of the sorted ``(u, v, partition)`` triples."""
    lines = "".join(f"{u} {v} {p}\n"
                    for (u, v), p in sorted(assignments.items()))
    return hashlib.sha256(lines.encode()).hexdigest()


def check_partitioning(stream_edges: Iterable[Tuple[int, int]],
                       assignments: Mapping[Edge, int],
                       num_partitions: int,
                       reported_replication: float,
                       processed_replication: float) -> List[str]:
    """Every input edge assigned exactly once to a partition in range,
    the model's invariants (``partitioning.validate``), the balance, and
    the replication degree recomputed from the assignments against both
    the one the partitioner reported and the one the shards carry."""
    problems: List[str] = []
    expected = [Edge(u, v).canonical() for u, v in stream_edges]
    if len(assignments) != len(expected) or set(assignments) != set(expected):
        missing = len(set(expected) - set(assignments))
        extra = len(set(assignments) - set(expected))
        problems.append(f"assignments cover {len(assignments)} edges of "
                        f"{len(expected)} ({missing} missing, {extra} "
                        f"not in the input)")
    out_of_range = [p for p in assignments.values()
                    if not 0 <= p < num_partitions]
    if out_of_range:
        problems.append(f"{len(out_of_range)} edges on a partition outside "
                        f"0..{num_partitions - 1}")
        return problems
    state = PartitionState(range(num_partitions))
    for edge, partition in assignments.items():
        state.observe_degrees(edge)
        state.assign(edge, partition)
    replayed = PartitionResult(algorithm="replayed", state=state,
                               assignments=dict(assignments), latency_ms=0.0)
    problems.extend(validate_result(
        replayed, expected_edges=len(expected)).errors)
    if not state.imbalance() < MAX_IMBALANCE:
        problems.append(f"imbalance {state.imbalance():.4f} is not under "
                        f"{MAX_IMBALANCE}")
    recomputed = state.replication_degree()
    for label, value in (("reported", reported_replication),
                         ("processed", processed_replication)):
        if value != recomputed:
            problems.append(f"{label} replication degree {value!r} is not "
                            f"the recomputed {recomputed!r}")
    return problems


def check_same(label: str, reference, other) -> List[str]:
    """Two outputs that must be one and the same (digests across
    repetitions, fast against legacy, daemon against direct session)."""
    return [] if reference == other else [f"{label}: the two differ"]


def check_pagerank(cluster_states: Mapping[int, float],
                   cluster_supersteps: int,
                   engine_states: Mapping[int, float],
                   engine_supersteps: int) -> List[str]:
    """Cluster PageRank within 1e-9 of the dense ``Engine``, in the same
    number of supersteps."""
    problems: List[str] = []
    if cluster_supersteps != engine_supersteps:
        problems.append(f"cluster ran {cluster_supersteps} supersteps, the "
                        f"dense engine {engine_supersteps}")
    if set(cluster_states) != set(engine_states):
        problems.append("cluster and engine disagree on the vertex set")
        return problems
    worst = max((abs(cluster_states[v] - engine_states[v])
                 for v in engine_states), default=0.0)
    if not worst <= PAGERANK_TOLERANCE:
        problems.append(f"PageRank differs from the dense engine by "
                        f"{worst:.3e} (> {PAGERANK_TOLERANCE})")
    return problems


def check_acks(name: str, batches_sent: int, acks: int) -> List[str]:
    """The daemon answers every batch, once."""
    if acks != batches_sent:
        return [f"{name}: {acks} acks for {batches_sent} batches"]
    return []


def check_tenant(name: str, queries: Sequence[Tuple[int, Sequence[int]]],
                 final_assignments: Mapping[Edge, int],
                 direct_assignments: Mapping[Edge, int]) -> List[str]:
    """One daemon tenant: the finalized assignments equal to a direct
    session fed the same batches, and every ``(vertex, answer)`` query
    inside the vertex's final replica set."""
    problems = check_same(f"{name}: daemon against direct session",
                          direct_assignments, final_assignments)
    replicas: Dict[int, set] = {}
    for (u, v), partition in final_assignments.items():
        replicas.setdefault(u, set()).add(partition)
        replicas.setdefault(v, set()).add(partition)
    for vertex, answer in queries:
        if not set(answer) <= replicas.get(vertex, set()):
            problems.append(f"{name}: query for vertex {vertex} answered "
                            f"{sorted(answer)}, outside its final replica "
                            f"set {sorted(replicas.get(vertex, set()))}")
    return problems


def check_window(max_window: float) -> List[str]:
    if not max_window >= MIN_ADAPTIVE_WINDOW:
        return [f"the adaptive window peaked at {max_window}, under "
                f"{MIN_ADAPTIVE_WINDOW}"]
    return []
