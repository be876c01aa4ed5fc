"""The benchmark's checks, checked: each is handed a corrupted output
and must complain; on the clean output each must stay silent."""

from __future__ import annotations

import pytest

from repro.api import open_session
from repro.graph.generators import powerlaw_cluster_graph
from repro.graph.graph import Edge
from repro.graph.stream import shuffled

from total_latency import checks

PARTITIONS = 4


@pytest.fixture(scope="module")
def partitioned():
    """A small HDRF partitioning: ``(stream edges, result)``."""
    graph = powerlaw_cluster_graph(n=120, m=6, p=0.5, seed=5)
    edges = [(e.u, e.v) for e in shuffled(graph.edges(), seed=7)]
    session = open_session("hdrf", partitions=PARTITIONS, fast=True)
    session.ingest(edges)
    return edges, session.finalize()


def partitioning_problems(edges, result, assignments):
    return checks.check_partitioning(
        edges, assignments, PARTITIONS, result.replication_degree,
        result.replication_degree)


def test_clean_partitioning_passes(partitioned):
    edges, result = partitioned
    assert partitioning_problems(edges, result, result.assignments) == []


def test_flipped_assignment_fails(partitioned):
    edges, result = partitioned
    # Onto a partition that holds no replica of edge.u yet, so that the
    # recomputed replication degree moves.
    edge, elsewhere = next(
        (e, q) for e in result.assignments for q in range(PARTITIONS)
        if q not in result.state.replicas(e.u))
    flipped = dict(result.assignments)
    flipped[edge] = elsewhere
    assert partitioning_problems(edges, result, flipped)
    assert checks.check_same("digest", checks.digest(result.assignments),
                             checks.digest(flipped))


def test_missing_and_out_of_range_assignments_fail(partitioned):
    edges, result = partitioned
    edge = next(iter(result.assignments))
    dropped = {e: p for e, p in result.assignments.items() if e != edge}
    assert partitioning_problems(edges, result, dropped)
    outside = dict(result.assignments)
    outside[edge] = PARTITIONS
    assert partitioning_problems(edges, result, outside)


def tenant_problems(queries=((1, [0]),), final=None):
    direct = {Edge(1, 2): 0, Edge(2, 3): 1}
    return checks.check_tenant(
        "t", queries, final_assignments=direct if final is None else final,
        direct_assignments=direct)


def test_clean_tenant_passes():
    assert tenant_problems() == []
    # Asked before the vertex was assigned: an empty answer is inside.
    assert tenant_problems(queries=[(3, [])]) == []
    assert checks.check_acks("t", batches_sent=10, acks=10) == []


def test_dropped_ack_fails():
    assert checks.check_acks("t", batches_sent=10, acks=9)


def test_query_answer_outside_final_replica_set_fails():
    assert tenant_problems(queries=[(1, [0, 1])])
    assert tenant_problems(queries=[(7, [0])])


def test_daemon_diverging_from_direct_session_fails():
    assert tenant_problems(final={Edge(1, 2): 0, Edge(2, 3): 0})


def test_perturbed_pagerank_fails():
    engine = {0: 0.25, 1: 1.5, 2: 1.25}
    assert checks.check_pagerank(dict(engine), 101, engine, 101) == []
    assert checks.check_pagerank(dict(engine, **{"9": 1.0}), 101,
                                 engine, 101)      # another vertex set
    nudged = dict(engine)
    nudged[1] += 1e-12
    assert checks.check_pagerank(nudged, 101, engine, 101) == []
    nudged[1] += 1e-6
    assert checks.check_pagerank(nudged, 101, engine, 101)
    assert checks.check_pagerank(dict(engine), 100, engine, 101)


def test_small_adaptive_window_fails():
    assert checks.check_window(128.0) == []
    assert checks.check_window(16.0)
