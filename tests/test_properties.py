"""Property-based tests (hypothesis) for core data structures and invariants."""


from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.graph import Edge, Graph
from repro.graph.stream import InMemoryEdgeStream, chunk_stream, locally_shuffled
from repro.core.adwise import AdwisePartitioner
from repro.core.scoring import LAMBDA_MAX, LAMBDA_MIN, AdaptiveBalancer
from repro.core.spotlight import spotlight_spreads
from repro.partitioning.hdrf import HDRFPartitioner
from repro.partitioning.hashing import HashPartitioner
from repro.graph.shard import ShardedGraph
from repro.partitioning.metrics import imbalance, partition_sizes
from repro.partitioning.state import PartitionState
from repro.util import stable_hash


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

edge_lists = st.lists(
    st.tuples(st.integers(0, 40), st.integers(0, 40)).filter(
        lambda t: t[0] != t[1]),
    min_size=1, max_size=120)


def to_edges(pairs):
    return [Edge(u, v).canonical() for u, v in pairs]


# ---------------------------------------------------------------------------
# Graph invariants
# ---------------------------------------------------------------------------

@given(edge_lists)
def test_graph_edge_count_matches_iteration(pairs):
    graph = Graph(pairs)
    assert graph.num_edges == len(list(graph.edges()))


@given(edge_lists)
def test_graph_degree_sum_is_twice_edges(pairs):
    graph = Graph(pairs)
    assert sum(graph.degree(v) for v in graph.vertices()) == 2 * graph.num_edges


@given(edge_lists)
def test_graph_neighbors_symmetric(pairs):
    graph = Graph(pairs)
    for v in graph.vertices():
        for n in graph.neighbors(v):
            assert v in graph.neighbors(n)


# ---------------------------------------------------------------------------
# Stream invariants
# ---------------------------------------------------------------------------

@given(edge_lists, st.integers(1, 7))
def test_chunking_preserves_edge_multiset(pairs, num_chunks):
    edges = to_edges(pairs)
    chunks = chunk_stream(InMemoryEdgeStream(edges), num_chunks)
    merged = [e for chunk in chunks for e in chunk]
    assert sorted(merged) == sorted(edges)
    assert max(len(c) for c in chunks) - min(len(c) for c in chunks) <= 1


@given(edge_lists, st.integers(1, 64), st.integers(0, 5))
def test_local_shuffle_preserves_edge_multiset(pairs, buffer_size, seed):
    edges = to_edges(pairs)
    stream = locally_shuffled(edges, buffer_size=buffer_size, seed=seed)
    assert sorted(stream) == sorted(edges)


# ---------------------------------------------------------------------------
# Partitioning invariants — hold for EVERY partitioner on EVERY input
# ---------------------------------------------------------------------------

@given(edge_lists, st.integers(1, 8))
@settings(deadline=None)
def test_hash_partitioner_invariants(pairs, k):
    edges = to_edges(pairs)
    result = HashPartitioner(range(k)).partition_stream(
        InMemoryEdgeStream(edges))
    _check_partitioning_invariants(result, edges, k)


@given(edge_lists, st.integers(1, 8))
@settings(deadline=None)
def test_hdrf_partitioner_invariants(pairs, k):
    edges = to_edges(pairs)
    result = HDRFPartitioner(range(k)).partition_stream(
        InMemoryEdgeStream(edges))
    _check_partitioning_invariants(result, edges, k)


@given(edge_lists, st.integers(1, 6), st.integers(1, 16))
@settings(deadline=None, max_examples=25)
def test_adwise_partitioner_invariants(pairs, k, window):
    edges = to_edges(pairs)
    result = AdwisePartitioner(
        range(k), fixed_window=window).partition_stream(
        InMemoryEdgeStream(edges))
    _check_partitioning_invariants(result, edges, k)


def _check_partitioning_invariants(result, edges, k):
    # Every edge assigned, to a valid partition.
    assert result.state.assigned_edges == len(edges)
    assert all(0 <= p < k for p in result.assignments.values())
    # Partition sizes sum to the number of edges.
    assert sum(result.state.partition_edges.values()) == len(edges)
    # Replica sets: each vertex replicated on >= 1 and <= k partitions,
    # and each endpoint's replica set contains the edge's partition.
    for edge, partition in result.assignments.items():
        assert partition in result.state.replicas(edge.u)
        assert partition in result.state.replicas(edge.v)
    for reps in result.state.replica_sets.values():
        assert 1 <= len(reps) <= k
    # Replication degree within the possible envelope.
    assert 1.0 <= result.replication_degree <= k
    # Incremental max/min agree with brute force.
    assert result.state.max_size == max(result.state.partition_edges.values())
    assert result.state.min_size == min(result.state.partition_edges.values())


@given(edge_lists, st.integers(1, 8))
@settings(deadline=None)
def test_replication_degree_from_assignments_matches_state(pairs, k):
    # The state counts duplicate stream edges too (a repeat may land on
    # another partition, and the mapping keeps only the last); with
    # deduplicated canonical edges both views must agree on the replica
    # sets.
    edges = list(dict.fromkeys(to_edges(pairs)))
    result = HDRFPartitioner(range(k)).partition_stream(
        InMemoryEdgeStream(edges))
    replicas = ShardedGraph.from_result(result).vertex_partitions
    for vertex, reps in replicas.items():
        assert set(reps) == set(result.state.replicas(vertex))


# ---------------------------------------------------------------------------
# Adaptive balancing invariants
# ---------------------------------------------------------------------------

@given(st.lists(st.tuples(st.floats(0, 1), st.integers(0, 1000)),
                min_size=1, max_size=200),
       st.integers(1, 1000))
def test_lambda_always_within_bounds(updates, total):
    balancer = AdaptiveBalancer(total_edges=total)
    for imb, assigned in updates:
        value = balancer.update(imb, assigned)
        assert LAMBDA_MIN <= value <= LAMBDA_MAX


# ---------------------------------------------------------------------------
# Spotlight invariants
# ---------------------------------------------------------------------------

@given(st.integers(1, 64), st.integers(1, 8), st.data())
def test_spotlight_always_covers_all_partitions(k, z, data):
    import math
    min_spread = math.ceil(k / z)
    spread = data.draw(st.integers(min_spread, k))
    spreads = spotlight_spreads(list(range(k)), z, spread)
    assert len(spreads) == z
    covered = {p for ids in spreads for p in ids}
    assert covered == set(range(k))
    for ids in spreads:
        assert len(ids) == len(set(ids)) == spread


# ---------------------------------------------------------------------------
# Metrics invariants
# ---------------------------------------------------------------------------

@given(st.dictionaries(st.integers(0, 30), st.integers(0, 100),
                       min_size=1, max_size=16))
def test_imbalance_bounded(sizes):
    value = imbalance(sizes)
    assert 0.0 <= value <= 1.0


@given(edge_lists, st.integers(1, 8))
def test_partition_sizes_total(pairs, k):
    edges = to_edges(pairs)
    assignments = {e: stable_hash(i) % k for i, e in enumerate(edges)}
    sizes = partition_sizes(assignments, range(k))
    assert sum(sizes.values()) == len(assignments)


# ---------------------------------------------------------------------------
# PartitionState stress
# ---------------------------------------------------------------------------

@given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30),
                          st.integers(0, 7)), min_size=1, max_size=300))
def test_state_incremental_sizes_match_bruteforce(ops):
    state = PartitionState(list(range(8)))
    for u, v, p in ops:
        if u == v:
            continue
        state.assign(Edge(u, v).canonical(), p)
        assert state.max_size == max(state.partition_edges.values())
        assert state.min_size == min(state.partition_edges.values())
        assert 0.0 <= state.imbalance() <= 1.0
