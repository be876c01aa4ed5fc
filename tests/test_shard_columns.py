"""Differential layer: array-built shards ≡ the per-edge builder.

:meth:`ShardedGraph.from_arrays` derives every shard from one sorted
(vertex, partition) incidence; ``tests/_shard_reference.py`` keeps the
per-edge dict/set walk it replaced.  This suite holds the two **array
for array** equal — every :class:`Shard` field including dtypes and
channel key sets, ``fingerprint()``, ``replication_degree``, the lazy
``assignments`` / ``vertex_partitions`` views, ``to_graph()`` — and the
columnar ``Placement.stats()`` equal to the reference's dict walk under
contiguous and custom machine maps, on both benchmark shardings and
across the builder's boundaries: the id-table / sort switch (wide,
negative and > 2**31 ids; a 16,384-vertex graph on both sides of it),
isolated vertices, empty shards, non-contiguous partition ids,
non-canonical and duplicate keys, the empty assignment.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _shard_reference import ReferencePlacement, ReferenceSharding
from repro.api import open_session
from repro.engine.placement import Placement
from repro.graph.generators import powerlaw_cluster_graph
from repro.graph.graph import Edge
from repro.graph.shard import ShardedGraph
from repro.graph.stream import shuffled
from repro.partitioning.partition_io import read_columns, write_assignments


def same_array(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype
    assert np.array_equal(actual, expected)


def assert_same_sharding(sharded: ShardedGraph,
                         reference: ReferenceSharding) -> None:
    assert sharded.partitions == reference.partitions
    assert list(sharded.shards) == list(reference.shards)
    for partition, expected in reference.shards.items():
        shard = sharded.shards[partition]
        assert shard.partition == expected.partition
        for name in ("indptr", "indices", "vertex_ids", "degrees",
                     "local_degrees", "rows"):
            same_array(getattr(shard.csr, name), getattr(expected.csr, name))
        assert shard.csr.num_edges == expected.csr.num_edges
        same_array(shard.owned, expected.owned)
        for name in ("master_channels", "mirror_channels"):
            tables, wanted = getattr(shard, name), getattr(expected, name)
            assert set(tables) == set(wanted)
            for other, table in wanted.items():
                same_array(tables[other], table)
    assert sharded.num_vertices == reference.num_vertices
    assert sharded.num_edges == reference.num_edges
    assert sharded.fingerprint() == reference.fingerprint()
    assert sharded.replication_degree == reference.replication_degree
    assert sharded.vertex_partitions == reference.vertex_partitions
    edges = dict(sharded.incidence.edges())
    assert edges == reference.assignments
    assert list(edges) == list(reference.assignments)
    graph, wanted = sharded.to_graph(), reference.to_graph()
    assert list(graph.vertices()) == list(wanted.vertices())
    assert list(graph.edges()) == list(wanted.edges())


def machine_maps(partitions: list) -> list:
    """(num_machines, map) layouts: contiguous over a few machine counts,
    one machine per partition, and an interleaved custom map."""
    k = len(partitions)
    counts = sorted({1, 2, max(1, k // 4), k})
    layouts = [(m, Placement.contiguous_machine_map(partitions, m))
               for m in counts]
    layouts.append((3, {p: (7 * i + 1) % 3
                        for i, p in enumerate(partitions)}))
    return layouts


def assert_same_placement(sharded: ShardedGraph,
                          reference: ReferenceSharding) -> None:
    """From the sharding's incidence and from the raw mapping alike."""
    for machines, machine_of in machine_maps(reference.partitions):
        wanted = ReferencePlacement(reference.assignments,
                                    reference.partitions, machines,
                                    machine_of)
        for placement in (
                sharded.placement(machines, machine_of),
                Placement(reference.assignments, reference.partitions,
                          machines, machine_of)):
            assert placement.stats() == wanted.stats()


def check(assignments, partitions=None, vertices=()) -> ShardedGraph:
    sharded = ShardedGraph.from_assignments(assignments, partitions,
                                            vertices)
    reference = ReferenceSharding(assignments, partitions, vertices)
    assert_same_sharding(sharded, reference)
    assert_same_placement(sharded, reference)
    return sharded


def check_arrays_only(assignments, partitions) -> ShardedGraph:
    sharded = ShardedGraph.from_assignments(assignments, partitions)
    assert_same_sharding(sharded, ReferenceSharding(assignments, partitions))
    return sharded


def partitioned(vertices: int, algorithm: str, k: int = 32,
                **knobs) -> dict:
    """The benchmark's job up to ``finalize``: ``powerlaw_cluster_graph``
    shuffled, in 256-edge batches through a session."""
    graph = powerlaw_cluster_graph(vertices, 24, 0.5, seed=1)
    edges = list(shuffled(graph.edges(), seed=1))
    session = open_session(algorithm, partitions=k,
                           expected_edges=len(edges), **knobs)
    for start in range(0, len(edges), 256):
        session.ingest(edges[start:start + 256])
    return session.finalize().assignments


def random_assignments(vertices: int, edges: int, k: int, seed: int,
                       scale: int = 1, shift: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, vertices, size=(edges, 2))
    parts = rng.integers(0, k, size=edges)
    return {(int(u) * scale + shift, int(v) * scale + shift): int(p)
            for (u, v), p in zip(pairs, parts) if u < v}


# ----------------------------------------------------------------------
# The benchmark's shardings
# ----------------------------------------------------------------------
@pytest.mark.parametrize("algorithm, knobs", [
    ("hdrf", {}), ("adwise", {"fixed_window": 256})])
def test_benchmark_sharding(algorithm, knobs):
    assignments = partitioned(1024, algorithm, **knobs)
    assert len(assignments) == 24000
    sharded = check(assignments, partitions=range(32))
    assert len(sharded.shards) == 32


@pytest.mark.parametrize("k", [2, 8, 32])
def test_partition_counts_with_isolated_and_empty(k):
    """Half the partitions hold no edge; five named vertices are
    isolated, two more are named and not."""
    assignments = random_assignments(120, 600, max(1, k // 2), seed=k)
    sharded = check(assignments, partitions=range(k),
                    vertices=[3, 5, 500, 501, 502, 503, 504])
    assert sharded.shards[k - 1].num_edges == 0
    assert sum(len(ps) for v, ps in sharded.vertex_partitions.items()
               if v >= 500) == 5


def test_table_and_sort_builders_agree_at_16384_vertices():
    """The same graph on both sides of the switch: ids as generated
    (id table, incidence table) and spread 1,000 apart (sorted ids; the
    incidence table again, once ids are dense)."""
    assignments = partitioned(16384, "hdrf")
    dense = check_arrays_only(assignments, range(32))
    spread = {(u * 1000 - 7, v * 1000 - 7): p
              for (u, v), p in assignments.items()}
    sparse = check_arrays_only(spread, range(32))
    assert dense.fingerprint() == sparse.fingerprint()
    for partition, shard in dense.shards.items():
        other = sparse.shards[partition]
        same_array(other.csr.vertex_ids, shard.csr.vertex_ids * 1000 - 7)
        same_array(other.csr.indices, shard.csr.indices)
        same_array(other.owned, shard.owned)


# ----------------------------------------------------------------------
# Boundaries of the builder
# ----------------------------------------------------------------------
class TestBoundaries:
    def test_wide_ids_take_the_sort_path(self):
        """Negative and > 2**31 ids: no table indexed by id exists, and
        many vertices against few edges times k leaves no incidence
        table either."""
        assignments = random_assignments(5000, 6000, 64, seed=5,
                                         scale=2**33 + 11, shift=-2**40)
        ids = [v for edge in assignments for v in edge]
        assert min(ids) < 0 and max(ids) > 2**31
        check(assignments, partitions=range(64),
              vertices=[2**45, -2**45, 2**45 + 1])

    def test_wide_ids_few_vertices_use_the_incidence_table(self):
        check(random_assignments(60, 2500, 4, seed=6, scale=2**35,
                                 shift=-2**36), partitions=range(4))

    def test_non_contiguous_partition_ids(self):
        rng = np.random.default_rng(7)
        names = [-3, 0, 17, 400, 2**33]
        assignments = {edge: names[int(rng.integers(0, 4))] for edge in
                       random_assignments(80, 500, 2, seed=7)}
        sharded = check(assignments, partitions=names, vertices=range(90))
        assert sharded.partitions == names
        assert sharded.shards[2**33].num_edges == 0

    def test_non_canonical_and_duplicate_keys(self):
        """``(5, 2)`` and ``(2, 5)`` are one edge: the first one's place,
        the last one's partition."""
        assignments = {(5, 2): 0, (2, 3): 1, (7, 8): 2, (2, 5): 3,
                       (8, 7): 0, (9, 1): 1, Edge(3, 2): 2}
        sharded = check(assignments, partitions=range(4))
        assert dict(sharded.incidence.edges()) == {
            Edge(2, 5): 3, Edge(2, 3): 2, Edge(7, 8): 0, Edge(1, 9): 1}
        assert next(iter(sharded.incidence.edges()))[0] == Edge(2, 5)
        # A partition named only by an overridden duplicate does not exist.
        assert check({(0, 1): 0, (1, 0): 1}).partitions == [1]

    def test_duplicates_among_many(self):
        assignments = random_assignments(40, 900, 8, seed=9)
        flipped = {(v, u): (p + 1) % 8
                   for (u, v), p in list(assignments.items())[::3]}
        check({**assignments, **flipped}, partitions=range(8))

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match=r"self-loop \(4, 4\)"):
            ShardedGraph.from_assignments({(1, 2): 0, (4, 4): 1})
        with pytest.raises(ValueError, match="self-loop"):
            ShardedGraph.from_arrays([1, 4], [2, 4], [0, 1])

    def test_empty_assignment(self):
        with pytest.raises(ValueError, match="no partitions"):
            ShardedGraph.from_assignments({})
        with pytest.raises(ValueError, match="no partitions"):
            ShardedGraph.from_arrays([], [], [])
        sharded = check({}, partitions=range(3))
        assert sharded.num_vertices == 0 and sharded.num_edges == 0
        assert sharded.replication_degree == 0.0
        sharded = check({}, partitions=[4, 2], vertices=[10, 11, 12])
        assert sharded.vertex_partitions == {10: [2], 11: [4], 12: [2]}

    def test_partitions_may_be_any_iterable(self):
        """``partitions=np.arange(k)`` used to raise "truth value of an
        array is ambiguous" (``partitions or ()``)."""
        assignments = {(0, 1): 0, (1, 2): 2}
        wanted = ShardedGraph.from_assignments(assignments, [0, 1, 2, 3])
        for partitions in (np.arange(4), iter(range(4)),
                           dict.fromkeys(range(4)),
                           np.array([3, 1], dtype=np.int32)):
            sharded = ShardedGraph.from_assignments(assignments, partitions)
            assert sharded.fingerprint() == wanted.fingerprint()

    def test_partitions_array_through_read_columns_and_from_result(
            self, tmp_path):
        from repro.partitioning.hashing import HashPartitioner
        from repro.graph.stream import InMemoryEdgeStream

        assignments = random_assignments(50, 300, 4, seed=3)
        path = tmp_path / "parts.txt.gz"
        write_assignments(path, {Edge(*e): p
                                 for e, p in assignments.items()})
        sharded = ShardedGraph.from_arrays(*read_columns(path),
                                           partitions=np.arange(6))
        assert_same_sharding(
            sharded, ReferenceSharding(assignments, range(6)))
        result = HashPartitioner(np.arange(5).tolist()).partition_stream(
            InMemoryEdgeStream([Edge(*e) for e in assignments]))
        assert_same_sharding(
            ShardedGraph.from_result(result),
            ReferenceSharding(result.assignments, range(5)))

    def test_from_arrays_takes_any_integer_columns(self):
        u, v, part = [5, 2, 7], [2, 3, 8], [0, 1, 0]
        wanted = ReferenceSharding(dict(zip(zip(u, v), part)))
        for convert in (list, np.array, lambda c: np.array(c, np.int32)):
            assert_same_sharding(ShardedGraph.from_arrays(
                convert(u), convert(v), convert(part)), wanted)


def test_pickles_from_before_the_incidence_still_load():
    """An older run's ``topology.pkl`` holds a ``ShardedGraph`` whose
    state is the two dicts and no incidence: it is rebuilt on load, so
    ``ClusterEngine.resume`` can still take its placement from it."""
    import pickle

    assignments = random_assignments(60, 400, 4, seed=2)
    sharded = ShardedGraph.from_assignments(assignments, range(5), [70, 71])
    old_state = {"shards": sharded.shards, "partitions": sharded.partitions,
                 "assignments": dict(sharded.incidence.edges()),
                 "vertex_partitions": sharded.vertex_partitions,
                 "num_vertices": sharded.num_vertices,
                 "num_edges": sharded.num_edges, "_graph": None}
    loaded = ShardedGraph.__new__(ShardedGraph)
    loaded.__setstate__(old_state)
    reference = ReferenceSharding(assignments, range(5), [70, 71])
    for restored in (loaded, pickle.loads(pickle.dumps(sharded))):
        assert_same_sharding(restored, reference)
        assert_same_placement(restored, reference)


# ----------------------------------------------------------------------
# Property: any small assignment
# ----------------------------------------------------------------------
@st.composite
def small_assignments(draw):
    ids = draw(st.sampled_from([
        st.integers(0, 12), st.integers(-6, 30),
        st.integers(-2**40, 2**40)]))
    k = draw(st.integers(1, 9))
    edges = draw(st.lists(
        st.tuples(ids, ids, st.integers(0, k - 1)).filter(
            lambda t: t[0] != t[1]), max_size=40))
    extra = draw(st.lists(ids, max_size=5))
    named = draw(st.booleans())
    if not edges and not named:
        named = True
    return ({(u, v): p for u, v, p in edges},
            range(k) if named else None, extra)


@settings(max_examples=150, deadline=None)
@given(small_assignments())
def test_any_small_assignment(case):
    check(*case)
