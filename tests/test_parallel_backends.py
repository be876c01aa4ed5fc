"""Differential tests: the process backend must be bit-identical to the
simulated reference.

The simulated backend is the semantics every experiment in the repo was
validated against; the process backend is the same computation fanned
out over OS processes through a snapshot-serialization boundary.  These
tests hold the two together for every fast-capable algorithm, an
offline one (NE, whose assignments are a dict), worker counts across
2-8, and both in-memory (seeded random / power-law) and file-backed
(byte-chunked) inputs — if pickling or the merge ever drops or reorders
information, the diff shows up here.
"""

from __future__ import annotations

import os
import random

import pytest
from _window_utils import reference

from repro.graph.generators import barabasi_albert_graph
from repro.graph.graph import Edge
from repro.graph.io import write_edges
from repro.graph.stream import FileEdgeStream, InMemoryEdgeStream
from repro.partitioning.base import PartitionResult
from repro.partitioning.parallel import (
    BACKENDS,
    ParallelLoader,
    PartitionerSpec,
)
from repro.partitioning.validate import validate_result
from repro.simtime import SimulatedClock

K = 8

#: Every tier whose state crosses the process boundary as a snapshot:
#: ADWISE and HDRF as built by default (the compiled kernels on the
#: array-backed state, where they load) and as the ``fast=False``
#: reference (dict state), plus two algorithms that only have the dict
#: state.  ADWISE uses a fixed window to keep runs small.
SPECS = {
    "adwise": PartitionerSpec("adwise", {"fixed_window": 8}),
    "adwise-reference": PartitionerSpec(
        "adwise", {"fixed_window": 8, "fast": False}),
    "hdrf": PartitionerSpec("hdrf"),
    "hdrf-reference": PartitionerSpec("hdrf", {"fast": False}),
    "dbh": PartitionerSpec("dbh"),
    "greedy": PartitionerSpec("greedy"),
    "ne": PartitionerSpec("ne"),
}


@pytest.mark.parametrize("name", ["adwise-reference", "hdrf-reference"])
def test_reference_specs_build_the_reference_tier(name):
    """Specs must pickle, so they spell ``fast=False`` themselves; hold
    that spelling to the helper's check."""
    spec = SPECS[name]
    assert spec.kwargs["fast"] is False

    def build(partitions, fast):
        kwargs = dict(spec.kwargs, fast=fast)
        return PartitionerSpec(spec.algorithm, kwargs)(
            partitions, SimulatedClock())

    reference(build, list(range(K))).partition_stream(
        InMemoryEdgeStream(random_edges(40)))


def random_edges(num_edges: int = 240, num_vertices: int = 60,
                 seed: int = 13):
    """Seeded uniform-random edge list (loops excluded)."""
    rng = random.Random(seed)
    edges = []
    while len(edges) < num_edges:
        u, v = rng.randrange(num_vertices), rng.randrange(num_vertices)
        if u != v:
            edges.append(Edge(u, v))
    return edges


def powerlaw_edges(seed: int = 13):
    graph = barabasi_albert_graph(n=120, m=3, seed=seed)
    edges = list(graph.edges())
    random.Random(seed + 1).shuffle(edges)
    return edges


GRAPHS = {
    "random": random_edges,
    "powerlaw": powerlaw_edges,
}


def run_backend(spec, backend, stream, workers, spread=None):
    loader = ParallelLoader(spec, partitions=list(range(K)),
                            num_instances=workers, spread=spread,
                            backend=backend)
    return loader.run(stream)


def assert_identical(process, simulated):
    """The full differential contract between the two backends."""
    assert process.state.replica_sets == simulated.state.replica_sets
    assert process.state.partition_edges == simulated.state.partition_edges
    assert process.state.snapshot() == simulated.state.snapshot()
    assert process.replication_degree == simulated.replication_degree
    assert process.imbalance == simulated.imbalance
    assert process.assignments == simulated.assignments
    assert process.latency_ms == simulated.latency_ms
    assert process.score_computations == simulated.score_computations


class TestProcessMatchesSimulated:
    @pytest.mark.parametrize("algorithm", sorted(SPECS))
    @pytest.mark.parametrize("workers", [2, 4, 8])
    @pytest.mark.parametrize("graph", sorted(GRAPHS))
    def test_differential(self, algorithm, workers, graph):
        edges = GRAPHS[graph]()
        results = [
            run_backend(SPECS[algorithm], backend,
                        InMemoryEdgeStream(edges), workers)
            for backend in BACKENDS
        ]
        simulated, process = results
        assert process.backend == "process"
        assert simulated.backend == "simulated"
        assert_identical(process, simulated)

    @pytest.mark.parametrize("algorithm", ["hdrf", "adwise"])
    def test_differential_on_file_chunks(self, algorithm, tmp_path):
        """File inputs are byte-chunked identically for both backends."""
        path = os.fspath(tmp_path / "graph.txt")
        write_edges(path, powerlaw_edges(seed=29))
        results = [
            run_backend(SPECS[algorithm], backend, FileEdgeStream(path),
                        workers=4)
            for backend in BACKENDS
        ]
        assert_identical(results[1], results[0])

    def test_run_file_equals_run_on_file_stream(self, tmp_path):
        path = os.fspath(tmp_path / "graph.txt")
        write_edges(path, random_edges(seed=31))
        loader = ParallelLoader(SPECS["hdrf"], partitions=list(range(K)),
                                num_instances=4, backend="process")
        via_stream = loader.run(FileEdgeStream(path))
        via_path = loader.run_file(path)
        assert_identical(via_path, via_stream)

    @pytest.mark.parametrize("workers", [2, 8])
    def test_non_spotlight_spread(self, workers):
        """Maximal spread (spread = k) must also match across backends."""
        edges = powerlaw_edges(seed=17)
        simulated = run_backend(SPECS["dbh"], "simulated",
                                InMemoryEdgeStream(edges), workers, spread=K)
        process = run_backend(SPECS["dbh"], "process",
                              InMemoryEdgeStream(edges), workers, spread=K)
        assert_identical(process, simulated)


class TestProcessBackendContract:
    def test_unpicklable_factory_rejected_eagerly(self):
        with pytest.raises(ValueError, match="PartitionerSpec"):
            ParallelLoader(lambda parts, clock: None,
                           partitions=list(range(K)), num_instances=2,
                           backend="process")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            ParallelLoader(SPECS["hdrf"], partitions=list(range(K)),
                           num_instances=2, backend="threads")

    def test_unknown_algorithm_spec_fails_loudly(self):
        spec = PartitionerSpec("does-not-exist")
        with pytest.raises(ValueError, match="unknown algorithm"):
            spec(list(range(K)), None)

    def test_max_workers_cap_does_not_change_results(self):
        edges = random_edges(seed=41)
        capped = ParallelLoader(SPECS["hdrf"], partitions=list(range(K)),
                                num_instances=4, backend="process",
                                max_workers=1)
        uncapped = ParallelLoader(SPECS["hdrf"], partitions=list(range(K)),
                                  num_instances=4, backend="process")
        assert_identical(capped.run(InMemoryEdgeStream(edges)),
                         uncapped.run(InMemoryEdgeStream(edges)))

    @pytest.mark.parametrize("max_workers", [0, -2])
    def test_max_workers_below_one_rejected(self, max_workers):
        with pytest.raises(ValueError, match="max_workers"):
            ParallelLoader(SPECS["hdrf"], partitions=list(range(K)),
                           num_instances=4, backend="process",
                           max_workers=max_workers)

    def test_chunk_count_mismatch_rejected(self):
        loader = ParallelLoader(SPECS["hdrf"], partitions=list(range(K)),
                                num_instances=4)
        with pytest.raises(ValueError, match="chunks"):
            loader.run_chunks([InMemoryEdgeStream([Edge(0, 1)])])


class TestMergedResult:
    def test_merged_state_consistent_with_instances(self):
        edges = powerlaw_edges(seed=23)
        result = run_backend(SPECS["greedy"], "process",
                             InMemoryEdgeStream(edges), workers=4)
        union = {}
        for instance in result.instance_results:
            for vertex, reps in instance.state.replica_sets.items():
                union.setdefault(vertex, set()).update(reps)
        assert result.state.replica_sets == union
        assert result.state.partitions == list(range(K))
        assert sum(result.state.partition_edges.values()) == len(edges)
        assert result.state.snapshot().assigned_edges == len(edges)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("algorithm", ["hdrf", "hdrf-reference", "ne"])
    def test_result_is_a_valid_partition_result(self, algorithm, backend):
        edges = powerlaw_edges(seed=23)
        result = run_backend(SPECS[algorithm], backend,
                             InMemoryEdgeStream(edges), workers=2)
        assert isinstance(result, PartitionResult)
        assert validate_result(result, expected_edges=len(edges)).ok
        assert result.replication_degree == result.state.replication_degree()
        assert result.imbalance == result.state.imbalance()
        edge = next(iter(result.assignments))
        assert result.partition_of(Edge(edge.v, edge.u)) == \
            result.assignments[edge]

    def test_assignments_built_once(self):
        result = run_backend(SPECS["hdrf"], "simulated",
                             InMemoryEdgeStream(random_edges()), workers=4)
        assert result.assignments is result.assignments

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("algorithm", ["hdrf", "ne"])
    def test_repeated_edge_across_instances_merges_like_dict_update(
            self, algorithm, backend):
        """(1, 2) is in both halves: it keeps its first position and
        takes the second instance's partition, exactly as ``dict.update``
        over the instances' mappings does."""
        stream = [Edge(1, 2), Edge(2, 3), Edge(1, 2), Edge(3, 4)]
        result = ParallelLoader(SPECS[algorithm], partitions=[0, 1],
                                num_instances=2,
                                backend=backend).run(
            InMemoryEdgeStream(stream))
        expected = {}
        for instance in result.instance_results:
            expected.update(instance.assignments)
        assert list(result.assignments.items()) == list(expected.items())
        assert list(result.assignments) == [Edge(1, 2), Edge(2, 3),
                                            Edge(3, 4)]
        assert result.assignments[Edge(1, 2)] == 1
        assert result.assignments.rows == 4
        assert result.state.assigned_edges == 4
        assert result.state.replica_sets[1] == {0, 1}
        assert validate_result(result).ok
