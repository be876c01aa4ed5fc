"""Differential tests for the incremental ingestion protocol.

The contract under test: feeding a stream through ``begin`` /
``ingest`` (any chunking) / ``finalize`` is **bit-identical** to the
batch ``partition_stream`` call — same assignments, same simulated
latency, same adaptive-controller extras.  This is what lets the
session facade and the service daemon reuse every algorithm unchanged.
"""

import random
from functools import partial

import pytest
from _window_utils import reference

from repro.core.adwise import AdwisePartitioner
from repro.graph.graph import Edge
from repro.graph.stream import InMemoryEdgeStream
from repro.partitioning.base import Assignment
from repro.partitioning.greedy import GreedyPartitioner
from repro.partitioning.dbh import DBHPartitioner
from repro.partitioning.hdrf import HDRFPartitioner
from repro.simtime import SimulatedClock


def _random_edges(n, vertices, seed):
    rng = random.Random(seed)
    edges = [Edge(rng.randrange(vertices), rng.randrange(vertices))
             for _ in range(n)]
    return [e for e in edges if e.u != e.v]


EDGES = _random_edges(1200, 180, seed=42)


def _make(factory):
    return factory(list(range(6)), clock=SimulatedClock())


def _run_batch(factory):
    return _make(factory).partition_stream(InMemoryEdgeStream(EDGES))


def _run_incremental(factory, chunk):
    partitioner = _make(factory)
    partitioner.begin(total_edges=len(EDGES))
    emitted = []
    for start in range(0, len(EDGES), chunk):
        emitted.extend(partitioner.ingest(EDGES[start:start + chunk]))
    return partitioner.finalize(), emitted


ADWISE = partial(AdwisePartitioner, latency_preference_ms=40.0)
ADWISE_FIXED = partial(AdwisePartitioner, fixed_window=64)


# Both tiers of the algorithms that have two: as built by default (the
# compiled kernels where they load) and the checked reference.
@pytest.mark.parametrize("chunk", [1, 7, 64, 500, len(EDGES)])
@pytest.mark.parametrize("factory", [
    ADWISE, partial(reference, ADWISE),
    ADWISE_FIXED, partial(reference, ADWISE_FIXED),
    HDRFPartitioner, partial(reference, HDRFPartitioner),
    DBHPartitioner, GreedyPartitioner,
], ids=["adwise", "adwise-reference", "adwise-fixed",
        "adwise-fixed-reference", "hdrf", "hdrf-reference", "dbh", "greedy"])
class TestBatchIncrementalParity:
    def test_assignments_identical(self, factory, chunk):
        batch = _run_batch(factory)
        incremental, _ = _run_incremental(factory, chunk)
        assert incremental.assignments == batch.assignments

    def test_latency_and_extras_identical(self, factory, chunk):
        batch = _run_batch(factory)
        incremental, _ = _run_incremental(factory, chunk)
        assert incremental.latency_ms == batch.latency_ms
        assert incremental.extras == batch.extras
        assert (incremental.score_computations
                == batch.score_computations)

    def test_emitted_stream_covers_result(self, factory, chunk):
        """ingest() returns every decision as it is made; together with
        finalize()'s drained tail they reconstruct the assignment map.

        Uses a deduplicated stream: a duplicate edge is legitimately
        re-decided on its second occurrence, so only unique streams give
        a 1:1 emitted/final correspondence to assert on.
        """
        unique = list(dict.fromkeys(e.canonical() for e in EDGES))
        partitioner = _make(factory)
        partitioner.begin(total_edges=len(unique))
        emitted = []
        for start in range(0, len(unique), chunk):
            emitted.extend(partitioner.ingest(unique[start:start + chunk]))
        result = partitioner.finalize()
        replayed = {a.edge: a.partition for a in emitted}
        assert len(replayed) == len(emitted)  # no edge decided twice
        assert set(replayed).issubset(result.assignments)
        for edge, partition in replayed.items():
            assert result.assignments[edge] == partition
        assert len(result.assignments) == len(unique)


class TestIngestProtocol:
    def test_ingest_returns_assignment_objects(self):
        partitioner = HDRFPartitioner(list(range(4)),
                                      clock=SimulatedClock())
        emitted = partitioner.ingest([Edge(1, 2), Edge(2, 3)])
        assert [type(a) for a in emitted] == [Assignment, Assignment]
        assert emitted[0].edge == Edge(1, 2).canonical()
        assert emitted[0].partition in range(4)

    def test_single_edge_algorithms_emit_immediately(self):
        partitioner = DBHPartitioner(list(range(4)),
                                     clock=SimulatedClock())
        partitioner.begin()
        assert len(partitioner.ingest([Edge(0, 1)])) == 1
        assert len(partitioner.ingest([Edge(1, 2), Edge(2, 3)])) == 2

    def test_window_algorithm_buffers(self):
        """ADWISE holds edges back until the window can admit them."""
        partitioner = AdwisePartitioner(list(range(4)),
                                        clock=SimulatedClock(),
                                        fixed_window=32)
        partitioner.begin()
        emitted = partitioner.ingest([Edge(i, i + 1) for i in range(10)])
        assert emitted == []  # window target 32 never filled
        result = partitioner.finalize()
        assert len(result.assignments) == 10

    def test_ingest_without_begin_autostarts(self):
        partitioner = AdwisePartitioner(list(range(4)),
                                        clock=SimulatedClock())
        emitted = partitioner.ingest([Edge(0, 1)])
        result = partitioner.finalize()
        assert len(result.assignments) == len(emitted) == 1

    def test_begin_resets_previous_run(self):
        partitioner = HDRFPartitioner(list(range(4)),
                                      clock=SimulatedClock())
        partitioner.partition_stream(InMemoryEdgeStream(EDGES[:50]))
        partitioner.begin()
        partitioner.ingest([Edge(0, 1)])
        result = partitioner.finalize()
        assert len(result.assignments) == 1

    def test_offline_partitioners_declare_no_incremental(self):
        from repro.partitioning.jabeja import JaBeJaVCPartitioner
        from repro.partitioning.ne import NEPartitioner

        assert not NEPartitioner.supports_incremental
        assert not JaBeJaVCPartitioner.supports_incremental
        assert AdwisePartitioner.supports_incremental
        assert HDRFPartitioner.supports_incremental
