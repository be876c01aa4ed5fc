"""Scale and boundary correctness of the compiled kernels (ROADMAP items 0, 1).

The pump and the stream kernel (DESIGN.md §14) work on raw pointers
into numpy buffers that Python grows and rebinds; a stale binding would
be silent memory corruption, not an ``IndexError``.  So every buffer
they bind is crossed here — from a tiny initial capacity through at
least three doublings — and the outcome compared with the reference
(``fast=False``: the dict state, the object window, per-edge HDRF) on
the full result tuple.  Two more contracts ride along: the compiled tier
must equal the reference beyond the intern table's first allocation
(the item-0 regression), and the state the service answers queries from
must be exact — against the dict reference and, table for table,
against an array state maintained edge by edge in Python — after
*every* pumped batch.
"""

from functools import partial

import numpy as np
import pytest
from _window_utils import (
    assert_same_tables,
    outcome,
    reference,
    result_tuple,
)

from repro.api import open_session
from repro.core import _binding, _kernels, array_window
from repro.core._binding import KernelBinding
from repro.core.adwise import AdwisePartitioner
from repro.core.array_window import ArrayEdgeWindow
from repro.graph.graph import Edge
from repro.graph.stream import InMemoryEdgeStream
from repro.partitioning import fast_state
from repro.partitioning.fast_state import FastPartitionState
from repro.partitioning.hdrf import HDRFPartitioner
from repro.partitioning.parallel import partitioner_registry

pytestmark = pytest.mark.skipif(_kernels.load() is None,
                                reason="compiled kernels unavailable")


# ---------------------------------------------------------------------------
# Item 0: fast=True beyond the first intern-table allocation
# ---------------------------------------------------------------------------

def wide_stream(vertices=4200, extra=2):
    """A path over ``vertices`` distinct vertices plus a few chords per
    vertex: every vertex is new at some point, crossing the fast state's
    1,024-row initial capacity twice (1,024 -> 2,048 -> 4,096 -> 8,192)."""
    pairs = []
    for i in range(vertices - 1):
        pairs.append((i, i + 1))
        for j in range(1, extra):
            pairs.append((i, (i * 7 + j * 131) % (i + 1)))
    return [Edge(u, v) for u, v in pairs if u != v]


@pytest.mark.parametrize("algorithm,knobs", [
    ("adwise", {"fixed_window": 16}),
    ("adwise", {"latency_preference_ms": 150.0}),
    ("hdrf", {}),
], ids=["adwise-fixed", "adwise-adaptive", "hdrf"])
def test_compiled_equals_reference_beyond_initial_capacity(algorithm, knobs):
    edges = wide_stream()
    cls = partitioner_registry()[algorithm]
    fast_p = cls(list(range(8)), **knobs)
    legacy_p = reference(cls, list(range(8)), **knobs)
    fast_r = fast_p.partition_stream(InMemoryEdgeStream(edges))
    legacy_r = legacy_p.partition_stream(InMemoryEdgeStream(edges))
    assert len(fast_p.state._vindex) >= 4100
    assert fast_p.state._capacity >= 4 * fast_state._INITIAL_CAPACITY
    assert (list(fast_r.assignments.items())
            == list(legacy_r.assignments.items()))
    assert fast_r.latency_ms == legacy_r.latency_ms
    assert fast_r.score_computations == legacy_r.score_computations
    assert fast_r.extras == legacy_r.extras
    assert fast_r.replication_degree == legacy_r.replication_degree
    fast_snap, legacy_snap = fast_p.state.snapshot(), legacy_p.state.snapshot()
    assert fast_snap.degree == legacy_snap.degree
    assert fast_snap.replica_bits == legacy_snap.replica_bits
    assert fast_snap.sizes == legacy_snap.sizes


def test_snapshot_roundtrip_beyond_initial_capacity():
    """``from_snapshot`` / ``copy_degrees_from`` intern while filling
    the dense degree table — fetching it before interning would write
    into the array the growth just replaced."""
    partitioner = partitioner_registry()["hdrf"](list(range(4)))
    partitioner.partition_stream(InMemoryEdgeStream(wide_stream(1500, 2)))
    state = partitioner.state
    restored = fast_state.FastPartitionState.from_snapshot(state.snapshot())
    adopted = fast_state.FastPartitionState(range(4))
    adopted.copy_degrees_from(state)
    assert restored._capacity == adopted._capacity == 2048
    for other in (restored, adopted):
        assert other.degree == state.degree
        assert all(other.degree_of(vertex) == state.degree_of(vertex)
                   for vertex in state._vindex)


# ---------------------------------------------------------------------------
# Item 1: every bound buffer crossed from a tiny capacity
# ---------------------------------------------------------------------------

@pytest.fixture
def growths(monkeypatch):
    """Tiny initial capacities everywhere, and a log of every time a
    capacity group grew: ``{capacity field: [new capacity, ...]}``."""
    monkeypatch.setattr(array_window, "_MIN_CAPACITY", 2)
    monkeypatch.setattr(_binding, "_MIN_OUT", 2)
    monkeypatch.setattr(fast_state, "_INITIAL_CAPACITY", 2)
    log = {"slot_cap": [], "vertex_cap": [], "out_cap": []}
    resize = KernelBinding.resize

    def logged_resize(self, fields, cap_field, capacity, keep=True):
        if capacity > getattr(self.ctx, cap_field) > 0:
            log[cap_field].append(capacity)
        resize(self, fields, cap_field, capacity, keep)

    monkeypatch.setattr(KernelBinding, "resize", logged_resize)
    return log


def clustered_stream(n=2600, vertices=600):
    """Dense enough that window-local neighbourhoods are large, over a
    vertex universe that widens steadily so new vertices keep arriving
    in every batch (row growth)."""
    pairs = []
    for i in range(n):
        universe = 8 + i * vertices // n
        u = (i * 7) % universe
        pairs.append((u, (u + 1 + (i * 13) % 9) % universe))
    return [Edge(u, v) for u, v in pairs if u != v]


def run_windowed(edges, batches, build, tiny, **knobs):
    """One partitioner fed ``edges`` cut into ``batches`` ingest calls.
    ``tiny`` swaps in a window built at the smallest capacity (the
    partitioner would otherwise presize it from the window size)."""
    partitioner = build(range(6), **knobs)
    partitioner.begin(total_edges=len(edges))
    if tiny:
        partitioner.window = ArrayEdgeWindow(
            partitioner.scoring, lazy=partitioner.lazy,
            epsilon=partitioner.epsilon,
            max_candidates=partitioner.max_candidates, initial_capacity=1)
    step = -(-len(edges) // batches)
    for start in range(0, len(edges), step):
        partitioner.ingest(edges[start:start + step])
    return partitioner, partitioner.finalize()


CONFIGS = {
    "fixed": {"fixed_window": 96},
    "fixed-eager": {"fixed_window": 48, "lazy": False},
    "fixed-no-cs": {"fixed_window": 96, "use_clustering": False},
    "adaptive-grow": {"latency_preference_ms": None, "max_window": 256},
    "adaptive-grow-shrink": {"latency_preference_ms": 400.0,
                             "max_window": 256},
}


@pytest.mark.parametrize("batches", [1, 7], ids=["one-batch", "7-batches"])
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_every_buffer_crosses_three_doublings(growths, config, batches):
    """Slot arrays (with the incidence links, agenda and scratch) and
    output lists double through ``KERN_NEED_*`` re-entries inside one
    pump; with one batch all of them inside a single ingest call.
    State rows (with the per-vertex head/stamp arrays and counters) regrow
    while the batch is interned, before its pump — so it takes several
    batches to regrow and rebind them under a live window."""
    knobs = CONFIGS[config]
    edges = clustered_stream()
    expected = outcome(*run_windowed(
        edges, batches, partial(reference, AdwisePartitioner), False,
        **knobs))
    partitioner, result = run_windowed(edges, batches, AdwisePartitioner,
                                       True, **knobs)
    assert outcome(partitioner, result) == expected
    assert partitioner.window._ctx.vertex_cap == partitioner.state._capacity
    if batches == 1:
        del growths["vertex_cap"]  # bound once, after interning
    for field, capacities in growths.items():
        assert len(capacities) >= 3, (field, capacities)


@pytest.mark.parametrize("batches", [1, 7], ids=["one-batch", "7-batches"])
def test_stream_kernel_buffers_cross_three_doublings(growths, batches):
    """HDRF's batch transaction binds the same state tables and output
    lists through the same owner: from capacity 2, the output lists
    double through ``KERN_NEED_OUT`` re-entries and the state rows regrow
    (and are rebound) as each batch is interned."""
    edges = clustered_stream()
    step = -(-len(edges) // batches)
    results = []
    for build in (HDRFPartitioner, partial(reference, HDRFPartitioner)):
        partitioner = build(range(6))
        partitioner.begin(total_edges=len(edges))
        for start in range(0, len(edges), step):
            partitioner.ingest(edges[start:start + step])
        results.append(result_tuple(partitioner.finalize()))
        if build is HDRFPartitioner:
            kernel = partitioner.kernel
            assert kernel.ctx.vertex_cap == partitioner.state._capacity
    assert results[0] == results[1]
    assert len(growths["out_cap"]) >= 3, growths
    if batches > 1:
        assert len(growths["vertex_cap"]) >= 3, growths
    assert not growths["slot_cap"]


def test_grow_then_shrink_really_shrinks(growths):
    partitioner, _ = run_windowed(clustered_stream(), 1, AdwisePartitioner,
                                  True, **CONFIGS["adaptive-grow-shrink"])
    sizes = [event.window_after for event in partitioner.controller.events]
    assert max(sizes) >= 64
    assert sizes[-1] < max(sizes)
    # Compaction ran: the slot arrays ended below their peak.
    assert partitioner.window._ctx.slot_cap < max(growths["slot_cap"])


def test_bound_buffers_are_validated_before_the_pump():
    partitioner = AdwisePartitioner(range(4), fixed_window=8)
    partitioner.begin()
    partitioner.ingest([Edge(1, 2), Edge(2, 3)])
    kernel = partitioner.window._kern
    array = kernel.array("score")
    with pytest.raises(RuntimeError, match="kernel buffer 'score'"):
        kernel.bind("score", array[::2], array.size)  # short, strided
    assert kernel.array("score") is array  # a refused buffer binds nothing
    partitioner.ingest([Edge(3, 4)])
    with pytest.raises(RuntimeError, match="dense vertex row"):
        kernel.check_rows(np.array([0, kernel.ctx.vertex_cap]))


# ---------------------------------------------------------------------------
# The state: exact after every pumped batch
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("knobs", [{"fixed_window": 32},
                                   {"latency_preference_ms": 100.0,
                                    "max_window": 64}],
                         ids=["fixed", "adaptive"])
def test_state_exact_after_every_batch(knobs):
    edges = wide_stream(1100, 2)
    knobs = dict(knobs, partitions=6, expected_edges=len(edges))
    pumped = open_session("adwise", **knobs)
    legacy = reference(open_session, "adwise", **knobs)
    # The same array state maintained by Python's own per-edge
    # ``observe_degrees`` / ``assign``: the pump observes every edge of
    # a batch (interned in stream order when it is staged) and assigns
    # the ones it pops.
    twin = FastPartitionState(range(6))
    assert isinstance(pumped.partitioner.window, ArrayEdgeWindow)
    seen = set()
    for start in range(0, len(edges), 97):
        batch = edges[start:start + 97]
        seen.update(v for edge in batch for v in edge)
        emitted = pumped.ingest(batch)
        assert emitted == legacy.ingest(batch)
        for edge in batch:
            twin.observe_degrees(edge.canonical())
        for assignment in emitted:
            twin.assign(assignment.edge, assignment.partition)
        state, ref = pumped.partitioner.state, legacy.partitioner.state
        snap, ref_snap = state.snapshot(), ref.snapshot()
        assert snap.replica_bits == ref_snap.replica_bits
        assert snap.sizes == ref_snap.sizes
        assert snap.degree == ref_snap.degree
        assert snap.max_degree == ref_snap.max_degree
        assert snap.assigned_edges == ref_snap.assigned_edges
        assert state.imbalance() == ref.imbalance()
        assert state.replication_degree() == ref.replication_degree()
        assert state.total_replicas() == ref.total_replicas()
        assert state.max_size == ref.max_size
        assert state.min_size == ref.min_size
        for p in state.partitions:
            assert state.size(p) == ref.size(p)
        for vertex in seen:
            assert state.replicas(vertex) == ref.replicas(vertex)
            assert state.degree_of(vertex) == ref.degree_of(vertex)
            assert pumped.query_vertex(vertex) == legacy.query_vertex(vertex)
        for edge in batch:
            assert (pumped.query_edge(edge.u, edge.v)
                    == legacy.query_edge(edge.u, edge.v))
        assert pumped.stats().to_dict() == legacy.stats().to_dict()
        assert_same_tables(state, twin)
    assert (list(pumped.finalize().assignments.items())
            == list(legacy.finalize().assignments.items()))
