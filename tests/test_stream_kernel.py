"""The single-edge stream kernel: HDRF, one C transaction per batch.

``kern_hdrf`` (DESIGN.md §14) replays ``StreamingPartitioner.
partition_edge`` — observe, score ``k`` partitions, first-maximum argmax,
vertex-cache update — for a whole ingest batch.  The contract is
bit-identity to the dict reference (``fast=False``) on the full result
tuple, and, after *every* batch, a fast state whose every table equals
one maintained edge by edge in Python.  Each case below is there because
a plausible wrong kernel passes the others: the chunkings move the
batch boundaries, the wide streams reallocate the state tables while a
batch is being interned and under a live binding, the tiny output lists
force ``KERN_NEED_OUT`` re-entries, and the crafted states pin down the
argmax tie-break and the floating-point association of the balance term.
"""

import math

import numpy as np
import pytest
from _window_utils import assert_same_tables, load_mutant, reference
from _window_utils import result_tuple as outcome

from repro import obs
from repro.api import open_session, restore_session
from repro.core import _binding, _kernels
from repro.graph.generators import powerlaw_cluster_graph
from repro.graph.graph import Edge
from repro.graph.stream import shuffled
from repro.partitioning import fast_state
from repro.partitioning.base import StreamingPartitioner
from repro.partitioning.fast_state import FastPartitionState
from repro.partitioning.hdrf import HDRFPartitioner
from repro.partitioning.state import PartitionState, StateSnapshot

pytestmark = pytest.mark.skipif(_kernels.load() is None,
                                reason="compiled kernels unavailable")


class PerEdgeHDRF(HDRFPartitioner):
    """HDRF on whatever state it is given, always through the per-edge
    Python path — what maintains the twin fast state."""

    _partition_batch = StreamingPartitioner._partition_batch


def clustered(n=300, m=6, seed=5):
    graph = powerlaw_cluster_graph(n=n, m=m, p=0.5, seed=seed)
    return list(shuffled(graph.edges(), seed=seed + 2))


def wide(vertices):
    """Every vertex is new at some point: a path plus one chord each."""
    pairs = []
    for i in range(vertices - 1):
        pairs.append((i, i + 1))
        pairs.append((i, (i * 7 + 131) % (i + 1)))
    return [Edge(u, v) for u, v in pairs if u != v]


def chunks(edges, size):
    if size is None:
        return [edges]
    return [edges[i:i + size] for i in range(0, len(edges), size)]


def run_three(edges, batches, partitions=range(8), **knobs):
    """The same batches through native HDRF, the dict reference and the
    per-edge-maintained fast state; tables compared after every batch.
    Returns the native partitioner and the (equal) outcome."""
    native = HDRFPartitioner(partitions, **knobs)
    legacy = reference(HDRFPartitioner, partitions, **knobs)
    twin = PerEdgeHDRF(partitions, **knobs)
    total = sum(len(batch) for batch in batches)
    for partitioner in (native, legacy, twin):
        partitioner.begin(total_edges=total)
    for batch in batches:
        emitted = native.ingest(batch)
        assert emitted == legacy.ingest(batch)
        assert emitted == twin.ingest(batch)
        assert_same_tables(native.state, twin.state)
        assert native.clock.now() == legacy.clock.now()
    assert twin.kernel is None
    result = native.finalize()
    assert outcome(result) == outcome(legacy.finalize())
    assert outcome(result) == outcome(twin.finalize())
    snap, ref = native.state.snapshot(), legacy.state.snapshot()
    assert (snap.replica_bits, snap.sizes, snap.degree, snap.max_degree,
            snap.assigned_edges) == (ref.replica_bits, ref.sizes, ref.degree,
                                     ref.max_degree, ref.assigned_edges)
    return native, result


# ---------------------------------------------------------------------------
# Differential grid
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("size", [1, 7, 256, None],
                         ids=["1", "7", "256", "whole"])
def test_any_chunking_equals_the_reference(size):
    edges = clustered()
    native, result = run_three(edges, chunks(edges, size))
    assert native.kernel is not None
    assert len(result.assignments) == len(edges)


def test_empty_batches_change_nothing():
    edges = clustered(n=120)
    batches = [[]] + [b for chunk in chunks(edges, 50) for b in (chunk, [])]
    _, with_empty = run_three(edges, batches)
    _, without = run_three(edges, chunks(edges, 50))
    assert outcome(with_empty) == outcome(without)


@pytest.mark.parametrize("knobs", [
    {"lam": 0}, {"lam": 0.0}, {"lam": 5.5},
    {"partitions": [0]},
    {"partitions": [7, 3, 40, 11]},
    {"partitions": range(32)},
], ids=["lam-int-0", "lam-0", "lam-5.5", "k-1", "spread-ids", "k-32"])
def test_knobs(knobs):
    edges = clustered(n=200)
    run_three(edges, chunks(edges, 64), **knobs)


def test_self_loops_and_duplicate_edges():
    edges = clustered(n=150)
    stream = []
    for i, edge in enumerate(edges):
        stream.append(edge)
        if i % 5 == 0:
            stream.append(Edge(edge.u, edge.u))  # a loop at a live vertex
        if i % 7 == 0:
            stream.append(Edge(edge.v, edge.u))  # reversed duplicate
    stream.append(Edge(10**6, 10**6))            # a loop at a new vertex
    native, result = run_three(stream, chunks(stream, 37))
    # Duplicates collapse onto one key; every edge was still assigned.
    assert native.state.assigned_edges == len(stream)
    assert len(result.assignments) < len(stream)


def test_exact_ties_take_the_first_partition():
    """Nothing assigned yet: every partition scores the same, and the
    reference's strict ``>`` keeps the first of them."""
    native, result = run_three([Edge(1, 2)], [[Edge(1, 2)]],
                               partitions=[9, 4, 6])
    assert result.assignments[Edge(1, 2)] == 9
    # Two partitions that both hold u, equally loaded: first again.
    edges = [Edge(1, 2), Edge(1, 3), Edge(4, 5), Edge(1, 6)]
    run_three(edges, [edges], partitions=range(3), lam=0.0)


# ---------------------------------------------------------------------------
# The cached λ·C_bal column
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("size", [1, 7, 256])
@pytest.mark.parametrize("lam", [0.0, 1.1, 1e6])
@pytest.mark.parametrize("k", [1, 2, 3, 8, 9, 33, 130])
def test_balance_column_sweep(k, lam, size):
    """``kern_hdrf`` keeps ``λ·C_bal`` as a k-entry column: built at
    entry, rebuilt whenever the max or min size moves (inside a batch
    too, at 7 and 256 edges), and otherwise refreshed at the assigned
    column only.  k runs past every vector width and off its multiples;
    λ makes balance nothing, a tie-breaker, or everything.  The max
    moves at every k; at λ = 1e6 the 684 edges fill even 130 partitions
    five deep, so the min moves too."""
    edges = clustered(n=120)
    native = HDRFPartitioner(range(k), lam=lam)
    legacy = reference(HDRFPartitioner, range(k), lam=lam)
    for batch in chunks(edges, size):
        assert native.ingest(batch) == legacy.ingest(batch)
    if lam == 1e6:
        assert native.state.min_size >= 5
    assert outcome(native.finalize()) == outcome(legacy.finalize())


HDRF_MUTANTS = {
    "column not rebuilt when max or min moves": (
        "if (c->max_size != max_size || c->min_size != min_size) {",
        "if (max_size < 0) {"),
    "assigned column not refreshed": (
        "        bal[best_col] = hdrf_balance(c, lam, denominator, "
        "best_col);\n", ""),
    "argmax takes the last maximum": (
        "if (sc[j] > best) {", "if (sc[j] >= best) {"),
}


@pytest.mark.parametrize("name", sorted(HDRF_MUTANTS))
def test_mutant_is_caught(name, tmp_path, monkeypatch):
    load_mutant(HDRF_MUTANTS[name], tmp_path, monkeypatch)
    with pytest.raises(AssertionError):
        test_exact_ties_take_the_first_partition()
        for k in (3, 33):
            test_balance_column_sweep(k, 1.1, 256)


# ---------------------------------------------------------------------------
# Injected states
# ---------------------------------------------------------------------------

def states_from(snapshot):
    fast = FastPartitionState.from_snapshot(snapshot)
    legacy = PartitionState.from_snapshot(snapshot)
    return fast, legacy


def test_injected_state_with_a_spread_subset():
    """A partitioner used as a spotlight instance: its state arrives
    from outside, already part-filled, over non-contiguous ids."""
    seed_edges = clustered(n=100)
    warm = reference(HDRFPartitioner, [5, 17, 2])
    warm.begin()
    warm.ingest(seed_edges[:200])
    snapshot = warm.state.snapshot()
    fast, legacy = states_from(snapshot)
    native = HDRFPartitioner([5, 17, 2], state=fast)
    control = HDRFPartitioner([5, 17, 2], state=legacy)
    for batch in chunks(seed_edges[200:], 33):
        assert native.ingest(batch) == control.ingest(batch)
    assert native.kernel is not None and native.kernel.state is fast
    assert outcome(native.finalize()) == outcome(control.finalize())


def test_swapping_the_state_rebinds():
    """Batch drivers that use partitioners as policies swap ``state``
    between batches; the binding must follow the live state."""
    edges = clustered(n=100)
    native = HDRFPartitioner(range(4))
    control = reference(HDRFPartitioner, range(4))
    native.ingest(edges[:100])
    control.ingest(edges[:100])
    first = native.kernel
    native.state = FastPartitionState.from_snapshot(native.state.snapshot())
    assert native.ingest(edges[100:200]) == control.ingest(edges[100:200])
    assert native.kernel is not first and native.kernel.state is native.state
    assert outcome(native.finalize()) == outcome(control.finalize())


def test_epsilon_association_decides_an_assignment():
    """``C_bal``'s denominator is ``(ε + max) − min``, in that order.
    With sizes (1000, 999) the other association, ``ε + (max − min)``,
    is a different float, and λ is chosen between the two thresholds:
    the reference sends the edge to the emptier partition, a kernel
    that re-associates keeps it with u's replica."""
    epsilon = 1e-9
    big, small = 1000, 999
    ours = 1.0 / ((epsilon + big) - small)
    other = 1.0 / (epsilon + (big - small))
    assert ours != other
    # Edge (1, 2): u = 1 is on partition 0 (the fuller one), v is new.
    # After observing, deg(1) = 4 and deg(2) = 1.
    stay = 1.0 + (1.0 - 4 / 5)
    low, high = sorted((ours, other))
    lam = stay / high
    while not lam * high > stay:
        lam = math.nextafter(lam, math.inf)
    assert lam * low <= stay  # the two associations disagree at this λ
    snapshot = StateSnapshot(partitions=[0, 1], replica_bits={1: 0b01},
                             sizes=[big, small], degree={1: 3},
                             max_degree=3, assigned_edges=big + small)
    fast, legacy = states_from(snapshot)
    native = HDRFPartitioner([0, 1], state=fast, lam=lam)
    control = HDRFPartitioner([0, 1], state=legacy, lam=lam)
    expected = control.ingest([Edge(1, 2)])
    assert expected[0].partition == (1 if ours == high else 0)
    assert native.ingest([Edge(1, 2)]) == expected
    assert native.kernel.kernel_calls == 1


def test_equal_sizes_past_two_to_the_24_have_no_balance_term():
    """At 2**24 edges each, ``(ε + max) − min`` rounds to 0.0: every
    ``C_bal`` is 0 and vertex 1's replica decides, on both tiers — then
    a stream continued from there stays identical."""
    size = 2 ** 24
    assert (1e-9 + size) - size == 0.0
    snapshot = StateSnapshot(partitions=[0, 1], sizes=[size, size],
                             replica_bits={1: 0b10}, degree={1: 1},
                             max_degree=1, assigned_edges=2 * size)
    fast, legacy = states_from(snapshot)
    native = HDRFPartitioner([0, 1], state=fast)
    control = HDRFPartitioner([0, 1], state=legacy, fast=False)
    expected = control.ingest([Edge(1, 2)])
    assert [a.partition for a in expected] == [1]
    assert native.ingest([Edge(1, 2)]) == expected
    edges = clustered(n=60)
    assert native.ingest(edges) == control.ingest(edges)
    assert native.state.snapshot() == control.state.snapshot()


# ---------------------------------------------------------------------------
# Capacity boundaries
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("vertices", [1100, 2200])
def test_state_tables_reallocated_inside_one_batch(vertices):
    """More than 1,024 (2,048) distinct vertices in a single batch: the
    replica matrix, row versions and dense degrees are reallocated while
    ``dense_rows`` interns the batch, before anything is bound."""
    edges = wide(vertices)
    native, _ = run_three(edges, [edges])
    assert len(native.state._vindex) == vertices
    assert native.state._capacity > fast_state._INITIAL_CAPACITY
    assert native.kernel.ctx.vertex_cap == native.state._capacity


def test_state_tables_reallocated_under_a_live_binding():
    """The same stream in 256-edge batches: the tables move twice while
    the binding is alive and must be re-fetched each time."""
    edges = wide(2200)
    native, _ = run_three(edges, chunks(edges, 256))
    assert native.kernel.ctx.vertex_cap == native.state._capacity == 4096
    assert native.kernel.array("replicas") is native.state._replicas
    assert native.kernel.array("deg") is native.state._deg


def test_output_lists_grow_from_capacity_two(monkeypatch):
    """Seven ``KERN_NEED_OUT`` exits inside the first 256-edge batch,
    each resumed where it stopped; nothing observed or assigned twice."""
    monkeypatch.setattr(_binding, "_MIN_OUT", 2)
    edges = clustered()
    native, _ = run_three(edges[:600], chunks(edges[:600], 256))
    kernel = native.kernel
    assert kernel.ctx.out_cap == 256
    assert kernel.array("chg_row").size == 512
    assert kernel.kernel_calls == 8 + 1 + 1


def test_one_kernel_call_per_steady_batch():
    edges = clustered()
    native = HDRFPartitioner(range(8), fast=True)
    native.ingest(edges[:256])  # grows the output lists to 256
    calls = []
    for batch in chunks(edges[256:256 * 6], 256):
        before = native.kernel.kernel_calls
        native.ingest(batch)
        calls.append(native.kernel.kernel_calls - before)
    assert calls == [1] * 5
    assert native.kernel.kernel_ns > 0


def test_rows_are_validated_before_the_kernel():
    native = HDRFPartitioner(range(4), fast=True)
    native.ingest([Edge(1, 2)])
    kernel = native.kernel
    array = kernel.array("out_col")
    with pytest.raises(RuntimeError, match="kernel buffer 'out_col'"):
        kernel.bind("out_col", array.astype(np.int32), array.size)
    assert kernel.array("out_col") is array  # a refused buffer binds nothing
    native.ingest([Edge(2, 3)])
    with pytest.raises(RuntimeError, match="dense vertex row"):
        kernel.check_rows(np.array([-1, 0]))


# ---------------------------------------------------------------------------
# Sessions: snapshots cross between the two paths
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("taken_native", [True, False],
                         ids=["native-to-per-edge", "per-edge-to-native"])
def test_snapshot_continues_on_the_other_path(monkeypatch, taken_native):
    edges = clustered()
    half = len(edges) // 2
    uninterrupted = reference(open_session, "hdrf", partitions=8)
    uninterrupted.ingest(edges)
    expected = uninterrupted.finalize()

    def without_kernels():
        monkeypatch.setattr(_kernels, "_loaded", None)

    if not taken_native:
        without_kernels()
    live = open_session("hdrf", partitions=8, fast=True)
    for batch in chunks(edges[:half], 100):
        live.ingest(batch)
    assert (live.partitioner.kernel is not None) == taken_native
    snapshot = live.snapshot()
    monkeypatch.undo()
    if taken_native:
        without_kernels()
    resumed = restore_session(snapshot)
    for batch in chunks(edges[half:], 100):
        resumed.ingest(batch)
    assert (resumed.partitioner.kernel is not None) != taken_native
    assert outcome(resumed.finalize()) == outcome(expected)
    assert resumed.stats().assignments_emitted == len(expected.assignments)


def test_session_queries_read_the_partitioner():
    """The session keeps no second assignment map."""
    session = open_session("hdrf", partitions=4, fast=True)
    session.ingest([(3, 1), (1, 2)])
    assert session.query_edge(1, 3) == session.query_edge(3, 1) is not None
    assert session.query_edge(8, 9) is None
    assert session.stats().assignments_emitted == 2
    assert [(u, v) for u, v, _ in session.snapshot().assignments] == [
        (1, 3), (1, 2)]
    result = session.finalize()
    assert session.query_edge(1, 2) == result.assignments[Edge(1, 2)]
    assert not hasattr(session, "_map")


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------

def test_kernel_tallies_are_published_at_finalize():
    registry = obs.registry()
    registry.reset()
    obs.enable()
    try:
        edges = clustered(n=100)
        native = HDRFPartitioner(range(4), fast=True)
        for batch in chunks(edges, 256):
            native.ingest(batch)
        native.finalize()
        counters = {c["name"]: c for c in obs.snapshot()["counters"]
                    if c["name"].startswith("repro_partition_kernel")}
    finally:
        obs.disable()
        registry.reset()
    calls = counters["repro_partition_kernel_calls_total"]
    assert calls["value"] == native.kernel.kernel_calls
    assert calls["labels"] == {"algorithm": "HDRF"}
    seconds = counters["repro_partition_kernel_seconds_total"]
    assert seconds["value"] == native.kernel.kernel_ns / 1e9
