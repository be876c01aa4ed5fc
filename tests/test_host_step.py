"""Differential layer: one fused kernel per host ≡ one kernel per shard.

A :class:`~repro.cluster.transport.ShardGroup` steps a host's shards as
one kernel over a block-diagonal :class:`~repro.graph.shard.ShardCSR`
and runs the replica exchange on that kernel's own arrays.  This suite
keeps the algorithm it replaced as the reference — :class:`PerShard`
below: one kernel per shard stepped in partition order, then
``test_sync_plan.reference_exchange`` over the parked partials — and
holds the fused group **bit-for-bit** equal to it every superstep: every
per-vertex state array (``tobytes()``), the send count, the aggregate
and the measured sync traffic, for PageRank / components / hop distance
over the boundary shardings of ``test_sync_plan`` (hub replicated
everywhere, empty shards, isolated vertices, single partition, plus a
shard with vertices but no slots) at k in {2, 8, 32}, on one host and on
2 / 4 with the host payloads routed by hand.  On top: the block-diagonal
CSR's layout invariants, the checkpoint format (a partition's image is what a
kernel over that shard alone holds; snapshots cross host layouts and
backends; a restore whose partitions disagree on a scalar is refused) and
hop distance from a source replicated several times within one host.
"""

from __future__ import annotations

import ctypes
from functools import partial

import numpy as np
import pytest
from _hops import HopDistance

from repro.cluster import ClusterEngine
from repro.cluster.transport import (
    ProcessTransport,
    SerialTransport,
    SyncStats,
)
from repro.engine.algorithms import ConnectedComponents, PageRank
from repro.engine.dense import DenseKernel
from repro.engine.placement import Placement
from repro.engine.runtime import Engine
from repro.graph.shard import ShardCSR, ShardedGraph
from test_sync_plan import (
    KINDS,
    SHARDINGS,
    make_groups,
    reference_exchange,
    route,
)

CASES = dict(SHARDINGS)
#: Partition 1 holds one isolated vertex (a row, no slot), partition 2
#: nothing at all.
CASES["slotless"] = ShardedGraph.from_assignments(
    {(0, 1): 0, (1, 2): 0}, partitions=[0, 1, 2], vertices=[77, 78])

PROGRAMS = {
    "pagerank": lambda sharded: PageRank(iterations=5),
    "components": lambda sharded: ConnectedComponents(),
    # The lowest vertex id: the hub (on every partition) where there is
    # one, a vertex shared by the two non-empty shards otherwise.
    "hops": lambda sharded: HopDistance(
        source=min(sharded.vertex_partitions)),
    "hops-settled": lambda sharded: HopDistance(
        source=min(sharded.vertex_partitions), quorum=0),
}
MAX_SUPERSTEPS = 16


def kernel_image(kernel):
    """A kernel's state: every attribute but the CSR and the helpers."""
    return {key: value for key, value in kernel.__dict__.items()
            if key != "csr" and not callable(value)}


def assert_same_image(got, expected, where) -> None:
    assert sorted(got) == sorted(expected), where
    for key, value in expected.items():
        if isinstance(value, np.ndarray):
            assert got[key].dtype == value.dtype, (where, key)
            assert got[key].shape == value.shape, (where, key)
            assert got[key].tobytes() == value.tobytes(), (where, key)
        else:
            assert got[key] == value, (where, key)


def stats_tuple(stats: SyncStats):
    return (stats.remote_messages, stats.local_messages,
            stats.payload_bytes, stats.remote_per_machine,
            stats.local_per_machine)


# ----------------------------------------------------------------------
# The reference: the per-shard superstep the fused step replaced
# ----------------------------------------------------------------------
class PerShard:
    """One kernel per shard over its own ``ShardCSR``, scatter helpers
    intercepted to park each shard's partial, stepped in ascending
    partition order; a syncing superstep then runs the per-channel
    ``reference_exchange`` on the parked arrays (which the kernels hold
    as their message buffers) and charges every channel once per
    direction."""

    def __init__(self, sharded: ShardedGraph, program, machine_of) -> None:
        self.sharded = sharded
        self.machine_of = machine_of
        self.kernels = {}
        self.parked = {}
        for partition in sharded.partitions:
            shard = sharded.shards[partition]
            kernel = program.dense_kernel(shard.csr)
            kernel.owned = shard.owned.copy()
            for kind in KINDS:
                setattr(kernel, f"scatter_{kind}",
                        partial(self._scatter, partition, kind))
            kernel.sent_from = (
                lambda mask, csr=shard.csr:
                int(csr.local_degrees[mask].sum()))
            self.kernels[partition] = kernel

    def _scatter(self, partition, kind, *args):
        recv, values = getattr(DenseKernel, f"scatter_{kind}")(
            self.kernels[partition], *args)
        assert partition not in self.parked
        self.parked[partition] = (kind, values, recv)
        return recv, values

    def superstep(self, superstep: int):
        """``None`` once nothing is left to compute, else ``(computed,
        sent, aggregate, synced, stats)`` of the superstep just run."""
        masks = {p: kernel.compute_mask()
                 for p, kernel in self.kernels.items()}
        computed = sum(int((masks[p] & kernel.owned).sum())
                       for p, kernel in self.kernels.items())
        if computed == 0:
            return None
        self.parked = {}
        results = [kernel.step(superstep, masks[p])
                   for p, kernel in self.kernels.items()]
        sent = sum(int(result[0]) for result in results)
        stats = SyncStats()
        if self.parked:
            assert sorted(self.parked) == self.sharded.partitions
            (kind,) = {kind for kind, _, _ in self.parked.values()}
            partials = {p: (values, recv)
                        for p, (_, values, recv) in self.parked.items()}
            reference_exchange(self.sharded, kind, partials)
            for master, shard in self.sharded.shards.items():
                for mirror, idx in shard.master_channels.items():
                    nbytes = len(idx) * (
                        partials[master][0].itemsize + 1)
                    stats.record(mirror, master, len(idx), nbytes,
                                 self.machine_of)
                    stats.record(master, mirror, len(idx), nbytes,
                                 self.machine_of)
        return (computed, sent, total(result[1] for result in results),
                bool(self.parked), stats_tuple(stats))


def total(aggregates):
    """The coordinator's fold of per-host aggregates: ``None`` skipped."""
    parts = [part for part in aggregates if part is not None]
    return sum(parts) if parts else None


def fused_superstep(groups, superstep: int):
    """The same superstep on the fused groups, the host payloads routed
    by hand the way the coordinator routes them."""
    computed = sum(group.compute_owned() for group in groups.values())
    if computed == 0:
        return None
    results = {h: group.step(superstep) for h, group in groups.items()}
    (synced,) = {result.synced for result in results.values()}
    stats = SyncStats()
    if synced:
        gathered = route({h: g.gather() for h, g in groups.items()})
        folded = route({h: g.fold(gathered[h]) for h, g in groups.items()})
        for host, group in groups.items():
            group.scatter(folded[host])
            stats.merge(group.stats)
    return (computed, sum(result.sent for result in results.values()),
            total(result.aggregate for result in results.values()),
            synced, stats_tuple(stats))


class TestFusedMatchesPerShard:
    @pytest.mark.parametrize("program", sorted(PROGRAMS))
    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("hosts", [1, 2, 4])
    def test_bit_identical_every_superstep(self, name, program, hosts):
        sharded = CASES[name]
        hosts = min(hosts, len(sharded.partitions))
        machine_of = Placement.contiguous_machine_map(sharded.partitions,
                                                      hosts)
        reference = PerShard(sharded, PROGRAMS[program](sharded), machine_of)
        groups = make_groups(sharded, machine_of, hosted=True,
                             program=PROGRAMS[program](sharded))
        ran = 0
        for superstep in range(MAX_SUPERSTEPS):
            expected = reference.superstep(superstep)
            assert fused_superstep(groups, superstep) == expected
            if expected is None:
                break
            ran += 1
            images = {}
            for group in groups.values():
                images.update(group.snapshot())
            assert sorted(images) == sharded.partitions
            for partition, kernel in reference.kernels.items():
                assert_same_image(images[partition], kernel_image(kernel),
                                  (superstep, partition))
        assert ran >= 2
        states = {}
        for group in groups.values():
            mastered = group.states()
            assert not set(mastered) & set(states)
            states.update(mastered)
        expected_states = {}
        for partition, kernel in reference.kernels.items():
            owned = sharded.shards[partition].owned
            ids = sharded.shards[partition].csr.vertex_ids
            by_id = kernel.states()
            expected_states.update(
                {int(v): by_id[int(v)] for v in ids[owned]})
        assert states == expected_states
        assert sorted(states) == sorted(sharded.vertex_partitions)

    def test_serial_layout_logical_machines(self):
        """One host, eight logical machines — the benchmark's layout."""
        sharded = CASES["hub-32"]
        machine_of = Placement.contiguous_machine_map(sharded.partitions, 8)
        reference = PerShard(sharded, PageRank(iterations=4), machine_of)
        groups = make_groups(sharded, machine_of, hosted=False,
                             program=PageRank(iterations=4))
        for superstep in range(6):
            expected = reference.superstep(superstep)
            assert fused_superstep(groups, superstep) == expected
        assert expected is None

    def test_two_scatters_in_one_superstep_are_refused(self):
        class Twice(DenseKernel):
            def step(self, superstep, mask):
                self.scatter_sum(mask, np.ones(len(mask)))
                self.scatter_sum(mask, np.ones(len(mask)))
                return 0, None

        class TwiceProgram(PageRank):
            def dense_kernel(self, csr):
                return Twice(csr)

        group = make_groups(CASES["hub-2"], {0: 0, 1: 0}, hosted=False,
                            program=TwiceProgram())[0]
        group.compute_owned()
        with pytest.raises(RuntimeError, match="more than one scatter"):
            group.step(0)


# ----------------------------------------------------------------------
# The block-diagonal CSR
# ----------------------------------------------------------------------
class TestBlockDiagonal:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_layout(self, name):
        sharded = CASES[name]
        blocks = [sharded.shards[p].csr for p in sharded.partitions]
        host = ShardCSR.block_diagonal(blocks)
        starts = np.cumsum([0] + [b.num_vertices for b in blocks])
        slots = np.cumsum([0] + [len(b.indices) for b in blocks])
        assert host.num_vertices == starts[-1]
        assert host.num_edges == sum(b.num_edges for b in blocks)
        # Widened once, so no superstep converts an index array; the
        # shards themselves keep their int32.
        assert host.indices.dtype == host.rows.dtype == np.intp
        assert all(block.indices.dtype == np.int32 for block in blocks)
        assert host.indptr[0] == 0 and host.indptr[-1] == slots[-1]
        for i, block in enumerate(blocks):
            lo, hi = starts[i], starts[i + 1]
            part = slice(slots[i], slots[i + 1])
            # No slot's row or target leaves its block, and inside the
            # block the slots are the shard's, in the shard's order.
            assert ((host.rows[part] >= lo) & (host.rows[part] < hi)).all()
            assert ((host.indices[part] >= lo)
                    & (host.indices[part] < hi)).all()
            assert (host.indices[part] - lo == block.indices).all()
            assert (host.rows[part] - lo == block.rows).all()
            assert (host.indptr[lo:hi + 1] - slots[i]
                    == block.indptr).all()
            assert (host.degrees[lo:hi] == block.degrees).all()
            assert (host.local_degrees[lo:hi]
                    == block.local_degrees).all()
            assert (host.vertex_ids[lo:hi] == block.vertex_ids).all()
        assert (np.diff(host.indptr) == host.local_degrees).all()

    def test_vertex_ids_repeat(self):
        sharded = CASES["hub-8"]
        host = ShardCSR.block_diagonal(
            [sharded.shards[p].csr for p in sharded.partitions])
        assert (host.vertex_ids == 0).sum() == 8
        assert len(host.vertex_ids) == sum(
            len(ps) for ps in sharded.vertex_partitions.values())

    def test_single_block_is_the_shard(self):
        block = CASES["single"].shards[0].csr
        host = ShardCSR.block_diagonal([block])
        for name in ("indptr", "indices", "rows", "degrees",
                     "local_degrees", "vertex_ids"):
            assert (getattr(host, name) == getattr(block, name)).all()


# ----------------------------------------------------------------------
# Checkpoints: keyed by partition, free of the host layout
# ----------------------------------------------------------------------
def drive(transport, first: int, last: int):
    """Supersteps ``[first, last)``; one row per superstep run."""
    trail = []
    for superstep in range(first, last):
        computed = transport.compute_owned()
        if computed == 0:
            break
        result = transport.step(superstep)
        trail.append((computed, result.sent, result.aggregate,
                      result.synced, stats_tuple(result.stats)))
    return trail


class TestCheckpointFormat:
    @pytest.mark.parametrize("program", sorted(PROGRAMS))
    def test_partition_image_is_a_shard_kernels(self, program):
        """Keys, dtypes and shapes of a partition's snapshot image are
        those of a kernel built over that shard alone — before any step
        the values are too."""
        sharded = CASES["hub-8"]
        group = make_groups(sharded, {p: 0 for p in sharded.partitions},
                            hosted=False,
                            program=PROGRAMS[program](sharded))[0]
        snapshot = group.snapshot()
        assert sorted(snapshot) == sharded.partitions
        for partition, image in snapshot.items():
            shard = sharded.shards[partition]
            alone = PROGRAMS[program](sharded).dense_kernel(shard.csr)
            alone.owned = shard.owned.copy()
            assert_same_image(image, kernel_image(alone), partition)

    @pytest.mark.parametrize("program", sorted(PROGRAMS))
    @pytest.mark.parametrize("first", ["serial", "process"])
    def test_snapshot_crosses_layouts_and_backends(self, program, first):
        """Snapshot on one host, restore on four worker processes, run
        on — and the reverse — ≡ the uninterrupted run."""
        sharded = CASES["hub-8"]
        machine_of = Placement.contiguous_machine_map(sharded.partitions, 4)

        def build(backend):
            cls = SerialTransport if backend == "serial" else ProcessTransport
            return cls(sharded, PROGRAMS[program](sharded), machine_of)

        whole = build("serial")
        expected = drive(whole, 0, MAX_SUPERSTEPS)
        expected_states = whole.states()
        assert len(expected) >= 3
        before = build(first)
        after = build("process" if first == "serial" else "serial")
        try:
            trail = drive(before, 0, 2)
            snapshot = before.snapshot()
            after.restore(snapshot)
            trail += drive(after, 2, MAX_SUPERSTEPS)
            assert trail == expected
            assert after.states() == expected_states
            # The checkpoint survived the restore: it replays again.
            before.restore(snapshot)
            assert drive(before, 2, MAX_SUPERSTEPS) == expected[2:]
            assert before.states() == expected_states
        finally:
            before.close()
            after.close()

    def test_disagreeing_scalar_is_refused(self):
        sharded = CASES["hub-8"]
        group = make_groups(sharded, {p: 0 for p in sharded.partitions},
                            hosted=False, program=PageRank(iterations=5))[0]
        snapshot = group.snapshot()
        snapshot[3]["iterations"] = 7
        with pytest.raises(ValueError) as raised:
            group.restore(snapshot)
        message = str(raised.value)
        assert "'iterations'" in message
        assert "partition 0 holds 5" in message
        assert "partition 3 7" in message


# ----------------------------------------------------------------------
# Hop distance from a source a host holds several replicas of
# ----------------------------------------------------------------------
class TestReplicatedSource:
    @pytest.mark.parametrize("layout", [
        {"backend": "serial"},
        {"backend": "process", "num_workers": 2},
    ], ids=["serial", "process-2"])
    def test_hops_source_on_many_partitions_of_one_host(self, layout):
        sharded = CASES["hub-8"]
        # Vertex 0 has an edge on every partition: eight replicas on the
        # serial host, four on each of two workers.
        assert sharded.vertex_partitions[0] == list(range(8))
        cluster = ClusterEngine(sharded, **layout)
        report = cluster.run(HopDistance(source=0), max_supersteps=40)
        dense = Engine(sharded.to_graph(), cluster.placement,
                       mode="dense").run(HopDistance(source=0),
                                         max_supersteps=40)
        assert report.sharded and report.converged
        assert report.states == dense.states
        assert report.supersteps == dense.supersteps
        assert report.messages_sent == dense.messages_sent
        assert report.aggregates == dense.aggregates
        reached = [d for d in report.states.values() if d == 1.0]
        assert len(reached) >= 8  # one neighbour per partition at least


# ----------------------------------------------------------------------
# A group pins the allocator's thresholds (DESIGN §8)
# ----------------------------------------------------------------------
class TestHeapPinned:
    def test_slot_length_blocks_stay_on_the_heap_once_a_group_exists(self):
        """Whether glibc maps a block (and hands it back on free) or
        trims the heap must not depend on what the process freed last:
        with a group built, a block under 32 MiB is not mapped."""
        libc = ctypes.CDLL(None)
        if not hasattr(libc, "mallinfo2"):
            pytest.skip("no glibc mallinfo2")

        class MallInfo(ctypes.Structure):
            _fields_ = [(name, ctypes.c_size_t) for name in (
                "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks",
                "fsmblks", "uordblks", "fordblks", "keepcost")]

        libc.mallinfo2.restype = MallInfo
        SerialTransport(CASES["hub-8"], PageRank(iterations=1),
                        {p: p for p in range(8)})
        mapped = libc.mallinfo2().hblks
        block = np.ones(8 << 20, dtype=np.uint8)
        assert libc.mallinfo2().hblks == mapped
        in_use = libc.mallinfo2().arena
        del block
        assert libc.mallinfo2().arena == in_use  # freed, not trimmed
