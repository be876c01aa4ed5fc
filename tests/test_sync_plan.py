"""Differential layer: compiled sync plan ≡ per-channel reference fold.

The cluster runtime compiles a group's master/mirror channel tables into
one flat gather/fold/scatter (:class:`repro.cluster.transport.SyncPlan`).
This suite holds that exchange **bit-for-bit** equal — ``values`` and
``recv``, for sum and min — to :func:`reference_exchange` below,
the per-channel algorithm the plan replaced (walk every channel, fold
each mirror slice into its master in ascending partition order,
broadcast each combined slice back), over shardings that cross the
plan's boundaries: a vertex replicated on every partition, empty shards,
a single partition (empty plan), isolated vertices and a host that
masters nothing, at k in {2, 8, 32}, on one host and on several with the
host payloads routed by hand.  On top: the process backend (2 and 4 real
workers) is bit-identical to the serial one at k = 32 with measured
traffic equal to the placement's prediction, a ``mid-scatter`` kill
recovers to the unfaulted states, and malformed host payloads or
hosts whose kernels disagree are refused.
"""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest
from _hops import HopDistance
from _shard_reference import ReferenceSharding, reference_plan

from repro import obs
from repro.cluster import ClusterEngine, FaultInjector, Kill, transport
from repro.cluster.runtime import SuperstepTelemetry
from repro.cluster.transport import ShardGroup
from repro.engine.algorithms import ConnectedComponents, PageRank
from repro.engine.dense import DenseKernel
from repro.engine.placement import Placement
from repro.engine.runtime import Engine
from repro.engine.vertex_program import VertexProgram
from repro.graph.shard import ShardedGraph
from test_cluster_runtime import assert_sync_matches_prediction

KINDS = ("sum", "min")
#: What a kernel parks, each fold kind at the element types it takes:
#: float64 sums, and ``min`` over int64 labels (components) and float64
#: hop distances.
PARKED = [("sum", np.float64), ("min", np.int64), ("min", np.float64)]
PARKED_IDS = ["sum", "min", "min-float64"]


# ----------------------------------------------------------------------
# The reference: the per-channel exchange the plan replaced
# ----------------------------------------------------------------------
def reference_exchange(sharded: ShardedGraph, kind: str, partials) -> None:
    """Replica sync of ``partials`` (partition -> ``(values, recv)``), in
    place, one channel at a time: every master folds its mirrors' slices
    onto its own partial in ascending mirror-partition order, then every
    mirror slice is overwritten with the master's combined one."""
    gathered = {}
    for src in sharded.partitions:
        values, recv = partials[src]
        for dst, idx in sorted(sharded.shards[src].mirror_channels.items()):
            gathered[dst, src] = (values[idx], recv[idx])
    for dst, src in sorted(gathered):
        values, recv = partials[dst]
        theirs, their_recv = gathered[dst, src]
        idx = sharded.shards[dst].master_channels[src]
        if kind == "min":
            values[idx] = np.minimum(values[idx], theirs)
        else:
            values[idx] = values[idx] + theirs
        recv[idx] |= their_recv
    for src in sharded.partitions:
        values, recv = partials[src]
        for dst, idx in sorted(sharded.shards[src].master_channels.items()):
            mirror_idx = sharded.shards[dst].mirror_channels[src]
            partials[dst][0][mirror_idx] = values[idx]
            partials[dst][1][mirror_idx] = recv[idx]


# ----------------------------------------------------------------------
# Shardings that cross the plan's boundaries
# ----------------------------------------------------------------------
def hub_sharding(k: int, seed: int = 0) -> ShardedGraph:
    """Vertex 0 has an edge on *every* partition (replicated k times, so
    its fold has k - 1 rounds); a random background graph shares more
    vertices between random partition subsets; vertices 900.. are
    isolated."""
    rng = np.random.default_rng(seed)
    assignments = {(0, 1 + p): p for p in range(k)}
    for _ in range(40 * k):
        u, v = (int(x) for x in rng.integers(1, 12 * k, size=2))
        if u != v:
            assignments.setdefault((min(u, v), max(u, v)),
                                   int(rng.integers(0, k)))
    return ShardedGraph.from_assignments(assignments, partitions=range(k),
                                         vertices=[900, 901, 902])


def sparse_sharding(k: int) -> ShardedGraph:
    """Only partitions 0 and k - 1 hold edges — every other shard is
    empty — and every vertex of partition k - 1 is also on partition 0,
    so partition k - 1 (and any host holding only it) masters nothing."""
    assignments = {(1, 2): 0, (3, 4): 0, (5, 6): 0, (1, 7): 0,
                   (1, 3): k - 1, (2, 5): k - 1, (4, 6): k - 1}
    return ShardedGraph.from_assignments(assignments, partitions=range(k))


def single_partition() -> ShardedGraph:
    return ShardedGraph.from_assignments({(0, 1): 0, (1, 2): 0},
                                         partitions=[0], vertices=[9])


def shardings():
    cases = {"single": single_partition()}
    for k in (2, 8, 32):
        cases[f"hub-{k}"] = hub_sharding(k, seed=k)
        cases[f"sparse-{k}"] = sparse_sharding(k)
    return cases


SHARDINGS = shardings()


def random_partials(sharded: ShardedGraph, kind: str, seed: int,
                    dtype=np.int64):
    """Per-partition ``(values, recv)`` a kernel could have parked: sums
    of wildly different magnitudes (so a changed association shows in the
    last bits), labels for ``min`` — at float64, distances that hold the
    ``inf`` sentinel wherever no message arrived."""
    rng = np.random.default_rng(seed)
    partials = {}
    for partition in sharded.partitions:
        n = sharded.shards[partition].num_vertices
        if kind == "sum":
            values = rng.random(n) * 10.0 ** rng.integers(-8, 8, size=n)
        else:
            values = rng.integers(0, 1000, size=n).astype(dtype)
        recv = rng.random(n) < 0.5
        if values.dtype == np.float64 and kind == "min":
            values[~recv] = np.inf
        partials[partition] = (values, recv)
    return partials


def make_groups(sharded: ShardedGraph, machine_of, hosted: bool,
                program=None):
    """One group per host (``hosted``: hosts are the machines, as on the
    process backend) or a single group for everything (serial)."""
    host_of = (dict(machine_of) if hosted
               else {p: 0 for p in sharded.partitions})
    groups = {}
    for host in sorted(set(host_of.values())):
        shards = [sharded.shards[p] for p in sharded.partitions
                  if host_of[p] == host]
        groups[host] = ShardGroup(shards, program or PageRank(iterations=1),
                                  machine_of, host_of, host)
    return groups


def route(outbound):
    """The coordinator's routing: ``{sender: {receiver: payload}}`` ->
    ``{receiver: {sender: payload}}``."""
    inbound = {sender: {} for sender in outbound}
    for sender, payloads in outbound.items():
        for receiver, payload in payloads.items():
            inbound[receiver][sender] = payload
    return inbound


def park(group, kind: str, partials):
    """Park the group's ``partials`` laid end to end — the one flat pair
    its kernel's scatter would have parked; returns the pair."""
    values, recv = (np.concatenate([partials[p][i] for p in group.bounds])
                    for i in (0, 1))
    group.park(kind, values, recv)
    return values, recv


def plan_exchange(groups, kind: str, partials) -> None:
    """Run the compiled exchange over ``partials`` in place, routing the
    host payloads between the groups the way the coordinator does."""
    parked = {h: park(g, kind, partials) for h, g in groups.items()}
    gathered = route({h: g.gather() for h, g in groups.items()})
    folded = route({h: g.fold(gathered[h]) for h, g in groups.items()})
    for host, group in groups.items():
        group.scatter(folded[host])
        for partition, part in group.bounds.items():
            for mine, flat in zip(partials[partition], parked[host]):
                mine[:] = flat[part]


def assert_same_bits(got, expected) -> None:
    assert sorted(got) == sorted(expected)
    for partition, (values, recv) in expected.items():
        assert got[partition][0].dtype == values.dtype
        assert got[partition][0].tobytes() == values.tobytes(), partition
        assert got[partition][1].tobytes() == recv.tobytes(), partition


def copy_partials(partials):
    return {p: (v.copy(), r.copy()) for p, (v, r) in partials.items()}


def host_map(partitions, layout: str):
    """``one`` host, ``contiguous-<n>`` blocks, or ``mod-3``."""
    if layout == "one":
        return {p: 0 for p in partitions}
    if layout == "mod-3":
        return {p: p % 3 for p in partitions}
    hosts = min(int(layout.split("-")[1]), len(partitions))
    return Placement.contiguous_machine_map(partitions, hosts)


def assert_same_plan(plan, expected) -> None:
    assert plan.rows == expected.rows
    assert plan.rounds == expected.rounds
    for name in ("targets", "mirrors", "masters", "slots"):
        got, want = getattr(plan, name), getattr(expected, name)
        if name == "targets":
            got, want = {None: got}, {None: want}
        assert sorted(got) == sorted(want), name
        for host, array in want.items():
            assert got[host].dtype == array.dtype, (name, host)
            assert np.array_equal(got[host], array), (name, host)


# ----------------------------------------------------------------------
# Plan exchange ≡ reference, bit for bit
# ----------------------------------------------------------------------
class TestPlanMatchesReference:
    @pytest.mark.parametrize("kind,dtype", PARKED, ids=PARKED_IDS)
    @pytest.mark.parametrize("name", sorted(SHARDINGS))
    @pytest.mark.parametrize("hosts", [1, 2, 4])
    def test_bit_identical(self, name, kind, dtype, hosts):
        sharded = SHARDINGS[name]
        hosts = min(hosts, len(sharded.partitions))
        machine_of = Placement.contiguous_machine_map(sharded.partitions,
                                                      hosts)
        for seed in range(3):
            expected = random_partials(sharded, kind, seed, dtype)
            got = copy_partials(expected)
            reference_exchange(sharded, kind, expected)
            plan_exchange(make_groups(sharded, machine_of, hosted=True),
                          kind, got)
            assert_same_bits(got, expected)

    @pytest.mark.parametrize("kind,dtype", PARKED, ids=PARKED_IDS)
    def test_one_group_logical_machines(self, kind, dtype):
        """The serial layout: one host, eight logical machines."""
        sharded = SHARDINGS["hub-32"]
        machine_of = Placement.contiguous_machine_map(sharded.partitions, 8)
        expected = random_partials(sharded, kind, seed=7, dtype=dtype)
        got = copy_partials(expected)
        reference_exchange(sharded, kind, expected)
        groups = make_groups(sharded, machine_of, hosted=False)
        plan_exchange(groups, kind, got)
        assert_same_bits(got, expected)
        # The tally is the placement's prediction, per machine.
        stats = sharded.placement(
            num_machines=8, machine_of_partition=machine_of).stats()
        measured = groups[0].stats
        assert measured.remote_per_machine == {
            m: c for m, c in stats.remote_sync_per_machine.items() if c}
        assert measured.local_per_machine == {
            m: c for m, c in stats.local_sync_per_machine.items() if c}
        mirrors = sum(len(ps) - 1
                      for ps in sharded.vertex_partitions.values())
        assert measured.payload_bytes == 2 * mirrors * 9

    def test_hub_is_replicated_everywhere(self):
        """The shardings are what they claim: the fold really has k - 1
        rounds, and the last host of the sparse one masters nothing."""
        sharded = SHARDINGS["hub-32"]
        assert sharded.vertex_partitions[0] == list(range(32))
        group = make_groups(sharded, {p: 0 for p in range(32)},
                            hosted=False)[0]
        assert len(group.plan.rounds) == 31
        sparse = SHARDINGS["sparse-8"]
        assert not sparse.shards[7].owned.any()
        assert sparse.shards[3].num_vertices == 0
        last = make_groups(sparse, Placement.contiguous_machine_map(
            sparse.partitions, 4), hosted=True)[3]
        assert not last.plan.rounds and set(last.plan.mirrors) == {0}

    @pytest.mark.parametrize("layout", ["one", "contiguous-2",
                                        "contiguous-4", "contiguous-8",
                                        "mod-3"])
    @pytest.mark.parametrize("built", ["builder", "by-hand"])
    @pytest.mark.parametrize("name", sorted(SHARDINGS))
    def test_plan_fields(self, name, built, layout):
        """Every field of every host's plan equals the per-channel
        construction's (``_shard_reference.reference_plan``), on the
        builder's shards (columns supplied) and on the per-edge
        reference builder's (tables filled by hand)."""
        sharded = SHARDINGS[name]
        if built == "by-hand":
            sharded = ReferenceSharding(
                dict(sharded.incidence.edges()),
                partitions=sharded.partitions,
                vertices=sharded.incidence.ids.tolist())
        groups = make_groups(sharded, host_map(sharded.partitions, layout),
                             hosted=True)
        for host, group in groups.items():
            shards = [sharded.shards[p] for p in group.bounds]
            assert_same_plan(group.plan, reference_plan(
                shards, group.bounds, host_map(sharded.partitions, layout)))

    def test_tables_filled_out_of_order(self):
        """Tables whose dicts list their peers in descending order and
        hold an empty channel (7 -> 2, against the min-partition rule)
        give the per-channel construction's plan, the empty channel's
        ``(src, dst, 0)`` rows included."""
        sharded = SHARDINGS["hub-8"]
        shards = []
        for p in sharded.partitions:
            shard = sharded.shards[p]
            masters = dict(sorted(shard.master_channels.items(),
                                  reverse=True))
            mirrors = dict(sorted(shard.mirror_channels.items(),
                                  reverse=True))
            if p == 7:  # masters sit on the lowest partition: never 7 -> 2
                masters[2] = np.empty(0, dtype=np.int64)
            if p == 2:
                mirrors[7] = np.empty(0, dtype=np.int64)
            shards.append(dataclasses.replace(
                shard, master_channels=masters, mirror_channels=mirrors))
        for layout in ("one", "mod-3"):
            host_of = host_map(sharded.partitions, layout)
            for host in sorted(set(host_of.values())):
                mine = [shard for shard in shards
                        if host_of[shard.partition] == host]
                group = ShardGroup(mine, PageRank(iterations=1), host_of,
                                   host_of, host)
                expected = reference_plan(mine, group.bounds, host_of)
                assert_same_plan(group.plan, expected)
                if layout == "one":
                    assert (7, 2, 0) in expected.rows
                    assert (2, 7, 0) in expected.rows

    def test_peer_missing_from_the_host_map(self):
        """A channel naming a partition the host map lacks is refused
        with that partition's ``KeyError``, not routed to a neighbour."""
        sharded = SHARDINGS["hub-8"]
        host_of = {p: 0 for p in sharded.partitions if p != 5}
        shards = [sharded.shards[p] for p in sorted(host_of)]
        with pytest.raises(KeyError, match="5"):
            ShardGroup(shards, PageRank(iterations=1), host_of, host_of, 0)

    def test_rank_sort_must_be_stable(self, monkeypatch):
        """A plan whose ranks come from a sort that reverses ties folds
        mirrors out of partition order: the field comparison sees it."""
        sharded = SHARDINGS["hub-32"]
        machine_of = host_map(sharded.partitions, "one")
        expected = reference_plan([sharded.shards[p]
                                   for p in sharded.partitions],
                                  make_groups(sharded, machine_of,
                                              hosted=True)[0].bounds,
                                  machine_of)
        monkeypatch.setattr(transport, "stable_order", lambda keys: (
            len(keys) - 1 - np.argsort(keys[::-1], kind="stable")))
        group = make_groups(sharded, machine_of, hosted=True)[0]
        with pytest.raises(AssertionError):
            assert_same_plan(group.plan, expected)

    def test_empty_plan(self):
        group = make_groups(single_partition(), {0: 0}, hosted=True)[0]
        assert group.plan.rows == [] and group.plan.rounds == []
        partials = random_partials(single_partition(), "sum", seed=1)
        expected = copy_partials(partials)
        plan_exchange({0: group}, "sum", partials)
        assert_same_bits(partials, expected)
        assert group.stats.remote_messages == 0
        assert group.stats.payload_bytes == 0


# ----------------------------------------------------------------------
# Whole engine: serial ≡ process, measured ≡ predicted, at k = 32
# ----------------------------------------------------------------------
def traffic(report):
    return [(t.synced, t.remote_messages, t.local_messages, t.payload_bytes,
             t.remote_per_machine, t.local_per_machine)
            for t in report.telemetry]


class TestEngineAtK32:
    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("factory", [
        lambda: PageRank(iterations=6),
        lambda: ConnectedComponents(),
        lambda: HopDistance(source=0),
        lambda: HopDistance(source=0, quorum=0),
    ], ids=["pagerank", "components", "hops", "hops-settled"])
    def test_process_bit_identical_to_serial(self, factory, workers):
        sharded = SHARDINGS["hub-32"]
        process = ClusterEngine(sharded, backend="process",
                                num_workers=workers)
        serial = ClusterEngine(sharded, backend="serial",
                               num_machines=workers,
                               machine_of_partition=process.machine_of)
        process_report = process.run(factory(), max_supersteps=40)
        serial_report = serial.run(factory(), max_supersteps=40)
        assert process_report.states == serial_report.states
        assert process_report.aggregates == serial_report.aggregates
        assert process_report.messages_sent == serial_report.messages_sent
        assert traffic(process_report) == traffic(serial_report)
        assert any(t.synced for t in serial_report.telemetry)
        assert_sync_matches_prediction(process_report, process.placement)
        assert_sync_matches_prediction(serial_report, serial.placement)

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_mid_scatter_kill_recovers(self, backend):
        sharded = SHARDINGS["hub-32"]
        layout = ({"num_workers": 4} if backend == "process"
                  else {"num_machines": 4})
        unfaulted = ClusterEngine(sharded, backend=backend, **layout).run(
            PageRank(iterations=6), max_supersteps=40)
        injector = FaultInjector([Kill(superstep=2, point="mid-scatter",
                                       machine=1)])
        recovered = ClusterEngine(
            sharded, backend=backend, checkpoint_every=2,
            fault_injector=injector, **layout).run(
                PageRank(iterations=6), max_supersteps=40)
        assert len(recovered.recoveries) == 1
        assert recovered.states == unfaulted.states
        assert recovered.aggregates == unfaulted.aggregates
        assert traffic(recovered) == traffic(unfaulted)

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_shard_without_a_sender(self, backend):
        """Partition 1 holds one isolated vertex, partition 2 nothing:
        neither has a slot to send from, and ``bincount``'s integer
        zeros for an empty input must not read as a different partial."""
        sharded = ShardedGraph.from_assignments(
            {(0, 1): 0, (1, 2): 0}, partitions=[0, 1, 2],
            vertices=[77, 78])
        assert [sharded.shards[p].num_vertices for p in range(3)] == [4, 1, 0]
        cluster = ClusterEngine(sharded, backend=backend)
        report = cluster.run(PageRank(iterations=4), max_supersteps=10)
        dense = Engine(sharded.to_graph(), cluster.placement,
                       mode="dense").run(PageRank(iterations=4),
                                         max_supersteps=10)
        assert report.states == dense.states
        assert report.sharded and report.remote_sync_messages == 0

    def test_sync_time_is_measured(self):
        report = ClusterEngine(SHARDINGS["hub-32"], num_machines=4).run(
            PageRank(iterations=3), max_supersteps=10)
        for telemetry in report.telemetry:
            assert 0.0 <= telemetry.sync_ms <= telemetry.wall_ms
            assert telemetry.compute_ms > 0.0
            assert (telemetry.compute_ms + telemetry.sync_ms
                    <= telemetry.wall_ms)
            if telemetry.synced:
                assert telemetry.sync_ms > 0.0

    def test_old_checkpoint_telemetry_still_loads(self):
        """A telemetry row pickled before ``sync_ms`` existed."""
        old = SuperstepTelemetry(superstep=0, computed=1,
                                 active_fraction=1.0, wall_ms=1.0,
                                 compute_ms=0.5, synced=True,
                                 remote_messages=2, local_messages=0,
                                 payload_bytes=18)
        del old.__dict__["sync_ms"]
        assert pickle.loads(pickle.dumps(old)).sync_ms == 0.0


@pytest.fixture
def clean_obs():
    def reset():
        obs.disable()
        obs.registry().reset()
        obs.tracer().clear()
    reset()
    yield
    reset()


class TestObservability:
    def test_sync_histogram_and_spans(self, clean_obs):
        obs.enable()
        ClusterEngine(SHARDINGS["hub-8"], num_machines=2).run(
            PageRank(iterations=3), max_supersteps=10)
        for name in ("repro_cluster_sync_seconds",
                     "repro_cluster_compute_seconds"):
            histogram = [h for h in obs.snapshot()["histograms"]
                         if h["name"] == name]
            assert histogram, name
            assert histogram[0]["labels"] == {"backend": "serial"}
            assert histogram[0]["count"] == 4  # 3 syncing supersteps + halt
            assert histogram[0]["sum"] > 0.0
        spans = obs.tracer().spans()
        supersteps = {s["span_id"] for s in spans
                      if s["name"] == "cluster.superstep"}
        computes = [s for s in spans if s["name"] == "cluster.compute"]
        assert len(computes) == 4
        assert all(s["parent_id"] in supersteps for s in computes)
        assert [s["attrs"] for s in computes] == [
            {"host": 0, "superstep": i} for i in range(4)]
        for name in ("cluster.sync_gather", "cluster.sync_scatter"):
            inside = [s for s in spans if s["name"] == name]
            assert len(inside) == 3
            assert all(s["parent_id"] in supersteps for s in inside)


# ----------------------------------------------------------------------
# Refusals
# ----------------------------------------------------------------------
class _MixedKernel(DenseKernel):
    """Parks an int64 min on the host holding vertex 900 and a sum
    elsewhere — the non-determinism the exchange's payload check exists
    to catch."""

    def step(self, superstep, mask):
        everyone = np.ones(self.csr.num_vertices, dtype=bool)
        if 900 in self.csr.vertex_ids.tolist():
            self.has_msg, self.msg = self.scatter_min(
                everyone, np.zeros(self.csr.num_vertices, dtype=np.int64), 0)
        else:
            self.has_msg, self.msg = self.scatter_sum(
                everyone, np.ones(self.csr.num_vertices))
        return 0, None

    def states(self):
        return {int(v): 0 for v in self.csr.vertex_ids}


class _MixedProgram(VertexProgram):
    name = "mixed"
    shardable = True

    def dense_kernel(self, csr):
        return _MixedKernel(csr)


class TestRefusals:
    def two_hosts(self, kind="sum"):
        sharded = SHARDINGS["hub-8"]
        machine_of = Placement.contiguous_machine_map(sharded.partitions, 2)
        groups = make_groups(sharded, machine_of, hosted=True)
        partials = random_partials(sharded, kind, seed=3)
        for group in groups.values():
            park(group, kind, partials)
        return groups, route({h: g.gather() for h, g in groups.items()})

    def test_truncated_payload_is_refused(self):
        groups, gathered = self.two_hosts()
        kind, values, recv = gathered[0][1]
        assert len(values) > 1
        with pytest.raises(RuntimeError, match="truncated payload"):
            groups[0].fold({1: (kind, values[:-1], recv[:-1])})
        with pytest.raises(RuntimeError, match="truncated payload"):
            groups[0].fold({1: (kind, values, recv[:-1])})

    def test_wrong_kind_or_dtype_is_refused(self):
        groups, gathered = self.two_hosts()
        kind, values, recv = gathered[0][1]
        with pytest.raises(RuntimeError, match="non-deterministic kernel"):
            groups[0].fold({1: ("min", values, recv)})
        with pytest.raises(RuntimeError, match="non-deterministic kernel"):
            groups[0].fold({1: (kind, values.astype(np.float32), recv)})
        with pytest.raises(RuntimeError, match="non-deterministic kernel"):
            groups[0].fold({1: (kind, values, recv.astype(np.uint8))})

    def test_missing_or_unexpected_host_is_refused(self):
        groups, gathered = self.two_hosts()
        with pytest.raises(RuntimeError, match="plan expects"):
            groups[0].fold({})
        with pytest.raises(RuntimeError, match="plan expects"):
            groups[0].fold({1: gathered[0][1], 5: gathered[0][1]})
        folded = route({h: g.fold(gathered[h]) for h, g in groups.items()})
        with pytest.raises(RuntimeError, match="plan expects"):
            groups[1].scatter({})
        kind, values, recv = folded[1][0]
        with pytest.raises(RuntimeError, match="truncated payload"):
            groups[1].scatter({0: (kind, values[1:], recv[1:])})

    def test_disagreeing_kernels_are_refused(self):
        """Two hosts: one kernel per host cannot disagree with itself,
        but hosts can — the receiving host's payload check refuses."""
        sharded = SHARDINGS["hub-8"]
        machine_of = Placement.contiguous_machine_map(sharded.partitions, 2)
        assert sharded.vertex_partitions[900] == [0]
        groups = make_groups(sharded, machine_of, hosted=True,
                             program=_MixedProgram())
        for group in groups.values():
            group.compute_owned()
            assert group.step(0).synced
        gathered = route({h: g.gather() for h, g in groups.items()})
        with pytest.raises(RuntimeError,
                           match="non-deterministic kernel") as raised:
            groups[0].fold(gathered[0])
        # The message names who parked what.
        assert "'min', dtype('int64')" in str(raised.value)
        assert "'sum', dtype('float64')" in str(raised.value)
