"""Differential layer: the native BSP host step ≡ the numpy one.

Where the compiled kernels load, a
:class:`~repro.cluster.transport.ShardGroup` combines per target in one
``kern_scatter`` pass over its host's adjacency slots and runs the
in-process part of the replica exchange as ``kern_sync_fold`` /
``kern_sync_put`` over its plan; elsewhere (and for
element arrays C is never handed) it runs the dense kernel's numpy
helpers and the numpy fold.  The tier is chosen at construction from what
``_kernels.load()`` returns, so this suite builds the numpy tier the way
``test_window_fallback`` builds the reference tier — the loader's memo
patched to "no kernels" — and holds the two **bit-for-bit** equal: every
kernel array after every superstep, send counts and measured traffic,
for every program of ``test_host_step`` (float and int, add and min,
full and partial frontiers) over its boundary shardings and
hypothesis-drawn ones, on 1 / 2 / 4 hosts and through real workers;
checkpoints cross the tiers; arrays that are not plain never reach C;
malformed shards and plans are refused at construction; and mutated
kernels fail the same checks.
"""

from __future__ import annotations

import contextlib
import dataclasses

import numpy as np
import pytest
from _window_utils import load_mutant
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import transport
from repro.cluster.transport import ProcessTransport, SerialTransport
from repro.core import _kernels
from repro.core._binding import _CTYPES
from repro.engine.algorithms import PageRank
from repro.engine.dense import DenseKernel
from repro.engine.placement import Placement
from repro.graph.shard import Shard, ShardCSR, ShardedGraph
from test_host_step import (
    CASES,
    MAX_SUPERSTEPS,
    PROGRAMS,
    assert_same_image,
    drive,
    fused_superstep,
    kernel_image,
)
from test_sync_plan import (
    KINDS,
    PARKED,
    PARKED_IDS,
    assert_same_bits,
    copy_partials,
    make_groups,
    plan_exchange,
    random_partials,
)

# The numpy reference announces inf - inf and NaN comparisons.
pytestmark = pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")

two_tiers = pytest.mark.skipif(
    _kernels.load() is None,
    reason="no compiled kernels here: one tier, nothing to compare")


@contextlib.contextmanager
def no_kernels():
    """Groups (and forked workers) built inside run the numpy tier."""
    saved, _kernels._loaded = _kernels._loaded, None
    try:
        yield
    finally:
        _kernels._loaded = saved


def machines(sharded: ShardedGraph, hosts: int):
    return Placement.contiguous_machine_map(
        sharded.partitions, min(hosts, len(sharded.partitions)))


def both_tiers(sharded, hosts: int, program: str, hosted: bool = True):
    """``(native groups, numpy groups)`` over one layout."""
    machine_of = machines(sharded, hosts)
    native = make_groups(sharded, machine_of, hosted,
                         program=PROGRAMS[program](sharded))
    with no_kernels():
        numpy_tier = make_groups(sharded, machine_of, hosted,
                                 program=PROGRAMS[program](sharded))
    assert all(group._native is not None for group in native.values())
    assert all(group._native is None for group in numpy_tier.values())
    return native, numpy_tier


def images(groups):
    merged = {}
    for group in groups.values():
        merged.update(group.snapshot())
    return merged


def assert_tiers_agree(sharded, hosts: int, program: str) -> int:
    """Step both tiers side by side; every array of every partition's
    image after every superstep, the counts and the traffic are equal."""
    native, numpy_tier = both_tiers(sharded, hosts, program)
    ran = 0
    for superstep in range(MAX_SUPERSTEPS):
        expected = fused_superstep(numpy_tier, superstep)
        assert fused_superstep(native, superstep) == expected
        if expected is None:
            break
        ran += 1
        got, want = images(native), images(numpy_tier)
        assert sorted(got) == sorted(want) == sharded.partitions
        for partition in want:
            assert_same_image(got[partition], want[partition],
                              (superstep, partition))
    states = [{v: s for g in groups.values() for v, s in g.states().items()}
              for groups in (native, numpy_tier)]
    assert states[0] == states[1]
    return ran


def special_floats(rng, n: int) -> np.ndarray:
    """Magnitudes far apart (a changed association shows in the last
    bits) with NaN, infinities and both zeros mixed in."""
    values = rng.random(n) * 10.0 ** rng.integers(-8, 8, size=n)
    specials = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0])
    picked = rng.random(n) < 0.15
    values[picked] = rng.choice(specials, size=int(picked.sum()))
    return values


def assert_exchange_agrees(sharded, hosts: int, kind: str, partials) -> None:
    native, numpy_tier = both_tiers(sharded, hosts, "pagerank")
    got, want = copy_partials(partials), copy_partials(partials)
    plan_exchange(native, kind, got)
    plan_exchange(numpy_tier, kind, want)
    assert_same_bits(got, want)


def core_differential() -> None:
    """The checks a broken kernel must not survive: scatter over partial
    frontiers, and the fold's association on a vertex with 7 mirrors."""
    sharded = CASES["hub-8"]
    for program in sorted(PROGRAMS):
        assert assert_tiers_agree(sharded, 2, program) >= 2
    for kind in KINDS:
        assert_exchange_agrees(sharded, 1, kind,
                               random_partials(sharded, kind, seed=5))


# ----------------------------------------------------------------------
# Superstep by superstep, both tiers
# ----------------------------------------------------------------------
@st.composite
def shardings(draw) -> ShardedGraph:
    """A small random assignment: few vertices over up to 6 partitions,
    so most vertices are replicated and some partitions stay empty."""
    k = draw(st.integers(1, 6))
    n = draw(st.integers(2, 14))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                  st.integers(0, k - 1)).filter(lambda t: t[0] != t[1]),
        min_size=1, max_size=40))
    assignments = {(min(u, v), max(u, v)): p for u, v, p in pairs}
    return ShardedGraph.from_assignments(
        assignments, partitions=range(k),
        vertices=draw(st.lists(st.integers(100, 103), max_size=2,
                               unique=True)))


@two_tiers
class TestTiersAgree:
    @pytest.mark.parametrize("program", sorted(PROGRAMS))
    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("hosts", [1, 2, 4])
    def test_every_array_every_superstep(self, name, program, hosts):
        ran = assert_tiers_agree(CASES[name], hosts, program)
        assert ran >= 2

    @settings(max_examples=60, deadline=None)
    @given(sharded=shardings(), hosts=st.sampled_from([1, 2, 4]),
           program=st.sampled_from(sorted(PROGRAMS)))
    def test_drawn_shardings(self, sharded, hosts, program):
        assert_tiers_agree(sharded, hosts, program)

    def test_the_core_differential_passes(self):
        core_differential()

    @pytest.mark.parametrize("kind,dtype", PARKED, ids=PARKED_IDS)
    @pytest.mark.parametrize("name", ["hub-32", "sparse-8", "single"])
    @pytest.mark.parametrize("hosts", [1, 4])
    def test_exchange_of_random_partials(self, name, kind, dtype, hosts):
        sharded = CASES[name]
        assert_exchange_agrees(sharded, hosts, kind,
                               random_partials(sharded, kind, 11, dtype))

    @pytest.mark.parametrize("kind", ["sum", "min"])
    @pytest.mark.parametrize("hosts", [1, 2])
    def test_exchange_of_nan_inf_and_signed_zero(self, kind, hosts):
        """float64 ``min`` (hop distance's) keeps ``np.minimum``'s NaN
        and tie rules through the fold; sums of specials add in the same
        order."""
        sharded = CASES["hub-8"]
        rng = np.random.default_rng(3)
        partials = {
            p: (special_floats(rng, sharded.shards[p].num_vertices),
                rng.random(sharded.shards[p].num_vertices) < 0.5)
            for p in sharded.partitions}
        assert_exchange_agrees(sharded, hosts, kind, partials)


@two_tiers
class TestScatterPass:
    """``kern_scatter`` ≡ the dense kernel's own numpy helper, called on
    the same host kernel with the same arguments."""

    @settings(max_examples=40, deadline=None)
    @given(sharded=shardings(), seed=st.integers(0, 2 ** 32 - 1),
           density=st.sampled_from([0.0, 0.3, 1.0]))
    # A draw whose float min meets a -0.0 / 0.0 tie: numpy's newcomer
    # wins it, and a kernel that kept the accumulator failed here.
    @example(sharded=ShardedGraph.from_assignments(
        {(0, 1): 0, (0, 4): 0, (2, 3): 0, (5, 6): 0}, partitions=range(1)),
        seed=5241, density=1.0)
    def test_every_kind_and_element_type(self, sharded, seed, density):
        group = make_groups(sharded, machines(sharded, 1), hosted=False)[0]
        spy = Spy(group._native[1])
        group._native = (group._native[0], spy)
        rng = np.random.default_rng(seed)
        n = group.kernel.csr.num_vertices
        send = rng.random(n) < density
        calls = [("sum", (send, special_floats(rng, n))),
                 ("min", (send, special_floats(rng, n), np.inf)),
                 ("min", (send, rng.integers(-50, 50, size=n),
                          np.iinfo(np.int64).max))]
        for kind, args in calls:
            group._kind = ""
            recv, out = group._scatter(kind, *args)
            assert group._op is not None
            want_recv, want = getattr(DenseKernel, f"scatter_{kind}")(
                group.kernel, *args)
            assert (out.dtype, out.shape) == (want.dtype, want.shape)
            assert out.tobytes() == want.tobytes(), kind
            assert recv.dtype == np.bool_
            assert recv.tobytes() == want_recv.tobytes(), kind
        assert spy.calls == ["kern_scatter"] * len(calls)


# ----------------------------------------------------------------------
# ``min`` keeps numpy's rule on signed zeros and NaN
# ----------------------------------------------------------------------
#: ``(held, arriving)``: the four signed-zero orders, then NaN against a
#: number, against a zero and against itself, on either side.
MIN_PAIRS = [(0.0, 0.0), (0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0),
             (np.nan, 1.0), (1.0, np.nan), (np.nan, -0.0), (-0.0, np.nan),
             (np.nan, np.nan)]
MIN_ENTRIES = ["kern_scatter", "kern_sync_fold"]


def assert_min_is_numpys(entry: str, held: float, arriving: float) -> None:
    """``min(held, arriving)`` through one call of the compiled ``entry``
    — one sending slot scattered into a target that holds ``held``, or
    one contribution folded into a master that does — is bit for bit
    what its numpy twin answers: ``np.minimum.at`` for the scatter,
    ``np.minimum`` for the fold."""
    ffi, lib = _kernels.load()

    def ptr(array):
        return ffi.from_buffer(_CTYPES[array.dtype], array)

    got, value = np.array([held]), np.array([arriving])
    index = np.zeros(1, dtype=np.int64)
    flag, recv = np.ones(1, dtype=bool), np.zeros(1, dtype=bool)
    if entry == "kern_scatter":
        lib.kern_scatter(lib.KERN_MIN_F64, ptr(index), ptr(index), 1,
                         ptr(flag), ptr(value), ptr(got), ptr(recv))
        want = np.array([held])
        np.minimum.at(want, [0], [arriving])
    else:
        remote = np.full(1, -1, dtype=np.int64)  # read from the buffer
        lib.kern_sync_fold(lib.KERN_MIN_F64, ptr(got), ptr(recv), ptr(index),
                           ptr(remote), ptr(value), ptr(flag), 1)
        want = np.minimum(np.array([held]), np.array([arriving]))
    assert got.tobytes() == want.tobytes(), (entry, held, arriving, got)


@two_tiers
class TestMinIsNumpys:
    """A tie goes to the newcomer (``np.minimum(0.0, -0.0)`` is
    ``-0.0``), a NaN on either side stays — through both entries.  A
    numpy with another rule fails here, by pair, not by a lucky draw."""

    @pytest.mark.parametrize("held, arriving", MIN_PAIRS)
    @pytest.mark.parametrize("entry", MIN_ENTRIES)
    def test_signed_zeros_and_nan(self, entry, held, arriving):
        assert_min_is_numpys(entry, held, arriving)


# ----------------------------------------------------------------------
# Real workers, and checkpoints across the tiers
# ----------------------------------------------------------------------
def transport_for(sharded, program: str, native: bool, workers: int = 0):
    """A serial transport, or a process one over ``workers``, on the
    asked tier (forked workers inherit the loader's memo)."""
    tier = contextlib.nullcontext() if native else no_kernels()
    with tier:
        if workers:
            return ProcessTransport(sharded, PROGRAMS[program](sharded),
                                    machines(sharded, workers), timeout=60)
        return SerialTransport(sharded, PROGRAMS[program](sharded),
                               machines(sharded, 8))


def snapshot_bytes(transport_):
    return {partition: {key: (value.tobytes() if isinstance(value, np.ndarray)
                              else value) for key, value in image.items()}
            for partition, image in transport_.snapshot().items()}


@two_tiers
class TestProcessBackend:
    @pytest.mark.parametrize("program", sorted(PROGRAMS))
    @pytest.mark.parametrize("workers", [2, 4])
    def test_native_workers_equal_numpy_workers(self, program, workers):
        sharded = CASES["hub-8"]
        runs = []
        for native in (True, False):
            process = transport_for(sharded, program, native, workers)
            try:
                trail = drive(process, 0, MAX_SUPERSTEPS)
                runs.append((trail, snapshot_bytes(process),
                             process.states()))
            finally:
                process.close()
        assert len(runs[0][0]) >= 2
        assert runs[0] == runs[1]


@two_tiers
class TestCheckpointsCrossTiers:
    @pytest.mark.parametrize("program", sorted(PROGRAMS))
    @pytest.mark.parametrize("writer_native", [True, False])
    def test_restore_on_the_other_tier_continues_the_run(
            self, program, writer_native):
        sharded = CASES["hub-8"]
        whole = transport_for(sharded, program, native=True)
        expected = drive(whole, 0, MAX_SUPERSTEPS)
        assert len(expected) >= 3
        writer = transport_for(sharded, program, writer_native)
        head = drive(writer, 0, 2)
        checkpoint = writer.snapshot()
        reader = transport_for(sharded, program, not writer_native)
        assert (reader.group._native is None) == writer_native
        reader.restore(checkpoint)
        assert head + drive(reader, 2, MAX_SUPERSTEPS) == expected
        assert snapshot_bytes(reader) == snapshot_bytes(whole)
        assert reader.states() == whole.states()

    def test_the_kernel_gains_no_attribute(self):
        """The kernel's ``__dict__`` is the checkpoint image: whatever
        the native tier needs lives on the group."""
        sharded = CASES["hub-8"]
        native, numpy_tier = both_tiers(sharded, 1, "pagerank")
        for superstep in range(3):
            fused_superstep(native, superstep)
            fused_superstep(numpy_tier, superstep)
        assert (sorted(kernel_image(native[0].kernel))
                == sorted(kernel_image(numpy_tier[0].kernel)))
        assert (sorted(native[0].kernel.__dict__)
                == sorted(numpy_tier[0].kernel.__dict__))


# ----------------------------------------------------------------------
# What a program hands in: only plain arrays reach C
# ----------------------------------------------------------------------
class Spy:
    """The loaded library with every entry taken recorded."""

    def __init__(self, lib) -> None:
        self.lib, self.calls = lib, []

    def __getattr__(self, name):
        if name.startswith("kern_"):
            self.calls.append(name)
        return getattr(self.lib, name)


@two_tiers
class TestOnlyPlainArraysReachC:
    def spied_group(self):
        sharded = CASES["hub-8"]
        group = make_groups(sharded, machines(sharded, 1), hosted=False)[0]
        spy = Spy(group._native[1])
        group._native = (group._native[0], spy)
        return group, spy, group.kernel.csr.num_vertices

    def test_plain_arrays_do(self):
        group, spy, n = self.spied_group()
        group._scatter("sum", np.ones(n, dtype=bool), np.ones(n))
        assert spy.calls == ["kern_scatter"]

    @pytest.mark.parametrize("broken", [
        "float32", "int32", "int-sum", "object", "short", "long",
        "strided", "2-d", "list", "uint8-mask", "strided-mask"])
    def test_anything_else_takes_the_numpy_helper(self, broken):
        group, spy, n = self.spied_group()
        send = np.ones(n, dtype=bool)
        values = np.arange(n, dtype=np.float64)
        kind = "min" if broken == "int32" else "sum"
        if broken in ("float32", "int32", "object"):
            values = values.astype(broken)
        elif broken == "int-sum":  # bincount answers float64: not C's add
            values = values.astype(np.int64)
        elif broken == "short":
            values = values[:-1]
        elif broken == "long":
            values = np.arange(n + 3, dtype=np.float64)
        elif broken == "strided":
            values = np.arange(2 * n, dtype=np.float64)[::2]
        elif broken == "2-d":
            values = values.reshape(1, n)
        elif broken == "list":
            values = values.tolist()
        elif broken == "uint8-mask":
            send = send.astype(np.uint8)
        elif broken == "strided-mask":
            send = np.ones(2 * n, dtype=bool)[::2]
        args = (send, values) + ((np.inf,) if kind == "min" else ())
        try:
            want = getattr(DenseKernel, f"scatter_{kind}")(
                group.kernel, *args)
        except (IndexError, ValueError, TypeError) as exc:
            with pytest.raises(type(exc)):
                group._scatter(kind, *args)
        else:
            recv, out = group._scatter(kind, *args)
            assert out.tobytes() == want[1].tobytes()
            assert recv.tobytes() == want[0].tobytes()
        assert spy.calls == []

    @pytest.mark.parametrize("broken", ["float32", "strided", "uint8-recv"])
    def test_parked_arrays_that_are_not_plain_fold_in_numpy(self, broken):
        group, spy, n = self.spied_group()
        with no_kernels():
            sharded = CASES["hub-8"]
            reference = make_groups(sharded, machines(sharded, 1),
                                    hosted=False)[0]
        pairs = []
        for _ in (group, reference):
            values = np.arange(n, dtype=np.float64)
            recv = np.random.default_rng(1).random(n) < 0.5
            if broken == "float32":
                values = values.astype(np.float32)
            elif broken == "strided":
                values = np.arange(2 * n, dtype=np.float64)[::2]
            else:
                recv = recv.astype(np.uint8)
            pairs.append((values, recv))
        for each, (values, recv) in zip((group, reference), pairs):
            each.park("sum", values, recv)
            each.fold(each.gather())
            each.scatter({})
        assert group._op is None and spy.calls == []
        assert pairs[0][0].tobytes() == pairs[1][0].tobytes()
        assert pairs[0][1].tobytes() == pairs[1][1].tobytes()


# ----------------------------------------------------------------------
# Checked once: malformed shards and plans are refused at construction
# ----------------------------------------------------------------------
def rebuilt(shard: Shard, indptr=None, indices=None, **fields) -> Shard:
    """A copy of ``shard`` over a CSR with ``indptr`` / ``indices``
    replaced, other ``fields`` (channel tables, ``owned``) set as given."""
    csr = shard.csr
    return dataclasses.replace(shard, csr=ShardCSR(
        csr.indptr if indptr is None else indptr,
        csr.indices if indices is None else indices,
        csr.vertex_ids, csr.degrees), **fields)


def group_of(shards, host_of=None):
    host_of = host_of or {shard.partition: 0 for shard in shards}
    return transport.ShardGroup(
        [s for s in shards if host_of[s.partition] == 0],
        PageRank(iterations=2), host_of, host_of, 0)


class TestMalformedIsRefusedAtConstruction:
    @pytest.fixture
    def shards(self):
        sharded = CASES["hub-8"]
        return [sharded.shards[p] for p in sharded.partitions]

    def test_well_formed_is_accepted(self, shards):
        group_of(shards)

    @pytest.mark.parametrize(
        "tier", [pytest.param("native", marks=two_tiers), "numpy"])
    @pytest.mark.parametrize("case, message", [
        ("target-high", "partition 3: csr.indices leave"),
        ("target-negative", "partition 3: csr.indices leave"),
        ("indptr-long", "partition 3: indptr spans"),
        ("indptr-short", "partition 3: indptr spans"),
        ("master-channel-high", "partition 0: master channels leave"),
        ("mirror-channel-negative", "partition 3: mirror channels leave"),
        ("master-channel-of-a-mirror", "partition 0: master channels list"),
        ("mirror-channel-of-a-master", "partition 3: mirror channels list"),
    ])
    def test_malformed_shard(self, shards, case, message, tier):
        shard = shards[3]
        csr, n = shard.csr, shard.num_vertices
        indices, indptr = csr.indices.copy(), csr.indptr.copy()
        if case == "target-high":
            indices[0] = n
            shards[3] = rebuilt(shard, indices=indices)
        elif case == "target-negative":
            indices[-1] = -1
            shards[3] = rebuilt(shard, indices=indices)
        elif case == "indptr-long":
            indptr[-1] += 1
            shards[3] = rebuilt(shard, indptr=indptr)
        elif case == "indptr-short":
            shards[3] = rebuilt(shard, indices=indices[:-1])
        elif case == "master-channel-high":
            channels = dict(shards[0].master_channels)
            channels[3] = channels[3].copy()
            channels[3][0] = shards[0].num_vertices
            shards[0] = rebuilt(shards[0], master_channels=channels)
        elif case == "mirror-channel-negative":
            channels = dict(shard.mirror_channels)
            channels[0] = channels[0].copy()
            channels[0][0] = -1
            shards[3] = rebuilt(shard, mirror_channels=channels)
        elif case == "master-channel-of-a-mirror":
            # Partition 0 masters all it holds: disown one it lists.
            shards[0] = rebuilt(shards[0], owned=shards[0].owned.copy())
            shards[0].owned[shards[0].master_channels[3][0]] = False
        elif case == "mirror-channel-of-a-master":
            channels = dict(shard.mirror_channels)
            channels[0] = channels[0].copy()
            channels[0][0] = np.flatnonzero(shard.owned)[0]
            shards[3] = rebuilt(shard, mirror_channels=channels)
        with (no_kernels() if tier == "numpy" else contextlib.nullcontext()):
            with pytest.raises(RuntimeError, match=f"host 0, {message}"):
                group_of(shards)

    @pytest.mark.parametrize("case, message", [
        ("target-high", r"targets\[0\] holds an index outside"),
        ("mirror-negative", r"mirrors\[0\] holds an index outside"),
        ("master-high", r"masters\[1\] holds an index outside"),
        ("slot-high", r"slots\[1\] holds an index outside"),
        ("slot-gap", r"contribution slots \[\d+, \d+\] of \d+ not exactly"),
        ("slots-short", "masters .* and slots .* per host differ"),
        ("masters-short", "masters .* and slots .* per host differ"),
        ("own-mirrors-short", r"moves \d+ own mirrors for \d+ own masters"),
    ])
    def test_malformed_plan(self, shards, monkeypatch, case, message):
        class Corrupted(transport.SyncPlan):
            def __init__(self, *args) -> None:
                super().__init__(*args)
                size = max(int(a.max()) for a in self.masters.values()) + 999
                if case == "target-high":
                    self.targets[0] = size
                elif case == "mirror-negative":
                    self.mirrors[0][0] = -1
                elif case == "master-high":
                    self.masters[1][-1] = size
                elif case == "slot-high":
                    self.slots[1][0] = len(self.targets)
                elif case == "slot-gap":
                    self.slots[1][0] = self.slots[1][1]
                elif case == "slots-short":
                    self.slots[0] = self.slots[0][:-1]
                elif case == "masters-short":
                    self.masters[1] = self.masters[1][:-1]
                elif case == "own-mirrors-short":
                    self.mirrors[0] = self.mirrors[0][:-1]

        monkeypatch.setattr(transport, "SyncPlan", Corrupted)
        host_of = {shard.partition: shard.partition // 4 for shard in shards}
        with pytest.raises(RuntimeError, match=f"host 0: sync plan.*{message}"):
            group_of(shards, host_of)


# ----------------------------------------------------------------------
# Mutated kernels fail the differential
# ----------------------------------------------------------------------
MUTANTS = {
    "fold walks targets backwards": (
        "targets[i], \\\n    FROM(acc, val, i), FROM(recv, partial_recv, i))",
        "targets[n - 1 - i], \\\n    FROM(acc, val, n - 1 - i), "
        "FROM(recv, partial_recv, n - 1 - i))"),
    "put runs mirror to master": (
        "memcpy((char *)values + 8 * mirrors[i],\n"
        "               (const char *)values + 8 * masters[i], 8);",
        "memcpy((char *)values + 8 * masters[i],\n"
        "               (const char *)values + 8 * mirrors[i], 8);"),
    "own fold forgets the received flag": (
        "FROM(recv, partial_recv, i))",
        "(own[i] >= 0 ? 0 : partial_recv[i]))"),
    "scatter ignores the send mask": (
        "send[rows[i]], indices[i], VALUE, send[rows[i]])",
        "1, indices[i], VALUE, 1)"),
    "min lets the newcomer win a tie or drop a NaN": (
        "(((acc) < (v) || (acc) != (acc)) ? (acc) : (v))",
        "(((acc) < (v)) ? (acc) : (v))"),
    "min lets the accumulator win a tie": (
        "(((acc) < (v) || (acc) != (acc)) ? (acc) : (v))",
        "(((acc) <= (v) || (acc) != (acc)) ? (acc) : (v))"),
}


@two_tiers
class TestMutantsFail:
    @pytest.mark.parametrize("name", sorted(MUTANTS))
    def test_mutant_is_caught(self, name, tmp_path, monkeypatch):
        load_mutant(MUTANTS[name], tmp_path, monkeypatch)
        with pytest.raises(AssertionError):
            if name.startswith("min"):
                for entry in MIN_ENTRIES:
                    for held, arriving in MIN_PAIRS:
                        assert_min_is_numpys(entry, held, arriving)
            core_differential()
