"""Replica-sync transports for the sharded cluster runtime.

Each BSP superstep a *host* — a :class:`ShardGroup`: the shards that
share a process — steps all its shards as **one** dense kernel over
their block-diagonal :class:`~repro.graph.shard.ShardCSR`, producing
*partial* per-target message combinations (partial sums / mins over
each shard's own adjacency slots).  The coordinator then runs the
PowerGraph synchronisation round that makes replicas globally consistent:

* **gather** — every mirror replica's partial (value, received) reaches
  the vertex's master, which folds the contributions in ascending
  partition order (master's own partial first — a fixed association, so
  every host layout is bit-identical);
* **scatter** — the master's combined element overwrites every mirror.

The exchange is compiled once, not interpreted per superstep: each
:class:`ShardGroup` turns its shards' channel tables into a
:class:`SyncPlan` of flat index arrays into the host kernel's own index
space, and a syncing superstep is a handful of numpy calls (or three
``kern_sync_*`` passes) on the kernel's parked arrays, in place
(DESIGN.md §8).  Both directions move one logical message per shared
vertex per channel — ``2 * (span - 1)`` per replicated vertex, what
:meth:`repro.engine.placement.Placement.stats` predicts; the group that
applies a move *measures* it (remote when the endpoint machines differ,
else local, plus payload bytes) and the differential tests hold
measurement equal to prediction.

One coordinator, two hosts
--------------------------
The superstep protocol, the aggregate and traffic folding, the three
fault-injection points and death detection exist once, in the
coordinator both backends are.  It reaches its hosts only through
``probe`` / ``send`` / ``recv``, and a host answers every command with
:func:`_serve`.  The backends differ only in the host they build:

* :class:`SerialTransport` — one in-process host holding every shard;
  "machines" are a logical map that classifies traffic, and one dies by
  a flag.
* :class:`ProcessTransport` — one long-lived worker process per machine
  over a ``multiprocessing`` pipe.  Shard arrays ship once at start-up,
  then per superstep one ``(kind, values, recv)`` payload per ordered
  host pair and small telemetry tuples; machines *are* the workers, so
  remote messages are exactly the elements that crossed a pipe.  A
  kill is a real ``SIGKILL``.

Detection is one rule: a death surfaces, as :class:`~repro.cluster.
faults.WorkerDied` naming the machine, at the next exchange that
involves the dead machine — every exchange probes every host before
sending.  No pipe wait is unbounded: a receive polls in short slices and
probes the worker between them, so a SIGKILLed worker surfaces within
one slice and a wedged-but-alive one trips ``timeout``.  ``snapshot()`` /
``restore()`` move per-partition kernel state across transport
incarnations and machine layouts — the primitives the engine's
checkpoint/rollback layer is built on.
"""

from __future__ import annotations

import contextlib
import copy
import ctypes
import functools
import multiprocessing as mp
import os
import signal
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro import obs
from repro.cluster.faults import FaultInjector, WorkerDied
from repro.core import _kernels
from repro.core._binding import _CTYPES
from repro.engine.dense import DenseKernel
from repro.engine.vertex_program import VertexProgram
from repro.graph.csr import CSRGraph
from repro.graph.shard import Shard, ShardCSR, ShardedGraph

#: Transport backends understood by :class:`~repro.cluster.runtime.ClusterEngine`.
BACKENDS = ("serial", "process")


@dataclass
class SyncStats:
    """Measured replica-sync traffic of one superstep."""

    remote_messages: int = 0
    local_messages: int = 0
    payload_bytes: int = 0
    remote_per_machine: Dict[int, int] = field(default_factory=dict)
    local_per_machine: Dict[int, int] = field(default_factory=dict)

    def record(self, src_part: int, dst_part: int, messages: int,
               nbytes: int, machine_of: Mapping[int, int]) -> None:
        """Record ``messages`` flowing ``src_part -> dst_part``.

        Mirrors the prediction's accounting: every message charges *both*
        endpoint machines, and counts as remote only when the endpoints'
        machines differ.
        """
        ends = (machine_of[src_part], machine_of[dst_part])
        self.payload_bytes += nbytes
        if ends[0] == ends[1]:
            self.local_messages += messages
            per_machine = self.local_per_machine
        else:
            self.remote_messages += messages
            per_machine = self.remote_per_machine
        for machine in ends:
            per_machine[machine] = per_machine.get(machine, 0) + messages

    def merge(self, other: "SyncStats") -> None:
        self.remote_messages += other.remote_messages
        self.local_messages += other.local_messages
        self.payload_bytes += other.payload_bytes
        for mine, theirs in (
                (self.remote_per_machine, other.remote_per_machine),
                (self.local_per_machine, other.local_per_machine)):
            for machine, count in theirs.items():
                mine[machine] = mine.get(machine, 0) + count


#: What one host sends another in one direction of one superstep:
#: ``(kind, values, recv)``, every channel between the two in plan order.
HostPayload = Tuple[str, np.ndarray, np.ndarray]


@dataclass
class TransportStepResult:
    """One superstep of a group, or — summed by a transport — of all."""

    sent: int
    aggregate: Any
    compute_seconds: float
    synced: bool
    stats: SyncStats = field(default_factory=SyncStats)
    #: Coordinator wall-clock of the exchange (gather, fold, scatter).
    sync_seconds: float = 0.0


@functools.cache
def _pin_heap() -> None:
    """Hold glibc's mmap and trim thresholds at the ceiling their dynamic
    adjustment stops at.  A host kernel's slot-length arrays are the size
    those thresholds drift around, so whether the heap is handed back to
    the OS, and faulted in again, between two jobs of one process flipped
    with whatever the process freed last (DESIGN.md §8)."""
    with contextlib.suppress(OSError, AttributeError):  # not glibc
        mallopt = ctypes.CDLL(None).mallopt
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def _cat(arrays: List[np.ndarray]) -> np.ndarray:
    return (np.concatenate(arrays) if arrays
            else np.empty(0, dtype=np.int64))


def _inside(index: np.ndarray, size: int) -> bool:
    """Whether every element of ``index`` lies in ``[0, size)``."""
    return not len(index) or bool(0 <= index.min() and index.max() < size)


#: ``kern_scatter`` / ``kern_sync_fold`` op (a constant of the compiled
#: library) by (combines with min, dtype).
_OPS = {(False, np.dtype(np.float64)): "KERN_ADD_F64",
        (True, np.dtype(np.float64)): "KERN_MIN_F64",
        (True, np.dtype(np.int64)): "KERN_MIN_I64"}
#: The ``values`` dtypes ``kern_scatter`` combines, by scatter kind; the
#: numpy helpers take the rest.
_ELEMENTS = {"sum": (np.float64,), "min": (np.float64, np.int64)}


class SyncPlan:
    """One group's replica exchange, compiled from its shards' channel
    tables (DESIGN.md §8 has the layout and why the fold is exact).

    The shards lie end to end, ascending partition, in one flat index
    space — the host kernel's (``bounds``: partition -> its slice of
    it).  Index arrays and host payloads are in *plan
    order*: master partition, then mirror partition, then the channels'
    aligned position.  Keyed by the host at the channels' other end (this
    one included): ``mirrors[h]`` — mirrors here whose masters are on
    ``h``; ``masters[h]`` — the masters here, once per mirror on ``h``;
    ``slots[h]`` — where ``h``'s gather elements go in the contribution
    buffer.  The buffer is laid out in rank rounds (``rounds``, with the
    masters' flat index in ``targets``): round ``r`` holds each master's
    ``r``-th mirror by ascending partition, so no master repeats inside a
    round and one vectorised op per round folds in the fixed association.
    ``rows`` is one ``(src, dst, count)`` per channel this group applies
    a move for, ``count`` the length of the index array the move uses.
    """

    def __init__(self, shards: List[Shard], bounds: Mapping[int, slice],
                 host_of: Mapping[int, int]) -> None:
        self.rows: List[Tuple[int, int, int]] = []
        targets: List[np.ndarray] = []
        ranks: List[np.ndarray] = []
        spans: Dict[int, List[np.ndarray]] = {}
        cursor = 0
        for shard in shards:
            seen = np.zeros(shard.num_vertices, dtype=np.int64)
            for src, idx in sorted(shard.master_channels.items()):
                spans.setdefault(host_of[src], []).append(
                    np.arange(cursor, cursor + len(idx)))
                targets.append(idx + bounds[shard.partition].start)
                ranks.append(seen[idx])
                seen[idx] += 1
                self.rows.append((src, shard.partition, len(idx)))
                cursor += len(idx)
        mirrors: Dict[int, List[np.ndarray]] = {}
        for dst, src, idx in sorted(
                (dst, shard.partition, idx) for shard in shards
                for dst, idx in shard.mirror_channels.items()):
            mirrors.setdefault(host_of[dst], []).append(
                idx + bounds[src].start)
            self.rows.append((dst, src, len(idx)))
        self.mirrors = {h: _cat(parts) for h, parts in mirrors.items()}
        target, rank = _cat(targets), _cat(ranks)
        by_round = np.argsort(rank, kind="stable")
        slot = np.empty(len(target), dtype=np.int64)
        slot[by_round] = np.arange(len(target))
        self.targets = target[by_round]
        self.masters = {h: target[_cat(p)] for h, p in spans.items()}
        self.slots = {h: slot[_cat(p)] for h, p in spans.items()}
        stops = np.cumsum(np.bincount(rank)).tolist()
        self.rounds = list(zip([0] + stops[:-1], stops))


class ShardGroup:
    """The shards co-hosted in one process ("machine"), stepped as one
    kernel: all of them on the serial backend, one worker's on the
    process backend.

    The group lays its shards end to end, ascending partition, in one
    block-diagonal :class:`~repro.graph.shard.ShardCSR` and runs the
    program's own :class:`~repro.engine.dense.DenseKernel`, unmodified,
    over it — one ``step`` per superstep whatever the shard count.  It
    rebinds the kernel's scatter helpers so the per-target combination
    (over *local* slots only: no slot crosses a shard) is parked for the
    exchange, and ``sent_from`` to count sends from the shard-local
    adjacency lists (``csr.degrees`` on a shard is the logical global
    degree).  The parked arrays are the kernel's own message buffers
    (``has_msg``, ``incoming``, ...) and the :class:`SyncPlan` indexes
    the same flat space, so the exchange combines them in place.

    Channels between two shards of the group never leave the process;
    what the plan keys by another host is routed by the coordinator —
    the machine map and the host map coincide there, so it is counted as
    *remote*.  A syncing superstep is ``step`` -> ``gather`` -> ``fold``
    -> ``scatter``; ``stats`` is then the superstep's measured traffic
    (a tally shared between supersteps: read it, do not mutate it).

    Where the compiled kernels load (``_kernels.load()``, asked once,
    here — no knob) the per-target combination is one ``kern_scatter``
    pass over the host's slots and the in-process part of the exchange
    three ``kern_sync_*`` passes over the plan; elsewhere, and for
    element arrays that are not plain float64 / int64, they are the
    kernel's own numpy helpers and the numpy fold below — the same
    elements, bit for bit (DESIGN.md §8).  Every index either tier
    follows is checked here, once; the kernel object gains no attribute
    either way.
    """

    def __init__(self, shards: List[Shard], program: VertexProgram,
                 machine_of: Mapping[int, int],
                 host_of: Mapping[int, int], host: int) -> None:
        _pin_heap()
        shards = sorted(shards, key=lambda shard: shard.partition)
        self.host = host
        for shard in shards:
            self._check_shard(shard)
        kernel = program.dense_kernel(
            ShardCSR.block_diagonal([shard.csr for shard in shards]))
        if kernel is None:
            raise ValueError(
                f"{program.name}: dense_kernel returned None; sharded "
                "execution needs a dense kernel")
        kernel.owned = np.concatenate([shard.owned for shard in shards])
        # Instance-attribute rebinding: kernels invoke the helpers via
        # ``self.scatter_*`` / ``self.sent_from``, so these shadow the
        # class methods for this kernel only.
        for kind in ("sum", "min"):
            setattr(kernel, f"scatter_{kind}",
                    functools.partial(self._scatter, kind))
        kernel.sent_from = lambda send_mask: int(
            kernel.csr.local_degrees[send_mask].sum())
        self.kernel = kernel
        stops = np.cumsum([shard.num_vertices for shard in shards]).tolist()
        #: partition -> its slice of every per-vertex kernel array.
        self.bounds = {shard.partition: slice(stop - shard.num_vertices, stop)
                       for shard, stop in zip(shards, stops)}
        self.machine_of = dict(machine_of)
        self.plan = SyncPlan(shards, self.bounds, host_of)
        self._check_plan()
        self.stats = SyncStats()
        #: The rows' tally by payload bytes per element: a pure function
        #: of the plan, so it is added up once per item size.
        self._tallies: Dict[int, SyncStats] = {}
        self._mask: Optional[np.ndarray] = None
        self._kind = ""
        self._values = self._recv = np.empty(0)
        #: The parked pair's ``kern_sync_fold`` op; ``None``: numpy folds.
        self._op: Optional[int] = None
        #: ``(ffi, lib)`` where the kernels were built, and the index
        #: arrays they follow as int64 pointers, bound once (a pointer
        #: keeps its array alive), with the number of this host's own
        #: channels' elements — the plan keys them by ``host``.
        self._native = _kernels.load()
        self._own = len(self.plan.slots.get(host, ()))
        if self._native is not None:
            none = np.empty(0, dtype=np.int64)
            self._index = {
                name: self._native[0].from_buffer(
                    "int64_t[]", np.ascontiguousarray(index, dtype=np.int64))
                for name, index in (
                    ("indices", kernel.csr.indices),
                    ("rows", kernel.csr.rows),
                    ("targets", self.plan.targets),
                    ("mirrors", self.plan.mirrors.get(host, none)),
                    ("masters", self.plan.masters.get(host, none)),
                    ("slots", self.plan.slots.get(host, none)))}

    # -- checked once, trusted every superstep --------------------------
    def _check_shard(self, shard: Shard) -> None:
        """Refuse a shard whose adjacency or channel tables leave its own
        vertices, or whose channels contradict ``owned`` (a master is
        owned, a mirror is not: what lets the scatter run in place) — at
        construction and by name, where it used to be an ``IndexError``
        in the middle of a superstep."""
        csr, size = shard.csr, shard.num_vertices
        where = f"host {self.host}, partition {shard.partition}"
        if len(csr.rows) != len(csr.indices):
            raise RuntimeError(
                f"{where}: indptr spans {len(csr.rows)} slots, indices "
                f"holds {len(csr.indices)}")
        for name, index, owned in (
                ("csr.indices", csr.indices, None),
                ("master channels", _cat(
                    list(shard.master_channels.values())), True),
                ("mirror channels", _cat(
                    list(shard.mirror_channels.values())), False)):
            if not _inside(index, size):
                raise RuntimeError(
                    f"{where}: {name} leave the shard's {size} vertices")
            if owned is not None and (shard.owned[index] != owned).any():
                raise RuntimeError(
                    f"{where}: {name} list a vertex whose master is "
                    f"{'not ' if owned else ''}here")

    def _check_plan(self) -> None:
        """Refuse a plan that indexes outside the host's flat space or
        whose ``slots`` do not fill the contribution buffer exactly once
        each — a gap folds uninitialised memory into a master."""
        plan, size = self.plan, self.kernel.csr.num_vertices
        total = len(plan.targets)

        def refuse(what: str) -> None:
            raise RuntimeError(f"host {self.host}: sync plan {what}")

        for name, index, bound in (
                ("targets", {self.host: plan.targets}, size),
                ("mirrors", plan.mirrors, size),
                ("masters", plan.masters, size),
                ("slots", plan.slots, total)):
            for peer, array in index.items():
                if not _inside(array, bound):
                    refuse(f"{name}[{peer}] holds an index outside "
                           f"[0, {bound})")
        masters, slots, mirrors = (
            {peer: len(array) for peer, array in index.items()}
            for index in (plan.masters, plan.slots, plan.mirrors))
        if masters != slots:
            refuse(f"masters {masters} and slots {slots} per host differ")
        if mirrors.get(self.host, 0) != masters.get(self.host, 0):
            refuse(f"moves {mirrors.get(self.host, 0)} own mirrors for "
                   f"{masters.get(self.host, 0)} own masters")
        filled = np.bincount(_cat(list(plan.slots.values())),
                             minlength=total)
        if (filled != 1).any():
            refuse(f"fills contribution slots "
                   f"{np.flatnonzero(filled != 1).tolist()} of {total} "
                   "not exactly once")

    def _plain(self, array: Any, *dtypes: type) -> bool:
        """Whether ``array`` is what C may be handed: one C-contiguous
        element of one of ``dtypes`` per vertex of the host."""
        return (isinstance(array, np.ndarray) and array.dtype in dtypes
                and array.shape == (self.kernel.csr.num_vertices,)
                and array.flags.c_contiguous)

    def _pointer(self, array: np.ndarray):
        return self._native[0].from_buffer(_CTYPES[array.dtype], array)

    # -- intercepted scatter --------------------------------------------
    def _scatter(self, kind: str, *args: Any
                 ) -> Tuple[np.ndarray, np.ndarray]:
        """The kernel's ``scatter_<kind>(send_mask[, values[, sentinel]])``
        over local slots only (its csr is block-diagonal), parked."""
        send_mask, values, sentinel = (*args, None, None)[:3]
        if (self._native is None or not self._plain(send_mask, np.bool_)
                or not self._plain(values, *_ELEMENTS[kind])):
            recv, out = getattr(DenseKernel, f"scatter_{kind}")(
                self.kernel, *args)
        else:
            lib = self._native[1]
            n = self.kernel.csr.num_vertices
            out = (np.zeros(n, dtype=np.float64) if kind == "sum"
                   else np.full(n, sentinel, dtype=values.dtype))
            recv = np.zeros(n, dtype=bool)
            lib.kern_scatter(
                getattr(lib, _OPS[kind == "min", out.dtype]),
                self._index["indices"],
                self._index["rows"], len(self.kernel.csr.indices),
                self._pointer(send_mask), self._pointer(values),
                self._pointer(out), self._pointer(recv))
        self.park(kind, out, recv)
        return recv, out

    def park(self, kind: str, values: np.ndarray, recv: np.ndarray) -> None:
        """Hold this superstep's partials (``sum`` | ``min`` over the
        host's flat index space) for the exchange."""
        if self._kind:
            raise RuntimeError(
                "sharded kernel protocol violation: more than one scatter "
                "per superstep (see repro.engine.dense)")
        self._kind, self._values, self._recv = kind, values, recv
        plain = (self._native is not None and self._plain(recv, np.bool_)
                 and self._plain(values, *_ELEMENTS[kind]))
        self._op = (getattr(self._native[1], _OPS[kind == "min", values.dtype])
                    if plain else None)

    # -- superstep ------------------------------------------------------
    def compute_owned(self) -> int:
        """Compute this superstep's mask; return the owned computed count."""
        self._mask = self.kernel.compute_mask()
        return int((self._mask & self.kernel.owned).sum())

    def step(self, superstep: int) -> TransportStepResult:
        self.stats = SyncStats()
        self._kind = ""
        start = time.perf_counter()
        with obs.span("cluster.compute", host=self.host,
                      superstep=superstep):
            sent, aggregate = self.kernel.step(superstep, self._mask)
        return TransportStepResult(int(sent), aggregate,
                                   time.perf_counter() - start,
                                   synced=bool(self._kind))

    # -- replica sync ---------------------------------------------------
    def _slices(self, index: Mapping[int, np.ndarray],
                remote: bool) -> Dict[int, HostPayload]:
        """The parked arrays at ``index``, for the other hosts (``remote``)
        or for this one — a payload that never leaves the process."""
        return {peer: (self._kind, self._values[idx], self._recv[idx])
                for peer, idx in index.items()
                if (peer != self.host) == remote}

    def _check(self, inbound: Mapping[int, HostPayload],
               index: Mapping[int, np.ndarray]) -> None:
        """Refuse ``inbound`` unless it is exactly the payloads the plan
        expects, each of the plan's length and this superstep's kind and
        dtype."""
        expected = sorted(set(index) - {self.host})
        if sorted(inbound) != expected:
            raise RuntimeError(
                f"host {self.host}: sync payloads from hosts "
                f"{sorted(inbound)}, plan expects {expected}")
        for peer, (kind, values, recv) in inbound.items():
            shape = index[peer].shape
            got = (kind, values.dtype, values.shape, recv.dtype, recv.shape)
            want = (self._kind, self._values.dtype, shape, np.bool_, shape)
            if got != want:
                raise RuntimeError(
                    f"host {self.host}: sync payload from host {peer} is "
                    f"{got}, plan expects {want} — truncated payload or "
                    "non-deterministic kernel")

    def gather(self) -> Dict[int, HostPayload]:
        """The mirror partials whose masters live elsewhere, by master
        host."""
        return self._slices(self.plan.mirrors, remote=True)

    def fold(self, inbound: Mapping[int, HostPayload]
             ) -> Dict[int, HostPayload]:
        """Fold every mirror partial into its master (``sum`` adds,
        ``min`` takes the minimum, ``recv`` ors); returns the
        combined elements whose mirrors live elsewhere, by mirror host."""
        plan, values, recv = self.plan, self._values, self._recv
        self._check(inbound, plan.masters)
        partial = np.empty(len(plan.targets), dtype=values.dtype)
        partial_recv = np.empty(len(plan.targets), dtype=bool)
        # Other hosts' partials arrive as payloads; this host's own are
        # moved by C where it then folds, as a payload where numpy does.
        native = self._op is not None
        local = {} if native else self._slices(plan.mirrors, remote=False)
        for peer, (_, theirs, their_recv) in {**inbound, **local}.items():
            partial[plan.slots[peer]] = theirs
            partial_recv[plan.slots[peer]] = their_recv
        if native:
            index, lib = self._index, self._native[1]
            parked = self._pointer(values), self._pointer(recv)
            buffer = self._pointer(partial), self._pointer(partial_recv)
            lib.kern_sync_take(*parked, index["mirrors"], index["slots"],
                               self._own, *buffer)
            lib.kern_sync_fold(self._op, *parked, index["targets"],
                               *buffer, len(plan.targets))
        else:
            combine = np.minimum if self._kind == "min" else np.add
            for start, stop in plan.rounds:
                masters = plan.targets[start:stop]
                values[masters] = combine(values[masters],
                                          partial[start:stop])
            recv[plan.targets[np.flatnonzero(partial_recv)]] = True
        return self._slices(plan.masters, remote=True)

    def scatter(self, inbound: Mapping[int, HostPayload]) -> None:
        """Overwrite every mirror with its master's combined element and
        charge the traffic."""
        plan, values, recv = self.plan, self._values, self._recv
        self._check(inbound, plan.mirrors)
        native = self._op is not None
        local = {} if native else self._slices(plan.masters, remote=False)
        for peer, (_, theirs, their_recv) in {**inbound, **local}.items():
            values[plan.mirrors[peer]] = theirs
            recv[plan.mirrors[peer]] = their_recv
        if native:
            self._native[1].kern_sync_put(
                self._pointer(values), self._pointer(recv),
                self._index["masters"], self._index["mirrors"], self._own)
        item_bytes = values.itemsize + recv.itemsize
        if item_bytes not in self._tallies:
            tally = self._tallies[item_bytes] = SyncStats()
            for src, dst, count in plan.rows:
                tally.record(src, dst, count, count * item_bytes,
                             self.machine_of)
        self.stats = self._tallies[item_bytes]

    # -- results --------------------------------------------------------
    def _per_vertex(self, value: Any) -> bool:
        """Whether a kernel attribute holds one element per vertex."""
        return (isinstance(value, np.ndarray)
                and len(value) == self.kernel.csr.num_vertices)

    def _image(self, index) -> Dict[str, Any]:
        """The kernel's state at the vertices ``index``: every attribute
        but the (rebuildable) CSR and the rebound helpers — per-vertex
        arrays (length ``csr.num_vertices``) indexed and copied, the rest
        deep-copied.  The message buffers are ordinary attributes, so the
        in-flight inbox is part of the image."""
        return {key: (value[index].copy() if self._per_vertex(value)
                      else copy.deepcopy(value))
                for key, value in self.kernel.__dict__.items()
                if key != "csr" and not callable(value)}

    def states(self) -> Dict[int, Any]:
        """Final states of the vertices mastered on this host: the
        kernel's own ``states()`` over its master replicas only
        (``vertex_ids`` repeats a vertex replicated within the host)."""
        owned = self.kernel.owned
        masters = copy.copy(self.kernel)
        masters.__dict__.update(self._image(owned))
        ids = self.kernel.csr.vertex_ids[owned]
        masters.csr = CSRGraph(np.zeros(len(ids) + 1, dtype=np.int64),
                               np.empty(0, dtype=np.int32), ids)
        return masters.states()

    # -- checkpoint protocol --------------------------------------------
    def snapshot(self) -> Dict[int, Dict[str, Any]]:
        """The kernel's state at a superstep boundary, one image per
        partition (its slice of every per-vertex array — what a kernel
        over that shard alone would hold), so any layout can restore it."""
        return {partition: self._image(bounds)
                for partition, bounds in self.bounds.items()}

    def restore(self, shard_states: Mapping[int, Dict[str, Any]]) -> None:
        """Install :meth:`snapshot` images of this host's partitions
        (copied — the checkpoint stays reusable): per-vertex arrays
        concatenated back, anything else required equal in every image."""
        partitions = list(self.bounds)
        images = [shard_states[partition] for partition in partitions]
        for key, first in images[0].items():
            if self._per_vertex(self.kernel.__dict__.get(key)):
                value = np.concatenate([image[key] for image in images])
            else:
                for partition, image in zip(partitions, images):
                    if not np.array_equal(image[key], first):
                        raise ValueError(
                            f"cannot restore {key!r}: partition "
                            f"{partitions[0]} holds {first!r}, partition "
                            f"{partition} {image[key]!r} — a host kernel "
                            "holds one value for all its partitions")
                value = copy.deepcopy(first)
            setattr(self.kernel, key, value)
        self._mask = None
        self._kind = ""


def _serve(group: ShardGroup, message: Tuple) -> Any:
    """One host's reply to one coordinator command — the whole host side
    of the protocol, run by the worker loop and the in-process host
    alike."""
    op = message[0]
    if op == "mask":
        return group.compute_owned()
    if op == "step":
        result = group.step(message[1])
        return (result.sent, result.aggregate, result.compute_seconds,
                result.synced, group.gather() if result.synced else {})
    if op == "gather":
        return group.fold(message[1])
    if op == "scatter":
        group.scatter(message[1])
        return group.stats
    if op == "states":
        return group.states()
    if op == "snapshot":
        return group.snapshot()
    if op == "restore":
        group.restore(message[1])
        return True
    raise RuntimeError(f"unknown cluster worker op {op!r}")


def _cluster_worker(conn, inherited, shards: List[Shard],
                    program: VertexProgram, machine_of: Dict[int, int],
                    host_of: Dict[int, int], host: int) -> None:
    """Worker process main loop: one :class:`ShardGroup`, serving
    commands until ``stop`` or until the coordinator goes away."""
    # The fork duplicated every pipe end that existed in the parent —
    # including this worker's *own* coordinator-side end.  Close them
    # all: otherwise the coordinator dropping its end can never deliver
    # EOF/EPIPE here (this process itself would keep the pipe alive),
    # and a worker blocked in send() during teardown would hang forever.
    for other in inherited:
        with contextlib.suppress(OSError):  # already closed
            other.close()
    group = ShardGroup(shards, program, machine_of, host_of, host)
    # Trace context of the most recent "step" command: gather/scatter
    # commands belong to the same coordinator superstep, so their spans
    # parent to it too.
    step_ctx = None
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            # Coordinator went away (e.g. torn down mid-superstep during
            # a recovery): exit quietly instead of tracebacking.
            return
        op = message[0]
        if op == "stop":
            conn.close()
            return
        span = contextlib.nullcontext()
        if op == "step":
            # The coordinator appends its span context to the command
            # only while tracing — the pickled message is unchanged
            # otherwise.
            step_ctx = message[2] if len(message) > 2 else None
            span = obs.span("cluster.worker_step", host=host,
                            superstep=message[1])
        elif op in ("gather", "scatter"):
            span = obs.span(f"cluster.worker_{op}", host=host)
        try:
            with obs.use_context(step_ctx), span:
                reply = _serve(group, message)
            conn.send(reply)
        except (BrokenPipeError, OSError):
            # Reply pipe dropped mid-send (coordinator tore the
            # transport down): exit quietly, like the recv case above.
            return


class _LocalHost:
    """The serial backend's one host: a :class:`ShardGroup` in this
    process, answering a command as it is sent.  Machines die by flag."""

    def __init__(self, group: ShardGroup) -> None:
        self.group = group
        self._dead: set = set()
        self._reply: Any = None

    def kill(self, machine: int) -> bool:
        if machine in self._dead:
            return False
        self._dead.add(machine)
        return True

    def probe(self) -> None:
        if self._dead:
            raise WorkerDied(min(self._dead), "killed by fault injection")

    def send(self, message: Tuple) -> None:
        self._reply = _serve(self.group, message)

    def recv(self) -> Any:
        reply, self._reply = self._reply, None
        return reply

    def close(self) -> None:
        pass


class _PipeHost:
    """One worker process over a pipe.  No wait is unbounded: a receive
    polls in ``poll`` slices and probes the process between them, so a
    SIGKILLed worker is detected within one slice and a wedged-but-alive
    one within ``timeout`` — a :class:`WorkerDied` naming the machine
    either way, never a silent hang."""

    def __init__(self, machine: int, process, conn, timeout: float,
                 poll: float) -> None:
        self.machine, self.process, self.conn = machine, process, conn
        self.timeout, self.poll = timeout, poll

    def kill(self, machine: int) -> bool:
        """SIGKILL the worker (no-op when already dead)."""
        if not self.process.is_alive():
            return False
        os.kill(self.process.pid, signal.SIGKILL)
        self.process.join(timeout=5)
        return True

    def probe(self) -> None:
        if not self.process.is_alive():
            raise WorkerDied(self.machine, "worker exited with code "
                                           f"{self.process.exitcode}")

    def send(self, message: Tuple) -> None:
        try:
            self.conn.send(message)
        except (BrokenPipeError, OSError) as exc:
            raise WorkerDied(self.machine,
                             f"pipe closed on send ({exc})") from None

    def recv(self) -> Any:
        deadline = time.monotonic() + self.timeout
        while True:
            try:
                if self.conn.poll(self.poll):
                    return self.conn.recv()
            except (EOFError, OSError):
                raise WorkerDied(self.machine, "pipe closed") from None
            self.probe()
            if time.monotonic() >= deadline:
                raise WorkerDied(
                    self.machine, f"no reply within {self.timeout:.1f}s "
                                  f"(worker still alive — likely wedged)")

    def close(self) -> None:
        """Ask the worker to stop and close our end *before* joining: a
        worker blocked in send() on a reply nobody will read gets EPIPE
        (we are its pipe's only other holder).  One still alive after
        the grace period is wedged: kill it, do not stall a recovery."""
        with contextlib.suppress(BrokenPipeError, OSError):
            self.conn.send(("stop",))
        self.conn.close()
        self.process.join(timeout=5)
        if self.process.is_alive():  # pragma: no cover - defensive
            self.process.kill()
            self.process.join(timeout=5)


class _Coordinator:
    """The one BSP coordinator both backends run: the superstep protocol,
    the aggregate and traffic folding, the fault-injection points and
    death detection, over hosts it reaches only by ``send`` / ``recv``
    (``probe`` raises :class:`WorkerDied` for a dead one)."""

    backend = ""

    def __init__(self, machine_of: Mapping[int, int],
                 host_of: Mapping[int, int]) -> None:
        self.machine_of = dict(machine_of)
        self._hosts: Dict[int, Any] = {}  # ascending; the backend fills it
        self._parts_of_host = {
            host: [p for p in sorted(host_of) if host_of[p] == host]
            for host in sorted(set(host_of.values()))}
        self._host_of_machine = {self.machine_of[p]: host
                                 for p, host in host_of.items()}

    # -- the exchange ---------------------------------------------------
    def _round(self, message_for) -> Dict[int, Any]:
        """Send every host ``message_for(host)``, then collect replies.

        Every host is probed first, so a death surfaces at the next
        exchange that involves the dead machine, before any survivor is
        left holding a command."""
        for host in self._hosts.values():
            host.probe()
        for index, host in self._hosts.items():
            host.send(message_for(index))
        return {index: host.recv() for index, host in self._hosts.items()}

    def _exchange(self, op: str,
                  outbound: Mapping[int, Mapping[int, HostPayload]]
                  ) -> Dict[int, Any]:
        """Send every host ``(op, {sender: payload})`` — what the others'
        ``outbound`` maps address to it — and collect replies."""
        return self._round(lambda host: (op, {
            sender: payloads[host] for sender, payloads in outbound.items()
            if host in payloads}))

    def _merged(self, op: str) -> Dict[int, Any]:
        """The hosts' per-vertex / per-partition replies as one dict."""
        replies = self._round(lambda host: (op,)).values()
        return {key: value for reply in replies for key, value in reply.items()}

    # -- failure primitives --------------------------------------------
    def kill_machine(self, machine: int) -> bool:
        """Kill ``machine`` — a real SIGKILL on the process backend, a
        death flag on the serial one; unknown or dead ids are no-ops."""
        host = self._hosts.get(self._host_of_machine.get(machine))
        return host is not None and host.kill(machine)

    def _fire(self, injector: Optional[FaultInjector], point: str,
              superstep: int) -> None:
        """Kill the machine ``injector`` schedules for this position (a
        ``None`` from it is an unknown machine: nothing happens)."""
        if injector is not None:
            self.kill_machine(injector.check(point, superstep))

    # -- superstep protocol --------------------------------------------
    def compute_owned(self) -> int:
        return sum(self._round(lambda host: ("mask",)).values())

    def step(self, superstep: int,
             injector: Optional[FaultInjector] = None
             ) -> TransportStepResult:
        command: Tuple = ("step", superstep)
        if obs.is_enabled():
            # Ship the coordinator's span context across the pickle
            # boundary so worker spans join this trace.
            ctx = obs.current_context()
            if ctx is not None:
                command = ("step", superstep, ctx)
        replies = self._round(lambda host: command)
        # The object path's aggregate folding: the non-``None``
        # contributions summed in host order, ``None`` if there are none.
        sent, aggregate, compute, syncing = 0, None, 0.0, set()
        for host_sent, part, seconds, host_synced, _ in replies.values():
            sent += host_sent
            if part is not None:
                aggregate = part if aggregate is None else aggregate + part
            compute = max(compute, seconds)
            syncing.add(host_synced)
        if len(syncing) > 1:
            raise RuntimeError("workers disagree on sync — "
                               "non-deterministic kernel")
        synced = syncing.pop()
        self._fire(injector, "pre-gather", superstep)
        stats = SyncStats()
        sync_start = time.perf_counter()
        if synced:
            # Route the host payloads through the coordinator hub: each
            # host is sent what the others addressed to it, keyed by
            # sender, and the receiving group counts what it applies.
            with obs.span("cluster.sync_gather"):
                combined = self._exchange("gather", {
                    host: reply[4] for host, reply in replies.items()})
            self._fire(injector, "mid-scatter", superstep)
            with obs.span("cluster.sync_scatter"):
                for tally in self._exchange("scatter", combined).values():
                    stats.merge(tally)
        sync_seconds = time.perf_counter() - sync_start
        # Post-apply kills commit the superstep first; detection happens
        # at the next exchange, exactly like a real crash there.
        self._fire(injector, "post-apply", superstep)
        return TransportStepResult(sent, aggregate, compute, synced,
                                   stats, sync_seconds)

    def states(self) -> Dict[int, Any]:
        return self._merged("states")

    # -- checkpoint protocol -------------------------------------------
    def snapshot(self) -> Dict[int, Dict[str, Any]]:
        """Per-partition kernel states gathered from every host."""
        return self._merged("snapshot")

    def restore(self, shard_states: Mapping[int, Dict[str, Any]]) -> None:
        """Ship each host the states of exactly its own shards (keyed by
        partition, so any machine layout can receive any snapshot)."""
        self._round(lambda host: ("restore", {
            partition: shard_states[partition]
            for partition in self._parts_of_host[host]}))

    def close(self) -> None:
        hosts, self._hosts = self._hosts, {}
        for host in hosts.values():
            host.close()


class SerialTransport(_Coordinator):
    """All shards in this process, one host — the deterministic
    reference backend.  The machine map is purely logical here (default:
    one machine per partition) and only classifies traffic;
    ``kill_machine`` marks a logical machine dead."""

    backend = "serial"

    def __init__(self, sharded: ShardedGraph, program: VertexProgram,
                 machine_of: Mapping[int, int]) -> None:
        # Single host: every partition is host 0; remote/local
        # classification still follows the logical machine map.
        host_of = {p: 0 for p in sharded.partitions}
        super().__init__(machine_of, host_of)
        self.group = ShardGroup([sharded.shards[p]
                                 for p in sharded.partitions],
                                program, machine_of, host_of, host=0)
        self._hosts[0] = _LocalHost(self.group)


class ProcessTransport(_Coordinator):
    """One long-lived worker process per machine of ``machine_of`` (the
    engine's default: one per partition, or ``num_workers`` contiguous
    blocks), holding that machine's shards.  The machine map *is* the
    worker map, so measured remote traffic is precisely the payload
    volume that crossed a process boundary."""

    backend = "process"

    #: Liveness-probe interval of the bounded receive loop (seconds).
    POLL_INTERVAL = 0.05
    #: Default per-reply timeout; must exceed the worst-case single
    #: superstep of the workload (a wedged-but-alive worker trips it).
    DEFAULT_TIMEOUT = 30.0

    def __init__(self, sharded: ShardedGraph, program: VertexProgram,
                 machine_of: Mapping[int, int],
                 timeout: Optional[float] = None) -> None:
        self.timeout = self.DEFAULT_TIMEOUT if timeout is None else timeout
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")
        super().__init__(machine_of, {p: machine_of[p]
                                      for p in sharded.partitions})
        context = mp.get_context()
        try:
            # All pipes exist before the first fork so every child can
            # enumerate (and close) the ends it inherited but does not
            # own — see _cluster_worker.  Without this, teardown via
            # closing the coordinator ends cannot unblock a worker.
            pipes = {host: context.Pipe() for host in self._parts_of_host}
            for host, (parent_conn, child_conn) in pipes.items():
                inherited = [end for pair in pipes.values()
                             for end in pair if end is not child_conn]
                shards = [sharded.shards[p]
                          for p in self._parts_of_host[host]]
                process = context.Process(
                    target=_cluster_worker,
                    args=(child_conn, inherited, shards, program,
                          self.machine_of, self.machine_of, host),
                    daemon=True)
                process.start()
                self._hosts[host] = _PipeHost(host, process, parent_conn,
                                              self.timeout,
                                              self.POLL_INTERVAL)
            for _, child_conn in pipes.values():
                child_conn.close()
        except Exception:
            self.close()
            raise

    @property
    def _procs(self) -> Dict[int, Any]:
        """The worker processes, by machine."""
        return {host: pipe.process for host, pipe in self._hosts.items()}
