"""Array-native edge window: the buffers behind the compiled pump.

:class:`ArrayEdgeWindow` is the production twin of
:class:`~repro.core.window.EdgeWindow`.  All traversal logic — rule 1
refill, the k-best agenda pop over R/CS memos whose validity is marked
(a per-slot ``dirty`` byte, set wherever a key can move), rules 2
and 3, and the vertex-cache update between them — lives in
``_kernels.c`` (DESIGN.md §14).  This class is the thin Python side of
that transaction:

* it **owns every window buffer** the kernels touch — per-slot arrays,
  the intrusive vertex→slot incidence links, and per vertex the walks'
  stamp and the neighbour counters CS is read off (``nn``: distinct
  window neighbours; ``cnt``, ``k`` columns: how many of them are
  replicated on each partition) — as numpy arrays, and decides when
  they grow (the kernels return ``KERN_NEED_SLOTS`` instead and are
  called again; the vertex arrays follow the state's row tables).
  Binding them into the kernel context beside
  the partition state's tables, validating what crosses the boundary
  and the grow-and-retry loop are
  :class:`~repro.core._binding.KernelBinding`'s, shared with the
  single-edge stream kernel;
* it maps dense vertex rows back to vertex ids and spread columns back
  to partition ids, a column at a time — a popped edge leaves the kernel
  as its two endpoint rows, and no per-edge object is kept for an edge
  in the window.

:meth:`pump` is the one way in: the partitioner stages a batch, pumps
it (one C call per ingest batch on a fixed window, one per controller
decision on an adaptive one) and takes the decisions back as columns.
There is no per-edge step API — the differential suites drive both
tiers through the partitioner or the session, one edge per ``ingest``
where they need step grain.

The object window performs the same traversal one ``score`` call per
edge and partition; the kernels replay each of its scalar loops in the
same ascending entry-id order, reproducing the reference's
floating-point accumulation, tie-breaking and clock charges exactly —
assignments, latency and score-computation counts are bit-identical.
The candidate agenda is kept *in* that order (``agenda[:num_candidates]``,
candidate slots by ascending entry id), so a pop is one pass over it:
rescore what the last assignment staled, keep the first strict maximum.
Enforced by
``tests/test_array_window.py``, ``tests/test_kbest_agenda.py``,
``tests/test_pump_boundaries.py`` and ``tests/test_session_machine.py``.

Capacity management: slot arrays double on demand and are compacted
(the window is re-loaded from its own image into fresh, smaller arrays,
and ``kern_restore`` recounts the neighbour counters) when occupancy
falls below a quarter of capacity after the adaptive controller shrinks
the window — renumbering slots is safe because every ordering contract
is defined on entry ids, never slot positions.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.core import _kernels
from repro.core._binding import KernelBinding
from repro.core.scoring import AdwiseScoring
from repro.core.window import WindowImage
from repro.graph.graph import Edge

#: Smallest slot-array capacity; also the floor below which no
#: compaction is attempted.
_MIN_CAPACITY = 64

# Window-owned buffers by capacity group:
# context field -> (dtype, entries per unit of capacity, initial fill).
# ``rep`` and ``cs`` hold ``k`` entries per slot and are added per window.
_SLOT_FIELDS = {
    "score": (np.float64, 1, 0.0), "col": (np.int64, 1, 0),
    "entry": (np.int64, 1, -1), "slot_version": (np.int64, 1, -1),
    "rep_key": (np.int64, 5, -1), "ui": (np.int64, 1, 0),
    "vi": (np.int64, 1, 0), "agenda": (np.int64, 1, 0),
    "free_slots": (np.int64, 1, 0),
    "link_next": (np.int64, 2, -1), "link_prev": (np.int64, 2, -1),
    "scratch": (np.int64, 2, 0), "candidate": (np.uint8, 1, 0),
    "alive": (np.uint8, 1, 0), "dirty": (np.uint8, 1, 1),
    "cs_dirty": (np.uint8, 1, 1),
}
# ``cnt`` holds ``k`` entries per vertex and is added per window.
_VERTEX_FIELDS = {"head": (np.int64, 1, -1), "stamp": (np.int64, 1, 0),
                  "nn": (np.int64, 1, 0)}


def _tally(field: str, doc: str, holder: str = "_ctx") -> property:
    return property(lambda self: getattr(getattr(self, holder), field),
                    doc=doc)


class ArrayEdgeWindow:
    """Edge window over struct-of-arrays slots driven by ``_kernels.c``.

    Shares :class:`~repro.core.window.EdgeWindow`'s constructor
    contract, image format (:meth:`to_image` / :meth:`from_image`) and
    counters, but not its step API: the traversal runs only as
    :meth:`begin_batch` → :meth:`pump` → :meth:`end_batch`.  Requires an
    array-backed partition state on ``scoring`` — the kernels read and
    write its replica matrix, row versions, degrees and sizes by dense
    vertex index — and the compiled kernels themselves
    (:func:`repro.core._kernels.load`).
    """

    def __init__(self, scoring: AdwiseScoring, lazy: bool = True,
                 epsilon: float = 0.1, max_candidates: int = 64,
                 initial_capacity: int = _MIN_CAPACITY) -> None:
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
        if max_candidates < 1:
            raise ValueError("max_candidates must be >= 1")
        if not getattr(scoring.state, "is_fast", False):
            raise ValueError(
                "ArrayEdgeWindow requires an array-backed partition state "
                "(FastPartitionState); use EdgeWindow on the dict state")
        kernels = _kernels.load()
        if kernels is None:
            raise RuntimeError(
                "ArrayEdgeWindow requires the compiled window kernels, which "
                "could not be built here (no C compiler or cffi); use "
                "EdgeWindow")
        self.scoring = scoring
        self.lazy = lazy
        self.epsilon = epsilon
        self.max_candidates = max_candidates
        state = scoring.state
        self._column = {p: j for j, p in enumerate(state.partitions)}
        #: Dense rows of the batch being pumped.
        self._pairs = np.zeros(0, dtype=np.int64)
        #: The state's tables, the output lists and this window's own
        #: buffers, bound into one kernel context.
        self._kern = KernelBinding(kernels, state, dict(
            _VERTEX_FIELDS, cnt=(np.int32, state.num_partitions, 0)))
        self._lib = self._kern.lib
        ctx = self._ctx = self._kern.ctx
        k = ctx.k
        ctx.lazy = lazy
        ctx.epsilon = epsilon
        ctx.max_candidates = max_candidates
        self._slot_fields = dict(_SLOT_FIELDS, rep=(np.float64, k, 0.0),
                                 cs=(np.float64, k, 0.0))
        self._kern.bind("lamb", np.zeros(k, dtype=np.float64), k)
        self._kern.bind("lamb_version", np.zeros(k, dtype=np.int64), k)
        self._allocate(max(_MIN_CAPACITY, int(initial_capacity)))

    #: Resolved kernel backend (the obs label of the agenda counters).
    kernel_backend = "cc"

    kernel_calls = _tally(
        "kernel_calls", "Kernel entries made so far (pump, restore — "
        "including re-entries after a buffer grew).", "_kern")
    kernel_ns = _tally(
        "kernel_ns", "Wall time spent inside the kernels, nanoseconds.",
        "_kern")
    promotions = _tally(
        "promotions", "Secondary→candidate promotions by rules 2 and 3.")
    stat_refills = _tally("stat_refills", "Edges admitted into the window.")
    stat_pops = _tally("stat_pops", "Edges popped (assignments emitted).")
    stat_rescored_slots = _tally(
        "stat_rescored_slots",
        "Slots actually rescored (version- or memo-stale at rescore).")
    stat_assembled = _tally(
        "stat_assembled",
        "Rescored slots whose best column was re-assembled (the rest "
        "provably kept their cached score and column).")
    stat_rep_recomputed = _tally(
        "stat_rep_recomputed", "Replication components recomputed.")
    stat_cs_recomputed = _tally(
        "stat_cs_recomputed", "Clustering components recomputed.")
    stat_agenda_inserts = _tally(
        "stat_agenda_inserts",
        "Agenda insertions (candidate adds, promotions).")
    stat_agenda_removes = _tally(
        "stat_agenda_removes", "Agenda removals (pops).")
    stat_agenda_rescores = _tally(
        "stat_agenda_rescores",
        "Pops that found a version-stale candidate to rescore.")
    stat_agenda_scanned = _tally(
        "stat_agenda_scanned", "Agenda entries scanned, summed over pops.")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._ctx.count

    @property
    def candidate_count(self) -> int:
        return self._ctx.num_candidates

    def _slots(self) -> np.ndarray:
        """The occupied slots in insertion (entry-id) order."""
        slots = np.flatnonzero(self._array("alive"))
        return slots[np.argsort(self._array("entry")[slots])]

    def _endpoints(self, slots: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(u, v)`` vertex-id columns of the edges in ``slots``."""
        ids = self.scoring.state.vertex_ids
        return ids(self._array("ui")[slots]), ids(self._array("vi")[slots])

    def edges(self) -> List[Edge]:
        """Window edges in insertion (entry-id) order."""
        u, v = self._endpoints(self._slots())
        return list(map(Edge, u.tolist(), v.tolist()))

    @property
    def threshold(self) -> float:
        """Current candidate threshold Θ = g_avg + ε."""
        ctx = self._ctx
        if ctx.count == 0:
            return self.epsilon
        return ctx.score_sum / ctx.count + self.epsilon

    # ------------------------------------------------------------------
    # Buffer ownership: allocate, grow, compact
    # ------------------------------------------------------------------
    def _allocate(self, capacity: int) -> None:
        """Fresh, empty slot arrays at ``capacity`` (the vertex arrays
        and tallies stay; ``kern_restore`` recounts the counters)."""
        ctx = self._ctx
        self._kern.resize(self._slot_fields, "slot_cap", capacity, keep=False)
        self._array("free_slots")[:] = np.arange(capacity - 1, -1, -1)
        ctx.num_free = capacity
        ctx.count = ctx.num_candidates = 0
        if ctx.vertex_cap:  # the per-vertex arrays are bound
            self._array("head")[:] = -1

    def _grow_slots(self) -> None:
        ctx = self._ctx
        old = ctx.slot_cap
        self._kern.resize(self._slot_fields, "slot_cap", 2 * old)
        free = ctx.num_free
        self._array("free_slots")[free:free + old] = np.arange(
            2 * old - 1, old - 1, -1)
        ctx.num_free = free + old

    def _compact_if_sparse(self) -> None:
        """Once occupancy is a quarter of capacity or less, re-load the
        window from its own image into fresh arrays sized to it.  Entry
        ids and cached scores are preserved; memos restart invalid,
        which is invisible (see ``kern_restore``)."""
        ctx = self._ctx
        if ctx.slot_cap <= _MIN_CAPACITY or ctx.count * 4 > ctx.slot_cap:
            return
        image = self.to_image()
        capacity = _MIN_CAPACITY
        while capacity < 2 * len(image.entries):
            capacity *= 2
        self._allocate(capacity)
        self._load(image)

    def _array(self, field: str) -> np.ndarray:
        return self._kern.array(field)

    def _sync_scoring(self) -> None:
        """Copy in the scoring function's λ and switches."""
        scoring = self.scoring
        ctx = self._ctx
        balancer = scoring.balancer
        ctx.lam = scoring.current_lambda
        ctx.adaptive_lambda = balancer is not None
        ctx.total_edges = balancer.total_edges if balancer is not None else 0
        ctx.use_cs = scoring.use_clustering

    def _call(self, function, *args) -> int:
        """Run one kernel entry to a final status, growing whichever
        buffer it asks for in between, then charge the clock."""
        ctx = self._ctx
        status = self._kern.call(function, *args, grow={
            self._lib.KERN_NEED_SLOTS: self._grow_slots})
        clock = self.scoring.clock
        if clock is not None and ctx.charge:
            clock.charge_score(ctx.charge)
        ctx.charge = 0
        return status

    # ------------------------------------------------------------------
    # The batch-grain pump (what AdwisePartitioner drives)
    # ------------------------------------------------------------------
    def begin_batch(self, ends: np.ndarray) -> None:
        """Stage the edges ``ends`` (``(n, 2)`` canonical int64 ids, in
        stream order) for :meth:`pump`: intern them to dense rows and
        validate everything the kernel is about to be handed."""
        self._pairs = self._kern.stage(ends)
        self._sync_scoring()

    def pump(self, target_w: int, force: bool, stop_at: int) -> bool:
        """Advance Algorithm 1 over the staged batch: refill to
        ``target_w``, pop while the window is full (``force``: while it
        is non-empty), update the vertex cache, adapt λ, rule 3.

        Returns ``True`` when it stopped because :attr:`emitted` reached
        ``stop_at`` (the adaptive controller's block boundary: decide,
        then call again), ``False`` when the batch is consumed and
        nothing more may pop.  Score computations are charged to the
        scoring clock; assignments are the caller's to charge.
        """
        pairs = self._pairs
        status = self._call(self._lib.kern_pump, self._kern.pointer(pairs),
                            pairs.size // 2, target_w, force, stop_at)
        return status == self._lib.KERN_BLOCK_BOUNDARY

    @property
    def emitted(self) -> int:
        """Assignments popped since :meth:`begin_batch`."""
        return self._ctx.n_out

    def scores(self, start: int, stop: int) -> List[float]:
        """Scores of the batch's assignments ``start..stop``."""
        return self._array("out_score")[start:stop].tolist()

    def end_batch(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Close the batch: hand the partition state and the balancer
        the scalars the kernel kept, and return the decisions in pop
        order as ``(u, v, partition)`` id columns."""
        ctx = self._ctx
        scoring = self.scoring
        self._kern.absorb()
        if scoring.balancer is not None:
            scoring.balancer.value = ctx.lam
        popped = self._popped(ctx.n_out)
        self._compact_if_sparse()
        return popped

    def _popped(self, n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The first ``n`` popped assignments: the kernel's endpoint
        rows and spread columns as vertex and partition ids."""
        ids = self.scoring.state.vertex_ids
        return (ids(self._array("out_u")[:n]), ids(self._array("out_v")[:n]),
                self._kern.out_partitions(n))

    # ------------------------------------------------------------------
    # Serialization (session snapshot boundary)
    # ------------------------------------------------------------------
    def to_image(self) -> WindowImage:
        """Capture the traversal state verbatim as a
        :class:`~repro.core.window.WindowImage` (component memos are
        rebuilt on restore — they only ever hold values a fresh
        computation would produce, so dropping them is invisible)."""
        ctx = self._ctx
        slots = self._slots()
        partitions = self.scoring.state.partitions
        entries = [
            (entry, u, v, score, partitions[col], version, bool(candidate))
            for entry, u, v, score, col, version, candidate in zip(
                self._array("entry")[slots].tolist(),
                *(ends.tolist() for ends in self._endpoints(slots)),
                *(self._array(field)[slots].tolist() for field in (
                    "score", "col", "slot_version", "candidate")))]
        return WindowImage(entries=entries, next_id=ctx.next_id,
                           score_sum=ctx.score_sum, version=ctx.version,
                           promotions=ctx.promotions)

    def _load(self, image: WindowImage) -> None:
        """Adopt ``image`` into this (empty) window."""
        ctx = self._ctx
        n = len(image.entries)
        if n:
            ids, us, vs, scores, partitions, versions, candidates = zip(
                *image.entries)
            pairs = self.scoring.state.dense_rows(
                np.array((us, vs), dtype=np.int64).T.ravel())
            self._kern.sync_state()
            self._sync_scoring()
            self._kern.check_rows(pairs)
            arrays = (
                pairs, np.array(ids, dtype=np.int64),
                np.array(scores, dtype=np.float64),
                np.array([self._column[p] for p in partitions],
                         dtype=np.int64),
                np.array(versions, dtype=np.int64),
                np.array(candidates, dtype=np.uint8))
            self._call(self._lib.kern_restore,
                       *map(self._kern.pointer, arrays), n)
        ctx.next_id = image.next_id
        ctx.score_sum = image.score_sum
        ctx.version = image.version
        ctx.promotions = image.promotions

    @classmethod
    def from_image(cls, scoring: AdwiseScoring, image: WindowImage,
                   lazy: bool = True, epsilon: float = 0.1,
                   max_candidates: int = 64,
                   initial_capacity: int = _MIN_CAPACITY
                   ) -> "ArrayEdgeWindow":
        """Rebuild a window from an image; continues bit-identically."""
        new = cls(scoring, lazy=lazy, epsilon=epsilon,
                  max_candidates=max_candidates,
                  initial_capacity=max(initial_capacity,
                                       2 * len(image.entries)))
        new._load(image)
        return new
