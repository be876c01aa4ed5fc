"""The edge window and lazy window traversal (paper §III-B).

The window holds up to ``w`` unassigned edges.  A naive implementation
recomputes ``w × k`` scores per assignment; lazy traversal instead splits
the window into a *candidate set* ``C`` of high-score edges and a
*secondary set* ``Q``, maintaining three rules from the paper:

1. An edge entering the window is scored once; it joins ``C`` if its best
   score exceeds the threshold ``Θ = g_avg + ε``, else ``Q``.
2. If ``C`` is empty, all of ``Q`` is rescored and edges above ``Θ`` are
   promoted (with a fallback promotion of the best edge so the algorithm
   always progresses).
3. When an assignment changes a vertex's replica set, secondary edges
   incident to that vertex are reassessed for promotion.

``Θ`` tracks the running average ``g_avg`` of the best-known scores of all
window edges, so only better-than-average edges count as candidates.

Window entries carry a unique sequence id so duplicate edges in the input
stream are retained as distinct window items.  All traversal loops visit
entries in ascending entry-id order (stream order), so score ties break
toward the oldest edge and the floating-point accumulation of the score
sum is a deterministic function of the stream — the contract the
array-native window (:mod:`repro.core.array_window`) replicates
step-for-step to stay bit-identical with this reference implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.graph.graph import Edge
from repro.core.scoring import AdwiseScoring


@dataclass
class WindowImage:
    """Verbatim, picklable image of a live window's traversal state.

    The mid-stream serialization boundary of partitioning sessions
    (``repro.api``): every piece of state the traversal semantics depend
    on is captured exactly — entry ids, cached (score, partition,
    version) triples, candidate membership, the float score sum with its
    accumulation history, the pop version and the promotion counter — so
    a window rebuilt from an image continues bit-identically to the live
    one.  Both window classes produce and consume the same image, so a
    session may be snapshot on one backend and restored on the other.
    """

    #: ``(entry_id, u, v, score, partition, version, candidate)`` rows
    #: in ascending entry-id order.
    entries: List[Tuple[int, int, int, float, int, int, bool]]
    next_id: int
    score_sum: float
    version: int
    promotions: int


@dataclass
class _WindowEntry:
    """One window slot: an edge plus its cached best (score, partition).

    ``version`` records the window's assignment version at which the cache
    was computed; a cache is exact while no assignment happened since
    (balance scores change with every assignment), so pop_best can skip
    recomputation for fresh entries — e.g. right after a refill.
    """

    entry_id: int
    edge: Edge
    best_score: float
    best_partition: int
    candidate: bool = False
    version: int = -1


class EdgeWindow:
    """Fixed-capacity-free edge window with lazy candidate traversal.

    The window has no hard capacity of its own — the partitioner's refill
    loop enforces the current window size ``w`` — so growth/shrink decisions
    by the adaptive controller need no window surgery.

    Parameters
    ----------
    scoring:
        The :class:`AdwiseScoring` instance used for all score computations.
    lazy:
        If False, every edge is a candidate (eager full traversal); used by
        the lazy-vs-eager ablation.
    epsilon:
        The ε in ``Θ = g_avg + ε``; small positive values make the candidate
        filter strictly better-than-average.
    """

    def __init__(self, scoring: AdwiseScoring, lazy: bool = True,
                 epsilon: float = 0.1, max_candidates: int = 64) -> None:
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
        if max_candidates < 1:
            raise ValueError("max_candidates must be >= 1")
        self.scoring = scoring
        self.lazy = lazy
        self.epsilon = epsilon
        self.max_candidates = max_candidates
        self._entries: Dict[int, _WindowEntry] = {}
        self._candidates: Set[int] = set()
        self._secondary: Set[int] = set()
        self._incidence: Dict[int, Set[int]] = {}
        self._next_id = 0
        self._score_sum = 0.0  # sum of cached best scores (for g_avg)
        self._version = 0  # bumped after each pop (i.e. each assignment)
        #: Secondary→candidate promotions performed by rules 2 and 3.
        self.promotions = 0
        # Observability tallies, mirroring ArrayEdgeWindow's (published
        # to the repro.obs registry at finalize; never part of extras).
        self.stat_refills = 0
        self.stat_pops = 0
        self.stat_rescored_slots = 0
        self.stat_rep_recomputed = 0
        self.stat_cs_recomputed = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def candidate_count(self) -> int:
        return len(self._candidates)

    @property
    def secondary_count(self) -> int:
        return len(self._secondary)

    def edges(self) -> List[Edge]:
        return [entry.edge for entry in self._entries.values()]

    @property
    def threshold(self) -> float:
        """Current candidate threshold Θ = g_avg + ε."""
        if not self._entries:
            return self.epsilon
        return self._score_sum / len(self._entries) + self.epsilon

    # ------------------------------------------------------------------
    # Window-local neighborhood (for the clustering score)
    # ------------------------------------------------------------------
    def neighborhood(self, edge: Edge,
                     exclude_entry: Optional[int] = None) -> Set[int]:
        """``N(u) ∪ N(v)`` computed from window edges only (paper §III-C)."""
        nbrs: Set[int] = set()
        for endpoint in (edge.u, edge.v):
            for entry_id in self._incidence.get(endpoint, ()):
                if entry_id == exclude_entry:
                    continue
                other = self._entries[entry_id].edge.other(endpoint)
                nbrs.add(other)
        nbrs.discard(edge.u)
        nbrs.discard(edge.v)
        return nbrs

    # ------------------------------------------------------------------
    # Scoring helpers
    # ------------------------------------------------------------------
    def _best_assignment(self, edge: Edge,
                         exclude_entry: Optional[int] = None
                         ) -> Tuple[float, int]:
        """Best (score, partition) for ``edge`` over this instance's spread.

        Delegates to :meth:`AdwiseScoring.best` (one ``score`` call per
        partition).
        """
        neighborhood = self.neighborhood(edge, exclude_entry=exclude_entry)
        return self.scoring.best(edge, neighborhood)

    def _set_cached(self, entry: _WindowEntry, score: float,
                    partition: int) -> None:
        self._score_sum += score - entry.best_score
        entry.best_score = score
        entry.best_partition = partition
        entry.version = self._version

    def _classify(self, entry: _WindowEntry) -> None:
        """Place ``entry`` into C or Q based on the current threshold.

        The candidate set is capped at ``max_candidates`` — the lazy
        traversal only pays off when ``|C| << |Q|`` (paper §III-B), so
        surplus high-score edges wait in Q until C drains.
        """
        should_be_candidate = (not self.lazy
                               or (entry.best_score > self.threshold
                                   and len(self._candidates) < self.max_candidates))
        if should_be_candidate:
            self._candidates.add(entry.entry_id)
            self._secondary.discard(entry.entry_id)
        else:
            self._secondary.add(entry.entry_id)
            self._candidates.discard(entry.entry_id)
        entry.candidate = should_be_candidate

    # ------------------------------------------------------------------
    # Serialization (session snapshot boundary)
    # ------------------------------------------------------------------
    def to_image(self) -> WindowImage:
        """Capture the traversal state verbatim (see :class:`WindowImage`)."""
        entries = []
        for entry_id in sorted(self._entries):
            entry = self._entries[entry_id]
            entries.append((entry_id, entry.edge.u, entry.edge.v,
                            entry.best_score, entry.best_partition,
                            entry.version, entry.candidate))
        return WindowImage(
            entries=entries,
            next_id=self._next_id,
            score_sum=self._score_sum,
            version=self._version,
            promotions=self.promotions,
        )

    @classmethod
    def from_image(cls, scoring: AdwiseScoring, image: WindowImage,
                   lazy: bool = True, epsilon: float = 0.1,
                   max_candidates: int = 64) -> "EdgeWindow":
        """Rebuild a window from an image; continues bit-identically."""
        window = cls(scoring, lazy=lazy, epsilon=epsilon,
                     max_candidates=max_candidates)
        for entry_id, u, v, score, partition, version, candidate in \
                image.entries:
            edge = Edge(u, v)
            entry = _WindowEntry(entry_id, edge, score, partition,
                                 candidate=candidate, version=version)
            window._entries[entry_id] = entry
            (window._candidates if candidate
             else window._secondary).add(entry_id)
            for endpoint in (edge.u, edge.v):
                window._incidence.setdefault(endpoint, set()).add(entry_id)
        window._next_id = image.next_id
        window._score_sum = image.score_sum
        window._version = image.version
        window.promotions = image.promotions
        return window

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, edge: Edge) -> int:
        """Insert ``edge``; score it once and classify it; return entry id."""
        self.stat_refills += 1
        entry_id = self._next_id
        self._next_id += 1
        score, partition = self._best_assignment(edge)
        entry = _WindowEntry(entry_id, edge, 0.0, partition)
        self._entries[entry_id] = entry
        self._score_sum += 0.0
        self._set_cached(entry, score, partition)
        for endpoint in (edge.u, edge.v):
            self._incidence.setdefault(endpoint, set()).add(entry_id)
        self._classify(entry)
        return entry_id

    def add_block(self, edges: Sequence[Edge],
                  observe: Optional[Callable[[Edge], None]] = None
                  ) -> List[int]:
        """Insert a refill block; equivalent to sequential :meth:`add` calls.

        ``observe`` (typically ``state.observe_degrees``) is invoked on each
        edge immediately before it is scored, preserving the single-edge
        refill semantics: edge ``i`` is scored with the degree table and
        window incidence as they stood after edges ``1..i`` entered.
        """
        ids = []
        for edge in edges:
            if observe is not None:
                observe(edge)
            ids.append(self.add(edge))
        return ids

    def _remove(self, entry_id: int) -> _WindowEntry:
        entry = self._entries.pop(entry_id)
        self._score_sum -= entry.best_score
        self._candidates.discard(entry_id)
        self._secondary.discard(entry_id)
        for endpoint in (entry.edge.u, entry.edge.v):
            incident = self._incidence.get(endpoint)
            if incident is not None:
                incident.discard(entry_id)
                if not incident:
                    del self._incidence[endpoint]
        return entry

    def _rescore_secondary(self) -> None:
        """Rule 2: candidate set empty → rescore Q, promote above-Θ edges.

        Entries are rescored and promoted in ascending entry-id order, so
        both the score-sum accumulation and the promotion choice under the
        candidate cap are deterministic stream functions (and replicable
        by the batched array window).
        """
        if not self._secondary:
            return
        ordered = sorted(self._secondary)
        for entry_id in ordered:
            entry = self._entries[entry_id]
            score, partition = self._best_assignment(
                entry.edge, exclude_entry=entry_id)
            self._set_cached(entry, score, partition)
        threshold = self.threshold
        above = [entry_id for entry_id in ordered
                 if self._entries[entry_id].best_score > threshold]
        if not above:
            # Fallback (scores are uniform, e.g. a cold vertex cache):
            # promote the best few so progress is made without rescoring
            # the whole secondary set on every subsequent assignment.
            # Ties break toward the oldest entry.
            ranked = sorted(
                ordered,
                key=lambda eid: (-self._entries[eid].best_score, eid))
            above = ranked[:max(1, len(ranked) // 8)]
        for entry_id in above[:self.max_candidates]:
            self._secondary.discard(entry_id)
            self._candidates.add(entry_id)
            self._entries[entry_id].candidate = True
            self.promotions += 1

    def pop_best(self) -> Tuple[Edge, int, float]:
        """Remove and return the best (edge, partition, score) assignment.

        Candidate scores are recomputed (they may be stale after previous
        assignments); secondary scores are not — that is the lazy saving.
        """
        if not self._entries:
            raise IndexError("pop_best from an empty window")
        self.stat_pops += 1
        if not self._candidates:
            self._rescore_secondary()
        # Every entry lives in C or Q, and rule 2 promotes at least one
        # entry from a non-empty Q, so C is non-empty here.  The best is
        # therefore initialised from the first candidate instead of a
        # (-inf, partitions[0]) sentinel — a degenerate window can no
        # longer silently mis-assign to the first spread partition.
        best_id = None
        best_score = 0.0
        best_partition = 0
        for entry_id in sorted(self._candidates):
            entry = self._entries[entry_id]
            if entry.version == self._version:
                # Cache is exact: no assignment happened since it was
                # computed (common right after a refill, and always at w=1).
                score, partition = entry.best_score, entry.best_partition
            else:
                score, partition = self._best_assignment(
                    entry.edge, exclude_entry=entry_id)
                self._set_cached(entry, score, partition)
            if best_id is None or score > best_score:
                best_score = score
                best_id = entry_id
                best_partition = partition
        if best_id is None:  # pragma: no cover - guarded by the invariant
            raise RuntimeError("window invariant violated: no candidates "
                               "after rule-2 rescoring of a non-empty window")
        entry = self._remove(best_id)
        # The caller assigns this edge next, which shifts balance scores;
        # all remaining caches become stale.
        self._version += 1
        return entry.edge, best_partition, best_score

    def on_replicas_changed(self, vertices: Iterable[int]) -> int:
        """Rule 3: reassess secondary edges touching changed replica sets.

        Returns the number of secondary edges promoted to the candidate set.
        """
        if not self.lazy:
            return 0
        touched: Set[int] = set()
        for vertex in vertices:
            touched.update(self._incidence.get(vertex, ()))
        promoted = 0
        threshold = self.threshold
        for entry_id in sorted(touched):
            if entry_id not in self._secondary:
                continue
            entry = self._entries[entry_id]
            score, partition = self._best_assignment(
                entry.edge, exclude_entry=entry_id)
            self._set_cached(entry, score, partition)
            if (score > threshold
                    and len(self._candidates) < self.max_candidates):
                self._secondary.discard(entry_id)
                self._candidates.add(entry_id)
                entry.candidate = True
                promoted += 1
                self.promotions += 1
        return promoted
