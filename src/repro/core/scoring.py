"""ADWISE's adaptive degree-aware scoring function (paper §III-C).

The total score for placing window edge ``e`` on partition ``p`` is

    g(e, p) = λ(ι, α) · B(p) + R(e, p) + CS(e, p)          (Eq. 7)

with three components:

* **Adaptive balancing** ``λ(ι, α) · B(p)`` — the balancing score B(p)
  (Eq. 3) weighted by a parameter λ that is *adapted at runtime* (Eq. 4)
  from the current imbalance ι and stream progress α, instead of being a
  fixed expert-chosen constant as in HDRF.
* **Degree-aware replication** ``R(e, p)`` (Eq. 5) — rewards partitions that
  already hold replicas of e's endpoints, discounted by the endpoint's
  degree normalised against the maximum observed degree (Ψ), so high-degree
  vertices are preferentially cut.
* **Clustering score** ``CS(e, p)`` (Eq. 6) — rewards partitions already
  holding replicas of e's *window-local neighborhood*, exploiting the
  cliquishness of real-world graphs.  Disabled for weakly clustered graphs
  (the paper switches it off for Orkut).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised only on numpy-free installs
    np = None  # the batched kernels need a fast state, which requires numpy

from repro.graph.graph import Edge
from repro.partitioning.state import PartitionState
from repro.simtime import Clock

_EPSILON = 1e-9

#: Hard bounds on the adaptive balancing parameter (paper: "we keep
#: λ(ι, α) in the fixed interval [0.4, 5]").
LAMBDA_MIN = 0.4
LAMBDA_MAX = 5.0


class AdaptiveBalancer:
    """Runtime-adaptive balancing weight λ(ι, α) (Eq. 4).

    After every edge assignment the weight moves by the difference between
    the current imbalance ι and the tolerated imbalance ``max(0, 1 − α)``
    (which shrinks linearly as the stream progresses), clamped to
    ``[LAMBDA_MIN, LAMBDA_MAX]``.
    """

    def __init__(self, total_edges: int, initial: float = 1.0) -> None:
        if total_edges < 0:
            raise ValueError("total_edges must be non-negative")
        if not LAMBDA_MIN <= initial <= LAMBDA_MAX:
            raise ValueError(
                f"initial lambda {initial} outside [{LAMBDA_MIN}, {LAMBDA_MAX}]")
        self.total_edges = total_edges
        self.value = initial

    @staticmethod
    def tolerance(alpha: float) -> float:
        """Highest acceptable imbalance at stream progress ``alpha``."""
        return max(0.0, 1.0 - alpha)

    def update(self, imbalance: float, assigned_edges: int) -> float:
        """Adapt λ after one assignment; return the new value."""
        if self.total_edges > 0:
            alpha = min(1.0, assigned_edges / self.total_edges)
        else:
            alpha = 1.0
        self.value += imbalance - self.tolerance(alpha)
        self.value = min(LAMBDA_MAX, max(LAMBDA_MIN, self.value))
        return self.value


class AdwiseScoring:
    """Computes ``g(e, p)`` against a :class:`PartitionState`.

    Parameters
    ----------
    state:
        The vertex cache / partition bookkeeping of this instance.
    balancer:
        The adaptive λ source; pass ``None`` to pin λ (ablations, tests)
        via ``fixed_lambda``.
    use_clustering:
        Include the clustering score CS.  The paper disables it for graphs
        with negligible clustering coefficient (Orkut).
    clock:
        Charged one unit per ``score`` call so latency accounting matches
        the paper's "score computations" complexity unit.
    """

    def __init__(self, state: PartitionState,
                 balancer: Optional[AdaptiveBalancer] = None,
                 use_clustering: bool = True,
                 fixed_lambda: float = 1.0,
                 clock: Optional[Clock] = None) -> None:
        self.state = state
        self.balancer = balancer
        self.use_clustering = use_clustering
        self.fixed_lambda = fixed_lambda
        self.clock = clock
        # λ·B(p) vector memo for the batched kernels: balance scores and
        # λ only move when an edge is assigned, while the window rescoring
        # between two assignments calls the kernels many times.  Keyed by
        # (assigned_edges, λ); holds the exact vector the uncached path
        # would compute, so results are bit-identical.
        self._weighted_balance_edges: int = -1
        self._weighted_balance_lambda: float = float("nan")
        self._weighted_balance: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Components
    # ------------------------------------------------------------------
    @property
    def current_lambda(self) -> float:
        return self.balancer.value if self.balancer is not None else self.fixed_lambda

    def balance_score(self, partition: int) -> float:
        """B(p) = (maxsize − |p|) / (maxsize − minsize + ε)   (Eq. 3)."""
        max_size = self.state.max_size
        min_size = self.state.min_size
        return (max_size - self.state.size(partition)) / (
            max_size - min_size + _EPSILON)

    def psi(self, vertex: int) -> float:
        """Absolute-degree normalisation Ψ_v = deg(v) / (2 · maxDegree)."""
        return self.state.degree_of(vertex) / (2.0 * max(1, self.state.max_degree))

    def replication_score(self, edge: Edge, partition: int) -> float:
        """R((u,v), p) = 1{p∈R_u}(2−Ψ_u) + 1{p∈R_v}(2−Ψ_v)   (Eq. 5)."""
        score = 0.0
        if self.state.is_replicated_on(edge.u, partition):
            score += 2.0 - self.psi(edge.u)
        if self.state.is_replicated_on(edge.v, partition):
            score += 2.0 - self.psi(edge.v)
        return score

    def clustering_score(self, edge: Edge, partition: int,
                         neighborhood: Iterable[int]) -> float:
        """CS(e, p): fraction of window-local neighbors replicated on p (Eq. 6).

        ``neighborhood`` is ``N(u) ∪ N(v)`` computed from the *window* edges
        only (the caller owns the window incidence index); the larger the
        window, the more accurate the score.
        """
        nbrs = list(neighborhood)
        if not nbrs:
            return 0.0
        hits = sum(1 for n in nbrs
                   if self.state.is_replicated_on(n, partition))
        return hits / len(nbrs)

    # ------------------------------------------------------------------
    # Total
    # ------------------------------------------------------------------
    def score(self, edge: Edge, partition: int,
              neighborhood: Iterable[int] = ()) -> float:
        """Total score g(e, p) (Eq. 7); charges one score computation."""
        if self.clock is not None:
            self.clock.charge_score()
        total = (self.current_lambda * self.balance_score(partition)
                 + self.replication_score(edge, partition))
        if self.use_clustering:
            total += self.clustering_score(edge, partition, neighborhood)
        return total

    # ------------------------------------------------------------------
    # Batched kernel (fast path)
    # ------------------------------------------------------------------
    def _lambda_balance(self) -> np.ndarray:
        """``λ · B(p)`` over the spread, memoized between assignments.

        Callers must treat the returned vector as read-only.
        """
        state = self.state
        lam = self.current_lambda
        if (state.assigned_edges != self._weighted_balance_edges
                or lam != self._weighted_balance_lambda):
            max_size = state.max_size
            balance = (max_size - state.sizes_vector()) / (
                max_size - state.min_size + _EPSILON)
            self._weighted_balance = lam * balance
            self._weighted_balance_edges = state.assigned_edges
            self._weighted_balance_lambda = lam
        return self._weighted_balance

    def score_all(self, edge: Edge,
                  neighborhood: Iterable[int] = ()) -> np.ndarray:
        """Score ``edge`` against *all* partitions in one vectorised call.

        Requires a :class:`~repro.partitioning.fast_state.FastPartitionState`.
        Returns ``g(e, p)`` for every partition in spread order; the
        arithmetic mirrors :meth:`score` operation-for-operation (same
        IEEE-754 evaluation order), so argmax over the result is
        bit-identical to the legacy per-partition loop.  Charges ``k``
        score computations, matching the per-call accounting.
        """
        state = self.state
        if self.clock is not None:
            self.clock.charge_score(state.num_partitions)
        row_u, row_v = state.replica_rows_pair(edge.u, edge.v)
        replication = (row_u * (2.0 - self.psi(edge.u))
                       + row_v * (2.0 - self.psi(edge.v)))
        total = self._lambda_balance() + replication
        if self.use_clustering:
            nbrs = list(neighborhood)
            if nbrs:
                total += state.replica_hits(nbrs) / len(nbrs)
        return total

    def score_batch(self, us: "np.ndarray", vs: "np.ndarray",
                    nbr_concat: Sequence[int], nbr_counts: "np.ndarray",
                    psi_u: Optional["np.ndarray"] = None,
                    psi_v: Optional["np.ndarray"] = None) -> np.ndarray:
        """Score ``N`` edges against all ``k`` partitions in one kernel call.

        Row ``i`` is bit-identical to ``score_all(Edge(us[i], vs[i]),
        nbrs_i)`` evaluated against the same state: every elementwise
        operation mirrors the single-edge kernel in the same IEEE-754
        evaluation order, so per-row argmax matches ``N`` sequential
        ``best`` calls exactly.  Charges ``N × k`` score computations,
        matching ``N`` single-edge calls.

        Parameters
        ----------
        us, vs:
            Endpoint vertex ids, one pair per edge.
        nbr_concat, nbr_counts:
            The window-local neighborhoods of all edges, concatenated,
            with ``nbr_counts[i]`` (an int64 ndarray) giving edge ``i``'s
            neighborhood size (rows with count 0 receive no clustering
            term, like the single-edge kernel's ``if nbrs`` guard).
        psi_u, psi_v:
            Optional per-edge degree normalisations Ψ.  The refill path
            passes the values captured when each edge was observed —
            replaying the degree table as it stood mid-block — while
            rescoring passes ``None`` to read the current table.
        """
        state = self.state
        n = len(us)
        if self.clock is not None:
            self.clock.charge_score(n * state.num_partitions)
        total = (self._lambda_balance()
                 + self.replication_batch(us, vs, psi_u=psi_u, psi_v=psi_v))
        if self.use_clustering and len(nbr_concat):
            # Zero rows (empty neighborhoods) add exactly 0.0 to already
            # non-negative scores, matching the single-edge ``if nbrs``
            # guard bit-for-bit.
            total += self.clustering_batch(nbr_concat, nbr_counts)
        return total

    def replication_batch(self, us: Sequence[int], vs: Sequence[int],
                          psi_u: Optional["np.ndarray"] = None,
                          psi_v: Optional["np.ndarray"] = None) -> np.ndarray:
        """``R(e, p)`` for ``N`` edges as one ``(N, k)`` matrix.

        Row ``i`` equals the replication term of :meth:`score_all` for
        edge ``(us[i], vs[i])`` bit-for-bit.  Component kernel: charges
        no score computations (the composing callers account for whole
        scores).
        """
        state = self.state
        n = len(us)
        if isinstance(us, np.ndarray):
            us = us.tolist()
        if isinstance(vs, np.ndarray):
            vs = vs.tolist()
        endpoints = us + vs
        rows = state.replica_rows(endpoints)
        if psi_u is None:
            denominator = 2.0 * max(1, state.max_degree)
            psi = state.degrees_array(endpoints) / denominator
        else:
            psi = np.concatenate((psi_u, psi_v))
        # One fused multiply over both endpoint blocks: rows i and n+i are
        # edge i's u and v indicator rows, so the sum of the two halves is
        # R(e, p) elementwise — identical to the per-endpoint products.
        weighted = rows * (2.0 - psi)[:, None]
        return weighted[:n] + weighted[n:]

    def clustering_batch(self, nbr_concat: Sequence[int],
                         nbr_counts: "np.ndarray") -> np.ndarray:
        """``CS(e, p)`` for ``N`` edges as one ``(N, k)`` matrix.

        ``nbr_concat`` holds all neighborhoods back to back and
        ``nbr_counts[i]`` (int64 ndarray) edge ``i``'s neighborhood size;
        rows with count 0 come back all-zero.  Component kernel: charges
        no score computations.
        """
        state = self.state
        n = len(nbr_counts)
        counts = nbr_counts
        if not len(nbr_concat):
            return np.zeros((n, state.num_partitions))
        rows = state.replica_rows(nbr_concat).astype(np.int64)
        nonzero = counts > 0
        if nonzero.all():
            starts = np.cumsum(counts) - counts
            hits = np.add.reduceat(rows, starts, axis=0)
            return hits / counts[:, None]
        out = np.zeros((n, state.num_partitions))
        ends = np.cumsum(counts[nonzero])
        starts = ends - counts[nonzero]
        hits = np.add.reduceat(rows, starts, axis=0)
        out[nonzero] = hits / counts[nonzero, None]
        return out

    def best(self, edge: Edge,
             neighborhood: Iterable[int] = ()) -> Tuple[float, int]:
        """Best ``(score, partition)`` for ``edge`` over the spread.

        Dispatches to the batched kernel on a fast state and falls back
        to the legacy per-partition loop otherwise; ties break toward the
        first partition in spread order on both paths.
        """
        state = self.state
        if state.is_fast:
            scores = self.score_all(edge, neighborhood)
            idx = int(scores.argmax())
            return float(scores[idx]), state.partitions[idx]
        best_score = float("-inf")
        best_partition = state.partitions[0]
        for partition in state.partitions:
            s = self.score(edge, partition, neighborhood)
            if s > best_score:
                best_score = s
                best_partition = partition
        return best_score, best_partition

    def after_assignment(self) -> None:
        """Adapt λ after an edge assignment (Eq. 4)."""
        if self.balancer is not None:
            self.balancer.update(self.state.imbalance(),
                                 self.state.assigned_edges)
