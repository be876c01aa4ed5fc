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

from typing import Iterable, Optional, Tuple

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

    def best(self, edge: Edge,
             neighborhood: Iterable[int] = ()) -> Tuple[float, int]:
        """Best ``(score, partition)`` for ``edge`` over the spread; ties
        break toward the first partition in spread order."""
        state = self.state
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
