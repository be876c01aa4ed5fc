"""Synthetic graph generators.

The paper evaluates on three real-world graphs (Table II) chosen for their
*clustering coefficient* spread — Orkut (social, ĉ≈0.04), Brain (biological,
ĉ≈0.51), Web (web, ĉ≈0.82) — and for skewed degree distributions.  Those
datasets are hundreds of millions to billions of edges and are not shipped
here; instead this module provides scale-free generators whose outputs match
the *properties* the paper's mechanisms key on:

* :func:`barabasi_albert_graph` — power-law degrees, vanishing clustering
  (the Orkut analogue).
* :func:`powerlaw_cluster_graph` — Holme–Kim triad closure, power-law degrees
  with moderate, tunable clustering (the Brain analogue).
* :func:`web_like_graph` — dense near-clique communities linked by a few
  high-degree hubs, very strong clustering (the Web analogue).
* :func:`watts_strogatz_graph` and :func:`rmat_graph` — classic substrates
  used by tests and ablations.

All generators take an explicit seed and return :class:`repro.graph.Graph`.
"""

from __future__ import annotations

import random
from itertools import filterfalse, islice
from typing import List, Optional, Set

from repro.graph.graph import Graph


def _check_positive(name: str, value: int) -> None:
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")


def barabasi_albert_graph(n: int, m: int, seed: int = 0) -> Graph:
    """Preferential-attachment graph: ``n`` vertices, ``m`` edges per newcomer.

    Produces a power-law degree distribution with clustering coefficient that
    vanishes as ``n`` grows — matching the weakly-clustered Orkut social
    network of Table II.
    """
    _check_positive("n", n)
    _check_positive("m", m)
    if m >= n:
        raise ValueError(f"m ({m}) must be < n ({n})")
    rng = random.Random(seed)
    graph = Graph()
    # Repeated-vertices list implements preferential attachment in O(1).
    repeated: List[int] = []
    # Seed with a star over the first m+1 vertices so every newcomer can
    # attach to m distinct targets.
    for v in range(m):
        graph.add_edge(v, m)
        repeated.extend((v, m))
    for source in range(m + 1, n):
        targets = set()
        while len(targets) < m:
            targets.add(rng.choice(repeated))
        for t in targets:
            graph.add_edge(source, t)
            repeated.extend((source, t))
    return graph


def powerlaw_cluster_graph(n: int, m: int, p: float, seed: int = 0) -> Graph:
    """Holme–Kim graph: preferential attachment plus triad formation.

    With probability ``p`` each attachment step closes a triangle by linking
    to a random neighbor of the previously chosen target, which injects
    clustering while keeping the power-law degree tail.  ``p≈0.8-0.95`` yields
    the moderate clustering (ĉ around 0.4-0.6) of the Brain graph.
    """
    _check_positive("n", n)
    _check_positive("m", m)
    if m >= n:
        raise ValueError(f"m ({m}) must be < n ({n})")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    rng = random.Random(seed)
    choice, uniform = rng.choice, rng.random
    graph = Graph()
    repeated: List[int] = []
    for v in range(m):
        graph.add_edge(v, m)
        repeated.extend((v, m))
    adj = graph._adj  # every edge below is new, between known vertices
    for source in range(m + 1, n):
        mine = adj[source] = set()
        count = 0
        last: Optional[Set[int]] = None  # the last target's neighbours
        while count < m:
            target = None
            if last is not None and uniform() < p:
                # Triad step: close a triangle through the last target.
                size = len(last) - 1 - len(mine & last)
                if size:
                    target = choice(_TriadCandidates(last, mine, source, size))
            if target is None:
                target = choice(repeated)
            if target != source and target not in mine:
                mine.add(target)
                adj[target].add(source)
                repeated.extend((source, target))
                count += 1
                last = adj[target]
    graph._num_edges = m * (n - m)
    return graph


class _TriadCandidates:
    """The neighbours of the last target that are neither ``source`` nor
    already its neighbours, in the hub's set order, as the sequence
    ``rng.choice`` reads: ``size`` of them (``len(hub) - 1 - |mine ∩
    hub|``, the one being ``source``) and the ``i``-th found by skipping
    in C — no list over the hub, the same draw, the same vertex."""

    __slots__ = ("hub", "skip", "size")

    def __init__(self, hub: Set[int], mine: Set[int], source: int,
                 size: int) -> None:
        self.hub = hub
        self.skip = mine | {source}
        self.size = size

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, i: int) -> int:
        return next(islice(filterfalse(self.skip.__contains__, self.hub),
                           i, None))


def watts_strogatz_graph(n: int, k: int, p: float, seed: int = 0) -> Graph:
    """Small-world ring lattice with rewiring probability ``p``."""
    _check_positive("n", n)
    if k < 2 or k % 2 != 0:
        raise ValueError(f"k must be an even integer >= 2, got {k}")
    if k >= n:
        raise ValueError(f"k ({k}) must be < n ({n})")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    rng = random.Random(seed)
    graph = Graph()
    for v in range(n):
        graph.add_vertex(v)
    for v in range(n):
        for offset in range(1, k // 2 + 1):
            graph.add_edge(v, (v + offset) % n)
    if p > 0:
        for v in range(n):
            for offset in range(1, k // 2 + 1):
                if rng.random() < p:
                    old = (v + offset) % n
                    if graph.degree(v) >= n - 1:
                        continue
                    new = rng.randrange(n)
                    while new == v or graph.has_edge(v, new):
                        new = rng.randrange(n)
                    # Rewire: the lattice edge may already have been rewired.
                    if graph.has_edge(v, old):
                        graph._adj[v].discard(old)
                        graph._adj[old].discard(v)
                        graph._num_edges -= 1
                    graph.add_edge(v, new)
    return graph


def rmat_graph(scale: int, edge_factor: int,
               a: float = 0.57, b: float = 0.19, c: float = 0.19,
               seed: int = 0) -> Graph:
    """Recursive-matrix (R-MAT / Graph500-style) generator.

    Produces ``2**scale`` vertex ids and ``edge_factor * 2**scale`` edge
    samples with a skewed, community-free structure.  Duplicate edges and
    self-loops are dropped, so the realised edge count is slightly lower.
    """
    _check_positive("scale", scale)
    _check_positive("edge_factor", edge_factor)
    d = 1.0 - a - b - c
    if d < 0 or min(a, b, c) < 0:
        raise ValueError("R-MAT probabilities must be non-negative and sum <= 1")
    rng = random.Random(seed)
    n = 1 << scale
    graph = Graph()
    for _ in range(edge_factor * n):
        u = v = 0
        for _ in range(scale):
            r = rng.random()
            u <<= 1
            v <<= 1
            if r < a:
                pass
            elif r < a + b:
                v |= 1
            elif r < a + b + c:
                u |= 1
            else:
                u |= 1
                v |= 1
        if u != v:
            graph.add_edge(u, v)
    return graph


def web_like_graph(num_communities: int, community_size: int,
                   intra_p: float = 0.9, inter_edges: int = 2,
                   seed: int = 0) -> Graph:
    """Web-analogue: dense near-clique communities plus sparse hub links.

    Web graphs have very strong local clustering (Table II reports ĉ≈0.82):
    pages within a site form near-cliques, and a few hub pages link across
    sites.  Each community here is an Erdős–Rényi near-clique with edge
    probability ``intra_p``; each community's hub (vertex 0 of the block)
    draws ``inter_edges`` links to preferentially chosen other hubs.
    """
    _check_positive("num_communities", num_communities)
    if community_size < 3:
        raise ValueError("community_size must be >= 3 for meaningful clustering")
    if not 0.0 < intra_p <= 1.0:
        raise ValueError(f"intra_p must be in (0, 1], got {intra_p}")
    rng = random.Random(seed)
    graph = Graph()
    hubs: List[int] = []
    for comm in range(num_communities):
        base = comm * community_size
        members = list(range(base, base + community_size))
        hubs.append(base)
        for i, u in enumerate(members):
            for v in members[i + 1:]:
                if rng.random() < intra_p:
                    graph.add_edge(u, v)
        # Guarantee connectivity inside the community.
        for u in members[1:]:
            if not graph.has_edge(base, u) and rng.random() < 0.5:
                graph.add_edge(base, u)
    # Preferentially link hubs so a few hubs become high-degree connectors.
    hub_weights: List[int] = list(hubs)
    for comm in range(1, num_communities):
        hub = hubs[comm]
        for _ in range(inter_edges):
            target = rng.choice(hub_weights)
            if target != hub:
                graph.add_edge(hub, target)
                hub_weights.extend((hub, target))
    return graph


def community_powerlaw_graph(num_communities: int, community_size: int,
                             intra_p: float = 0.45, overlay_m: int = 6,
                             seed: int = 0) -> Graph:
    """Clustered communities plus a preferential-attachment hub overlay.

    Models graphs like the paper's Brain network: moderate clustering from
    dense local neighbourhoods (Erdős–Rényi communities with edge
    probability ``intra_p`` — local clustering ≈ ``intra_p``) *and* a
    heavy-tailed degree distribution from hub vertices that connect many
    communities (the overlay attaches ``overlay_m`` preferential edges per
    vertex).  Both properties matter: clustering drives ADWISE's CS score,
    and high-degree hubs drive the degree-aware score and the spotlight
    effect (balance-driven spraying of hub edges).
    """
    _check_positive("num_communities", num_communities)
    if community_size < 3:
        raise ValueError("community_size must be >= 3")
    if not 0.0 < intra_p <= 1.0:
        raise ValueError(f"intra_p must be in (0, 1], got {intra_p}")
    if overlay_m < 0:
        raise ValueError("overlay_m must be non-negative")
    rng = random.Random(seed)
    graph = Graph()
    n = num_communities * community_size
    for comm in range(num_communities):
        base = comm * community_size
        members = list(range(base, base + community_size))
        for i, u in enumerate(members):
            for v in members[i + 1:]:
                if rng.random() < intra_p:
                    graph.add_edge(u, v)
        for u in members:
            graph.add_vertex(u)
    if overlay_m > 0:
        # Preferential overlay: vertices attach to already-popular targets.
        repeated: List[int] = list(range(n))
        order = list(range(n))
        rng.shuffle(order)
        for source in order:
            for _ in range(overlay_m):
                target = rng.choice(repeated)
                if target != source and graph.add_edge(source, target):
                    repeated.extend((source, target))
    return graph


# ---------------------------------------------------------------------------
# Named analogues of the paper's Table II corpus (scaled down).
# ---------------------------------------------------------------------------

def orkut_like_graph(n: int = 4000, m: int = 12, seed: int = 0) -> Graph:
    """Scaled Orkut analogue: power-law social graph with weak clustering."""
    return barabasi_albert_graph(n, m, seed=seed)


def brain_like_graph(n: int = 3000, m: int = 10, p: float = 0.92,
                     seed: int = 0) -> Graph:
    """Scaled Brain analogue: skewed degrees with moderate clustering."""
    return powerlaw_cluster_graph(n, m, p, seed=seed)
