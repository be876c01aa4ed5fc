"""Core graph data structures.

The partitioners operate on *edge streams* and never need a materialised
graph; :class:`Graph` exists for the substrate around them — generators,
statistics, and the processing-engine simulator, which needs adjacency
lookups to run vertex programs.

Vertices are plain integers.  Edges are undirected for partitioning purposes
(vertex-cut replication is symmetric in the endpoints) and stored in a
canonical ``(min, max)`` orientation.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, NamedTuple, Set, Tuple


class Edge(NamedTuple):
    """An undirected edge between vertices ``u`` and ``v``."""

    u: int
    v: int

    def canonical(self) -> "Edge":
        """Return the edge with endpoints ordered ``u <= v``."""
        if self.u <= self.v:
            return self
        return Edge(self.v, self.u)

    def other(self, vertex: int) -> int:
        """Return the endpoint that is not ``vertex``.

        Raises ``ValueError`` if ``vertex`` is not an endpoint.
        """
        if vertex == self.u:
            return self.v
        if vertex == self.v:
            return self.u
        raise ValueError(f"vertex {vertex} is not incident to {self}")

    def is_loop(self) -> bool:
        """Return True if both endpoints coincide."""
        return self.u == self.v


class Graph:
    """A simple undirected graph backed by adjacency sets.

    Parallel edges are collapsed; self-loops are rejected because vertex-cut
    partitioning (and the paper's datasets) treat them as degenerate.
    """

    def __init__(self, edges: Iterable[Tuple[int, int]] = ()) -> None:
        self._adj: Dict[int, Set[int]] = {}
        self._num_edges = 0
        for u, v in edges:
            self.add_edge(u, v)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_vertex(self, v: int) -> None:
        """Ensure ``v`` exists in the graph (possibly isolated)."""
        self._adj.setdefault(v, set())

    def add_edge(self, u: int, v: int) -> bool:
        """Insert edge ``(u, v)``; return True if it was new."""
        if u == v:
            raise ValueError(f"self-loop ({u}, {v}) not supported")
        self.add_vertex(u)
        self.add_vertex(v)
        if v in self._adj[u]:
            return False
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._num_edges += 1
        return True

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def vertices(self) -> Iterator[int]:
        return iter(self._adj)

    def edges(self) -> Iterator[Edge]:
        """Yield each edge exactly once, in canonical orientation."""
        new = tuple.__new__  # an Edge without its Python ``__new__``
        for u, nbrs in self._adj.items():
            yield from [new(Edge, (u, v)) for v in nbrs if u < v]

    def edge_list(self) -> List[Edge]:
        """Return all edges as a list (deterministic insertion-ish order)."""
        return list(self.edges())

    def neighbors(self, v: int) -> Set[int]:
        """Return the neighbor set of ``v`` (a live reference; do not mutate)."""
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return u in self._adj and v in self._adj[u]

    def has_vertex(self, v: int) -> bool:
        return v in self._adj

    def subgraph(self, vertices: Iterable[int]) -> "Graph":
        """Return the induced subgraph on ``vertices``."""
        keep = set(vertices)
        sub = Graph()
        for v in keep:
            if v in self._adj:
                sub.add_vertex(v)
        for u in keep:
            for v in self._adj.get(u, ()):
                if v in keep and u < v:
                    sub.add_edge(u, v)
        return sub

    def __contains__(self, v: int) -> bool:
        return v in self._adj

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(|V|={self.num_vertices}, |E|={self.num_edges})"
