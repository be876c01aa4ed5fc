"""Per-partition CSR shards of a vertex-cut partitioned graph.

A vertex-cut assignment places every *edge* on exactly one partition; a
vertex is replicated on every partition holding one of its edges.  The
cluster runtime (:mod:`repro.cluster`) computes each partition over its
own :class:`ShardCSR` only — shard-local adjacency, global ids remapped
to shard-local dense indices; a host steps its shards as one kernel over
their :meth:`ShardCSR.block_diagonal` — and keeps replicas consistent
through master/mirror synchronisation, the PowerGraph model the engine's
cost layer predicts.

:class:`ShardedGraph` holds one :class:`Shard` per partition: the CSR,
the ``owned`` mask and the aligned master/mirror routing tables.  A
vertex's master replica lives on the lowest-numbered partition holding
it (**min-partition rule** — :class:`~repro.engine.placement.Placement`
elects the same, so measured and predicted sync traffic agree); isolated
vertices, part of no assignment, are placed round-robin.  All of it is
read off one sorted (vertex, partition) :class:`Incidence` (DESIGN.md
§8), with no Python object per edge or per vertex.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.graph.csr import _INT32_MAX, CSRGraph
from repro.graph.graph import Edge, Graph


class ShardCSR(CSRGraph):
    """Shard-local CSR whose ``degrees`` are the *logical* global degrees.

    Dense kernels read ``csr.degrees`` as the algorithmic degree of a
    vertex (PageRank divides by it), which for a replica must be the
    degree in the *whole* graph, not the shard.  The
    physical layout (``indptr``/``indices``/``rows``) stays shard-local;
    ``local_degrees`` keeps the per-shard adjacency-list lengths the
    runtime needs for exact message counting.
    """

    __slots__ = ("local_degrees",)

    def __init__(self, indptr: np.ndarray, indices: np.ndarray,
                 vertex_ids: np.ndarray, degrees: np.ndarray) -> None:
        super().__init__(indptr, indices, vertex_ids)
        # Force the slot->row cache while ``degrees`` still reflects the
        # physical layout, then swap in the logical view.
        self.rows
        self.local_degrees = self.degrees
        self.degrees = degrees

    @classmethod
    def block_diagonal(cls, blocks: Sequence["ShardCSR"]) -> "ShardCSR":
        """``blocks`` laid end to end as one CSR: block ``i`` takes the
        dense indices ``[starts[i], starts[i + 1])`` and its slots keep
        their order, shifted with it, so no slot's row or target leaves
        its block and a kernel over the result combines, addend by
        addend, what one kernel per block would (DESIGN.md §8).  Degrees
        and ``vertex_ids`` are the blocks' concatenated: a vertex on
        several blocks *repeats*, ids are sorted only within a block,
        and ``index_of`` is meaningless here.  ``indices`` (hence
        ``rows``) are widened to ``intp``, the one index type
        ``np.bincount`` and fancy indexing do not convert on every call
        — at a host's slot count that conversion is half a superstep.
        """
        starts = np.cumsum([0] + [block.num_vertices for block in blocks])
        slots = np.cumsum([0] + [len(block.indices) for block in blocks])
        indptr = np.concatenate(
            [block.indptr[:-1] + first
             for block, first in zip(blocks, slots)] + [slots[-1:]])
        indices = np.concatenate(
            [block.indices.astype(np.intp) + first
             for block, first in zip(blocks, starts)])
        return cls(indptr, indices,
                   np.concatenate([block.vertex_ids for block in blocks]),
                   np.concatenate([block.degrees for block in blocks]))


@dataclass
class Shard:
    """One partition's slice of the graph plus its replica routing."""

    partition: int
    csr: ShardCSR
    #: True at local indices whose master replica lives on this partition.
    owned: np.ndarray
    #: mirror partition -> local indices of vertices mastered *here* that
    #: have a replica there (sorted by global vertex id).
    master_channels: Dict[int, np.ndarray] = field(default_factory=dict)
    #: master partition -> local indices of vertices mirrored *here*
    #: (sorted by global vertex id, aligned with the master's table).
    mirror_channels: Dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def num_vertices(self) -> int:
        return self.csr.num_vertices

    @property
    def num_owned(self) -> int:
        return int(self.owned.sum())

    @property
    def num_edges(self) -> int:
        return self.csr.num_edges


def _ranked(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The sorted distinct ``values`` and each value's rank among them:
    off a presence table indexed by value where the values' range is
    small against their number, off a sort where it is not."""
    base = int(values.min()) if len(values) else 0
    span = int(values.max()) - base + 1 if len(values) else 0
    if span <= 4 * len(values) + 4096:
        offset, table = values - base, np.zeros(span, dtype=bool)
        table[offset] = True
        return np.flatnonzero(table) + base, (np.cumsum(table) - 1)[offset]
    distinct = np.sort(values)
    distinct = distinct[np.concatenate(
        [[True], distinct[1:] != distinct[:-1]])]
    return distinct, np.searchsorted(distinct, values)


def _dict_order(keys: np.ndarray, values: np.ndarray):
    """``mapping[keys[i]] = values[i]`` applied in order, as arrays: the
    positions where each distinct key first appears (ascending) and the
    value each ends with — a dict's order and contents — or ``None``
    where no key repeats."""
    if np.diff(np.sort(keys)).all():
        return None
    _, seen, group = np.unique(keys, return_index=True, return_inverse=True)
    final = np.empty(len(seen), dtype=np.int64)
    final[group] = values
    seen.sort()
    return seen, final[group[seen]]


def collapsed_columns(u, v, part) -> Tuple[np.ndarray, ...]:
    """Canonical ``(u, v, part)`` decision columns as the mapping they
    make: a repeated edge keeps its first row and its last partition."""
    ids, index = _ranked(np.concatenate([u, v]))
    kept = _dict_order(index[:len(u)] * len(ids) + index[len(u):], part)
    if kept is None:
        return u, v, part
    return u[kept[0]], v[kept[0]], kept[1]


class Incidence:
    """An edge -> partition assignment and its sorted (vertex, partition)
    *incidence*, one row per replica, which the shards and the
    :class:`~repro.engine.placement.Placement` are read off (DESIGN.md
    §8).  ``vertex`` indexes the sorted ``ids``, ``part`` the sorted
    ``parts``, so the ``first`` row of a vertex is its master (``master``:
    that row's number); ``lo`` / ``hi`` are each edge's two rows.
    """

    def __init__(self, u, v, part, partitions=None, vertices=()) -> None:
        u, v, part = (np.asarray(c, dtype=np.int64) for c in (u, v, part))
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        if (lo == hi).any():
            loop = int(lo[lo == hi][0])
            raise ValueError(f"self-loop ({loop}, {loop}) not supported")
        self.ids, index = _ranked(np.concatenate(
            [lo, hi, np.fromiter(vertices, dtype=np.int64)]))
        lo, hi = np.split(index[:2 * len(u)], 2)
        kept = _dict_order(lo * len(self.ids) + hi, part)
        if kept is not None:  # duplicates, in either orientation
            lo, hi, part = lo[kept[0]], hi[kept[0]], kept[1]
        self.parts, pos = _ranked(np.concatenate([part, np.fromiter(
            () if partitions is None else partitions, dtype=np.int64)]))
        k, pos = len(self.parts), pos[:len(part)]
        if not k:
            raise ValueError("no partitions: empty assignment and no "
                             "explicit partition list")
        self.sizes = np.bincount(pos, minlength=k)  # edges per partition
        self.degree = np.bincount(np.concatenate([lo, hi]),
                                  minlength=len(self.ids))
        # Isolated vertices: round-robin over partitions, ascending id.
        isolated = np.flatnonzero(self.degree == 0)
        rows, slots = _ranked(np.concatenate([
            lo * k + pos, hi * k + pos,
            isolated * k + np.arange(len(isolated)) % k]))
        self.vertex, self.part = np.divmod(rows, k)
        self.first = np.diff(self.vertex, prepend=-1) > 0
        self.master = np.flatnonzero(self.first)[np.cumsum(self.first) - 1]
        self.lo, self.hi = np.split(slots[:2 * len(lo)], 2)

    # The two per-edge / per-vertex walks, for the lazy dict views only.
    def vertex_parts(self) -> Dict[int, List[int]]:
        """Every vertex id (ascending) -> the partitions holding it."""
        cuts = np.flatnonzero(self.first).tolist() + [len(self.part)]
        parts = self.parts[self.part].tolist()
        return {v: parts[a:b]
                for v, a, b in zip(self.ids.tolist(), cuts, cuts[1:])}

    def edges(self) -> Iterable[Tuple[Edge, int]]:
        """``(canonical edge, partition)`` in first-seen order."""
        return zip(map(Edge, self.ids[self.vertex[self.lo]].tolist(),
                       self.ids[self.vertex[self.hi]].tolist()),
                   self.parts[self.part[self.lo]].tolist())


def mapping_columns(assignments: Mapping[Edge, int]) -> Tuple[np.ndarray, ...]:
    """An edge -> partition mapping as ``(u, v, part)`` int64 columns:
    its own ``columns()`` where it keeps them (a partitioner's store),
    else one pass over its keys and one over its values."""
    if hasattr(assignments, "columns"):
        return assignments.columns()
    ends = np.fromiter(chain.from_iterable(assignments), dtype=np.int64)
    return ends[0::2], ends[1::2], np.fromiter(
        assignments.values(), dtype=np.int64, count=len(assignments))


class ShardedGraph:
    """A vertex-cut partitioned graph split into per-partition CSR shards."""

    def __init__(self, shards: Dict[int, Shard],
                 incidence: Incidence) -> None:
        self.shards = shards
        self.partitions = sorted(shards)
        self.incidence = incidence
        self.num_vertices = len(incidence.ids)
        self.num_edges = len(incidence.lo)
        self._graph: Optional[Graph] = None

    def __setstate__(self, state: dict) -> None:
        """A sharding pickled before the incidence existed (an older
        run's ``topology.pkl``) carries the two dict views instead."""
        if "incidence" not in state:
            state["incidence"] = Incidence(
                *mapping_columns(state["assignments"]),
                state["partitions"], state["vertex_partitions"])
        self.__dict__.update(state)

    @cached_property
    def assignments(self) -> Dict[Edge, int]:
        """Canonical edge -> partition, built on first access: the job
        path (shards, fingerprint, placement) reads the arrays only."""
        return dict(self.incidence.edges())

    @cached_property
    def vertex_partitions(self) -> Dict[int, List[int]]:
        """vertex -> ascending partitions holding it (lazy, as above)."""
        return self.incidence.vertex_parts()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_arrays(cls, u, v, part, partitions: Optional[Iterable[int]] = None,
                    vertices: Iterable[int] = ()) -> "ShardedGraph":
        """Shard the assignment ``(u[i], v[i]) -> part[i]`` (int columns;
        a later duplicate of an edge, in either orientation, overrides).
        ``partitions`` may name further partitions (they become empty
        shards), ``vertices`` further, possibly isolated, vertices."""
        with obs.span("graph.shard.build") as span:
            inc = Incidence(u, v, part, partitions, vertices)
            names, total = inc.parts.tolist(), len(inc.vertex)
            # Rows by partition, ascending id within: the shards' vertices
            # end to end (``where``: a row's place; ``index``: in its shard).
            by_part = np.argsort(inc.part, kind="stable")
            where = np.empty(total, dtype=np.int64)
            where[by_part] = np.arange(total)
            bounds = np.concatenate([[0], np.cumsum(
                np.bincount(inc.part, minlength=len(names)))])
            index = where - bounds[inc.part]
            # One sort of (row, target) keys orders every shard's slots.
            slots = np.sort(np.concatenate(
                [where[inc.lo] * total + index[inc.hi],
                 where[inc.hi] * total + index[inc.lo]])) % max(total, 1)
            starts = np.concatenate([[0], np.cumsum(np.bincount(
                where[np.concatenate([inc.lo, inc.hi])], minlength=total))])
            vertex, owned = inc.vertex[by_part], inc.first[by_part]
            ids, degrees = inc.ids[vertex], inc.degree[vertex]
            shards: Dict[int, Shard] = {}
            for name, a, b in zip(names, bounds, bounds[1:]):
                dtype = np.int32 if b - a <= _INT32_MAX else np.int64
                shards[name] = Shard(name, ShardCSR(
                    starts[a:b + 1] - starts[a],
                    slots[starts[a]:starts[b]].astype(dtype),
                    ids[a:b], degrees[a:b]), owned[a:b])
            # Channels: mirror rows grouped by (master, mirror) partition;
            # the stable sort keeps ascending vertex id inside a group.
            mirror = np.flatnonzero(~inc.first)
            pair = inc.part[inc.master[mirror]] * len(names) + inc.part[mirror]
            mirror = mirror[np.argsort(pair, kind="stable")]
            pair.sort()
            at_master, at_mirror = index[inc.master[mirror]], index[mirror]
            cuts = np.flatnonzero(np.diff(pair, prepend=-1)).tolist()
            for a, b, key in zip(cuts, cuts[1:] + [len(pair)],
                                 pair[cuts].tolist()):
                src, dst = names[key // len(names)], names[key % len(names)]
                shards[src].master_channels[dst] = at_master[a:b]
                shards[dst].mirror_channels[src] = at_mirror[a:b]
            for key, value in (("edges", len(inc.lo)), ("replicas", total),
                               ("vertices", len(inc.ids)),
                               ("partitions", len(names))):
                span.set_attr(key, value)
            obs.counter("repro_shard_build_edges_total").inc(len(inc.lo))
        return cls(shards, inc)

    @classmethod
    def from_assignments(cls, assignments: Mapping[Edge, int],
                         partitions: Optional[Iterable[int]] = None,
                         vertices: Iterable[int] = ()) -> "ShardedGraph":
        """Shard an edge -> partition mapping (any partitioner's output;
        keys may be plain tuples in either orientation)."""
        return cls.from_arrays(*mapping_columns(assignments),
                               partitions=partitions, vertices=vertices)

    @classmethod
    def from_result(cls, result,
                    vertices: Iterable[int] = ()) -> "ShardedGraph":
        """Shard a :class:`~repro.partitioning.base.PartitionResult` (a
        parallel run's included)."""
        return cls.from_assignments(result.assignments, vertices=vertices,
                                    partitions=result.state.partitions)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def replication_degree(self) -> float:
        """Average replicas per vertex (isolated vertices count 1)."""
        return len(self.incidence.vertex) / max(1, self.num_vertices)

    def master_of(self, vertex: int) -> int:
        """Partition holding ``vertex``'s master replica."""
        return self.vertex_partitions[vertex][0]

    def to_graph(self) -> Graph:
        """Reassemble the logical :class:`~repro.graph.graph.Graph`
        (cached; used by the cluster engine's unsharded fallback path)."""
        if self._graph is None:
            self._graph = Graph(e for e, _ in self.incidence.edges())
            for vertex in self.incidence.ids.tolist():  # the isolated
                self._graph.add_vertex(vertex)
        return self._graph

    def fingerprint(self) -> str:
        """Stable digest of the sharding's shape (sizes per partition).

        Stored inside every cluster checkpoint and verified on restore,
        so a checkpoint can never be silently replayed against a
        different graph or partitioning.  Deliberately layout-free: the
        same sharding on a different machine map fingerprints identically
        (checkpoints are keyed by partition, not machine).
        """
        import hashlib
        parts = [f"{self.num_vertices}|{self.num_edges}"]
        for partition in self.partitions:
            shard = self.shards[partition]
            parts.append(f"|{partition}:{shard.num_vertices}:"
                         f"{shard.num_edges}:{shard.num_owned}")
        return hashlib.sha1("".join(parts).encode()).hexdigest()

    def placement(self, num_machines: Optional[int] = None,
                  machine_of_partition: Optional[Mapping[int, int]] = None):
        """The :class:`~repro.engine.placement.Placement` of this sharding,
        off the same incidence: one machine per partition unless
        ``num_machines`` / ``machine_of_partition`` group them."""
        from repro.engine.placement import Placement
        if num_machines is None:
            num_machines = len(self.partitions)
        return Placement(self.incidence, self.partitions,
                         num_machines=num_machines,
                         machine_of_partition=machine_of_partition)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ShardedGraph(k={len(self.partitions)}, "
                f"|V|={self.num_vertices}, |E|={self.num_edges}, "
                f"rep={self.replication_degree:.2f})")
