"""Parallel graph loading with z independent partitioner instances.

Graph processing systems load massive graphs in parallel: each worker
machine streams a disjoint chunk of the edge file through its own
partitioner instance with its own vertex cache (paper §III-D).  This module
implements that model twice behind one interface:

* ``backend="simulated"`` (default) runs the instances sequentially in
  this process — deterministic, dependency-free, and the reference
  semantics every other execution mode is tested against;
* ``backend="process"`` runs each instance in its own OS process via
  :class:`concurrent.futures.ProcessPoolExecutor`.  The serialization
  boundary is deliberately narrow: a picklable factory (see
  :class:`PartitionerSpec`) and a chunk go in, and the instance's
  :class:`~repro.partitioning.base.PartitionResult` — its state's arrays
  and its assignment columns, pickled as raw bytes — comes out.  Combined
  with :class:`~repro.graph.stream.FileChunkStream` chunks, workers
  stream byte slices of the edge file directly, so no process ever holds
  the whole graph.

Both backends share one merge, done once: the instance states merge
through :meth:`~repro.partitioning.state.StateSnapshot.merge` (replica
sets are unions, partition sizes and degrees are sums), the assignments
are one :class:`~repro.partitioning.base.AssignmentStore` over the
instances' columns in instance order, and loading latency is the
*maximum* instance latency (instances run concurrently on separate
machines).  The result, a :class:`ParallelResult`, *is* a
:class:`~repro.partitioning.base.PartitionResult`.
``tests/test_parallel_backends.py`` holds the two backends bit-identical.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro import obs
from repro.graph.shard import mapping_columns
from repro.graph.stream import (
    EdgeStream,
    FileEdgeStream,
    chunk_file_stream,
    chunk_stream,
)
from repro.core.spotlight import spotlight_spreads
from repro.partitioning.base import (
    AssignmentBatch,
    AssignmentStore,
    PartitionResult,
    StreamingPartitioner,
)
from repro.partitioning.state import StateSnapshot
from repro.simtime import Clock, SimulatedClock

#: Builds one partitioner instance given its spread and its private clock.
PartitionerFactory = Callable[[Sequence[int], Clock], StreamingPartitioner]

#: Execution backends understood by :class:`ParallelLoader`.
BACKENDS = ("simulated", "process")


def partitioner_registry() -> Dict[str, type]:
    """Name -> class map shared by :class:`PartitionerSpec` and the CLI
    (lazy import: the adwise module sits above this package)."""
    from repro.core.adwise import AdwisePartitioner
    from repro.partitioning.dbh import DBHPartitioner
    from repro.partitioning.greedy import GreedyPartitioner
    from repro.partitioning.grid import GridPartitioner
    from repro.partitioning.hashing import HashPartitioner
    from repro.partitioning.hdrf import HDRFPartitioner
    from repro.partitioning.jabeja import JaBeJaVCPartitioner
    from repro.partitioning.ne import NEPartitioner
    from repro.partitioning.powerlyra import PowerLyraPartitioner

    return {
        "hash": HashPartitioner,
        "grid": GridPartitioner,
        "dbh": DBHPartitioner,
        "hdrf": HDRFPartitioner,
        "greedy": GreedyPartitioner,
        "powerlyra": PowerLyraPartitioner,
        "ne": NEPartitioner,
        "jabeja": JaBeJaVCPartitioner,
        "adwise": AdwisePartitioner,
    }


@dataclass(frozen=True)
class PartitionerSpec:
    """A picklable partitioner factory: algorithm name + constructor kwargs.

    The process backend must ship the factory to worker processes, and
    closures/lambdas don't pickle.  A spec names the algorithm and the
    extra constructor arguments instead::

        PartitionerSpec("hdrf", {"lam": 1.1})
        PartitionerSpec("adwise", {"latency_preference_ms": 50.0})

    Specs are also ordinary :data:`PartitionerFactory` callables, so the
    simulated backend (and any existing call site) accepts them too.
    """

    algorithm: str
    kwargs: Dict[str, object] = field(default_factory=dict)

    def __call__(self, partitions: Sequence[int],
                 clock: Clock) -> StreamingPartitioner:
        registry = partitioner_registry()
        try:
            cls = registry[self.algorithm]
        except KeyError:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r} "
                f"(known: {', '.join(sorted(registry))})") from None
        return cls(partitions, clock=clock, **self.kwargs)


def _run_instance(factory: PartitionerFactory, spread_ids: Sequence[int],
                  chunk: EdgeStream,
                  clock_factory: Callable[[], Clock],
                  trace_ctx: Optional[Dict[str, str]],
                  instance: int) -> PartitionResult:
    """Partition one chunk with one instance — what both backends run.

    Module-level so :class:`ProcessPoolExecutor` can pickle it.  Only the
    process backend pickles the result; the simulated backend consumes
    it directly, which is what makes the differential tests a real check
    of the serialization boundary rather than a comparison of two
    serialized runs.

    ``trace_ctx`` is the submitting process's span context: workers adopt
    it so every instance's span lands in the same trace as the caller's
    (``None`` in-process, where the span parents to the caller's anyway).
    """
    with obs.use_context(trace_ctx), \
            obs.span("partition.parallel_instance", instance=instance):
        return factory(spread_ids, clock_factory()).partition_stream(chunk)


@dataclass
class ParallelResult(PartitionResult):
    """A parallel loading run as one :class:`PartitionResult`: the state
    is the merged global vertex cache, the assignments are every
    instance's in instance order, and the latency is the slowest
    instance's.  The instances' own results stay in
    :attr:`instance_results`."""

    num_instances: int = 1
    spread: int = 0
    instance_results: List[PartitionResult] = field(default_factory=list)
    backend: str = "simulated"


class ParallelLoader:
    """Drive ``z`` partitioner instances over chunked input.

    Parameters
    ----------
    factory:
        Constructs a partitioner for a given spread and clock — e.g.
        ``lambda parts, clock: HDRFPartitioner(parts, clock=clock)``.
        The process backend requires a *picklable* factory; use
        :class:`PartitionerSpec` (closures and lambdas won't cross the
        process boundary).
    partitions:
        The global partition id list (length ``k``).
    num_instances:
        Number of parallel instances ``z``.
    spread:
        Partitions per instance.  Defaults to ``k / z`` — the paper's
        spotlight setting.  ``spread = k`` reproduces prior systems'
        maximal-spread behaviour.
    clock_factory:
        Builds each instance's private clock (deterministic by default).
    backend:
        ``"simulated"`` runs instances sequentially in-process;
        ``"process"`` runs each in its own OS process and merges the
        returned results.  Results are identical by construction (and
        by differential test).
    max_workers:
        Process-pool size cap for the process backend (at least 1);
        defaults to ``min(z, os.cpu_count())``.
    """

    def __init__(self, factory: PartitionerFactory,
                 partitions: Sequence[int],
                 num_instances: int,
                 spread: Optional[int] = None,
                 clock_factory: Callable[[], Clock] = SimulatedClock,
                 backend: str = "simulated",
                 max_workers: Optional[int] = None) -> None:
        if num_instances < 1:
            raise ValueError("num_instances must be >= 1")
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r} (choose from {BACKENDS})")
        k = len(partitions)
        if k % num_instances != 0 and spread is None:
            raise ValueError(
                f"default spread needs k ({k}) divisible by z ({num_instances})")
        self.factory = factory
        self.partitions = list(partitions)
        self.num_instances = num_instances
        self.spread = spread if spread is not None else k // num_instances
        self.clock_factory = clock_factory
        self.backend = backend
        self.max_workers = max_workers
        # Validate early so configuration errors surface at build time.
        self._spreads = spotlight_spreads(self.partitions, num_instances,
                                          self.spread)
        if backend == "process":
            try:
                pickle.dumps((factory, clock_factory))
            except Exception as exc:
                raise ValueError(
                    "backend='process' needs a picklable factory and "
                    "clock_factory; wrap the algorithm in a "
                    "PartitionerSpec instead of a lambda/closure"
                ) from exc

    def run(self, stream: EdgeStream) -> ParallelResult:
        """Chunk the stream, run every instance, merge the results.

        File-backed streams are chunked by byte offset
        (:func:`~repro.graph.stream.chunk_file_stream`), so each
        instance — local or in a worker process — reads only its slice
        of the file; in-memory streams are chunked by edge count.
        """
        if isinstance(stream, FileEdgeStream):
            chunks: Sequence[EdgeStream] = chunk_file_stream(
                stream.path, self.num_instances)
        else:
            chunks = chunk_stream(stream, self.num_instances)
        return self.run_chunks(chunks)

    def run_file(self, path: "str | os.PathLike") -> ParallelResult:
        """Out-of-core entry point: byte-chunk ``path`` and run."""
        return self.run_chunks(chunk_file_stream(path, self.num_instances))

    def run_chunks(self, chunks: Sequence[EdgeStream]) -> ParallelResult:
        """Run every instance on its pre-built chunk, merge the results."""
        if len(chunks) != self.num_instances:
            raise ValueError(
                f"got {len(chunks)} chunks for {self.num_instances} instances")
        with obs.span("partition.parallel_run", backend=self.backend,
                      instances=self.num_instances):
            if self.backend == "process":
                results = self._run_process(chunks)
            else:
                results = [
                    _run_instance(self.factory, spread_ids, chunk,
                                  self.clock_factory, None, index)
                    for index, (spread_ids, chunk) in enumerate(
                        zip(self._spreads, chunks))]
            return self._merge(results)

    def _run_process(self,
                     chunks: Sequence[EdgeStream]) -> List[PartitionResult]:
        """Fan instances out to a process pool; collect results in order."""
        workers = min(self.max_workers or os.cpu_count() or 1,
                      self.num_instances)
        # Capture the submitting process's span context once; workers
        # adopt it so the fan-out shows up as one correlated trace.
        trace_ctx = obs.current_context() if obs.is_enabled() else None
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_run_instance, self.factory, spread_ids, chunk,
                            self.clock_factory, trace_ctx, index)
                for index, (spread_ids, chunk) in enumerate(
                    zip(self._spreads, chunks))
            ]
            # Collect in submission order: merge semantics must not
            # depend on worker completion order.
            return [future.result() for future in futures]

    def _merge(self, results: List[PartitionResult]) -> ParallelResult:
        """The one merge: global state from the instance snapshots, one
        assignment store over the instance columns (its first position /
        last partition rule *is* ``dict.update`` across instances)."""
        state = type(results[0].state).from_snapshot(StateSnapshot.merge(
            [r.state.snapshot() for r in results], partitions=self.partitions))
        return ParallelResult(
            algorithm=results[0].algorithm,
            state=state,
            assignments=AssignmentStore(
                AssignmentBatch(*mapping_columns(r.assignments))
                for r in results),
            latency_ms=max(r.latency_ms for r in results),
            score_computations=sum(r.score_computations for r in results),
            num_instances=self.num_instances,
            spread=self.spread,
            instance_results=results,
            backend=self.backend,
        )
