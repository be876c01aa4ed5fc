"""Experiment runners reproducing the paper's figures.

Three experiment shapes cover every figure:

* :func:`stacked_latency_experiment` — Fig. 7a–f: for each partitioner
  configuration, partition the graph (parallel loading, z instances), then
  simulate the processing workload and report partitioning latency plus
  cumulative per-block processing latency (the paper's stacked bars).
* :func:`replication_sweep` — Fig. 7g–i and Fig. 1: replication degree (and
  partitioning latency) per configuration.
* :func:`spotlight_sweep` — Fig. 8: replication degree as a function of the
  spotlight spread, for each strategy.

All runs assert the paper's balance condition
``(maxsize − minsize)/maxsize < 0.05`` unless a run is explicitly marked
as tolerating imbalance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.graph.graph import Graph
from repro.graph.shard import ShardedGraph
from repro.graph.stream import EdgeStream
from repro.engine.cost import cost_model_for
from repro.engine.runtime import Engine
from repro.engine.vertex_program import VertexProgram
from repro.partitioning.base import StreamingPartitioner
from repro.partitioning.parallel import ParallelLoader, ParallelResult
from repro.simtime import Clock, SimulatedClock
from repro.bench.workloads import (
    DEFAULT_SPREAD,
    NUM_INSTANCES,
    NUM_PARTITIONS,
)

PartitionerFactory = Callable[[Sequence[int], Clock], StreamingPartitioner]

#: The paper's Fig. 7 balance condition.
BALANCE_LIMIT = 0.05


@dataclass
class ExperimentConfig:
    """One bar group of a Fig. 7-style experiment."""

    label: str
    factory: PartitionerFactory


@dataclass
class LatencyRow:
    """One configuration's stacked-latency measurements.

    ``block_ms`` is simulated latency from the cost model;
    ``block_wall_ms`` (present when the experiment ran with
    ``measure_wall=True``) is the *measured* wall-clock of the same
    blocks on the sharded cluster runtime — the sim-vs-real pair the
    cost-model calibration compares.
    """

    label: str
    partitioning_ms: float
    block_ms: List[float]
    replication_degree: float
    imbalance: float
    score_computations: int
    block_wall_ms: List[float] = field(default_factory=list)

    def total_after_blocks(self, blocks: int) -> float:
        """Partitioning + processing latency after ``blocks`` blocks."""
        return self.partitioning_ms + sum(self.block_ms[:blocks])

    @property
    def total_ms(self) -> float:
        return self.partitioning_ms + sum(self.block_ms)

    @property
    def total_wall_ms(self) -> float:
        """Measured processing wall-clock over all blocks (0.0 when the
        experiment did not measure wall-clock)."""
        return sum(self.block_wall_ms)


def run_partitioning(factory: PartitionerFactory,
                     stream: EdgeStream,
                     num_partitions: int = NUM_PARTITIONS,
                     num_instances: int = NUM_INSTANCES,
                     spread: int = DEFAULT_SPREAD) -> ParallelResult:
    """Partition ``stream`` with the paper's parallel-loading setup."""
    loader = ParallelLoader(
        factory,
        partitions=list(range(num_partitions)),
        num_instances=num_instances,
        spread=spread,
        clock_factory=SimulatedClock,
    )
    return loader.run(stream)


def check_balance(result: ParallelResult, limit: float = BALANCE_LIMIT) -> None:
    """Assert the paper's balance condition; raise with detail if violated."""
    observed = result.imbalance
    if observed >= limit:
        raise AssertionError(
            f"{result.algorithm}: imbalance {observed:.3f} >= {limit} "
            f"(sizes {sorted(result.state.partition_edges.values())})")


def stacked_latency_experiment(
        graph: Graph,
        stream_factory: Callable[[], EdgeStream],
        configs: Sequence[ExperimentConfig],
        workload: str = "pagerank",
        block_iterations: int = 100,
        num_blocks: int = 3,
        program_factory: Optional[Callable[[Graph], VertexProgram]] = None,
        num_partitions: int = NUM_PARTITIONS,
        num_instances: int = NUM_INSTANCES,
        spread: int = DEFAULT_SPREAD,
        enforce_balance: bool = True,
        balance_limit: float = BALANCE_LIMIT,
        measure_wall: bool = False) -> List[LatencyRow]:
    """Fig. 7a–f experiment: partition, then simulate processing blocks.

    For stationary workloads (PageRank, coloring) each block's latency is
    the analytic cost of ``block_iterations`` supersteps.  For
    message-driven workloads pass ``program_factory``; each block then runs
    the program on the engine and its simulated latency is measured.

    The engine runs dense (vectorized CSR) kernels where the program
    ships one and falls back to the object path otherwise.

    With ``measure_wall=True`` each block is *also* executed on the
    sharded cluster runtime (serial backend, same machine count as the
    simulation), and the measured wall-clock lands in
    ``LatencyRow.block_wall_ms`` next to the simulated ``block_ms`` —
    the first-class sim-vs-real pair for cost-model calibration.
    """
    rows: List[LatencyRow] = []
    cost_model = cost_model_for(workload)
    for config in configs:
        result = run_partitioning(
            config.factory, stream_factory(),
            num_partitions=num_partitions,
            num_instances=num_instances,
            spread=spread)
        if enforce_balance:
            check_balance(result, limit=balance_limit)
        # One pass over the assignments: the simulated engine's placement
        # and the measured cluster's shards come off the same incidence.
        sharded = ShardedGraph.from_result(result, vertices=graph.vertices())
        placement = sharded.placement(num_machines=num_instances)
        engine = Engine(graph, placement, cost_model, mode="dense")
        cluster_engine = None
        if measure_wall:
            from repro.cluster import ClusterEngine
            cluster_engine = ClusterEngine(
                sharded, cost_model, backend="serial",
                num_machines=num_instances)
        block_ms: List[float] = []
        block_wall_ms: List[float] = []
        for _ in range(num_blocks):
            if program_factory is None:
                block_ms.append(
                    engine.stationary_latency_ms(block_iterations))
            else:
                report = engine.run(program_factory(graph),
                                    max_supersteps=block_iterations)
                block_ms.append(report.latency_ms)
            if cluster_engine is not None:
                # Mirror the simulated block's superstep budget exactly:
                # measured programs get the same cap; the analytic
                # (stationary) path gets +2 so the program's settle/halt
                # steps complete.
                if program_factory is None:
                    program = _block_program(workload, block_iterations)
                    cap = block_iterations + 2
                else:
                    program = program_factory(graph)
                    cap = block_iterations
                cluster_report = cluster_engine.run(
                    program, max_supersteps=cap)
                block_wall_ms.append(cluster_report.wall_ms_total)
        rows.append(LatencyRow(
            label=config.label,
            partitioning_ms=result.latency_ms,
            block_ms=block_ms,
            replication_degree=result.replication_degree,
            imbalance=result.imbalance,
            score_computations=result.score_computations,
            block_wall_ms=block_wall_ms,
        ))
    return rows


def _block_program(workload: str, block_iterations: int) -> VertexProgram:
    """A runnable program for one measured block of a stationary workload
    (the simulated path takes the analytic shortcut instead)."""
    from repro.engine.algorithms import GreedyColoring, PageRank
    if workload == "pagerank":
        return PageRank(iterations=block_iterations)
    if workload == "coloring":
        return GreedyColoring(max_iterations=block_iterations)
    raise ValueError(
        f"measure_wall needs a program_factory for workload {workload!r}")


def replication_sweep(
        stream_factory: Callable[[], EdgeStream],
        configs: Sequence[ExperimentConfig],
        num_partitions: int = NUM_PARTITIONS,
        num_instances: int = NUM_INSTANCES,
        spread: int = DEFAULT_SPREAD,
        enforce_balance: bool = True,
        balance_limit: float = BALANCE_LIMIT) -> List[LatencyRow]:
    """Fig. 7g–i / Fig. 1: replication degree per configuration."""
    rows: List[LatencyRow] = []
    for config in configs:
        result = run_partitioning(
            config.factory, stream_factory(),
            num_partitions=num_partitions,
            num_instances=num_instances,
            spread=spread)
        if enforce_balance:
            check_balance(result, limit=balance_limit)
        rows.append(LatencyRow(
            label=config.label,
            partitioning_ms=result.latency_ms,
            block_ms=[],
            replication_degree=result.replication_degree,
            imbalance=result.imbalance,
            score_computations=result.score_computations,
        ))
    return rows


def spotlight_sweep(
        stream_factory: Callable[[], EdgeStream],
        configs: Sequence[ExperimentConfig],
        spreads: Sequence[int],
        num_partitions: int = NUM_PARTITIONS,
        num_instances: int = NUM_INSTANCES) -> Dict[str, Dict[int, float]]:
    """Fig. 8: replication degree per (strategy, spread).

    Returns ``{strategy label: {spread: replication degree}}``.  Balance is
    not enforced here: large spreads with few instances are exactly the
    regime where prior systems sacrifice either balance or locality, and
    the figure reports replication degree only.
    """
    results: Dict[str, Dict[int, float]] = {}
    for config in configs:
        per_spread: Dict[int, float] = {}
        for spread in spreads:
            result = run_partitioning(
                config.factory, stream_factory(),
                num_partitions=num_partitions,
                num_instances=num_instances,
                spread=spread)
            per_spread[spread] = result.replication_degree
        results[config.label] = per_spread
    return results
