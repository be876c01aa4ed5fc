"""Experiment harness: workload definitions, runners, and reporting."""

from repro.bench.workloads import (
    GraphSpec,
    BRAIN,
    ORKUT,
    WEB,
    PAPER_GRAPHS,
    adwise_factory,
    baseline_factories,
)
from repro.bench.harness import (
    ExperimentConfig,
    LatencyRow,
    run_partitioning,
    stacked_latency_experiment,
    replication_sweep,
    spotlight_sweep,
)
from repro.bench.reporting import format_spotlight, format_stacked_rows, format_table
from repro.bench.charts import grouped_bar_chart, line_chart, stacked_bar_chart

__all__ = [
    "GraphSpec",
    "BRAIN",
    "ORKUT",
    "WEB",
    "PAPER_GRAPHS",
    "adwise_factory",
    "baseline_factories",
    "ExperimentConfig",
    "LatencyRow",
    "run_partitioning",
    "stacked_latency_experiment",
    "replication_sweep",
    "spotlight_sweep",
    "format_table",
    "format_stacked_rows",
    "format_spotlight",
    "grouped_bar_chart",
    "line_chart",
    "stacked_bar_chart",
]
