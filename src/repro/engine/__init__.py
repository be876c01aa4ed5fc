"""Distributed graph-processing engine simulator.

A deterministic stand-in for the GrapH/PowerGraph-style engine the paper
runs on its 8-node cluster.  Vertex programs execute Pregel-style supersteps
on the logical graph (results are exact); *latency* is simulated from the
placement: per-superstep time is the maximum over machines of local compute
plus replica-synchronisation communication, so partitioning quality
(replication degree, balance) maps onto processing latency through exactly
the mechanism the paper describes.
"""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, {
    ".placement": ("Placement",),
    ".cost": ("CostModel", "SuperstepCost"),
    ".dense": ("DenseKernel",),
    ".runtime": ("Engine", "SimulationReport"),
    ".vertex_program": ("Context", "VertexProgram"),
})

__all__ = [
    "Placement",
    "CostModel",
    "SuperstepCost",
    "DenseKernel",
    "Engine",
    "SimulationReport",
    "Context",
    "VertexProgram",
]
