"""PageRank's 101 supersteps on the benchmark's two shardings, pinned.

The repo's benchmark (``benchmarks/total_latency``) partitions a
24,000-edge Holme–Kim graph (1,024 vertices, ``m = 24``, ``p = 0.5``,
seed 1, shuffled with seed 3) into 32 parts, 256 edges a batch, with
HDRF and with ADWISE at a fixed window of 256, then runs 100 PageRank
iterations — 101 supersteps — on a serial ``ClusterEngine`` of 8
machines.  What such a run answers was recorded before a host stepped
PageRank in one C pass (``kern_pagerank_step``, its message buffers
refilled in place) and folded its own mirrors without a buffer: the
bits of the final ranks (a digest), ``messages_sent``, the measured
traffic of every superstep (a digest) and ``latency_ms``.  None of it
may move — on the native tier, on the numpy tier, on the process backend
with two workers (a machine map of its own, so traffic and latency of
its own, which the serial backend over the same map must repeat), and
after a worker is killed mid-scatter and the run rolls back to a
checkpoint taken between two native steps.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np
import pytest
from test_bsp_kernels import no_kernels

from repro.api import open_session
from repro.cluster import ClusterEngine
from repro.cluster.faults import FaultInjector, Kill
from repro.core import _kernels
from repro.engine.algorithms import PageRank
from repro.engine.cost import cost_model_for
from repro.engine.placement import Placement
from repro.graph.generators import powerlaw_cluster_graph
from repro.graph.shard import ShardedGraph
from repro.graph.stream import shuffled

ITERATIONS = 100
#: Knobs of the benchmark's two in-process tenants.
TENANTS = {"hdrf": {}, "adwise": {"fixed_window": 256}}
#: ``ShardedGraph.fingerprint()`` of each sharding: a moved pin below
#: with a moved fingerprint is the partitioner's doing, not the host's.
FINGERPRINTS = {"hdrf": "9cb48f9d4492d53518076ffc8412813b0f391d14",
                "adwise": "7d516594e7c522f5006102175a2a709a571510ba"}
#: By sharding, then machine layout (8 serial machines, 2 workers).
PINS = {
    "hdrf": {
        8: {"states": "884949d2a87d014c", "messages_sent": 4800000,
            "supersteps": 101, "traffic": "48c7fbd8ea9ff0f0",
            "latency_ms": 2165.9248000000002},
        2: {"states": "884949d2a87d014c", "messages_sent": 4800000,
            "supersteps": 101, "traffic": "cec3e3870f36ead1",
            "latency_ms": 3046.9578999999953}},
    "adwise": {
        8: {"states": "e9ba585914ba4f3a", "messages_sent": 4800000,
            "supersteps": 101, "traffic": "69f6a3cddd81e557",
            "latency_ms": 1682.761000000004},
        2: {"states": "e9ba585914ba4f3a", "messages_sent": 4800000,
            "supersteps": 101, "traffic": "af8e1cb3ba4725d8",
            "latency_ms": 2599.921799999996}},
}

compiled = _kernels.load() is not None
shardings = pytest.mark.parametrize("name", [
    "hdrf", pytest.param("adwise", marks=pytest.mark.skipif(
        not compiled, reason="ADWISE at w = 256 on the reference tier "
                             "takes over a minute"))])


@functools.cache
def sharding(name: str) -> ShardedGraph:
    graph = powerlaw_cluster_graph(n=1024, m=24, p=0.5, seed=1)
    edges = shuffled(graph.edges(), seed=3).edges
    session = open_session(name, partitions=32, expected_edges=len(edges),
                           fast=True, **TENANTS[name])
    for start in range(0, len(edges), 256):
        session.ingest(edges[start:start + 256])
    sharded = ShardedGraph.from_assignments(
        session.finalize().assignments, partitions=range(32))
    assert sharded.fingerprint() == FINGERPRINTS[name]
    return sharded


def outputs(report) -> dict:
    """What the pins hold of a run."""
    ranks = np.array([report.states[v] for v in sorted(report.states)],
                     dtype=np.float64)
    traffic = [(t.remote_messages, t.local_messages, t.payload_bytes,
                sorted(t.remote_per_machine.items()),
                sorted(t.local_per_machine.items()))
               for t in report.telemetry]
    return {"states": hashlib.sha256(ranks.tobytes()).hexdigest()[:16],
            "messages_sent": report.messages_sent,
            "supersteps": report.supersteps,
            "traffic": hashlib.sha256(
                repr(traffic).encode()).hexdigest()[:16],
            "latency_ms": float(report.latency_ms)}


def run(name: str, **engine) -> dict:
    report = ClusterEngine(sharding(name), cost_model_for("pagerank"),
                           **engine).run(PageRank(iterations=ITERATIONS),
                                         max_supersteps=ITERATIONS + 2)
    return outputs(report)


@shardings
def test_serial_run_is_pinned(name):
    assert run(name, num_machines=8) == PINS[name][8]


@shardings
def test_numpy_tier_is_pinned(name):
    sharding(name)  # partitioned on the compiled tier, where it is
    with no_kernels():
        assert run(name, num_machines=8) == PINS[name][8]


@shardings
def test_two_workers_are_pinned(name):
    assert run(name, backend="process", num_workers=2) == PINS[name][2]
    two = Placement.contiguous_machine_map(range(32), 2)
    assert run(name, machine_of_partition=two) == PINS[name][2]


def test_rollback_between_native_steps_resumes_exactly():
    """Checkpoints every 10 supersteps; machine 1 dies mid-scatter at
    superstep 25, so the run restarts its workers from boundary 20 —
    the state left between two native steps — and must answer what the
    unfaulted run answers."""
    injector = FaultInjector([Kill(superstep=25, point="mid-scatter",
                                   machine=1)])
    engine = ClusterEngine(sharding("hdrf"), cost_model_for("pagerank"),
                           backend="process", num_workers=2,
                           checkpoint_every=10, fault_injector=injector)
    report = engine.run(PageRank(iterations=ITERATIONS),
                        max_supersteps=ITERATIONS + 2)
    assert [(r.machine, r.superstep_detected, r.resumed_from)
            for r in report.recoveries] == [(1, 25, 20)]
    assert outputs(report) == PINS["hdrf"][2]
