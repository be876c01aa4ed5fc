"""A serial run in segments ≡ the same run cut at every superstep.

``ClusterEngine`` hands its transport a *segment* — the supersteps up to
the next checkpoint boundary, ``max_supersteps`` or a pending kill — and
the serial backend's one host runs it without a coordinator round per
superstep: PageRank's supersteps below ``iterations`` in one
``kern_pagerank_run`` call, the rest in a host loop.  A
:class:`FaultInjector` whose kills name no machine places cuts: each
kill makes its superstep a segment of its own, run through the
coordinator's per-superstep protocol, and is consumed without killing
anything.  Cut at every superstep, a run is the per-superstep protocol
throughout; cut nowhere, it is segments.  The two must agree on states,
aggregates, ``messages_sent``, the cost trace, ``latency_ms`` and every
telemetry field but the timings, whose stamps must still be ordered —
under checkpoints, real kills at every injection point, an on-disk
resume, ``max_supersteps`` below ``iterations``, a graph that converges
at superstep 0 and the tier without a compiler.  Four mutants of
``kern_pagerank_run`` must fail the comparison of one segment with the
same supersteps cut apart, from a state where the mask differs from
``active``.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from _window_utils import load_mutant
from test_bsp_kernels import Spy, no_kernels

from repro.cluster import (
    INJECTION_POINTS,
    ClusterEngine,
    ClusterError,
    FaultInjector,
    Kill,
    SerialTransport,
)
from repro.core import _kernels
from repro.engine.algorithms import PageRank
from repro.engine.algorithms.pagerank import _DensePageRank
from repro.engine.cost import cost_model_for
from repro.graph.generators import powerlaw_cluster_graph
from repro.graph.shard import ShardedGraph
from repro.graph.stream import shuffled
from repro.partitioning.hdrf import HDRFPartitioner

ITERATIONS = 12
#: A machine no layout has: a kill naming it is consumed, nothing dies.
NOBODY = -1
#: The telemetry fields that are not timings.
FIELDS = ("superstep", "computed", "active_fraction", "synced",
          "remote_messages", "local_messages", "payload_bytes",
          "remote_per_machine", "local_per_machine")

compiled = _kernels.load() is not None
two_tiers = pytest.mark.skipif(
    not compiled, reason="no compiled kernels here: no C run to cut")


@functools.cache
def sharding() -> ShardedGraph:
    graph = powerlaw_cluster_graph(n=240, m=4, p=0.3, seed=5)
    result = HDRFPartitioner(list(range(8))).partition_stream(
        shuffled(list(graph.edges()), seed=2))
    return ShardedGraph.from_assignments(result.assignments,
                                         partitions=range(8))


def cuts(*supersteps: int) -> FaultInjector:
    return FaultInjector([Kill(superstep, "pre-gather", NOBODY)
                          for superstep in supersteps])


def run(program=None, max_supersteps: int = ITERATIONS + 2,
        cut=(), **engine):
    """A serial PageRank run on 4 machines, cut before each superstep of
    ``cut`` (every superstep for ``cut="all"``)."""
    if cut == "all":
        cut = range(max_supersteps)
    engine.setdefault("fault_injector", cuts(*cut) if cut else None)
    return ClusterEngine(sharding(), cost_model_for("pagerank"),
                         num_machines=4, **engine).run(
        program or PageRank(iterations=ITERATIONS), max_supersteps)


def facts(report) -> dict:
    """What a run answers, but for its timings."""
    return {"states": report.states, "aggregates": report.aggregates,
            "messages_sent": report.messages_sent,
            "supersteps": report.supersteps, "converged": report.converged,
            "superstep_costs": report.superstep_costs,
            "latency_ms": report.latency_ms,
            "telemetry": [tuple(getattr(t, name) for name in FIELDS)
                          for t in report.telemetry]}


def assert_timed(report) -> None:
    """Every superstep's times are stamps in order: a step that took
    time, an exchange inside the superstep's wall."""
    for telemetry in report.telemetry:
        assert telemetry.compute_ms > 0.0
        assert 0.0 <= telemetry.sync_ms
        assert telemetry.sync_ms > 0.0 or not telemetry.synced
        assert (telemetry.compute_ms + telemetry.sync_ms
                <= telemetry.wall_ms)


@pytest.fixture(scope="module")
def per_superstep():
    report = run(cut="all")
    assert report.converged and report.supersteps == ITERATIONS + 1
    return facts(report)


@pytest.fixture
def entries(monkeypatch):
    """The compiled entries every group built from here on calls."""
    native = _kernels.load()
    if native is None:
        return []
    spy = Spy(native[1])
    monkeypatch.setattr(_kernels, "_loaded", (native[0], spy))
    return spy.calls


def test_segments_equal_one_superstep_segments(per_superstep, entries):
    report = run()
    assert facts(report) == per_superstep
    assert_timed(report)
    if compiled:
        assert entries.count("kern_pagerank_run") == 1
        # Only the halt superstep, iterations, runs outside the C run.
        assert "kern_pagerank_step" not in entries


def test_cut_everywhere_never_runs_ahead(per_superstep, entries):
    run(cut="all")
    assert "kern_pagerank_run" not in entries


@pytest.mark.parametrize("at", [(0,), (1,), (ITERATIONS - 1,),
                                (ITERATIONS,), (ITERATIONS + 1,),
                                (0, 1, ITERATIONS - 1, ITERATIONS,
                                 ITERATIONS + 1)])
def test_cuts(per_superstep, at):
    injector = cuts(*at)
    report = run(fault_injector=injector)
    assert facts(report) == per_superstep
    assert_timed(report)
    # Consumed where a superstep ran (past the halt, none does).
    assert [kill.superstep for kill in injector.fired] == [
        superstep for superstep in at if superstep <= ITERATIONS]


@pytest.mark.parametrize("every", [1, 7, 100])
def test_checkpoint_boundaries(per_superstep, every):
    report = run(checkpoint_every=every)
    assert facts(report) == per_superstep
    assert report.checkpoints_written == run(
        checkpoint_every=every, cut="all").checkpoints_written


@pytest.mark.parametrize("point", INJECTION_POINTS)
def test_kill_mid_segment_rolls_back(per_superstep, point):
    """Segments 0-3 and 4-5 run ahead; machine 1 dies at superstep 6,
    the run restarts its host from boundary 4 and ends as the unfaulted
    run does."""
    injector = FaultInjector([Kill(6, point, 1)])
    report = run(checkpoint_every=4, fault_injector=injector)
    assert [(event.machine, event.resumed_from)
            for event in report.recoveries] == [(1, 4)]
    assert facts(report) == per_superstep


def test_resume_from_disk_mid_run(per_superstep, tmp_path):
    directory = str(tmp_path / "ckpt")
    with pytest.raises(ClusterError):
        run(checkpoint_every=5, checkpoint_dir=directory, max_recoveries=0,
            fault_injector=FaultInjector([Kill(8, "mid-scatter", 2)]))
    resumed = ClusterEngine.resume(directory)
    assert facts(resumed) == per_superstep
    assert_timed(resumed)


def test_max_supersteps_below_iterations():
    report = run(max_supersteps=5)
    assert not report.converged and report.supersteps == 5
    assert facts(report) == facts(run(max_supersteps=5, cut="all"))


class _Halted(_DensePageRank):
    """PageRank with every vertex halted and no message in flight."""

    def __init__(self, csr, iterations):
        super().__init__(csr, iterations)
        self.active[:] = False


class Halted(PageRank):
    def dense_kernel(self, csr):
        return _Halted(csr, self.iterations)


def test_converged_at_superstep_zero():
    report = run(Halted(iterations=ITERATIONS))
    assert report.converged and report.supersteps == 0
    assert facts(report) == facts(run(Halted(iterations=ITERATIONS),
                                      cut="all"))


def test_no_compiler_tier(per_superstep):
    with no_kernels():
        report = run()
        assert facts(report) == facts(run(cut="all")) == per_superstep
    assert_timed(report)


# ----------------------------------------------------------------------
# One segment from a state the mask reads: C run ≡ supersteps cut apart
# ----------------------------------------------------------------------
def transport_from(state: dict) -> SerialTransport:
    transport = SerialTransport(sharding(), PageRank(iterations=ITERATIONS),
                                {p: p % 4 for p in range(8)})
    for name, value in state.items():
        setattr(transport.group.kernel, name, value.copy())
    return transport


def assert_segment_matches(first: int = 1, stop: int = 6) -> None:
    n = sum(shard.num_vertices for shard in sharding().shards.values())
    rng = np.random.default_rng(7)
    state = {"active": rng.random(n) < 0.5, "has_msg": rng.random(n) < 0.5,
             "incoming": rng.random(n), "rank": rng.random(n)}
    ahead, apart = transport_from(state), transport_from(state)
    try:
        ran = list(ahead.segment(first, stop, ahead=True))
        cut = list(apart.segment(first, stop, FaultInjector()))
        assert len(ran) == len(cut) == stop - first
        for mine, theirs in zip(ran, cut):
            assert (mine.computed, mine.sent, mine.synced, mine.aggregate,
                    mine.stats) == (theirs.computed, theirs.sent,
                                    theirs.synced, theirs.aggregate,
                                    theirs.stats)
            assert mine.compute_seconds > 0.0 and mine.sync_seconds > 0.0
        for name in ("rank", "incoming", "has_msg", "active"):
            mine = getattr(ahead.group.kernel, name)
            theirs = getattr(apart.group.kernel, name)
            assert mine.tobytes() == theirs.tobytes(), name
    finally:
        ahead.close()
        apart.close()


@two_tiers
def test_segment_from_a_partial_mask(entries):
    assert_segment_matches()
    assert entries.count("kern_pagerank_run") == 1


#: ``kern_pagerank_run``'s step between its stamps.
STEP = """row[{}] = monotonic_ns();
        row[1] = kern_pagerank_step(damping, first + k > 0, mask, degrees,
                                    local_degrees, n, rank, active,
                                    incoming, has_msg, senders, share,
                                    indices, rows, n_slots);
        row[{}] = monotonic_ns();"""
#: ``kern_pagerank_run`` mutants: (text, replacement).
MUTANTS = {
    "mask from active alone": ("mask[i] = active[i] | has_msg[i];",
                               "mask[i] = active[i];"),
    "count over every vertex": ("count += mask[i] & owned[i];",
                                "count += mask[i];"),
    "put before fold": (
        "kern_sync_fold(KERN_ADD_F64, incoming, has_msg, targets, own,\n"
        "                       NULL, NULL, n_targets);\n"
        "        row[5] = monotonic_ns();\n"
        "        kern_sync_put(incoming, has_msg, masters, mirrors, n_own);",
        "kern_sync_put(incoming, has_msg, masters, mirrors, n_own);\n"
        "        row[5] = monotonic_ns();\n"
        "        kern_sync_fold(KERN_ADD_F64, incoming, has_msg, targets,\n"
        "                       own, NULL, NULL, n_targets);"),
    "stamps before and after the step swapped": (STEP.format(3, 4),
                                                 STEP.format(4, 3)),
}


@two_tiers
@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_is_caught(name, tmp_path, monkeypatch):
    load_mutant(MUTANTS[name], tmp_path, monkeypatch)
    with pytest.raises(AssertionError):
        assert_segment_matches()
