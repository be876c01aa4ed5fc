"""Differential fault-tolerance layer: recovered ≡ unfaulted ≡ dense.

The cluster runtime's recovery invariant, held as a CI property: a run
that loses a machine mid-superstep — killed deterministically by a
:class:`FaultInjector` at any catalogued injection point, or by a real
``SIGKILL`` from outside — rolls back to its last checkpoint, replays,
and produces **bit-identical** states, aggregates and message counts to
the unfaulted run (which the existing differential layer already pins to
``Engine(mode="dense")``).  On top of that: checkpoint→resume round
trips — on the recorded machine layout and onto another one — preserve
the same equivalence, and a Hypothesis sweep holds it for random fault
schedules.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    INJECTION_POINTS,
    CheckpointStore,
    ClusterEngine,
    ClusterError,
    FaultInjector,
    Kill,
    ProcessTransport,
    SerialTransport,
    WorkerDied,
)
from repro.engine.algorithms import (
    ConnectedComponents,
    KCore,
    PageRank,
    SingleSourceShortestPaths,
)
from repro.engine.runtime import Engine
from repro.graph.generators import barabasi_albert_graph
from repro.graph.shard import ShardedGraph
from repro.graph.stream import shuffled
from repro.partitioning.hdrf import HDRFPartitioner
from test_cluster_runtime import (
    assert_cluster_matches,
    assert_sync_matches_prediction,
)

GRAPH = barabasi_albert_graph(n=160, m=3, seed=23)


def program_cases():
    return {
        "pagerank": (lambda: PageRank(iterations=9), True),
        "components": (lambda: ConnectedComponents(), False),
        "sssp": (lambda: SingleSourceShortestPaths(source=0), True),
        "kcore": (lambda: KCore(k=3), False),
    }


_SHARDED: dict = {}


def sharded(k: int) -> ShardedGraph:
    """HDRF sharding of the module graph into ``k`` shards (cached)."""
    if k not in _SHARDED:
        result = HDRFPartitioner(list(range(k))).partition_stream(
            shuffled(list(GRAPH.edges()), seed=3))
        _SHARDED[k] = ShardedGraph.from_assignments(
            result.assignments, partitions=range(k),
            vertices=GRAPH.vertices())
    return _SHARDED[k]


def assert_bit_identical(faulted, unfaulted):
    """The recovery invariant: *exact* equality, floats included."""
    assert faulted.states == unfaulted.states
    assert faulted.aggregates == unfaulted.aggregates
    assert faulted.messages_sent == unfaulted.messages_sent
    assert faulted.supersteps == unfaulted.supersteps
    assert faulted.converged == unfaulted.converged


class TestFaultInjectionDifferential:
    """Kill-a-worker at every injection point × program × shard count."""

    @pytest.mark.parametrize("k", [2, 4])
    @pytest.mark.parametrize("program_name", sorted(program_cases()))
    @pytest.mark.parametrize("point", INJECTION_POINTS)
    def test_recovered_equals_unfaulted_equals_dense(self, point,
                                                     program_name, k):
        factory, float_state = program_cases()[program_name]
        graph = sharded(k)
        unfaulted = ClusterEngine(graph).run(factory(), max_supersteps=60)
        # Superstep 0 exists for every program (kcore converges in one).
        injector = FaultInjector([Kill(superstep=0, point=point,
                                       machine=1)])
        engine = ClusterEngine(graph, checkpoint_every=2,
                               fault_injector=injector)
        recovered = engine.run(factory(), max_supersteps=60)
        assert_bit_identical(recovered, unfaulted)
        # The kill fired (mid-scatter only exists on syncing supersteps)
        # and every firing produced exactly one rollback.
        assert len(recovered.recoveries) == len(injector.fired)
        if point != "mid-scatter":
            assert len(recovered.recoveries) == 1
            assert recovered.recoveries[0].machine == 1
        # Close the triangle: the recovered run also matches the dense
        # single-process engine (same comparison the unfaulted layer uses).
        dense = Engine(GRAPH, engine.placement, mode="dense").run(
            factory(), max_supersteps=60)
        assert_cluster_matches(dense, recovered, float_state)

    def test_kill_at_superstep_zero(self):
        """The boundary-0 checkpoint makes even a first-superstep death
        recoverable."""
        graph = sharded(4)
        unfaulted = ClusterEngine(graph).run(ConnectedComponents(),
                                             max_supersteps=60)
        injector = FaultInjector([Kill(superstep=0, point="pre-gather",
                                       machine=0)])
        engine = ClusterEngine(graph, checkpoint_every=3,
                               fault_injector=injector)
        recovered = engine.run(ConnectedComponents(), max_supersteps=60)
        assert_bit_identical(recovered, unfaulted)
        assert recovered.recoveries[0].resumed_from == 0

    def test_repeated_kills_each_roll_back(self):
        graph = sharded(4)
        unfaulted = ClusterEngine(graph).run(PageRank(iterations=9),
                                             max_supersteps=60)
        injector = FaultInjector([
            Kill(superstep=1, point="pre-gather", machine=0),
            Kill(superstep=3, point="post-apply", machine=2),
            Kill(superstep=5, point="mid-scatter", machine=1),
        ])
        engine = ClusterEngine(graph, checkpoint_every=2,
                               fault_injector=injector)
        recovered = engine.run(PageRank(iterations=9), max_supersteps=60)
        assert_bit_identical(recovered, unfaulted)
        assert len(recovered.recoveries) == len(injector.fired) >= 2

    def test_seeded_random_schedule_is_reproducible(self):
        first = FaultInjector.random(seed=7, num_machines=4, kills=3)
        second = FaultInjector.random(seed=7, num_machines=4, kills=3)
        assert first.pending == second.pending

    def test_without_checkpointing_the_death_propagates(self):
        injector = FaultInjector([Kill(superstep=1, point="pre-gather",
                                       machine=1)])
        engine = ClusterEngine(sharded(4), fault_injector=injector)
        with pytest.raises(ClusterError):
            engine.run(PageRank(iterations=9), max_supersteps=60)

    def test_max_recoveries_gives_up(self):
        injector = FaultInjector([Kill(superstep=1, point="pre-gather",
                                       machine=1)])
        engine = ClusterEngine(sharded(4), checkpoint_every=2,
                               fault_injector=injector, max_recoveries=0)
        with pytest.raises(ClusterError, match="giving up"):
            engine.run(PageRank(iterations=9), max_supersteps=60)


class TestProcessFaults:
    """Real worker OS processes: injected and external SIGKILLs."""

    @pytest.mark.parametrize("program_name", ["pagerank", "components"])
    def test_injected_sigkill_recovers(self, program_name):
        factory, _ = program_cases()[program_name]
        graph = sharded(4)
        unfaulted = ClusterEngine(graph).run(factory(), max_supersteps=60)
        injector = FaultInjector([Kill(superstep=1, point="pre-gather",
                                       machine=1)])
        engine = ClusterEngine(graph, backend="process", num_workers=2,
                               checkpoint_every=2, fault_injector=injector,
                               heartbeat_timeout=30.0)
        recovered = engine.run(factory(), max_supersteps=60)
        assert len(recovered.recoveries) == 1
        assert recovered.recoveries[0].machine == 1
        assert_bit_identical(recovered, unfaulted)

    def test_external_sigkill_recovers(self):
        """A worker SIGKILLed from *outside* (no injector cooperation)
        is detected and rolled back mid-run."""
        graph = sharded(4)
        factory = lambda: PageRank(iterations=60)  # noqa: E731
        unfaulted = ClusterEngine(graph).run(factory(), max_supersteps=80)
        engine = ClusterEngine(graph, backend="process", num_workers=2,
                               checkpoint_every=4, heartbeat_timeout=30.0)
        holder = {}

        def run():
            holder["report"] = engine.run(factory(), max_supersteps=80)

        thread = threading.Thread(target=run)
        thread.start()
        killed = self._kill_first_worker(thread)
        thread.join(120)
        assert killed is not None, "never saw a worker process to kill"
        assert "report" in holder, "run did not finish after the kill"
        report = holder["report"]
        assert len(report.recoveries) >= 1
        assert_bit_identical(report, unfaulted)

    @staticmethod
    def _kill_first_worker(thread, timeout=15.0):
        """SIGKILL the first forked worker (any child of this process
        that isn't multiprocessing's resource tracker)."""
        task_dir = f"/proc/{os.getpid()}/task"
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline and thread.is_alive():
            for tid in os.listdir(task_dir):
                try:
                    with open(f"{task_dir}/{tid}/children") as handle:
                        children = handle.read().split()
                except OSError:
                    continue
                for pid in children:
                    try:
                        with open(f"/proc/{pid}/cmdline", "rb") as handle:
                            cmdline = handle.read().decode(errors="replace")
                    except OSError:
                        continue
                    if "resource_tracker" in cmdline:
                        continue
                    try:
                        os.kill(int(pid), signal.SIGKILL)
                    except OSError:
                        continue
                    return int(pid)
            time.sleep(0.002)
        return None

    def test_transport_sigkill_raises_not_hangs(self):
        """Regression for the silent-hang: a SIGKILLed worker must raise
        :class:`WorkerDied` naming the machine, well inside the timeout."""
        transport = ProcessTransport(sharded(4), ConnectedComponents(),
                                     {0: 0, 1: 0, 2: 1, 3: 1}, timeout=30.0)
        try:
            transport.compute_owned()
            os.kill(transport._procs[1].pid, signal.SIGKILL)
            started = time.monotonic()
            with pytest.raises(WorkerDied) as excinfo:
                transport.step(0)
            assert time.monotonic() - started < 10.0
            assert excinfo.value.machine == 1
        finally:
            transport.close()

    def test_engine_without_recovery_raises_cluster_error(self):
        """No checkpointing → the death is an error, never a hang."""
        injector = FaultInjector([Kill(superstep=0, point="pre-gather",
                                       machine=0)])
        engine = ClusterEngine(sharded(4), backend="process",
                               num_workers=2, fault_injector=injector,
                               heartbeat_timeout=30.0)
        with pytest.raises(ClusterError):
            engine.run(ConnectedComponents(), max_supersteps=60)

    def test_wedged_worker_times_out(self):
        """A worker that stays alive but never replies trips the
        heartbeat timeout instead of blocking forever."""
        transport = ProcessTransport(sharded(2), ConnectedComponents(),
                                     {0: 0, 1: 1}, timeout=0.3)
        try:
            os.kill(transport._procs[1].pid, signal.SIGSTOP)
            with pytest.raises(WorkerDied) as excinfo:
                transport.compute_owned()
            assert excinfo.value.machine == 1
            assert "no reply" in excinfo.value.reason
        finally:
            os.kill(transport._procs[1].pid, signal.SIGCONT)
            transport.close()


class TestOneDetectionRule:
    """Both backends run one coordinator: a death surfaces at the next
    exchange that involves the dead machine, whichever backend hosts it."""

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_every_exchange_after_a_kill_names_the_machine(self, backend):
        machine_of = {0: 0, 1: 0, 2: 1, 3: 1}
        transport = (ProcessTransport(sharded(4), PageRank(iterations=9),
                                      machine_of, timeout=30.0)
                     if backend == "process" else
                     SerialTransport(sharded(4), PageRank(iterations=9),
                                     machine_of))
        try:
            checkpoint = transport.snapshot()
            assert transport.kill_machine(1)
            assert not transport.kill_machine(1)
            for call in (transport.compute_owned,
                         lambda: transport.step(0),
                         transport.states,
                         transport.snapshot,
                         lambda: transport.restore(checkpoint)):
                with pytest.raises(WorkerDied) as excinfo:
                    call()
                assert excinfo.value.machine == 1
        finally:
            transport.close()

    @pytest.mark.parametrize("superstep", [4, 9])  # 9 halts without a sync
    @pytest.mark.parametrize("point", INJECTION_POINTS)
    def test_backends_detect_and_recover_alike(self, point, superstep):
        reports = []
        for layout in ({"num_machines": 2},
                       {"backend": "process", "num_workers": 2}):
            injector = FaultInjector([Kill(superstep=superstep, point=point,
                                           machine=1)])
            engine = ClusterEngine(sharded(4), checkpoint_every=2,
                                   fault_injector=injector, **layout)
            reports.append(engine.run(PageRank(iterations=9),
                                      max_supersteps=60))
        serial, process = (
            [(e.machine, e.superstep_detected, e.resumed_from)
             for e in report.recoveries] for report in reports)
        assert serial == process
        # mid-scatter only exists on a syncing superstep.
        fired = 0 if (point, superstep) == ("mid-scatter", 9) else 1
        assert len(serial) == fired
        assert_bit_identical(reports[1], reports[0])


class TestCheckpointResume:
    """Disk checkpoints: interrupted runs restart at the last boundary."""

    @pytest.mark.parametrize("backend,workers", [("serial", None),
                                                 ("process", 2)])
    def test_round_trip_matches_uninterrupted(self, tmp_path, backend,
                                              workers):
        graph = sharded(4)
        factory = lambda: PageRank(iterations=9)  # noqa: E731
        # Same machine layout as the interrupted run, so the simulated
        # cost trace is comparable too (2 workers = 2 machines).
        full = ClusterEngine(graph, num_machines=workers).run(
            factory(), max_supersteps=60)
        directory = str(tmp_path / "ckpt")
        interrupted = ClusterEngine(
            graph, backend=backend, num_workers=workers,
            checkpoint_every=2, checkpoint_dir=directory)
        partial = interrupted.run(factory(), max_supersteps=3)
        assert partial.supersteps == 3
        resumed = ClusterEngine.resume(directory, max_supersteps=60)
        assert_bit_identical(resumed, full)
        assert resumed.latency_ms == pytest.approx(full.latency_ms)

    def test_resume_onto_a_different_layout(self, tmp_path):
        """Checkpoints are keyed by partition: a serial run resumes on
        the process backend with a different machine count."""
        graph = sharded(4)
        factory = lambda: ConnectedComponents()  # noqa: E731
        full = ClusterEngine(graph).run(factory(), max_supersteps=60)
        directory = str(tmp_path / "ckpt")
        ClusterEngine(graph, checkpoint_every=2,
                      checkpoint_dir=directory).run(factory(),
                                                    max_supersteps=3)
        resumed = ClusterEngine.resume(directory, backend="process",
                                       num_workers=2, max_supersteps=60)
        assert resumed.backend == "process"
        assert resumed.states == full.states
        assert resumed.aggregates == full.aggregates
        assert resumed.messages_sent == full.messages_sent

    def test_recovered_run_resumes_onto_a_different_layout(self, tmp_path):
        """A layout change composes with recovery through the one path:
        a run that lost a machine rolls back, keeps checkpointing, and
        its checkpoints resume on the process backend with a different
        machine count to the unfaulted result."""
        graph = sharded(4)
        factory = lambda: PageRank(iterations=9)  # noqa: E731
        full = ClusterEngine(graph).run(factory(), max_supersteps=60)
        directory = str(tmp_path / "ckpt")
        injector = FaultInjector([Kill(superstep=3, point="pre-gather",
                                       machine=1)])
        partial = ClusterEngine(
            graph, checkpoint_every=2, checkpoint_dir=directory,
            fault_injector=injector).run(factory(), max_supersteps=5)
        assert partial.supersteps == 5
        assert len(partial.recoveries) == 1
        resumed = ClusterEngine.resume(directory, backend="process",
                                       num_workers=2, max_supersteps=60)
        assert resumed.backend == "process"
        assert resumed.num_machines == 2
        assert resumed.states == full.states
        assert resumed.aggregates == full.aggregates
        assert resumed.messages_sent == full.messages_sent

    @pytest.mark.parametrize("backend,layout", [
        ("serial", {"machine_of_partition": {0: 1, 1: 0, 2: 1, 3: 0}}),
        ("process", {"num_workers": 2})])
    def test_resume_without_overrides_rebuilds_the_recorded_layout(
            self, tmp_path, backend, layout):
        """No backend and no worker count: the resumed run is placed as
        the interrupted one was, so every superstep's traffic lands on
        the same machines as in an uninterrupted run."""
        graph = sharded(4)
        factory = lambda: PageRank(iterations=9)  # noqa: E731
        engine = ClusterEngine(graph, backend=backend, **layout)
        full = engine.run(factory(), max_supersteps=60)
        directory = str(tmp_path / "ckpt")
        ClusterEngine(graph, backend=backend, **layout, checkpoint_every=2,
                      checkpoint_dir=directory).run(factory(),
                                                    max_supersteps=3)
        resumed = ClusterEngine.resume(directory, max_supersteps=60)
        assert resumed.backend == backend
        assert resumed.num_machines == full.num_machines == 2
        assert_bit_identical(resumed, full)
        assert resumed.latency_ms == pytest.approx(full.latency_ms)
        assert ([(t.remote_per_machine, t.local_per_machine)
                 for t in resumed.telemetry]
                == [(t.remote_per_machine, t.local_per_machine)
                    for t in full.telemetry])
        assert {machine for t in resumed.telemetry
                for machine in t.remote_per_machine} == {0, 1}
        assert_sync_matches_prediction(resumed, engine.placement)

    def test_completed_run_resumes_to_the_same_report(self, tmp_path):
        graph = sharded(2)
        directory = str(tmp_path / "ckpt")
        first = ClusterEngine(graph, checkpoint_every=2,
                              checkpoint_dir=directory).run(
            ConnectedComponents(), max_supersteps=60)
        resumed = ClusterEngine.resume(directory)
        assert_bit_identical(resumed, first)

    def test_resume_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ClusterEngine.resume(str(tmp_path / "nope"))

    def test_resume_without_checkpoints(self, tmp_path):
        graph = sharded(2)
        directory = str(tmp_path / "ckpt")
        ClusterEngine(graph, checkpoint_every=2,
                      checkpoint_dir=directory).run(ConnectedComponents(),
                                                    max_supersteps=60)
        store = CheckpointStore(directory)
        for cursor in store.cursors():
            os.remove(store._path(cursor))
        with pytest.raises(ClusterError, match="no checkpoint"):
            ClusterEngine.resume(directory)

    def test_resume_rejects_mismatched_graph(self, tmp_path):
        directory = str(tmp_path / "ckpt")
        ClusterEngine(sharded(2), checkpoint_every=2,
                      checkpoint_dir=directory).run(ConnectedComponents(),
                                                    max_supersteps=60)
        store = CheckpointStore(directory)
        topology = store.read_topology()
        topology["sharded"] = sharded(4)  # a different sharding
        store.write_topology(topology)
        with pytest.raises(ClusterError, match="does not match"):
            ClusterEngine.resume(directory)

    def test_checkpoint_dir_requires_checkpoint_every(self, tmp_path):
        with pytest.raises(ValueError):
            ClusterEngine(sharded(2), checkpoint_dir=str(tmp_path))


# -- Hypothesis: random fault schedules never lose or duplicate state --

_PROPERTY_SHARDED = None
_PROPERTY_REFERENCE = None


def _property_fixture():
    global _PROPERTY_SHARDED, _PROPERTY_REFERENCE
    if _PROPERTY_SHARDED is None:
        graph = barabasi_albert_graph(n=60, m=2, seed=41)
        result = HDRFPartitioner(list(range(4))).partition_stream(
            shuffled(list(graph.edges()), seed=3))
        _PROPERTY_SHARDED = ShardedGraph.from_assignments(
            result.assignments, partitions=range(4),
            vertices=graph.vertices())
        _PROPERTY_REFERENCE = ClusterEngine(_PROPERTY_SHARDED).run(
            ConnectedComponents(), max_supersteps=40)
    return _PROPERTY_SHARDED, _PROPERTY_REFERENCE


@settings(deadline=None, max_examples=20)
@given(schedule=st.lists(
    st.tuples(st.integers(0, 6),
              st.sampled_from(list(INJECTION_POINTS)),
              st.integers(0, 3)),
    max_size=3),
    every=st.integers(1, 3))
def test_random_fault_schedules_never_lose_state(schedule, every):
    """Any kill schedule: every vertex converges to exactly the
    unfaulted value — no update lost to rollback, none applied twice.
    (On failure Hypothesis shrinks to a minimal schedule.)"""
    graph, reference = _property_fixture()
    kills = [Kill(superstep=s, point=p, machine=m)
             for s, p, m in schedule]
    engine = ClusterEngine(graph, checkpoint_every=every,
                           fault_injector=FaultInjector(kills),
                           max_recoveries=16)
    report = engine.run(ConnectedComponents(), max_supersteps=40)
    assert report.states == reference.states
    assert report.aggregates == reference.aggregates
    assert report.messages_sent == reference.messages_sent
    assert len(report.recoveries) == len(engine.fault_injector.fired)
