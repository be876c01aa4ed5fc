"""A stateful differential machine over the session: compiled ≡ reference.

Hypothesis drives two :func:`~repro.api.open_session` sessions in
lockstep — the compiled tier (array state; array window or stream
kernel) and ``reference(open_session, …)`` (dict state; object window or
per-edge loop) — through any interleaving of ``ingest`` (1–300 edges
over a small id range, repeats and self-loops included), ``snapshot`` →
pickle → :func:`~repro.api.restore_session`, the online queries and,
last, ``finalize``.  After every step the two must agree on the batch
emitted, :meth:`SessionStats.to_dict`, the clock's counters and reading,
the adaptive controller's state and the window image (scores, versions
and candidate flags included), and the compiled window's agenda must be
its candidate slots in entry order.

The compiled window has one way in (``ArrayEdgeWindow.pump``), so this
is where its step-grain coverage lives: any batch size, any restore
point, through the public API only.  Every buffer starts at its smallest
— intern table at two slots, row tables at two rows, slot arrays and
output lists — and every run opens with a batch of one or two
edges, so ingests cross each growth under a live binding and every
restore re-interns into fresh small tables.  Which growths a random run
reaches is chance; one planned walk per configuration makes it certain.
"""

import pickle

import pytest
from _window_utils import check_agenda, outcome, reference, result_tuple
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.api import open_session, restore_session
from repro.core import _binding, _kernels, array_window
from repro.core._binding import KernelBinding
from repro.core.adaptive import WindowDecision
from repro.core.array_window import ArrayEdgeWindow
from repro.core.window import EdgeWindow
from repro.partitioning import fast_state
from repro.partitioning.fast_state import FastPartitionState
from repro.partitioning.state import PartitionState

pytestmark = pytest.mark.skipif(_kernels.load() is None,
                                reason="compiled kernels unavailable")

#: (algorithm, open_session arguments).  The adaptive preference makes
#: the window grow and shrink within the first couple of hundred edges.
CONFIGS = {
    "hdrf": ("hdrf", {}),
    "adwise-fixed": ("adwise", {"fixed_window": 8}),
    "adwise-adaptive": ("adwise", {"latency_preference_ms": 5.0,
                                   "expected_edges": 200}),
}

#: 3 configurations x 70 examples.
SETTINGS = settings(max_examples=70, stateful_step_count=25, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.data_too_large])

vertices = st.integers(0, 40)
pairs = st.tuples(vertices, vertices)
#: Half the batches are short (a few new vertices at a time regrow the
#: tables under a live binding), half are sized uniformly up to 300.
batches = st.one_of(
    st.lists(pairs, min_size=1, max_size=8),
    st.integers(9, 300).flatmap(
        lambda n: st.lists(pairs, min_size=n, max_size=n)))


class SessionMachine(RuleBasedStateMachine):
    """Two sessions, one per tier, fed the same steps."""

    def __init__(self, algorithm, knobs, log):
        super().__init__()
        self.log = log
        self.sessions = (
            open_session(algorithm, partitions=4, **knobs),
            reference(open_session, algorithm, partitions=4, **knobs))
        self.finalized = False

    @initialize(edges=st.lists(pairs, min_size=1, max_size=2))
    def start(self, edges):
        """A first batch of one or two edges: the tables are bound at
        their smallest, so every later growth happens under a live
        binding."""
        self.ingest(edges)

    @precondition(lambda self: not self.finalized)
    @rule(edges=batches)
    def ingest(self, edges):
        compiled, control = (list(session.ingest(edges))
                             for session in self.sessions)
        assert compiled == control

    @precondition(lambda self: not self.finalized)
    @rule()
    def snapshot_restore(self):
        self.sessions = tuple(
            restore_session(pickle.loads(pickle.dumps(session.snapshot())))
            for session in self.sessions)

    @rule(u=vertices, v=vertices)
    def query(self, u, v):
        compiled, control = self.sessions
        assert compiled.query_vertex(u) == control.query_vertex(u)
        assert compiled.query_edge(u, v) == control.query_edge(u, v)

    @precondition(lambda self: not self.finalized)
    @rule()
    def finalize(self):
        covered = []
        for session in self.sessions:
            result = session.finalize()
            partitioner = session.partitioner
            covered.append(outcome(partitioner, result)
                           if hasattr(partitioner, "controller")
                           else result_tuple(result))
        assert covered[0] == covered[1]
        self.finalized = True

    @invariant()
    def tiers_agree(self):
        compiled, control = (session.partitioner
                             for session in self.sessions)
        assert type(compiled.state) is FastPartitionState
        assert type(control.state) is PartitionState
        assert (self.sessions[0].stats().to_dict()
                == self.sessions[1].stats().to_dict())
        clocks = [(p.clock.score_computations, p.clock.assignments,
                   p.clock.now()) for p in (compiled, control)]
        assert clocks[0] == clocks[1]
        self.log["table"].add(len(compiled.state._table))
        if not hasattr(compiled, "window"):
            return
        assert type(compiled.window) is ArrayEdgeWindow
        assert type(control.window) is EdgeWindow
        assert compiled.window.to_image() == control.window.to_image()
        check_agenda(compiled.window)
        if hasattr(compiled.controller, "to_state"):
            assert (compiled.controller.to_state()
                    == control.controller.to_state())
            self.log["decisions"].update(
                event.decision for event in compiled.controller.events)


@pytest.fixture
def growths(monkeypatch):
    """Every buffer at its smallest, and a log of what grew:
    ``{capacity group: [new capacity, ...]}`` plus the intern table's
    sizes and the adaptive decisions the machine saw."""
    monkeypatch.setattr(array_window, "_MIN_CAPACITY", 2)
    monkeypatch.setattr(_binding, "_MIN_OUT", 2)
    monkeypatch.setattr(fast_state, "_INITIAL_CAPACITY", 2)
    monkeypatch.setattr(fast_state, "_INITIAL_TABLE", 2)
    log = {"slot_cap": [], "vertex_cap": [], "out_cap": [],
           "rows": [], "table": set(), "decisions": set()}
    resize = KernelBinding.resize
    grow_rows = FastPartitionState._grow

    def logged_resize(self, fields, cap_field, capacity, keep=True):
        if capacity > getattr(self.ctx, cap_field) > 0:
            log[cap_field].append(capacity)
        resize(self, fields, cap_field, capacity, keep)

    def logged_grow_rows(self):
        grow_rows(self)
        log["rows"].append(self._capacity)

    monkeypatch.setattr(KernelBinding, "resize", logged_resize)
    monkeypatch.setattr(FastPartitionState, "_grow", logged_grow_rows)
    return log


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_session_machine(config, growths):
    algorithm, knobs = CONFIGS[config]
    run_state_machine_as_test(
        lambda: SessionMachine(algorithm, knobs, growths), settings=SETTINGS)


def planned_batches():
    """Batches of 3 to 300 edges over the machine's id range."""
    batches, start = [], 0
    for n in (3, 40, 300, 8, 120):
        batches.append([((start + 7 * i) % 41, (start + 13 * i + 5) % 41)
                        for i in range(n)])
        start += n
    return batches


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_the_machine_crosses_every_growth(config, growths):
    """One planned walk through the machine's steps, so that what the
    random runs may or may not reach is certain here: every capacity
    group grows from its smallest under a live binding, the intern
    table doubles past 16 slots, and the adaptive window both grows and
    shrinks."""
    algorithm, knobs = CONFIGS[config]
    machine = SessionMachine(algorithm, knobs, growths)
    machine.start([(0, 1)])
    for i, batch in enumerate(planned_batches()):
        machine.ingest(batch)
        machine.tiers_agree()
        if i == 2:
            machine.snapshot_restore()
            machine.tiers_agree()
    machine.finalize()
    machine.tiers_agree()
    grown = {"rows", "vertex_cap", "out_cap"}
    if algorithm == "adwise":  # a fixed window's: compacted to 2 slots
        grown.add("slot_cap")      # after the first edge
    if "latency_preference_ms" in knobs:
        assert {WindowDecision.GROW,
                WindowDecision.SHRINK} <= growths["decisions"]
    assert {group for group in grown if growths[group]} == grown
    assert max(growths["table"]) >= 16
