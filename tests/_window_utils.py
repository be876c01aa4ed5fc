"""Shared helpers of the kernel differential suites."""

from repro.core.window import EdgeWindow
from repro.partitioning.state import PartitionState


def reference(build, *args, **kwargs):
    """The control of every "compiled ≡ reference" comparison:
    ``build(*args, fast=False, **kwargs)`` — a partitioner class or
    ``open_session`` — checked to really be the reference tier, a
    dict-backed :class:`PartitionState` and, for ADWISE, the object
    :class:`EdgeWindow` (asserted when the stream opens if it has not
    yet).  With the compiled tier the default, a control that silently
    became compiled too would leave a suite comparing it with itself."""
    built = build(*args, fast=False, **kwargs)
    partitioner = getattr(built, "partitioner", built)
    assert type(partitioner.state) is PartitionState
    if hasattr(partitioner, "window"):
        if partitioner.window is None:
            begin = partitioner.begin

            def checked_begin(total_edges=0):
                begin(total_edges)
                assert type(partitioner.window) is EdgeWindow

            partitioner.begin = checked_begin
        else:
            assert type(partitioner.window) is EdgeWindow
    return built


def load_mutant(mutation, tmp_path, monkeypatch):
    """Compile ``_kernels.c`` with the text ``mutation = (old, new)``
    applied and make it what :func:`_kernels.load` answers until the
    test's ``monkeypatch`` is undone."""
    import subprocess

    from repro.core import _kernels

    old, new = mutation
    with open(_kernels._source_path(), encoding="utf-8") as handle:
        source = handle.read()
    assert source.count(old) == 1, "the mutation no longer applies"
    mutated = tmp_path / "_kernels.c"
    mutated.write_text(source.replace(old, new), encoding="utf-8")
    so_path = tmp_path / "mutant.so"
    subprocess.run(
        ["cc", "-O1", "-fPIC", "-shared", "-ffp-contract=off",
         "-o", str(so_path), str(mutated)], check=True)
    monkeypatch.setattr(_kernels, "_loaded", _kernels._loaded)
    assert _kernels.load(str(so_path)) is not None


def assert_same_tables(state, twin):
    """Two array-backed states, table for table over the rows in use and
    scalar for scalar — what "the kernel left the state exactly as the
    per-edge ``observe_degrees``/``assign`` would have" means."""
    import numpy as np

    assert state._vindex == twin._vindex
    rows = len(state._vindex)
    for table in ("_replicas", "_row_version", "_deg"):
        assert np.array_equal(getattr(state, table)[:rows],
                              getattr(twin, table)[:rows]), table
    assert np.array_equal(state._sizes, twin._sizes)
    assert ((state.max_degree, state.assigned_edges, state.max_size,
             state.min_size)
            == (twin.max_degree, twin.assigned_edges, twin.max_size,
                twin.min_size))


def result_tuple(result):
    """What any partitioner's bit-identity contract covers, as one
    value: ordered assignments, quality, simulated latency, score counts
    and extras."""
    return (list(result.assignments.items()), result.replication_degree,
            result.imbalance, result.latency_ms, result.score_computations,
            result.extras)


def outcome(partitioner, result):
    """Everything ADWISE's bit-identity contract covers: the result
    tuple (extras: window sizes, promotions, final λ) and the adaptive
    controller's decision trace."""
    events = [(e.assignments, e.window_before, e.window_after, e.decision,
               e.block_avg_score, e.at_ms)
              for e in partitioner.controller.events]
    return result_tuple(result) + (events,)


def check_agenda(win):
    """``agenda[:num_candidates]`` of a compiled window is exactly the
    candidate slots, in strictly ascending entry order."""
    import numpy as np

    n = win.candidate_count
    agenda = win._array("agenda")[:n]
    assert np.all(np.diff(win._array("entry")[agenda]) > 0)
    assert (sorted(agenda.tolist())
            == np.flatnonzero(win._array("candidate")).tolist())
    assert np.all(win._array("alive")[agenda] == 1)
    assert 0 <= n <= len(win)


def lockstep(build, *args, **kwargs):
    """``(compiled, reference)``: ``build(*args, **kwargs)`` — a
    partitioner class or ``open_session`` — on each tier."""
    return build(*args, **kwargs), reference(build, *args, **kwargs)


def ingest_both(pair, edges):
    """Feed the ``(u, v)`` pairs ``edges`` to both partitioners or
    sessions of ``pair``.  They must agree on the assignments emitted,
    the window image, the candidate count, the promotions and the clock;
    the compiled window's agenda must be in order.  Returns the
    assignments."""
    seen = []
    for side in pair:
        emitted = list(side.ingest(edges))
        partitioner = getattr(side, "partitioner", side)
        window, clock = partitioner.window, partitioner.clock
        seen.append((emitted, window.to_image(), window.candidate_count,
                     window.promotions, clock.score_computations,
                     clock.assignments, clock.now()))
    assert seen[0] == seen[1]
    check_agenda(getattr(pair[0], "partitioner", pair[0]).window)
    return seen[0][0]
