"""The tier-selection rule: no compiled kernels -> the reference tier.

Where ``_kernels.c`` cannot be built (no C compiler, no cffi) ADWISE and
HDRF built with no knobs hold the dict-backed :class:`PartitionState`
and run the object :class:`EdgeWindow` / the per-edge loop for the whole
stream — selected from the observable build result, not from a switch —
and produce the same results as the compiled tier.  The build is forced
to fail by monkeypatch, so this module runs (and means the same) with or
without a compiler.  That rule is quiet; a compiler that is there and
*rejects* ``_kernels.c`` takes the same tier with a warning that carries
its stderr.
"""

import os
import shutil
import subprocess
import sys
import warnings
from functools import partial

import pytest
from _window_utils import outcome, reference, result_tuple

from repro.api import open_session, restore_session
from repro.core import _kernels
from repro.core.adwise import AdwisePartitioner
from repro.core.window import EdgeWindow
from repro.graph.graph import Edge
from repro.graph.stream import InMemoryEdgeStream
from repro.partitioning.hdrf import HDRFPartitioner
from repro.partitioning.state import PartitionState

PAIRS = [((i * 13 + 3) % 59, (i * 7 + 1) % 61 + 59) for i in range(400)]


def run(build=AdwisePartitioner, **kwargs):
    partitioner = build(range(6), **kwargs)
    result = partitioner.partition_stream(
        InMemoryEdgeStream([Edge(u, v) for u, v in PAIRS]))
    return partitioner, outcome(partitioner, result)


def run_reference(**kwargs):
    return run(partial(reference, AdwisePartitioner), **kwargs)


@pytest.fixture
def no_compiler(monkeypatch):
    """A machine where ``_kernels.c`` cannot be built: no ``cc`` on the
    path, which is what ``subprocess.run`` raises for one."""
    def fail(source):
        raise FileNotFoundError(2, "No such file or directory", "cc")

    monkeypatch.setattr(_kernels, "_compile", fail)
    monkeypatch.setattr(_kernels, "_loaded", _kernels._UNSET)


@pytest.mark.parametrize("kwargs", [{"fixed_window": 32},
                                    {"latency_preference_ms": 20.0}],
                         ids=["fixed", "adaptive"])
def test_reference_tier_selected_without_compiler(no_compiler, kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a missing compiler is not news
        assert _kernels.load() is None
    assert _kernels.resolve_backend_name() == "object"
    partitioner, fallback = run(**kwargs)
    assert type(partitioner.state) is PartitionState
    assert isinstance(partitioner.window, EdgeWindow)
    assert fallback == run_reference(**kwargs)[1]


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_rejected_source_warns_once_with_the_compilers_stderr(
        monkeypatch, tmp_path):
    """A ``_kernels.c`` the compiler refuses is a bug, not a machine
    without a compiler: the reference tier still runs, but ``load``
    says what ``cc`` said, and where — once per process."""
    with open(_kernels._source_path(), encoding="utf-8") as handle:
        source = handle.read()
    broken = tmp_path / "_kernels.c"
    broken.write_text(source + "\n#error deliberately broken kernels\n",
                      encoding="utf-8")
    monkeypatch.setattr(_kernels, "_source_path", lambda: str(broken))
    monkeypatch.setattr(_kernels, "_loaded", _kernels._UNSET)
    with pytest.warns(RuntimeWarning) as caught:
        assert _kernels.load() is None
    (message,) = [str(w.message) for w in caught]
    assert "deliberately broken kernels" in message  # the stderr text
    assert str(broken) in message
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _kernels.load() is None  # memoised: no second warning
    partitioner, fallback = run(fixed_window=32)
    assert isinstance(partitioner.window, EdgeWindow)
    assert fallback == run_reference(fixed_window=32)[1]


def test_results_identical_with_and_without_kernels(monkeypatch):
    with_kernels = run(fixed_window=32)[1]
    monkeypatch.setattr(_kernels, "_loaded", None)
    assert run(fixed_window=32)[1] == with_kernels


def run_hdrf(build=HDRFPartitioner):
    partitioner = build(range(6))
    partitioner.begin(total_edges=len(PAIRS))
    for start in range(0, len(PAIRS), 150):
        partitioner.ingest([Edge(u, v) for u, v in PAIRS[start:start + 150]])
    return partitioner, result_tuple(partitioner.finalize())


def test_hdrf_runs_per_edge_without_compiler(no_compiler):
    assert _kernels.load() is None
    partitioner, fallback = run_hdrf()
    assert partitioner.kernel is None  # no batch ran natively
    assert type(partitioner.state) is PartitionState
    assert fallback == run_hdrf(partial(reference, HDRFPartitioner))[1]


def test_hdrf_identical_with_and_without_kernels(monkeypatch):
    partitioner, with_kernels = run_hdrf()
    if _kernels.load() is not None:
        assert partitioner.kernel is not None
    monkeypatch.setattr(_kernels, "_loaded", None)
    assert run_hdrf()[1] == with_kernels


def test_array_window_itself_fails_loudly(no_compiler):
    """Nothing selects it without kernels; built by hand it says why."""
    from repro.core.array_window import ArrayEdgeWindow
    from repro.core.scoring import AdwiseScoring
    from repro.partitioning.fast_state import FastPartitionState

    scoring = AdwiseScoring(FastPartitionState(range(6)))
    with pytest.raises(RuntimeError, match="compiled window kernels"):
        ArrayEdgeWindow(scoring)


@pytest.mark.parametrize("algorithm", ["adwise", "hdrf"])
def test_default_sessions_take_the_reference_tier_without_compiler(
        no_compiler, algorithm):
    """``open_session`` with no knobs (what a daemon tenant opened by
    ``ServiceClient.open(t, algorithm=...)`` is) follows the same rule."""
    session = open_session(algorithm, partitions=6)
    assert type(session.partitioner.state) is PartitionState
    control = reference(open_session, algorithm, partitions=6)
    assert session.ingest(PAIRS) == control.ingest(PAIRS)
    assert (result_tuple(session.finalize())
            == result_tuple(control.finalize()))


def test_snapshot_restores_onto_the_reference_tier(monkeypatch):
    """State snapshots and window images are tier-neutral: a snapshot
    taken wherever restores onto the dict state and the object window
    where the kernels are missing, and the session continues
    identically."""
    live = open_session("adwise", partitions=6, fixed_window=32)
    live.ingest(PAIRS[:250])
    snapshot = live.snapshot()
    monkeypatch.setattr(_kernels, "_loaded", None)
    resumed = restore_session(snapshot)
    monkeypatch.undo()
    assert type(resumed.partitioner.state) is PartitionState
    assert isinstance(resumed.partitioner.window, EdgeWindow)
    live.ingest(PAIRS[250:])
    resumed.ingest(PAIRS[250:])
    live_result, resumed_result = live.finalize(), resumed.finalize()
    assert (list(resumed_result.assignments.items())
            == list(live_result.assignments.items()))
    assert resumed_result.latency_ms == live_result.latency_ms
    assert resumed_result.extras == live_result.extras


def test_importing_the_package_builds_nothing():
    """The tier is resolved when a partitioner is built, not at import:
    ``import repro`` (and the CLI) must not import cffi, let alone run
    the compiler."""
    code = ("import sys, repro, repro.api, repro.cli\n"
            "from repro.core import _kernels\n"
            "assert 'cffi' not in sys.modules\n"
            "assert _kernels._loaded is _kernels._UNSET\n")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
