"""The fallback rule: no compiled kernels -> the interpreted paths.

Where ``_kernels.c`` cannot be built (no C compiler, no cffi) ADWISE on
a fast state runs the object :class:`EdgeWindow` for the whole stream
and HDRF its per-edge loop — selected from the observable build result,
not from a switch — and both produce the same results.  The build is
forced to fail by monkeypatch, so this module runs (and means the same)
with or without a compiler.
"""

import subprocess

import pytest
from _window_utils import outcome, result_tuple

from repro.api import open_session, restore_session
from repro.core import _kernels
from repro.core.adwise import AdwisePartitioner
from repro.core.window import EdgeWindow
from repro.graph.graph import Edge
from repro.graph.stream import InMemoryEdgeStream
from repro.partitioning.hdrf import HDRFPartitioner

PAIRS = [((i * 13 + 3) % 59, (i * 7 + 1) % 61 + 59) for i in range(400)]


def run(window_backend, **kwargs):
    partitioner = AdwisePartitioner(range(6), fast=True,
                                    window_backend=window_backend, **kwargs)
    result = partitioner.partition_stream(
        InMemoryEdgeStream([Edge(u, v) for u, v in PAIRS]))
    return partitioner, outcome(partitioner, result)


@pytest.fixture
def no_compiler(monkeypatch):
    """A machine where ``_kernels.c`` cannot be built."""
    def fail(source):
        raise subprocess.CalledProcessError(1, ["cc"])

    monkeypatch.setattr(_kernels, "_compile", fail)
    monkeypatch.setattr(_kernels, "_loaded", _kernels._UNSET)


@pytest.mark.parametrize("kwargs", [{"fixed_window": 32},
                                    {"latency_preference_ms": 20.0}],
                         ids=["fixed", "adaptive"])
def test_object_window_selected_without_compiler(no_compiler, kwargs):
    assert _kernels.load() is None
    assert _kernels.resolve_backend_name() == "object"
    partitioner, fallback = run("auto", **kwargs)
    assert isinstance(partitioner.window, EdgeWindow)
    assert fallback == run("object", **kwargs)[1]


def test_results_identical_with_and_without_kernels(monkeypatch):
    with_kernels = run("auto", fixed_window=32)[1]
    monkeypatch.setattr(_kernels, "_loaded", None)
    assert run("auto", fixed_window=32)[1] == with_kernels


def run_hdrf(fast):
    partitioner = HDRFPartitioner(range(6), fast=fast)
    partitioner.begin(total_edges=len(PAIRS))
    for start in range(0, len(PAIRS), 150):
        partitioner.ingest([Edge(u, v) for u, v in PAIRS[start:start + 150]])
    return partitioner, result_tuple(partitioner.finalize())


def test_hdrf_runs_per_edge_without_compiler(no_compiler):
    assert _kernels.load() is None
    partitioner, fallback = run_hdrf(fast=True)
    assert partitioner.kernel is None  # no batch ran natively
    assert partitioner.state.is_fast
    assert fallback == run_hdrf(fast=False)[1]


def test_hdrf_identical_with_and_without_kernels(monkeypatch):
    partitioner, with_kernels = run_hdrf(fast=True)
    if _kernels.load() is not None:
        assert partitioner.kernel is not None
    monkeypatch.setattr(_kernels, "_loaded", None)
    assert run_hdrf(fast=True)[1] == with_kernels


def test_forced_array_window_fails_loudly(no_compiler):
    with pytest.raises(RuntimeError, match="compiled window kernels"):
        run("array", fixed_window=32)


def test_snapshot_restores_onto_the_object_window(monkeypatch):
    """Images are backend-neutral: a snapshot taken wherever restores
    onto the object window where the kernels are missing, and the
    session continues identically."""
    live = open_session("adwise", partitions=6, fast=True, fixed_window=32)
    live.ingest(PAIRS[:250])
    snapshot = live.snapshot()
    monkeypatch.setattr(_kernels, "_loaded", None)
    resumed = restore_session(snapshot)
    monkeypatch.undo()
    assert isinstance(resumed.partitioner.window, EdgeWindow)
    live.ingest(PAIRS[250:])
    resumed.ingest(PAIRS[250:])
    live_result, resumed_result = live.finalize(), resumed.finalize()
    assert (list(resumed_result.assignments.items())
            == list(live_result.assignments.items()))
    assert resumed_result.latency_ms == live_result.latency_ms
    assert resumed_result.extras == live_result.extras
