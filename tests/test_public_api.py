"""Contract tests for the public API surface."""

import importlib

import pytest

import repro


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"__all__ exports missing {name}"

    def test_version_string(self):
        major, minor, patch = repro.__version__.split(".")
        assert all(part.isdigit() for part in (major, minor, patch))

    def test_partitioners_share_base(self):
        from repro import StreamingPartitioner

        for cls_name in ("HashPartitioner", "GridPartitioner",
                         "DBHPartitioner", "HDRFPartitioner",
                         "GreedyPartitioner", "NEPartitioner",
                         "JaBeJaVCPartitioner", "PowerLyraPartitioner",
                         "AdwisePartitioner"):
            cls = getattr(repro, cls_name)
            assert issubclass(cls, StreamingPartitioner), cls_name
            assert cls.name != "abstract", cls_name

    def test_algorithm_names_unique(self):
        from repro.engine import algorithms

        names = [getattr(algorithms, n).name for n in algorithms.__all__]
        assert len(names) == len(set(names))

    def test_session_facade_exported(self):
        from repro import (
            Assignment,
            PartitionSession,
            SessionError,
            SessionSnapshot,
            SessionStats,
            open_session,
            restore_session,
        )

        session = open_session(algorithm="hdrf", partitions=4)
        assert isinstance(session, PartitionSession)
        emitted = session.ingest([(0, 1), (1, 2)])
        assert all(isinstance(a, Assignment) for a in emitted)
        assert isinstance(session.stats(), SessionStats)
        assert isinstance(session.snapshot(), SessionSnapshot)
        restored = restore_session(session.snapshot())
        assert isinstance(restored, PartitionSession)
        with pytest.raises(SessionError):
            open_session(algorithm="no-such-algorithm", partitions=4)

    def test_offline_algorithms_refuse_sessions(self):
        from repro import open_session, SessionError

        for algorithm in ("ne", "jabeja"):
            with pytest.raises(SessionError):
                open_session(algorithm=algorithm, partitions=4)


@pytest.mark.parametrize("module", [
    "repro.graph", "repro.graph.graph", "repro.graph.io",
    "repro.graph.stream", "repro.graph.generators", "repro.graph.stats",
    "repro.core", "repro.core.adwise", "repro.core.window",
    "repro.core.adaptive", "repro.core.scoring", "repro.core.spotlight",
    "repro.partitioning", "repro.partitioning.state",
    "repro.partitioning.base", "repro.partitioning.metrics",
    "repro.partitioning.parallel", "repro.partitioning.validate",
    "repro.partitioning.partition_io",
    "repro.engine", "repro.engine.placement", "repro.engine.cost",
    "repro.engine.runtime", "repro.engine.vertex_program",
    "repro.engine.algorithms",
    "repro.bench", "repro.bench.workloads", "repro.bench.harness",
    "repro.bench.reporting", "repro.bench.charts",
    "repro.simtime", "repro.util", "repro.cli",
    "repro.api", "repro.service", "repro.service.server",
    "repro.service.client", "repro.service.metrics",
])
def test_module_imports_cleanly(module):
    importlib.import_module(module)


@pytest.mark.parametrize("module", [
    "repro.core.adwise", "repro.core.window", "repro.core.adaptive",
    "repro.core.scoring", "repro.partitioning.hdrf",
    "repro.engine.runtime",
])
def test_module_has_docstring(module):
    mod = importlib.import_module(module)
    assert mod.__doc__ and len(mod.__doc__.strip()) > 40
