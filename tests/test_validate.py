"""Tests for partitioning validation."""

import pytest

from repro.graph.graph import Edge
from repro.graph.stream import shuffled
from repro.partitioning.base import PartitionResult
from repro.partitioning.hdrf import HDRFPartitioner
from repro.partitioning.state import PartitionState
from repro.partitioning.validate import validate_result


def valid_result(small_powerlaw):
    stream = shuffled(small_powerlaw.edges(), seed=3)
    return HDRFPartitioner(range(4)).partition_stream(stream)


class TestValidResults:
    def test_real_partitioning_validates(self, small_powerlaw):
        report = validate_result(valid_result(small_powerlaw))
        assert report.ok
        report.raise_if_invalid()  # no exception

    def test_expected_edges_checked(self, small_powerlaw):
        result = valid_result(small_powerlaw)
        good = validate_result(result,
                               expected_edges=result.state.assigned_edges)
        assert good.ok
        bad = validate_result(result, expected_edges=1)
        assert not bad.ok

    def test_balance_constraint(self, small_powerlaw):
        result = valid_result(small_powerlaw)
        # HDRF keeps balance far above tau = 0.5.
        assert validate_result(result, tau=0.5).ok
        # An impossible tau must fail.
        assert not validate_result(result, tau=1.0).ok


class TestCorruptedResults:
    def test_unknown_partition_detected(self):
        state = PartitionState([0, 1])
        state.assign(Edge(1, 2), 0)
        result = PartitionResult("x", state, {Edge(1, 2): 9},
                                 latency_ms=1.0)
        report = validate_result(result)
        assert any("unknown partition" in e for e in report.errors)

    def test_inconsistent_replicas_detected(self):
        state = PartitionState([0, 1])
        state.assign(Edge(1, 2), 0)
        # Claim the edge went to partition 1 although state says 0.
        result = PartitionResult("x", state, {Edge(1, 2): 1},
                                 latency_ms=1.0)
        report = validate_result(result)
        assert not report.ok

    def test_size_accounting_mismatch(self):
        state = PartitionState([0])
        state.assign(Edge(1, 2), 0)
        state.partition_edges[0] = 5  # corrupt the books
        result = PartitionResult("x", state, {Edge(1, 2): 0},
                                 latency_ms=1.0)
        report = validate_result(result)
        assert any("sum to" in e for e in report.errors)

    def test_negative_latency_detected(self):
        state = PartitionState([0])
        state.assign(Edge(1, 2), 0)
        result = PartitionResult("x", state, {Edge(1, 2): 0},
                                 latency_ms=-1.0)
        assert not validate_result(result).ok

    def test_raise_if_invalid(self):
        state = PartitionState([0])
        result = PartitionResult("x", state, {Edge(1, 2): 9},
                                 latency_ms=0.0)
        with pytest.raises(AssertionError, match="invalid partitioning"):
            validate_result(result).raise_if_invalid()

    def test_empty_partition_warning(self, small_powerlaw):
        stream = shuffled(small_powerlaw.edges(), seed=3)
        # Force everything onto partition 0 of 4 via a degenerate state.
        state = PartitionState([0, 1, 2, 3])
        assignments = {}
        for edge in stream:
            canon = edge.canonical()
            state.observe_degrees(canon)
            state.assign(canon, 0)
            assignments[canon] = 0
        result = PartitionResult("x", state, assignments, latency_ms=0.0)
        report = validate_result(result)
        assert any("empty partitions" in w for w in report.warnings)


class TestRowsOffTheGraph:
    """Rows no graph holds — a self-loop line, partitions outside the
    spread, an edge named high end first — are reported, not raised
    on, with the lists the per-edge dict-of-sets walk produced: the
    same text, vertices in the order the assignments first name them."""

    def result(self):
        state = PartitionState([0, 1])
        for edge, partition in ((Edge(1, 2), 0), (Edge(2, 3), 1),
                                (Edge(5, 5), 1), (Edge(6, 6), 0)):
            state.observe_degrees(edge)
            state.assign(edge, partition)
        state.replica_sets[9] = {1}
        state.replica_sets[10] = set()
        assignments = {Edge(1, 2): 0, Edge(2, 3): 1, Edge(5, 5): 1,
                       Edge(6, 6): 1, Edge(8, 4): 7, Edge(4, 2): -3}
        return PartitionResult("x", state, assignments, latency_ms=0.0)

    def test_errors_and_warnings(self):
        report = validate_result(self.result())
        assert report.errors == [
            "edge (8, 4) assigned to unknown partition 7",
            "edge (4, 2) assigned to unknown partition -3",
            "vertex 2: assignments imply replicas [-3, 0, 1] but state "
            "records [0, 1]",
            "vertex 6: assignments imply replicas [1] but state records [0]",
            "vertex 8: assignments imply replicas [7] but state records []",
            "vertex 4: assignments imply replicas [-3, 7] but state "
            "records []"]
        assert report.warnings == [
            "vertex 9 has replicas [1] with no assignment in the result "
            "(duplicate stream edges?)"]

    def test_consistent_self_loop_is_valid(self):
        state = PartitionState([0, 1])
        for edge, partition in ((Edge(1, 2), 0), (Edge(5, 5), 1)):
            state.observe_degrees(edge)
            state.assign(edge, partition)
        result = PartitionResult("x", state, {Edge(1, 2): 0, Edge(5, 5): 1},
                                 latency_ms=0.0)
        report = validate_result(result)
        assert report.ok and report.warnings == []


def test_both_state_tiers_report_alike():
    """The replica rows read off the array state's matrix and off the
    dict state's sets give one report: the same errors and warnings, in
    the same order (a vertex whose recorded replicas differ from the
    implied ones, one the state never saw, two no assignment names, a
    spread out of order and a negative id)."""
    from repro.core import _kernels
    from repro.partitioning.fast_state import FastPartitionState

    if _kernels.load() is None:
        pytest.skip("the array state interns through the compiled kernels")
    reports = []
    for build in (PartitionState, FastPartitionState):
        state = build([3, 1, 2])
        for edge, partition in ((Edge(7, -2), 3), (Edge(-2, 5), 1),
                                (Edge(9, 11), 2), (Edge(5, 7), 2),
                                (Edge(11, 4), 1)):
            state.observe_degrees(edge)
            state.assign(edge, partition)
        assignments = {Edge(7, -2): 3, Edge(-2, 5): 2, Edge(5, 7): 2,
                       Edge(4, 6): 1}
        reports.append(validate_result(
            PartitionResult("x", state, assignments, latency_ms=0.0)))
    dict_report, array_report = reports
    assert dict_report.errors == array_report.errors == [
        "vertex -2: assignments imply replicas [2, 3] but state records "
        "[1, 3]",
        "vertex 6: assignments imply replicas [1] but state records []"]
    assert dict_report.warnings == array_report.warnings == [
        "vertex 9 has replicas [2] with no assignment in the result "
        "(duplicate stream edges?)",
        "vertex 11 has replicas [1, 2] with no assignment in the result "
        "(duplicate stream edges?)"]
