"""Tests for persisting and reloading partitionings.

A ``.parts`` file has one writer, :func:`write_assignments`, and one
reader, :func:`read_columns` — whose columns
:meth:`ShardedGraph.from_arrays` shards.  Quality recomputed from the file (replication degree, edges
per partition) must equal the partitioner's own.
"""

import gzip

import pytest

from repro.graph.graph import Edge
from repro.graph.shard import ShardedGraph, mapping_columns
from repro.graph.stream import shuffled
from repro.partitioning.hdrf import HDRFPartitioner
from repro.partitioning.metrics import imbalance
from repro.partitioning.partition_io import (
    _WRITE_BATCH,
    read_columns,
    write_assignments,
)


def _rows(path):
    """The file's ``(u, v, part)`` columns as lists, file order."""
    return [column.tolist() for column in read_columns(path)]


def _written(assignments):
    """The rows :func:`write_assignments` is given for ``assignments``."""
    return [column.tolist() for column in mapping_columns(assignments)]


def _sizes(sharded):
    """Edges per partition of a sharding, empty partitions included."""
    return {p: sharded.shards[p].num_edges for p in sharded.partitions}


def _assert_file_matches(path, result):
    """The file at ``path`` holds ``result``'s rows and shards back to
    its quality, recomputed from the rows rather than trusted."""
    assert _rows(path) == _written(result.assignments)
    loaded = ShardedGraph.from_arrays(*read_columns(path),
                                      partitions=result.state.partitions)
    assert loaded.replication_degree == pytest.approx(
        result.replication_degree)
    assert _sizes(loaded) == dict(result.state.partition_edges)
    assert imbalance(_sizes(loaded)) == pytest.approx(result.imbalance)


class TestRoundTrip:
    def test_write_then_read(self, tmp_path):
        assignments = {Edge(1, 2): 0, Edge(2, 3): 1}
        path = tmp_path / "p.txt"
        written = write_assignments(path, assignments, header="test")
        assert written == 2
        assert _rows(path) == [[1, 2], [2, 3], [0, 1]]
        assert _sizes(ShardedGraph.from_arrays(*read_columns(path))) == {
            0: 1, 1: 1}

    def test_comments_ignored(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("# header\n1 2 0\n% other\n2 3 1\n")
        assert _rows(path) == [[1, 2], [2, 3], [0, 1]]

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("1 2\n")
        with pytest.raises(ValueError):
            read_columns(path)

    def test_non_canonical_edges_canonicalised(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("5 2 3\n")
        assert _rows(path) == [[5], [2], [3]]
        sharded = ShardedGraph.from_arrays(*read_columns(path))
        assert (sharded.num_vertices, _sizes(sharded)) == (2, {3: 1})


class TestGzipAndBatching:
    """Transparent ``.gz`` support and batched writes."""

    def test_gz_write_then_read(self, tmp_path):
        assignments = {Edge(1, 2): 0, Edge(2, 3): 1, Edge(3, 4): 0}
        path = tmp_path / "p.txt.gz"
        written = write_assignments(path, assignments, header="compressed")
        assert written == 3
        assert _rows(path) == [[1, 2, 3], [2, 3, 4], [0, 1, 0]]
        # The file really is gzip: raw bytes start with the magic and
        # decompress to the plain-text format.
        raw = path.read_bytes()
        assert raw[:2] == b"\x1f\x8b"
        text = gzip.decompress(raw).decode("utf-8")
        assert text.startswith("# compressed\n")
        assert "1 2 0\n" in text

    def test_gz_and_plain_content_identical(self, tmp_path):
        assignments = {Edge(i, i + 1): i % 4 for i in range(50)}
        plain = tmp_path / "p.txt"
        compressed = tmp_path / "p.txt.gz"
        write_assignments(plain, assignments, header="h")
        write_assignments(compressed, assignments, header="h")
        assert gzip.decompress(compressed.read_bytes()).decode("utf-8") \
            == plain.read_text()

    def test_gz_result_round_trip(self, tmp_path, small_powerlaw):
        stream = shuffled(small_powerlaw.edges(), seed=3)
        result = HDRFPartitioner(range(4)).partition_stream(stream)
        path = tmp_path / "result.txt.gz"
        write_assignments(path, result.assignments, header="hdrf")
        _assert_file_matches(path, result)

    def test_write_larger_than_one_batch(self, tmp_path):
        count = _WRITE_BATCH + 7
        assignments = {Edge(i, i + count): i % 8 for i in range(count)}
        path = tmp_path / "big.txt"
        assert write_assignments(path, assignments) == count
        u, v, part = read_columns(path)
        assert len(u) == count
        assert (u[-1], v[-1], part[-1]) == (count - 1, 2 * count - 1,
                                            (count - 1) % 8)
        assert _rows(path) == _written(assignments)

    def test_gz_rows_in_file_order(self, tmp_path):
        path = tmp_path / "p.txt.gz"
        write_assignments(path, {Edge(1, 2): 0, Edge(2, 3): 1},
                          header="h")
        assert _rows(path) == [[1, 2], [2, 3], [0, 1]]

    @pytest.mark.parametrize("name", ["p.txt", "p.txt.gz"])
    def test_read_columns_same_grammar(self, tmp_path, name):
        """File order, orientation and duplicates kept; comments, blank
        lines and extra fields skipped — ``from_arrays`` resolves them."""
        path = tmp_path / name
        opener = gzip.open if name.endswith(".gz") else open
        with opener(path, "wt", encoding="utf-8") as handle:
            handle.write("# header\n% other comment\n\n5 2 3 extra\n"
                         "  2 5 1\n-7 9000000000 0\n")
        u, v, part = read_columns(path)
        assert [c.dtype.name for c in (u, v, part)] == ["int64"] * 3
        assert (u.tolist(), v.tolist(), part.tolist()) == (
            [5, 2, -7], [2, 5, 9000000000], [3, 1, 0])
        sharded = ShardedGraph.from_arrays(*read_columns(path))
        assert (sharded.num_vertices, _sizes(sharded)) == (
            4, {0: 1, 1: 1})

    def test_read_columns_names_the_malformed_line(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("1 2 0\n3 4\n")
        with pytest.raises(ValueError, match="'3 4"):
            read_columns(path)
        path.write_text("")
        assert [len(c) for c in read_columns(path)] == [0, 0, 0]

    def test_sharded_graph_reads_gz(self, tmp_path):
        assignments = {Edge(0, 1): 0, Edge(1, 2): 1}
        path = tmp_path / "p.txt.gz"
        write_assignments(path, assignments)
        sharded = ShardedGraph.from_arrays(*read_columns(path))
        assert (sharded.num_vertices, _sizes(sharded)) == (3, {0: 1, 1: 1})


class TestResultRoundTrip:
    def test_file_preserves_metrics(self, tmp_path, small_powerlaw):
        stream = shuffled(small_powerlaw.edges(), seed=3)
        result = HDRFPartitioner(range(4)).partition_stream(stream)
        path = tmp_path / "result.txt"
        write_assignments(path, result.assignments)
        _assert_file_matches(path, result)

    def test_file_names_its_partitions(self, tmp_path):
        path = tmp_path / "p.txt"
        write_assignments(path, {Edge(1, 2): 3, Edge(2, 4): 7})
        sharded = ShardedGraph.from_arrays(*read_columns(path))
        assert sharded.partitions == [3, 7]

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("# nothing\n")
        with pytest.raises(ValueError):
            ShardedGraph.from_arrays(*read_columns(path))


class TestMergedResultRoundTrip:
    """A merged parallel run must survive the persistence boundary."""

    def _parallel_result(self, small_powerlaw, backend="simulated"):
        from repro.partitioning.parallel import (
            ParallelLoader,
            PartitionerSpec,
        )

        loader = ParallelLoader(PartitionerSpec("hdrf"),
                                partitions=list(range(8)),
                                num_instances=4, backend=backend)
        return loader.run(shuffled(small_powerlaw.edges(), seed=3))

    def test_merged_assignments_round_trip(self, tmp_path, small_powerlaw):
        parallel = self._parallel_result(small_powerlaw)
        path = tmp_path / "merged.txt"
        written = write_assignments(path, parallel.assignments)
        assert written == len(parallel.assignments)
        assert _rows(path) == _written(parallel.assignments)

    def test_merged_file_recomputes_metrics(self, tmp_path, small_powerlaw):
        parallel = self._parallel_result(small_powerlaw)
        path = tmp_path / "merged.txt"
        write_assignments(path, parallel.assignments)
        # Metrics are recomputed from the rows — and must equal the
        # merged parallel run's.
        _assert_file_matches(path, parallel)

    def test_process_backend_result_round_trips_identically(
            self, tmp_path, small_powerlaw):
        simulated = self._parallel_result(small_powerlaw)
        process = self._parallel_result(small_powerlaw, backend="process")
        sim_path = tmp_path / "sim.txt"
        proc_path = tmp_path / "proc.txt"
        write_assignments(sim_path, simulated.assignments)
        write_assignments(proc_path, process.assignments)
        assert sim_path.read_text() == proc_path.read_text()
        _assert_file_matches(proc_path, process)

    def test_write_rejects_unwritable_path(self, tmp_path, small_powerlaw):
        merged = self._parallel_result(small_powerlaw)
        with pytest.raises(OSError):
            write_assignments(tmp_path / "missing-dir" / "merged.txt",
                              merged.assignments)

    def test_explicit_partitions_keep_empty_ones(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("1 2 0\n")
        loaded = ShardedGraph.from_arrays(*read_columns(path),
                                          partitions=[0, 1, 2, 3])
        assert _sizes(loaded) == {0: 1, 1: 0, 2: 0, 3: 0}
