"""Tests for persisting and reloading partitionings."""

import gzip

import pytest

from repro.graph.graph import Edge
from repro.graph.stream import shuffled
from repro.partitioning.hdrf import HDRFPartitioner
from repro.partitioning.partition_io import (
    _WRITE_BATCH,
    iter_assignments,
    load_result,
    read_assignments,
    read_columns,
    save_result,
    write_assignments,
)


class TestRoundTrip:
    def test_write_then_read(self, tmp_path):
        assignments = {Edge(1, 2): 0, Edge(2, 3): 1}
        path = tmp_path / "p.txt"
        written = write_assignments(path, assignments, header="test")
        assert written == 2
        assert read_assignments(path) == assignments

    def test_comments_ignored(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("# header\n1 2 0\n% other\n2 3 1\n")
        assert read_assignments(path) == {Edge(1, 2): 0, Edge(2, 3): 1}

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("1 2\n")
        with pytest.raises(ValueError):
            read_assignments(path)

    def test_non_canonical_edges_canonicalised(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("5 2 3\n")
        assert read_assignments(path) == {Edge(2, 5): 3}


class TestGzipAndBatching:
    """Transparent ``.gz`` support and batched ``writelines`` writes."""

    def test_gz_write_then_read(self, tmp_path):
        assignments = {Edge(1, 2): 0, Edge(2, 3): 1, Edge(3, 4): 0}
        path = tmp_path / "p.txt.gz"
        written = write_assignments(path, assignments, header="compressed")
        assert written == 3
        assert read_assignments(path) == assignments
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

    def test_gz_save_load_result(self, tmp_path, small_powerlaw):
        stream = shuffled(small_powerlaw.edges(), seed=3)
        result = HDRFPartitioner(range(4)).partition_stream(stream)
        path = tmp_path / "result.txt.gz"
        save_result(path, result)
        loaded = load_result(path, partitions=range(4))
        assert loaded.assignments == result.assignments

    def test_write_larger_than_one_batch(self, tmp_path):
        count = _WRITE_BATCH + 7
        assignments = {Edge(i, i + count): i % 8 for i in range(count)}
        path = tmp_path / "big.txt"
        assert write_assignments(path, assignments) == count
        assert len(read_assignments(path)) == count

    def test_iter_assignments_streams_triples(self, tmp_path):
        path = tmp_path / "p.txt.gz"
        write_assignments(path, {Edge(1, 2): 0, Edge(2, 3): 1},
                          header="h")
        assert list(iter_assignments(path)) == [(1, 2, 0), (2, 3, 1)]

    def test_iter_assignments_malformed_raises(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("1 2\n")
        with pytest.raises(ValueError):
            list(iter_assignments(path))

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
        assert read_assignments(path) == {Edge(2, 5): 1,
                                          Edge(-7, 9000000000): 0}

    def test_read_columns_names_the_malformed_line(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("1 2 0\n3 4\n")
        with pytest.raises(ValueError, match="'3 4"):
            read_columns(path)
        path.write_text("")
        assert [len(c) for c in read_columns(path)] == [0, 0, 0]

    def test_sharded_graph_reads_gz(self, tmp_path):
        from repro.graph.shard import ShardedGraph
        assignments = {Edge(0, 1): 0, Edge(1, 2): 1}
        path = tmp_path / "p.txt.gz"
        write_assignments(path, assignments)
        sharded = ShardedGraph.from_file(path)
        assert sharded.assignments == assignments


class TestResultRoundTrip:
    def test_save_and_load_preserves_metrics(self, tmp_path, small_powerlaw):
        stream = shuffled(small_powerlaw.edges(), seed=3)
        result = HDRFPartitioner(range(4)).partition_stream(stream)
        path = tmp_path / "result.txt"
        save_result(path, result)
        loaded = load_result(path, partitions=range(4))
        assert loaded.assignments == result.assignments
        assert loaded.replication_degree == pytest.approx(
            result.replication_degree)
        assert loaded.imbalance == pytest.approx(result.imbalance)

    def test_load_infers_partitions(self, tmp_path):
        path = tmp_path / "p.txt"
        write_assignments(path, {Edge(1, 2): 3, Edge(2, 4): 7})
        loaded = load_result(path)
        assert set(loaded.state.partitions) == {3, 7}

    def test_load_empty_file_raises(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("# nothing\n")
        with pytest.raises(ValueError):
            load_result(path)

    def test_header_contains_provenance(self, tmp_path, small_powerlaw):
        stream = shuffled(small_powerlaw.edges(), seed=3)
        result = HDRFPartitioner(range(4)).partition_stream(stream)
        path = tmp_path / "result.txt"
        save_result(path, result)
        first_line = path.read_text().splitlines()[0]
        assert "algorithm=HDRF" in first_line
        assert "replication_degree=" in first_line


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
        assert read_assignments(path) == parallel.assignments

    def test_save_load_merged_result_recomputes_metrics(self, tmp_path,
                                                        small_powerlaw):
        parallel = self._parallel_result(small_powerlaw)
        path = tmp_path / "merged.txt"
        save_result(path, parallel)
        loaded = load_result(path, partitions=list(range(8)))
        assert loaded.assignments == parallel.assignments
        # Metrics are replayed, not trusted from the header — and must
        # equal the merged parallel run's.
        assert loaded.replication_degree == \
            pytest.approx(parallel.replication_degree)
        assert loaded.imbalance == pytest.approx(parallel.imbalance)

    def test_process_backend_result_round_trips_identically(
            self, tmp_path, small_powerlaw):
        simulated = self._parallel_result(small_powerlaw)
        process = self._parallel_result(small_powerlaw, backend="process")
        sim_path = tmp_path / "sim.txt"
        proc_path = tmp_path / "proc.txt"
        write_assignments(sim_path, simulated.assignments)
        write_assignments(proc_path, process.assignments)
        assert sim_path.read_text() == proc_path.read_text()

    def test_save_result_rejects_unwritable_path(self, tmp_path,
                                                 small_powerlaw):
        merged = self._parallel_result(small_powerlaw)
        with pytest.raises(OSError):
            save_result(tmp_path / "missing-dir" / "merged.txt", merged)

    def test_load_result_with_explicit_partitions_keeps_empty_ones(
            self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("1 2 0\n")
        loaded = load_result(path, partitions=[0, 1, 2, 3])
        assert loaded.state.partition_edges == {0: 1, 1: 0, 2: 0, 3: 0}
