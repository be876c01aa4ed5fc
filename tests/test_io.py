"""Unit tests for edge-list IO."""

import pytest

from repro.graph.graph import Edge, Graph
from repro.graph.io import (
    count_edges,
    iter_edge_file,
    parse_edge_line,
    read_graph,
    write_edges,
    write_graph,
)


class TestParseEdgeLine:
    def test_parses_pair(self):
        assert parse_edge_line("3 7\n") == Edge(3, 7)

    def test_ignores_blank(self):
        assert parse_edge_line("   \n") is None

    def test_ignores_hash_comment(self):
        assert parse_edge_line("# header\n") is None

    def test_ignores_percent_comment(self):
        assert parse_edge_line("% konect header\n") is None

    def test_tolerates_extra_columns(self):
        assert parse_edge_line("1 2 1.5\n") == Edge(1, 2)

    def test_rejects_single_token(self):
        with pytest.raises(ValueError):
            parse_edge_line("42\n")

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError):
            parse_edge_line("a b\n")

    @pytest.mark.parametrize("line", [
        "#", "%", "# 1 2", "#1 2", "% 1 2", "%1 2", "#comment", "%comment",
        "  # indented", "\t% indented", "# 7", "#\r\n", "", " ", "\t",
        "   \n", "\r\n", " \t \r\n"])
    def test_comments_and_blanks_are_not_edges(self, line):
        assert parse_edge_line(line) is None

    @pytest.mark.parametrize("line,edge", [
        ("3 7", (3, 7)), ("3 7\n", (3, 7)), ("3 7\r\n", (3, 7)),
        ("3\t7\n", (3, 7)), ("  3   7  \n", (3, 7)), ("7 3", (7, 3)),
        ("-3 7", (-3, 7)), ("+3 7", (3, 7)), ("5 5", (5, 5)),
        ("1 2 0.5", (1, 2)), ("1 2 # trailing", (1, 2)),
        ("1 2 x y z\r\n", (1, 2)),
        (f"{2**40} {2**70}", (2**40, 2**70))])
    def test_edge_lines(self, line, edge):
        """Two integers, any whitespace around them, any line ending;
        further columns (weights, timestamps) are ignored.  The result is
        a real :class:`Edge`, built without its ``__new__``."""
        parsed = parse_edge_line(line)
        assert type(parsed) is Edge and parsed == edge
        assert (parsed.u, parsed.v) == edge
        assert parsed.canonical() == Edge(min(edge), max(edge))

    @pytest.mark.parametrize("line", [
        "7", "7\n", "a b", "a b\n", "1 b", "a 2", "1.5 2", "1 2.0",
        "1 #2", "1, 2", "0x1 2", "1 # 2"])
    def test_malformed_lines_are_refused_by_name(self, line):
        with pytest.raises(ValueError) as refused:
            parse_edge_line(line)
        assert str(refused.value) == f"malformed edge line: {line!r}"


class TestFileRoundTrip:
    def test_write_then_read(self, tmp_path, two_triangles):
        path = tmp_path / "g.txt"
        written = write_graph(path, two_triangles, header="test graph")
        assert written == two_triangles.num_edges
        loaded = read_graph(path)
        assert loaded.num_edges == two_triangles.num_edges
        assert set(loaded.edges()) == set(two_triangles.edges())

    def test_count_edges_ignores_comments(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# header\n1 2\n\n2 3\n% trailer\n")
        assert count_edges(path) == 2

    def test_iter_edge_file_is_the_line_parser(self, tmp_path):
        """Comments with and without a space, blank and whitespace-only
        lines, CRLF, weights — and a malformed line named from the
        reader too, after the edges before it were yielded."""
        path = tmp_path / "mixed.txt"
        path.write_bytes(b"# header\r\n%konect\r\n\r\n1 2\r\n   \r\n"
                         b"3\t4 0.25\r\n#5 6\r\n7 8")
        assert list(iter_edge_file(path)) == [Edge(1, 2), Edge(3, 4),
                                              Edge(7, 8)]
        assert count_edges(path) == 3
        path.write_text("1 2\n7\n3 4\n")
        reader = iter_edge_file(path)
        assert next(reader) == Edge(1, 2)
        with pytest.raises(ValueError, match="malformed edge line: '7"):
            next(reader)

    def test_iter_edge_file_streams(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("1 2\n3 4\n")
        assert list(iter_edge_file(path)) == [Edge(1, 2), Edge(3, 4)]

    def test_read_graph_skips_self_loops(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("1 1\n1 2\n")
        graph = read_graph(path)
        assert graph.num_edges == 1

    def test_write_edges_header_lines(self, tmp_path):
        path = tmp_path / "g.txt"
        write_edges(path, [(1, 2)], header="line one\nline two")
        text = path.read_text()
        assert text.startswith("# line one\n# line two\n")
        assert count_edges(path) == 1
