"""Tests for the command-line interface."""

import gzip
import os

import pytest

from repro.cli import build_parser, main
from repro.graph.generators import barabasi_albert_graph
from repro.graph.io import write_graph


#: Small graphs for ``process``'s edge check: dense ids, and ids far
#: apart, negative and past 2**31.
TRIANGLE = "0 1\n1 2\n2 0\n"
SPARSE = "1000000000000 7\n7 -5\n-5 1000000000000\n"


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "graph.txt"
    write_graph(path, barabasi_albert_graph(120, 3, seed=1))
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_partition_defaults(self):
        args = build_parser().parse_args(["partition", "g.txt"])
        assert args.algorithm == "adwise"
        assert args.partitions == 32
        assert args.latency_preference is None

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["partition", "g.txt", "--algorithm", "magic"])

    @pytest.mark.parametrize("args", [["process", "g.txt", "a.txt"],
                                      ["pipeline", "g.txt"]],
                             ids=["process", "pipeline"])
    def test_workloads_are_the_shipped_programs(self, args, capsys):
        """``labelprop`` went with its program: argparse refuses it."""
        with pytest.raises(SystemExit) as refused:
            build_parser().parse_args(args + ["--workload", "labelprop"])
        assert refused.value.code == 2
        assert "invalid choice: 'labelprop'" in capsys.readouterr().err


class TestPartitionCommand:
    @pytest.mark.parametrize("algorithm",
                             ["hash", "grid", "dbh", "hdrf", "greedy",
                              "adwise"])
    def test_each_algorithm_runs(self, graph_file, capsys, algorithm):
        code = main(["partition", graph_file, "--algorithm", algorithm,
                     "--partitions", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "replication degree:" in out
        assert "imbalance:" in out

    def test_adwise_latency_preference(self, graph_file, capsys):
        code = main(["partition", graph_file, "--latency-preference", "20",
                     "--partitions", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "max_window" in out

    def test_no_clustering_flag(self, graph_file, capsys):
        code = main(["partition", graph_file, "--no-clustering",
                     "--partitions", "4"])
        assert code == 0

    def test_output_file_written(self, graph_file, tmp_path, capsys):
        out_path = tmp_path / "assignments.txt"
        code = main(["partition", graph_file, "--partitions", "4",
                     "--output", str(out_path)])
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines
        for line in lines:
            u, v, p = line.split()
            assert 0 <= int(p) < 4

    @pytest.mark.parametrize("workers", [[], ["--workers", "2",
                                              "--backend", "simulated"]],
                             ids=["single", "workers"])
    def test_gz_output_round_trips(self, workers, graph_file, tmp_path,
                                   capsys):
        """A ``.gz`` name means gzip content, which ``process`` reads."""
        plain, packed = (str(tmp_path / name) for name in ("a.txt", "a.gz"))
        for path in (plain, packed):
            assert main(["partition", graph_file, "--algorithm", "hdrf",
                         "--partitions", "4", "--output", path]
                        + workers) == 0
        with gzip.open(packed, "rt") as handle, open(plain) as text:
            assert handle.read() == text.read()
        assert main(["process", graph_file, packed, "--workload",
                     "components"]) == 0
        assert "cluster (serial" in capsys.readouterr().out

    def test_wall_clock_mode(self, graph_file, capsys):
        code = main(["partition", graph_file, "--wall-clock",
                     "--partitions", "4", "--algorithm", "hdrf"])
        assert code == 0
        assert "(wall)" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["partition", "pipeline"])
    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("latency", ["nan", "-1"])
    def test_refused_latency_preference_is_an_error_line(
            self, graph_file, tmp_path, capsys, command, latency, workers):
        """NaN used to exit 0 with the window pinned at 1, and -1 to
        exit 1 with a traceback; both are refused before any edge is
        read, with or without parallel loading."""
        output = tmp_path / "out.parts"
        flag = "--workers" if command == "partition" else "--load-workers"
        code = main([command, graph_file, "--partitions", "4",
                     "--latency-preference", latency, flag, workers,
                     "--output", str(output)])
        assert code == 2
        out, err = capsys.readouterr()
        assert err.startswith("error: latency preference must be")
        assert f"got {float(latency)}" in err
        assert "Traceback" not in err and out == ""
        assert not output.exists()

    @pytest.mark.parametrize("command", ["partition", "pipeline"])
    def test_zero_partitions_is_an_error_line(self, graph_file, capsys,
                                              command):
        """The partitioner's own refusal, which used to surface as a
        traceback."""
        code = main([command, graph_file, "--algorithm", "hdrf",
                     "--partitions", "0"])
        assert code == 2
        out, err = capsys.readouterr()
        assert err == "error: at least one partition required\n"
        assert out == ""

    def test_infinite_latency_preference_is_accepted(self, graph_file,
                                                     capsys):
        assert main(["partition", graph_file, "--partitions", "4",
                     "--latency-preference", "inf"]) == 0
        assert "max_window" in capsys.readouterr().out


class TestParallelPartition:
    def test_workers_backends_identical_output(self, graph_file, tmp_path,
                                               capsys):
        outputs = {}
        for backend in ("process", "simulated"):
            out = tmp_path / f"{backend}.txt"
            code = main(["partition", graph_file, "--algorithm", "hdrf",
                         "--partitions", "8", "--workers", "4",
                         "--backend", backend, "--output", str(out)])
            assert code == 0
            assert f"backend:            {backend}" \
                in capsys.readouterr().out
            outputs[backend] = out.read_text()
        assert outputs["process"] == outputs["simulated"]

    def test_spread_flag_passed_through(self, graph_file, capsys):
        code = main(["partition", graph_file, "--algorithm", "dbh",
                     "--partitions", "8", "--workers", "2",
                     "--backend", "simulated", "--spread", "8"])
        assert code == 0
        assert "spread 8" in capsys.readouterr().out

    def test_parallel_flags_without_workers_rejected(self, graph_file,
                                                     capsys):
        for flags in (["--spread", "4"], ["--backend", "simulated"]):
            code = main(["partition", graph_file, "--algorithm", "hdrf",
                         "--partitions", "8"] + flags)
            assert code == 2
            assert "--workers" in capsys.readouterr().err

    def test_invalid_worker_count_rejected(self, graph_file, capsys):
        code = main(["partition", graph_file, "--workers", "0"])
        assert code == 2
        assert "--workers" in capsys.readouterr().err

    def test_indivisible_default_spread_reported(self, graph_file, capsys):
        code = main(["partition", graph_file, "--algorithm", "hdrf",
                     "--partitions", "7", "--workers", "2",
                     "--backend", "simulated"])
        assert code == 2
        assert "spread" in capsys.readouterr().err


class TestStatsCommand:
    def test_prints_summary_row(self, graph_file, capsys):
        code = main(["stats", graph_file])
        assert code == 0
        out = capsys.readouterr().out
        assert "c-hat" in out
        assert "120" in out

    @pytest.mark.parametrize("sample", ["0", "-1"])
    def test_sample_below_one_rejected(self, graph_file, capsys, sample):
        """Refused by name, exit 2 — not a ZeroDivisionError (0) or
        random.sample's ValueError (-1) from the clustering estimate."""
        code = main(["stats", graph_file, "--sample", sample])
        out, err = capsys.readouterr()
        assert code == 2
        assert err == "error: --sample must be >= 1\n"
        assert not out


@pytest.fixture
def assignments_file(graph_file, tmp_path, capsys):
    path = str(tmp_path / "g.parts")
    assert main(["partition", graph_file, "--algorithm", "hdrf",
                 "--partitions", "4", "--output", path]) == 0
    capsys.readouterr()
    return path


class TestProcessCommand:
    def test_simulated_run(self, graph_file, assignments_file, capsys):
        code = main(["process", graph_file, assignments_file,
                     "--workload", "pagerank", "--iterations", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "simulated latency:" in out

    def test_cluster_serial_run(self, graph_file, assignments_file,
                                capsys):
        code = main(["process", graph_file, assignments_file,
                     "--workload", "components"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cluster (serial" in out
        assert "measured wall:" in out
        assert "sync messages:" in out

    def test_cluster_run_prints_measured_unit_costs(
            self, graph_file, assignments_file, capsys):
        """The compute / exchange split and what a slot and a message
        cost here, from the telemetry the report carries."""
        import re

        assert main(["process", graph_file, assignments_file,
                     "--workload", "pagerank", "--iterations", "4"]) == 0
        out = capsys.readouterr().out
        split = re.search(r"^compute \+ exchange:  ([\d.]+) ms \+ "
                          r"([\d.]+) ms$", out, re.M)
        wall = re.search(r"^measured wall:       ([\d.]+) ms$", out, re.M)
        assert split and wall
        assert (0 < float(split[1]) + float(split[2])
                <= float(wall[1]) + 0.01)
        slot = re.search(r"^compute cost:        ([\d.]+) ns per adjacency "
                         r"slot$", out, re.M)
        message = re.search(r"^exchange cost:       ([\d.]+) ns per sync "
                            r"message$", out, re.M)
        assert slot and float(slot[1]) > 0
        assert message and float(message[1]) > 0

    def test_unsharded_fallback_prints_no_unit_costs(
            self, graph_file, assignments_file, capsys):
        assert main(["process", graph_file, assignments_file,
                     "--workload", "coloring", "--iterations", "10"]) == 0
        out = capsys.readouterr().out
        assert "compute cost:" not in out and "exchange cost:" not in out

    def test_cluster_process_run(self, graph_file, assignments_file,
                                 capsys):
        code = main(["process", graph_file, assignments_file,
                     "--workload", "pagerank", "--iterations", "4",
                     "--cluster-backend", "process",
                     "--workers", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cluster (process" in out
        assert "2 machines" in out

    def test_cluster_fallback_noted(self, graph_file, assignments_file,
                                    capsys):
        code = main(["process", graph_file, assignments_file,
                     "--workload", "coloring", "--iterations", "10"])
        assert code == 0
        assert "unsharded fallback" in capsys.readouterr().out

    @pytest.mark.parametrize("workload",
                             ["pagerank", "components", "coloring"])
    def test_matches_a_direct_cluster_run(self, graph_file,
                                          assignments_file, capsys,
                                          workload):
        """What ``process`` prints is a serial ``ClusterEngine`` on 8
        machines over the file's rows, run for ``--iterations`` + 2
        supersteps at most."""
        from repro.cluster import ClusterEngine
        from repro.engine.algorithms import (
            ConnectedComponents,
            GreedyColoring,
            PageRank,
        )
        from repro.engine.cost import cost_model_for
        from repro.graph.shard import ShardedGraph
        from repro.partitioning.partition_io import read_columns

        assert main(["process", graph_file, assignments_file,
                     "--workload", workload, "--iterations", "6"]) == 0
        printed = dict(line.split(":", 1) for line in
                       capsys.readouterr().out.splitlines())
        program = {"pagerank": PageRank(iterations=6),
                   "components": ConnectedComponents(),
                   "coloring": GreedyColoring(max_iterations=6)}[workload]
        engine = ClusterEngine(
            ShardedGraph.from_arrays(*read_columns(assignments_file)),
            cost_model_for("coloring" if workload == "coloring"
                           else "pagerank"), num_machines=8)
        report = engine.run(program, max_supersteps=8)
        expected = {
            "supersteps": str(report.supersteps),
            "messages sent": str(report.messages_sent),
            "simulated latency": f"{report.latency_ms:.2f} ms",
            "replication degree":
                f"{engine.placement.stats().replication_degree:.4f}"}
        assert {name: printed[name].strip()
                for name in expected} == expected

    def test_self_loop_rows_round_trip(self, tmp_path, capsys):
        """``partition`` writes a row for each self-loop line; ``process``
        of that file against the graph it came from runs the graph's
        edges, as ``read_graph`` sees them."""
        graph = tmp_path / "loops.txt"
        write_graph(graph, barabasi_albert_graph(60, 3, seed=2))
        with open(graph, "a") as handle:
            handle.write("5 5\n9999 9999\n")
        parts = str(tmp_path / "loops.parts")
        assert main(["partition", str(graph), "--algorithm", "hdrf",
                     "--partitions", "4", "--output", parts]) == 0
        with open(parts) as handle:
            assert any(line.startswith("9999 9999 ") for line in handle)
        capsys.readouterr()
        assert main(["process", str(graph), parts,
                     "--workload", "components"]) == 0
        out, err = capsys.readouterr()
        assert "converged:           True" in out and not err

    def test_checkpointed_run_resumes(self, graph_file, assignments_file,
                                      tmp_path, capsys):
        """``--checkpoint-every`` needs no other flag; ``resume`` of the
        directory replays from the last checkpoint to the same end."""
        ckpt = str(tmp_path / "ckpt")
        assert main(["process", graph_file, assignments_file,
                     "--iterations", "5", "--checkpoint-every", "2",
                     "--checkpoint-dir", ckpt]) == 0
        first = capsys.readouterr().out
        assert "checkpoints:" in first
        assert main(["resume", ckpt]) == 0
        resumed = capsys.readouterr().out

        def lines(out):
            return [line for line in out.splitlines() if line.startswith(
                ("supersteps:", "messages sent:", "simulated latency:"))]

        assert len(lines(first)) == 3
        assert lines(resumed) == lines(first)

    def test_workers_without_process_backend_rejected(
            self, graph_file, assignments_file, capsys):
        code = main(["process", graph_file, assignments_file,
                     "--workers", "2"])
        assert code == 2
        assert "--workers" in capsys.readouterr().err

    def test_zero_workers_rejected(self, graph_file, assignments_file,
                                   capsys):
        code = main(["process", graph_file, assignments_file,
                     "--cluster-backend", "process",
                     "--workers", "0"])
        assert code == 2
        assert "--workers" in capsys.readouterr().err

    def test_machines_with_process_cluster_rejected(
            self, graph_file, assignments_file, capsys):
        code = main(["process", graph_file, assignments_file,
                     "--cluster-backend", "process",
                     "--machines", "4"])
        assert code == 2
        assert "--machines" in capsys.readouterr().err

    @pytest.mark.parametrize("graph, rows, message", [
        (TRIANGLE, "", "graph edge (0, 1) has no row (0 edges in the file, "
         "3 in"),
        (TRIANGLE, "# header only\n",
         "graph edge (0, 1) has no row (0 edges in the file, 3 in"),
        (TRIANGLE, "0 1 0\n1 2 1\n",
         "graph edge (0, 2) has no row (2 edges in the file, 3 in"),
        (TRIANGLE, "0 1 0\n1 2 1\n2 0 1\n7 8 2\n",
         "row (7, 8) is not a graph edge (4 edges in the file, 3 in"),
        (SPARSE, "7 1000000000000 0\n-5 7 1\n",
         "graph edge (-5, 1000000000000) has no row (2 edges in the file, "
         "3 in"),
        (SPARSE, "1000000000000 7 0\n7 -5 1\n-5 1000000000000 1\n"
         "1099511627776 3 2\n",
         "row (3, 1099511627776) is not a graph edge (4 edges in the file, "
         "3 in"),
    ], ids=["empty", "header-only", "missing", "extra", "sparse-missing",
            "sparse-extra"])
    def test_assignment_file_must_cover_the_graph(self, tmp_path, capsys,
                                                  graph, rows, message):
        """The file's canonical edges must be the graph's: the cluster
        runs the file's rows.  Ids far apart, negative and past 2**31
        are named as they are, the rows in either orientation."""
        graph_path = tmp_path / "graph.txt"
        graph_path.write_text(graph)
        parts = tmp_path / "graph.parts"
        parts.write_text(rows)
        code = main(["process", str(graph_path), str(parts)])
        out, err = capsys.readouterr()
        assert code == 2
        assert err.startswith("error: assignment file does not match "
                              "the graph: ")
        assert message in err
        assert not out

    def test_sparse_ids_cover_the_graph(self, tmp_path, capsys):
        """Reversed and repeated rows over sparse ids still cover it."""
        graph = tmp_path / "sparse.txt"
        graph.write_text(SPARSE)
        parts = tmp_path / "sparse.parts"
        parts.write_text("7 1000000000000 0\n-5 7 1\n"
                         "1000000000000 -5 1\n7 -5 0\n")
        assert main(["process", str(graph), str(parts),
                     "--iterations", "2"]) == 0
        assert "supersteps" in capsys.readouterr().out

    def test_zero_machines_rejected_before_partitioning(
            self, graph_file, tmp_path, capsys):
        output = tmp_path / "p.parts"
        code = main(["pipeline", graph_file, "--partitions", "4",
                     "--machines", "0", "--output", str(output)])
        assert code == 2
        out, err = capsys.readouterr()
        assert "error: --machines must be >= 1" in err
        assert "partitioned:" not in out
        assert not output.exists()

    @pytest.mark.parametrize("iterations", ["0", "-3"])
    @pytest.mark.parametrize("workload",
                             ["pagerank", "components", "coloring"])
    def test_iterations_below_one_rejected_before_partitioning(
            self, graph_file, capsys, workload, iterations):
        code = main(["pipeline", graph_file, "--partitions", "4",
                     "--workload", workload, "--iterations", iterations])
        out, err = capsys.readouterr()
        assert code == 2
        assert err == "error: --iterations must be >= 1\n"
        assert "partitioned:" not in out
        assert not os.path.exists(graph_file + ".parts")

    def test_pipeline_validates_flags_before_partitioning(
            self, graph_file, capsys):
        """Static flag errors must fire before the (expensive)
        partitioning stage runs."""
        code = main(["pipeline", graph_file, "--partitions", "4",
                     "--workers", "2"])
        assert code == 2
        out, err = capsys.readouterr()
        assert "--workers" in err
        assert "partitioned:" not in out

    @pytest.mark.parametrize("iterations", ["0", "-3"])
    @pytest.mark.parametrize("workload",
                             ["pagerank", "components", "coloring"])
    def test_iterations_below_one_rejected(self, graph_file,
                                           assignments_file, capsys,
                                           workload, iterations):
        """Refused by name, exit 2, before the graph is read — not a
        traceback from the program's constructor, and not a silent run
        of two supersteps."""
        code = main(["process", graph_file, assignments_file,
                     "--workload", workload, "--iterations", iterations])
        out, err = capsys.readouterr()
        assert code == 2
        assert err == "error: --iterations must be >= 1\n"
        assert not out


class TestPipelineCommand:
    def test_chains_partition_and_process(self, graph_file, tmp_path,
                                          capsys):
        out_path = str(tmp_path / "pipeline.parts")
        code = main(["pipeline", graph_file, "--algorithm", "hdrf",
                     "--partitions", "4", "--workload", "pagerank",
                     "--iterations", "5", "--output", out_path])
        assert code == 0
        out = capsys.readouterr().out
        assert "partitioned:" in out
        assert f"assignments written: {out_path}" in out
        assert "simulated latency:" in out
        # The persisted file round-trips through the process command.
        assert main(["process", graph_file, out_path]) == 0

    def test_cluster_pipeline_with_gz(self, graph_file, tmp_path, capsys):
        out_path = str(tmp_path / "pipeline.parts.gz")
        code = main(["pipeline", graph_file, "--algorithm", "adwise",
                     "--partitions", "4", "--workload", "components",
                     "--output", out_path])
        assert code == 0
        out = capsys.readouterr().out
        assert "cluster (serial" in out
        import gzip
        with gzip.open(out_path, "rt") as handle:
            assert "# algorithm=adwise" in handle.readline()

    def test_parallel_loading_stage(self, graph_file, tmp_path, capsys):
        code = main(["pipeline", graph_file, "--algorithm", "hdrf",
                     "--partitions", "4", "--load-workers", "2",
                     "--output", str(tmp_path / "p.parts"),
                     "--workload", "components"])
        assert code == 0
        assert "cluster (serial" in capsys.readouterr().out

    def test_self_loop_lines(self, tmp_path, capsys):
        """A self-loop line is partitioned and written like any other,
        then left out of processing: supersteps and messages are the
        loop-free file's."""
        graph = barabasi_albert_graph(70, 3, seed=3)
        plain, looped = tmp_path / "plain.txt", tmp_path / "looped.txt"
        write_graph(plain, graph)
        write_graph(looped, graph)
        with open(looped, "a") as handle:
            handle.write("5 5\n9999 9999\n")

        def run(path):
            parts = f"{path}.parts"
            assert main(["pipeline", str(path), "--algorithm", "hdrf",
                         "--partitions", "4", "--iterations", "5",
                         "--output", parts]) == 0
            out = capsys.readouterr().out
            return [line for line in out.splitlines()
                    if line.startswith(("supersteps:", "messages sent:"))]

        expected = run(plain)
        assert len(expected) == 2
        assert run(looped) == expected
        with open(f"{looped}.parts") as handle:
            rows = handle.read().splitlines()
        assert any(row.startswith("5 5 ") for row in rows)
        assert any(row.startswith("9999 9999 ") for row in rows)

    @pytest.mark.parametrize("flag", [["--mode", "dense"], ["--cluster"]],
                             ids=["mode", "cluster"])
    @pytest.mark.parametrize("command", ["process", "pipeline"])
    def test_no_engine_selection_flags(self, command, flag, graph_file,
                                       capsys):
        """Processing has one engine, the cluster: argparse refuses the
        flags that chose another, and --help does not offer them."""
        import re

        files = [graph_file] * (2 if command == "process" else 1)
        with pytest.raises(SystemExit) as refused:
            main([command, *files, *flag])
        assert refused.value.code == 2
        assert "error: " in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert not re.search(r"--(mode|cluster)\b(?!-)",
                             capsys.readouterr().out)

    @pytest.mark.parametrize("flag", ["--cluster", "--cluster-b",
                                      "--cluster-backen"])
    @pytest.mark.parametrize("command", ["process", "pipeline"])
    def test_option_prefixes_refused(self, command, flag, graph_file,
                                     capsys):
        """Options are matched whole: a prefix of --cluster-backend is
        an unrecognised argument (exit 2 before anything runs), not the
        option itself."""
        files = [graph_file] * (2 if command == "process" else 1)
        with pytest.raises(SystemExit) as refused:
            main([command, *files, flag, "serial"])
        assert refused.value.code == 2
        out, err = capsys.readouterr()
        assert f"unrecognized arguments: {flag} serial" in err
        assert not out
        assert not os.path.exists(graph_file + ".parts")

    def test_default_output_next_to_input(self, graph_file, capsys):
        code = main(["pipeline", graph_file, "--algorithm", "hash",
                     "--partitions", "4", "--workload", "components"])
        assert code == 0
        assert f"{graph_file}.parts" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["partition", "pipeline"])
    def test_no_fast_flag(self, command, graph_file, capsys):
        """The tier is chosen by what the machine can run, not by flag."""
        with pytest.raises(SystemExit):
            main([command, graph_file, "--fast"])
        assert "unrecognized arguments: --fast" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert "--fast" not in capsys.readouterr().out

    def test_spread_without_load_workers_rejected(self, graph_file,
                                                  capsys):
        code = main(["pipeline", graph_file, "--partitions", "4",
                     "--spread", "2"])
        assert code == 2
        assert "--load-workers" in capsys.readouterr().err


class TestServeAndClient:
    """serve + client subcommands against a real daemon."""

    def _boot(self, extra_args=None):
        """Start a daemon thread directly (run_service is what the
        serve subcommand wraps); returns (port, thread)."""
        import threading

        from repro.service.server import run_service

        ready = threading.Event()
        box = {}

        def on_ready(service):
            box["port"] = service.port
            ready.set()

        kwargs = dict(port=0, ready_callback=on_ready)
        kwargs.update(extra_args or {})
        thread = threading.Thread(target=run_service, kwargs=kwargs,
                                  daemon=True)
        thread.start()
        assert ready.wait(10), "daemon did not come up"
        return box["port"], thread

    def _shutdown(self, port, thread):
        from repro.service.client import ServiceClient

        with ServiceClient(port=port) as client:
            client.shutdown()
        thread.join(10)

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 7733
        assert args.max_tenants == 64
        assert args.queue_depth == 16
        assert args.wal_dir is None

    def test_serve_rejects_bad_limits(self, capsys):
        assert main(["serve", "--max-tenants", "0"]) == 2
        assert "--max-tenants" in capsys.readouterr().err

    def test_serve_announces_bound_port(self, capsys):
        """The serve subcommand prints the OS-assigned port (--port 0)."""
        import re
        import threading

        from _async_utils import wait_until
        from repro.service.client import ServiceClient

        thread = threading.Thread(
            target=main, args=(["serve", "--port", "0"],), daemon=True)
        thread.start()
        seen = {"text": ""}

        def announced():
            seen["text"] += capsys.readouterr().out
            return re.search(r"listening on .*:(\d+)", seen["text"])

        wait_until(lambda: announced() is not None,
                   message="serve to announce its port")
        port = int(re.search(r"listening on .*:(\d+)",
                             seen["text"]).group(1))
        with ServiceClient(port=port) as client:
            assert client.ping()["pong"] is True
            client.shutdown()
        thread.join(10)
        wait_until(lambda: not thread.is_alive(),
                   message="serve thread to exit after shutdown")

    def test_client_defaults(self):
        args = build_parser().parse_args(["client", "g.txt"])
        assert args.tenant == "cli"
        assert args.algorithm == "adwise"
        assert args.batch_size == 512

    def test_client_streams_file_and_finalizes(self, graph_file, capsys):
        port, thread = self._boot()
        try:
            code = main(["client", graph_file, "--port", str(port),
                         "--partitions", "4", "--batch-size", "64",
                         "--latency-preference", "20"])
            assert code == 0
            out = capsys.readouterr().out
            assert "replication degree:" in out
            assert "finalized:" in out
        finally:
            self._shutdown(port, thread)

    def test_client_keep_open_leaves_tenant(self, graph_file, capsys):
        from repro.service.client import ServiceClient

        port, thread = self._boot()
        try:
            code = main(["client", graph_file, "--port", str(port),
                         "--algorithm", "hdrf", "--partitions", "4",
                         "--keep-open"])
            assert code == 0
            assert "finalized:" not in capsys.readouterr().out
            with ServiceClient(port=port) as probe:
                assert [t["tenant"] for t in probe.tenants()] == ["cli"]
        finally:
            self._shutdown(port, thread)

    def test_client_against_dead_daemon_fails_cleanly(self, graph_file,
                                                      capsys):
        import socket

        # Find a port with nothing listening on it.
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        code = main(["client", graph_file, "--port", str(free_port)])
        assert code == 2
        assert "error:" in capsys.readouterr().err
