"""Tests for the command-line interface."""

import gzip

import pytest

from repro.cli import build_parser, main
from repro.graph.generators import barabasi_albert_graph
from repro.graph.io import write_graph


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
                     "components", "--cluster"]) == 0
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
        assert "mode:                dense" in out

    def test_cluster_serial_run(self, graph_file, assignments_file,
                                capsys):
        code = main(["process", graph_file, assignments_file,
                     "--workload", "components", "--cluster"])
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
                     "--workload", "pagerank", "--iterations", "4",
                     "--cluster"]) == 0
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
                     "--workload", "coloring", "--iterations", "10",
                     "--cluster"]) == 0
        out = capsys.readouterr().out
        assert "compute cost:" not in out and "exchange cost:" not in out

    def test_cluster_process_run(self, graph_file, assignments_file,
                                 capsys):
        code = main(["process", graph_file, assignments_file,
                     "--workload", "pagerank", "--iterations", "4",
                     "--cluster", "--cluster-backend", "process",
                     "--workers", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cluster (process" in out
        assert "2 machines" in out

    def test_cluster_fallback_noted(self, graph_file, assignments_file,
                                    capsys):
        code = main(["process", graph_file, assignments_file,
                     "--workload", "coloring", "--iterations", "10",
                     "--cluster"])
        assert code == 0
        assert "unsharded fallback" in capsys.readouterr().out

    def test_workers_without_process_backend_rejected(
            self, graph_file, assignments_file, capsys):
        code = main(["process", graph_file, assignments_file,
                     "--cluster", "--workers", "2"])
        assert code == 2
        assert "--workers" in capsys.readouterr().err

    def test_cluster_backend_without_cluster_rejected(
            self, graph_file, assignments_file, capsys):
        code = main(["process", graph_file, assignments_file,
                     "--cluster-backend", "process"])
        assert code == 2
        assert "--cluster-backend" in capsys.readouterr().err

    def test_zero_workers_rejected(self, graph_file, assignments_file,
                                   capsys):
        code = main(["process", graph_file, assignments_file,
                     "--cluster", "--cluster-backend", "process",
                     "--workers", "0"])
        assert code == 2
        assert "--workers" in capsys.readouterr().err

    def test_mode_with_cluster_rejected(self, graph_file,
                                        assignments_file, capsys):
        code = main(["process", graph_file, assignments_file,
                     "--cluster", "--mode", "object"])
        assert code == 2
        assert "--mode" in capsys.readouterr().err

    def test_machines_with_process_cluster_rejected(
            self, graph_file, assignments_file, capsys):
        code = main(["process", graph_file, assignments_file,
                     "--cluster", "--cluster-backend", "process",
                     "--machines", "4"])
        assert code == 2
        assert "--machines" in capsys.readouterr().err

    @pytest.mark.parametrize("rows, message", [
        ("", "graph edge (0, 1) has no row (0 edges in the file, 3 in"),
        ("# header only\n",
         "graph edge (0, 1) has no row (0 edges in the file, 3 in"),
        ("0 1 0\n1 2 1\n",
         "graph edge (0, 2) has no row (2 edges in the file, 3 in"),
        ("0 1 0\n1 2 1\n2 0 1\n7 8 2\n",
         "row (7, 8) is not a graph edge (4 edges in the file, 3 in"),
    ], ids=["empty", "header-only", "missing", "extra"])
    @pytest.mark.parametrize("engine", [[], ["--cluster"]],
                             ids=["simulated", "cluster"])
    def test_assignment_file_must_cover_the_graph(self, tmp_path, capsys,
                                                  rows, message, engine):
        """The file's canonical edges must be the graph's, on either
        engine: the simulator runs the graph's edges, the cluster the
        file's."""
        graph = tmp_path / "triangle.txt"
        graph.write_text("0 1\n1 2\n2 0\n")
        parts = tmp_path / "triangle.parts"
        parts.write_text(rows)
        code = main(["process", str(graph), str(parts)] + engine)
        out, err = capsys.readouterr()
        assert code == 2
        assert err.startswith("error: assignment file does not match "
                              "the graph: ")
        assert message in err
        assert not out

    @pytest.mark.parametrize("cluster", [[], ["--cluster"]])
    def test_zero_machines_rejected_before_partitioning(
            self, graph_file, tmp_path, capsys, cluster):
        output = tmp_path / "p.parts"
        code = main(["pipeline", graph_file, "--partitions", "4",
                     "--machines", "0", "--output", str(output)] + cluster)
        assert code == 2
        out, err = capsys.readouterr()
        assert "error: --machines must be >= 1" in err
        assert "partitioned:" not in out
        assert not output.exists()

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

    def test_cluster_matches_simulated_metrics(
            self, graph_file, assignments_file, capsys):
        """Same workload: supersteps/messages/simulated latency agree
        between the simulator and the sharded runtime."""
        assert main(["process", graph_file, assignments_file,
                     "--workload", "components"]) == 0
        simulated = capsys.readouterr().out
        assert main(["process", graph_file, assignments_file,
                     "--workload", "components", "--cluster"]) == 0
        cluster = capsys.readouterr().out

        def metric(text, name):
            for line in text.splitlines():
                if line.startswith(name):
                    # Value only ("15.66 ms (8 machines)" -> "15.66").
                    return line.split(":", 1)[1].strip().split(" ")[0]
            raise AssertionError(f"{name} not in output")

        for name in ("supersteps", "messages sent", "simulated latency"):
            assert metric(simulated, name) == metric(cluster, name)


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
                     "--cluster", "--output", out_path])
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
                     "--workload", "components", "--cluster"])
        assert code == 0
        assert "cluster (serial" in capsys.readouterr().out

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
