"""Tests for repository tooling (EXPERIMENTS.md assembly, profiling)."""

import importlib.util
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "tools", "build_experiments_md.py")


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def builder():
    return _load("build_experiments_md", SCRIPT)


class TestExperimentsBuilder:
    def test_sections_cover_every_paper_artifact(self, builder):
        stems = {stem for stem, _, _ in builder.SECTIONS}
        # Every numbered artifact of the paper must have a section.
        for required in ("table2_graphs", "fig1_landscape",
                         "fig7a_pagerank_brain", "fig7b_pagerank_web",
                         "fig7c_pagerank_orkut", "fig7d_subgraph_brain",
                         "fig7e_coloring_web", "fig7f_clique_orkut",
                         "fig7g_replication_brain", "fig7h_replication_web",
                         "fig7i_replication_orkut", "fig8_spotlight"):
            assert required in stems, required

    def test_every_section_has_commentary(self, builder):
        for stem, title, commentary in builder.SECTIONS:
            assert len(commentary.strip()) > 100, stem
            assert title

    def test_sections_match_bench_files(self, builder):
        """Each figure section corresponds to an actual bench module."""
        bench_dir = os.path.join(ROOT, "benchmarks")
        benches = {name for name in os.listdir(bench_dir)
                   if name.startswith("bench_")}
        for stem, _, _ in builder.SECTIONS:
            if stem.startswith(("fig", "table", "ablation", "window")):
                expected_prefix = f"bench_{stem.split('_')[0]}"
                assert any(b.startswith(expected_prefix) for b in benches), stem


def _cluster_report():
    return {
        "workload": "canned", "num_vertices": 10, "num_edges": 20,
        "num_partitions": 8, "replication": {"hash": 3.0, "adwise": 2.0},
        "results": [{"algorithm": name, "hash_wall_ms": 2.0,
                     "adwise_wall_ms": 1.0, "hash_remote_sync": 30,
                     "adwise_remote_sync": 20, "sync_reduction": 1.5,
                     "parity": True}
                    for name in ("PageRank", "Components")],
        "scaling": [{"backend": backend, "workers": workers,
                     "wall_ms": 1.0, "eps": 1000.0, "parity": True}
                    for backend, workers in (("serial", 1), ("process", 2))],
        "faults": {"checkpoint_every": 8, "checkpoint_ms_each": 0.5,
                   "checkpoints_written": 2, "checkpoint_wall_ms": 1.0,
                   "run_wall_ms": 10.0, "checkpoint_overhead_pct": 10.0,
                   "recovery_wall_ms": 3.0, "supersteps_lost": 1,
                   "replay_wall_ms": 1.0, "recovery_parity": True},
    }


def _service_report():
    return {
        "workload": "canned", "edges_per_tenant": 100, "direct_eps": 2e5,
        "service_eps": 1e5, "service_over_direct": 0.5,
        "tenants": [{"tenant": tenant, "algorithm": algorithm,
                     "p99_ms": 1.0, "latency_ms": 5.0,
                     "replication_degree": 2.5, "parity": True}
                    for tenant, algorithm in (("t-adwise", "adwise"),
                                              ("t-hdrf", "hdrf"))],
    }


def _service_durability():
    return {
        "wal_overhead": {"edges": 100, "nowal_eps": 2e5, "wal_eps": 1e5,
                         "overhead_pct": 50.0, "parity": True},
        "cold_recovery": {"edges": 100, "replayed_batches": 4,
                          "recovery_wall_s": 0.1, "recovery_eps": 1e3,
                          "direct_eps": 2e3, "parity": True},
    }


def _obs_report():
    return {
        "workload": "canned", "edges": 100,
        "results": [{"path": path, "edges": 100, "disabled_eps": 1e5,
                     "enabled_eps": 1e5, "overhead_pct": 0.0,
                     "parity": True}
                    for path in ("adwise-w256", "service-ingest")],
    }


class TestRecordOnlyBenches:
    """``bench_cluster.py``, ``bench_service.py`` and ``bench_obs.py``
    record readings and gate nothing but parity: each exits 0 when every
    parity flag of its report holds, whatever the numbers, and 1 when
    any one of them is false."""

    @staticmethod
    def script(name):
        return _load(f"{name}_under_test",
                     os.path.join(ROOT, "benchmarks", f"{name}.py"))

    @staticmethod
    def force(report, path):
        """Set the parity flag at ``path`` (keys/indices) to False."""
        *parents, flag = path
        for key in parents:
            report = report[key]
        report[flag] = False

    @pytest.mark.parametrize("broken", [
        None,
        ("results", 1, "parity"),
        ("scaling", 1, "parity"),
        ("faults", "recovery_parity"),
    ], ids=["all-hold", "engine", "scaling", "recovery"])
    def test_cluster_exits_on_parity_only(self, broken, monkeypatch, capsys):
        bench = self.script("bench_cluster")
        report = _cluster_report()
        if broken:
            self.force(report, broken)
        monkeypatch.setattr(bench, "run", lambda **_: report)
        assert bench.main(["--smoke", "--faults"]) == (1 if broken else 0)
        assert ("PARITY BROKEN" in capsys.readouterr().out) == bool(broken)

    @pytest.mark.parametrize("broken", [
        None,
        ("tenants", 1, "parity"),
        ("durability", "wal_overhead", "parity"),
        ("durability", "cold_recovery", "parity"),
    ], ids=["all-hold", "tenant", "wal", "recovery"])
    def test_service_exits_on_parity_only(self, broken, monkeypatch, capsys):
        bench = self.script("bench_service")
        report, durability = _service_report(), _service_durability()
        if broken:
            self.force({**report, "durability": durability}, broken)
        monkeypatch.setattr(bench, "run_benchmark", lambda *_: report)
        monkeypatch.setattr(bench, "run_durability", lambda *_: durability)
        assert bench.main(["--smoke", "--durability"]) == (1 if broken else 0)
        out = capsys.readouterr().out
        assert ("PARITY BROKEN" in out) == bool(broken)
        assert out.count("ratio 0.500") == 1

    @pytest.mark.parametrize("broken", [
        None, ("results", 0, "parity"), ("results", 1, "parity"),
    ], ids=["all-hold", "adwise", "service"])
    def test_obs_exits_on_parity_only(self, broken, monkeypatch, capsys):
        bench = self.script("bench_obs")
        report = _obs_report()
        if broken:
            self.force(report, broken)
        monkeypatch.setattr(bench, "run_benchmark", lambda *_: report)
        assert bench.main(["--smoke"]) == (1 if broken else 0)
        assert ("PARITY BROKEN" in capsys.readouterr().out) == bool(broken)

    def test_service_tenant_rows_carry_only_per_tenant_readings(self):
        """One row per distinct tenant configuration; the service/direct
        ratio is recorded once, beside the rows, not in them."""
        bench = self.script("bench_service")
        configs = [(algorithm, sorted(knobs.items()))
                   for algorithm, knobs in bench.TENANTS.values()]
        assert len(configs) == len(set(map(repr, configs)))
        report = bench.run_benchmark(smoke=True, repeats=1, batch_size=256)
        assert [row["tenant"] for row in report["tenants"]] == list(
            bench.TENANTS)
        for row in report["tenants"]:
            assert set(row) == {"tenant", "algorithm", "p99_ms",
                                "latency_ms", "replication_degree", "parity"}
            assert row["parity"], row["tenant"]
        assert report["service_over_direct"] == pytest.approx(
            report["service_eps"] / report["direct_eps"])


class TestProfilePartition:
    """``tools/profile_partition.py``: interning has its own row and its
    own per-batch call count, apart from the transaction's."""

    @pytest.fixture
    def report(self, capsys):
        def run(*argv):
            tool = _load("profile_partition",
                         os.path.join(ROOT, "tools", "profile_partition.py"))
            assert tool.main(["--n", "120", "--m", "3", "--top", "3",
                              *argv]) == 0
            return capsys.readouterr().out
        return run

    @staticmethod
    def layer_rows(out):
        return set(re.findall(r"^  (\S+) +[\d.]+s +[\d.]+%$", out,
                              flags=re.MULTILINE))

    @pytest.mark.parametrize("argv", [
        ("--algorithm", "hdrf", "--blocks"),
        ("--algorithm", "adwise", "--window", "16"),
    ], ids=["hdrf-blocks", "adwise-fixed"])
    def test_stage_is_split_into_intern_and_bind_validate(self, report, argv):
        from repro.core import _kernels
        from repro.partitioning.fast_state import FastPartitionState

        if _kernels.load() is None:
            pytest.skip("compiled kernels unavailable")
        plain = FastPartitionState.dense_rows
        out = report(*argv)
        assert FastPartitionState.dense_rows is plain  # stopwatch removed
        rows = self.layer_rows(out)
        assert {"intern", "bind+validate", "kernel"} <= rows
        assert "stage" not in rows
        # 351 edges: two 256-edge ingests, then finalize.  One intern
        # call per ingest (ADWISE's finalize stages an empty batch too),
        # counted apart from the transaction's entries, which include
        # re-entries after an output list grew.
        batches, interns, transactions = map(int, re.search(
            r"over (\d+) ingest/finalize batches (\d+) intern calls = "
            r"[\d.]+ per batch, (\d+) transaction kernel calls", out).groups())
        assert batches == 3
        assert interns == (2 if "hdrf" in argv else 3)
        assert transactions >= interns

    @pytest.mark.parametrize("order", ["shuffled", "adjacency"])
    def test_pump_row_reads_the_windows_tallies(self, report, order):
        """One line says what the kernel's time is spent on; the
        synthetic file streams in either order (the same edges: the
        admit count does not move, the per-edge work does)."""
        from repro.core import _kernels

        if _kernels.load() is None:
            pytest.skip("compiled kernels unavailable")
        out = report("--algorithm", "adwise", "--window", "16",
                     "--order", order)
        rescored, assembled, cs, agenda = map(float, re.search(
            r"^pump: ([\d.]+) rescored slots per pop \(([\d.]+) "
            r"re-assembled\), ([\d.]+) CS recomputations per edge, "
            r"agenda length ([\d.]+) per pop$", out,
            flags=re.MULTILINE).groups())
        assert "ADWISE over 351 edges" in out
        assert 1.0 <= agenda <= 16.0      # candidates of a 16-edge window
        assert rescored > 0.0 and cs > 0.0
        assert 0.0 < assembled <= rescored

    def test_orders_stream_the_same_edges_differently(self, report):
        degrees = [re.search(r"replication_degree=([\d.]+)", report(
            "--algorithm", "hdrf", "--order", order)).group(1)
            for order in ("shuffled", "adjacency")]
        assert degrees[0] != degrees[1]

    def test_single_edge_kernels_print_no_pump_row(self, report):
        assert "pump:" not in report("--algorithm", "hdrf")

    def test_reference_tier_has_no_intern_row(self, report):
        out = report("--algorithm", "hdrf", "--reference")
        assert "state=PartitionState" in out
        assert self.layer_rows(out) == {"scan", "objects", "convert",
                                        "store", "other"}


class TestRepositoryLayout:
    def test_examples_present_and_runnable_syntax(self):
        examples = os.path.join(ROOT, "examples")
        scripts = [f for f in os.listdir(examples) if f.endswith(".py")]
        assert len(scripts) >= 5
        for script in scripts:
            path = os.path.join(examples, script)
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
            compile(source, path, "exec")  # syntax must be valid
            assert '"""' in source  # every example carries a docstring
            assert "def main()" in source

    def test_one_bench_per_figure(self):
        bench_dir = os.path.join(ROOT, "benchmarks")
        benches = sorted(name for name in os.listdir(bench_dir)
                         if name.startswith("bench_fig7"))
        # Fig. 7 has nine panels (a-i).
        assert len(benches) == 9

    def test_docs_exist(self):
        for doc in ("README.md", "DESIGN.md"):
            path = os.path.join(ROOT, doc)
            assert os.path.exists(path)
            with open(path, "r", encoding="utf-8") as handle:
                assert len(handle.read()) > 1000
