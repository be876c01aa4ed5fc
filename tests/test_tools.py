"""Tests for repository tooling (EXPERIMENTS.md assembly, bench gates)."""

import importlib.util
import json
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "tools", "build_experiments_md.py")
REGRESSION_SCRIPT = os.path.join(ROOT, "tools", "check_bench_regression.py")


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def builder():
    return _load("build_experiments_md", SCRIPT)


@pytest.fixture
def regression():
    return _load("check_bench_regression", REGRESSION_SCRIPT)


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


def _report(gates=None, **speedups):
    return {
        "workload": "powerlaw-smoke",
        "gates": gates or {},
        "results": [{"algorithm": name, "speedup": speedup, "parity": True,
                     "fast_eps": 1000.0}
                    for name, speedup in speedups.items()],
    }


class TestBenchRegressionChecker:
    def test_identical_reports_pass(self, regression):
        report = _report(HDRF=3.0, DBH=1.0)
        assert regression.compare(report, report, tolerance=0.2) == ([], [])

    def test_within_tolerance_passes(self, regression):
        base = _report(HDRF=3.0)
        fresh = _report(HDRF=2.5)  # -17% is inside the 20% budget
        assert regression.compare(base, fresh, tolerance=0.2) == ([], [])

    def test_regression_beyond_tolerance_fails(self, regression):
        base = _report(HDRF=3.0)
        fresh = _report(HDRF=2.0)
        problems, _ = regression.compare(base, fresh, tolerance=0.2)
        assert problems and "HDRF" in problems[0]

    def test_drop_above_absolute_gate_is_warning(self, regression):
        """Cross-machine ratio spread: above the gate -> warn, don't fail."""
        base = _report(gates={"HDRF": 1.3}, HDRF=3.0)
        fresh = _report(HDRF=2.0)  # -33%, but well above the 1.3x gate
        problems, warnings = regression.compare(base, fresh, tolerance=0.2)
        assert problems == []
        assert warnings and "HDRF" in warnings[0]

    def test_drop_below_absolute_gate_fails(self, regression):
        base = _report(gates={"HDRF": 1.3}, HDRF=3.0)
        fresh = _report(HDRF=1.1)
        problems, _ = regression.compare(base, fresh, tolerance=0.2)
        assert problems and "HDRF" in problems[0]

    def test_below_gate_fails_even_within_relative_tolerance(self, regression):
        """The checker is CI's only gate: the absolute floor must bind
        even when the relative drop is small."""
        base = _report(gates={"HDRF": 1.3}, HDRF=1.35)
        fresh = _report(HDRF=1.2)  # -11% relative, but under the 1.3x gate
        problems, _ = regression.compare(base, fresh, tolerance=0.2)
        assert problems and "absolute gate" in problems[0]

    def test_parity_break_fails(self, regression):
        base = _report(HDRF=3.0)
        fresh = _report(HDRF=3.0)
        fresh["results"][0]["parity"] = False
        problems, _ = regression.compare(base, fresh, tolerance=0.2)
        assert any("parity" in p for p in problems)

    def test_missing_algorithm_fails(self, regression):
        base = _report(HDRF=3.0, Greedy=2.0)
        fresh = _report(HDRF=3.0)
        problems, _ = regression.compare(base, fresh, tolerance=0.2)
        assert any("Greedy" in p for p in problems)

    def test_workload_mismatch_fails(self, regression):
        base = _report(HDRF=3.0)
        fresh = _report(HDRF=3.0)
        fresh["workload"] = "other"
        problems, _ = regression.compare(base, fresh, tolerance=0.2)
        assert problems

    @pytest.mark.parametrize("name", ["engine", "cluster", "service", "obs"])
    def test_committed_baselines_are_valid(self, regression, name):
        """Every BENCH_*.json CI gates against must parse, carry gates,
        and pass vs itself."""
        baseline = regression.load(
            os.path.join(ROOT, "benchmarks", f"BENCH_{name}.json"))
        assert baseline["results"], "baseline has no rows"
        assert baseline.get("gates"), "baseline must embed absolute gates"
        assert regression.compare(baseline, baseline,
                                  tolerance=0.2) == ([], [])
        for row in baseline["results"]:
            assert row["parity"], row["algorithm"]

    def test_baseline_argument_is_required(self, regression, tmp_path,
                                           capsys):
        fresh = tmp_path / "fresh.json"
        fresh.write_text(json.dumps(_report(HDRF=3.0)))
        with pytest.raises(SystemExit):
            regression.main(["--fresh", str(fresh)])
        assert "--baseline" in capsys.readouterr().err

    def test_cli_pass_and_fail(self, regression, tmp_path):
        base = _report(HDRF=3.0)
        fresh_ok = _report(HDRF=2.9)
        fresh_bad = _report(HDRF=1.0)
        base_path = tmp_path / "base.json"
        base_path.write_text(json.dumps(base))
        ok_path = tmp_path / "ok.json"
        ok_path.write_text(json.dumps(fresh_ok))
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(fresh_bad))
        assert regression.main(["--fresh", str(ok_path),
                                "--baseline", str(base_path)]) == 0
        assert regression.main(["--fresh", str(bad_path),
                                "--baseline", str(base_path)]) == 1


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
        rescored, cs, segments, agenda = map(float, re.search(
            r"^pump: ([\d.]+) rescored slots per pop, ([\d.]+) CS "
            r"recomputations and ([\d.]+) segment rewrites per edge, "
            r"agenda length ([\d.]+) per pop$", out,
            flags=re.MULTILINE).groups())
        assert "ADWISE over 351 edges" in out
        assert 1.0 <= agenda <= 16.0      # candidates of a 16-edge window
        assert rescored > 0.0 and cs > 0.0
        assert segments >= 1.0            # every admit writes its own

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
