"""The benchmark keeps its contract: ``--smoke`` runs of every workload
print every metric ``BENCHMARK.json`` declares, and the command refuses
to run outside a checkout."""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    CONTRACT = json.load(handle)
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
SECTION = {0: "end_to_end", 1: "per_layer"}
#: Counts that are zero when nothing goes wrong.
ZERO_WHEN_HEALTHY = {"service.failed_ops"}


def command(root: str, workload: str, trace: int) -> list:
    script = os.path.join(root, *CONTRACT["command"][1].split("/"))
    return [sys.executable, script, "--workload", workload, "--seed", "1",
            "--seconds", str(CONTRACT["run_seconds"]), "--trace", str(trace),
            "--smoke"]


def unique_keys(pairs):
    keys = [key for key, _ in pairs]
    assert len(keys) == len(set(keys)), f"a name is printed twice: {keys}"
    return dict(pairs)


@pytest.fixture(scope="module")
def results():
    """``{(workload, trace): (result line, summary line)}``."""
    out = {}
    for workload in WORKLOADS:
        for trace in SECTION:
            done = subprocess.run(command(ROOT, workload, trace), cwd=ROOT,
                                  capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr + done.stdout
            lines = done.stdout.strip().splitlines()
            out[workload, trace] = (
                json.loads(lines[-1], object_pairs_hook=unique_keys),
                json.loads(lines[-2]))
    return out


def test_every_declared_metric_is_printed_once(results):
    for (workload, trace), (result, _) in results.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in CONTRACT[SECTION[trace]]}
        assert set(result["metrics"]) == set(declared), (workload, trace)
        for name, entry in result["metrics"].items():
            assert re.fullmatch(r"[A-Za-z0-9_.-]+", name)
            assert entry["unit"] == declared[name]
            assert math.isfinite(entry["value"]), (workload, name)
            if trace == 0:
                assert entry["value"] != 0, (workload, name)


def test_every_layer_metric_is_measured_on_some_workload(results):
    for metric in CONTRACT["per_layer"]:
        name = metric["name"]
        values = [results[w, 1][0]["metrics"][name]["value"]
                  for w in WORKLOADS]
        assert any(values) or name in ZERO_WHEN_HEALTHY, name


def test_workloads_separate_the_layers(results):
    def share(workload, layer):
        return results[workload, 1][0]["metrics"][f"share.{layer}"]["value"]

    assert share("job-hdrf", "core") == 0
    assert share("job-adwise", "core") > 0
    assert share("job-service", "service") > 0
    assert share("job-adwise", "service") == share("job-hdrf", "service") == 0


def test_no_gain_is_claimed(results):
    for _, summary in results.values():
        assert list(summary)[-1] == "claim" and summary["claim"] is None


def test_refuses_to_run_outside_a_checkout(tmp_path):
    """In a directory with only BENCHMARK.json and the benchmark's own
    files there is no program to measure: non-zero exit, no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / os.path.relpath(HERE, ROOT),
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = subprocess.run(command(str(tmp_path), WORKLOADS[0], 0),
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
