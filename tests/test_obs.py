"""``repro.obs`` tests: registry semantics, span propagation, exporters.

The observability plane is global per process, so every test runs under
the ``clean_obs`` fixture: disabled, empty registry, empty tracer before
and after.  The cross-process tests are the load-bearing ones — they
assert that one enabled run yields ONE correlated trace across the
parallel-loading pickle boundary, the cluster worker pipes, and the
service ndjson protocol.
"""

from __future__ import annotations

import json
import os
import random
import threading

import pytest

from repro import obs
from repro.obs.registry import nearest_rank
from repro.service.metrics import TenantMetrics

pytestmark = pytest.mark.usefixtures("clean_obs")


@pytest.fixture
def clean_obs():
    obs.disable()
    obs.registry().reset()
    obs.tracer().clear()
    yield
    obs.disable()
    obs.registry().reset()
    obs.tracer().clear()


# ----------------------------------------------------------------------
# Registry semantics
# ----------------------------------------------------------------------

class TestRegistry:

    def test_counter_gauge_basics(self):
        obs.enable()
        c = obs.counter("repro_test_total", kind="a")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        g = obs.gauge("repro_test_level")
        g.set(7.0)
        g.inc(1.0)
        g.dec(3.0)
        assert g.value == 5.0

    def test_labels_create_distinct_series(self):
        obs.enable()
        obs.counter("repro_test_total", kind="a").inc()
        obs.counter("repro_test_total", kind="b").inc(4)
        # Same labels in any keyword order → the same series object.
        assert obs.counter("repro_test_total", kind="a") is obs.counter(
            "repro_test_total", kind="a")
        snap = obs.snapshot()
        values = {tuple(sorted(e["labels"].items())): e["value"]
                  for e in snap["counters"]
                  if e["name"] == "repro_test_total"}
        assert values == {(("kind", "a"),): 1.0, (("kind", "b"),): 4.0}

    def test_histogram_percentiles_exact(self):
        obs.enable()
        h = obs.histogram("repro_test_seconds")
        for value in [5, 1, 4, 2, 3]:
            h.observe(float(value))
        assert h.count == 5
        assert h.total == 15.0
        assert h.min == 1.0 and h.max == 5.0
        assert h.percentile(0.5) == 3.0
        assert h.percentile(0.99) == 5.0
        assert h.percentile(0.0) == 1.0

    def test_histogram_window_bounds_memory(self):
        obs.enable()
        h = obs.histogram("repro_test_window_seconds", window=8)
        for i in range(100):
            h.observe(float(i))
        assert h.count == 100          # cumulative count keeps growing
        assert len(h.samples()) == 8   # sample window stays bounded
        assert h.percentile(1.0) == 99.0

    def test_merge_snapshot_accumulates(self):
        obs.enable()
        obs.counter("repro_test_total").inc(2)
        obs.gauge("repro_test_level").set(3.0)
        h = obs.histogram("repro_test_seconds")
        h.observe(0.5)
        h.observe(1.5)
        snap = obs.snapshot()
        # Simulate receiving the same snapshot from a worker process.
        obs.merge_snapshot(snap)
        merged = obs.snapshot()
        counter = [e for e in merged["counters"]
                   if e["name"] == "repro_test_total"][0]
        assert counter["value"] == 4.0  # counters sum
        gauge = [e for e in merged["gauges"]
                 if e["name"] == "repro_test_level"][0]
        assert gauge["value"] == 3.0    # gauges last-write
        hist = [e for e in merged["histograms"]
                if e["name"] == "repro_test_seconds"][0]
        assert hist["count"] == 4
        assert hist["sum"] == 4.0

    def test_snapshot_survives_pickle_roundtrip(self):
        import pickle

        obs.enable()
        obs.counter("repro_test_total", src="worker").inc(9)
        obs.histogram("repro_test_seconds").observe(0.25)
        snap = pickle.loads(pickle.dumps(obs.snapshot()))
        obs.registry().reset()
        obs.merge_snapshot(snap)
        names = {e["name"] for e in obs.snapshot()["counters"]}
        assert "repro_test_total" in names


# ----------------------------------------------------------------------
# No-op mode: disabled must allocate nothing
# ----------------------------------------------------------------------

class TestNoopMode:

    def test_disabled_by_default(self):
        assert not obs.is_enabled()
        assert os.environ.get("REPRO_OBS") is None

    def test_disabled_returns_shared_singletons(self):
        assert obs.counter("x", a="b") is obs.NOOP_COUNTER
        assert obs.gauge("y") is obs.NOOP_GAUGE
        assert obs.histogram("z") is obs.NOOP_HISTOGRAM
        assert obs.span("s", k=1) is obs.NOOP_SPAN
        # The full instrument API is accepted and inert.
        obs.counter("x").inc(5)
        obs.gauge("y").set(1.0)
        obs.histogram("z").observe(0.1)
        with obs.span("s"):
            pass
        assert obs.snapshot() == {"counters": [], "gauges": [],
                                  "histograms": []}
        assert obs.tracer().spans() == []

    def test_disabled_registry_untouched(self):
        obs.counter("repro_test_total").inc()
        assert obs.registry().snapshot()["counters"] == []

    def test_enable_disable_roundtrip(self):
        obs.enable()
        assert obs.is_enabled()
        assert os.environ["REPRO_OBS"] == "1"
        obs.counter("repro_test_total").inc()
        obs.disable()
        assert not obs.is_enabled()
        assert "REPRO_OBS" not in os.environ
        assert obs.counter("repro_test_total") is obs.NOOP_COUNTER


# ----------------------------------------------------------------------
# Spans: nesting, context propagation, decorator
# ----------------------------------------------------------------------

class TestSpans:

    def test_nesting_parent_child(self):
        obs.enable()
        with obs.span("root") as root:
            with obs.span("child") as child:
                pass
        spans = obs.tracer().spans()
        assert [s["name"] for s in spans] == ["child", "root"]
        child_span, root_span = spans
        assert child_span["trace_id"] == root_span["trace_id"]
        assert child_span["parent_id"] == root_span["span_id"]
        assert root_span["parent_id"] is None
        assert root_span["dur_us"] >= child_span["dur_us"]
        assert root is not None and child is not None

    def test_sibling_spans_share_trace(self):
        obs.enable()
        with obs.span("root"):
            with obs.span("a"):
                pass
            with obs.span("b"):
                pass
        spans = {s["name"]: s for s in obs.tracer().spans()}
        assert spans["a"]["trace_id"] == spans["b"]["trace_id"]
        assert spans["a"]["parent_id"] == spans["root"]["span_id"]
        assert spans["b"]["parent_id"] == spans["root"]["span_id"]

    def test_current_context_and_use_context(self):
        obs.enable()
        assert obs.current_context() is None
        with obs.span("root"):
            ctx = obs.current_context()
            assert set(ctx) == {"trace_id", "span_id"}
        # A "remote" process adopts the wire dict.
        with obs.use_context(ctx):
            with obs.span("remote"):
                pass
        remote = [s for s in obs.tracer().spans()
                  if s["name"] == "remote"][0]
        assert remote["trace_id"] == ctx["trace_id"]
        assert remote["parent_id"] == ctx["span_id"]

    def test_use_context_none_is_noop(self):
        obs.enable()
        with obs.use_context(None):
            with obs.span("solo"):
                pass
        solo = obs.tracer().spans()[0]
        assert solo["parent_id"] is None

    def test_error_recorded_and_reraised(self):
        obs.enable()
        with pytest.raises(ValueError):
            with obs.span("boom"):
                raise ValueError("bad")
        span = obs.tracer().spans()[0]
        assert span["error"] == "ValueError"

    def test_traced_decorator(self):
        calls = []

        @obs.traced("work.step", flavor="test")
        def work(x):
            calls.append(x)
            return x * 2

        assert work(3) == 6            # disabled: no span, result intact
        assert obs.tracer().spans() == []
        obs.enable()
        assert work(4) == 8
        spans = obs.tracer().spans()
        assert [s["name"] for s in spans] == ["work.step"]
        assert spans[0]["attrs"] == {"flavor": "test"}
        assert calls == [3, 4]

    def test_sink_file_appends_jsonl(self, tmp_path):
        sink = str(tmp_path / "spans.jsonl")
        obs.enable(trace_file=sink)
        with obs.span("a"):
            pass
        with obs.span("b"):
            pass
        loaded = obs.load_trace_jsonl(sink)
        assert [s["name"] for s in loaded] == ["a", "b"]
        assert all(s["pid"] == os.getpid() for s in loaded)


# ----------------------------------------------------------------------
# Cross-process propagation: the pickle + pipe + ndjson boundaries
# ----------------------------------------------------------------------

def _random_edges(n, vertices, seed):
    rng = random.Random(seed)
    pairs = [(rng.randrange(vertices), rng.randrange(vertices))
             for _ in range(n)]
    return [(u, v) for u, v in pairs if u != v]


class TestCrossProcess:

    def test_parallel_loading_one_trace(self, tmp_path):
        """PR-2 boundary: ProcessPoolExecutor workers join the trace."""
        from repro.graph.graph import Edge
        from repro.graph.stream import InMemoryEdgeStream
        from repro.partitioning.parallel import (
            ParallelLoader,
            PartitionerSpec,
        )

        sink = str(tmp_path / "spans.jsonl")
        obs.enable(trace_file=sink)
        edges = [Edge(u, v) for u, v in _random_edges(300, 60, seed=5)]
        loader = ParallelLoader(
            PartitionerSpec("hdrf", {}), partitions=list(range(8)),
            num_instances=2, backend="process")
        with obs.span("test.root"):
            loader.run(InMemoryEdgeStream(edges))
        spans = obs.load_trace_jsonl(sink)
        root = [s for s in spans if s["name"] == "test.root"][0]
        instances = [s for s in spans
                     if s["name"] == "partition.parallel_instance"]
        assert len(instances) == 2
        assert {s["trace_id"] for s in spans} == {root["trace_id"]}
        # Workers are other processes, yet parent ids resolve into the
        # submitting process's spans.
        assert any(s["pid"] != os.getpid() for s in instances)
        by_id = {s["span_id"]: s for s in spans}
        for span in instances:
            assert span["parent_id"] in by_id
        # Worker ingest spans nest under the instance span.
        worker_ingests = [s for s in spans
                          if s["name"] == "partition.ingest"
                          and s["pid"] != os.getpid()]
        assert worker_ingests
        tree = obs.render_tree(spans)
        assert "test.root" in tree and "partition.parallel_instance" in tree

    def test_cluster_process_backend_one_trace(self, tmp_path):
        """PR-4 boundary: cluster worker pipes carry the step context."""
        from repro.cluster import ClusterEngine
        from repro.engine.algorithms import ConnectedComponents
        from repro.graph.generators import barabasi_albert_graph
        from repro.graph.shard import ShardedGraph
        from repro.partitioning.hashing import HashPartitioner
        from repro.graph.stream import shuffled

        sink = str(tmp_path / "spans.jsonl")
        obs.enable(trace_file=sink)
        graph = barabasi_albert_graph(n=60, m=2, seed=7)
        result = HashPartitioner(list(range(4))).partition_stream(
            shuffled(list(graph.edges()), seed=3))
        sharded = ShardedGraph.from_assignments(
            result.assignments, partitions=range(4),
            vertices=graph.vertices())
        engine = ClusterEngine(sharded, backend="process", num_workers=2)
        with obs.span("test.root"):
            engine.run(ConnectedComponents(), max_supersteps=30)
        spans = obs.load_trace_jsonl(sink)
        root = [s for s in spans if s["name"] == "test.root"][0]
        worker_steps = [s for s in spans
                        if s["name"] == "cluster.worker_step"]
        assert worker_steps
        assert any(s["pid"] != os.getpid() for s in worker_steps)
        assert {s["trace_id"] for s in worker_steps} == {root["trace_id"]}
        supersteps = [s for s in spans if s["name"] == "cluster.superstep"]
        assert supersteps
        superstep_ids = {s["span_id"] for s in supersteps}
        assert all(s["parent_id"] in superstep_ids for s in worker_steps)
        # Each host's fused kernel step: one span per worker per
        # superstep, inside that worker's step span, naming the host.
        computes = [s for s in spans if s["name"] == "cluster.compute"]
        assert len(computes) == 2 * len(supersteps)
        step_ids = {s["span_id"] for s in worker_steps}
        assert all(s["parent_id"] in step_ids for s in computes)
        assert {s["attrs"]["host"] for s in computes} == {0, 1}
        assert ({s["attrs"]["superstep"] for s in computes}
                == set(range(len(supersteps))))

    def test_service_protocol_one_trace(self, tmp_path):
        """PR-6 boundary: the ndjson ``trace`` field correlates the
        client's span with the daemon's apply span."""
        from repro.service.client import ServiceClient
        from repro.service.server import run_service

        sink = str(tmp_path / "spans.jsonl")
        obs.enable(trace_file=sink)
        ready = threading.Event()
        box = {}

        def on_ready(service):
            box["port"] = service.port
            ready.set()

        thread = threading.Thread(
            target=run_service,
            kwargs=dict(port=0, queue_depth=4, max_tenants=2,
                        ready_callback=on_ready),
            daemon=True)
        thread.start()
        assert ready.wait(10)
        with ServiceClient(port=box["port"]) as client:
            client.open("t", algorithm="hdrf", partitions=4)
            with obs.span("test.ingest"):
                client.ingest("t", _random_edges(64, 30, seed=9))
            client.finalize("t")
            client.shutdown()
        thread.join(10)
        spans = obs.load_trace_jsonl(sink)
        ingest = [s for s in spans if s["name"] == "test.ingest"][0]
        applies = [s for s in spans
                   if s["name"] == "service.apply_batch"]
        assert applies
        assert all(s["trace_id"] == ingest["trace_id"] for s in applies)
        assert all(s["parent_id"] == ingest["span_id"] for s in applies)

    def test_service_reply_spans(self, tmp_path):
        """Every response's encode + write is one ``service.reply`` span
        carrying its op, tenant and line length; the acks the tenant
        worker sends join the ingesting client's trace."""
        from repro.service.client import ServiceClient
        from repro.service.server import run_service

        sink = str(tmp_path / "spans.jsonl")
        obs.enable(trace_file=sink)
        ready = threading.Event()
        box = {}

        def on_ready(service):
            box["port"] = service.port
            ready.set()

        thread = threading.Thread(
            target=run_service,
            kwargs=dict(port=0, queue_depth=4, max_tenants=2,
                        ready_callback=on_ready),
            daemon=True)
        thread.start()
        assert ready.wait(10)
        with ServiceClient(port=box["port"]) as client:
            client.open("t", algorithm="hdrf", partitions=4)
            with obs.span("test.ingest"):
                client.ingest("t", _random_edges(64, 30, seed=9))
            client.query_vertex("t", 1)
            final = client.request({"op": "finalize", "tenant": "t"})
            client.shutdown()
        thread.join(10)
        spans = obs.load_trace_jsonl(sink)
        replies = [s for s in spans if s["name"] == "service.reply"]
        assert [(s["attrs"]["op"], s["attrs"]["tenant"])
                for s in replies] == [
            ("open", "t"), ("ingest", "t"), ("query", "t"),
            ("finalize", "t"), ("shutdown", None)]
        assert all(s["attrs"]["bytes"] > 10 for s in replies)
        assert replies[3]["attrs"]["bytes"] == len(json.dumps(final)) + 1
        ingest = [s for s in spans if s["name"] == "test.ingest"][0]
        assert replies[1]["trace_id"] == ingest["trace_id"]
        assert replies[1]["parent_id"] == ingest["span_id"]

    def test_service_decode_spans(self, tmp_path):
        """Every request line's decode is one ``service.decode`` span
        carrying its op, its length and whether the compiled scanner
        took its edges: an ingest's are taken, a malformed one's are
        left to ``json.loads``."""
        from repro.core import _kernels
        from repro.service.client import ServiceClient, ServiceError
        from repro.service.server import run_service

        sink = str(tmp_path / "spans.jsonl")
        obs.enable(trace_file=sink)
        ready = threading.Event()
        box = {}

        def on_ready(service):
            box["port"] = service.port
            ready.set()

        thread = threading.Thread(
            target=run_service,
            kwargs=dict(port=0, queue_depth=4, max_tenants=2,
                        ready_callback=on_ready),
            daemon=True)
        thread.start()
        assert ready.wait(10)
        with ServiceClient(port=box["port"]) as client:
            client.open("t", algorithm="hdrf", partitions=4)
            client.ingest("t", _random_edges(64, 30, seed=9))
            with pytest.raises(ServiceError, match="bad request"):
                client.request({"op": "ingest", "tenant": "t",
                                "edges": [[1, 2.5]]})
            client.shutdown()
        thread.join(10)
        decodes = [s["attrs"] for s in obs.load_trace_jsonl(sink)
                   if s["name"] == "service.decode"]
        assert [(d["op"], d["native"]) for d in decodes] == [
            ("open", False), ("ingest", _kernels.load() is not None),
            ("ingest", False), ("shutdown", False)]
        assert all(d["bytes"] > 10 for d in decodes)


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------

GOLDEN_PROM = """\
# TYPE repro_test_total counter
repro_test_total{kind="a"} 3
# TYPE repro_test_level gauge
repro_test_level 2.5
# TYPE repro_test_seconds histogram
repro_test_seconds_bucket{le="1"} 1
repro_test_seconds_bucket{le="10"} 2
repro_test_seconds_bucket{le="+Inf"} 3
repro_test_seconds_sum 114.5
repro_test_seconds_count 3
repro_test_seconds{quantile="0.5"} 3.5
repro_test_seconds{quantile="0.99"} 110.5
"""


class TestExporters:

    @staticmethod
    def _populate():
        obs.enable()
        obs.counter("repro_test_total", kind="a").inc(3)
        obs.gauge("repro_test_level").set(2.5)
        h = obs.histogram("repro_test_seconds", bounds=[1.0, 10.0])
        for value in (0.5, 3.5, 110.5):
            h.observe(value)

    def test_prometheus_text_golden(self):
        self._populate()
        assert obs.prometheus_text(obs.registry()) == GOLDEN_PROM

    def test_prometheus_text_from_snapshot(self):
        self._populate()
        assert obs.prometheus_text(obs.snapshot()) == GOLDEN_PROM

    def test_prometheus_label_escaping(self):
        obs.enable()
        obs.counter("repro_test_total", path='a"b\\c').inc()
        text = obs.prometheus_text(obs.registry())
        assert 'path="a\\"b\\\\c"' in text

    def test_registry_jsonl_roundtrip(self, tmp_path):
        self._populate()
        path = str(tmp_path / "metrics.jsonl")
        obs.dump_jsonl(obs.registry(), path)
        with open(path, encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle if line.strip()]
        kinds = {r["kind"] for r in records}
        assert kinds == {"counter", "gauge", "histogram"}
        hist = [r for r in records if r["kind"] == "histogram"][0]
        assert hist["count"] == 3
        assert hist["samples"] == [0.5, 3.5, 110.5]

    def test_chrome_trace_loads_as_json(self, tmp_path):
        obs.enable()
        with obs.span("root", phase="x"):
            with obs.span("child"):
                pass
        path = str(tmp_path / "trace.json")
        obs.write_chrome_trace(path, obs.tracer().spans())
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        events = payload["traceEvents"]
        assert {e["name"] for e in events} == {"root", "child"}
        for event in events:
            assert event["ph"] == "X"
            assert event["dur"] >= 1
            assert "trace_id" in event["args"]
        root = [e for e in events if e["name"] == "root"][0]
        assert root["args"]["phase"] == "x"

    def test_render_tree_nesting_and_orphans(self):
        obs.enable()
        with obs.span("root"):
            with obs.span("child"):
                pass
        spans = list(obs.tracer().spans())
        spans.append({"name": "remote", "trace_id": spans[0]["trace_id"],
                      "span_id": "ffff-1", "parent_id": "dead-0",
                      "pid": 999, "tid": 0, "ts_us": 0, "dur_us": 5})
        tree = obs.render_tree(spans)
        lines = tree.splitlines()
        root_line = [ln for ln in lines if ln.lstrip().startswith("root")][0]
        child_line = [ln for ln in lines
                      if ln.lstrip().startswith("child")][0]
        indent = lambda ln: len(ln) - len(ln.lstrip())  # noqa: E731
        assert indent(child_line) > indent(root_line)
        assert "[remote-parent dead-0]" in tree


# ----------------------------------------------------------------------
# Percentile edge cases + service.metrics parity
# ----------------------------------------------------------------------

class TestPercentile:

    def test_empty_and_single(self):
        assert nearest_rank(sorted([]), 0.99) == 0.0
        assert nearest_rank(sorted([7.0]), 0.0) == 7.0
        assert nearest_rank(sorted([7.0]), 0.5) == 7.0
        assert nearest_rank(sorted([7.0]), 0.99) == 7.0

    def test_fraction_clamping(self):
        samples = [1.0, 2.0, 3.0]
        assert nearest_rank(sorted(samples), -0.5) == 1.0
        assert nearest_rank(sorted(samples), 0.0) == 1.0
        assert nearest_rank(sorted(samples), 1.0) == 3.0
        assert nearest_rank(sorted(samples), 1.5) == 3.0

    def test_nearest_rank_semantics(self):
        samples = [10.0, 20.0]
        assert nearest_rank(samples, 0.5) == 10.0   # ceil(0.5*2)=1 → idx 0
        assert nearest_rank(samples, 0.51) == 20.0
        assert nearest_rank(list(range(1, 101)), 0.99) == 99

    def test_unsorted_input_ok(self):
        assert nearest_rank(sorted([3.0, 1.0, 2.0]), 0.99) == 3.0

    def test_matches_obs_histogram(self):
        rng = random.Random(11)
        samples = [rng.uniform(0.0, 50.0) for _ in range(257)]
        h = obs.Histogram(window=1024)
        for s in samples:
            h.observe(s)
        for fraction in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
            assert (nearest_rank(sorted(samples), fraction)
                    == h.percentile(fraction))

    def test_tenant_metrics_delegates(self):
        clock = iter(float(i) for i in range(100))
        metrics = TenantMetrics(capacity=4, clock=lambda: next(clock))
        for latency_ms in (10.0, 20.0, 30.0):
            metrics.observe_batch(8, latency_ms / 1000.0)
        assert metrics.latency_percentile_ms(0.5) == 20.0
        assert metrics.latency_histogram.count == 3
        d = metrics.to_dict()
        assert d["metrics_window"] == 4
        assert d["p99_ingest_ms"] == 30.0


# ----------------------------------------------------------------------
# Serve knobs: validated where they enter; the windows are constants
# ----------------------------------------------------------------------

class TestServeKnobs:

    def test_flags_reach_tenant_state(self):
        """``run_service``'s queue depth bounds each tenant's queue and
        its tenant cap refuses one tenant too many; the audit and
        metrics windows are the constants whatever the knobs."""
        from repro.service.client import ServiceClient, ServiceError
        from repro.service.server import AUDIT_WINDOW, run_service

        ready = threading.Event()
        box = {}

        def on_ready(service):
            box["service"] = service
            ready.set()

        thread = threading.Thread(
            target=run_service,
            kwargs=dict(port=0, queue_depth=3, max_tenants=2,
                        ready_callback=on_ready),
            daemon=True)
        thread.start()
        assert ready.wait(10)
        service = box["service"]
        assert (service.queue_depth, service.max_tenants) == (3, 2)
        with ServiceClient(port=service.port) as client:
            client.open("a", algorithm="hdrf", partitions=4)
            client.open("b", algorithm="hdrf", partitions=4)
            with pytest.raises(ServiceError, match=r"tenant limit .*\(2\)"):
                client.open("c", algorithm="hdrf", partitions=4)
            assert sorted(service.tenants) == ["a", "b"]
            assert all(tenant.queue.maxsize == 3
                       for tenant in service.tenants.values())
            client.ingest("a", [(i, i + 1) for i in range(9)])
            stats = client.stats("a")
            client.shutdown()
        thread.join(10)
        assert stats["audit"] == {"recorded": 9, "retained": 9,
                                  "capacity": AUDIT_WINDOW, "dropped": 0}
        assert stats["metrics"]["metrics_window"] == 1024

    def test_cli_flag_validation(self, capsys):
        """Out-of-range values exit 2 naming the flag; the deleted
        ``--audit-depth``, ``--metrics-window`` and ``--snapshot-dir``
        are refused, not silently ignored."""
        from repro.cli import main

        for flag in ("--queue-depth", "--max-tenants",
                     "--wal-compact-every"):
            assert main(["serve", flag, "0"]) == 2
            assert flag in capsys.readouterr().err
        for flag in ("--audit-depth", "--metrics-window", "--snapshot-dir"):
            with pytest.raises(SystemExit) as exit_info:
                main(["serve", flag, "5"])
            assert exit_info.value.code == 2
            err = capsys.readouterr().err
            assert "unrecognized arguments" in err and flag in err

    def test_service_rejects_bad_knobs(self):
        from repro.service.server import PartitionService

        for knobs in (dict(max_tenants=0), dict(queue_depth=0),
                      dict(wal_compact_every=0), dict(fsync="sometimes"),
                      dict(max_line_bytes=1023), dict(replay_depth=0)):
            with pytest.raises(ValueError, match=next(iter(knobs))):
                PartitionService(**knobs)
        for knob in ("audit_depth", "metrics_window", "snapshot_dir"):
            with pytest.raises(TypeError, match=knob):
                PartitionService(**{knob: 5})


# ----------------------------------------------------------------------
# CLI top view
# ----------------------------------------------------------------------

class TestTopView:

    def test_parse_and_render(self, capsys):
        from repro.cli import _parse_prometheus, _render_top

        text = ("# TYPE repro_service_uptime_seconds gauge\n"
                "repro_service_uptime_seconds 12.5\n"
                'repro_tenant_edges_per_second{tenant="t1"} 1500\n'
                'repro_tenant_ingest_latency_seconds'
                '{quantile="0.99",tenant="t1"} 0.004\n')
        series = _parse_prometheus(text)
        assert series[("repro_service_uptime_seconds", ())] == 12.5
        _render_top(text, [
            {"tenant": "t1", "algorithm": "hdrf", "edges_ingested": 640,
             "queue_depth": 1, "applied_seq": 10, "durable": True}])
        out = capsys.readouterr().out
        assert "up 12.5s" in out
        assert "t1" in out and "1500" in out and "4.00" in out

    def test_top_against_live_daemon(self, capsys):
        from repro.cli import main
        from repro.service.client import ServiceClient
        from repro.service.server import run_service

        ready = threading.Event()
        box = {}

        def on_ready(service):
            box["port"] = service.port
            ready.set()

        thread = threading.Thread(
            target=run_service,
            kwargs=dict(port=0, queue_depth=4, max_tenants=2,
                        ready_callback=on_ready),
            daemon=True)
        thread.start()
        assert ready.wait(10)
        port = str(box["port"])
        edges = _random_edges(50, 20, seed=3)
        with ServiceClient(port=box["port"]) as client:
            client.open("cli-t", algorithm="hdrf", partitions=4)
            client.ingest("cli-t", edges)
            assert main(["top", "--port", port]) == 0
            table = capsys.readouterr().out
            assert "cli-t" in table and "hdrf" in table
            assert main(["top", "--port", port, "--raw"]) == 0
            raw = capsys.readouterr().out
            assert "# TYPE repro_service_tenants gauge" in raw
            stats = client.stats("cli-t")
            client.shutdown()
        thread.join(10)
        # The per-tenant series and the two fixed windows stats reports.
        assert ("# TYPE repro_tenant_ingest_latency_seconds histogram"
                in raw)
        for name in ("edges_ingested", "audit_recorded"):
            assert (f'repro_tenant_{name}_total{{tenant="cli-t"}} '
                    f'{len(edges)}\n' in raw)
        assert stats["metrics"]["metrics_window"] == 1024
        assert stats["audit"]["capacity"] == 4096


# ----------------------------------------------------------------------
# Instrumented subsystems publish into the registry when enabled
# ----------------------------------------------------------------------

class TestInstrumentation:

    def test_partitioner_publishes_series(self):
        from repro.core.adwise import AdwisePartitioner
        from repro.graph.graph import Edge
        from repro.graph.stream import InMemoryEdgeStream

        obs.enable()
        partitioner = AdwisePartitioner(list(range(4)), fixed_window=16)
        edges = [Edge(u, v) for u, v in _random_edges(200, 40, seed=21)]
        partitioner.partition_stream(InMemoryEdgeStream(edges))
        snap = obs.snapshot()
        counters = {e["name"] for e in snap["counters"]}
        gauges = {e["name"] for e in snap["gauges"]}
        assert "repro_partition_edges_total" in counters
        assert "repro_window_refills_total" in counters
        assert "repro_window_pops_total" in counters
        totals = {e["name"]: e["value"] for e in snap["counters"]
                  if e["name"].startswith("repro_window_")}
        assert (totals["repro_window_assembled_slots_total"]
                <= totals["repro_window_rescored_slots_total"])
        assert "repro_partition_replication_degree" in gauges
        assert "repro_window_memo_hit_rate" in gauges
        hit_rates = [e["value"] for e in snap["gauges"]
                     if e["name"] == "repro_window_memo_hit_rate"]
        assert all(0.0 <= v <= 1.0 for v in hit_rates)
        spans = {s["name"] for s in obs.tracer().spans()}
        assert {"partition.ingest", "partition.finalize"} <= spans

    def test_default_daemon_tenant_runs_the_kernels(self):
        """A tenant opened with no knobs — all ``adwise client`` can
        ask for — runs the compiled tier where it loads, and says so in
        the daemon's metrics."""
        from repro.cli import _parse_prometheus
        from repro.core import _kernels
        from repro.service.client import ServiceClient
        from repro.service.server import run_service

        if _kernels.load() is None:
            pytest.skip("compiled kernels unavailable")
        obs.enable()
        ready = threading.Event()
        box = {}

        def on_ready(service):
            box["port"] = service.port
            ready.set()

        thread = threading.Thread(
            target=run_service,
            kwargs=dict(port=0, ready_callback=on_ready), daemon=True)
        thread.start()
        assert ready.wait(10)
        with ServiceClient(port=box["port"]) as client:
            client.open("t", algorithm="adwise", partitions=8)
            client.ingest("t", _random_edges(300, 40, seed=23))
            client.finalize("t")
            series = _parse_prometheus(client.metrics_text())
            client.shutdown()
        thread.join(10)
        calls = [value for (name, _), value in series.items()
                 if name == "repro_window_kernel_calls_total"]
        assert calls and calls[0] > 0

    def test_disabled_run_stays_silent(self):
        from repro.core.adwise import AdwisePartitioner
        from repro.graph.graph import Edge
        from repro.graph.stream import InMemoryEdgeStream

        partitioner = AdwisePartitioner(
            list(range(4)), fast=True, fixed_window=16)
        edges = [Edge(u, v) for u, v in _random_edges(120, 30, seed=22)]
        partitioner.partition_stream(InMemoryEdgeStream(edges))
        assert obs.snapshot() == {"counters": [], "gauges": [],
                                  "histograms": []}
        assert obs.tracer().spans() == []

    def test_engine_publishes_superstep_series(self):
        from repro.engine.algorithms import ConnectedComponents
        from repro.engine.placement import Placement
        from repro.engine.runtime import Engine
        from repro.graph.generators import barabasi_albert_graph
        from repro.partitioning.hashing import HashPartitioner
        from repro.graph.stream import shuffled

        obs.enable()
        graph = barabasi_albert_graph(n=40, m=2, seed=5)
        result = HashPartitioner(list(range(4))).partition_stream(
            shuffled(list(graph.edges()), seed=3))
        placement = Placement(result.assignments, list(range(4)),
                              num_machines=2)
        report = Engine(graph, placement, mode="dense").run(
            ConnectedComponents(), max_supersteps=30)
        counters = {(e["name"], e["labels"].get("mode")): e["value"]
                    for e in obs.snapshot()["counters"]}
        key = ("repro_engine_supersteps_total", "dense")
        assert counters[key] == float(report.supersteps)
        assert ("repro_engine_messages_total", "dense") in counters

    def test_shard_build_publishes_span_and_tally(self):
        from repro.graph.shard import ShardedGraph

        assignments = {(0, 1): 0, (1, 2): 1, (2, 3): 1, (3, 0): 2}
        ShardedGraph.from_assignments(assignments, partitions=range(4))
        assert obs.tracer().spans() == []  # disabled: silent
        assert obs.snapshot()["counters"] == []
        obs.enable()
        ShardedGraph.from_assignments(assignments, partitions=range(4),
                                      vertices=[9])
        ShardedGraph.from_arrays([5, 6], [6, 7], [0, 0])
        spans = [s for s in obs.tracer().spans()
                 if s["name"] == "graph.shard.build"]
        # Vertices 0, 1 and 3 on two partitions, 2 and isolated 9 on one.
        assert [s["attrs"] for s in spans] == [
            {"edges": 4, "vertices": 5, "partitions": 4, "replicas": 8},
            {"edges": 2, "vertices": 3, "partitions": 1, "replicas": 3}]
        counters = {e["name"]: e["value"]
                    for e in obs.snapshot()["counters"]}
        assert counters["repro_shard_build_edges_total"] == 6.0

    def test_wal_publishes_append_series(self, tmp_path):
        from repro.service.wal import TenantWAL

        obs.enable()
        wal = TenantWAL(str(tmp_path / "t.wal"), {"tenant": "t"},
                        fsync="always")
        wal.append(1, [(1, 2)])
        wal.append(2, [(3, 4)])
        wal.close()
        counters = {e["name"]: e["value"]
                    for e in obs.snapshot()["counters"]}
        assert counters["repro_wal_appends_total"] == 2.0
        assert counters["repro_wal_fsyncs_total"] >= 1.0
        assert counters["repro_wal_bytes_total"] > 0.0
