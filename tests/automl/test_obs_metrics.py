"""Tests for the observability plane: registry, spans, exposition, tracing.

Covers the :mod:`repro.automl.metrics` registry in isolation (exact totals
under thread contention, Prometheus exposition invariants), the trace-span
stack, trace-id propagation through events / the HTTP layer / the job
lifecycle, the cumulative-drop-counter contracts, and the CLI ``metrics``
subcommand in both local-db and live-server modes.
"""

from __future__ import annotations

import sys
import textwrap
import threading

import pytest

from repro.automl import metrics
from repro.automl.events import (
    EventBus,
    TrialReport,
    TrialStarted,
    event_from_wire,
    event_to_wire,
)
from repro.automl.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    current_span,
    exponential_buckets,
    new_span_id,
    new_trace_id,
    span,
)

HELPER = "obs_metrics_helper"


@pytest.fixture
def helper_module(tmp_path, monkeypatch):
    """An importable module the server resolves module:attr refs against."""
    module_dir = tmp_path / "modules"
    module_dir.mkdir()
    (module_dir / f"{HELPER}.py").write_text(textwrap.dedent("""
        from repro.automl.search_space import SearchSpace, Uniform

        SPACE = SearchSpace({"x": Uniform(0.0, 1.0)})

        def objective(trial):
            trial.report(trial.params["x"])
            return trial.params["x"]
    """))
    monkeypatch.syspath_prepend(str(module_dir))
    yield HELPER
    sys.modules.pop(HELPER, None)


# --------------------------------------------------------------------------- #
# Registry primitives
# --------------------------------------------------------------------------- #
class TestRegistry:
    def test_counter_counts_and_rejects_negatives(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "help me")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_counter_inc_to_is_monotonic(self):
        registry = MetricsRegistry()
        counter = registry.counter("m_total")
        counter.inc_to(7)
        counter.inc_to(3)  # never lowers
        assert counter.value == 7
        counter.inc_to(9)
        assert counter.value == 9

    def test_gauge_moves_both_ways(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g")
        gauge.set(4)
        gauge.inc(2)
        gauge.dec(5)
        assert gauge.value == 1

    def test_histogram_le_bucket_semantics(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h_seconds", buckets=(1.0, 10.0))
        for value in (0.5, 1.0, 5.0, 100.0):
            hist.observe(value)
        counts, total, count = hist._default().state()
        # le semantics: 1.0 lands in the le="1" bucket, 100 in +Inf.
        assert counts == [2, 1, 1]
        assert count == 4
        assert total == pytest.approx(106.5)

    def test_registration_is_idempotent_but_conflicts_raise(self):
        registry = MetricsRegistry()
        first = registry.counter("x_total", labels=("a",))
        assert registry.counter("x_total", labels=("a",)) is first
        with pytest.raises(ValueError):
            registry.gauge("x_total", labels=("a",))
        with pytest.raises(ValueError):
            registry.counter("x_total", labels=("b",))

    def test_labels_validated_and_children_cached(self):
        registry = MetricsRegistry()
        family = registry.counter("y_total", labels=("k",))
        child = family.labels(k="v")
        assert family.labels(k="v") is child
        with pytest.raises(ValueError):
            family.labels(wrong="v")
        with pytest.raises(ValueError):
            family.inc()  # labelled family has no default child

    def test_exponential_buckets_validation(self):
        assert exponential_buckets(1.0, 2.0, 3) == (1.0, 2.0, 4.0)
        assert len(DEFAULT_BUCKETS) == 10
        assert all(b < c for b, c in zip(DEFAULT_BUCKETS, DEFAULT_BUCKETS[1:]))
        for bad in ((0.0, 2.0, 3), (1.0, 1.0, 3), (1.0, 2.0, 0)):
            with pytest.raises(ValueError):
                exponential_buckets(*bad)

    def test_render_prometheus_exposition(self):
        registry = MetricsRegistry()
        registry.counter("req_total", "Requests.", labels=("code",)) \
            .labels(code="200").inc(3)
        hist = registry.histogram("lat_seconds", "Latency.", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(5.0)
        text = registry.render()
        assert "# HELP req_total Requests." in text
        assert "# TYPE req_total counter" in text
        assert 'req_total{code="200"} 3' in text
        assert "# TYPE lat_seconds histogram" in text
        assert 'lat_seconds_bucket{le="0.1"} 1' in text
        assert 'lat_seconds_bucket{le="1"} 1' in text
        assert 'lat_seconds_bucket{le="+Inf"} 2' in text
        assert "lat_seconds_count 2" in text
        assert text.endswith("\n")

    def test_render_escapes_label_values(self):
        registry = MetricsRegistry()
        registry.counter("e_total", labels=("p",)) \
            .labels(p='a"b\\c\nd').inc()
        line = [l for l in registry.render().splitlines()
                if l.startswith("e_total{")][0]
        assert line == 'e_total{p="a\\"b\\\\c\\nd"} 1'

    def test_snapshot_structure(self):
        registry = MetricsRegistry()
        registry.gauge("g", "A gauge.").set(2)
        hist = registry.histogram("h_seconds", buckets=(1.0,))
        hist.observe(0.5)
        snap = registry.snapshot()
        assert snap["g"]["type"] == "gauge"
        assert snap["g"]["samples"] == [{"labels": {}, "value": 2.0}]
        sample = snap["h_seconds"]["samples"][0]
        assert sample["count"] == 1
        assert sample["buckets"] == {"1": 1, "+Inf": 1}

    def test_set_enabled_kill_switch(self):
        registry = MetricsRegistry()
        counter = registry.counter("k_total")
        hist = registry.histogram("k_seconds")
        try:
            metrics.set_enabled(False)
            assert not metrics.metrics_enabled()
            counter.inc()
            counter.inc_to(10)
            hist.observe(1.0)
        finally:
            metrics.set_enabled(True)
        assert counter.value == 0
        assert hist._default().state()[2] == 0
        counter.inc()
        assert counter.value == 1


# --------------------------------------------------------------------------- #
# Exactness under concurrency (satellite: N writers vs a live scraper)
# --------------------------------------------------------------------------- #
class TestConcurrency:
    def test_exact_totals_and_bucket_invariants_under_contention(self):
        registry = MetricsRegistry()
        counter = registry.counter("w_total", labels=("t",))
        hist = registry.histogram("w_seconds", buckets=(0.5, 2.0))
        n_threads, per_thread = 8, 500
        start = threading.Barrier(n_threads + 1)
        scrapes = []
        stop = threading.Event()

        def writer(index):
            child = counter.labels(t=str(index % 2))
            start.wait()
            for i in range(per_thread):
                child.inc()
                hist.observe((i % 3) * 1.0)  # 0, 1, 2: spans all buckets

        def scraper():
            start.wait()
            while not stop.is_set():
                scrapes.append(registry.render())

        threads = [threading.Thread(target=writer, args=(i,))
                   for i in range(n_threads)]
        scraper_thread = threading.Thread(target=scraper)
        for t in threads:
            t.start()
        scraper_thread.start()
        for t in threads:
            t.join()
        stop.set()
        scraper_thread.join()

        # Exact totals: no increment lost to a race.
        total = sum(child.value for _, child in counter.children())
        assert total == n_threads * per_thread
        counts, _, count = hist._default().state()
        assert count == n_threads * per_thread
        assert sum(counts) == count

        # Every mid-flight scrape satisfied the histogram invariants:
        # cumulative buckets are non-decreasing and +Inf equals _count.
        assert scrapes
        for text in scrapes:
            buckets = [int(l.rsplit(" ", 1)[1])
                       for l in text.splitlines()
                       if l.startswith("w_seconds_bucket")]
            hist_count = [int(l.rsplit(" ", 1)[1])
                          for l in text.splitlines()
                          if l.startswith("w_seconds_count")][0]
            assert buckets == sorted(buckets)
            assert buckets[-1] == hist_count


# --------------------------------------------------------------------------- #
# Trace spans
# --------------------------------------------------------------------------- #
class TestSpans:
    def test_span_times_and_records(self):
        registry = MetricsRegistry()
        with span("unit.test", registry=registry) as s:
            pass
        assert s.duration is not None and s.duration >= 0
        sample = registry.snapshot()["anttune_span_seconds"]["samples"][0]
        assert sample["labels"] == {"span": "unit.test"}
        assert sample["count"] == 1

    def test_nested_spans_inherit_trace_and_parent(self):
        registry = MetricsRegistry()
        with span("outer", registry=registry) as outer:
            assert current_span() is outer
            with span("inner", registry=registry) as inner:
                assert current_span() is inner
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
            assert current_span() is outer
        assert current_span() is None

    def test_explicit_trace_id_joins_a_trace(self):
        registry = MetricsRegistry()
        with span("joined", trace_id="feedface00000001",
                  registry=registry) as s:
            assert s.trace_id == "feedface00000001"
            assert s.parent_id is None

    def test_id_generators(self):
        assert len(new_trace_id()) == 16
        assert len(new_span_id()) == 8
        assert new_trace_id() != new_trace_id()

    def test_spans_are_thread_local(self):
        registry = MetricsRegistry()
        seen = {}

        def other_thread():
            seen["span"] = current_span()

        with span("outer", registry=registry):
            t = threading.Thread(target=other_thread)
            t.start()
            t.join()
        assert seen["span"] is None


# --------------------------------------------------------------------------- #
# Trace ids on the wire
# --------------------------------------------------------------------------- #
class TestEventTraceIds:
    def test_trace_id_round_trips(self):
        event = TrialStarted(trial_id=1, params={"x": 0.5}, worker="w",
                             job_id=3, seq=0, trace_id="abc123")
        wire = event_to_wire(event)
        assert wire["trace_id"] == "abc123"
        assert event_from_wire(wire) == event

    def test_unset_trace_id_is_omitted_from_the_wire(self):
        # Pre-trace NDJSON logs and doc examples must keep round-tripping
        # byte-identically: a None trace id never appears in the payload.
        event = TrialReport(trial_id=1, step=0, value=0.5, job_id=3, seq=1)
        wire = event_to_wire(event)
        assert "trace_id" not in wire
        assert event_from_wire(wire) == event


# --------------------------------------------------------------------------- #
# Cumulative drop-counter contracts
# --------------------------------------------------------------------------- #
class TestDropCounters:
    def test_bus_drop_counters_survive_priming(self):
        bus = EventBus()
        subscription = bus.subscribe(5, max_queue=1)
        for seq in range(4):
            bus.publish(TrialReport(trial_id=0, step=seq, value=0.0, job_id=5))
        dropped = bus.dropped(5)
        assert dropped > 0
        assert bus.dropped_total() == dropped
        # Priming (the crash-recovery path) touches seq numbering only —
        # and only for jobs with no events yet: the drop counters are
        # cumulative for the bus's whole lifetime.
        bus.prime(6, 100)
        assert bus.dropped(5) == dropped
        assert bus.dropped_total() == dropped
        subscription.close()

    def test_bus_drops_feed_the_metric_by_job_label(self):
        from repro.automl import events as events_mod
        child = events_mod._QUEUE_DROPPED.labels(job="9")
        before = child.value
        bus = EventBus()
        subscription = bus.subscribe(9, max_queue=1)
        for seq in range(3):
            bus.publish(TrialReport(trial_id=0, step=seq, value=0.0, job_id=9))
        assert child.value - before == bus.dropped(9)
        subscription.close()

    def test_transport_drops_cumulative_across_pool_rebuilds(self):
        from repro.automl import executors as executors_mod
        from repro.automl.executors import ProcessPoolTrialExecutor

        class FakeTransport:
            def __init__(self, dropped):
                self.dropped = dropped

            def drain(self):
                return []

        executor = ProcessPoolTrialExecutor(n_workers=1)
        metric = executors_mod._TRANSPORT_DROPPED.labels(backend="process")
        before = metric.value
        try:
            executor._transport = FakeTransport(dropped=3)
            assert executor.telemetry_dropped == 3
            # Rebuild: the dying transport's drops fold into the baseline...
            executor._discard_pool()
            assert executor.telemetry_dropped == 3
            executor._transport = FakeTransport(dropped=2)
            # ...and the replacement's drops stack on top.
            assert executor.telemetry_dropped == 5
            executor.drain_telemetry()
            assert metric.value - before == 5
            # Mirroring is delta-based: draining again adds nothing.
            executor.drain_telemetry()
            assert metric.value - before == 5
        finally:
            executor._transport = None
            executor.close()

    def test_two_executors_sum_into_the_shared_metric(self):
        from repro.automl import executors as executors_mod
        from repro.automl.executors import ProcessPoolTrialExecutor

        class FakeTransport:
            def __init__(self, dropped):
                self.dropped = dropped

            def drain(self):
                return []

        metric = executors_mod._TRANSPORT_DROPPED.labels(backend="process")
        before = metric.value
        a, b = (ProcessPoolTrialExecutor(n_workers=1) for _ in range(2))
        try:
            a._transport = FakeTransport(dropped=2)
            b._transport = FakeTransport(dropped=5)
            a.drain_telemetry()
            b.drain_telemetry()
            assert metric.value - before == 7
        finally:
            a._transport = b._transport = None
            a.close()
            b.close()


# --------------------------------------------------------------------------- #
# Live server exposition and trace propagation
# --------------------------------------------------------------------------- #
class TestLiveExposition:
    @pytest.fixture
    def remote(self, tmp_path):
        from repro.automl.remote.http_server import RemoteTuneServer
        with RemoteTuneServer(num_workers=2, backend="thread",
                              storage=str(tmp_path / "obs.db")) as server:
            yield server

    @pytest.fixture
    def client(self, remote):
        from repro.automl.remote.client import AntTuneClient
        return AntTuneClient(remote.url, timeout=10.0)

    def _run_job(self, client, helper_module, **kwargs):
        job_id = client.submit(f"{helper_module}:SPACE",
                               f"{helper_module}:objective",
                               config={"n_trials": 3}, **kwargs)
        client.wait(job_id, timeout=30.0)
        return job_id

    def test_metrics_endpoint_covers_every_hot_path(self, client, remote,
                                                    helper_module):
        self._run_job(client, helper_module)
        text = client.metrics()
        for family in ("anttune_scheduler_tick_seconds",
                       "anttune_scheduler_ticks_total",
                       "anttune_scheduler_slots_busy",
                       "anttune_ask_seconds",
                       "anttune_tell_seconds",
                       "anttune_trial_queue_wait_seconds",
                       "anttune_trial_run_seconds",
                       "anttune_trials_total",
                       "anttune_event_publish_seconds",
                       "anttune_eventlog_append_seconds",
                       "anttune_http_request_seconds",
                       "anttune_http_requests_total",
                       "anttune_span_seconds"):
            assert f"# TYPE {family} " in text, family
        # The content type is the Prometheus text exposition.
        import urllib.request
        with urllib.request.urlopen(remote.url + "/v1/metrics") as response:
            assert response.headers["Content-Type"].startswith(
                "text/plain; version=0.0.4")

    def test_request_id_echo_and_generation(self, remote):
        import urllib.request
        request = urllib.request.Request(remote.url + "/v1/health",
                                         headers={"X-Request-Id": "req-77"})
        with urllib.request.urlopen(request) as response:
            assert response.headers["X-Request-Id"] == "req-77"
        with urllib.request.urlopen(remote.url + "/v1/health") as response:
            generated = response.headers["X-Request-Id"]
            assert generated and len(generated) == 16

    def test_request_id_becomes_the_job_trace_id(self, client, helper_module):
        job_id = self._run_job(client, helper_module, request_id="trace-42")
        assert client.poll(job_id)["trace_id"] == "trace-42"
        events = list(client.subscribe(job_id))
        assert events
        assert {event.trace_id for event in events} == {"trace-42"}

    def test_server_status_drop_counters_in_metrics(
            self, client, helper_module):
        self._run_job(client, helper_module)
        status = client.server_status()
        assert "anttune_trials_total" in status["metrics"]
        # The drop counters live in the metrics section; the flat
        # ``telemetry`` alias is gone.
        assert {"anttune_transport_dropped_total",
                "anttune_event_queue_dropped_total"} <= set(status["metrics"])
        assert "telemetry" not in status

    def test_http_metrics_use_route_templates_not_raw_paths(self, client,
                                                            remote,
                                                            helper_module):
        job_id = self._run_job(client, helper_module)
        client.poll(job_id)
        text = client.metrics()
        assert 'endpoint="/v1/jobs/{id}"' in text
        assert f'endpoint="/v1/jobs/{job_id}"' not in text

    def test_unknown_routes_share_one_bounded_label(self, client, remote):
        import urllib.error
        import urllib.request
        for path in ("/v1/nope", "/v1/also/not/here"):
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(remote.url + path)
        text = client.metrics()
        assert 'endpoint="unmatched"' in text
        assert "nope" not in text


# --------------------------------------------------------------------------- #
# CLI `metrics` subcommand
# --------------------------------------------------------------------------- #
class TestCliMetrics:
    def test_local_snapshot_from_the_db(self, tmp_path, helper_module):
        from repro.automl.cli import main
        from repro.automl.remote.http_server import RemoteTuneServer
        from repro.automl.remote.client import AntTuneClient

        db = str(tmp_path / "cli.db")
        with RemoteTuneServer(num_workers=2, backend="thread",
                              storage=db) as remote:
            client = AntTuneClient(remote.url, timeout=10.0)
            job_id = client.submit(f"{helper_module}:SPACE",
                                   f"{helper_module}:objective",
                                   config={"n_trials": 2},
                                   study_name="cli-metrics")
            client.wait(job_id, timeout=30.0)
        lines = []
        assert main(["--db", db, "metrics"], out=lines.append) == 0
        text = "\n".join(lines)
        assert 'anttune_db_studies{status="completed"} 1' in text
        assert "anttune_db_trials 2" in text
        assert "anttune_eventlog_jobs 1" in text
        assert 'anttune_eventlog_last_seq{job="0"}' in text

    def test_local_snapshot_missing_db_errors(self, tmp_path):
        from repro.automl.cli import main
        lines = []
        assert main(["--db", str(tmp_path / "nope.db"), "metrics"],
                    out=lines.append) == 1
        assert "no such database file" in lines[0]

    def test_server_mode_prints_the_exposition(self, tmp_path, helper_module):
        from repro.automl.cli import main
        from repro.automl.remote.http_server import RemoteTuneServer

        with RemoteTuneServer(num_workers=2, backend="thread") as remote:
            lines = []
            assert main(["metrics", "--server", remote.url],
                        out=lines.append) == 0
            text = "\n".join(lines)
            assert "# TYPE anttune_http_requests_total counter" in text

    def test_watch_renders_count_times(self, tmp_path):
        from repro.automl.cli import main
        from repro.automl.remote.http_server import RemoteTuneServer

        with RemoteTuneServer(num_workers=1, backend="thread") as remote:
            lines = []
            assert main(["metrics", "--server", remote.url,
                         "--watch", "0.01", "--count", "2"],
                        out=lines.append) == 0
        renders = "\n".join(lines).count("# TYPE anttune_http_requests_total")
        assert renders == 2
