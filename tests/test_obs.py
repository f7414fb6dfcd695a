"""Unified telemetry: tracer, metrics registry, exporters, service wiring.

The load-bearing properties under test:

* spans form one tree per request even when the work crosses threads
  and processes (a pool worker ships its spans home with its task's
  value);
* the metrics registry merges across processes exactly like
  ``PipelineStats`` — baseline, diff, apply;
* ``GET /v1/metrics`` serves Prometheus text and ``X-Request-Id`` is
  echoed and recoverable from the span log;
* telemetry is provably inert: tracing on cannot change verdict bytes
  or campaign digests.
"""

from __future__ import annotations

import http.client
import json
import threading

import pytest

from repro.obs import trace
from repro.obs.export import (
    chrome_trace,
    load_span_log,
    render_gantt,
    render_summary,
    summarize_spans,
    write_span_log,
)
from repro.obs.metrics import (
    MetricsRegistry,
    get_metrics,
    reset_metrics,
    series,
)
from repro.service.protocol import ValidateOptions, ValidateRequest
from repro.service.server import ValidationService, make_server
from repro.testing import faultinject

OPTIONS = ValidateOptions(
    flavor="acc", judge="direct", early_exit=True, backend="closure"
)


@pytest.fixture(autouse=True)
def _clean_telemetry(monkeypatch):
    """Every test starts with no ambient tracer, fresh metrics, and no
    armed faults — and must leave the process the same way."""
    monkeypatch.delenv(faultinject.ENV_VAR, raising=False)
    faultinject.clear()
    trace.uninstall()
    reset_metrics()
    yield
    trace.uninstall()
    reset_metrics()
    faultinject.clear()


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------


class TestTracer:
    def test_nested_spans_share_a_trace_and_link_parents(self):
        tracer = trace.Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.trace_id == outer.trace_id
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert len(tracer) == 2

    def test_sibling_roots_get_distinct_traces(self):
        tracer = trace.Tracer()
        with tracer.span("a") as a:
            pass
        with tracer.span("b") as b:
            pass
        assert a.trace_id != b.trace_id

    def test_explicit_parent_crosses_threads(self):
        """contextvars do not cross threads; the captured TraceContext
        must — the way a pool task's root span opens from a context the
        dispatcher captured."""
        tracer = trace.Tracer()
        seen = {}

        def work(ctx):
            with tracer.span("child", parent=ctx) as child:
                seen["child"] = child

        with tracer.span("root") as root:
            thread = threading.Thread(target=work, args=(root.context,))
            thread.start()
            thread.join()
        child = seen["child"]
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id

    def test_module_span_is_noop_without_tracer(self):
        assert trace.active() is None
        with trace.span("anything") as span:
            # the noop handle tolerates the instrumentation's writes
            span.attrs["crashed"] = True
            assert span.context is None
        assert trace.current() is None

    def test_installed_restores_the_previous_tracer(self):
        first = trace.Tracer()
        trace.install(first)
        with trace.installed(trace.Tracer()) as second:
            assert trace.active() is second
        assert trace.active() is first

    def test_absorb_reparents_shipped_dicts(self):
        """The parent folds worker spans (already parented under the
        shipped context) into its buffer as real records."""
        parent = trace.Tracer()
        with parent.span("pool.dispatch") as dispatch:
            remote = trace.Tracer()
            with remote.span("worker.execute_batch", parent=dispatch.context):
                pass
            shipped = [s.to_json() for s in remote.drain()]
        assert parent.absorb(shipped) == 1
        worker_span = [s for s in parent.spans if s.name == "worker.execute_batch"][0]
        assert worker_span.trace_id == dispatch.trace_id
        assert worker_span.parent_id == dispatch.span_id

    def test_span_ids_do_not_touch_the_global_rng(self):
        import random

        random.seed(99)
        expected = random.random()
        random.seed(99)
        tracer = trace.Tracer()
        with tracer.span("rng-neutral"):
            pass
        assert random.random() == expected


# ----------------------------------------------------------------------
# metrics registry
# ----------------------------------------------------------------------


class TestMetrics:
    def test_counter_identity_by_name_and_labels(self):
        reg = MetricsRegistry()
        reg.counter("hits_total", kind="a").inc()
        reg.counter("hits_total", kind="a").inc(2)
        reg.counter("hits_total", kind="b").inc()
        assert reg.counter("hits_total", kind="a").state() == 3
        assert reg.counter("hits_total", kind="b").state() == 1

    def test_counter_refuses_to_decrease(self):
        with pytest.raises(ValueError, match="cannot decrease"):
            MetricsRegistry().counter("c_total").inc(-1)

    def test_histogram_buckets_and_sum(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat_seconds", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            hist.observe(value)
        state = hist.state()
        assert state["counts"] == [1, 1, 1]  # <=0.1, <=1.0, +Inf
        assert state["count"] == 3
        assert state["sum"] == pytest.approx(5.55)

    def test_diff_apply_round_trip_is_the_worker_protocol(self):
        """Fork inherits parent counts: the baseline must keep them out
        of the delta, and only growth may ship."""
        worker = MetricsRegistry()
        worker.counter("batches_total").inc(7)  # inherited pre-fork
        baseline = worker.export_state()

        worker.counter("batches_total").inc(2)
        worker.histogram("lat_seconds", buckets=(1.0,)).observe(0.5)
        delta, new_baseline = worker.diff(baseline)

        parent = MetricsRegistry()
        parent.apply(delta)
        assert parent.counter("batches_total").state() == 2
        assert parent.histogram("lat_seconds", buckets=(1.0,)).state()["count"] == 1

        # nothing moved since: the next delta is empty
        next_delta, _ = worker.diff(new_baseline)
        assert next_delta == {}

    def test_gauges_stay_out_of_diffs(self):
        reg = MetricsRegistry()
        reg.gauge("depth").set(9)
        assert reg.export_state() == {}

    def test_untouched_instruments_stay_out_of_a_fresh_diff(self):
        """An idle worker ships an empty delta, even with instruments
        fetched (a run fetches every stage's up front)."""
        reg = MetricsRegistry()
        reg.counter("idle_total")
        reg.histogram("idle_seconds")
        assert reg.diff({})[0] == {}
        reg.counter("idle_total").inc()
        assert list(reg.diff({})[0]) == [("counter", "idle_total", ())]

    def test_apply_refuses_a_histogram_of_another_shape(self):
        sender = MetricsRegistry()
        sender.histogram("lat_seconds", buckets=(1.0, 2.0)).observe(0.5)
        receiver = MetricsRegistry()
        receiver.histogram("lat_seconds", buckets=(1.0,)).observe(0.5)
        with pytest.raises(ValueError, match="bucket shape mismatch"):
            receiver.apply(sender.diff({})[0])

    def test_series_reads_one_instrument_from_a_delta(self):
        reg = MetricsRegistry()
        reg.counter("lookups_total", namespace="judge", result="hit").inc(2)
        reg.counter("lookups_total", namespace="judge", result="miss").inc()
        reg.counter("other_total").inc()
        found = sorted(
            (labels["result"], value)
            for labels, value in series(reg.diff({})[0], "lookups_total")
        )
        assert found == [("hit", 2.0), ("miss", 1.0)]
        assert series({}, "lookups_total") == []

    def test_merge_folds_another_registry(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("n_total").inc(1)
        b.counter("n_total").inc(4)
        a.merge(b)
        assert a.counter("n_total").state() == 5

    def test_prometheus_rendering(self):
        reg = MetricsRegistry()
        reg.counter("req_total", code="200").inc(3)
        reg.gauge("depth").set(2)
        hist = reg.histogram("lat_seconds", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        text = reg.render_prometheus()
        assert '# TYPE req_total counter' in text
        assert 'req_total{code="200"} 3' in text
        assert "# TYPE depth gauge" in text
        assert 'lat_seconds_bucket{le="0.1"} 1' in text
        assert 'lat_seconds_bucket{le="1"} 2' in text  # cumulative
        assert 'lat_seconds_bucket{le="+Inf"} 2' in text
        assert "lat_seconds_count 2" in text

    def test_reset_clears_the_global_registry(self):
        get_metrics().counter("stale_total").inc()
        reset_metrics()
        assert get_metrics().render_prometheus() == ""


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------


def _make_spans():
    tracer = trace.Tracer()
    with tracer.span("service.request", request_id="req-1"):
        with tracer.span("stage.compile", file="a.c"):
            pass
        with tracer.span("stage.execute", file="a.c"):
            pass
    return tracer.spans


class TestExport:
    def test_span_log_round_trip(self, tmp_path):
        spans = _make_spans()
        path = tmp_path / "spans.jsonl"
        write_span_log(spans, path)
        loaded = load_span_log(path)
        assert [s["name"] for s in loaded] == [s.name for s in spans]
        assert loaded[0]["trace_id"] == spans[0].trace_id

    def test_chrome_trace_shape(self):
        payload = chrome_trace(_make_spans())
        events = payload["traceEvents"]
        assert len(events) == 3
        for event in events:
            assert event["ph"] == "X"
            assert event["ts"] >= 0  # µs, relative to the earliest span
            assert event["dur"] >= 0
            assert event["args"]["trace_id"]
        assert events[0]["ts"] == 0
        # attrs travel in args so request ids are searchable in Perfetto
        names = {e["name"]: e for e in events}
        assert names["service.request"]["args"]["request_id"] == "req-1"

    def test_summarize_collects_names_and_request_ids(self):
        summary = summarize_spans(_make_spans())
        assert summary["spans"] == 3
        assert summary["traces"] == 1
        assert summary["request_ids"] == ["req-1"]
        assert set(summary["by_name"]) == {
            "service.request", "stage.compile", "stage.execute",
        }
        text = render_summary(summary)
        assert "req-1" in text and "stage.compile" in text

    def test_gantt_renders_stage_rows(self):
        text = render_gantt(_make_spans())
        assert "a.c" in text
        assert "C=compile" in text


# ----------------------------------------------------------------------
# service wiring (HTTP + cross-process)
# ----------------------------------------------------------------------


@pytest.fixture()
def traced_server(tmp_path):
    """A live daemon with a trace log, torn down (and flushed) after."""
    server = make_server(
        port=0, max_latency=0.005, trace_log=str(tmp_path / "spans.jsonl")
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.service.drain(timeout=10.0)
        server.shutdown()
        server.server_close()
        thread.join(10.0)


def _http(server, method, path, body=None, headers=None):
    host, port = server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=60)
    try:
        conn.request(
            method, path,
            body=json.dumps(body) if body is not None else None,
            headers=headers or {},
        )
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


class TestServiceTelemetry:
    def test_request_id_echoed_and_in_span_log(
        self, traced_server, valid_acc_source, tmp_path
    ):
        status, headers, _ = _http(
            traced_server, "POST", "/v1/validate",
            body={"files": {"a.c": valid_acc_source}},
            headers={"X-Request-Id": "req-telemetry-1"},
        )
        assert status == 200
        assert headers["X-Request-Id"] == "req-telemetry-1"

        traced_server.service.drain(timeout=10.0)
        spans = load_span_log(tmp_path / "spans.jsonl")
        request_spans = [s for s in spans if s["name"] == "service.request"]
        assert request_spans[0]["attrs"]["request_id"] == "req-telemetry-1"
        # the whole request is one trace: batch and stages hang off it
        trace_id = request_spans[0]["trace_id"]
        names = {s["name"] for s in spans if s["trace_id"] == trace_id}
        assert {"service.request", "service.batch", "stage.judge"} <= names

    def test_request_id_generated_when_absent(self, traced_server, valid_acc_source):
        status, headers, _ = _http(
            traced_server, "POST", "/v1/validate",
            body={"files": {"a.c": valid_acc_source}},
        )
        assert status == 200
        assert len(headers["X-Request-Id"]) == 16  # new_id(): 8 hex bytes

    def test_metrics_endpoint_serves_prometheus_text(
        self, traced_server, valid_acc_source
    ):
        _http(
            traced_server, "POST", "/v1/validate",
            body={"files": {"a.c": valid_acc_source}},
        )
        status, headers, body = _http(traced_server, "GET", "/v1/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        text = body.decode()
        assert 'service_requests_total{endpoint="validate",status="200"} 1' in text
        assert "pipeline_stage_seconds_bucket" in text
        assert "service_batcher_completed_total 1" in text
        assert "service_batch_size_bucket" in text
        assert "service_uptime_seconds" in text

    def test_metrics_endpoint_nonempty_on_fresh_daemon(self, traced_server):
        status, _, body = _http(traced_server, "GET", "/v1/metrics")
        assert status == 200
        text = body.decode()
        # exposition-time gauges guarantee series before any traffic
        assert "service_queue_capacity" in text
        assert "service_workers_configured" in text


class TestCrossProcessReassembly:
    def test_worker_spans_come_home_in_one_trace(self, valid_acc_source):
        tracer = trace.Tracer()
        with trace.installed(tracer):
            service = ValidationService(workers=1, max_latency=0.005)
            try:
                with tracer.span("service.request"):
                    service.submit(
                        ValidateRequest(files=(("a.c", valid_acc_source),), options=OPTIONS)
                    ).result(timeout=120)
            finally:
                service.drain(timeout=30.0)
        spans = tracer.spans
        by_name = {s.name: s for s in spans}
        assert {"service.batch", "pool.dispatch", "worker.execute_batch",
                "scheduler.run", "stage.judge"} <= set(by_name)
        assert len({s.trace_id for s in spans}) == 1
        assert by_name["worker.execute_batch"].parent_id == by_name["pool.dispatch"].span_id
        assert by_name["worker.execute_batch"].pid != by_name["pool.dispatch"].pid

    def test_crashed_attempt_and_retry_are_both_visible(
        self, monkeypatch, valid_acc_source
    ):
        """The kill-mid-batch scenario end to end: the trace must show
        both dispatch attempts (the first marked crashed) and the
        counters must agree with ``/v1/stats``."""
        monkeypatch.setenv(faultinject.ENV_VAR, "worker:pre-result@2=kill")
        tracer = trace.Tracer()
        with trace.installed(tracer):
            service = ValidationService(workers=1, max_latency=0.005)
            try:
                for name in ("a.c", "b.c"):
                    service.submit(
                        ValidateRequest(files=((name, valid_acc_source),), options=OPTIONS)
                    ).result(timeout=120)
                snap = service.stats_snapshot()["service"]["workers"]
            finally:
                service.drain(timeout=30.0)
        assert snap["restarts"] == 1 and snap["retries"] == 1

        dispatches = [s for s in tracer.spans if s.name == "pool.dispatch"]
        assert len(dispatches) == 3  # batch 1; batch 2 crashed; batch 2 retry
        crashed = [s for s in dispatches if s.attrs.get("crashed")]
        assert len(crashed) == 1
        assert crashed[0].attrs["attempt"] == 1
        retried = [s for s in dispatches if s.attrs.get("attempt") == 2]
        assert len(retried) == 1

        registry = get_metrics()
        assert registry.counter("service_worker_restarts_total").state() == 1
        assert registry.counter("service_worker_retries_total").state() == 1

        # the killed attempt's spans died with the worker; the retry's
        # came home under the second dispatch span
        workers = [s for s in tracer.spans if s.name == "worker.execute_batch"]
        assert len(workers) == 2
        assert workers[1].parent_id == retried[0].span_id

    def test_worker_metrics_deltas_fold_into_parent(self, valid_acc_source):
        service = ValidationService(workers=1, max_latency=0.005)
        try:
            request = ValidateRequest(
                files=(("a.c", valid_acc_source),), options=OPTIONS
            )
            service.submit(request).result(timeout=120)
        finally:
            service.drain(timeout=30.0)
        registry = get_metrics()
        # these counters only move inside the worker process
        assert registry.counter(
            "pipeline_stage_items_total", stage="judge"
        ).state() == 1
        assert registry.histogram(
            "pipeline_stage_seconds", stage="compile"
        ).state()["count"] == 1


# ----------------------------------------------------------------------
# inertness: tracing on cannot change results
# ----------------------------------------------------------------------


class TestInertness:
    def test_verdict_bytes_identical_with_tracing_on(self, acc_corpus):
        sources = {test.name: test.source for test in acc_corpus[:4]}

        def run(workers, traced):
            service = ValidationService(workers=workers, max_latency=0.005)
            try:
                request = ValidateRequest(
                    files=tuple(sources.items()), options=OPTIONS
                )
                if traced:
                    with trace.installed(trace.Tracer()):
                        response = service.submit(request).result(timeout=120)
                else:
                    response = service.submit(request).result(timeout=120)
                return json.dumps(response["verdicts"], sort_keys=True)
            finally:
                service.drain(timeout=60.0)

        untraced = run(0, traced=False)
        assert run(0, traced=True) == untraced
        assert run(1, traced=True) == untraced

    def test_campaign_digest_unmoved_by_tracing(self):
        from repro.fuzz.campaign import Campaign, CampaignConfig

        config = CampaignConfig(
            seed=5, rounds=1, batch_size=4, seed_count=2,
            workers=1, triage="divergent",
        )
        plain = Campaign(config).run()
        with trace.installed(trace.Tracer()) as tracer:
            traced = Campaign(config).run()
        assert traced.digest() == plain.digest()
        # the run really was observed, not skipped
        assert get_metrics().counter("fuzz_rounds_total").state() >= 1
