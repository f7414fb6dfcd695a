"""Golden ``/v1/metrics`` series names.

Dashboards and alerts key on series names, so a refactor of how counts
are stored must not drop one.  The test resets the process registry,
drives a fixed mix of traffic through an in-process daemon (validate a
passing and a failing file, one judge call, one tiny campaign job) and
asserts that every series in :data:`GOLDEN_SERIES` is still exposed.
New series may appear; none of these may disappear.

A series is the metric name plus its label set, with the histogram
``le`` label dropped (every bucket of a histogram is one series here).
"""

from __future__ import annotations

import http.client
import re
import threading

from repro.cache.bundle import PipelineCache
from repro.fuzz.campaign import CampaignConfig
from repro.obs.metrics import reset_metrics
from repro.service.client import ServiceClient
from repro.service.server import make_server

TINY_CAMPAIGN = CampaignConfig(
    seed=5, rounds=1, batch_size=4, seed_count=3,
    workers=1, judge_workers=1, triage="off",
)

#: every series the daemon exposed for this traffic before the counting
#: store was unified (pinned by running this test against that tree)
GOLDEN_SERIES = frozenset({
    'cache_lookups_total{namespace="compile",result="hit"}',
    'cache_lookups_total{namespace="compile",result="miss"}',
    'cache_lookups_total{namespace="execute",result="hit"}',
    'cache_lookups_total{namespace="execute",result="miss"}',
    'cache_lookups_total{namespace="fuzz",result="miss"}',
    'cache_lookups_total{namespace="judge",result="hit"}',
    'cache_lookups_total{namespace="judge",result="miss"}',
    'fuzz_candidates_total',
    'fuzz_corpus_size',
    'fuzz_frontier_size',
    'fuzz_rounds_total',
    'pipeline_stage_items_total{stage="compile"}',
    'pipeline_stage_items_total{stage="differential"}',
    'pipeline_stage_items_total{stage="execute"}',
    'pipeline_stage_items_total{stage="judge"}',
    'pipeline_stage_items_total{stage="mutate"}',
    'pipeline_stage_seconds_bucket{stage="compile"}',
    'pipeline_stage_seconds_bucket{stage="differential"}',
    'pipeline_stage_seconds_bucket{stage="execute"}',
    'pipeline_stage_seconds_bucket{stage="judge"}',
    'pipeline_stage_seconds_bucket{stage="mutate"}',
    'pipeline_stage_seconds_count{stage="compile"}',
    'pipeline_stage_seconds_count{stage="differential"}',
    'pipeline_stage_seconds_count{stage="execute"}',
    'pipeline_stage_seconds_count{stage="judge"}',
    'pipeline_stage_seconds_count{stage="mutate"}',
    'pipeline_stage_seconds_sum{stage="compile"}',
    'pipeline_stage_seconds_sum{stage="differential"}',
    'pipeline_stage_seconds_sum{stage="execute"}',
    'pipeline_stage_seconds_sum{stage="judge"}',
    'pipeline_stage_seconds_sum{stage="mutate"}',
    'service_batch_seconds_bucket',
    'service_batch_seconds_count',
    'service_batch_seconds_sum',
    'service_batch_size_bucket',
    'service_batch_size_count',
    'service_batch_size_sum',
    'service_batcher_batches_total',
    'service_batcher_completed_total',
    'service_batcher_latency_cutoffs_total',
    'service_batcher_submitted_total',
    'service_cache_hit_ratio{namespace="compile"}',
    'service_cache_hit_ratio{namespace="execute"}',
    'service_cache_hit_ratio{namespace="fuzz"}',
    'service_cache_hit_ratio{namespace="judge"}',
    'service_job_transitions_total{state="done"}',
    'service_job_transitions_total{state="running"}',
    'service_jobs{state="checkpointed"}',
    'service_jobs{state="done"}',
    'service_jobs{state="failed"}',
    'service_jobs{state="queued"}',
    'service_jobs{state="running"}',
    'service_queue_capacity',
    'service_queue_depth',
    'service_request_seconds_bucket{endpoint="validate"}',
    'service_request_seconds_count{endpoint="validate"}',
    'service_request_seconds_sum{endpoint="validate"}',
    'service_requests_total{endpoint="judge",status="200"}',
    'service_requests_total{endpoint="validate",status="200"}',
    'service_uptime_seconds',
    'service_workers_alive',
    'service_workers_configured',
})

_SAMPLE = re.compile(r"^([A-Za-z_:][A-Za-z0-9_:]*)(?:\{(.*)\})? \S+$")
_LABEL = re.compile(r'([A-Za-z_][A-Za-z0-9_]*)="((?:[^"\\]|\\.)*)"')


def exposed_series(text: str) -> set[str]:
    """Series names (``le`` dropped) in a Prometheus text body."""
    series = set()
    for line in text.splitlines():
        match = _SAMPLE.match(line)
        if match is None:
            continue
        name, body = match.groups()
        labels = [
            f'{key}="{value}"'
            for key, value in _LABEL.findall(body or "")
            if key != "le"
        ]
        series.add(name + ("{" + ",".join(labels) + "}" if labels else ""))
    return series


def drive_fixed_traffic(tmp_path, good: str, bad: str) -> str:
    """The fixed traffic mix; returns the final ``/v1/metrics`` body."""
    reset_metrics()
    server = make_server(
        port=0, max_latency=0.005, cache=PipelineCache(),
        jobs_dir=str(tmp_path / "jobs"),
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        client = ServiceClient(host=host, port=port, timeout=120.0)
        client.validate({"good.c": good, "bad.c": bad})
        client.validate({"good.c": good})
        client.judge("good.c", good)
        job = client.submit_job("campaign", TINY_CAMPAIGN.to_json())
        finished = client.wait_for_job(job["id"], timeout=180.0)
        assert finished["state"] == "done", finished.get("error")
        conn = http.client.HTTPConnection(host, port, timeout=60)
        try:
            conn.request("GET", "/v1/metrics")
            response = conn.getresponse()
            assert response.status == 200
            return response.read().decode("utf-8")
        finally:
            conn.close()
    finally:
        server.service.drain(timeout=30.0)
        server.shutdown()
        server.server_close()
        thread.join(10.0)


def test_every_golden_series_is_still_exposed(tmp_path, valid_acc_source):
    # a syntax error in main: fails at compile, so the judge is skipped
    bad = valid_acc_source.replace("{", "{ int x = ;", 1)
    text = drive_fixed_traffic(tmp_path, valid_acc_source, bad)
    missing = sorted(GOLDEN_SERIES - exposed_series(text))
    assert not missing, f"series dropped from /v1/metrics: {missing}"
