"""EXP-SERVE — the serving layer's micro-batching economics.

A load generator drives a live daemon (ephemeral port, in-process
``ThreadingHTTPServer``) two ways over disjoint cold corpora:

* **serial** — one client, one request at a time: every request pays
  its own batch window and its own pipeline run;
* **concurrent** — many clients at once: the admission layer groups
  them into micro-batches that share one StageScheduler run and one
  PipelineCache.

Gates (the PR's acceptance criteria):

* concurrent micro-batched throughput >= 2x serial request-at-a-time;
* a warm-cache ``/v1/validate`` round-trips in < 50 ms;
* every verdict the service returns is byte-identical to a direct
  :class:`TestsuiteValidator` call on the same source.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.cache.bundle import PipelineCache
from repro.core import TestsuiteValidator
from repro.corpus.generator import CorpusGenerator
from repro.service.client import ServiceClient
from repro.service.protocol import encode_verdict
from repro.service.server import make_server

#: Same knobs for both phases so the comparison isolates *concurrency*,
#: not configuration: a short batch window and a roomy admission queue.
SERVER_KNOBS = dict(
    max_batch_size=8,
    max_latency=0.01,
    queue_capacity=128,
)


@pytest.fixture(scope="module")
def corpus():
    """48 distinct valid-leaning test files, split into two cold halves."""
    files = CorpusGenerator(seed=77).generate("acc", 48, languages=("c", "cpp"))
    return {f"serial_{i}_{t.name}" if i < 24 else f"conc_{i}_{t.name}": t.source
            for i, t in enumerate(files)}


def _start_server(cache=None):
    server = make_server(port=0, cache=cache, **SERVER_KNOBS)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


def _stop_server(server, thread):
    server.service.drain(timeout=30.0)
    server.shutdown()
    server.server_close()
    thread.join(10.0)


def _serial_phase(client, sources) -> tuple[float, dict[str, dict]]:
    responses = {}
    t0 = time.perf_counter()
    for name, source in sources.items():
        responses[name] = client.validate({name: source})
    return time.perf_counter() - t0, responses


def _concurrent_phase(server, sources, threads=12) -> tuple[float, dict[str, dict]]:
    host, port = server.server_address[:2]
    work = list(sources.items())
    responses: dict[str, dict] = {}
    errors: list[Exception] = []
    lock = threading.Lock()
    index = [0]

    def drive():
        client = ServiceClient(host=host, port=port, timeout=60, max_retries=8)
        while True:
            with lock:
                if index[0] >= len(work):
                    return
                name, source = work[index[0]]
                index[0] += 1
            try:
                response = client.validate({name: source})
            except Exception as exc:  # noqa: BLE001 - surfaced below
                with lock:
                    errors.append(exc)
                return
            with lock:
                responses[name] = response

    pool = [threading.Thread(target=drive) for _ in range(threads)]
    t0 = time.perf_counter()
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join(120.0)
    wall = time.perf_counter() - t0
    assert not errors, errors[:3]
    return wall, responses


def test_service_throughput_and_identity(corpus, emit_artifact):
    serial_sources = {k: v for k, v in corpus.items() if k.startswith("serial_")}
    concurrent_sources = {k: v for k, v in corpus.items() if k.startswith("conc_")}

    server, thread = _start_server(cache=PipelineCache())
    try:
        host, port = server.server_address[:2]
        client = ServiceClient(host=host, port=port, timeout=60)

        # -- cold serial: one request at a time ------------------------
        serial_wall, serial_responses = _serial_phase(client, serial_sources)
        serial_rps = len(serial_sources) / serial_wall

        # -- cold concurrent: micro-batched ----------------------------
        concurrent_wall, concurrent_responses = _concurrent_phase(
            server, concurrent_sources
        )
        concurrent_rps = len(concurrent_sources) / concurrent_wall
        speedup = concurrent_rps / serial_rps

        # -- warm round-trip latency -----------------------------------
        warm_name = next(iter(serial_sources))
        warm_sources = {warm_name: serial_sources[warm_name]}
        client.validate(warm_sources)  # ensure warm
        warm_times = []
        for _ in range(5):
            t0 = time.perf_counter()
            client.validate(warm_sources)
            warm_times.append(time.perf_counter() - t0)
        warm_ms = min(warm_times) * 1000

        batching = server.service.batcher.snapshot()
    finally:
        _stop_server(server, thread)

    # -- byte-identity against direct pipeline calls -------------------
    validator = TestsuiteValidator(flavor="acc")
    direct = validator.validate_sources(corpus)
    for name, response in {**serial_responses, **concurrent_responses}.items():
        expected = [encode_verdict(direct.verdict_for(name))]
        assert response["verdicts"] == expected, f"verdict drift for {name}"

    emit_artifact(
        "service_throughput",
        "\n".join(
            [
                "Validation service: micro-batched vs serial (cold cache each):",
                f"  serial     : {len(serial_sources)} requests in "
                f"{serial_wall:6.2f}s = {serial_rps:6.1f} req/s",
                f"  concurrent : {len(concurrent_sources)} requests in "
                f"{concurrent_wall:6.2f}s = {concurrent_rps:6.1f} req/s",
                f"  speedup    : {speedup:5.2f}x (gate: >= 2x)",
                f"  warm /v1/validate round-trip: {warm_ms:5.1f} ms (gate: < 50 ms)",
                f"  batches: {batching['batches']} for "
                f"{batching['completed']} requests "
                f"(largest {batching['largest_batch']}, "
                f"{batching['size_cutoffs']} size-cut, "
                f"{batching['latency_cutoffs']} latency-cut)",
            ]
        ),
    )

    assert batching["largest_batch"] > 1, "concurrency never formed a batch"
    assert warm_ms < 50, f"warm round-trip {warm_ms:.1f} ms >= 50 ms"
    assert speedup >= 2.0, (
        f"micro-batched throughput only {speedup:.2f}x serial "
        f"({concurrent_rps:.1f} vs {serial_rps:.1f} req/s)"
    )


def test_warm_cache_round_trip_fast_path(emit_artifact):
    """CI fast path: daemon up, one cold + five warm requests, < 50 ms.

    A subset of the full bench (no load generation) so the smoke job
    can gate the latency claim in seconds, not minutes.
    """
    source = CorpusGenerator(seed=99).generate("acc", 1, languages=("c",))[0].source
    server, thread = _start_server(cache=PipelineCache())
    try:
        host, port = server.server_address[:2]
        client = ServiceClient(host=host, port=port, timeout=60)
        client.validate({"warmup.c": source})
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            response = client.validate({"warmup.c": source})
            times.append(time.perf_counter() - t0)
        warm_ms = min(times) * 1000
        assert response["summary"]["total"] == 1
    finally:
        _stop_server(server, thread)

    emit_artifact(
        "service_warm_latency",
        f"Warm /v1/validate round-trip: {warm_ms:5.1f} ms (gate: < 50 ms)",
    )
    assert warm_ms < 50, f"warm round-trip {warm_ms:.1f} ms >= 50 ms"
