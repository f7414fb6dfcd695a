"""BENCH-OBS — the telemetry layer's overhead budget.

The tracing design claims the hot path stays cheap: with no tracer
installed every ``trace.span`` call is one module-attribute read and a
shared no-op handle, and metrics updates are a dict lookup plus a
locked add.  With a tracer installed, every request grows a span tree
(request → batch → scheduler → stages) that is allocated, clocked, and
buffered.

This bench drives the same warm-cache serving workload with tracing
off and tracing on and gates the ratio:

* traced throughput >= 0.9x untraced (i.e. <= ~10% overhead);
* the traced run really collected spans (no vacuous pass);
* machine-readable ``BENCH_obs.json`` lands in benchmarks/output/.

Phases alternate off/on inside each attempt and the best of three
attempts is kept, so a background scheduling hiccup cannot fail the
gate spuriously.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path

import pytest

from repro.cache.bundle import PipelineCache
from repro.corpus.generator import CorpusGenerator
from repro.obs import trace
from repro.service.client import ServiceClient
from repro.service.server import make_server

OUTPUT_DIR = Path(__file__).parent / "output"

SERVER_KNOBS = dict(
    max_batch_size=8,
    max_latency=0.002,
    queue_capacity=128,
)

ATTEMPTS = 3
GATE_RATIO = 0.9


@pytest.fixture(scope="module")
def corpus():
    files = CorpusGenerator(seed=88).generate("acc", 16, languages=("c", "cpp"))
    return {f"obs_{i}_{t.name}": t.source for i, t in enumerate(files)}


def _serial_wall(client, sources) -> float:
    t0 = time.perf_counter()
    for name, source in sources.items():
        client.validate({name: source})
    return time.perf_counter() - t0


def test_tracing_overhead_within_budget(corpus, emit_artifact):
    server = make_server(port=0, cache=PipelineCache(), **SERVER_KNOBS)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    tracer = trace.Tracer()
    try:
        host, port = server.server_address[:2]
        client = ServiceClient(host=host, port=port, timeout=60)
        _serial_wall(client, corpus)  # warm the cache once

        best = None
        for _ in range(ATTEMPTS):
            trace.uninstall()
            wall_off = _serial_wall(client, corpus)
            with trace.installed(tracer):
                wall_on = _serial_wall(client, corpus)
            ratio = wall_off / wall_on if wall_on > 0 else 1.0
            sample = {
                "rps_off": len(corpus) / wall_off,
                "rps_on": len(corpus) / wall_on,
                "ratio": ratio,
            }
            if best is None or sample["ratio"] > best["ratio"]:
                best = sample
            if best["ratio"] >= 1.0:
                break
    finally:
        trace.uninstall()
        server.service.drain(timeout=30.0)
        server.shutdown()
        server.server_close()
        thread.join(10.0)

    spans = tracer.spans
    assert spans, "traced phase collected no spans — the bench measured nothing"
    assert {"service.request", "service.batch"} <= {s.name for s in spans}

    payload = {
        "bench": "obs_overhead",
        "requests_per_phase": len(corpus),
        "attempts": ATTEMPTS,
        "rps_tracing_off": round(best["rps_off"], 2),
        "rps_tracing_on": round(best["rps_on"], 2),
        "throughput_ratio": round(best["ratio"], 4),
        "gate_ratio": GATE_RATIO,
        "spans_collected": len(spans),
    }
    from repro.core.atomicio import atomic_write_json

    atomic_write_json(OUTPUT_DIR / "BENCH_obs.json", payload, indent=2)
    emit_artifact(
        "obs_overhead",
        "\n".join(
            [
                "BENCH-OBS — tracing overhead on the warm serving path",
                f"  tracing off:  {payload['rps_tracing_off']:.1f} req/s",
                f"  tracing on:   {payload['rps_tracing_on']:.1f} req/s "
                f"({payload['spans_collected']} spans collected)",
                f"  ratio:        {payload['throughput_ratio']:.3f} "
                f"(gate >= {GATE_RATIO})",
            ]
        ),
    )

    assert best["ratio"] >= GATE_RATIO, (
        f"tracing costs too much: traced throughput is "
        f"{best['ratio']:.2f}x untraced (gate {GATE_RATIO}x); "
        f"{payload['rps_tracing_on']:.1f} vs {payload['rps_tracing_off']:.1f} req/s"
    )
