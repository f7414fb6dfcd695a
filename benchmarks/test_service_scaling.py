"""EXP-SCALE — worker-process scaling of the validation daemon.

The micro-batcher (EXP-SERVE) buys batching efficiency, but every batch
still validates inside one CPython process: the GIL caps ``/v1/validate``
at one core no matter how well requests batch.  This bench drives the
same cold corpus through two otherwise-identical daemons —

* ``workers=0`` — the in-process executable spec;
* ``workers=4`` — micro-batches fanned over a pre-forked
  :class:`~repro.service.workers.WorkerPool`;

with 16 concurrent clients each.  Requests pin the tree-walking
``walk`` backend: per-file compute must dominate the pool's fixed
costs (forking, per-worker model build, pipe pickling) or the ratio
would measure overhead, not scaling.  Gates:

* **throughput**: >= 2x with ``workers=4`` on a 4+ core host (on
  smaller hosts the ratio is recorded in the artifact, not gated —
  there is nothing to scale onto);
* **byte identity, unconditional**: the pooled daemon's verdicts equal
  the in-process daemon's *and* a direct :class:`TestsuiteValidator`
  call, on every host;
* **pool health**: 4 workers configured and alive, zero restarts —
  scaling must not come from crash-respawn churn.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.core import TestsuiteValidator
from repro.corpus.generator import CorpusGenerator
from repro.service.client import ServiceClient
from repro.service.protocol import encode_verdict
from repro.service.server import make_server

#: identical for both arms so the comparison isolates the pool; the
#: small batch cutoff keeps many batches in flight for 4 dispatchers
SERVER_KNOBS = dict(
    max_batch_size=4,
    max_latency=0.01,
    queue_capacity=128,
)

CLIENT_THREADS = 16


@pytest.fixture(scope="module")
def corpus() -> dict[str, str]:
    files = CorpusGenerator(seed=170).generate("acc", 32, languages=("c", "cpp"))
    return {f"scale_{i}_{t.name}": t.source for i, t in enumerate(files)}


def _drive(workers: int, sources: dict[str, str]) -> tuple[float, dict, dict]:
    """One cold daemon at ``workers``, hammered by CLIENT_THREADS clients."""
    server = make_server(port=0, workers=workers, **SERVER_KNOBS)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = server.server_address[:2]
        work = list(sources.items())
        responses: dict[str, dict] = {}
        errors: list[Exception] = []
        lock = threading.Lock()
        index = [0]

        def client_loop():
            client = ServiceClient(host=host, port=port, timeout=120, max_retries=8)
            while True:
                with lock:
                    if index[0] >= len(work):
                        return
                    name, source = work[index[0]]
                    index[0] += 1
                try:
                    response = client.validate({name: source}, backend="walk")
                except Exception as exc:  # noqa: BLE001 - surfaced below
                    with lock:
                        errors.append(exc)
                    return
                with lock:
                    responses[name] = response

        pool = [threading.Thread(target=client_loop) for _ in range(CLIENT_THREADS)]
        t0 = time.perf_counter()
        for worker in pool:
            worker.start()
        for worker in pool:
            worker.join(300.0)
        wall = time.perf_counter() - t0
        assert not errors, errors[:3]
        assert len(responses) == len(sources)
        stats = server.service.stats_snapshot()["service"]
    finally:
        server.service.drain(timeout=30.0)
        server.shutdown()
        server.server_close()
        thread.join(10.0)
    return wall, responses, stats


def test_worker_pool_scaling_and_identity(corpus, emit_artifact):
    wall0, responses0, stats0 = _drive(0, corpus)
    wall4, responses4, stats4 = _drive(4, corpus)
    rps0 = len(corpus) / wall0
    rps4 = len(corpus) / wall4
    speedup = rps4 / rps0
    cores = os.cpu_count() or 1
    gated = cores >= 4

    # -- byte identity, unconditional: pooled == in-process == direct --
    direct = TestsuiteValidator(
        flavor="acc", execution_backend="walk"
    ).validate_sources(corpus)
    for name in corpus:
        expected = [encode_verdict(direct.verdict_for(name))]
        assert responses0[name]["verdicts"] == expected, f"workers=0 drift: {name}"
        assert responses4[name]["verdicts"] == expected, f"workers=4 drift: {name}"

    # -- pool health: parallelism, not crash-respawn churn -------------
    workers = stats4["workers"]
    assert workers["configured"] == 4
    assert workers["alive"] == 4
    assert workers["restarts"] == 0
    assert workers["batches_dispatched"] >= len(corpus) / SERVER_KNOBS["max_batch_size"]
    assert stats0["workers"]["configured"] == 0

    emit_artifact(
        "service_scaling",
        "\n".join(
            [
                "Validation service: worker-process scaling (cold cache each):",
                f"  workers=0 : {len(corpus)} requests in {wall0:6.2f}s "
                f"= {rps0:6.1f} req/s",
                f"  workers=4 : {len(corpus)} requests in {wall4:6.2f}s "
                f"= {rps4:6.1f} req/s",
                f"  speedup   : {speedup:5.2f}x on {cores} core(s) "
                + ("(gate: >= 2x)" if gated else "(recorded only: < 4 cores)"),
                f"  pool      : {workers['batches_dispatched']} batches over "
                f"{workers['configured']} workers "
                f"({workers['restarts']} restarts)",
                "  byte-identity: workers=4 == workers=0 == direct validator",
            ]
        ),
    )

    if gated:
        assert speedup >= 2.0, (
            f"workers=4 throughput only {speedup:.2f}x workers=0 on "
            f"{cores} cores ({rps4:.1f} vs {rps0:.1f} req/s)"
        )
