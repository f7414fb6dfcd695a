"""The daemon's batch task: one micro-batch, validated in a pool worker.

One CPython process runs one interpreter backend at a time, so however
well ``/v1/validate`` batches, validation in one process is capped at a
core.  With ``workers=N``, :class:`~repro.service.server.ValidationService`
opens one :class:`~repro.pipeline.pool.ComputePool` of N processes at
start and sends each micro-batch to it as one :func:`batch_task`; the
service retries a batch once after a worker crash.

The service's cache stays in the parent, as a pooled ``validate``
run's does.  The parent sends a batch with the entries its cache holds
for the batch's chains (:func:`batch_seeds`).  The task builds a judge
model and validators, and runs :func:`execute_batch` over a
:func:`~repro.pipeline.engine.recording` of those entries.  The parent
then replays the recorded lookups against its cache
(:func:`~repro.pipeline.engine.replay`), which counts them and stores
what the task computed.

``workers=0`` keeps the pool out of the loop: the service runs
:func:`execute_batch` in-process over its cache, byte for byte the code
the task runs — the executable spec the scaling benchmark's identity
gate holds the pool to.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Sequence

from repro.core.validator import TestsuiteValidator
from repro.llm.model import DeepSeekCoderSim
from repro.pipeline.engine import Lookup, recording
from repro.pipeline.pool import ComputeSpec, run_task
from repro.service.protocol import encode_verdict
from repro.testing.faultinject import fault_point

#: how the daemon names its pool tasks: the worker's root span is
#: ``worker.execute_batch``
SERVE = ComputeSpec("execute_batch", "batch", "service:worker-compute")


def execute_batch(
    validator_for: Callable,
    options,
    requests: Sequence[Sequence[tuple[str, str]]],
    lookup: Lookup | None = None,
) -> list[dict]:
    """One micro-batch -> one (or few) shared pipeline runs.

    Returns one response dict per request, in request order, lacking
    only the ``queued_ms`` timing (which only the parent knows).

    All requests share ``options`` (the batcher groups by it), so their
    files fan through one validator — one pipeline run, one shared
    cache lookup (the validator's cache, or ``lookup`` when given).
    The only reason to split a batch is a
    file-name collision between requests: names must be unique within a
    pipeline run, so colliding requests go to a follow-up chunk
    (correctness over batching efficiency).

    This is the executable spec for the serving path: the in-process
    service (``workers=0``) and every pool worker run this exact
    function, which is what makes the ``workers=N`` vs ``workers=0``
    byte-identity gate meaningful.
    """
    validator = validator_for(options)
    batch_size = len(requests)
    responses: list[dict | None] = [None] * batch_size

    chunk: list[int] = []
    names: set[str] = set()

    def flush() -> None:
        if not chunk:
            return
        sources: dict[str, str] = {}
        for index in chunk:
            sources.update(dict(requests[index]))
        t0 = time.perf_counter()
        report = validator.validate(validator.files_for(sources), lookup)
        wall_ms = round((time.perf_counter() - t0) * 1000, 3)
        stage_snapshot = report.stats.snapshot()["stages"]
        for index in chunk:
            verdicts = [
                encode_verdict(report.verdict_for(name))
                for name, _ in requests[index]
            ]
            valid = sum(1 for v in verdicts if v["verdict"] == "valid")
            responses[index] = {
                "verdicts": verdicts,
                "summary": {
                    "total": len(verdicts),
                    "valid": valid,
                    "invalid": len(verdicts) - valid,
                },
                "timings": {"wall_ms": wall_ms, "stages": stage_snapshot},
                "batch": {"size": batch_size, "chunk": len(chunk)},
            }
        chunk.clear()
        names.clear()

    for i, request in enumerate(requests):
        request_names = {name for name, _ in request}
        if names & request_names:
            flush()
        chunk.append(i)
        names.update(request_names)
    flush()
    return responses


def validator_factory(model, cache) -> Callable:
    """``validator_for(options)``: one validator per option set over
    ``model`` and ``cache``, built at first use (thread-safe)."""
    validators: dict = {}
    lock = threading.Lock()

    def validator_for(options) -> TestsuiteValidator:
        with lock:
            validator = validators.get(options)
            if validator is None:
                validator = validators[options] = TestsuiteValidator(
                    flavor=options.flavor,
                    judge_kind=options.judge,
                    early_exit=options.early_exit,
                    workers=1,
                    model=model,
                    cache=cache,
                    execution_backend=options.backend,
                )
            return validator

    return validator_for


def batch_seeds(validator: TestsuiteValidator, requests) -> dict:
    """The entries ``validator``'s cache holds for the chains of
    ``requests``' files, by key (peeked, uncounted): a batch task's
    seeds."""
    seeds: dict = {}
    for request in requests:
        for test in validator.files_for(dict(request)):
            seeds.update(validator.pipeline.held_entries(test)[0])
    return seeds


def batch_name(requests: Sequence[Sequence[tuple[str, str]]]) -> str:
    """A batch's files, as a crash message and a span name them."""
    return ",".join(name for request in requests for name, _ in request)


def batch_task(model_seed: int, options, requests, seeds: dict, trace_ctx) -> tuple:
    """One micro-batch as a compute pool task (module-level:
    spawn-safe): ``((responses, lookups), spans, metrics_delta)`` from
    :func:`execute_batch` under a ``worker.execute_batch`` span, over a
    :func:`~repro.pipeline.engine.recording` of ``seeds`` (the parent's
    entries, by key) and a judge model seeded with ``model_seed``.

    The ``worker:pre-result`` fault point sits after the work, before
    the reply: ``kill`` there is the canonical "worker died mid-batch".
    """
    model = DeepSeekCoderSim(seed=model_seed)
    lookup, lookups = recording(seeds, model)
    reply = run_task(
        SERVE, batch_name(requests), trace_ctx,
        lambda: (
            execute_batch(validator_factory(model, None), options, requests, lookup),
            lookups,
        ),
    )
    fault_point("worker:pre-result")
    return reply
