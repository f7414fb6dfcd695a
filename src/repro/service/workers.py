"""The daemon's batch task: one micro-batch, validated in a pool worker.

One CPython process runs one interpreter backend at a time, so however
well ``/v1/validate`` batches, validation in one process is capped at a
core.  With ``workers=N``, :class:`~repro.service.server.ValidationService`
opens one :class:`~repro.pipeline.pool.ComputePool` of N processes at
start and sends each micro-batch to it as one :func:`batch_task`; the
service retries a batch once after a worker crash.

Each worker builds its validation stack from the picklable
:class:`WorkerConfig` at its first batch and keeps it for its life: its
own judge model (a pure function of the seed, so verdicts cannot
drift), its own validators, and its own :class:`PipelineCache` loaded
from the *shared* flock-safe ``--cache-dir``, into which it flushes
(merge-on-save) when it exits cleanly at the pool's close.

``workers=0`` keeps the pool out of the loop: the service runs
:func:`execute_batch` in-process, byte for byte the code the task runs —
the executable spec the scaling benchmark's identity gate holds the
pool to.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.validator import TestsuiteValidator
from repro.pipeline.pool import ComputeSpec, run_task
from repro.service.protocol import encode_verdict
from repro.testing.faultinject import fault_point

#: how the daemon names its pool tasks: the worker's root span is
#: ``worker.execute_batch``
SERVE = ComputeSpec("execute_batch", "batch", "service:worker-compute")


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker needs to rebuild the validation stack.

    Picklable (it crosses the spawn boundary) and hashable (it keys a
    worker's stack).  A worker batch validates in-process, as the
    in-process service does.
    """

    model_seed: int = 20240822
    #: shared flock-safe cache directory, or None for a private
    #: in-memory cache (still correct, just cold per worker)
    cache_dir: str | None = None
    #: False disables caching inside workers entirely (--no-cache)
    use_cache: bool = True


def execute_batch(
    validator_for: Callable,
    options,
    requests: Sequence[Sequence[tuple[str, str]]],
) -> list[dict]:
    """One micro-batch -> one (or few) shared pipeline runs.

    Returns one response dict per request, in request order, lacking
    only the ``queued_ms`` timing (which only the parent knows).

    All requests share ``options`` (the batcher groups by it), so their
    files fan through one validator — one pipeline run, one shared
    cache.  The only reason to split a batch is a
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
        report = validator.validate_sources(sources)
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


#: this worker process's validator factory per config, built at its
#: first batch and kept for the process's life
_stacks: dict[WorkerConfig, Callable] = {}


def _worker_stack(config: WorkerConfig) -> Callable:
    """This process's validator factory for ``config``; its cache
    flushes into the shared directory when the worker exits cleanly."""
    if config not in _stacks:
        from multiprocessing.util import Finalize

        from repro.cache.bundle import PipelineCache
        from repro.llm.model import DeepSeekCoderSim

        cache = None
        if config.use_cache:
            cache = PipelineCache(cache_dir=config.cache_dir)
            cache.load()
            Finalize(None, cache.save, exitpriority=10)
        model = DeepSeekCoderSim(seed=config.model_seed)
        _stacks[config] = validator_factory(model, cache)
    return _stacks[config]


def batch_name(requests: Sequence[Sequence[tuple[str, str]]]) -> str:
    """A batch's files, as a crash message and a span name them."""
    return ",".join(name for request in requests for name, _ in request)


def batch_task(config: WorkerConfig, options, requests, trace_ctx) -> tuple:
    """One micro-batch as a compute pool task (module-level:
    spawn-safe): ``(responses, spans, metrics_delta)`` from
    :func:`execute_batch` under a ``worker.execute_batch`` span.

    The ``worker:pre-result`` fault point sits after the work, before
    the reply: ``kill`` there is the canonical "worker died mid-batch".
    """
    validator_for = _worker_stack(config)
    reply = run_task(
        SERVE, batch_name(requests), trace_ctx,
        lambda: execute_batch(validator_for, options, requests),
    )
    fault_point("worker:pre-result")
    return reply
