"""Pre-forked worker processes behind :class:`ValidationService`.

The daemon's micro-batcher solved admission; this module solves the
GIL.  One CPython process can run exactly one interpreter backend at a
time, so however well ``/v1/validate`` batches, validation throughput
was capped at a single core.  A :class:`WorkerPool` pre-forks N
processes at daemon start; the batcher's dispatcher threads hand each
formed micro-batch to an idle worker over a pipe, so up to N batches
validate truly in parallel while the parent's threads only block on
pipe I/O.

The protocol is deliberately tiny and picklable end to end:

* parent → worker: ``("batch", options, requests, trace_ctx)`` where
  ``options`` is the frozen
  :class:`~repro.service.protocol.ValidateOptions`, ``requests`` is
  one tuple of ``(name, source)`` pairs per admitted request, and
  ``trace_ctx`` is the dispatching span's
  :class:`~repro.obs.trace.TraceContext` (None with tracing off);
* worker → parent: ``("result", BatchResult)`` — the per-request
  response dicts, the worker's finished spans (already parented under
  ``trace_ctx``), and the worker metrics registry's growth since its
  last report, which carries every stage and cache count the batch
  made — or ``("error", traceback_text)`` for a worker-side exception
  with the worker still healthy.  Spans and delta are packed by
  :class:`~repro.obs.remote.WorkerTelemetry`, the same shipping the
  fuzz campaign's differential pool uses.

Workers are rebuilt from a picklable :class:`WorkerConfig` by a
module-level, spawn-safe entrypoint (:func:`worker_main`), exactly the
shape :mod:`repro.experiments.sharding` established: each worker owns
its own judge model (pure function of seed — verdicts cannot drift),
its own validators, and its own :class:`PipelineCache` pointed at the
*shared* flock-safe ``--cache-dir``, so sibling workers exchange
compile/execute/judge results through the merge-on-save protocol from
PR 3 instead of clobbering each other.

Crash tolerance is first-class: a worker dying mid-batch (SIGKILL, OOM,
a bug) is detected by the pipe/liveness probe, the batch is retried
once on a freshly spawned replacement, and the event is counted in the
pool's snapshot (``/v1/stats`` → ``service.workers.restarts``).  Two
crashes on the same batch fail the batch's futures — the client sees an
error instead of a hang.  The ``worker:post-fork`` and
``worker:pre-result`` fault points make both paths testable with real
SIGKILLs (see :mod:`repro.testing.faultinject`).

``workers=0`` keeps the pool out of the loop entirely: the service runs
:func:`execute_batch` in-process, which is byte-for-byte the code the
workers run — the executable spec the scaling benchmark's identity gate
holds the pool to.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
import traceback
import queue
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.experiments.sharding import (
    default_start_method,
    package_root_on_pythonpath,
)
from repro.obs import trace
from repro.obs.metrics import get_metrics
from repro.obs.remote import WorkerTelemetry
from repro.service.protocol import encode_verdict
from repro.testing import faultinject
from repro.testing.faultinject import fault_point


class WorkerCrash(RuntimeError):
    """A worker process died while (or before) executing a batch."""


class WorkerBatchError(RuntimeError):
    """The batch raised inside a healthy worker; carries the traceback."""


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker needs to rebuild the validation stack.

    Picklable on purpose (it crosses the spawn boundary).  A worker
    batch validates in-process, as the in-process service does.
    """

    model_seed: int = 20240822
    #: shared flock-safe cache directory, or None for a private
    #: in-memory cache (still correct, just cold per worker)
    cache_dir: str | None = None
    #: False disables caching inside workers entirely (--no-cache)
    use_cache: bool = True


@dataclass
class BatchResult:
    """What one batch execution hands back across the pipe.

    ``responses`` carries one response dict per admitted request, in
    request order, lacking only the ``queued_ms`` timing (which only
    the parent can know).  ``spans`` are the worker tracer's finished
    span dicts and ``metrics_delta`` the worker registry's growth since
    its last report — the only count that crosses the pipe.  Both are
    None in-process, where spans and counts land directly.
    """

    responses: list
    spans: list | None = None
    metrics_delta: dict | None = None


# ----------------------------------------------------------------------
# the batch execution core (shared by the in-process path and workers)
# ----------------------------------------------------------------------


def execute_batch(
    validator_for: Callable,
    options,
    requests: Sequence[Sequence[tuple[str, str]]],
) -> BatchResult:
    """One micro-batch -> one (or few) shared pipeline runs.

    All requests share ``options`` (the batcher groups by it), so their
    files fan through one validator — one StageScheduler run, shared
    worker pools, shared cache.  The only reason to split a batch is a
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
    return BatchResult(responses=responses)


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------


def worker_main(conn, config: WorkerConfig) -> None:
    """The worker process body (module-level: spawn-safe).

    Rebuilds model/cache/validators from the picklable ``config``,
    answers ``("batch", ...)`` messages until the parent sends
    ``("stop",)`` or the pipe closes, then flushes its cache into the
    shared store (flock-guarded merge-on-save) and exits.
    """
    # Re-arm fault points from the inherited environment: under fork the
    # parent's already-parsed (possibly test-cleared) state would
    # otherwise shadow REPRO_FAULT_POINTS, making worker faults
    # start-method-dependent.
    faultinject.reset()
    fault_point("worker:post-fork")

    from repro.core.validator import TestsuiteValidator
    from repro.llm.model import DeepSeekCoderSim

    model = DeepSeekCoderSim(seed=config.model_seed)
    cache = None
    if config.use_cache:
        from repro.cache.bundle import PipelineCache

        cache = PipelineCache(cache_dir=config.cache_dir)
        cache.load()

    validators: dict = {}

    def validator_for(options):
        validator = validators.get(options)
        if validator is None:
            validator = TestsuiteValidator(
                flavor=options.flavor,
                judge_kind=options.judge,
                early_exit=options.early_exit,
                workers=1,
                model=model,
                cache=cache,
                execution_backend=options.backend,
            )
            validators[options] = validator
        return validator

    telemetry = WorkerTelemetry()
    parent = multiprocessing.parent_process()
    try:
        while True:
            try:
                # wait with a liveness probe instead of a bare recv():
                # under fork a worker inherits the parent's end of its
                # own pipe (it was live in the spawning frame), so a
                # SIGKILLed parent never produces EOF — orphans must
                # notice the death themselves and wind down
                while not conn.poll(1.0):
                    if parent is not None and not parent.is_alive():
                        return
                message = conn.recv()
            except (EOFError, OSError):
                break  # pipe closed: wind down
            if message[0] == "stop":
                break
            _, options, requests, *rest = message
            trace_ctx = rest[0] if rest else None
            try:
                result, spans, delta = telemetry.run(
                    trace_ctx,
                    "worker.execute_batch",
                    lambda: execute_batch(validator_for, options, requests),
                    requests=len(requests),
                )
                result.spans, result.metrics_delta = spans, delta
                fault_point("worker:pre-result")
                conn.send(("result", result))
            except Exception:  # noqa: BLE001 - forwarded to the parent
                try:
                    conn.send(("error", traceback.format_exc()))
                except OSError:
                    break
    finally:
        if cache is not None:
            try:
                cache.save()
            except Exception:  # noqa: BLE001 - exiting anyway
                pass
        conn.close()


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------


@dataclass
class _Worker:
    index: int
    generation: int
    process: multiprocessing.process.BaseProcess
    conn: object = field(repr=False, default=None)

    @property
    def name(self) -> str:
        return f"validate-worker-{self.index}.{self.generation}"


class WorkerPool:
    """N pre-forked workers, one idle-queue, crash-retry dispatch.

    Thread-safe: the batcher's dispatcher threads call
    :meth:`run_batch` concurrently; each call checks out an idle worker
    (blocking until one frees up — the service sizes the dispatcher
    count to the pool, so this only briefly blocks during a respawn),
    round-trips the batch, and returns the worker.

    A :class:`WorkerCrash` during the round-trip respawns the worker
    and retries the batch exactly once; a second crash propagates (the
    batcher fails that batch's futures).  ``("error", ...)`` replies —
    a worker-side exception with the worker alive — are *not* retried:
    the batch is deterministic, so a clean failure would simply repeat.
    """

    def __init__(
        self,
        size: int,
        config: WorkerConfig,
        start_method: str | None = None,
    ):
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        self.size = size
        self.config = config
        self.start_method = start_method or default_start_method()
        self._ctx = multiprocessing.get_context(self.start_method)
        self._lock = threading.Lock()
        self._counters = {
            "restarts": 0,
            "retries": 0,
            "batches_dispatched": 0,
            "batch_errors": 0,
        }
        self._closed = False
        self._workers: list[_Worker] = []
        self._idle: queue.Queue[_Worker] = queue.Queue()
        with package_root_on_pythonpath():
            for index in range(size):
                worker = self._spawn(index, generation=0)
                self._workers.append(worker)
                self._idle.put(worker)

    # -- lifecycle ------------------------------------------------------

    def _spawn(self, index: int, generation: int) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=worker_main,
            args=(child_conn, self.config),
            name=f"validate-worker-{index}.{generation}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _Worker(
            index=index, generation=generation, process=process, conn=parent_conn
        )

    def _replace(self, worker: _Worker) -> _Worker:
        """Respawn a dead (or dying) worker in its slot; counts the restart."""
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.process.is_alive():
            worker.process.terminate()
        worker.process.join(timeout=5.0)
        with package_root_on_pythonpath():
            replacement = self._spawn(worker.index, worker.generation + 1)
        with self._lock:
            self._counters["restarts"] += 1
            for i, existing in enumerate(self._workers):
                if existing is worker:
                    self._workers[i] = replacement
                    break
        get_metrics().counter("service_worker_restarts_total").inc()
        return replacement

    def close(self, timeout: float | None = 10.0) -> bool:
        """Stop every worker: polite ``("stop",)`` first, SIGTERM after.

        The service calls this *after* the batcher has drained, so no
        batch is in flight and the polite path is the normal one — each
        worker flushes its cache to the shared dir and exits.  A worker
        that ignores the stop (wedged in a batch) is terminated when
        ``timeout`` runs out.  Returns True once every worker stopped.
        """
        with self._lock:
            self._closed = True
            workers = list(self._workers)
        for worker in workers:
            try:
                worker.conn.send(("stop",))
            except (OSError, ValueError):
                pass  # already dead: join below
        deadline = None if timeout is None else time.monotonic() + timeout
        for worker in workers:
            remaining = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            worker.process.join(timeout=remaining)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=5.0)
            try:
                worker.conn.close()
            except OSError:
                pass
        return all(not worker.process.is_alive() for worker in workers)

    # -- dispatch -------------------------------------------------------

    def run_batch(self, options, requests) -> BatchResult:
        """Round-trip one batch on an idle worker, retrying one crash."""
        with self._lock:
            if self._closed:
                raise RuntimeError("worker pool is closed")
            self._counters["batches_dispatched"] += 1
        get_metrics().counter("service_worker_batches_total").inc()
        worker = self._idle.get()
        try:
            if not worker.process.is_alive():
                # died idle (crash-looped boot, external kill): no batch
                # was lost, but the slot needs a live process
                worker = self._replace(worker)
            try:
                return self._attempt(worker, options, requests, attempt=1)
            except WorkerCrash:
                with self._lock:
                    self._counters["retries"] += 1
                get_metrics().counter("service_worker_retries_total").inc()
                worker = self._replace(worker)
                try:
                    return self._attempt(worker, options, requests, attempt=2)
                except WorkerCrash:
                    # second death on the same batch: fail the batch,
                    # but heal the slot so the pool stays full-strength
                    worker = self._replace(worker)
                    raise
        finally:
            self._idle.put(worker)

    def _attempt(self, worker: _Worker, options, requests, attempt: int) -> BatchResult:
        """One dispatch attempt, wrapped in its own span so a crashed
        first attempt and its retry are both visible in the trace."""
        with trace.span(
            "pool.dispatch", worker=worker.name, attempt=attempt
        ) as span:
            try:
                return self._roundtrip(worker, options, requests)
            except WorkerCrash:
                span.attrs["crashed"] = True
                raise

    def _roundtrip(self, worker: _Worker, options, requests) -> BatchResult:
        try:
            worker.conn.send(
                ("batch", options, tuple(requests), trace.current())
            )
            # liveness-aware wait: EOF is unreliable under fork (later
            # siblings inherit earlier pipes), so poll the process too
            while not worker.conn.poll(0.05):
                if not worker.process.is_alive() and not worker.conn.poll(0):
                    raise WorkerCrash(
                        f"{worker.name} died mid-batch "
                        f"(exitcode {worker.process.exitcode})"
                    )
            kind, payload = worker.conn.recv()
        except (EOFError, OSError, BrokenPipeError) as exc:
            raise WorkerCrash(f"{worker.name} pipe failed: {exc}") from exc
        if kind == "result":
            return payload
        with self._lock:
            self._counters["batch_errors"] += 1
        raise WorkerBatchError(f"batch failed in {worker.name}:\n{payload}")

    # -- introspection --------------------------------------------------

    @property
    def alive(self) -> int:
        with self._lock:
            workers = list(self._workers)
        return sum(1 for worker in workers if worker.process.is_alive())

    def snapshot(self) -> dict:
        """The ``/v1/stats`` → ``service.workers`` payload."""
        with self._lock:
            counters = dict(self._counters)
        return {
            "configured": self.size,
            "alive": self.alive,
            "start_method": self.start_method,
            **counters,
        }
