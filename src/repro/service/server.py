"""The validation daemon: HTTP front-end over the batched pipeline.

:class:`ValidationService` owns the domain side — one
:class:`TestsuiteValidator` per distinct option set (all sharing one
simulated model and one :class:`PipelineCache`), the micro-batcher
that admission-controls ``/v1/validate``, optionally a
:class:`~repro.pipeline.pool.ComputePool` that batches run in, one
:func:`~repro.service.workers.batch_task` each over the service's
cache (``workers=N``; ``workers=0`` validates in-process), and the
``/v1/stats`` view, computed from the metrics registry's growth since
the service started.  :class:`ValidationServer` is a thin
``ThreadingHTTPServer``: each connection gets a handler thread that
parses JSON, submits to the service and blocks on its future, so
concurrency is bounded by the admission queue, not by socket count.

Endpoints
---------
* ``POST /v1/validate``  — batched full-pipeline validation;
* ``POST /v1/judge``     — one synchronous judge-only call;
* ``POST /v1/jobs``      — submit a durable campaign/experiment job
  (requires ``--jobs-dir``; see :mod:`repro.service.jobs`);
* ``GET  /v1/jobs``      — list journaled jobs;
* ``GET  /v1/jobs/<id>`` — one job's state machine record;
* ``GET  /v1/jobs/<id>/artifacts`` — what the job has produced;
* ``GET  /healthz``      — liveness + drain state (+ job counts);
* ``GET  /v1/stats``     — live batching/pipeline/cache counters;
* ``GET  /v1/metrics``   — the metrics registry in Prometheus text
  format (counters/gauges/histograms from every layer, including
  deltas shipped home by pool workers and fuzz-campaign totals).

Load shedding is explicit: a full admission queue answers HTTP 429
with a ``Retry-After`` header; a draining daemon answers 503.  SIGTERM
handling lives in the CLI (``llm4vv serve``), which calls
:meth:`ValidationServer.drain_and_shutdown` — now *checkpoint then
drain*: the active job checkpoints at its next round/cell boundary and
is journaled, queued requests finish, the cache flushes to disk, then
the listener stops.  Jobs survive the restart through the journal.
"""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.cache.bundle import lookup_counts
from repro.compiler.driver import testfile_language
from repro.corpus.generator import TestFile
from repro.judge.agent import ToolReport
from repro.judge.llmj import AgentLLMJ
from repro.llm.model import DeepSeekCoderSim
from repro.obs import trace
from repro.obs.metrics import get_metrics, series
from repro.pipeline import pool as compute
from repro.pipeline.engine import cached, replay, uncached
from repro.pipeline.pool import ComputeWorkerCrash
from repro.pipeline.stats import PipelineStats
from repro.service.batching import BatcherClosed, BatchQueueFull, MicroBatcher
from repro.service.protocol import (
    JobSpec,
    JudgeRequest,
    ProtocolError,
    ValidateRequest,
    error_body,
)
from repro.service.workers import (
    SERVE,
    batch_name,
    batch_seeds,
    batch_task,
    execute_batch,
    validator_factory,
)
from repro.testing.faultinject import fault_point

#: the largest request body read (the client sends at most 16 files)
MAX_BODY_BYTES = 16 * 1024 * 1024

#: seconds a handler waits on a silent client: a body that stalls this
#: long gets a 408, a stalled request line or header a closed
#: connection, so no client holds a handler thread (and with it the
#: drain, which joins handlers) open
READ_TIMEOUT_S = 5.0


class BodyTooLarge(ProtocolError):
    """``Content-Length`` above :data:`MAX_BODY_BYTES` (HTTP 413)."""

    status = 413


class BodyStalled(ProtocolError):
    """The request body stopped arriving for :data:`READ_TIMEOUT_S` (HTTP 408)."""

    status = 408


@dataclass
class _Admitted:
    """One admitted validate request, stamped for queue-delay timing.

    ``trace_ctx``/``request_id`` carry the handler thread's span
    context into the dispatcher threads, where contextvars do not
    propagate — the batch span re-attaches to them explicitly.
    """

    request: ValidateRequest
    enqueued_at: float = field(default_factory=time.monotonic)
    request_id: str | None = None
    trace_ctx: trace.TraceContext | None = None


class ValidationService:
    """The domain half of the daemon (no HTTP anywhere in here)."""

    def __init__(
        self,
        cache=None,
        model_seed: int = 20240822,
        max_batch_size: int = 8,
        max_latency: float = 0.01,
        queue_capacity: int = 64,
        retry_after: float = 1.0,
        jobs_dir: str | None = None,
        workers: int = 0,
        trace_log: str | None = None,
    ):
        # /v1/stats reports the registry's growth since this point
        self._metrics_baseline = get_metrics().export_state()
        self.cache = cache
        # --trace-log: install a process-ambient tracer; every request,
        # batch, stage, and worker span lands in it, and drain() writes
        # the JSON-lines span log.  Without it the trace module no-ops.
        self.trace_log = trace_log
        self._tracer = None
        if trace_log is not None:
            self._tracer = trace.Tracer()
            trace.install(self._tracer)
        # workers >= 1: one compute pool for the service's life, opened
        # before any thread of the service starts, and the batcher's
        # dispatcher threads sized to it, so up to ``workers``
        # micro-batches validate in parallel across cores.  workers == 0
        # keeps the in-process path — the executable spec the pool must
        # match byte for byte.
        self.pool = None
        if workers >= 1:
            self.pool = compute.ComputePool(workers, preload=False)
            # a crash breaks the pool; the first dispatcher to see it
            # reopens it, once per generation
            self._pool_lock = threading.Lock()
            self._pool_generation = 0
            self._pool_closed = False
        self.jobs = None
        if jobs_dir is not None:
            # lazy import: a daemon without --jobs-dir never loads the
            # fuzz/experiment stacks
            from repro.service.jobs import JobManager

            self.jobs = JobManager(jobs_dir, cache=cache)
            self.jobs.start()
        self.model_seed = model_seed
        self.model = DeepSeekCoderSim(seed=model_seed)
        self.started_at = time.monotonic()
        self._validator_for = validator_factory(self.model, cache)
        # where a pool task's recorded lookups are replayed
        self._lookup = uncached if cache is None else cached(cache)
        # the backends batches were validated under (/v1/stats)
        self._backends: set[str] = set()
        self._backends_lock = threading.Lock()
        self.batcher = MicroBatcher(
            self._run_batch,
            max_batch_size=max_batch_size,
            max_latency=max_latency,
            capacity=queue_capacity,
            retry_after=retry_after,
            dispatch_workers=workers if workers >= 1 else 1,
        )

    # ------------------------------------------------------------------
    # request entry points
    # ------------------------------------------------------------------

    def submit(self, request: ValidateRequest, request_id: str | None = None) -> Future:
        """Admit one validate request (raises BatchQueueFull on pressure)."""
        admitted = _Admitted(
            request, request_id=request_id, trace_ctx=trace.current()
        )
        return self.batcher.submit(request.options, admitted)

    def judge(self, request: JudgeRequest) -> dict:
        """One synchronous judge-only call (not batched: no pipeline)."""
        judge = AgentLLMJ(
            self.model,
            request.flavor,
            kind=request.judge,
            execution_backend=request.backend,
        )
        if self.cache is not None:
            from repro.cache.wrappers import CachingAgentJudge

            judge = CachingAgentJudge(judge, self.cache.judge)
        test = TestFile(
            name=request.name,
            language=testfile_language(request.name),
            model=request.flavor,
            source=request.source,
            template="user",
        )
        report = None
        if request.report is not None:
            report = ToolReport(
                compile_rc=request.report["compile_rc"],
                compile_stderr=request.report.get("compile_stderr") or "",
                compile_stdout=request.report.get("compile_stdout") or "",
                run_rc=request.report.get("run_rc"),
                run_stderr=request.report.get("run_stderr"),
                run_stdout=request.report.get("run_stdout"),
                diagnostic_codes=tuple(request.report.get("diagnostic_codes", ())),
            )
        t0 = time.perf_counter()
        result = judge.judge(test, report)
        return {
            "result": result.to_json(),
            "says_valid": result.says_valid,
            "timings": {
                "wall_ms": round((time.perf_counter() - t0) * 1000, 3),
                "simulated_seconds": round(result.simulated_seconds, 4),
            },
        }

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def health(self) -> dict:
        body = {
            "status": "draining" if self.batcher.closed else "ok",
            "uptime_seconds": round(time.monotonic() - self.started_at, 3),
            "queue_depth": self.batcher.depth,
        }
        if self.jobs is not None:
            body["jobs"] = self.jobs.snapshot()
        return body

    def metrics_text(self) -> str:
        """The ``GET /v1/metrics`` body (Prometheus text format).

        Point-in-time gauges are refreshed at exposition time — they
        also guarantee a fresh daemon serves non-empty output before
        any request has incremented a counter.
        """
        registry = get_metrics()
        registry.gauge("service_uptime_seconds").set(
            time.monotonic() - self.started_at
        )
        registry.gauge("service_queue_depth").set(self.batcher.depth)
        registry.gauge("service_queue_capacity").set(self.batcher.capacity)
        registry.gauge("service_workers_configured").set(
            self.pool.workers if self.pool is not None else 0
        )
        registry.gauge("service_workers_alive").set(
            self.pool.alive if self.pool is not None else 0
        )
        if self.jobs is not None:
            for state, count in self.jobs.snapshot()["by_state"].items():
                registry.gauge("service_jobs", state=state).set(count)
        if self.cache is not None:
            lookups = lookup_counts(registry.diff(self._metrics_baseline)[0])
            for namespace in self.cache.namespaces:
                n = lookups[namespace.name]
                registry.gauge(
                    "service_cache_hit_ratio", namespace=namespace.name
                ).set(n["hits"] / (n["hits"] + n["misses"]) if n["hits"] else 0.0)
        return registry.render_prometheus()

    def _cache_section(self, delta: dict) -> dict | None:
        """Each namespace's entries, with its hits and misses read from
        ``delta`` (a pool task's lookups count there when replayed)."""
        if self.cache is None:
            return None
        lookups = lookup_counts(delta)
        namespaces = {
            ns.name: {**ns.snapshot(), **lookups[ns.name]}
            for ns in self.cache.namespaces
        }
        return {
            "hits": sum(ns["hits"] for ns in namespaces.values()),
            "misses": sum(ns["misses"] for ns in namespaces.values()),
            "namespaces": namespaces,
        }

    def stats_snapshot(self) -> dict:
        """Everything ``/v1/stats`` serves; its counts come from one
        registry diff, consistent with each other and ``/v1/metrics``."""
        from repro.runtime.interpreter import DEFAULT_BACKEND, EXECUTION_BACKENDS

        delta = get_metrics().diff(self._metrics_baseline)[0]
        judged = sum(
            value for labels, value in series(delta, "service_requests_total")
            if labels["endpoint"] == "judge"
        )
        batching = self.batcher.snapshot(delta)
        with self._backends_lock:
            active = sorted(self._backends)
        return {
            "service": {
                "uptime_seconds": round(time.monotonic() - self.started_at, 3),
                "model_seed": self.model_seed,
                # an admitted validate request is a batcher submission
                "validate_requests": batching["submitted"],
                "judge_requests": int(judged),
                "batching": batching,
                "workers": {
                    "configured": self.pool.workers if self.pool is not None else 0,
                    "alive": self.pool.alive if self.pool is not None else 0,
                    **{
                        key: int(sum(v for _, v in series(delta, name)))
                        for key, name in WORKER_COUNTS.items()
                    },
                },
                # which backend produced served verdicts: the execute
                # cache is backend-agnostic by design, so operators
                # read this (not cache keys) to attribute a run
                "backends": {
                    "registered": list(EXECUTION_BACKENDS),
                    "default": DEFAULT_BACKEND,
                    "active": active,
                },
            },
            "pipeline": PipelineStats(delta).snapshot(),
            "cache": self._cache_section(delta),
            "jobs": self.jobs.snapshot() if self.jobs is not None else None,
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def drain(self, timeout: float | None = 30.0) -> bool:
        """Graceful wind-down: *checkpoint*, then drain, then flush.

        Order matters: the active job checkpoints and journals first
        (its state must survive even if the process dies later in the
        drain), then queued HTTP requests finish, then the compute
        pools close (the daemon's and the process's shared one), then
        the cache flushes.  The ``drain:mid`` fault point sits between the two
        halves — a SIGKILL there must still leave a resumable journal,
        which is exactly what the crash-recovery tests inject.
        ``timeout`` bounds the whole drain: each step gets what the
        steps before it left.
        """
        deadline = None if timeout is None else time.monotonic() + timeout

        def left(unbounded: float | None = None) -> float | None:
            if deadline is None:
                return unbounded
            return max(0.0, deadline - time.monotonic())

        if self.jobs is not None:
            self.jobs.checkpoint_and_stop(timeout=left())
        fault_point("drain:mid")
        parked = self.batcher.close(drain=True, timeout=left())
        # the batcher has drained: no batch is in flight, so each worker
        # exits at once.  A batch still wedged at the deadline has its
        # worker terminated and fails.
        if self.pool is not None:
            with self._pool_lock:
                self._pool_closed = True
                self.pool.close(left(unbounded=30.0))
        # the jobs have stopped: close the pool their campaigns and
        # experiments borrowed
        compute.close_shared(left(unbounded=30.0))
        if self.cache is not None:
            self.cache.save()
        if self._tracer is not None:
            from repro.obs.export import write_span_log

            write_span_log(self._tracer.spans, self.trace_log)
            # the ambient tracer was installed by __init__; a drained
            # service must not keep collecting into a flushed log (or
            # leak its tracer into the next service in this process)
            if trace.active() is self._tracer:
                trace.uninstall()
        return parked

    # ------------------------------------------------------------------
    # batch execution (dispatcher threads)
    # ------------------------------------------------------------------

    def _run_batch(self, options, payloads: list[_Admitted]) -> list[dict]:
        """One micro-batch -> one (or few) shared pipeline runs.

        The batch-execution logic itself lives in
        :func:`repro.service.workers.execute_batch` — this method only
        decides *where* it runs (the compute pool, or in-process when
        ``workers=0``), then folds a pool worker's spans and metrics
        delta in and stamps each response with its queue delay (which
        only the parent knows).
        """
        requests = [payload.request.files for payload in payloads]
        with self._backends_lock:
            self._backends.add(options.backend)
        # the batch span re-attaches to the first admitted request's
        # context (contextvars don't cross into dispatcher threads);
        # sibling request ids ride along as an attribute so any one of
        # them finds this batch in the exported log
        parent_ctx = next(
            (p.trace_ctx for p in payloads if p.trace_ctx is not None), None
        )
        request_ids = [p.request_id for p in payloads if p.request_id]
        dispatched_at = time.monotonic()
        t0 = time.perf_counter()
        with trace.span(
            "service.batch",
            parent=parent_ctx,
            requests=len(payloads),
            request_ids=",".join(request_ids),
            pooled=self.pool is not None,
        ):
            if self.pool is not None:
                responses = self._run_pooled(options, tuple(requests))
            else:
                responses = execute_batch(self._validator_for, options, requests)
        get_metrics().histogram("service_batch_seconds").observe(
            time.perf_counter() - t0
        )
        for payload, response in zip(payloads, responses):
            response["timings"]["queued_ms"] = round(
                (dispatched_at - payload.enqueued_at) * 1000, 3
            )
        return responses

    def _run_pooled(self, options, requests) -> list[dict]:
        """One batch as a pool task over the service's cache; its
        responses.

        The task starts from the entries the cache holds for the
        batch's chains, and its recorded lookups are replayed against
        the cache once it returns: they count and store there as the
        in-process path's do.  Each attempt is a ``pool.dispatch`` span.
        A worker crash breaks the pool: it is reopened and the batch
        resubmitted once (the lost attempt replays nothing); a second
        crash fails the batch.  An exception raised in a healthy worker
        is not retried: the batch would repeat it.
        """
        registry = get_metrics()
        registry.counter("service_worker_batches_total").inc()
        pool, generation = self._pool_after(None)
        if pool is None:
            raise BatcherClosed("the service's worker pool is closed")
        seeds = batch_seeds(self._validator_for(options), requests)
        for attempt in (1, 2):
            with trace.span("pool.dispatch", attempt=attempt) as span:
                future = pool.submit(
                    batch_task, self.model_seed, options, requests, seeds,
                    trace.current(),
                )
                try:
                    responses, lookups = pool.result(future, SERVE, batch_name(requests))
                    break
                except ComputeWorkerCrash:
                    span.attrs["crashed"] = True
                    pool, generation = self._pool_after(generation)
                    if pool is None or attempt == 2:
                        raise
                    registry.counter("service_worker_retries_total").inc()
                except Exception:
                    registry.counter("service_worker_batch_errors_total").inc()
                    raise
        replay(self._lookup, lookups, self.model)
        return responses

    def _pool_after(self, broken: int | None) -> tuple:
        """The live pool and its generation, or ``(None, None)`` once
        the drain closed it.  The pool is reopened first (a restart)
        when generation ``broken`` is still current — one reopen per
        breakage, however many dispatchers saw it — or when a worker
        died idle, which loses no batch."""
        with self._pool_lock:
            if self._pool_closed:
                return None, None
            if broken == self._pool_generation or self.pool.alive < self.pool.workers:
                self.pool.close()
                self.pool = compute.ComputePool(self.pool.workers, preload=False)
                self._pool_generation += 1
                get_metrics().counter("service_worker_restarts_total").inc()
            return self.pool, self._pool_generation


#: ``/v1/stats`` → ``service.workers`` key -> the series it counts
WORKER_COUNTS = {
    "restarts": "service_worker_restarts_total",
    "retries": "service_worker_retries_total",
    "batches_dispatched": "service_worker_batches_total",
    "batch_errors": "service_worker_batch_errors_total",
}


# ----------------------------------------------------------------------
# HTTP front-end
# ----------------------------------------------------------------------


class ValidationServer(ThreadingHTTPServer):
    """ThreadingHTTPServer wired to one :class:`ValidationService`.

    ``daemon_threads`` is off on purpose: ``server_close`` then joins
    handler threads, so a drained shutdown cannot cut a response off
    mid-write.  The listen backlog is raised from the stdlib's 5: a
    burst of concurrent clients must queue in the kernel, not lose
    SYNs to a full backlog and stall ~1s in retransmission.
    """

    daemon_threads = False
    allow_reuse_address = True
    request_queue_size = 128

    def __init__(
        self, address: tuple[str, int], service: ValidationService | None, quiet: bool = True
    ):
        self.service = service
        self.quiet = quiet
        super().__init__(address, _Handler)

    def drain_and_shutdown(self, timeout: float | None = 30.0) -> None:
        """Graceful stop: drain the batcher, flush the cache, stop serving.

        Callable from any thread (the CLI calls it from a signal-driven
        path while ``serve_forever`` runs in the main thread).
        """
        self.service.drain(timeout=timeout)
        self.shutdown()


def make_server(
    host: str = "127.0.0.1",
    port: int = 0,
    cache=None,
    quiet: bool = True,
    **service_knobs,
) -> ValidationServer:
    """Build a ready-to-serve daemon; ``port=0`` picks an ephemeral port.

    Binds first: a port in use raises ``OSError`` before the service
    starts a thread, a worker or a job.
    """
    server = ValidationServer((host, port), None, quiet=quiet)
    try:
        server.service = ValidationService(cache=cache, **service_knobs)
    except BaseException:
        server.server_close()
        raise
    return server


class _Handler(BaseHTTPRequestHandler):
    server_version = "llm4vv-service/1.0"
    timeout = READ_TIMEOUT_S  # socket timeout for every read and write

    # -- helpers -------------------------------------------------------

    def _send(self, status: int, body: dict, headers: dict[str, str] | None = None) -> None:
        payload = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)

    def _send_text(
        self,
        status: int,
        text: str,
        content_type: str = "text/plain; version=0.0.4; charset=utf-8",
    ) -> None:
        payload = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _read_json(self) -> object:
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            raise ProtocolError(f"Content-Length is not an integer: {header!r}") from None
        if length <= 0:
            raise ProtocolError("request body required")
        if length > MAX_BODY_BYTES:
            # answered before reading: the claimed body never buffers
            raise BodyTooLarge(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"
            )
        try:
            raw = self.rfile.read(length)
        except TimeoutError:
            self.close_connection = True  # the rest of the body may still come
            raise BodyStalled(
                f"request body stalled: no bytes for {READ_TIMEOUT_S:g} s"
            ) from None
        try:
            return json.loads(raw)
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise ProtocolError(f"body is not valid JSON: {exc}") from exc

    @property
    def _service(self) -> ValidationService:
        return self.server.service  # type: ignore[attr-defined]

    def send_error(
        self, code: int, message: str | None = None, explain: str | None = None
    ) -> None:
        """The stdlib's own rejections (a malformed request line or
        header, an unknown method) in the daemon's JSON error shape."""
        self.close_connection = True
        self._error(code, message or HTTPStatus(code).phrase)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not getattr(self.server, "quiet", True):  # pragma: no cover
            super().log_message(format, *args)

    # -- routes --------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        try:
            if self.path == "/healthz":
                self._send(200, self._service.health())
            elif self.path == "/v1/metrics":
                self._send_text(200, self._service.metrics_text())
            elif self.path == "/v1/stats":
                self._send(200, self._service.stats_snapshot())
            elif self.path == "/v1/jobs":
                jobs = self._require_jobs()
                if jobs is not None:
                    self._send(200, {"jobs": [r.to_json() for r in jobs.list()]})
            elif self.path.startswith("/v1/jobs/"):
                self._get_job(self.path[len("/v1/jobs/"):])
            else:
                self._send(404, error_body(f"unknown path {self.path!r}"))
        except ConnectionError:
            pass  # client went away mid-response
        except Exception as exc:  # noqa: BLE001 - daemon must not die
            self._error(500, f"internal error: {exc}")

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        try:
            if self.path == "/v1/validate":
                self._post_validate()
            elif self.path == "/v1/judge":
                self._post_judge()
            elif self.path == "/v1/jobs":
                self._post_job()
            else:
                self._send(404, error_body(f"unknown path {self.path!r}"))
        except ProtocolError as exc:
            self._error(exc.status, str(exc))
        except ConnectionError:
            pass  # client went away (possibly mid-response): nothing to answer
        except Exception as exc:  # noqa: BLE001 - daemon must not die
            self._error(500, f"internal error: {exc}")

    def do_PUT(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self.close_connection = True
        self._send(
            405, error_body(f"method {self.command} not allowed"),
            headers={"Allow": "GET, POST"},
        )

    do_DELETE = do_PATCH = do_PUT

    def _error(self, status: int, message: str) -> None:
        """Best-effort error response; the socket may already be dead."""
        try:
            self._send(status, error_body(message))
        except OSError:
            pass

    def _request_id(self) -> str:
        """The client's X-Request-Id, or a fresh one; always echoed."""
        return self.headers.get("X-Request-Id") or trace.new_id()

    def _post_validate(self) -> None:
        request = ValidateRequest.from_dict(self._read_json())
        request_id = self._request_id()
        headers = {"X-Request-Id": request_id}
        status = 200
        t0 = time.perf_counter()
        # the root span of everything this request causes: the batch
        # span (dispatcher thread), pool dispatch, worker-side pipeline
        # spans — all reachable from this request_id in the span log
        with trace.span(
            "service.request",
            request_id=request_id,
            endpoint="validate",
            files=len(request.files),
        ):
            try:
                future = self._service.submit(request, request_id=request_id)
            except BatchQueueFull as exc:
                status = 429
                self._send(
                    429,
                    error_body(
                        "admission queue full; retry later",
                        queue_depth=exc.depth,
                        queue_capacity=exc.capacity,
                        retry_after=exc.retry_after,
                    ),
                    headers={
                        **headers,
                        "Retry-After": str(max(1, round(exc.retry_after))),
                    },
                )
            except BatcherClosed:
                status = 503
                self._send(
                    503,
                    error_body("service is draining; not accepting work"),
                    headers=headers,
                )
            else:
                self._send(200, future.result(), headers=headers)
        registry = get_metrics()
        registry.counter(
            "service_requests_total", endpoint="validate", status=str(status)
        ).inc()
        registry.histogram(
            "service_request_seconds", endpoint="validate"
        ).observe(time.perf_counter() - t0)

    def _post_judge(self) -> None:
        request = JudgeRequest.from_dict(self._read_json())
        request_id = self._request_id()
        with trace.span(
            "service.request", request_id=request_id, endpoint="judge"
        ):
            body = self._service.judge(request)
        get_metrics().counter(
            "service_requests_total", endpoint="judge", status="200"
        ).inc()
        self._send(200, body, headers={"X-Request-Id": request_id})

    # -- jobs ----------------------------------------------------------

    def _require_jobs(self):
        """The job manager, or answer 503 and return None.

        503 (not 404): the route exists, this daemon instance just was
        not started with a journal directory — a deployment state, not
        a client error.
        """
        jobs = self._service.jobs
        if jobs is None:
            self._send(
                503,
                error_body("jobs API disabled; start the daemon with --jobs-dir"),
            )
        return jobs

    def _get_job(self, rest: str) -> None:
        jobs = self._require_jobs()
        if jobs is None:
            return
        job_id, _, tail = rest.partition("/")
        try:
            if tail == "":
                self._send(200, jobs.get(job_id).to_json())
            elif tail == "artifacts":
                self._send(200, jobs.artifacts(job_id))
            else:
                self._send(404, error_body(f"unknown path {self.path!r}"))
        except KeyError:
            self._send(404, error_body(f"unknown job {job_id!r}"))

    def _post_job(self) -> None:
        jobs = self._require_jobs()
        if jobs is None:
            return
        if self._service.batcher.closed:
            self._send(503, error_body("service is draining; not accepting work"))
            return
        spec = JobSpec.from_dict(self._read_json())
        request_id = self._request_id()
        record = jobs.submit(spec.kind, spec.spec_dict(), request_id=request_id)
        self._send(200, record.to_json(), headers={"X-Request-Id": request_id})
