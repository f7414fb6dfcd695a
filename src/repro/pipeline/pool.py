"""One compute pool, two users: compile a file, then run it, in worker processes.

Compile and execute are pure CPU work under the GIL, so threads keep
about one core busy.  :class:`ComputePool` runs them in processes for
two users:

* the validation pipeline (:meth:`ValidationPipeline.run
  <repro.pipeline.engine.ValidationPipeline.run>` with ``processes >=
  2``): one arm, the configured backend, and every cache-missing file
  submitted when the run starts;
* the fuzz campaign's differential oracle
  (:class:`~repro.fuzz.differential.DifferentialRunner`): every arm,
  one candidate per call.

A task is :func:`compute`: compile ``source``, then run the unit under
each of ``arms``.  It is module-level and takes only picklable
arguments, so it works under fork and spawn alike.  The reply carries
the compile result without its AST (which stays in the worker), one
:class:`~repro.runtime.executor.ExecutionResult` per arm, and the
worker's spans and metrics delta; the parent folds those in with
:func:`~repro.obs.remote.absorb`.  Caches, judges and routing never
cross.  Each user's in-process path (:func:`compile_and_run` on the
calling thread) is the spec a pooled run must match byte for byte.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, replace

from repro.compiler.driver import Compiler, CompileResult
from repro.obs import trace
from repro.obs.remote import WorkerTelemetry, absorb
from repro.runtime.executor import Executor
from repro.testing import faultinject
from repro.testing.faultinject import fault_point

@dataclass(frozen=True)
class ComputeSpec:
    """How a user names its tasks, and the toolchain they compute with.

    ``worker`` names the worker's root span (``worker.<worker>``) and
    its crash message, ``noun`` what one task computes (``'file'``,
    ``'candidate'``), and ``fault_point`` the point a task passes first.
    """

    worker: str
    noun: str
    fault_point: str
    model: str
    openmp_max_version: float
    step_limit: int


def compile_and_run(
    compiler: Compiler, executors: dict[str, Executor], source: str, name: str
) -> tuple[CompileResult, dict]:
    """Compile ``source``; if it compiles, run it under every executor."""
    compiled = compiler.compile(source, name)
    if not compiled.ok:
        return compiled, {}
    return compiled, {arm: executor.run(compiled) for arm, executor in executors.items()}


class ComputeWorkerCrash(RuntimeError):
    """A compute pool worker died (SIGKILL, OOM) while a task was pending.

    Names the file or candidate whose outcome was lost.  The run stops
    with it; nothing is retried.
    """


class ComputePool:
    """A run-scoped process pool for :func:`compute` tasks.

    Opening it imports the compile and execute modules, then forks (or
    spawns) every worker at once, on the calling thread: with fork,
    Python 3.11 launches all workers at the first submit, and that
    submit must not happen on a scheduler thread.  :meth:`submit` and
    :meth:`result` are thread-safe.  :meth:`close` leaves no child
    alive, after a normal end and after a worker death alike.
    """

    def __init__(self, workers: int):
        # the process machinery loads here, not at import: the daemon
        # imports the pipeline but never opens this pool
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        from repro.experiments import sharding

        _warm_imports()
        context = multiprocessing.get_context(sharding.default_start_method())
        self._executor = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=context,
            initializer=_init_worker,
            initargs=(os.getpid(),),
        )
        try:
            with sharding.package_root_on_pythonpath():
                for ready in [
                    self._executor.submit(os.getpid) for _ in range(workers)
                ]:
                    ready.result()
        except BaseException:
            self.close()
            raise

    def submit(
        self, spec: ComputeSpec, name: str, source: str, arms: tuple[str, ...],
        trace_ctx: trace.TraceContext | None,
    ) -> Future:
        """Queue one :func:`compute` task; read it with :meth:`result`."""
        return self._executor.submit(compute, spec, name, source, arms, trace_ctx)

    def result(
        self, future: Future, spec: ComputeSpec, name: str,
        parent: trace.SpanRecord | None = None,
    ) -> tuple[CompileResult, dict]:
        """``(compiled, results)`` of a submitted task, its telemetry
        absorbed here (re-rooted under the open span ``parent`` when
        given).  Read each future once: a second read would absorb its
        counts twice."""
        from concurrent.futures.process import BrokenProcessPool

        try:
            compiled, results, spans, metrics_delta = future.result()
        except BrokenProcessPool as exc:
            raise ComputeWorkerCrash(
                f"a {spec.worker} worker process died while computing"
                f" {spec.noun} {name!r}"
            ) from exc
        absorb(spans, metrics_delta, parent=parent)
        return compiled, results

    def compute(
        self, spec: ComputeSpec, name: str, source: str, arms: tuple[str, ...]
    ) -> tuple[CompileResult, dict]:
        """One task, waited for; the worker's spans parent under the
        calling thread's current span."""
        future = self.submit(spec, name, source, arms, trace.current())
        return self.result(future, spec, name)

    def close(self) -> None:
        self._executor.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "ComputePool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _warm_imports() -> None:
    """Import what a task runs before the workers fork.

    The interpreter imports its closure and codegen backends lazily;
    without this, every forked worker of every run pays that import
    again (about 100 ms per worker)."""
    import repro.runtime.codegen  # noqa: F401
    import repro.runtime.compilebody  # noqa: F401


#: the worker process's telemetry shipper, built after the fork
_worker_telemetry: WorkerTelemetry | None = None


def _init_worker(parent_pid: int) -> None:
    """Pool worker start-up (module-level: spawn-safe)."""
    global _worker_telemetry
    # re-read REPRO_FAULT_POINTS: a forked worker would otherwise
    # inherit the parent's parsed (possibly test-cleared) state
    faultinject.reset()
    _worker_telemetry = WorkerTelemetry()
    threading.Thread(
        target=_exit_with_parent, args=(parent_pid,),
        name="compute-parent-watch", daemon=True,
    ).start()


def _exit_with_parent(parent_pid: int) -> None:
    """A worker outlives no run: a SIGKILLed parent never closes the
    pool, so each worker watches for being re-parented."""
    while os.getppid() == parent_pid:
        time.sleep(0.5)
    os._exit(1)


def compute(
    spec: ComputeSpec, name: str, source: str, arms: tuple[str, ...], trace_ctx
) -> tuple:
    """The pool worker's entrypoint (module-level: spawn-safe).

    Returns ``(compiled, results, spans, metrics_delta)``: ``compiled``
    without its AST, ``results`` one ExecutionResult per arm (empty
    when the compile failed), and the spans parented under
    ``trace_ctx``.
    """
    fault_point(spec.fault_point)
    compiler = Compiler(model=spec.model, openmp_max_version=spec.openmp_max_version)
    executors = {arm: Executor(step_limit=spec.step_limit, backend=arm) for arm in arms}
    (compiled, results), spans, metrics_delta = _worker_telemetry.run(
        trace_ctx, f"worker.{spec.worker}",
        lambda: compile_and_run(compiler, executors, source, name),
        file=name,
    )
    return replace(compiled, unit=None, info=None), results, spans, metrics_delta
