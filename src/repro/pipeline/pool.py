"""One compute pool, three users: CPU-bound tasks in worker processes.

Compile, execute and the judge are pure CPU work under the GIL, so
threads keep about one core busy.  :class:`ComputePool` runs tasks in
processes for three users:

* the validation pipeline (:meth:`ValidationPipeline.run
  <repro.pipeline.engine.ValidationPipeline.run>` with ``processes >=
  2``): one task per file, its whole compile → execute → judge chain
  past the cache entries the parent already holds;
* the fuzz campaign (:meth:`Campaign.run
  <repro.fuzz.campaign.Campaign.run>` with ``workers >= 2``): one task
  per candidate, its whole differential → triage chain past the cached
  outcome the parent already holds;
* corpus generation (:meth:`CorpusGenerator.generate
  <repro.corpus.generator.CorpusGenerator.generate>` with ``workers >=
  2``): one :func:`compute` task per rendered file, run under the
  generator's backend alone.

A task is a module-level function taking only picklable arguments, so
it works under fork and spawn alike.  It runs through :func:`run_task`,
which passes the user's fault point and records the task's spans and
metrics delta; the reply carries them home with the task's value, and
the user folds them in.  Caches never cross: the parent reads and fills
them.  Each user's in-process path is the spec a pooled run must match
byte for byte.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, replace

from repro.compiler.driver import Compiler, CompileResult
from repro.obs.remote import WorkerTelemetry
from repro.runtime.executor import Executor
from repro.testing import faultinject
from repro.testing.faultinject import fault_point


@dataclass(frozen=True)
class ComputeSpec:
    """How a user names its tasks.

    ``worker`` names the worker's root span (``worker.<worker>``) and
    its crash message, ``noun`` what one task computes (``'file'``,
    ``'candidate'``), and ``fault_point`` the point a task passes first.
    """

    worker: str
    noun: str
    fault_point: str


#: what :func:`compute` compiles and runs with: ``(model,
#: openmp_max_version, step_limit)``
Toolchain = tuple[str, float, int]


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
    """A run-scoped process pool for module-level tasks.

    Opening it imports the compile and execute modules, then forks (or
    spawns) every worker at once, on the calling thread: with fork,
    Python 3.11 launches all workers at the first submit, so the pool
    makes that submit itself, before its user starts any thread.
    :meth:`submit` and :meth:`result` are thread-safe.  :meth:`close` leaves no child
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

    def submit(self, task, *args) -> Future:
        """Queue one task (a module-level function returning ``(value,
        spans, metrics_delta)``); read it with :meth:`result`."""
        return self._executor.submit(task, *args)

    def result(self, future: Future, spec: ComputeSpec, name: str) -> tuple:
        """A submitted task's ``(value, spans, metrics_delta)``; the
        caller absorbs the telemetry, once per future."""
        from concurrent.futures.process import BrokenProcessPool

        try:
            return future.result()
        except BrokenProcessPool as exc:
            raise ComputeWorkerCrash(
                f"a {spec.worker} worker process died while computing"
                f" {spec.noun} {name!r}"
            ) from exc

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


def run_task(spec: ComputeSpec, name: str, trace_ctx, work) -> tuple:
    """Run one task's ``work`` in a pool worker: pass the spec's fault
    point, then return ``(work(), spans, metrics_delta)`` with the spans
    under a root ``worker.<spec.worker>`` span opened from
    ``trace_ctx``."""
    fault_point(spec.fault_point)
    return _worker_telemetry.run(trace_ctx, f"worker.{spec.worker}", work, file=name)


def compute(
    spec: ComputeSpec, toolchain: Toolchain, name: str, source: str,
    arms: tuple[str, ...], trace_ctx,
) -> tuple:
    """The generator's task (module-level: spawn-safe): compile
    ``source`` with ``toolchain`` and run it under each of ``arms``.

    Its value is ``(compiled, results)``: ``compiled`` without its AST,
    ``results`` one ExecutionResult per arm (empty when the compile
    failed).
    """
    model, openmp_max_version, step_limit = toolchain
    compiler = Compiler(model=model, openmp_max_version=openmp_max_version)
    executors = {arm: Executor(step_limit=step_limit, backend=arm) for arm in arms}
    (compiled, results), spans, metrics_delta = run_task(
        spec, name, trace_ctx,
        lambda: compile_and_run(compiler, executors, source, name),
    )
    return (replace(compiled, unit=None, info=None), results), spans, metrics_delta
