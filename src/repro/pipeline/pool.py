"""One compute pool for every process: CPU-bound tasks in workers.

Compile, execute and the judge are pure CPU work under the GIL, so
threads keep about one core busy.  :class:`ComputePool` runs tasks in
processes, and every process the program starts comes from it.  The
runs below borrow one long-lived pool per process (:func:`shared`):
the first pooled run forks its workers, and later runs reuse them.
Its users:

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
  generator's backend alone;
* experiment sharding (:func:`~repro.experiments.sharding.run_cells`
  with ``jobs >= 2``): one task per cell, costliest first;
* the daemon (:class:`~repro.service.server.ValidationService` with
  ``workers >= 1``), which opens a pool of its own instead, without
  the preloaded backends, for the service's life: one
  :func:`~repro.service.workers.batch_task` per micro-batch, its
  chains past the cache entries the parent already holds.

A task is a module-level function taking only picklable arguments, so
it works under fork and spawn alike.  It runs through :func:`run_task`,
which passes the user's fault point and records the task's spans and
metrics delta; the reply carries them home with the task's value, and
:meth:`ComputePool.result` folds them in.  Caches never cross a task
boundary: the parent reads and fills them.  Only an experiment cell
keeps a cache in the worker instead, one per task, pointed at a shared
on-disk directory (merge-on-save).  Each user's in-process path is the
spec a pooled run must match byte for byte.
"""

from __future__ import annotations

import atexit
import contextlib
import os
import signal
import threading
import time
from concurrent.futures import Future, wait
from dataclasses import dataclass, replace
from pathlib import Path

from repro.compiler.driver import Compiler, CompileResult
from repro.obs import trace
from repro.obs.remote import WorkerTelemetry, absorb
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

    Names the file, candidate, batch or cell whose outcome was lost.
    The pool is broken from then on.  A run (validate, fuzz, generate,
    experiment) stops with it and closes the shared pool; the daemon
    reopens its pool and resubmits the lost batch once.
    """


#: seconds :meth:`ComputePool.close` waits for its workers to finish
#: their tasks before it terminates them
CLOSE_TIMEOUT_S = 10.0


class ComputePool:
    """A process pool for module-level tasks.

    Opening it imports the compile and execute modules (with
    ``preload``, the lazily loaded closure and codegen backends too),
    then forks (or spawns) every worker at once, on the calling thread:
    with fork,
    Python 3.11 launches all workers at the first submit, so the pool
    makes that submit itself, before its user starts any thread.
    :meth:`submit` and :meth:`result` are thread-safe.  :meth:`close`
    leaves no child alive, after a normal end and after a worker death
    alike, and returns within a bound even when a task is wedged.
    """

    def __init__(self, workers: int, preload: bool = True):
        # the process machinery loads here, not at import: most runs
        # import the pipeline but never open this pool
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if preload:
            _warm_imports()
        self.workers = workers
        #: the futures :meth:`submit` returned that are not done yet
        self._pending: set[Future] = set()
        self._executor = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context(default_start_method()),
            initializer=_init_worker,
            initargs=(os.getpid(),),
        )
        try:
            with package_root_on_pythonpath():
                for ready in [
                    self._executor.submit(os.getpid) for _ in range(workers)
                ]:
                    ready.result()
        except BaseException:
            self.close()
            raise
        self._processes = list(self._executor._processes.values())

    def submit(self, task, *args) -> Future:
        """Queue one task (a module-level function returning ``(value,
        spans, metrics_delta)``); read it with :meth:`result`.  On a
        broken pool the future has already failed."""
        from concurrent.futures.process import BrokenProcessPool

        try:
            future = self._executor.submit(task, *args)
        except BrokenProcessPool as exc:
            future = Future()
            future.set_exception(exc)
            return future
        self._pending.add(future)
        future.add_done_callback(self._pending.discard)
        return future

    def result(self, future: Future, spec: ComputeSpec, name: str, registry=None):
        """A submitted task's value, once its spans and metrics delta
        are absorbed (its counts into ``registry``, the process
        registry by default); read each future once."""
        from concurrent.futures.process import BrokenProcessPool

        try:
            value, spans, metrics_delta = future.result()
        except BrokenProcessPool as exc:
            raise ComputeWorkerCrash(
                f"a {spec.worker} worker process died while computing"
                f" {spec.noun} {name!r}"
            ) from exc
        absorb(spans, metrics_delta, registry)
        return value

    @property
    def alive(self) -> int:
        """How many workers are alive; fewer than :attr:`workers` means
        one died and the pool is broken (or closed)."""
        return sum(process.is_alive() for process in self._processes)

    def settle(self, timeout: float = CLOSE_TIMEOUT_S) -> bool:
        """Cancel every task still queued and wait for those already
        running; whether all are done within ``timeout`` seconds.  A
        settled pool holds no task of a run that ended early."""
        pending = list(self._pending)
        for future in pending:
            future.cancel()
        return not wait(pending, timeout).not_done

    def close(self, timeout: float = CLOSE_TIMEOUT_S) -> None:
        """Stop every worker: each exits once its running task is done
        (a worker's exit hooks run then), and any still alive after
        ``timeout`` seconds is terminated, failing its task's future.
        ``timeout`` bounds the whole close, not each step of it."""
        executor = self._executor
        processes = list((executor._processes or {}).values())
        manager = executor._executor_manager_thread
        executor.shutdown(wait=False, cancel_futures=True)
        deadline = time.monotonic() + timeout
        for process in processes:
            process.join(max(0.0, deadline - time.monotonic()))
        for process in processes:
            if process.is_alive():
                process.terminate()
                process.join()
        if manager is not None:
            manager.join(max(0.0, deadline - time.monotonic()))

    def __enter__(self) -> "ComputePool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


#: the process's shared pool (:func:`shared`), the key it was opened
#: under, and whether a run has borrowed it
_shared: ComputePool | None = None
_shared_key: tuple | None = None
_shared_busy = False
_shared_lock = threading.Lock()


@contextlib.contextmanager
def shared(workers: int):
    """Borrow the process's compute pool of ``workers`` workers for one run.

    The first run opens the pool and later runs borrow it, so a process
    forks its workers once, not once per run.  The pool is keyed on
    what a worker fixes when it starts: its size,
    :func:`default_start_method`, ``REPRO_FAULT_POINTS`` (a fault point
    counts its hits from the worker's start), and whether a tracer is
    installed (instrumentation installed with a tracer, such as
    perfbench's layer wrappers, reaches only workers forked after it).
    A borrow under another key, or one that finds a worker dead, closes
    the pool and opens a new one.

    When the run ends, its tasks still queued are cancelled and those
    running are waited for (:meth:`ComputePool.settle`), so no stale
    task sits ahead of the next run.  A run that ends by an exception
    (:class:`ComputeWorkerCrash`, Ctrl-C, the CLI's SIGTERM) closes the
    pool.  A borrow made while another run holds the pool (a library
    caller's second thread) gets a pool of its own, closed when its run
    ends: settling or closing the shared pool would fail the other
    run's tasks.  The shared pool is closed at interpreter exit, by
    :func:`close_shared`, and by a daemon's drain.
    """
    global _shared, _shared_key, _shared_busy
    key = (
        workers, default_start_method(), os.environ.get(faultinject.ENV_VAR),
        trace.active() is not None,
    )
    with _shared_lock:
        borrowed = not _shared_busy
        if borrowed:
            if _shared is not None and (
                _shared_key != key or _shared.alive < _shared.workers
            ):
                _shared.close()
                _shared = _shared_key = None
            if _shared is None:
                _shared, _shared_key = ComputePool(workers), key
            _shared_busy = True
            lent = _shared
    if not borrowed:
        with ComputePool(workers) as own:
            yield own
        return
    try:
        yield lent
        if not lent.settle():
            close_shared()
    except BaseException:
        close_shared()
        raise
    finally:
        with _shared_lock:
            _shared_busy = False


def close_shared(timeout: float = CLOSE_TIMEOUT_S) -> None:
    """Close the shared pool, if one is open, within ``timeout``
    seconds (see :meth:`ComputePool.close`); the next borrow opens a
    new one."""
    global _shared, _shared_key
    with _shared_lock:
        closing, _shared, _shared_key = _shared, None, None
    if closing is not None:
        closing.close(timeout)


atexit.register(close_shared)


def default_start_method() -> str:
    """``fork`` where available (cheap start, no re-import), else
    ``spawn``.  Every task is spawn-safe either way, so tests pin
    ``spawn`` by patching this one function."""
    import multiprocessing

    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


@contextlib.contextmanager
def package_root_on_pythonpath():
    """Expose repro's root via PYTHONPATH while workers are spawned.

    Spawned children re-import repro, which fails if the parent found
    the package through sys.path manipulation only.  The mutation is
    scoped to pool creation and undone afterwards, so unrelated
    subprocesses launched later by an embedding application don't
    inherit it.
    """
    src_root = str(Path(__file__).resolve().parents[2])
    before = os.environ.get("PYTHONPATH")
    if before is not None and src_root in before.split(os.pathsep):
        yield
        return
    os.environ["PYTHONPATH"] = (
        src_root if not before else src_root + os.pathsep + before
    )
    try:
        yield
    finally:
        if before is None:
            os.environ.pop("PYTHONPATH", None)
        else:
            os.environ["PYTHONPATH"] = before


def _warm_imports() -> None:
    """Import what a task runs before the workers fork.

    The interpreter imports its closure and codegen backends lazily;
    without this, every forked worker of every run pays that import
    again (about 100 ms per worker).  The daemon's pool skips it: it
    lives for the service's life, its warm-cache batches may never
    execute, and the imports would add ~6 MB to the daemon and to each
    forked worker."""
    import repro.runtime.codegen  # noqa: F401
    import repro.runtime.compilebody  # noqa: F401


#: the worker process's telemetry shipper, built after the fork
_worker_telemetry: WorkerTelemetry | None = None


def _init_worker(parent_pid: int) -> None:
    """Pool worker start-up (module-level: spawn-safe)."""
    global _worker_telemetry
    # terminate() must end a worker: a forked one would otherwise keep
    # the CLI's handler, which turns SIGTERM into KeyboardInterrupt
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    # re-read REPRO_FAULT_POINTS: a forked worker would otherwise
    # inherit the parent's parsed (possibly test-cleared) state
    faultinject.reset()
    _worker_telemetry = WorkerTelemetry()
    threading.Thread(
        target=_exit_with_parent, args=(parent_pid,),
        name="compute-parent-watch", daemon=True,
    ).start()


def _exit_with_parent(parent_pid: int) -> None:
    """A worker outlives no parent: a SIGKILLed parent never closes the
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
