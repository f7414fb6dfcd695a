"""The generic stage scheduler.

:class:`StageScheduler` runs a linear chain of :class:`Stage` objects
as communicating worker pools.  The fuzz campaign's rounds (mutate →
differential → triage) run on it; the validation pipeline runs each
file's chain as one call instead (:mod:`repro.pipeline.engine`).

Responsibilities owned here so stages never re-implement them:

* one bounded queue per stage (back-pressure between pools);
* thread spawning with per-worker stage state
  (:meth:`Stage.make_worker_state`) and sentinel shutdown;
* per-stage statistics (pass/fail/skip counts, busy and simulated
  seconds, items, errors), counted the validation pipeline's way
  (:func:`~repro.pipeline.stats.counted_run`,
  :class:`~repro.pipeline.stats.StageCounters`);
* forward routing — an outcome may jump over stages;
* error containment — a stage that raises marks the item failed and
  keeps the run draining instead of deadlocking ``queue.join``.

Stages only decide *what to do with one item*; the scheduler decides
how items move.
"""

from __future__ import annotations

import contextlib
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.obs import trace
from repro.pipeline.stats import PipelineStats, StageCounters, counted_run


@dataclass(frozen=True)
class StageOutcome:
    """What one ``process`` call decided.

    ``ok=None`` means "record no pass/fail statistic" (rare; used by
    pure routing stages).  ``simulated_seconds=None`` defaults the
    simulated cost to the measured busy time — right for CPU-bound
    stages; a judge overrides it with the LLM service-time model.
    ``skip_stats`` names stages whose statistics should record a skip
    (early-exit accounting).
    """

    payload: Any
    ok: bool | None = None
    done: bool = False
    next_stage: str | None = None
    skip_stats: tuple[str, ...] = ()
    simulated_seconds: float | None = None


class Stage:
    """One named worker pool in a scheduler chain: a name, a worker
    count, optional per-worker state (anything not thread-safe to
    share), and a ``process`` method that turns one item into a
    :class:`StageOutcome` carrying the routing decision."""

    name: str = "stage"
    workers: int = 1

    def make_worker_state(self) -> Any:
        """Build per-thread state (called once per worker thread)."""
        return None

    def process(self, payload: Any, state: Any) -> StageOutcome:
        raise NotImplementedError


_SENTINEL = object()


def _trace_label(item: Any) -> str:
    """Best-effort file name for an in-flight item (span/gantt label)."""
    name = getattr(item, "name", None)
    if isinstance(name, str):
        return name
    name = getattr(getattr(item, "test", None), "name", None)
    return name if isinstance(name, str) else type(item).__name__


@dataclass(frozen=True)
class StageError:
    """One exception raised by a stage's ``process``."""

    stage: str
    payload: Any
    error: Exception


@dataclass
class SchedulerResult:
    """Everything one scheduler run produced."""

    finished: list = field(default_factory=list)
    stats: PipelineStats = field(default_factory=PipelineStats)
    errors: list[StageError] = field(default_factory=list)
    #: True when :meth:`StageScheduler.abort` cut the run short; the
    #: ``finished`` list then holds only the items that completed.
    aborted: bool = False

    @property
    def ok(self) -> bool:
        return not self.errors

    def raise_first(self, context: str) -> None:
        """Raise a RuntimeError for the first stage error, if any."""
        if not self.errors:
            return
        first = self.errors[0]
        raise RuntimeError(
            f"{context}: {len(self.errors)} stage failure(s); first: "
            f"stage {first.stage!r}: {first.error!r}"
        ) from first.error


class StageScheduler:
    """Bounded-queue, multi-pool executor for a chain of stages.

    Parameters
    ----------
    stages:
        Ordered stage chain.  Items enter at the first stage; outcomes
        route strictly *forward* (same-or-earlier routing would race
        the drain protocol, so it is rejected).
    queue_capacity:
        Bound of every inter-stage queue — the back-pressure knob.
    """

    def __init__(self, stages: Sequence[Stage], queue_capacity: int = 64):
        if not stages:
            raise ValueError("scheduler needs at least one stage")
        names = [stage.name for stage in stages]
        if len(set(names)) != len(names):
            raise ValueError(f"stage names must be unique, got {names}")
        if queue_capacity < 1:
            raise ValueError(f"queue_capacity must be >= 1, got {queue_capacity}")
        self.stages = list(stages)
        self.queue_capacity = queue_capacity
        self._index = {name: i for i, name in enumerate(names)}
        self._abort = threading.Event()

    # ------------------------------------------------------------------

    def abort(self) -> None:
        """Ask a running :meth:`run` to wind down early.

        The feeder stops enqueuing new items and every worker starts
        passing queued items through unprocessed, so the run drains via
        the normal sentinel path instead of grinding through its
        backlog.  Items already inside a stage's ``process`` complete;
        everything else is dropped.  Safe to call from any thread (a
        signal handler, a supervising thread, a stage itself).  Note
        the service's graceful drain deliberately does *not* abort:
        its contract is that admitted requests finish.
        """
        self._abort.set()

    @property
    def aborting(self) -> bool:
        return self._abort.is_set()

    def run(self, items: Sequence[Any]) -> SchedulerResult:
        """Push ``items`` through the stage chain; block until drained.

        ``KeyboardInterrupt`` (Ctrl-C, or SIGTERM re-raised as one by
        the CLI) triggers the same early-drain as :meth:`abort` before
        propagating, so worker threads are parked — not abandoned mid-
        item — and a caller's ``finally`` can flush caches safely.
        """
        self._abort.clear()
        result = SchedulerResult()
        with counted_run(len(items), ",".join(self._index)) as registry:
            self._drive(items, registry, result)
        result.stats = PipelineStats(registry.export_state(), self._index)
        return result

    def _drive(self, items: Sequence[Any], registry, result: SchedulerResult) -> None:
        """:meth:`run`'s body, inside the run's ``scheduler.run`` span."""
        finished_lock = threading.Lock()
        # Tracing: contextvars do not cross threads, so capture the run
        # span's context here and parent every stage span explicitly;
        # worker threads never read the contextvar directly.
        run_ctx = trace.current()
        counters = {
            stage.name: StageCounters(registry, stage.name) for stage in self.stages
        }

        queues = [
            queue.Queue(maxsize=self.queue_capacity) for _ in self.stages
        ]

        def finish(payload: Any) -> None:
            with finished_lock:
                result.finished.append(payload)

        def route(outcome: StageOutcome, from_index: int) -> None:
            if outcome.done:
                finish(outcome.payload)
                return
            if outcome.next_stage is None:
                target = from_index + 1
            else:
                target = self._index.get(outcome.next_stage)
                if target is None:
                    raise ValueError(
                        f"unknown stage {outcome.next_stage!r} "
                        f"(have {sorted(self._index)})"
                    )
            if target <= from_index:
                raise ValueError(
                    f"stage {self.stages[from_index].name!r} may only route "
                    f"forward, not to {self.stages[target].name!r}"
                )
            if target >= len(self.stages):
                # routed past the last stage: the item is finished
                finish(outcome.payload)
                return
            queues[target].put(outcome.payload)

        def worker(stage_index: int) -> None:
            stage = self.stages[stage_index]
            counts = counters[stage.name]
            state = stage.make_worker_state()
            q = queues[stage_index]
            while True:
                item = q.get()
                if item is _SENTINEL:
                    q.task_done()
                    return
                if self._abort.is_set():
                    # aborting: drain the backlog without processing it
                    q.task_done()
                    continue
                t0 = time.perf_counter()
                try:
                    with trace.span(
                        f"stage.{stage.name}",
                        parent=run_ctx,
                        file=_trace_label(item),
                    ):
                        outcome = stage.process(item, state)
                except Exception as exc:  # noqa: BLE001 - contained by design
                    counts.error(time.perf_counter() - t0)
                    with finished_lock:
                        result.errors.append(StageError(stage.name, item, exc))
                    finish(item)
                else:
                    busy = time.perf_counter() - t0
                    counts.done(
                        busy, outcome.ok,
                        busy if outcome.simulated_seconds is None
                        else outcome.simulated_seconds,
                    )
                    try:
                        for name in outcome.skip_stats:
                            counters[name].skipped.inc()
                        route(outcome, stage_index)
                    except Exception as exc:  # bad routing must not deadlock
                        with finished_lock:
                            result.errors.append(StageError(stage.name, item, exc))
                        finish(outcome.payload)
                q.task_done()

        pools: list[list[threading.Thread]] = []
        for i, stage in enumerate(self.stages):
            pools.append(_spawn(lambda i=i: worker(i), max(1, stage.workers)))

        try:
            for item in items:
                # abort-aware feed: a bounded queue's put would otherwise
                # block forever once workers stop consuming
                while not self._abort.is_set():
                    try:
                        queues[0].put(item, timeout=0.1)
                        break
                    except queue.Full:
                        continue
                if self._abort.is_set():
                    break

            # Drain front to back: routing is forward-only, so once stage
            # i's queue is empty and its workers are parked, nothing can
            # ever enqueue to stage i again.
            for q, pool in zip(queues, pools):
                q.join()
                for _ in pool:
                    q.put(_SENTINEL)
                for thread in pool:
                    thread.join()
        except KeyboardInterrupt:
            self._abort.set()
            # workers are now fast-draining their backlogs; park every
            # pool through the sentinel path so no thread is left mid-
            # run.  Sentinels go in non-blocking (a full queue just gets
            # retried — live workers are consuming it) so this path can
            # never itself wedge on a bounded queue.
            for q, pool in zip(queues, pools):
                for thread in pool:
                    while thread.is_alive():
                        with contextlib.suppress(queue.Full):
                            q.put_nowait(_SENTINEL)
                        thread.join(timeout=0.05)
            trace.annotate(aborted=True)
            raise
        finally:
            result.aborted = self._abort.is_set()


def _spawn(target: Callable[[], None], count: int) -> list[threading.Thread]:
    threads = [threading.Thread(target=target, daemon=True) for _ in range(count)]
    for thread in threads:
        thread.start()
    return threads
