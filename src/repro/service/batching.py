"""Micro-batching admission: bounded queue, collector thread, futures.

The serving layer's core economics live here.  A request costs one
queue slot; a collector thread pops slots and groups *compatible*
requests (equal grouping keys — the service passes the frozen
:class:`~repro.service.protocol.ValidateOptions` itself) into batches
bounded by
two knobs:

* ``max_batch_size`` — a full batch dispatches immediately;
* ``max_latency`` — an open batch never waits longer than this for
  company, so a lone request still answers promptly.

One batch becomes one pipeline run, so concurrent clients share one
validator, one run's setup and the PipelineCache instead of paying
per-request pipeline setup.  When the queue is full, :meth:`submit`
raises :class:`BatchQueueFull` — the server's HTTP 429 — which is the
backpressure contract: the daemon sheds load at admission instead of
accumulating unbounded work.

:meth:`close` is the graceful-drain half: no new admissions, every
queued request still gets its answer (or, with ``drain=False``, a
:class:`BatcherClosed` error), then the collector parks.

The batcher is deliberately generic — payloads are opaque, grouping is
by an opaque key, and the ``runner`` callback maps one batch of
payloads to one result per payload — so tests can drive the cutoff
logic with toy runners and no HTTP anywhere.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.obs.metrics import get_metrics, series


#: the lifetime counts :meth:`MicroBatcher.snapshot` reports
COUNTS = (
    "submitted", "rejected", "completed", "failed", "batches",
    "size_cutoffs", "latency_cutoffs", "key_cutoffs",
)


class BatchQueueFull(RuntimeError):
    """Admission queue at capacity; retry after ``retry_after`` seconds."""

    def __init__(self, depth: int, capacity: int, retry_after: float):
        super().__init__(f"admission queue full ({depth}/{capacity})")
        self.depth = depth
        self.capacity = capacity
        self.retry_after = retry_after


class BatcherClosed(RuntimeError):
    """The batcher is draining or closed; no new work is admitted."""


@dataclass
class _Pending:
    key: Any
    payload: Any
    future: Future


class MicroBatcher:
    """Group submitted payloads into batches for a runner callback.

    Parameters
    ----------
    runner:
        ``runner(key, payloads) -> results`` with exactly one result
        per payload, in order.  An exception fails every future in the
        batch.  With ``dispatch_workers=1`` (the default) it runs on
        the collector thread: batches execute one at a time
        (parallelism lives *inside* a batch, in the pipeline's worker
        pools — the single-GPU serving model).
    max_batch_size / max_latency:
        The two cutoff knobs described above.
    capacity:
        Bound of the admission queue (the 429 threshold).
    retry_after:
        Advisory client backoff carried by :class:`BatchQueueFull`.
    dispatch_workers:
        How many batches may be *in flight* at once.  1 keeps the
        historical inline path.  Above 1, formed batches go to a
        bounded hand-off queue drained by this many dispatcher threads
        — the shape the service uses over its
        :class:`~repro.pipeline.pool.ComputePool`, where each
        dispatcher waits on a future while a worker process does the
        actual validation.  The hand-off queue is bounded at the
        dispatcher count, so when every worker is busy the collector
        blocks, the admission queue fills, and the 429 backpressure
        contract survives unchanged.
    """

    def __init__(
        self,
        runner: Callable[[Any, Sequence[Any]], Sequence[Any]],
        max_batch_size: int = 8,
        max_latency: float = 0.02,
        capacity: int = 64,
        retry_after: float = 1.0,
        dispatch_workers: int = 1,
    ):
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if max_latency < 0:
            raise ValueError(f"max_latency must be >= 0, got {max_latency}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if dispatch_workers < 1:
            raise ValueError(f"dispatch_workers must be >= 1, got {dispatch_workers}")
        self.runner = runner
        self.dispatch_workers = dispatch_workers
        self.max_batch_size = max_batch_size
        self.max_latency = max_latency
        self.capacity = capacity
        self.retry_after = retry_after

        self._queue: queue.Queue[_Pending] = queue.Queue(maxsize=capacity)
        # admissions and close() serialise on this lock so no payload can
        # slip into the queue after the collector's final drain sweep
        self._admit_lock = threading.Lock()
        self._closed = threading.Event()
        self._drained = threading.Event()
        self._drain_mode = True
        # snapshot() reports the registry's growth since this point
        self._metrics_baseline = get_metrics().export_state()
        self._largest_batch = 0
        # dispatch_workers > 1: formed batches hand off through a small
        # bounded queue to dispatcher threads, so several batches can be
        # in flight (each typically waiting on a worker process)
        self._dispatch_queue: queue.Queue | None = None
        self._dispatchers: list[threading.Thread] = []
        if dispatch_workers > 1:
            self._dispatch_queue = queue.Queue(maxsize=dispatch_workers)
            for i in range(dispatch_workers):
                thread = threading.Thread(
                    target=self._dispatch_loop,
                    name=f"microbatch-dispatch-{i}",
                    daemon=True,
                )
                thread.start()
                self._dispatchers.append(thread)
        self._collector = threading.Thread(
            target=self._collect, name="microbatch-collector", daemon=True
        )
        self._collector.start()

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------

    def submit(self, key: Any, payload: Any) -> Future:
        """Admit one payload; returns the future carrying its result."""
        with self._admit_lock:
            if self._closed.is_set():
                raise BatcherClosed("batcher is draining; not accepting work")
            pending = _Pending(key=key, payload=payload, future=Future())
            try:
                self._queue.put_nowait(pending)
            except queue.Full:
                self._bump("rejected")
                raise BatchQueueFull(
                    self._queue.qsize(), self.capacity, self.retry_after
                ) from None
        self._bump("submitted")
        return pending.future

    @property
    def depth(self) -> int:
        """Current admission-queue depth (approximate, lock-free)."""
        return self._queue.qsize()

    @property
    def closed(self) -> bool:
        return self._closed.is_set()

    def snapshot(self, delta: dict | None = None) -> dict[str, int]:
        """Lifetime counts plus queue geometry, safe to call any time.

        Each count is the growth of its ``service_batcher_<name>_total``
        series in ``delta``, a registry diff (by default the growth
        since this batcher started).
        """
        if delta is None:
            delta = get_metrics().diff(self._metrics_baseline)[0]
        counters = {
            name: int(sum(v for _, v in series(delta, f"service_batcher_{name}_total")))
            for name in COUNTS
        }
        counters["largest_batch"] = self._largest_batch
        counters["queue_depth"] = self.depth
        counters["queue_capacity"] = self.capacity
        counters["max_batch_size"] = self.max_batch_size
        counters["dispatch_workers"] = self.dispatch_workers
        counters["draining"] = self._closed.is_set()
        return counters

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------

    def close(self, drain: bool = True, timeout: float | None = 30.0) -> bool:
        """Stop admitting; finish (or fail) queued work; park the collector.

        With ``drain=True`` every already-admitted request completes
        normally.  With ``drain=False`` queued requests fail fast with
        :class:`BatcherClosed`.  Returns True once the collector parked
        within ``timeout`` seconds.
        """
        self._drain_mode = drain
        with self._admit_lock:
            self._closed.set()
        self._drained.wait(timeout)
        self._collector.join(timeout)
        return not self._collector.is_alive()

    # ------------------------------------------------------------------
    # collector
    # ------------------------------------------------------------------

    def _bump(self, counter: str, by: int = 1) -> None:
        get_metrics().counter(f"service_batcher_{counter}_total").inc(by)

    def _next(self, timeout: float) -> _Pending | None:
        try:
            return self._queue.get(timeout=timeout)
        except queue.Empty:
            return None

    def _collect(self) -> None:
        holdover: _Pending | None = None
        while True:
            if self._closed.is_set() and not self._drain_mode:
                break  # fail-fast close: leftovers are rejected below
            first = holdover
            holdover = None
            if first is None:
                first = self._next(timeout=0.05)
            if first is None:
                if self._closed.is_set():
                    break
                continue

            batch = [first]
            deadline = time.monotonic() + self.max_latency
            cutoff = "size"
            while len(batch) < self.max_batch_size:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    cutoff = "latency"
                    break
                item = self._next(timeout=remaining)
                if item is None:
                    cutoff = "latency"
                    break
                if item.key != first.key:
                    # incompatible request: close this batch, open the next
                    holdover = item
                    cutoff = "key"
                    break
                batch.append(item)

            self._bump(f"{cutoff}_cutoffs")
            self._dispatch(first.key, batch)

        # closed: no new admissions can arrive; flush what remains
        leftovers = [] if holdover is None else [holdover]
        while True:
            item = self._next(timeout=0.0)
            if item is None:
                break
            leftovers.append(item)
        if self._drain_mode:
            for item in leftovers:
                self._dispatch(item.key, [item])
        else:
            for item in leftovers:
                item.future.set_exception(BatcherClosed("batcher closed before dispatch"))
                self._bump("failed")
        # park the dispatchers after their queue is empty: every formed
        # batch (drain or not) already owns its futures and must finish
        if self._dispatch_queue is not None:
            for _ in self._dispatchers:
                self._dispatch_queue.put(None)
            for thread in self._dispatchers:
                thread.join()
        self._drained.set()

    def _dispatch(self, key: Any, batch: list[_Pending]) -> None:
        self._bump("batches")
        # the collector is the only writer
        self._largest_batch = max(self._largest_batch, len(batch))
        get_metrics().histogram(
            "service_batch_size", buckets=(1, 2, 4, 8, 16, 32, 64)
        ).observe(len(batch))
        if self._dispatch_queue is None:
            self._execute(key, batch)
        else:
            # blocks when every dispatcher is busy — intentional: the
            # admission queue then fills and submit() starts raising 429s
            self._dispatch_queue.put((key, batch))

    def _dispatch_loop(self) -> None:
        while True:
            item = self._dispatch_queue.get()
            if item is None:
                return
            self._execute(*item)

    def _execute(self, key: Any, batch: list[_Pending]) -> None:
        try:
            results = self.runner(key, [item.payload for item in batch])
            if len(results) != len(batch):
                raise RuntimeError(
                    f"runner returned {len(results)} results for a "
                    f"batch of {len(batch)}"
                )
        except BaseException as exc:  # noqa: BLE001 - forwarded to futures
            for item in batch:
                item.future.set_exception(exc)
            self._bump("failed", len(batch))
        else:
            for item, result in zip(batch, results):
                item.future.set_result(result)
            self._bump("completed", len(batch))
