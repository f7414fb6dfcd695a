"""Micro-batching admission: bounded queue, dispatcher threads, futures.

The serving layer's core economics live here.  A request costs one
queue slot; each dispatcher thread pulls its own batch of *compatible*
requests (equal grouping keys — the service passes the frozen
:class:`~repro.service.protocol.ValidateOptions` itself) off that queue
and runs it.  Dispatch is work-conserving: a dispatcher blocks for a
first request, then takes, without waiting, every request already
queued behind it with the same key, so batches form by themselves
while every dispatcher is busy, and without a window a lone request
runs at once.  Two knobs bound a batch:

* ``max_batch_size`` — a full batch dispatches immediately;
* ``max_latency`` — an optional extra wait (default 0, none): with it
  a dispatcher waits up to this long for company once the queue
  behind its first request is empty.  The service defaults to 10 ms
  (``ValidationService``, ``serve --max-latency-ms``): concurrent
  clients then share a batch, and most of a request's latency is a
  fixed wait instead of CPU time, which varies with the host's load.

One batch becomes one pipeline run, so concurrent clients share one
validator, one run's setup and the PipelineCache instead of paying
per-request pipeline setup.  When the queue is full, :meth:`submit`
raises :class:`BatchQueueFull` — the server's HTTP 429 — which is the
backpressure contract: the daemon sheds load at admission instead of
accumulating unbounded work.

:meth:`close` is the graceful-drain half: no new admissions, every
queued request still gets its answer (or, with ``drain=False``, a
:class:`BatcherClosed` error), then the dispatchers exit.

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
        batch.  It runs on the dispatcher thread that formed the batch.
    max_batch_size / max_latency:
        The two cutoff knobs described above.
    capacity:
        Bound of the admission queue (the 429 threshold).
    retry_after:
        Advisory client backoff carried by :class:`BatchQueueFull`.
    dispatch_workers:
        How many dispatcher threads, i.e. how many batches may be in
        flight at once.  The service sizes it to its
        :class:`~repro.pipeline.pool.ComputePool`, where each
        dispatcher waits on a future while a worker process does the
        actual validation.  Dispatchers form batches one at a time, in
        queue order; when every one is busy, the admission queue fills
        and :meth:`submit` starts raising 429s.
    """

    def __init__(
        self,
        runner: Callable[[Any, Sequence[Any]], Sequence[Any]],
        max_batch_size: int = 8,
        max_latency: float = 0.0,
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
        # slip into the queue after a dispatcher's final empty poll
        self._admit_lock = threading.Lock()
        self._closed = threading.Event()
        self._drain_mode = True
        # one dispatcher forms a batch at a time, so batches keep queue
        # order; the request that ended a batch on a key change waits
        # here as the next batch's first, for whichever dispatcher is free
        self._take_lock = threading.Lock()
        self._holdover: _Pending | None = None
        # snapshot() reports the registry's growth since this point
        self._metrics_baseline = get_metrics().export_state()
        self._largest_batch = 0
        self._dispatchers = [
            threading.Thread(
                target=self._dispatch_loop, name=f"microbatch-dispatch-{i}", daemon=True
            )
            for i in range(dispatch_workers)
        ]
        for thread in self._dispatchers:
            thread.start()

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
        """Stop admitting; finish (or fail) queued work; stop the dispatchers.

        With ``drain=True`` every already-admitted request completes
        normally.  With ``drain=False`` queued requests fail fast with
        :class:`BatcherClosed`; batches already running still finish.
        Returns True when every dispatcher exited within ``timeout``
        seconds, one deadline for all of them.
        """
        self._drain_mode = drain
        with self._admit_lock:
            self._closed.set()
        deadline = None if timeout is None else time.monotonic() + timeout
        for thread in self._dispatchers:
            thread.join(None if deadline is None else max(0.0, deadline - time.monotonic()))
        return not any(thread.is_alive() for thread in self._dispatchers)

    # ------------------------------------------------------------------
    # dispatchers
    # ------------------------------------------------------------------

    def _bump(self, counter: str, by: int = 1) -> None:
        get_metrics().counter(f"service_batcher_{counter}_total").inc(by)

    def _next(self, timeout: float) -> _Pending | None:
        try:
            return self._queue.get(timeout=timeout)
        except queue.Empty:
            return None

    def _dispatch_loop(self) -> None:
        while True:
            with self._take_lock:
                batch = self._take()
            if batch is None:
                return
            self._execute(batch)

    def _take(self) -> list[_Pending] | None:
        """The next batch, or None once closed with nothing left to run."""
        while True:
            closed = self._closed.is_set()
            if closed and not self._drain_mode:
                self._fail_queued()
                return None
            first, self._holdover = self._holdover, None
            if first is None:
                # once closed, no admission can follow an empty poll
                first = self._next(timeout=0.0 if closed else 0.05)
            if first is not None:
                break
            if closed:
                return None

        batch = [first]
        deadline = time.monotonic() + self.max_latency
        cutoff = "size"
        while len(batch) < self.max_batch_size:
            # what is already queued, then whatever arrives by the deadline
            item = self._next(timeout=max(0.0, deadline - time.monotonic()))
            if item is None:
                cutoff = "latency"
                break
            if item.key != first.key:
                # incompatible request: it opens the next batch
                self._holdover = item
                cutoff = "key"
                break
            batch.append(item)

        self._bump(f"{cutoff}_cutoffs")
        self._bump("batches")
        self._largest_batch = max(self._largest_batch, len(batch))
        get_metrics().histogram(
            "service_batch_size", buckets=(1, 2, 4, 8, 16, 32, 64)
        ).observe(len(batch))
        return batch

    def _fail_queued(self) -> None:
        """Fail-fast close: reject the holdover and every queued request."""
        leftovers = [] if self._holdover is None else [self._holdover]
        self._holdover = None
        while (item := self._next(timeout=0.0)) is not None:
            leftovers.append(item)
        for item in leftovers:
            item.future.set_exception(BatcherClosed("batcher closed before dispatch"))
        if leftovers:
            self._bump("failed", len(leftovers))

    def _execute(self, batch: list[_Pending]) -> None:
        try:
            results = self.runner(batch[0].key, [item.payload for item in batch])
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
