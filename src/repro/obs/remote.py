"""Telemetry across a process boundary: the worker's side and the parent's.

A pool worker (a validation worker of the daemon, a compute worker of
a pooled validation run or fuzz campaign) runs each unit of work
through :meth:`WorkerTelemetry.run`.  With the dispatching span's
:class:`~repro.obs.trace.TraceContext` it records into a fresh tracer
whose root span opens from that context, so every span it ships is
already parented under the dispatcher.  It also ships the metrics
registry's growth since its last report.  The parent folds both in
with :func:`absorb` — the one way spans and counts from another process
enter this one.
"""

from __future__ import annotations

import os
from typing import Callable

from repro.obs import trace
from repro.obs.metrics import get_metrics


class WorkerTelemetry:
    """One worker process's span and metrics shipping.

    Build it once per worker, after the fork: the metrics baseline
    starts at the registry's *current* state because under fork the
    registry inherits the parent's counts, which must not ship back.
    A tracer inherited from the parent is dropped for the same reason;
    a worker records only into the per-call tracers :meth:`run` opens.
    """

    def __init__(self):
        trace.uninstall()
        self._baseline = get_metrics().export_state()

    def run(self, trace_ctx, span_name: str, work: Callable, **attrs):
        """``(work(), spans, metrics_delta)``.

        ``spans`` is None without ``trace_ctx`` (tracing off at the
        dispatcher), else the finished span dicts under a root span
        ``span_name`` opened from ``trace_ctx``.
        """
        spans = None
        if trace_ctx is None:
            result = work()
        else:
            tracer = trace.Tracer()
            trace.install(tracer)
            try:
                with tracer.span(
                    span_name, parent=trace_ctx, worker_pid=os.getpid(), **attrs
                ):
                    result = work()
            finally:
                trace.uninstall()
            spans = [s.to_json() for s in tracer.drain()]
        return result, spans, self.metrics_delta()

    def metrics_delta(self) -> dict | None:
        """The registry's growth since the last report (None when idle)."""
        delta, self._baseline = get_metrics().diff(self._baseline)
        return delta or None


def absorb(spans, metrics_delta, registry=None) -> None:
    """Fold what a worker shipped into this process: spans into the
    ambient tracer (dropped with tracing off), counts into ``registry``
    (the process registry by default)."""
    tracer = trace.active()
    if tracer is not None and spans:
        tracer.absorb(spans)
    (get_metrics() if registry is None else registry).apply(metrics_delta)
