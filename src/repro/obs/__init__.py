"""Unified telemetry: cross-process tracing, metrics, exposition.

Three small modules with one discipline between them — telemetry is
*inert*: spans and metrics observe wall-clock facts but never feed a
digest, cache key, checkpoint, or RNG, so every byte-identity gate in
the repo holds with tracing on.

* :mod:`repro.obs.trace`   — trace-id/span-id contexts, an ambient
  process tracer, picklable :class:`~repro.obs.trace.TraceContext`
  for crossing into a pool worker;
* :mod:`repro.obs.metrics` — named counters/gauges/histograms in a
  process registry: the one store for stage, cache and fuzz counts,
  merged across processes only as deltas;
* :mod:`repro.obs.export`  — JSON-lines span logs, Chrome-trace
  (Perfetto) conversion, summaries, and a text Gantt view;
* :mod:`repro.obs.remote`  — a pool worker's span and metrics shipping
  and the parent's one way of folding them in.
"""

from repro.obs import export, metrics, remote, trace

__all__ = ["export", "metrics", "remote", "trace"]
