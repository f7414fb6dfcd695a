"""The process metrics registry: counters, gauges, fixed-bucket histograms.

The repo's one counting store: stage outcomes, cache lookups and
fuzz-campaign totals are counted here only, and JSON views such as
:class:`~repro.pipeline.stats.PipelineStats` and ``/v1/stats`` read
registry state.  An instrument is a name plus a frozen label set.

Counts cross a process boundary one way: the sender ships
:meth:`MetricsRegistry.diff` (growth since an
:meth:`MetricsRegistry.export_state` baseline) and the receiver folds
it in with :meth:`MetricsRegistry.apply` — pool workers once per batch,
experiment shards once per cell.  Gauges are process-local by design
(a worker's queue depth means nothing to the parent) and stay out of
diffs.

Exposition is Prometheus text format 0.0.4
(:meth:`MetricsRegistry.render_prometheus`), served by the daemon's
``GET /v1/metrics``.

Metrics are always on — instrument updates are a lock'd add — and
strictly inert: nothing here touches digests, cache keys, checkpoints,
or RNG streams.
"""

from __future__ import annotations

import bisect
import threading

#: latency-shaped default buckets (seconds), ~exponential 1ms..10s
DEFAULT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def _label_key(labels: dict) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonic float counter."""

    kind = "counter"

    def __init__(self, name: str, labels: tuple):
        self.name = name
        self.labels = labels
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, by: float = 1.0) -> None:
        if by < 0:
            raise ValueError(f"counter {self.name} cannot decrease (by={by})")
        with self._lock:
            self.value += by

    def state(self) -> float:
        with self._lock:
            return self.value

    def add_state(self, state: float) -> None:
        with self._lock:
            self.value += state


class Gauge:
    """Last-write-wins instantaneous value (process-local; no diffs)."""

    kind = "gauge"

    def __init__(self, name: str, labels: tuple):
        self.name = name
        self.labels = labels
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def state(self) -> float:
        with self._lock:
            return self.value


class Histogram:
    """Fixed-upper-bound buckets plus +Inf, with sum and count."""

    kind = "histogram"

    def __init__(self, name: str, labels: tuple, buckets=DEFAULT_BUCKETS):
        self.name = name
        self.labels = labels
        self.bounds = tuple(sorted(float(b) for b in buckets))
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket bound")
        # one slot per bound plus the +Inf overflow slot
        self.counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self.counts[index] += 1
            self.sum += value
            self.count += 1

    def state(self) -> dict:
        with self._lock:
            return {
                "bounds": self.bounds,
                "counts": list(self.counts),
                "sum": self.sum,
                "count": self.count,
            }

    def add_state(self, state: dict) -> None:
        counts = state["counts"]
        if len(counts) != len(self.counts):
            raise ValueError(
                f"histogram {self.name}: bucket shape mismatch "
                f"({len(counts)} vs {len(self.counts)})"
            )
        with self._lock:
            for i, n in enumerate(counts):
                self.counts[i] += n
            self.sum += state["sum"]
            self.count += state["count"]


class MetricsRegistry:
    """All of one process's instruments, keyed by (kind, name, labels)."""

    def __init__(self):
        self._lock = threading.Lock()
        self._instruments: dict[tuple, object] = {}

    # -- instrument access ---------------------------------------------

    def _get(self, cls, name: str, labels: dict, **kwargs):
        key = (cls.kind, name, _label_key(labels))
        with self._lock:
            return self._get_locked(cls, key, **kwargs)

    def _get_locked(self, cls, key: tuple, **kwargs):
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = cls(key[1], key[2], **kwargs)
            self._instruments[key] = instrument
        return instrument

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, buckets=None, **labels) -> Histogram:
        if buckets is None:
            return self._get(Histogram, name, labels)
        return self._get(Histogram, name, labels, buckets=buckets)

    # -- cross-process merge --------------------------------------------

    def export_state(self) -> dict:
        """Picklable snapshot of every diffable instrument's state, taken
        under the lock :meth:`apply` holds (never half of a delta)."""
        with self._lock:
            return {
                key: instrument.state()
                for key, instrument in self._instruments.items()
                if instrument.kind != "gauge"
            }

    def diff(self, baseline: dict) -> tuple[dict, dict]:
        """Growth since ``baseline`` plus the new baseline to keep.

        Counter growth ships as a float; histogram growth as the state
        dict with per-bucket count deltas.  Instruments that did not
        move are omitted, so an idle worker ships an empty delta.
        """
        state = self.export_state()
        delta = {}
        for key, now in state.items():
            before = baseline.get(key)
            kind = key[0]
            if kind == "counter":
                grown = now - (before or 0.0)
                if grown:
                    delta[key] = grown
            else:  # histogram
                if before is None:
                    if now["count"]:
                        delta[key] = now
                    continue
                counts = [
                    n - b for n, b in zip(now["counts"], before["counts"])
                ]
                if any(counts):
                    delta[key] = {
                        "bounds": now["bounds"],
                        "counts": counts,
                        "sum": now["sum"] - before["sum"],
                        "count": now["count"] - before["count"],
                    }
        return delta, state

    def apply(self, delta: dict) -> None:
        """Fold a :meth:`diff` payload in, whole, under the registry lock:
        the only way counts from another process or run enter."""
        if not delta:
            return
        with self._lock:
            for key, state in delta.items():
                if key[0] == "counter":
                    self._get_locked(Counter, key).add_state(state)
                elif key[0] == "histogram":
                    self._get_locked(
                        Histogram, key, buckets=state["bounds"]
                    ).add_state(state)
                # gauges never ship

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry's growth (its moved instruments) in."""
        self.apply(other.diff({})[0])

    # -- exposition -----------------------------------------------------

    def render_prometheus(self) -> str:
        """Text exposition format 0.0.4 (the ``/v1/metrics`` body)."""
        with self._lock:
            instruments = sorted(
                self._instruments.values(), key=lambda i: (i.name, i.labels)
            )
        lines: list[str] = []
        typed: set[str] = set()
        for instrument in instruments:
            name = _sanitize(instrument.name)
            if name not in typed:
                lines.append(f"# TYPE {name} {instrument.kind}")
                typed.add(name)
            labels = dict(instrument.labels)
            if instrument.kind == "histogram":
                state = instrument.state()
                cumulative = 0
                for bound, n in zip(state["bounds"], state["counts"]):
                    cumulative += n
                    lines.append(
                        f"{name}_bucket"
                        f"{_labels({**labels, 'le': _fmt(bound)})} {cumulative}"
                    )
                cumulative += state["counts"][-1]
                lines.append(
                    f"{name}_bucket{_labels({**labels, 'le': '+Inf'})} "
                    f"{cumulative}"
                )
                lines.append(f"{name}_sum{_labels(labels)} {_fmt(state['sum'])}")
                lines.append(f"{name}_count{_labels(labels)} {state['count']}")
            else:
                lines.append(
                    f"{name}{_labels(labels)} {_fmt(instrument.state())}"
                )
        return "\n".join(lines) + ("\n" if lines else "")


def series(state: dict, name: str) -> list[tuple[dict, object]]:
    """``(labels, state)`` for every instrument called ``name`` in an
    :meth:`~MetricsRegistry.export_state` or :meth:`~MetricsRegistry.diff`
    payload (a float for a counter, a dict for a histogram)."""
    return [
        (dict(labels), value)
        for (_, instrument, labels), value in state.items()
        if instrument == name
    ]


def _sanitize(name: str) -> str:
    return "".join(c if c.isalnum() or c in "_:" else "_" for c in name)


def _labels(labels: dict) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{_sanitize(str(k))}="{_escape(str(v))}"'
        for k, v in sorted(labels.items())
    )
    return "{" + body + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _fmt(value: float) -> str:
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


# ----------------------------------------------------------------------
# the process-global registry
# ----------------------------------------------------------------------

_global = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-wide registry every layer instruments into."""
    return _global


def reset_metrics() -> None:
    """Drop every instrument (tests only; not thread-safe vs updates)."""
    with _global._lock:
        _global._instruments.clear()
