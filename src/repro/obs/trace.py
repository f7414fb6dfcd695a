"""Span tracing with cross-process contexts.

A :class:`Tracer` collects :class:`SpanRecord` objects — named
intervals with a ``trace_id`` shared by everything one request caused,
a ``span_id`` of their own, and a ``parent_id`` linking them into a
tree.  Spans nest through a :mod:`contextvars` variable on the opening
thread; crossing a *thread* or *process* boundary is explicit: capture
:func:`current` where the work is submitted, pass the (picklable,
frozen) :class:`TraceContext` along, and open the remote span with
``parent=ctx``.  Worker processes ship their finished spans home as
plain dicts beside each task's value; :meth:`Tracer.absorb` folds
them into the parent's buffer, already parented under the dispatching
span because the worker opened its root from the shipped context.

Tracing is opt-in and ambient: :func:`install` makes a tracer the
process default, and the module-level :func:`span` helper no-ops (one
attribute read, no allocation beyond the shared handle) when none is
installed — the serving hot path stays within the overhead budget with
tracing off.

Determinism note: span ids come from :func:`os.urandom`, never the
global :mod:`random` module — opening a span must not perturb campaign
RNG streams, or tracing would break replay digests.
"""

from __future__ import annotations

import contextvars
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


def new_id() -> str:
    """A fresh 64-bit hex id (RNG-stream-neutral: urandom, not random)."""
    return os.urandom(8).hex()


@dataclass(frozen=True)
class TraceContext:
    """The picklable coordinates of one span: pass me across boundaries."""

    trace_id: str
    span_id: str

    def to_json(self) -> dict:
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_json(cls, data: dict) -> "TraceContext":
        return cls(trace_id=data["trace_id"], span_id=data["span_id"])


@dataclass
class SpanRecord:
    """One named interval in a trace tree.

    ``start``/``end`` are wall-clock (:func:`time.time`) on purpose:
    spans from different processes must line up on one timeline, which
    per-process ``perf_counter`` epochs cannot do.
    """

    trace_id: str
    span_id: str
    parent_id: str | None
    name: str
    start: float
    end: float = 0.0
    pid: int = 0
    tid: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def context(self) -> TraceContext:
        return TraceContext(trace_id=self.trace_id, span_id=self.span_id)

    def to_json(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "pid": self.pid,
            "tid": self.tid,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_json(cls, data: dict) -> "SpanRecord":
        return cls(
            trace_id=data["trace_id"],
            span_id=data["span_id"],
            parent_id=data.get("parent_id"),
            name=data["name"],
            start=float(data["start"]),
            end=float(data["end"]),
            pid=int(data.get("pid", 0)),
            tid=int(data.get("tid", 0)),
            attrs=dict(data.get("attrs") or {}),
        )


#: the current span on this thread (set by ``Tracer.span``); holds the
#: live SpanRecord so :func:`annotate` can attach attributes to it
_current_span: contextvars.ContextVar[SpanRecord | TraceContext | None] = (
    contextvars.ContextVar("repro_obs_current_span", default=None)
)


class Tracer:
    """Thread-safe span collector."""

    def __init__(self):
        self._lock = threading.Lock()
        self._spans: list[SpanRecord] = []

    # -- recording ------------------------------------------------------

    def start_span(
        self, name: str, parent: TraceContext | None = None, **attrs
    ) -> SpanRecord:
        """Open (but do not enter) a span; pair with :meth:`finish`."""
        parent_ctx = parent if parent is not None else current()
        if parent_ctx is not None:
            trace_id, parent_id = parent_ctx.trace_id, parent_ctx.span_id
        else:
            trace_id, parent_id = new_id(), None
        return SpanRecord(
            trace_id=trace_id,
            span_id=new_id(),
            parent_id=parent_id,
            name=name,
            start=time.time(),
            pid=os.getpid(),
            tid=threading.get_ident(),
            attrs=dict(attrs),
        )

    def finish(self, record: SpanRecord) -> None:
        record.end = time.time()
        with self._lock:
            self._spans.append(record)

    @contextmanager
    def span(self, name: str, parent: TraceContext | None = None, **attrs):
        """Open a span for a ``with`` block; nests via the contextvar."""
        record = self.start_span(name, parent=parent, **attrs)
        token = _current_span.set(record)
        try:
            yield record
        finally:
            _current_span.reset(token)
            self.finish(record)

    # -- cross-process --------------------------------------------------

    def absorb(self, spans) -> int:
        """Fold spans shipped from another process (dicts or records)."""
        records = [
            s if isinstance(s, SpanRecord) else SpanRecord.from_json(s)
            for s in spans
        ]
        with self._lock:
            self._spans.extend(records)
        return len(records)

    # -- reading --------------------------------------------------------

    @property
    def spans(self) -> list[SpanRecord]:
        with self._lock:
            return list(self._spans)

    def drain(self) -> list[SpanRecord]:
        """Pop every collected span (the worker's per-batch report)."""
        with self._lock:
            spans, self._spans = self._spans, []
        return spans

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


# ----------------------------------------------------------------------
# the ambient (process-default) tracer
# ----------------------------------------------------------------------

_active: Tracer | None = None


def install(tracer: Tracer | None) -> None:
    """Make ``tracer`` the process-ambient tracer (None uninstalls)."""
    global _active
    _active = tracer


def uninstall() -> None:
    install(None)


def active() -> Tracer | None:
    return _active


@contextmanager
def installed(tracer: Tracer):
    """Install ``tracer`` for a block, restoring the previous one after."""
    previous = _active
    install(tracer)
    try:
        yield tracer
    finally:
        install(previous)


class _NoopSpan:
    """Shared do-nothing handle returned when no tracer is installed."""

    __slots__ = ()
    context = None

    @property
    def attrs(self) -> dict:
        return {}

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


_NOOP = _NoopSpan()


def span(name: str, parent: TraceContext | None = None, **attrs):
    """Open a span on the ambient tracer; a shared no-op without one."""
    tracer = _active
    if tracer is None:
        return _NOOP
    return tracer.span(name, parent=parent, **attrs)


def current() -> TraceContext | None:
    """This thread's current span context (to hand across boundaries)."""
    holder = _current_span.get()
    if holder is None:
        return None
    if isinstance(holder, TraceContext):
        return holder
    return holder.context


def annotate(**attrs) -> None:
    """Attach attributes to the current span, if one is open."""
    holder = _current_span.get()
    if isinstance(holder, SpanRecord):
        holder.attrs.update(attrs)
