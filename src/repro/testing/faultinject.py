"""Fault injection: die (or stall) at named points inside real code paths.

Durability claims are cheap; this module makes them testable.  Production
code calls :func:`fault_point` at the moments that matter for crash
recovery — after a round's checkpoint lands, *between* a tmp-file write
and its atomic rename, mid-drain — and by default those calls are free
no-ops.  A test (or a CI job) arms them through the environment:

    REPRO_FAULT_POINTS="campaign:post-round@2=kill" llm4vv fuzz run ...

kills the process with SIGKILL — no handlers, no cleanup, the closest
thing to a power cut — the second time the campaign finishes a round.
Recovery is then proved by ``--resume`` producing a digest-identical
manifest.

Spec grammar (comma-separated list in ``REPRO_FAULT_POINTS``)::

    point                 trigger on the 1st hit, action "kill"
    point@N               trigger on the Nth hit
    point=action          action: kill | exit:<code> | sleep:<seconds> | raise
    point@N=action        both

Actions:

``kill``
    ``os.kill(os.getpid(), SIGKILL)`` after flushing a stderr marker.
``exit:<code>``
    ``os._exit(code)`` — dies without running atexit hooks or finally
    blocks, but with a chosen exit code.
``sleep:<seconds>``
    stall at the point (every hit once armed).  Used to widen timing
    windows deterministically — e.g. slowing campaign rounds so a test
    can land SIGTERM while a job is provably mid-run.
``raise``
    raise :class:`FaultError` — an in-process fault for unit tests that
    want to observe the aftermath (torn-write checks) without dying.

Tests may also arm points programmatically with :func:`install`
(including a callable action) and reset with :func:`clear`.

A compute pool worker reads the spec when it starts and counts hits
from then on.  The process's shared pool outlives a run, so its hits
count across the runs of one process; setting a new spec reopens it
(:func:`~repro.pipeline.pool.shared`).

Instrumented points in this repo (grep ``fault_point(`` for the list):

- ``campaign:post-seed`` / ``campaign:post-round`` — right after the
  fuzzing campaign's checkpoint write for the seed phase / a round.
- ``atomic-write:<tag>`` — inside :mod:`repro.core.atomicio`, between
  writing the pid-unique tmp file and the atomic rename.  Tags include
  ``checkpoint``, ``job-journal``, ``experiment-cell``, ``cache``.
- ``experiment:post-cell`` — after an experiment cell's result pickle
  has been renamed into the run directory.
- ``drain:mid`` — in the daemon's SIGTERM path, after jobs have
  checkpointed but before the batcher drains and the cache flushes.
- ``service:worker-compute`` — in the daemon's compute pool worker,
  before it validates a micro-batch.  Hit counts are per worker
  process.
- ``worker:pre-result`` — in the daemon's compute pool worker, after a
  batch has executed but before its result goes back to the parent.
  ``kill`` here is the canonical "worker died mid-batch" scenario: the
  service must reopen its pool, resubmit the batch once, and still
  return byte-identical verdicts.
- ``fuzz:worker-compute`` — in a fuzz campaign's compute pool worker,
  before it runs a candidate's differential → triage chain.  ``kill`` here is "fuzz
  worker killed mid-candidate": the campaign must stop with
  :class:`~repro.pipeline.pool.ComputeWorkerCrash`, leave no pool
  child alive, and resume from its checkpoint to the same digest.
  Hit counts are per worker process.
- ``pipeline:worker-compute`` — in a pooled validation run's compute
  pool worker, before it compiles and executes a file.  ``kill`` here
  is "pipeline worker killed mid-file": ``validate`` must raise
  :class:`~repro.pipeline.pool.ComputeWorkerCrash` naming a file whose
  outcome was lost (``llm4vv validate`` exits 3), and leave no pool
  child alive.  Hit counts are per worker process.
- ``corpus:worker-compute`` — in a pooled corpus generation's compute
  pool worker, before it compiles and runs a rendered file.  ``kill``
  here is "generator worker killed mid-file": ``generate`` must raise
  :class:`~repro.pipeline.pool.ComputeWorkerCrash` naming the file
  (``llm4vv generate`` exits 3), and leave no pool child alive.  Hit
  counts are per worker process.
- ``experiment:worker-compute`` — in a sharded experiment run's
  compute pool worker, before it computes a cell.  ``kill`` here is
  "shard worker killed mid-cell": ``run_cells`` must raise
  :class:`~repro.pipeline.pool.ComputeWorkerCrash` naming the cell
  (``llm4vv experiment --jobs N`` exits 3), and leave no pool child
  alive.  Hit counts are per worker process.

Stdlib-only on purpose: everything else in the package may import this
module without creating a cycle.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Union

ENV_VAR = "REPRO_FAULT_POINTS"

Action = Union[str, Callable[[str], None]]


class FaultError(RuntimeError):
    """Raised by the ``raise`` action; carries the point name."""


@dataclass
class _Armed:
    name: str
    remaining: int
    action: Action


_lock = threading.Lock()
#: None means "environment not parsed yet"; parsing is lazy so that
#: merely importing the package never reads the environment.
_points: dict[str, _Armed] | None = None


def _parse_spec(raw: str) -> dict[str, _Armed]:
    points: dict[str, _Armed] = {}
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, _, action = chunk.partition("=")
        name, _, at = name.strip().partition("@")
        try:
            hits = int(at) if at else 1
        except ValueError:
            raise ValueError(f"bad fault spec {chunk!r}: hit count must be an integer") from None
        if hits < 1:
            raise ValueError(f"bad fault spec {chunk!r}: hit count must be >= 1")
        points[name] = _Armed(name=name, remaining=hits, action=action.strip() or "kill")
    return points


def _ensure_loaded() -> dict[str, _Armed]:
    global _points
    if _points is None:
        with _lock:
            if _points is None:
                _points = _parse_spec(os.environ.get(ENV_VAR, ""))
    return _points


def install(point: str, action: Action = "kill", hits: int = 1) -> None:
    """Arm *point* programmatically (tests). Overrides any env spec."""
    if hits < 1:
        raise ValueError("hits must be >= 1")
    points = _ensure_loaded()
    with _lock:
        points[point] = _Armed(name=point, remaining=hits, action=action)


def clear() -> None:
    """Disarm everything (tests). The environment is *not* re-read."""
    global _points
    with _lock:
        _points = {}


def reset() -> None:
    """Forget the parsed state so the *environment* is re-read lazily.

    Forked children inherit the parent's already-parsed (and possibly
    test-cleared) ``_points`` dict, which would shadow whatever
    ``REPRO_FAULT_POINTS`` says and make worker-side faults silently
    start-method-dependent.  Worker entrypoints call this first so a
    spec like ``worker:pre-result@2=kill`` arms identically under fork
    and spawn — with fresh per-process hit counters either way.
    """
    global _points
    with _lock:
        _points = None


def fault_point(name: str) -> None:
    """Trigger *name* if armed; a cheap no-op otherwise."""
    points = _ensure_loaded()
    armed = points.get(name)
    if armed is None:
        return
    with _lock:
        armed.remaining -= 1
        if armed.remaining > 0:
            return
        action = armed.action
        # sleep keeps firing on every later hit (it widens windows);
        # one-shot actions disarm so the aftermath can be observed.
        if not (isinstance(action, str) and action.startswith("sleep:")):
            points.pop(name, None)
    _trigger(name, action)


def _trigger(name: str, action: Action) -> None:
    if callable(action):
        action(name)
        return
    if action == "kill":
        sys.stderr.write(f"faultinject: SIGKILL at {name}\n")
        sys.stderr.flush()
        os.kill(os.getpid(), signal.SIGKILL)
        return  # pragma: no cover - unreachable
    if action == "raise":
        raise FaultError(name)
    kind, _, arg = action.partition(":")
    if kind == "exit":
        sys.stderr.write(f"faultinject: exit({arg}) at {name}\n")
        sys.stderr.flush()
        os._exit(int(arg))
    if kind == "sleep":
        time.sleep(float(arg))
        return
    raise ValueError(f"unknown fault action {action!r} for point {name!r}")
