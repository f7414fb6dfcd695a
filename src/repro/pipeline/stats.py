"""Pipeline statistics: how a run counts its stages, and a read-only
view over those counts.

Both chains count the same way: the validation pipeline's per-file
chain (:mod:`repro.pipeline.engine`) and the fuzz campaign's
per-candidate chain (:mod:`repro.fuzz.stages`) open a run with
:func:`counted_run` and count each stage call through
:class:`StageCounters`.

Wall-clock timings measure the Python substrate; *simulated* time
additionally charges the LLM stage with the 33B service-rate cost model
so the early-exit ablation shows the effect the paper argues for
(skipping the judge for already-failed files).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import NamedTuple

from repro.obs import trace
from repro.obs.metrics import MetricsRegistry, get_metrics, series

# the series a counted run records, all labelled ``stage`` except the
# run-level files and wall; outcomes also carry ``outcome`` (passed /
# failed / skipped), and the seconds histogram's sum is busy time
STAGE_OUTCOMES = "pipeline_stage_outcomes_total"
STAGE_SECONDS = "pipeline_stage_seconds"
STAGE_SIMULATED = "pipeline_stage_simulated_seconds_total"
FILES = "pipeline_files_total"
WALL = "pipeline_wall_seconds_total"


@contextmanager
def counted_run(files: int, stages: str):
    """A run's metrics registry, for a ``with`` block that also opens its
    ``scheduler.run`` span: the run's files and wall time count into it,
    and it reaches the process registry once, whole, when the block
    ends."""
    registry = MetricsRegistry()
    registry.counter(FILES).inc(files)
    started = time.perf_counter()
    try:
        with trace.span("scheduler.run", stages=stages, items=files):
            yield registry
    finally:
        registry.counter(WALL).inc(time.perf_counter() - started)
        get_metrics().merge(registry)


class StageCounters:
    """One stage's instruments in a run's registry, fetched once."""

    def __init__(self, registry: MetricsRegistry, stage: str):
        self.stage = stage
        self.items = registry.counter("pipeline_stage_items_total", stage=stage)
        self.errors = registry.counter("pipeline_stage_errors_total", stage=stage)
        self.seconds = registry.histogram(STAGE_SECONDS, stage=stage)
        self.passed = registry.counter(STAGE_OUTCOMES, stage=stage, outcome="passed")
        self.failed = registry.counter(STAGE_OUTCOMES, stage=stage, outcome="failed")
        self.skipped = registry.counter(STAGE_OUTCOMES, stage=stage, outcome="skipped")
        self.simulated = registry.counter(STAGE_SIMULATED, stage=stage)

    def done(self, busy: float, ok: bool | None, simulated: float) -> None:
        """Count one call that returned after ``busy`` seconds; ``ok=None``
        records no pass/fail and no simulated time."""
        self.seconds.observe(busy)
        self.items.inc()
        if ok is not None:
            (self.passed if ok else self.failed).inc()
            self.simulated.inc(simulated)

    def error(self, busy: float) -> None:
        """Count one call that raised after ``busy`` seconds."""
        self.seconds.observe(busy)
        self.failed.inc()
        self.errors.inc()


class StageCounts(NamedTuple):
    """One stage's counters."""

    name: str
    passed: int = 0
    failed: int = 0
    skipped: int = 0
    busy_seconds: float = 0.0
    simulated_seconds: float = 0.0

    @property
    def processed(self) -> int:
        return self.passed + self.failed


class PipelineStats:
    """Whole-run statistics read from a metrics state or delta.

    The validation chain's stages are reported even when they counted
    nothing; other stages found in ``state`` follow them.  The view is
    plain data, so it pickles across process boundaries as is.
    """

    def __init__(self, state: dict | None = None):
        state = state or {}
        fields: dict[str, dict] = {name: {} for name in ("compile", "execute", "judge")}
        for labels, value in series(state, STAGE_OUTCOMES):
            fields.setdefault(labels["stage"], {})[labels["outcome"]] = int(value)
        for labels, value in series(state, STAGE_SECONDS):
            fields.setdefault(labels["stage"], {})["busy_seconds"] = value["sum"]
        for labels, value in series(state, STAGE_SIMULATED):
            fields.setdefault(labels["stage"], {})["simulated_seconds"] = value
        self._stages = {name: StageCounts(name, **f) for name, f in fields.items()}
        self.files_total = int(sum(value for _, value in series(state, FILES)))
        self.wall_seconds = sum(value for _, value in series(state, WALL))

    def __getitem__(self, name: str) -> StageCounts:
        """One stage's counts (all zero for a stage that counted nothing)."""
        return self._stages.get(name) or StageCounts(name)

    compile = property(lambda self: self["compile"])
    execute = property(lambda self: self["execute"])
    judge = property(lambda self: self["judge"])

    @property
    def throughput(self) -> float:
        """Files per wall-clock second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.files_total / self.wall_seconds

    @property
    def simulated_seconds(self) -> float:
        """Total simulated stage time (the GPU-bound judge dominates)."""
        return sum(stage.simulated_seconds for stage in self._stages.values())

    @property
    def judge_invocations_saved(self) -> int:
        """Files the early-exit policy kept away from the LLM."""
        return self.judge.skipped

    def snapshot(self) -> dict[str, object]:
        """Every counter plus the derived figures, as JSON-able data."""
        stages = {
            stage.name: {
                "processed": stage.processed,
                "passed": stage.passed,
                "failed": stage.failed,
                "skipped": stage.skipped,
                "busy_seconds": round(stage.busy_seconds, 4),
                "simulated_seconds": round(stage.simulated_seconds, 4),
            }
            for stage in self._stages.values()
        }
        simulated = sum(snap["simulated_seconds"] for snap in stages.values())
        return {
            "files_total": self.files_total,
            "wall_seconds": round(self.wall_seconds, 4),
            "throughput_files_per_second": round(self.throughput, 3),
            "simulated_seconds": round(simulated, 2),
            "judge_invocations_saved": self.judge_invocations_saved,
            "stages": stages,
        }

    summary = snapshot
