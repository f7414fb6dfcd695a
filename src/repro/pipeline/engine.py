"""The staged, parallel validation pipeline.

Three declarative stages connected by the generic
:class:`~repro.pipeline.scheduler.StageScheduler`:

.. code-block:: text

    files -> [compile xN] -> [execute xN] -> [judge xN] -> records

Early-exit mode drops failing files out of the flow immediately with
an ``invalid`` verdict; record-all mode carries them through so the
Part Two experiments can score judge-only and pipeline verdicts from
one pass.  Bounded queues give back-pressure; per-stage worker counts
are independent knobs (the paper's §III-C: compile and execute pools,
an LLM stage sized to GPU availability).

The scheduler owns threading, shutdown and stats; the stages
(:mod:`repro.pipeline.stages`) own per-file policy; and an optional
:class:`~repro.cache.bundle.PipelineCache` fronts the compile and
judge workhorses with content-addressed result reuse.  Threads share
one core under the GIL, so :meth:`ValidationPipeline.run` with
``processes >= 2`` computes compile and execute in a run-scoped
:class:`~repro.pipeline.pool.ComputePool` instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.corpus.generator import TestFile
from repro.judge.agent import ToolReport
from repro.judge.llmj import JudgeResult
from repro.llm.model import DeepSeekCoderSim
from repro.pipeline.pool import ComputePool, ComputeWorkerCrash
from repro.pipeline.scheduler import StageScheduler
from repro.pipeline.stages import CompileStage, ExecuteStage, JudgeStage, Prefetch
from repro.pipeline.stats import PipelineStats

#: the fewest files to compute that open a pool (``ValidationPipeline.run``):
#: below it, starting the workers costs more than the threads lose.  On
#: 2 cores a ``validate`` CLI process breaks even at 20-24 files (its
#: pool also pays the imports and first-use costs a warm process has
#: behind it) and a warm library process at 8.
MIN_POOLED_FILES = 24


@dataclass(frozen=True)
class PipelineConfig:
    """Pipeline tuning knobs."""

    flavor: str = "acc"
    judge_kind: str = "direct"  # 'direct' (LLMJ 1) | 'indirect' (LLMJ 2)
    early_exit: bool = True
    compile_workers: int = 2
    execute_workers: int = 2
    judge_workers: int = 1
    queue_capacity: int = 64
    openmp_max_version: float = 4.5
    step_limit: int = 3_000_000
    model_seed: int = 20240822
    #: interpreter evaluator: any name in
    #: :data:`repro.runtime.interpreter.EXECUTION_BACKENDS`
    execution_backend: str = "closure"

    def __post_init__(self) -> None:
        if self.flavor not in ("acc", "omp"):
            raise ValueError(f"flavor must be 'acc' or 'omp', got {self.flavor!r}")
        if self.judge_kind not in ("direct", "indirect"):
            raise ValueError(f"judge_kind must be 'direct' or 'indirect', got {self.judge_kind!r}")
        from repro.runtime.interpreter import EXECUTION_BACKENDS

        if self.execution_backend not in EXECUTION_BACKENDS:
            raise ValueError(
                f"execution_backend must be one of {EXECUTION_BACKENDS},"
                f" got {self.execution_backend!r}"
            )
        for knob in ("compile_workers", "execute_workers", "judge_workers"):
            if getattr(self, knob) < 1:
                raise ValueError(f"{knob} must be >= 1")


@dataclass
class PipelineRecord:
    """Everything the pipeline learned about one file."""

    test: TestFile
    compile_rc: int = -1
    compile_stderr: str = ""
    diagnostic_codes: tuple[str, ...] = ()
    run_rc: int | None = None
    run_stderr: str | None = None
    run_stdout: str | None = None
    judge_result: JudgeResult | None = None
    judge_skipped: bool = False

    @property
    def compiled(self) -> bool:
        return self.compile_rc == 0

    @property
    def ran_clean(self) -> bool:
        return self.run_rc == 0

    @property
    def pipeline_says_valid(self) -> bool:
        """The pipeline verdict: every stage must pass."""
        if not self.compiled or self.run_rc not in (0,):
            return False
        if self.judge_result is None:
            return False
        return self.judge_result.says_valid

    @property
    def judge_says_valid(self) -> bool | None:
        """The judge-only verdict (None if the judge never ran)."""
        if self.judge_result is None:
            return None
        return self.judge_result.says_valid

    def tool_report(self) -> ToolReport:
        return ToolReport(
            compile_rc=self.compile_rc,
            compile_stderr=self.compile_stderr,
            compile_stdout="",
            run_rc=self.run_rc,
            run_stderr=self.run_stderr,
            run_stdout=self.run_stdout,
            diagnostic_codes=self.diagnostic_codes,
        )


@dataclass
class PipelineResult:
    records: list[PipelineRecord] = field(default_factory=list)
    stats: PipelineStats = field(default_factory=PipelineStats)
    _index: dict[str, PipelineRecord] | None = field(
        default=None, repr=False, compare=False
    )

    def record_for(self, name: str) -> PipelineRecord | None:
        """O(1) lookup by test name (index built lazily, kept fresh)."""
        if self._index is None or len(self._index) != len(self.records):
            self._index = {record.test.name: record for record in self.records}
        return self._index.get(name)


class ValidationPipeline:
    """Run files through compile → execute → judge with thread pools.

    ``environment`` optionally post-processes compile results (see
    :class:`repro.experiments.environment.EnvironmentModel`); ``cache``
    optionally fronts the compile, execute and judge workhorses with
    the content-addressed :class:`~repro.cache.bundle.PipelineCache`.
    """

    def __init__(
        self,
        config: PipelineConfig,
        model: DeepSeekCoderSim | None = None,
        environment=None,
        cache=None,
    ):
        self.config = config
        self.model = model or DeepSeekCoderSim(seed=config.model_seed)
        self.environment = environment
        self.cache = cache

    def stages(self) -> list:
        """The declarative stage chain (override point for new kinds)."""
        return [
            CompileStage(self.config, environment=self.environment, cache=self.cache),
            ExecuteStage(self.config, cache=self.cache),
            JudgeStage(self.config, self.model, cache=self.cache),
        ]

    # ------------------------------------------------------------------

    def run(self, files: list[TestFile], processes: int = 1) -> PipelineResult:
        """Validate ``files``; records come back in their order.

        With ``processes >= 2`` and at least :data:`MIN_POOLED_FILES`
        files to compute, every file the stages would compile or execute
        is computed in a :class:`~repro.pipeline.pool.ComputePool` of up
        to that many processes, all submitted before any scheduler
        thread starts (see :class:`~repro.pipeline.stages.Prefetch`); the
        pool opens on this thread and closes before this returns.  The
        caches, the judge and routing stay in this process, and files
        enter the stages as their outcomes arrive.  A dead worker raises
        :class:`~repro.pipeline.pool.ComputeWorkerCrash`.
        ``processes=1`` runs everything in-process: the spec a pooled
        run's verdicts and counts match.
        """
        if processes > 1:
            if self.environment is not None:
                raise ValueError("a pooled run cannot apply an environment model")
            prefetch = Prefetch(self.config, self.cache, files)
            if prefetch.pooled >= MIN_POOLED_FILES:
                with ComputePool(min(processes, prefetch.pooled)) as pool:
                    prefetch.submit(pool)
                    return self._run(files, prefetch)
        return self._run(files, None)

    def _run(self, files: list[TestFile], prefetch: Prefetch | None) -> PipelineResult:
        stages = self.stages()
        for stage in stages:
            if isinstance(stage, (CompileStage, ExecuteStage)):
                stage.prefetch = prefetch
        scheduler = StageScheduler(stages, queue_capacity=self.config.queue_capacity)
        run = scheduler.run(files if prefetch is None else prefetch)
        for error in run.errors:
            if isinstance(error.error, ComputeWorkerCrash):
                raise error.error
        run.raise_first("validation pipeline")

        # deterministic output order regardless of thread interleaving
        order = {test.name: i for i, test in enumerate(files)}
        records = [item.record for item in run.finished]
        records.sort(key=lambda r: order.get(r.test.name, 1 << 30))
        return PipelineResult(records=records, stats=run.stats)
