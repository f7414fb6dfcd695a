"""Stage abstractions for the validation pipeline.

A :class:`Stage` is one worker pool's worth of behaviour: a name, a
worker count, optional per-worker state (a compiler, an executor, a
judge — anything not thread-safe to share), and a ``process`` method
that turns one item into a :class:`StageOutcome` carrying the routing
decision.  The :class:`~repro.pipeline.scheduler.StageScheduler` owns
everything else (queues, threads, shutdown, stats).

The three concrete stages reproduce the paper's §III-C pipeline —
compile → execute → judge — as declarative routing rules instead of
bespoke thread loops, and each optionally fronts its workhorse with
the content-addressed caches from :mod:`repro.cache`.  In a pooled run
(:class:`Prefetch`) the compile and execute workhorses serve outcomes a
:class:`~repro.pipeline.pool.ComputePool` computed ahead of them.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, as_completed
from dataclasses import dataclass
from typing import Any

from repro.cache.keys import compile_key, execute_key
from repro.compiler.driver import Compiler, CompileResult
from repro.corpus.generator import TestFile
from repro.judge.llmj import AgentLLMJ
from repro.llm.model import DeepSeekCoderSim
from repro.obs import trace
from repro.obs.remote import detached_context
from repro.pipeline.pool import ComputePool, ComputeSpec
from repro.runtime.executor import ExecutionResult, Executor


@dataclass(frozen=True)
class StageOutcome:
    """What one ``process`` call decided.

    ``ok=None`` means "record no pass/fail statistic" (rare; used by
    pure routing stages).  ``simulated_seconds=None`` defaults the
    simulated cost to the measured busy time — right for CPU-bound
    stages; the judge overrides it with the LLM service-time model.
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
    """One named worker pool in a scheduler chain."""

    name: str = "stage"
    workers: int = 1

    def make_worker_state(self) -> Any:
        """Build per-thread state (called once per worker thread)."""
        return None

    def process(self, payload: Any, state: Any) -> StageOutcome:
        raise NotImplementedError


# ----------------------------------------------------------------------
# the validation pipeline's three stages
# ----------------------------------------------------------------------


@dataclass
class _Pending:
    """One file the pool computes for a pooled run."""

    test: TestFile
    #: its run, found in the execute cache while planning: the worker
    #: then only compiles
    held: ExecutionResult | None
    future: Future | None = None
    outcome: tuple | None = None  # (CompileResult, {arm: ExecutionResult})


class Prefetch:
    """A pooled run's compile and execute outcomes, computed ahead of
    the stages.

    Planned on the calling thread before the scheduler starts: every
    file the stages would compile or execute goes to the pool at once,
    with the configured backend as its one arm, or with none when the
    execute cache already holds its run.  Planning peeks at the caches
    without counting; the stages then make exactly the counted lookups
    of an in-process run, and on a miss take the pooled outcome instead
    of computing it.
    """

    def __init__(self, config, cache, files: list[TestFile]):
        self.spec = ComputeSpec(
            "pipeline", "file", "pipeline:worker-compute",
            config.flavor, config.openmp_max_version, config.step_limit,
        )
        self.backend = config.execution_backend
        self._fingerprint = Compiler(
            model=config.flavor, openmp_max_version=config.openmp_max_version
        ).fingerprint()
        self._files = [(test, self._key(test.source, test.name)) for test in files]
        self._pending: dict[str, _Pending] = {}  # by compile key
        self._pool: ComputePool | None = None
        self._lock = threading.Lock()
        for test, key in self._files:
            if key in self._pending:
                continue
            compiled = held = None
            if cache is not None:
                compiled = cache.compile.peek(key)
                held = cache.execute.peek(execute_key(key, config.step_limit))
            if compiled is None or (compiled.ok and compiled.unit is None and held is None):
                # not compiled yet, or compiled by an earlier run's pool
                # (which kept the unit) and not run under this step limit
                self._pending[key] = _Pending(test, held)

    def __len__(self) -> int:
        """Files in the run (the scheduler feeds them from :meth:`__iter__`)."""
        return len(self._files)

    @property
    def pooled(self) -> int:
        """Files the pool computes."""
        return len(self._pending)

    def _key(self, source: str, name: str) -> str:
        return compile_key(self._fingerprint, name, source)

    def submit(self, pool: ComputePool) -> None:
        """Queue every pending file; call on the thread that opened ``pool``."""
        self._pool = pool
        ctx = detached_context()
        for pending in self._pending.values():
            arms = () if pending.held is not None else (self.backend,)
            pending.future = pool.submit(
                self.spec, pending.test.name, pending.test.source, arms, ctx
            )

    def __iter__(self):
        """The run's files in arrival order: those the pool does not
        compute first, then each as its outcome lands."""
        by_future: dict[Future, list[TestFile]] = {}
        for test, key in self._files:
            pending = self._pending.get(key)
            if pending is None:
                yield test
            else:
                by_future.setdefault(pending.future, []).append(test)
        for future in as_completed(by_future):
            yield from by_future[future]

    def _outcome(self, pending: _Pending) -> tuple:
        """The pooled outcome; the first read absorbs the worker's
        telemetry under the calling stage span."""
        with self._lock:
            if pending.outcome is None:
                pending.outcome = self._pool.result(
                    pending.future, self.spec, pending.test.name,
                    parent=trace.current_span(),
                )
        return pending.outcome

    def compiled(self, source: str, name: str) -> CompileResult | None:
        """The pooled compile of this file (without its unit), or None
        when the pool did not compute it."""
        pending = self._pending.get(self._key(source, name))
        return None if pending is None else self._outcome(pending)[0]

    def executed(self, compiled: CompileResult) -> ExecutionResult | None:
        """The pooled or held run of a pooled file, else None."""
        pending = self._pending.get(compiled.content_key)
        if pending is None:
            return None
        if pending.held is not None:
            return pending.held
        return self._outcome(pending)[1][self.backend]


class _PooledCompiler(Compiler):
    """Serves a pooled run's compile; compiles files the pool did not."""

    def __init__(self, prefetch: Prefetch, **kwargs):
        super().__init__(**kwargs)
        self.prefetch = prefetch

    def compile(self, source: str, filename: str = "<input>") -> CompileResult:
        pooled = self.prefetch.compiled(source, filename)
        return pooled if pooled is not None else super().compile(source, filename)


class _StageExecutor:
    """The execute stage's workhorse.

    In a pooled run it serves the run the pool computed.  Otherwise it
    runs the unit, compiling it again first when the compile came from
    a pool worker, which kept the unit: a compile-cache entry left by a
    pooled run, whose run is not cached (another step limit, say).
    """

    def __init__(self, config, prefetch: Prefetch | None):
        self.config = config
        self.prefetch = prefetch
        self.executor = Executor(
            step_limit=config.step_limit,
            backend=getattr(config, "execution_backend", "closure"),
        )

    def run(self, compiled: CompileResult, test: TestFile) -> ExecutionResult:
        if self.prefetch is not None:
            pooled = self.prefetch.executed(compiled)
            if pooled is not None:
                return pooled
        if compiled.ok and compiled.unit is None:
            compiled = Compiler(
                model=self.config.flavor,
                openmp_max_version=self.config.openmp_max_version,
            ).compile(test.source, test.name)
        return self.executor.run(compiled)


@dataclass
class PipelineItem:
    """One file's in-flight state between pipeline stages."""

    record: Any  # PipelineRecord (avoid importing engine: it imports us)
    compiled: Any = None  # CompileResult while travelling compile -> execute


class CompileStage(Stage):
    """Compile one file; route per early-exit/record-all policy.

    * success         → execute stage;
    * failure + early-exit  → finished (execute and judge record skips);
    * failure + record-all  → straight to the judge, which sees the
      failed compile through its prompt.
    """

    name = "compile"
    #: set by :meth:`ValidationPipeline.run` for a pooled run
    prefetch: Prefetch | None = None

    def __init__(self, config, environment=None, cache=None):
        self.config = config
        self.environment = environment
        self.cache = cache
        self.workers = config.compile_workers

    def make_worker_state(self):
        settings = dict(
            model=self.config.flavor,
            openmp_max_version=self.config.openmp_max_version,
        )
        compiler = (
            Compiler(**settings) if self.prefetch is None
            else _PooledCompiler(self.prefetch, **settings)
        )
        if self.cache is not None:
            from repro.cache.wrappers import CachingCompiler

            # the execute stage rebuilds a unit a pool worker kept
            return CachingCompiler(compiler, self.cache.compile, unitless_hits=True)
        return compiler

    def process(self, payload: TestFile, compiler) -> StageOutcome:
        from repro.pipeline.engine import PipelineRecord

        test = payload
        compiled = compiler.compile(test.source, test.name)
        if self.environment is not None:
            compiled = self.environment.apply(test, compiled)
        record = PipelineRecord(
            test=test,
            compile_rc=compiled.returncode,
            compile_stderr=compiled.stderr,
            diagnostic_codes=tuple(compiled.diagnostic_codes),
        )
        if compiled.ok:
            return StageOutcome(PipelineItem(record, compiled), ok=True)
        if self.config.early_exit:
            return StageOutcome(
                PipelineItem(record), ok=False, done=True,
                skip_stats=("execute", "judge"),
            )
        return StageOutcome(PipelineItem(record), ok=False, next_stage="judge")


class ExecuteStage(Stage):
    """Run one compiled unit; route per early-exit policy."""

    name = "execute"
    #: set by :meth:`ValidationPipeline.run` for a pooled run
    prefetch: Prefetch | None = None

    def __init__(self, config, cache=None):
        self.config = config
        self.cache = cache
        self.workers = config.execute_workers

    def make_worker_state(self):
        return _StageExecutor(self.config, self.prefetch)

    def process(self, payload: PipelineItem, executor) -> StageOutcome:
        record = payload.record
        trace.annotate(
            backend=getattr(self.config, "execution_backend", "closure")
        )
        compiled = payload.compiled

        def run() -> ExecutionResult:
            return executor.run(compiled, record.test)

        if self.cache is not None and compiled.content_key:
            key = execute_key(compiled.content_key, self.config.step_limit)
            executed = self.cache.execute.get_or_compute(key, run)
        else:
            executed = run()
        record.run_rc = executed.returncode
        record.run_stderr = executed.stderr
        record.run_stdout = executed.stdout
        payload.compiled = None  # the AST is no longer needed downstream
        if executed.ok or not self.config.early_exit:
            return StageOutcome(payload, ok=executed.ok)
        return StageOutcome(payload, ok=False, done=True, skip_stats=("judge",))


class JudgeStage(Stage):
    """LLM-judge one record's evidence; always terminal."""

    name = "judge"

    def __init__(self, config, model: DeepSeekCoderSim, cache=None):
        self.config = config
        self.model = model
        self.cache = cache
        self.workers = config.judge_workers

    def make_worker_state(self):
        judge = AgentLLMJ(
            self.model, self.config.flavor, kind=self.config.judge_kind,
            execution_backend=getattr(self.config, "execution_backend", "closure"),
        )
        if self.cache is not None:
            from repro.cache.wrappers import CachingAgentJudge

            return CachingAgentJudge(judge, self.cache.judge)
        return judge

    def process(self, payload: PipelineItem, judge) -> StageOutcome:
        record = payload.record
        judged = judge.judge(record.test, record.tool_report())
        record.judge_result = judged
        return StageOutcome(
            payload,
            ok=judged.says_valid,
            done=True,
            simulated_seconds=judged.simulated_seconds,
        )


@dataclass
class JudgeTask:
    """One (index, test, report) unit for a standalone judge sweep."""

    index: int
    test: TestFile
    report: Any  # ToolReport
    result: Any = None  # JudgeResult once processed


class BatchJudgeStage(Stage):
    """A standalone judge pool over prepared :class:`JudgeTask` items.

    Used by the experiment runner to batch the retroactive LLMJ-2 pass
    through the scheduler instead of a serial loop; ``kind`` and
    ``workers`` are free knobs since there is no pipeline config here.
    """

    name = "judge"

    def __init__(
        self,
        model: DeepSeekCoderSim,
        flavor: str,
        kind: str = "indirect",
        workers: int = 1,
        cache=None,
    ):
        self.model = model
        self.flavor = flavor
        self.kind = kind
        self.workers = workers
        self.cache = cache

    def make_worker_state(self):
        judge = AgentLLMJ(self.model, self.flavor, kind=self.kind)
        if self.cache is not None:
            from repro.cache.wrappers import CachingAgentJudge

            return CachingAgentJudge(judge, self.cache.judge)
        return judge

    def process(self, payload: JudgeTask, judge) -> StageOutcome:
        payload.result = judge.judge(payload.test, payload.report)
        return StageOutcome(
            payload,
            ok=payload.result.says_valid,
            done=True,
            simulated_seconds=payload.result.simulated_seconds,
        )
