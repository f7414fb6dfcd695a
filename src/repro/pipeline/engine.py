"""The validation pipeline: one call per file.

Each file runs one chain (paper §III-C, Figure 2):

.. code-block:: text

    file -> compile -> execute -> judge -> record

Early-exit mode ends the chain at the first failing stage with an
``invalid`` verdict; record-all mode carries failing files on to the
judge, so the Part Two experiments can score judge-only and pipeline
verdicts from one pass.  :meth:`ValidationPipeline.validate_file` is
the chain; it counts each stage into the ``pipeline_stage_*`` series
and opens a ``stage.<name>`` span for it.  Every cache lookup goes
through one ``lookup(namespace, key, compute)`` callable, so the same
chain runs against a :class:`~repro.cache.bundle.PipelineCache`,
against no cache, and inside a pool worker.

:meth:`ValidationPipeline.run` calls the chain in a loop on the calling
thread, or, with ``processes >= 2``, sends each file's chain to a
:class:`~repro.pipeline.pool.ComputePool` as one task.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from repro.cache.keys import compile_key, execute_key
from repro.cache.wrappers import agent_judge_key
from repro.compiler.driver import Compiler, CompileResult
from repro.corpus.generator import TestFile
from repro.judge.agent import ToolReport
from repro.judge.llmj import AgentLLMJ, JudgeResult
from repro.llm.model import DeepSeekCoderSim
from repro.obs import trace
from repro.obs.metrics import MetricsRegistry, get_metrics
from repro.pipeline.pool import ComputePool, ComputeSpec, run_task
from repro.pipeline.stats import PipelineStats, StageCounters, counted_run
from repro.runtime.executor import ExecutionResult, Executor

#: the fewest files to compute that open a pool (``ValidationPipeline.run``):
#: below it, starting the workers costs more than they win.  On 2 cores
#: a ``validate`` CLI process breaks even at 20-24 files (its pool also
#: pays the imports and first-use costs a warm process has behind it)
#: and a warm library process at 8.
MIN_POOLED_FILES = 24

#: the chain's stages, in order
STAGES = ("compile", "execute", "judge")

#: ``lookup(namespace, key, compute)``: the value cached under ``key`` in
#: ``namespace`` (``'compile'``, ``'execute'``, ``'judge'``), else
#: ``compute()``'s
Lookup = Callable[[str, str, Callable[[], Any]], Any]


def uncached(namespace: str, key: str, compute: Callable[[], Any]) -> Any:
    """The lookup of a run without a cache."""
    return compute()


def cached(cache) -> Lookup:
    """Lookups in ``cache`` (a PipelineCache), each counted as a hit or
    a miss; a miss stores what it computed."""

    def lookup(namespace: str, key: str, compute: Callable[[], Any]) -> Any:
        return getattr(cache, namespace).get_or_compute(key, compute)

    return lookup


def compile_file(compiler: Compiler, test: TestFile, lookup: Lookup) -> CompileResult:
    """Compile ``test`` through ``lookup``.

    The compile cache stores results without their AST, so a hit has no
    unit; a miss returns the fresh result, unit and all.
    """
    fresh = None

    def compute() -> CompileResult:
        nonlocal fresh
        fresh = compiler.compile(test.source, test.name)
        return replace(fresh, unit=None, info=None)

    key = compile_key(compiler.fingerprint(), test.name, test.source)
    stored = lookup("compile", key, compute)
    return stored if fresh is None else fresh


def execute_file(
    compiler: Compiler, executor: Executor, test: TestFile, compiled: CompileResult,
    lookup: Lookup,
) -> ExecutionResult:
    """Run the compiled ``test`` through ``lookup``.

    The execute key is the compile's content key plus the step limit.
    The execution backend is not part of it: the walk and closure
    backends are observationally identical (asserted corpus-wide by
    ``tests/test_backend_equivalence.py``), so results computed under
    either warm-start the other.  A result built outside a
    :class:`Compiler` has no content key and runs uncached.  On an
    execute-cache miss, a compile served from the cache (which kept no
    unit) is compiled from source first.
    """

    def compute() -> ExecutionResult:
        if compiled.unit is None:
            return executor.run(compiler.compile(test.source, test.name))
        return executor.run(compiled)

    if not compiled.content_key:
        return compute()
    return lookup("execute", execute_key(compiled.content_key, executor.step_limit), compute)



@dataclass(frozen=True)
class PipelineConfig:
    """What the chain computes with."""

    flavor: str = "acc"
    judge_kind: str = "direct"  # 'direct' (LLMJ 1) | 'indirect' (LLMJ 2)
    early_exit: bool = True
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
    """Run files through compile → execute → judge, one chain per file.

    ``environment`` optionally post-processes compile results (see
    :class:`repro.experiments.environment.EnvironmentModel`); ``cache``
    optionally fronts the compile, execute and judge work with the
    content-addressed :class:`~repro.cache.bundle.PipelineCache`.
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
        self.compiler = Compiler(
            model=config.flavor, openmp_max_version=config.openmp_max_version
        )
        self.executor = Executor(
            step_limit=config.step_limit, backend=config.execution_backend
        )
        self.judge = AgentLLMJ(
            self.model, config.flavor, kind=config.judge_kind,
            execution_backend=config.execution_backend,
        )

    # ------------------------------------------------------------------

    def run(
        self, files: list[TestFile], processes: int = 1, lookup: Lookup | None = None
    ) -> PipelineResult:
        """Validate ``files``; records come back in their order.

        ``processes=1`` calls :meth:`validate_file` in a loop on this
        thread: the spec a pooled run's verdicts and counts match.
        With ``processes >= 2`` and at least :data:`MIN_POOLED_FILES`
        files to compute, each such file's chain runs as one task in a
        :class:`~repro.pipeline.pool.ComputePool` of up to that many
        processes, opened and closed on this thread (see
        :meth:`_run_pooled`).  A dead worker raises
        :class:`~repro.pipeline.pool.ComputeWorkerCrash`.  Either way,
        every judgment the run computes counts into ``model.stats``.
        ``lookup`` replaces the lookup in :attr:`cache` (a pool task
        passes its :func:`recording`).
        """
        if processes > 1 and self.environment is not None:
            raise ValueError("a pooled run cannot apply an environment model")
        with counted_run(len(files), ",".join(STAGES)) as registry:
            lookup, counters = lookup or self._lookup(), stage_counters(registry)
            records = None
            if processes > 1:
                records = self._run_pooled(files, processes, lookup, registry, counters)
            if records is None:
                records = [self.validate_file(test, lookup, counters) for test in files]
        return PipelineResult(records=records, stats=PipelineStats(registry.export_state()))

    def validate_file(
        self, test: TestFile, lookup: Lookup, counters: dict[str, StageCounters]
    ) -> PipelineRecord:
        """One file's chain: compile, then execute, then judge.

        * a failed compile ends the chain in early-exit mode (execute
          and judge count a skip) and goes straight to the judge in
          record-all mode;
        * a failed run ends it in early-exit mode (the judge counts a
          skip).
        """
        compiled = count_stage(counters["compile"], test, lambda: self._compile(test, lookup))
        executed = None
        if compiled.ok:
            executed = count_stage(
                counters["execute"], test, lambda: self._execute(test, compiled, lookup)
            )
        record = _record(test, compiled, executed)
        if self._ends_early(compiled, executed):
            for stage in ("execute", "judge") if executed is None else ("judge",):
                counters[stage].skipped.inc()
            return record
        report = record.tool_report()
        record.judge_result = count_stage(
            counters["judge"], test,
            lambda: lookup(
                "judge", agent_judge_key(self.judge, test, report),
                lambda: self.judge.judge(test, report),
            ),
        )
        return record

    # ------------------------------------------------------------------

    def _lookup(self) -> Lookup:
        return uncached if self.cache is None else cached(self.cache)

    def _ends_early(self, compiled: CompileResult, executed: ExecutionResult | None) -> bool:
        """Whether the chain ends before the judge: a stage failed, in
        early-exit mode."""
        return self.config.early_exit and not (compiled.ok and executed.ok)

    def _compile(self, test: TestFile, lookup: Lookup) -> CompileResult:
        compiled = compile_file(self.compiler, test, lookup)
        if self.environment is not None:
            compiled = self.environment.apply(test, compiled)
        return compiled

    def _execute(self, test: TestFile, compiled: CompileResult, lookup: Lookup) -> ExecutionResult:
        trace.annotate(backend=self.config.execution_backend)
        return execute_file(self.compiler, self.executor, test, compiled, lookup)

    # ------------------------------------------------------------------

    def _run_pooled(
        self, files: list[TestFile], processes: int, lookup: Lookup,
        registry: MetricsRegistry, counters: dict[str, StageCounters],
    ) -> list[PipelineRecord] | None:
        """A pooled run's records, or None when it should stay in-process.

        1. Find the entries the cache holds for each file's chain
           (:meth:`held_entries`).  A file runs here when they are the
           whole chain, or hold its execution without its compile (a
           cache dir saved before compiles persisted, or one whose
           compile file was purged, does that; the file compiles here,
           ~2 ms, and its later lookups likely hit), or when its twin
           (same compile key) went to the pool first.
        2. Send every other file's chain to the pool as one task, its
           entries in front, longest source first.  The worker rebuilds
           the judge from the model's seed and context size, so only a
           plain :class:`DeepSeekCoderSim` pools.
        3. In file order, :func:`replay` each task's lookups against the
           cache and fold in its spans and stage counts.
        """
        if type(self.model) is not DeepSeekCoderSim:
            return None
        seeds: dict[int, dict] = {}
        pooled_keys = set()
        for i, test in enumerate(files):
            key = compile_key(self.compiler.fingerprint(), test.name, test.source)
            held, whole = self.held_entries(test)
            if not (whole or key in pooled_keys or (held and key not in held)):
                pooled_keys.add(key)
                seeds[i] = held
        if len(seeds) < MIN_POOLED_FILES:
            return None
        spec = ComputeSpec("pipeline", "file", "pipeline:worker-compute")
        model = (self.model.seed, self.model.max_context_tokens)
        records = []
        with ComputePool(min(processes, len(seeds))) as pool:
            ctx = trace.current()
            futures = {
                i: pool.submit(_validate_task, spec, self.config, model, files[i], seeds[i], ctx)
                for i in sorted(seeds, key=lambda i: len(files[i].source), reverse=True)
            }
            for i, test in enumerate(files):
                if i not in futures:
                    records.append(self.validate_file(test, lookup, counters))
                    continue
                record, lookups = pool.result(futures[i], spec, test.name, registry)
                replay(lookup, lookups, self.model)
                records.append(record)
        return records

    def held_entries(self, test: TestFile) -> tuple[dict, bool]:
        """The compile, execute and judge entries the cache holds for
        ``test``'s chain, by key (peeked, uncounted), and whether they
        are the whole chain: every lookup it makes would hit."""
        if self.cache is None:
            return {}, False
        key = compile_key(self.compiler.fingerprint(), test.name, test.source)
        ekey = execute_key(key, self.config.step_limit)
        compiled = self.cache.compile.peek(key)
        executed = self.cache.execute.peek(ekey)
        held = {k: v for k, v in ((key, compiled), (ekey, executed)) if v is not None}
        if compiled is None or (compiled.ok and executed is None):
            return held, False
        executed = executed if compiled.ok else None
        if self._ends_early(compiled, executed):
            return held, True
        report = _record(test, compiled, executed).tool_report()
        jkey = agent_judge_key(self.judge, test, report)
        judged = self.cache.judge.peek(jkey)
        if judged is None:
            return held, False
        return {**held, jkey: judged}, True


def _record(
    test: TestFile, compiled: CompileResult, executed: ExecutionResult | None
) -> PipelineRecord:
    """What the compile and execute stages learned about ``test``."""
    record = PipelineRecord(
        test=test,
        compile_rc=compiled.returncode,
        compile_stderr=compiled.stderr,
        diagnostic_codes=tuple(compiled.diagnostic_codes),
    )
    if executed is not None:
        record.run_rc = executed.returncode
        record.run_stderr = executed.stderr
        record.run_stdout = executed.stdout
    return record


def stage_counters(
    registry: MetricsRegistry, stages: tuple[str, ...] = STAGES
) -> dict[str, StageCounters]:
    """A chain's per-stage instruments in ``registry``."""
    return {name: StageCounters(registry, name) for name in stages}


def count_stage(counters: StageCounters, test: TestFile, work: Callable):
    """Run ``work()`` as ``test``'s call of the counted stage, in a
    ``stage.<name>`` span.  A judgment passes when it says valid and
    costs its simulated LLM time; any other result passes when ``ok``
    and costs its busy time."""
    t0 = time.perf_counter()
    try:
        with trace.span(f"stage.{counters.stage}", file=test.name):
            value = work()
    except Exception:
        counters.error(time.perf_counter() - t0)
        raise
    busy = time.perf_counter() - t0
    if isinstance(value, JudgeResult):
        counters.done(busy, value.says_valid, value.simulated_seconds)
    else:
        counters.done(busy, value.ok, busy)
    return value


def _validate_task(
    spec: ComputeSpec, config: PipelineConfig, model: tuple[int, int], test: TestFile,
    seeds: dict, trace_ctx,
) -> tuple:
    """A pooled run's task (module-level: spawn-safe): ``test``'s chain,
    counted into this worker's registry, with ``seeds`` (the parent's
    entries by key) served in front of the computation.

    Its value is ``(record, lookups)``: ``lookups`` is the chain's
    :func:`recording`, for the parent to :func:`replay`.
    """
    seed, max_context_tokens = model
    pipeline = ValidationPipeline(
        config, model=DeepSeekCoderSim(seed=seed, max_context_tokens=max_context_tokens)
    )
    lookup, lookups = recording(seeds, pipeline.model)

    def chain() -> tuple:
        record = pipeline.validate_file(test, lookup, stage_counters(get_metrics()))
        return record, lookups

    return run_task(spec, test.name, trace_ctx, chain)


def recording(seeds: dict, model: DeepSeekCoderSim) -> tuple[Lookup, list]:
    """A pool task's lookup, and the list it records into.

    The lookup serves ``seeds`` (the parent's entries, by key), and what
    the task already computed, in front of the computation.  It appends
    ``(namespace, key, value, llm_calls)`` for every lookup, in order,
    for the parent to :func:`replay`: ``llm_calls`` is the
    :meth:`GenerationStats.totals
    <repro.llm.model.GenerationStats.totals>` of the ``model`` calls
    the computation made, None for a served value.
    """
    served = dict(seeds)
    lookups = []

    def lookup(namespace: str, key: str, compute: Callable[[], Any]) -> Any:
        value, llm_calls = served.get(key), None
        if value is None:
            before = model.stats.totals()
            value = served[key] = compute()
            llm_calls = tuple(a - b for a, b in zip(model.stats.totals(), before))
        lookups.append((namespace, key, value, llm_calls))
        return value

    return lookup, lookups


def replay(lookup: Lookup, lookups: list, model: DeepSeekCoderSim) -> None:
    """Replay a pool task's recorded ``lookups`` against ``lookup``: the
    counted lookups an in-process run makes, storing what the task
    computed.  A computed value that ``lookup`` keeps counts its model
    calls into ``model.stats``."""
    for namespace, key, value, llm_calls in lookups:

        def keep(value=value, llm_calls=llm_calls) -> Any:
            if llm_calls is not None:
                model.stats.add(llm_calls)
            return value

        lookup(namespace, key, keep)
