"""Caching wrappers around the stage workhorses.

Each wrapper exposes the same call surface as the object it wraps
(``compile`` / ``run`` / ``judge``) so stages, the corpus generator and
the experiment runner can use either interchangeably.  The wrapped
computation only runs on a cache miss; because every workhorse here is
a pure function of its content-addressed inputs (seeded model, seeded
environment, deterministic interpreter), a hit is observationally
identical to a recompute.
"""

from __future__ import annotations

from repro.cache.keys import compile_key, execute_key, judge_key
from repro.cache.store import ResultCache
from repro.compiler.driver import Compiler, CompileResult
from repro.corpus.generator import TestFile
from repro.judge.agent import ToolReport
from repro.judge.llmj import AgentLLMJ, DirectLLMJ, JudgeResult
from repro.runtime.executor import ExecutionResult, Executor


class CachingCompiler:
    """Content-addressed cache in front of :class:`Compiler`.

    Values carry live AST objects (the execute stage consumes
    ``CompileResult.unit``), so this namespace is memory-only.

    The closure execution backend memoizes its lowered program on the
    unit object itself (``repro.runtime.compilebody.lower_unit``), so a
    compile-cache hit also carries the lowered closures: repeated
    executions of one unit — worker scaling, ablations, Part-Two
    re-judging — skip both parsing *and* lowering.

    A pool worker keeps its AST (``repro.pipeline.pool``), so a
    successful compile it computed is stored without its unit.  Such a
    hit comes back as stored only with ``unitless_hits=True``, for a
    caller that compiles again when it must run the unit (the
    pipeline's execute stage, on an execute-cache miss); any other
    caller gets it compiled again, unit and all, and the entry replaced.
    """

    def __init__(self, inner: Compiler, cache: ResultCache, unitless_hits: bool = False):
        self.inner = inner
        self.cache = cache
        self.unitless_hits = unitless_hits

    @property
    def model(self) -> str:
        return self.inner.model

    def compile(self, source: str, filename: str = "<input>") -> CompileResult:
        key = compile_key(self.inner.fingerprint(), filename, source)
        result = self.cache.get(key)
        if result is None or (
            result.ok and result.unit is None and not self.unitless_hits
        ):
            result = self.inner.compile(source, filename)
            self.cache.put(key, result)
        return result


class CachingExecutor:
    """Content-addressed cache in front of :class:`Executor`.

    Keyed on the compile result's content key (which pins toolchain,
    filename and source) plus the step limit; results are plain data,
    so this namespace persists to disk.  Results without a content key
    (hand-built in tests) execute uncached.

    The execution *backend* is deliberately NOT part of the key: the
    walk and closure backends are observationally identical (asserted
    corpus-wide by ``tests/test_backend_equivalence.py``), so results
    computed under either warm-start the other.
    """

    def __init__(self, inner: Executor, cache: ResultCache):
        self.inner = inner
        self.cache = cache

    def run(self, compiled: CompileResult) -> ExecutionResult:
        if not compiled.content_key:
            return self.inner.run(compiled)
        key = execute_key(compiled.content_key, self.inner.step_limit)
        return self.cache.get_or_compute(key, lambda: self.inner.run(compiled))


def _report_parts(report: ToolReport) -> list:
    return [
        report.compile_rc,
        report.compile_stderr,
        report.compile_stdout,
        report.run_rc,
        report.run_stderr,
        report.run_stdout,
        list(report.diagnostic_codes),
    ]


class CachingAgentJudge:
    """Content-addressed cache in front of :class:`AgentLLMJ`.

    The key covers everything the prompt is built from (source, tool
    observables) plus the judge/model fingerprint, so a hit skips
    prompt construction and generation entirely.
    """

    def __init__(self, inner: AgentLLMJ, cache: ResultCache):
        self.inner = inner
        self.cache = cache

    @property
    def mode(self) -> str:
        return self.inner.mode

    def judge(self, test: TestFile, report: ToolReport | None = None) -> JudgeResult:
        if report is None:
            report = self.inner.tools.collect(test)
        key = judge_key(
            self.inner.fingerprint(), test.name, test.source, _report_parts(report)
        )
        return self.cache.get_or_compute(key, lambda: self.inner.judge(test, report))


class CachingDirectJudge:
    """Content-addressed cache in front of :class:`DirectLLMJ`."""

    def __init__(self, inner: DirectLLMJ, cache: ResultCache):
        self.inner = inner
        self.cache = cache

    @property
    def mode(self) -> str:
        return self.inner.mode

    def judge(self, test: TestFile) -> JudgeResult:
        key = judge_key(self.inner.fingerprint(), test.name, test.source, None)
        return self.cache.get_or_compute(key, lambda: self.inner.judge(test))
