"""Caching wrappers around the LLM judges.

Each wrapper exposes the same call surface as the judge it wraps
(``judge``) so the experiment runner, the fuzz triage stage and the
daemon's judge endpoint can use either interchangeably.  The wrapped
computation only runs on a cache miss; because every judge is a pure
function of its content-addressed inputs (seeded model, tool
observables), a hit is observationally identical to a recompute.
Compile and execute lookups live in the validation pipeline's chain
(:mod:`repro.pipeline.engine`).
"""

from __future__ import annotations

from repro.cache.keys import judge_key
from repro.cache.store import ResultCache
from repro.corpus.generator import TestFile
from repro.judge.agent import ToolReport
from repro.judge.llmj import AgentLLMJ, DirectLLMJ, JudgeResult


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


def agent_judge_key(judge: AgentLLMJ, test: TestFile, report: ToolReport) -> str:
    """The judge-cache key of one agent judgment: everything its prompt
    is built from (source, tool observables) plus the judge/model
    fingerprint."""
    return judge_key(judge.fingerprint(), test.name, test.source, _report_parts(report))


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
        key = agent_judge_key(self.inner, test, report)
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
