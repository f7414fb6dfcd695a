"""High-level validation API over the pipeline + judge stack.

Typical use::

    from repro import TestsuiteValidator

    validator = TestsuiteValidator(flavor="acc")
    report = validator.validate_sources({"vecadd.c": source_text})
    for judged in report.files:
        print(judged.name, judged.verdict, judged.reason)

The validator runs the paper's full method: compile, execute, then an
agent-based LLM judgment over the survivors (early-exit), and returns
structured verdicts with the evidence trail for each file.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.driver import testfile_language
from repro.corpus.generator import TestFile
from repro.llm.model import DeepSeekCoderSim
from repro.pipeline.engine import Lookup, PipelineConfig, PipelineRecord, ValidationPipeline
from repro.pipeline.stats import PipelineStats


@dataclass(frozen=True)
class JudgedFile:
    """The validator's verdict on one candidate test."""

    name: str
    verdict: str  # 'valid' | 'invalid'
    stage: str  # 'compile' | 'execute' | 'judge'
    reason: str
    compile_rc: int
    run_rc: int | None
    judge_response: str | None = None

    @property
    def is_valid(self) -> bool:
        return self.verdict == "valid"


@dataclass
class ValidationReport:
    """All verdicts for one validation run plus pipeline statistics."""

    files: list[JudgedFile] = field(default_factory=list)
    stats: PipelineStats | None = None

    @property
    def valid_files(self) -> list[JudgedFile]:
        return [f for f in self.files if f.is_valid]

    @property
    def invalid_files(self) -> list[JudgedFile]:
        return [f for f in self.files if not f.is_valid]

    def verdict_for(self, name: str) -> JudgedFile | None:
        for judged in self.files:
            if judged.name == name:
                return judged
        return None

    def summary(self) -> dict[str, object]:
        return {
            "total": len(self.files),
            "valid": len(self.valid_files),
            "invalid": len(self.invalid_files),
            "by_stage": {
                stage: sum(1 for f in self.invalid_files if f.stage == stage)
                for stage in ("compile", "execute", "judge")
            },
        }


class TestsuiteValidator:
    """Validate candidate compiler tests with the paper's full method.

    (``__test__ = False``: not a pytest collectable despite the name.)

    Parameters
    ----------
    flavor:
        ``'acc'`` or ``'omp'`` — which programming model's toolchain
        and judge to use.
    judge_kind:
        ``'direct'`` (LLMJ 1 prompting) or ``'indirect'`` (LLMJ 2).
    early_exit:
        Skip the (expensive) judge for files that already failed
        compile or execute.  On by default, as in §III-C.
    workers:
        With 2 or more, each :meth:`validate` call runs its files'
        chains in the process's shared pool of up to that many workers,
        forked by the first pooled call and reused by later ones (see
        :meth:`ValidationPipeline.run
        <repro.pipeline.engine.ValidationPipeline.run>`); ``1`` runs
        everything in-process, the spec pooled verdicts match.  Callers
        that already parallelise across processes, such as the daemon,
        pass 1.
    judge_workers:
        Accepted for compatibility; it has no effect.
    model:
        The judge's model (default: a simulator seeded with
        ``model_seed``).  A pooled run rebuilds a plain
        :class:`DeepSeekCoderSim` in each worker from its seed and
        context size, and counts the workers' calls into
        ``model.stats``; any other model keeps the run in-process.
    cache:
        Optional :class:`repro.cache.bundle.PipelineCache`; repeated
        validations of unchanged sources reuse compile/run/judge work.
    """

    __test__ = False

    def __init__(
        self,
        flavor: str = "acc",
        judge_kind: str = "direct",
        early_exit: bool = True,
        workers: int = 2,
        judge_workers: int = 1,
        model_seed: int = 20240822,
        openmp_max_version: float = 4.5,
        model: DeepSeekCoderSim | None = None,
        cache=None,
        execution_backend: str = "closure",
    ):
        self.config = PipelineConfig(
            flavor=flavor,
            judge_kind=judge_kind,
            early_exit=early_exit,
            execution_backend=execution_backend,
            model_seed=model_seed,
            openmp_max_version=openmp_max_version,
        )
        self.pipeline = ValidationPipeline(self.config, model=model, cache=cache)
        self.processes = workers

    # ------------------------------------------------------------------

    def validate(
        self, tests: list[TestFile], lookup: Lookup | None = None
    ) -> ValidationReport:
        """Validate prepared :class:`TestFile` objects (``lookup``: see
        :meth:`ValidationPipeline.run
        <repro.pipeline.engine.ValidationPipeline.run>`)."""
        result = self.pipeline.run(tests, processes=self.processes, lookup=lookup)
        report = ValidationReport(stats=result.stats)
        for record in result.records:
            report.files.append(self._to_judged(record))
        return report

    def validate_sources(self, sources: dict[str, str]) -> ValidationReport:
        """Validate a mapping of filename → source text."""
        return self.validate(self.files_for(sources))

    def files_for(self, sources: dict[str, str]) -> list[TestFile]:
        """The :class:`TestFile` for each filename → source text."""
        return [
            TestFile(
                name=name,
                language=testfile_language(name),
                model=self.config.flavor,
                source=source,
                template="user",
            )
            for name, source in sources.items()
        ]

    # ------------------------------------------------------------------

    def _to_judged(self, record: PipelineRecord) -> JudgedFile:
        if not record.compiled:
            first = record.compile_stderr.splitlines()
            return JudgedFile(
                name=record.test.name,
                verdict="invalid",
                stage="compile",
                reason=first[0] if first else "compilation failed",
                compile_rc=record.compile_rc,
                run_rc=record.run_rc,
            )
        if record.run_rc not in (0, None) or (record.run_rc is None and record.judge_result is None):
            return JudgedFile(
                name=record.test.name,
                verdict="invalid",
                stage="execute",
                reason=f"program exited with return code {record.run_rc}",
                compile_rc=record.compile_rc,
                run_rc=record.run_rc,
            )
        judged = record.judge_result
        if judged is None:
            # early-exit pipelines only reach here for failed stages
            return JudgedFile(
                name=record.test.name,
                verdict="invalid",
                stage="execute",
                reason="did not reach the judge stage",
                compile_rc=record.compile_rc,
                run_rc=record.run_rc,
            )
        verdict = "valid" if judged.says_valid else "invalid"
        reason = (
            "the judge deemed the test valid"
            if judged.says_valid
            else _extract_reason(judged.response)
        )
        return JudgedFile(
            name=record.test.name,
            verdict=verdict,
            stage="judge",
            reason=reason,
            compile_rc=record.compile_rc,
            run_rc=record.run_rc,
            judge_response=judged.response,
        )


def _extract_reason(response: str) -> str:
    import re

    match = re.search(r"because (.+?)(?:\.|$)", response)
    if match:
        return match.group(1)
    return "the judge deemed the test invalid"
