"""Corpus generation: render templates into a validated test population.

:class:`CorpusGenerator` cycles the template registry with seeded
parameter jitter and (by default) *checks* every rendered file by
compiling and executing it — a generated "valid" test that does not
compile clean and exit 0 would poison the negative-probing ground
truth.  A file that fails its check is skipped and its failure recorded
(:attr:`CorpusGenerator.validation_failures`); generation raises
:class:`CorpusValidationError` only once too many candidates fail.
With ``workers >= 2`` the checks run in the process's shared
:class:`~repro.pipeline.pool.ComputePool`; the corpus is the same.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from repro.compiler.driver import Compiler
from repro.corpus.templates import TemplateContext, TemplateSpec, templates_for
from repro.runtime.executor import Executor

EXTENSIONS = {"c": ".c", "cpp": ".cpp", "f90": ".f90"}


@dataclass(frozen=True)
class TestFile:
    """One test in the corpus (and, after probing, its mutants)."""

    __test__ = False  # not a pytest test class despite the name

    name: str
    language: str  # 'c' | 'cpp' | 'f90'
    model: str  # 'acc' | 'omp'
    source: str
    template: str
    features: tuple[str, ...] = ()
    issue: int | None = None  # negative-probing issue id (0-4), None/5 = unchanged

    @property
    def filename(self) -> str:
        return self.name

    @property
    def is_valid(self) -> bool:
        """Ground truth per the paper's system-of-verification."""
        return self.issue is None or self.issue == 5

    def with_issue(self, issue: int, source: str | None = None) -> "TestFile":
        return replace(
            self,
            issue=issue,
            source=source if source is not None else self.source,
            name=_issue_name(self.name, issue),
        )


def _issue_name(name: str, issue: int) -> str:
    stem, dot, ext = name.rpartition(".")
    if not dot:
        return f"{name}__issue{issue}"
    return f"{stem}__issue{issue}.{ext}"


class CorpusValidationError(Exception):
    """A rendered template failed its own compile/run validation."""


@dataclass
class CorpusGenerator:
    """Seeded generator over the template registry.

    ``cache`` (a :class:`repro.cache.bundle.PipelineCache`) makes the
    per-file validation compile/run content-addressed: regenerating the
    same corpus — the common case across experiment instances — reuses
    every check result instead of re-interpreting each program.

    ``workers >= 2`` checks the files in the process's shared compute
    pool of up to that many processes when there is no cache and at least
    :data:`~repro.pipeline.engine.MIN_POOLED_FILES` files to check;
    ``workers=1`` checks them one by one in this process, the spec the
    pooled corpus matches.  A generator running inside a daemonic pool
    worker (which cannot fork) must pass ``workers=1``.
    """

    seed: int = 1234
    validate: bool = True
    step_limit: int = 3_000_000
    openmp_max_version: float = 4.5
    execution_backend: str = "closure"
    cache: object | None = None
    workers: int = 2
    _validation_failures: list[str] = field(default_factory=list)

    def generate(
        self,
        model: str,
        count: int,
        languages: tuple[str, ...] = ("c", "cpp"),
    ) -> list[TestFile]:
        """Render ``count`` validated test files for one model."""
        from repro.pipeline.engine import MIN_POOLED_FILES

        rng = random.Random(f"{self.seed}:{model}:{','.join(languages)}")
        templates: list[tuple[str, TemplateSpec]] = []
        for language in languages:
            for spec in templates_for(model, language):
                templates.append((language, spec))
        if not templates:
            raise ValueError(f"no templates for model={model!r} languages={languages!r}")
        rng.shuffle(templates)

        def render(attempt: int, serial: int) -> TestFile:
            language, spec = templates[attempt % len(templates)]
            source = spec.render(TemplateContext(rng=rng, model=model, language=language))
            return TestFile(
                name=f"{model}_{spec.name}_{serial:04d}{EXTENSIONS[language]}",
                language=language,
                model=model,
                source=source,
                template=spec.name,
                features=spec.features,
            )

        out: list[TestFile] = []
        attempts = 0
        if (
            self.validate and self.workers > 1 and self.cache is None
            and count >= MIN_POOLED_FILES
        ):
            # rng draws do not depend on check outcomes: render every
            # file as if all before it pass, check them in the pool, and
            # keep them up to the first failure; the loop below goes on
            # from the rng state right after that file
            candidates, states = [], []
            for i in range(count):
                candidates.append(render(i, i))
                states.append(rng.getstate())
            passed, failure = self._check_pooled(model, candidates)
            out, attempts = candidates[:passed], passed
            if failure is not None:
                self._validation_failures.append(failure)
                rng.setstate(states[passed])
                attempts += 1
        compiler = Compiler(model=model, openmp_max_version=self.openmp_max_version)
        executor = Executor(step_limit=self.step_limit, backend=self.execution_backend)
        while len(out) < count:
            attempts += 1
            if attempts > count * 4 + 32:
                raise CorpusValidationError(
                    f"too many validation failures generating {model} corpus: "
                    f"{self._validation_failures[:5]}"
                )
            test = render(attempts - 1, len(out))
            if self.validate:
                failure = self._check(test, compiler, executor)
                if failure is not None:
                    self._validation_failures.append(failure)
                    continue
            out.append(test)
        return out

    def _check(self, test: TestFile, compiler: Compiler, executor: Executor) -> str | None:
        """Compile and run ``test``, through the cache the way the
        validation pipeline's chain does (the engine imports this module,
        hence the local import); why it failed, or None."""
        from repro.pipeline.engine import cached, compile_file, execute_file, uncached

        lookup = uncached if self.cache is None else cached(self.cache)
        compiled = compile_file(compiler, test, lookup)
        executed = None
        if compiled.ok:
            executed = execute_file(compiler, executor, test, compiled, lookup)
        return _failure(test, compiled, executed)

    def _check_pooled(self, model: str, candidates: list[TestFile]) -> tuple[int, str | None]:
        """How many ``candidates`` pass their checks before the first
        failure, and that failure (None when all pass).

        Each check is one ``pool.compute`` task in the shared pool
        (:func:`~repro.pipeline.pool.shared`), submitted longest source
        first and read in order; the checks still queued after the first
        failure are cancelled.  A dead worker raises
        :class:`~repro.pipeline.pool.ComputeWorkerCrash`.
        """
        from repro.obs import trace
        from repro.pipeline import pool

        spec = pool.ComputeSpec("corpus", "file", "corpus:worker-compute")
        toolchain = (model, self.openmp_max_version, self.step_limit)
        arms = (self.execution_backend,)
        with pool.shared(min(self.workers, len(candidates))) as workers:
            ctx = trace.current()
            futures = {
                test.name: workers.submit(
                    pool.compute, spec, toolchain, test.name, test.source, arms, ctx
                )
                for test in sorted(candidates, key=lambda t: len(t.source), reverse=True)
            }
            for passed, test in enumerate(candidates):
                compiled, results = workers.result(futures[test.name], spec, test.name)
                failure = _failure(test, compiled, results.get(self.execution_backend))
                if failure is not None:
                    return passed, failure
        return len(candidates), None

    @property
    def validation_failures(self) -> list[str]:
        return list(self._validation_failures)


def _failure(test: TestFile, compiled, executed) -> str | None:
    """Why ``test`` failed its check (``executed`` is None when the
    compile failed), or None when it compiled clean and exited 0."""
    if not compiled.ok:
        first = compiled.stderr.splitlines()[0] if compiled.stderr else ""
        return f"{test.name}: compile rc={compiled.returncode}: {first}"
    if not executed.ok:
        return f"{test.name}: run rc={executed.returncode}: {executed.stderr.strip()[:80]}"
    return None
