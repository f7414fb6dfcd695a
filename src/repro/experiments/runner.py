"""The experiment runner: regenerate every table and figure.

One :class:`Experiments` instance lazily builds and caches the shared
artifacts:

* Part One populations (OpenACC C/C++/Fortran, OpenMP C) and the
  tool-less direct judge's evaluations — Tables I-III, the direct
  series of Figures 5/6;
* Part Two populations (C/C++) pushed through the record-all
  validation pipeline once per flavor; LLMJ 2 verdicts are recomputed
  from the recorded tool reports, exactly like the paper's
  retroactive analysis — Tables IV-IX, Figures 3-6.

Every ``tableN()`` / ``figN()`` method returns the regenerated artifact
*and* the published values, so callers (benches, EXPERIMENTS.md) can
print paper-vs-measured side by side.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

from repro.cache.bundle import PipelineCache
from repro.cache.wrappers import CachingAgentJudge, CachingDirectJudge
from repro.corpus.generator import CorpusGenerator
from repro.corpus.suite import TestSuite
from repro.experiments import paperdata
from repro.experiments.config import (
    PART1_ACC_WEIGHTS,
    PART1_OMP_WEIGHTS,
    PART2_ACC_WEIGHTS,
    PART2_OMP_WEIGHTS,
    ExperimentConfig,
)
from repro.experiments.environment import EnvironmentModel
from repro.judge.llmj import AgentLLMJ, DirectLLMJ
from repro.llm.model import DeepSeekCoderSim
from repro.metrics.accuracy import EvaluationSet, MetricsReport
from repro.metrics.radar import RadarSeries, radar_series
from repro.metrics.tables import (
    render_comparison_table,
    render_issue_table,
    render_overall_table,
)
from repro.pipeline.engine import (
    PipelineConfig, PipelineResult, ValidationPipeline, count_stage,
)
from repro.pipeline.stats import StageCounters, counted_run
from repro.probing.prober import NegativeProber, ProbingSuite


@dataclass
class TableResult:
    """One regenerated table plus its published counterpart."""

    name: str
    title: str
    text: str
    reports: list[MetricsReport]
    paper: object = None

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.text


@dataclass
class FigureResult:
    """One regenerated figure plus its published axis values."""

    name: str
    title: str
    series: list[RadarSeries]
    text: str
    paper: dict[str, dict[str, float]] = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.text


@dataclass
class _Part2Run:
    population: ProbingSuite
    pipeline1: PipelineResult
    llmj1_report: MetricsReport
    llmj2_report: MetricsReport
    pipeline1_report: MetricsReport
    pipeline2_report: MetricsReport


class Experiments:
    """Lazily-cached reproduction of every table and figure.

    ``cache`` is the content-addressed result store shared by corpus
    generation, the validation pipeline and the judge sweeps.  Passing
    the same :class:`PipelineCache` to several instances (or persisting
    it via ``config.cache_dir``) turns repeated runs of the same
    configuration from O(corpus) into O(cache-miss).
    """

    def __init__(
        self,
        config: ExperimentConfig | None = None,
        cache: PipelineCache | None = None,
    ):
        self.config = config or ExperimentConfig()
        if cache is not None:
            self.cache: PipelineCache | None = cache
        elif self.config.cache_enabled:
            self.cache = PipelineCache(
                max_entries=self.config.cache_max_entries,
                cache_dir=self.config.cache_dir,
            )
            self.cache.load()
        else:
            self.cache = None
        self.model = DeepSeekCoderSim(seed=self.config.model_seed)
        self._part1_reports: dict[str, MetricsReport] = {}
        self._part1_populations: dict[str, ProbingSuite] = {}
        self._part2_runs: dict[str, _Part2Run] = {}
        #: aggregated per-shard pipeline stats from the last prefetch()
        self.shard_stats = None
        #: (cell name, wall seconds) per cell from the last prefetch()
        self.shard_cells: list[tuple[str, float]] = []

    def save_cache(self) -> None:
        """Persist the cache's codec namespaces (no-op without cache_dir)."""
        if self.cache is not None:
            self.cache.save()

    def prefetch(self, artifacts: list[str] | None = None, jobs: int | None = None):
        """Compute the underlying matrix cells across worker processes.

        Fans the (part × flavor) cells that ``artifacts`` need (``None``
        = every table and figure) over ``jobs`` processes (default
        ``config.jobs``) and installs the results, so later ``tableN()``
        / ``figN()`` calls are pure composition.  Sequential fallback
        with ``jobs=1``.  See :mod:`repro.experiments.sharding`.
        """
        from repro.experiments import sharding

        return sharding.prefill(self, artifacts=artifacts, jobs=jobs)

    # ------------------------------------------------------------------
    # population construction
    # ------------------------------------------------------------------

    def _build_population(
        self, flavor: str, count: int, languages: tuple[str, ...], weights: dict[int, float], tag: str
    ) -> ProbingSuite:
        generator = CorpusGenerator(
            seed=self.config.seed,
            openmp_max_version=self.config.openmp_max_version,
            step_limit=self.config.step_limit,
            execution_backend=self.config.execution_backend,
            cache=self.cache,
        )
        files = generator.generate(flavor, count, languages=languages)
        suite = TestSuite(f"{flavor}-{tag}", flavor, files)
        prober = NegativeProber(
            # crc32, not hash(): populations must reproduce across
            # processes regardless of PYTHONHASHSEED
            seed=self.config.seed + zlib.crc32(tag.encode()) % 1000,
            issue_weights=dict(weights),
            random_code_valid_fraction=self.config.random_code_valid_fraction,
        )
        return prober.probe(suite)

    def part1_population(self, flavor: str) -> ProbingSuite:
        if flavor not in self._part1_populations:
            if flavor == "acc":
                population = self._build_population(
                    "acc", self.config.part1_acc_count, self.config.part1_acc_languages,
                    PART1_ACC_WEIGHTS, "part1",
                )
            else:
                population = self._build_population(
                    "omp", self.config.part1_omp_count, self.config.part1_omp_languages,
                    PART1_OMP_WEIGHTS, "part1",
                )
            self._part1_populations[flavor] = population
        return self._part1_populations[flavor]

    # ------------------------------------------------------------------
    # Part One: direct LLMJ
    # ------------------------------------------------------------------

    def part1_report(self, flavor: str) -> MetricsReport:
        if flavor not in self._part1_reports:
            population = self.part1_population(flavor)
            judge = DirectLLMJ(self.model, flavor)
            if self.cache is not None:
                judge = CachingDirectJudge(judge, self.cache.judge)
            verdicts = [judge.judge(test).says_valid for test in population]
            evals = EvaluationSet.from_records(list(population), verdicts)
            self._part1_reports[flavor] = MetricsReport.from_evaluations("Direct LLMJ", evals)
            self.save_cache()  # newly computed artifacts reach cache_dir
        return self._part1_reports[flavor]

    # ------------------------------------------------------------------
    # Part Two: pipeline + agent judges
    # ------------------------------------------------------------------

    def part2_run(self, flavor: str, languages: tuple[str, ...] | None = None, tag: str = "part2") -> _Part2Run:
        key = f"{flavor}:{tag}"
        if key in self._part2_runs:
            return self._part2_runs[key]
        count = self.config.part2_count(flavor, tag)
        weights = PART2_ACC_WEIGHTS if flavor == "acc" else PART2_OMP_WEIGHTS
        population = self._build_population(
            flavor, count, languages or self.config.part2_languages, weights, tag
        )
        environment = EnvironmentModel(
            compile_flake_rate=self.config.flake_rates.get(flavor, 0.0),
            seed=self.config.seed,
        )
        pipeline = ValidationPipeline(
            PipelineConfig(
                flavor=flavor,
                judge_kind="direct",
                early_exit=False,  # record-all, per the paper's protocol
                openmp_max_version=self.config.openmp_max_version,
                step_limit=self.config.step_limit,
                model_seed=self.config.model_seed,
                execution_backend=self.config.execution_backend,
            ),
            model=self.model,
            environment=environment,
            cache=self.cache,
        )
        files = list(population)
        result = pipeline.run(files)

        # Retroactive LLMJ-2 pass over the same evidence, counted as
        # the pipeline's judge stage (the shard summary reads it)
        judge2 = AgentLLMJ(self.model, flavor, kind="indirect")
        if self.cache is not None:
            judge2 = CachingAgentJudge(judge2, self.cache.judge)
        with counted_run(len(result.records), "judge") as registry:
            counters = StageCounters(registry, "judge")
            judged2 = [
                count_stage(
                    counters, record.test,
                    lambda: judge2.judge(record.test, record.tool_report()),
                )
                for record in result.records
            ]

        llmj2_verdicts: list[bool] = []
        pipeline2_verdicts: list[bool] = []
        llmj1_verdicts: list[bool] = []
        pipeline1_verdicts: list[bool] = []
        for record, judged in zip(result.records, judged2):
            llmj2_verdicts.append(judged.says_valid)
            stage_ok = record.compiled and record.ran_clean
            pipeline2_verdicts.append(stage_ok and judged.says_valid)
            says1 = record.judge_result.says_valid if record.judge_result else False
            llmj1_verdicts.append(says1)
            pipeline1_verdicts.append(stage_ok and says1)

        ordered = [record.test for record in result.records]
        run = _Part2Run(
            population=population,
            pipeline1=result,
            llmj1_report=MetricsReport.from_evaluations(
                "LLMJ 1", EvaluationSet.from_records(ordered, llmj1_verdicts)
            ),
            llmj2_report=MetricsReport.from_evaluations(
                "LLMJ 2", EvaluationSet.from_records(ordered, llmj2_verdicts)
            ),
            pipeline1_report=MetricsReport.from_evaluations(
                "Pipeline 1", EvaluationSet.from_records(ordered, pipeline1_verdicts)
            ),
            pipeline2_report=MetricsReport.from_evaluations(
                "Pipeline 2", EvaluationSet.from_records(ordered, pipeline2_verdicts)
            ),
        )
        self._part2_runs[key] = run
        self.save_cache()  # newly computed artifacts reach cache_dir
        return run

    # ------------------------------------------------------------------
    # extension beyond the paper: Fortran Part Two (listed as future work)
    # ------------------------------------------------------------------

    def fortran_extension(self) -> TableResult:
        """Run the Part-Two protocol on an OpenACC *Fortran* corpus.

        The paper's conclusion names Fortran incorporation as future
        work; the substrate here supports it, so we run the identical
        record-all pipeline over a Fortran-only population.
        """
        run = self.part2_run("acc", languages=("f90",), tag="fortran-ext")
        text = render_comparison_table(
            run.pipeline1_report, run.llmj1_report,
            "Extension: Fortran Part Two (Pipeline 1 vs LLMJ 1, OpenACC)",
        )
        return TableResult(
            name="fortran_extension",
            title="Extension: Fortran Part Two (OpenACC)",
            text=text,
            reports=[run.pipeline1_report, run.pipeline2_report,
                     run.llmj1_report, run.llmj2_report],
            paper=None,
        )

    # ------------------------------------------------------------------
    # tables
    # ------------------------------------------------------------------

    def table1(self) -> TableResult:
        report = self.part1_report("acc")
        return TableResult(
            name="table1",
            title="Table I: LLMJ Negative Probing Results for OpenACC",
            text=render_issue_table(report, "Table I: LLMJ Negative Probing Results for OpenACC"),
            reports=[report],
            paper=paperdata.TABLE_I,
        )

    def table2(self) -> TableResult:
        report = self.part1_report("omp")
        return TableResult(
            name="table2",
            title="Table II: LLMJ Negative Probing Results for OpenMP",
            text=render_issue_table(report, "Table II: LLMJ Negative Probing Results for OpenMP"),
            reports=[report],
            paper=paperdata.TABLE_II,
        )

    def table3(self) -> TableResult:
        acc = self.part1_report("acc")
        omp = self.part1_report("omp")
        text = render_overall_table(
            {"OpenACC": [acc], "OpenMP": [omp]},
            "Table III: LLMJ Overall Negative Probing Results",
        )
        return TableResult("table3", "Table III: LLMJ Overall Negative Probing Results",
                           text, [acc, omp], paperdata.TABLE_III)

    def table4(self) -> TableResult:
        run = self.part2_run("acc")
        text = render_comparison_table(
            run.pipeline1_report, run.pipeline2_report,
            "Table IV: Validation Pipeline Results for OpenACC",
        )
        return TableResult("table4", "Table IV: Validation Pipeline Results for OpenACC",
                           text, [run.pipeline1_report, run.pipeline2_report], paperdata.TABLE_IV)

    def table5(self) -> TableResult:
        run = self.part2_run("omp")
        text = render_comparison_table(
            run.pipeline1_report, run.pipeline2_report,
            "Table V: Validation Pipeline Results for OpenMP",
        )
        return TableResult("table5", "Table V: Validation Pipeline Results for OpenMP",
                           text, [run.pipeline1_report, run.pipeline2_report], paperdata.TABLE_V)

    def table6(self) -> TableResult:
        acc = self.part2_run("acc")
        omp = self.part2_run("omp")
        text = render_overall_table(
            {
                "OpenACC": [acc.pipeline1_report, acc.pipeline2_report],
                "OpenMP": [omp.pipeline1_report, omp.pipeline2_report],
            },
            "Table VI: Overall Validation Pipeline Results",
        )
        return TableResult(
            "table6", "Table VI: Overall Validation Pipeline Results", text,
            [acc.pipeline1_report, acc.pipeline2_report, omp.pipeline1_report, omp.pipeline2_report],
            paperdata.TABLE_VI,
        )

    def table7(self) -> TableResult:
        run = self.part2_run("acc")
        text = render_comparison_table(
            run.llmj1_report, run.llmj2_report,
            "Table VII: Agent-Based LLMJ Results for OpenACC",
        )
        return TableResult("table7", "Table VII: Agent-Based LLMJ Results for OpenACC",
                           text, [run.llmj1_report, run.llmj2_report], paperdata.TABLE_VII)

    def table8(self) -> TableResult:
        run = self.part2_run("omp")
        text = render_comparison_table(
            run.llmj1_report, run.llmj2_report,
            "Table VIII: Agent-Based LLMJ Results for OpenMP",
        )
        return TableResult("table8", "Table VIII: Agent-Based LLMJ Results for OpenMP",
                           text, [run.llmj1_report, run.llmj2_report], paperdata.TABLE_VIII)

    def table9(self) -> TableResult:
        acc = self.part2_run("acc")
        omp = self.part2_run("omp")
        text = render_overall_table(
            {
                "OpenACC": [acc.llmj1_report, acc.llmj2_report],
                "OpenMP": [omp.llmj1_report, omp.llmj2_report],
            },
            "Table IX: Overall Agent-Based LLMJ Results",
        )
        return TableResult(
            "table9", "Table IX: Overall Agent-Based LLMJ Results", text,
            [acc.llmj1_report, acc.llmj2_report, omp.llmj1_report, omp.llmj2_report],
            paperdata.TABLE_IX,
        )

    # ------------------------------------------------------------------
    # figures
    # ------------------------------------------------------------------

    def _figure(self, name: str, title: str, reports, include_valid: bool, paper) -> FigureResult:
        from repro.metrics.radar import render_ascii_radar

        series = [radar_series(r, include_valid_axis=include_valid) for r in reports]
        text = f"{title}\n{render_ascii_radar(series)}"
        return FigureResult(name=name, title=title, series=series, text=text, paper=paper)

    def fig3(self) -> FigureResult:
        run = self.part2_run("acc")
        return self._figure(
            "fig3", "Figure 3: Radar Plot for Validation Pipeline Results for OpenACC",
            [run.pipeline1_report, run.pipeline2_report], False, paperdata.FIGURE_3,
        )

    def fig4(self) -> FigureResult:
        run = self.part2_run("omp")
        return self._figure(
            "fig4", "Figure 4: Radar Plot for Validation Pipeline Results for OpenMP",
            [run.pipeline1_report, run.pipeline2_report], False, paperdata.FIGURE_4,
        )

    def fig5(self) -> FigureResult:
        direct = self.part1_report("acc")
        run = self.part2_run("acc")
        return self._figure(
            "fig5", "Figure 5: Radar Plot for LLMJ Results for OpenACC",
            [direct, run.llmj1_report, run.llmj2_report], True, paperdata.FIGURE_5,
        )

    def fig6(self) -> FigureResult:
        direct = self.part1_report("omp")
        run = self.part2_run("omp")
        return self._figure(
            "fig6", "Figure 6: Radar Plot for LLMJ Results for OpenMP",
            [direct, run.llmj1_report, run.llmj2_report], True, paperdata.FIGURE_6,
        )

    # ------------------------------------------------------------------

    def all_tables(self) -> list[TableResult]:
        if self.config.jobs > 1:
            self.prefetch()
        return [
            self.table1(), self.table2(), self.table3(), self.table4(), self.table5(),
            self.table6(), self.table7(), self.table8(), self.table9(),
        ]

    def all_figures(self) -> list[FigureResult]:
        if self.config.jobs > 1:
            self.prefetch()
        return [self.fig3(), self.fig4(), self.fig5(), self.fig6()]
