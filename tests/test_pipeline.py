"""Unit tests for the staged validation pipeline."""

import pytest

from repro.corpus.generator import TestFile
from repro.llm.model import DeepSeekCoderSim
from repro.pipeline.engine import PipelineConfig, ValidationPipeline
from repro.obs.metrics import MetricsRegistry
from repro.pipeline import stats as stats_mod
from repro.pipeline.stats import PipelineStats


def make_tests(valid_acc_source: str, n: int = 6) -> list[TestFile]:
    tests = []
    for i in range(n):
        source = valid_acc_source.replace("3.0", f"{i + 2}.0")
        tests.append(TestFile(f"t{i}.c", "c", "acc", source, "x"))
    return tests


class TestConfig:
    def test_defaults_valid(self):
        config = PipelineConfig()
        assert config.flavor == "acc"
        assert config.early_exit

    def test_bad_flavor(self):
        with pytest.raises(ValueError):
            PipelineConfig(flavor="cuda")

    def test_bad_judge_kind(self):
        with pytest.raises(ValueError):
            PipelineConfig(judge_kind="other")

    def test_worker_minimum(self):
        with pytest.raises(ValueError):
            PipelineConfig(compile_workers=0)


class TestPipelineRun:
    def test_all_valid_files_pass(self, valid_acc_source, model):
        tests = make_tests(valid_acc_source)
        pipeline = ValidationPipeline(PipelineConfig(), model=model)
        result = pipeline.run(tests)
        assert len(result.records) == len(tests)
        assert all(r.compiled and r.ran_clean for r in result.records)

    def test_output_order_matches_input(self, valid_acc_source, model):
        tests = make_tests(valid_acc_source, 8)
        pipeline = ValidationPipeline(
            PipelineConfig(compile_workers=4, execute_workers=4, judge_workers=2),
            model=model,
        )
        result = pipeline.run(tests)
        assert [r.test.name for r in result.records] == [t.name for t in tests]

    def test_early_exit_skips_judge(self, valid_acc_source, model):
        broken = valid_acc_source.replace("{", "", 1)
        tests = [
            TestFile("good.c", "c", "acc", valid_acc_source, "x"),
            TestFile("bad.c", "c", "acc", broken, "x"),
        ]
        pipeline = ValidationPipeline(PipelineConfig(early_exit=True), model=model)
        result = pipeline.run(tests)
        bad = result.record_for("bad.c")
        assert not bad.compiled
        assert bad.judge_result is None
        assert not bad.pipeline_says_valid
        assert result.stats.judge.skipped == 1

    def test_record_all_judges_everything(self, valid_acc_source, model):
        broken = valid_acc_source.replace("{", "", 1)
        tests = [
            TestFile("good.c", "c", "acc", valid_acc_source, "x"),
            TestFile("bad.c", "c", "acc", broken, "x"),
        ]
        pipeline = ValidationPipeline(PipelineConfig(early_exit=False), model=model)
        result = pipeline.run(tests)
        assert all(r.judge_result is not None for r in result.records)

    def test_runtime_failure_blocks_pipeline_verdict(self, model):
        source = """#include <stdio.h>
#include <stdlib.h>
#include <openacc.h>
int main() {
    double *p;
    p[0] = 1.0;
    return 0;
}
"""
        tests = [TestFile("segv.c", "c", "acc", source, "x")]
        pipeline = ValidationPipeline(PipelineConfig(early_exit=True), model=model)
        record = pipeline.run(tests).records[0]
        assert record.compiled
        assert record.run_rc == 139
        assert not record.pipeline_says_valid

    def test_deterministic_across_worker_counts(self, valid_acc_source):
        """Parallelism must not change verdicts (prompt-seeded model)."""
        tests = make_tests(valid_acc_source, 6)
        verdicts = []
        for workers in (1, 4):
            pipeline = ValidationPipeline(
                PipelineConfig(
                    compile_workers=workers, execute_workers=workers, judge_workers=workers
                ),
                model=DeepSeekCoderSim(seed=31),
            )
            result = pipeline.run(tests)
            verdicts.append([r.pipeline_says_valid for r in result.records])
        assert verdicts[0] == verdicts[1]

    def test_stats_populated(self, valid_acc_source, model):
        tests = make_tests(valid_acc_source, 4)
        result = ValidationPipeline(PipelineConfig(), model=model).run(tests)
        stats = result.stats
        assert stats.files_total == 4
        assert stats.compile.processed == 4
        assert stats.throughput > 0
        assert stats.judge.simulated_seconds > 0

    def test_each_run_reports_only_its_own_counts(self, valid_acc_source, model):
        """A run's stats view its own registry, not the process one that
        every earlier run has already been applied to."""
        pipeline = ValidationPipeline(PipelineConfig(), model=model)
        pipeline.run(make_tests(valid_acc_source, 3))
        second = pipeline.run(make_tests(valid_acc_source, 2)).stats
        assert second.files_total == 2
        assert second.compile.processed == 2

    def test_empty_input(self, model):
        result = ValidationPipeline(PipelineConfig(), model=model).run([])
        assert result.records == []
        assert result.stats.files_total == 0

    def test_tool_report_roundtrip(self, valid_acc_source, model):
        tests = make_tests(valid_acc_source, 1)
        record = ValidationPipeline(PipelineConfig(), model=model).run(tests).records[0]
        report = record.tool_report()
        assert report.compile_rc == 0
        assert report.run_rc == 0


def run_registry(files=0, wall=0.0, **stages) -> MetricsRegistry:
    """A registry holding the counters one scheduler run records.

    ``stages`` maps a stage name to ``(passed, failed, skipped, busy,
    simulated)``.
    """
    registry = MetricsRegistry()
    registry.counter(stats_mod.FILES).inc(files)
    registry.counter(stats_mod.WALL).inc(wall)
    for stage, (passed, failed, skipped, busy, simulated) in stages.items():
        for outcome, n in (("passed", passed), ("failed", failed), ("skipped", skipped)):
            registry.counter(stats_mod.STAGE_OUTCOMES, stage=stage, outcome=outcome).inc(n)
        registry.histogram(stats_mod.STAGE_SECONDS, stage=stage).observe(busy)
        registry.counter(stats_mod.STAGE_SIMULATED, stage=stage).inc(simulated)
    return registry


class TestStats:
    def test_view_reads_stage_counters(self):
        registry = run_registry(compile=(1, 1, 1, 0.3, 0.3))
        snap = PipelineStats(registry.export_state()).snapshot()["stages"]["compile"]
        assert snap["processed"] == 2
        assert snap["passed"] == 1
        assert snap["failed"] == 1
        assert snap["skipped"] == 1

    def test_pipeline_summary_shape(self):
        stats = PipelineStats(run_registry(files=10, wall=2.0).export_state())
        summary = stats.summary()
        assert summary["files_total"] == 10
        assert set(summary["stages"]) == {"compile", "execute", "judge"}

    def test_throughput_zero_when_no_time(self):
        assert PipelineStats().throughput == 0.0

    def test_walls_sum_across_runs(self):
        """Runs applied one after another sum their walls, so throughput
        covers the whole period, not the slowest run."""
        process = MetricsRegistry()
        process.merge(run_registry(files=8, wall=2.0))
        process.merge(run_registry(files=8, wall=3.0))
        stats = PipelineStats(process.export_state())
        assert stats.wall_seconds == 5.0
        assert stats.snapshot()["throughput_files_per_second"] == round(16 / 5.0, 3)

    def test_unlisted_stages_join_the_view(self):
        stats = PipelineStats(run_registry(lint=(1, 0, 0, 0.2, 0.2)).export_state())
        assert list(stats.snapshot()["stages"]) == [
            "compile", "execute", "judge", "lint",
        ]
        assert stats["lint"].processed == 1
        assert stats["never"].processed == 0

    def test_snapshot_derives_figures_from_the_view(self):
        registry = run_registry(files=4, wall=2.0, judge=(1, 0, 1, 0.5, 3.0))
        stats = PipelineStats(registry.export_state())
        snap = stats.snapshot()
        assert snap == stats.summary()  # summary is the snapshot
        assert snap["judge_invocations_saved"] == 1
        assert snap["throughput_files_per_second"] == 2.0
        assert snap["simulated_seconds"] == 3.0
        # later growth in the registry does not reach an existing view
        registry.merge(run_registry(judge=(0, 1, 0, 0.1, 1.0)))
        assert stats.snapshot()["stages"]["judge"]["processed"] == 1

    def test_view_never_sees_half_an_applied_run(self):
        """Each run lands whole: a reader sees all of a run's counters
        or none of them."""
        import threading

        process = MetricsRegistry()
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                process.merge(run_registry(files=1, judge=(1, 0, 0, 0.001, 1.0)))

        writers = [threading.Thread(target=hammer) for _ in range(3)]
        for writer in writers:
            writer.start()
        try:
            for _ in range(200):
                snap = PipelineStats(process.export_state()).snapshot()
                judge = snap["stages"]["judge"]
                assert judge["passed"] == snap["files_total"]
                assert judge["simulated_seconds"] == judge["passed"]
        finally:
            stop.set()
            for writer in writers:
                writer.join()
