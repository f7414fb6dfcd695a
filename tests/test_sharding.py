"""Unit and integration tests for the process-sharded experiment runner."""

import multiprocessing
import pickle
import threading
import time

import pytest

from repro.experiments import ExperimentConfig, Experiments
from repro.experiments import sharding
from repro.experiments.sharding import (
    FORTRAN_EXT,
    PART1_ACC,
    PART1_OMP,
    PART2_ACC,
    PART2_OMP,
    STANDARD_CELLS,
    Cell,
    CellResult,
    estimated_cost,
    plan,
    prefill,
    run_cell,
)
from repro.cache.bundle import lookup_counts
from repro.obs.metrics import MetricsRegistry, get_metrics
from repro.pipeline import pool
from repro.pipeline.pool import ComputeWorkerCrash
from repro.pipeline.stats import PipelineStats
from repro.testing import faultinject


class TestPlan:
    def test_default_plan_is_the_standard_matrix(self):
        assert plan(None) == list(STANDARD_CELLS)

    def test_single_table_maps_to_its_cell(self):
        assert plan(["table1"]) == [PART1_ACC]
        assert plan(["table5"]) == [PART2_OMP]
        assert plan(["fortran_extension"]) == [FORTRAN_EXT]

    def test_plan_deduplicates_shared_cells(self):
        # tables 4 and 7 both ride on the part2/acc run
        assert plan(["table4", "table7", "fig3"]) == [PART2_ACC]

    def test_composite_artifacts_pull_in_both_parts(self):
        assert plan(["fig5"]) == [PART1_ACC, PART2_ACC]
        assert plan(["table3"]) == [PART1_ACC, PART1_OMP]

    def test_unknown_artifacts_are_skipped(self):
        assert plan(["nonsense"]) == []
        assert plan(["nonsense", "table2"]) == [PART1_OMP]

    def test_every_standard_artifact_is_mapped(self):
        names = [f"table{i}" for i in range(1, 10)] + [f"fig{i}" for i in range(3, 7)]
        for name in names:
            assert sharding.ARTIFACT_CELLS[name], name

    def test_cell_keys_match_runner_memo_keys(self):
        assert PART1_ACC.key == "acc"
        assert PART2_OMP.key == "omp:part2"
        assert FORTRAN_EXT.key == "acc:fortran-ext"


class TestCost:
    def test_part2_outweighs_part1_at_every_scale(self):
        for scale in ("tiny", "small", "paper"):
            config = ExperimentConfig(scale=scale)
            assert estimated_cost(config, PART2_ACC) > estimated_cost(config, PART1_ACC)

    def test_extension_cell_uses_shrunk_count(self):
        config = ExperimentConfig(scale="tiny")
        assert estimated_cost(config, FORTRAN_EXT) < estimated_cost(config, PART2_ACC)


class TestStatsAcrossProcesses:
    def test_pipeline_stats_view_pickles_as_plain_data(self):
        registry = MetricsRegistry()
        registry.counter(
            "pipeline_stage_outcomes_total", stage="compile", outcome="passed"
        ).inc()
        registry.counter("pipeline_files_total").inc(7)
        stats = PipelineStats(registry.export_state())
        clone = pickle.loads(pickle.dumps(stats))
        assert clone.summary() == stats.summary()
        assert clone.compile.processed == 1 and clone.files_total == 7


class TestRunCell:
    def test_part1_cell_matches_sequential(self):
        config = ExperimentConfig(scale="tiny")
        result = run_cell(config, PART1_OMP)
        sequential = Experiments(config).part1_report("omp")
        assert result.report == sequential
        assert result.run is None

    def test_cell_result_shares_cache_dir(self, tmp_path):
        config = ExperimentConfig(scale="tiny")
        cold = run_cell(config, PART1_OMP, cache_dir=str(tmp_path))
        baseline = get_metrics().export_state()
        warm = run_cell(config, PART1_OMP, cache_dir=str(tmp_path))
        assert warm.report == cold.report
        # the second process-equivalent warm-started from the shared dir
        warm_lookups = lookup_counts(get_metrics().diff(baseline)[0])
        assert warm_lookups["judge"]["hits"] > 0

    def test_worker_config_never_recurses(self):
        config = ExperimentConfig(scale="tiny", jobs=8)
        result = run_cell(config, PART1_OMP)
        assert result.report is not None  # ran in-process, no pool


class TestPrefill:
    def test_prefill_installs_cells_and_skips_filled(self):
        config = ExperimentConfig(scale="tiny")
        exp = Experiments(config)
        stats = prefill(exp, artifacts=["table2"], jobs=1)
        assert "omp" in exp._part1_reports
        assert stats is not None
        # second prefill finds nothing to do
        assert prefill(exp, artifacts=["table2"], jobs=1) is None

    def test_prefilled_table_is_byte_identical(self):
        config = ExperimentConfig(scale="tiny")
        sequential = Experiments(config).table2().text
        exp = Experiments(config)
        prefill(exp, artifacts=["table2"], jobs=1)
        assert exp.table2().text == sequential

    def test_sharded_prefill_over_processes(self):
        """Two worker processes; composed table equals the sequential one."""
        config = ExperimentConfig(scale="tiny", jobs=2)
        sequential = Experiments(ExperimentConfig(scale="tiny")).table3().text
        exp = Experiments(config)
        baseline = get_metrics().export_state()
        stats = prefill(exp, artifacts=["table3"])
        assert set(exp._part1_reports) == {"acc", "omp"}
        assert exp.table3().text == sequential
        assert exp.shard_stats is stats
        # the workers' cache lookups reached this process's registry
        lookups = lookup_counts(get_metrics().diff(baseline)[0])
        assert sum(n["hits"] + n["misses"] for n in lookups.values()) > 0

    def test_entrypoint_is_spawn_safe(self, monkeypatch):
        """Pin the spawn start method: the cell task and its arguments
        must survive a from-scratch interpreter."""
        monkeypatch.setattr(pool, "default_start_method", lambda: "spawn")
        config = ExperimentConfig(scale="tiny")
        results = sharding.run_cells(config, [PART1_ACC, PART1_OMP], jobs=2)
        sequential = Experiments(config)
        assert results[0].report == sequential.part1_report("acc")
        assert results[1].report == sequential.part1_report("omp")

    def test_jobs_knob_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(jobs=0)

    def test_prefill_flushes_parent_cache_to_workers(self):
        """A parent holding warm in-memory results must hand them to
        the shards (via the shared dir), not let them recompute."""
        from repro.cache.bundle import PipelineCache

        cache = PipelineCache()
        config = ExperimentConfig(scale="tiny")
        Experiments(config, cache=cache).part1_report("omp")
        assert cache.judge.hits == 0  # cold so far, misses only

        exp = Experiments(ExperimentConfig(scale="tiny", jobs=2), cache=cache)
        baseline = get_metrics().export_state()
        prefill(exp, artifacts=["table2"], jobs=2)
        # the shard's lookups show it reused the parent's work
        lookups = lookup_counts(get_metrics().diff(baseline)[0])
        assert lookups["judge"]["hits"] > 0


class TestCellResultPickles:
    def test_part2_run_crosses_process_boundary(self):
        """_Part2Run (records, stats, reports) must survive pickling —
        this is what workers actually send back."""
        config = ExperimentConfig(scale="tiny")
        baseline = get_metrics().export_state()
        result = run_cell(config, Cell("part2", "omp"))
        delta = get_metrics().diff(baseline)[0]
        clone: CellResult = pickle.loads(pickle.dumps(result))
        assert clone.run.llmj2_report == result.run.llmj2_report
        stats = result.run.pipeline1.stats
        assert clone.run.pipeline1.stats.summary() == stats.summary()
        # the cell's growth, which a pooled cell ships beside its
        # result, carries its pipeline's stage counts
        assert PipelineStats(delta).judge.processed >= stats.judge.processed > 0
        assert len(clone.run.pipeline1.records) == len(result.run.pipeline1.records)


class TestKilledShard:
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_a_killed_cell_raises_a_typed_error_naming_it(
        self, start_method, monkeypatch
    ):
        """A shard worker SIGKILLed mid-cell stops the run with
        ComputeWorkerCrash naming the cell, within seconds, and leaves
        no child alive (a lost ``multiprocessing.Pool`` task would
        block forever)."""
        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start_method} unavailable")
        monkeypatch.setattr(pool, "default_start_method", lambda: start_method)
        monkeypatch.setenv(faultinject.ENV_VAR, "experiment:worker-compute@1=kill")
        cells = [PART1_ACC, PART1_OMP]
        raised = []

        def crashing_run() -> None:
            try:
                sharding.run_cells(ExperimentConfig(scale="tiny"), cells, jobs=2)
            except Exception as exc:  # noqa: BLE001 - asserted below
                raised.append(exc)

        runner = threading.Thread(target=crashing_run, daemon=True)
        started = time.monotonic()
        runner.start()
        runner.join(timeout=60)
        assert not runner.is_alive(), "the run hung on a dead shard worker"
        assert time.monotonic() - started < 30
        assert len(raised) == 1 and isinstance(raised[0], ComputeWorkerCrash), raised
        message = str(raised[0])
        assert "shard worker process died while computing cell '" in message
        assert any(f"'{cell.name}'" in message for cell in cells)
        assert multiprocessing.active_children() == []
