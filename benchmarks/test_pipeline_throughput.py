"""EXP-PIPE — §III-C claims: staging and early exit cut wasted work.

Three benches:

* process-count scaling of the pipeline (parametrized 1/2: in-process,
  then a two-worker pool over the whole 24-file population);
* the early-exit ablation, asserting the judge-invocation savings the
  paper's pipeline design argues for;
* the content-addressed cache: a warm ``Experiments.all_tables()`` run
  must beat a cold one by >= 2x while producing byte-identical tables.
"""

import time

import pytest

from repro.cache.bundle import PipelineCache
from repro.experiments import ExperimentConfig, Experiments
from repro.llm.model import DeepSeekCoderSim
from repro.pipeline.engine import PipelineConfig, ValidationPipeline


@pytest.mark.parametrize("processes", [1, 2])
def test_pipeline_worker_scaling(benchmark, bench_population, processes):
    sample = bench_population
    pipeline = ValidationPipeline(
        PipelineConfig(flavor="acc", early_exit=True), model=DeepSeekCoderSim(seed=9)
    )

    def run():
        return pipeline.run(sample, processes=processes)

    result = benchmark(run)
    assert len(result.records) == len(sample)


def test_early_exit_saves_judge_invocations(benchmark, bench_population, emit_artifact):
    sample = bench_population  # includes compile- and run-failing mutants
    model = DeepSeekCoderSim(seed=9)

    record_all = ValidationPipeline(
        PipelineConfig(flavor="acc", early_exit=False), model=model
    ).run(sample)
    early_exit_pipeline = ValidationPipeline(
        PipelineConfig(flavor="acc", early_exit=True), model=model
    )

    def run_early_exit():
        return early_exit_pipeline.run(sample)

    early = benchmark(run_early_exit)

    saved = early.stats.judge_invocations_saved
    all_judged = record_all.stats.judge.processed
    early_judged = early.stats.judge.processed
    sim_all = record_all.stats.judge.simulated_seconds
    sim_early = early.stats.judge.simulated_seconds

    emit_artifact(
        "pipeline_early_exit",
        "\n".join(
            [
                "Early-exit ablation (judge stage is the expensive one):",
                f"  files:                     {len(sample)}",
                f"  judge calls (record-all):  {all_judged}",
                f"  judge calls (early-exit):  {early_judged}",
                f"  judge calls saved:         {saved}",
                f"  simulated GPU s (record-all): {sim_all:8.1f}",
                f"  simulated GPU s (early-exit): {sim_early:8.1f}",
            ]
        ),
    )

    assert early_judged < all_judged
    assert saved == all_judged - early_judged
    assert sim_early < sim_all
    # verdicts must agree: early exit only skips already-failed files
    for rec_all, rec_early in zip(record_all.records, early.records):
        if rec_all.compiled and rec_all.ran_clean:
            assert rec_all.pipeline_says_valid == rec_early.pipeline_says_valid


def test_result_cache_warm_run_speedup(emit_artifact):
    """Warm (cached) table regeneration vs cold, on fresh instances.

    Two :class:`Experiments` instances with the same configuration
    share one :class:`PipelineCache`; the second must reuse every
    compile/execute/judge artifact instead of recomputing, making the
    run >= 2x faster with byte-identical table text.  (Cold vs warm is
    one-shot by nature, so this times explicitly instead of using the
    repeating ``benchmark`` fixture.)
    """
    config = ExperimentConfig(scale="tiny", cache_enabled=True)
    cache = PipelineCache()

    t0 = time.perf_counter()
    cold_tables = Experiments(config, cache=cache).all_tables()
    cold_seconds = time.perf_counter() - t0
    cold_misses = cache.misses

    t0 = time.perf_counter()
    warm_tables = Experiments(config, cache=cache).all_tables()
    warm_seconds = time.perf_counter() - t0

    speedup = cold_seconds / warm_seconds if warm_seconds > 0 else float("inf")
    emit_artifact(
        "pipeline_cache_warm_vs_cold",
        "\n".join(
            [
                "Content-addressed cache: Experiments.all_tables(), tiny scale:",
                f"  cold run:   {cold_seconds:7.2f} s ({cold_misses} cache misses)",
                f"  warm run:   {warm_seconds:7.2f} s ({cache.hits} cache hits)",
                f"  speedup:    {speedup:7.1f}x",
            ]
        ),
    )

    assert [t.text for t in warm_tables] == [t.text for t in cold_tables]
    assert cache.hits > 0
    assert cold_seconds >= 2.0 * warm_seconds, (
        f"warm run only {speedup:.2f}x faster "
        f"(cold {cold_seconds:.2f}s, warm {warm_seconds:.2f}s)"
    )
