#!/usr/bin/env python
"""Pipeline triage of LLM-generated tests (the paper's motivating use).

The scenario from the paper's introduction: an LLM has generated a pile
of candidate compiler tests with a high invalidity rate, and compiling
+ running + judging *every* file serially is too slow.  This example
builds such a pile (valid synthetic tests mixed with mutated ones),
then triages it through the staged validation pipeline twice — with and
without early exit — and compares cost.

The early-exit win is measured in *judge invocations saved* and
simulated GPU seconds (a 33B judge is the expensive stage), exactly the
argument of §III-C.

Run:  python examples/pipeline_triage.py
"""

from repro.corpus.generator import CorpusGenerator
from repro.corpus.suite import TestSuite
from repro.llm.model import DeepSeekCoderSim
from repro.metrics.accuracy import score_evaluations
from repro.pipeline.engine import PipelineConfig, ValidationPipeline
from repro.probing.prober import NegativeProber


def run_pipeline(files, early_exit: bool):
    config = PipelineConfig(
        flavor="omp",
        judge_kind="direct",
        early_exit=early_exit,
    )
    pipeline = ValidationPipeline(config, model=DeepSeekCoderSim(seed=5))
    return pipeline.run(files)


def main() -> None:
    print("building a candidate pile with a high invalidity rate ...")
    generator = CorpusGenerator(seed=99)
    valid = generator.generate("omp", 60, languages=("c", "cpp"))
    suite = TestSuite("omp-candidates", "omp", valid)
    # mutate 1/2 of the files: this mimics an LLM generator whose
    # output frequently fails to compile or run
    probed = NegativeProber(seed=3).probe(suite)
    files = list(probed)
    n_invalid = sum(1 for f in files if not f.is_valid)
    print(f"  {len(files)} candidates, {n_invalid} known-invalid")

    for early_exit in (False, True):
        label = "early-exit" if early_exit else "record-all"
        result = run_pipeline(files, early_exit)
        verdicts = [record.pipeline_says_valid for record in result.records]
        ordered = [record.test for record in result.records]
        report = score_evaluations(f"Pipeline ({label})", ordered, verdicts)
        stats = result.stats.summary()
        print(f"\n=== {label} pipeline ===")
        print(f"  accuracy:              {report.overall_accuracy:.1%}")
        print(f"  bias:                  {report.bias:+.3f}")
        print(f"  wall time:             {stats['wall_seconds']:.2f}s")
        print(f"  judge calls:           {stats['stages']['judge']['processed']}")
        print(f"  judge calls saved:     {stats['judge_invocations_saved']}")
        print(f"  simulated GPU seconds: {stats['stages']['judge']['simulated_seconds']:.0f}")


if __name__ == "__main__":
    main()
