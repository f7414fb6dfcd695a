"""EXP-T4 — Table IV: validation pipeline per-issue results, OpenACC.

Benchmarks the record-all pipeline over a probed sample (compile +
execute + judge for every file).
"""

from repro.llm.model import DeepSeekCoderSim
from repro.pipeline.engine import PipelineConfig, ValidationPipeline


def test_table4_pipeline_openacc(benchmark, exp, bench_population, emit_artifact):
    result = exp.table4()
    p1, p2 = result.reports
    paper = result.paper

    lines = [result.text, "", "paper-vs-measured (Pipeline 1):"]
    for issue in range(6):
        row = p1.row_for(issue)
        if row is None:
            continue
        lines.append(
            f"  issue {issue}: paper {paper['Pipeline 1'].accuracy(issue):5.0%}  "
            f"measured {row.accuracy:5.0%}"
        )
    emit_artifact("table4", "\n".join(lines))

    # shapes: compiler-detectable mutations ~perfect, issue 4 weak
    for issue in (1, 2):
        assert p1.accuracy_for(issue) == 1.0
        assert p2.accuracy_for(issue) == 1.0
    assert p1.accuracy_for(4) < 0.6
    assert p1.accuracy_for(5) > 0.6

    sample = bench_population[:12]
    model = DeepSeekCoderSim(seed=1)
    pipeline = ValidationPipeline(
        PipelineConfig(flavor="acc", early_exit=False), model=model
    )

    def run_pipeline():
        return pipeline.run(sample)

    run = benchmark(run_pipeline)
    assert len(run.records) == len(sample)
