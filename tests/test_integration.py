"""End-to-end integration scenarios across the full stack."""

from repro.corpus.generator import CorpusGenerator
from repro.corpus.suite import TestSuite
from repro.judge.agent import ToolRunner
from repro.judge.llmj import AgentLLMJ, DirectLLMJ
from repro.llm.model import DeepSeekCoderSim
from repro.metrics.accuracy import score_evaluations
from repro.pipeline.engine import PipelineConfig, ValidationPipeline
from repro.probing.prober import NegativeProber


class TestProbedPipelineIntegration:
    """The full protocol on the shared fixture populations."""

    def test_pipeline_catches_all_compile_detectable_issues(self, acc_probed, model):
        pipeline = ValidationPipeline(
            PipelineConfig(flavor="acc", early_exit=False), model=model
        )
        result = pipeline.run(list(acc_probed))
        for record in result.records:
            if record.test.issue in (1, 2):
                assert not record.pipeline_says_valid, record.test.name

    def test_issue4_mutants_survive_compile_and_run(self, acc_probed, acc_compiler, executor):
        for test in acc_probed.by_issue(4):
            compiled = acc_compiler.compile(test.source, test.name)
            if compiled.ok:
                result = executor.run(compiled)
                assert result.returncode == 0, test.name

    def test_agent_judge_beats_direct_on_probing(self, acc_probed, model):
        direct = DirectLLMJ(model, "acc")
        tools = ToolRunner("acc")
        agent = AgentLLMJ(model, "acc", kind="direct", tools=tools)
        direct_verdicts, agent_verdicts = [], []
        for test in acc_probed:
            direct_verdicts.append(direct.judge(test).says_valid)
            agent_verdicts.append(agent.judge(test).says_valid)
        files = list(acc_probed)
        direct_report = score_evaluations("direct", files, direct_verdicts)
        agent_report = score_evaluations("agent", files, agent_verdicts)
        assert agent_report.overall_accuracy > direct_report.overall_accuracy

    def test_omp_pipeline_end_to_end(self, omp_probed, model):
        pipeline = ValidationPipeline(
            PipelineConfig(flavor="omp", early_exit=True), model=model
        )
        result = pipeline.run(list(omp_probed))
        verdicts = [r.pipeline_says_valid for r in result.records]
        files = [r.test for r in result.records]
        report = score_evaluations("pipeline", files, verdicts)
        # compile-detectable mutants give the pipeline a strong floor
        assert report.overall_accuracy > 0.6
        assert result.stats.judge.skipped > 0

    def test_determinism_of_full_protocol(self):
        """Same seeds => byte-identical verdicts, end to end."""

        def run_once():
            files = CorpusGenerator(seed=3).generate("acc", 16)
            probed = NegativeProber(seed=4).probe(TestSuite("d", "acc", files))
            model = DeepSeekCoderSim(seed=5)
            pipeline = ValidationPipeline(
                PipelineConfig(flavor="acc", early_exit=False),
                model=model,
            )
            result = pipeline.run(list(probed))
            return [(r.test.name, r.pipeline_says_valid) for r in result.records]

        assert run_once() == run_once()

    def test_judge_stage_cost_dominates(self, acc_probed, model):
        """The simulated LLM stage is the expensive one (paper §III-C)."""
        pipeline = ValidationPipeline(
            PipelineConfig(flavor="acc", early_exit=False), model=model
        )
        result = pipeline.run(list(acc_probed)[:12])
        stats = result.stats
        assert stats.judge.simulated_seconds > stats.compile.simulated_seconds
        assert stats.judge.simulated_seconds > stats.execute.simulated_seconds
