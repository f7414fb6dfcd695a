"""Campaign stages for the PR 1 :class:`StageScheduler`.

One fuzzing round fans its candidate batch over three worker pools:

* ``mutate``       — apply the scheduled operator with the candidate's
  own seeded RNG (a :class:`MutationError` becomes a typed skip);
* ``differential`` — compile + run every oracle arm via
  :class:`~repro.fuzz.differential.DifferentialRunner` (in the
  campaign's :class:`~repro.pipeline.pool.ComputePool` when it has
  one);
* ``triage``       — LLM-judge candidates the campaign's policy sends
  on (divergent ones always; optionally every survivor).

Determinism under threads: every per-candidate effect is a pure
function of the candidate's recorded ``(parent, operator, seed)``
triple — mutation draws from a private ``random.Random(seed)``, the
toolchain is deterministic, and the simulated judge is a pure function
of (model seed, prompt).  The campaign applies feedback serially in
slot order after the scheduler drains, so thread completion order can
never leak into corpora, findings or weights.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from repro.corpus.generator import EXTENSIONS, TestFile
from repro.judge.agent import ToolReport
from repro.judge.llmj import AgentLLMJ, JudgeResult
from repro.pipeline.pool import ComputePool
from repro.pipeline.stages import Stage, StageOutcome
from repro.probing.mutators import MutationError

from repro.fuzz.differential import DifferentialOutcome, DifferentialRunner
from repro.fuzz.operators import FuzzOperator


@dataclass
class Candidate:
    """One scheduled mutation slot travelling through the stages."""

    index: int
    parent: TestFile
    operator: str  # "" marks a seed entry (no mutation; differential only)
    seed: int
    test: TestFile | None = None
    skip: str | None = None  # typed-skip reason (MutationError text)
    outcome: DifferentialOutcome | None = None
    judge: JudgeResult | None = None

    @property
    def is_seed(self) -> bool:
        return self.operator == ""


def candidate_name(round_no: int, slot: int, operator: str, language: str) -> str:
    ext = EXTENSIONS.get(language, ".c")
    return f"fz_r{round_no:02d}_{slot:03d}_{operator}{ext}"


class MutateStage(Stage):
    """Apply each candidate's scheduled operator under its private RNG."""

    name = "mutate"

    def __init__(self, operators: dict[str, FuzzOperator], round_no: int, workers: int = 2):
        self.operators = operators
        self.round_no = round_no
        self.workers = workers

    def process(self, payload: Candidate, state) -> StageOutcome:
        if payload.is_seed:
            payload.test = payload.parent
            return StageOutcome(payload, ok=True)
        operator = self.operators[payload.operator]
        rng = random.Random(payload.seed)
        try:
            mutated = operator.apply(payload.parent, rng)
        except MutationError as exc:
            payload.skip = str(exc)
            return StageOutcome(payload, ok=False, done=True,
                                skip_stats=("differential", "triage"))
        # issue operators stamp their defect class; behaviour-preserving
        # operators inherit the parent's ground truth (a dead store on
        # an issue-4 mutant is still an issue-4 test)
        issue = operator.issue if operator.issue is not None else payload.parent.issue
        payload.test = replace(
            mutated,
            name=candidate_name(
                self.round_no, payload.index, payload.operator, payload.parent.language
            ),
            issue=issue,
        )
        return StageOutcome(payload, ok=True)


class DifferentialStage(Stage):
    """Run one candidate through every arm; route per triage policy."""

    name = "differential"

    def __init__(
        self,
        model: str,
        step_limit: int,
        openmp_max_version: float = 4.5,
        cache=None,
        workers: int = 2,
        triage: str = "divergent",  # 'divergent' | 'all' | 'off'
        arms: tuple[str, ...] | None = None,  # None = all registered
        pool: ComputePool | None = None,
    ):
        self.model = model
        self.step_limit = step_limit
        self.openmp_max_version = openmp_max_version
        self.cache = cache
        self.workers = workers
        self.triage = triage
        self.arms = arms
        self.pool = pool

    def make_worker_state(self) -> DifferentialRunner:
        return DifferentialRunner(
            model=self.model,
            step_limit=self.step_limit,
            openmp_max_version=self.openmp_max_version,
            cache=self.cache,
            arms=self.arms,
            pool=self.pool,
        )

    def process(self, payload: Candidate, runner: DifferentialRunner) -> StageOutcome:
        payload.outcome = runner.run(payload.test)
        ok = payload.outcome.compiled and not payload.outcome.divergent
        wants_judge = payload.outcome.divergent or (
            self.triage == "all" and payload.outcome.compiled
        )
        if self.triage != "off" and wants_judge:
            return StageOutcome(payload, ok=ok)
        return StageOutcome(payload, ok=ok, done=True, skip_stats=("triage",))


class TriageStage(Stage):
    """LLM-judge one surviving candidate (the paper's issue-4 detector).

    The judge sees the primary arm's observables (``closure`` when that
    arm runs, keeping digests stable across oracle widenings); its
    verdict joins the finding so a human triaging a :class:`Discrepancy`
    knows whether the candidate was even a plausible test to begin with.
    """

    name = "triage"

    def __init__(self, model_sim, flavor: str, kind: str = "direct",
                 cache=None, workers: int = 1):
        self.model_sim = model_sim
        self.flavor = flavor
        self.kind = kind
        self.cache = cache
        self.workers = workers

    def make_worker_state(self):
        judge = AgentLLMJ(self.model_sim, self.flavor, kind=self.kind)
        if self.cache is not None:
            from repro.cache.wrappers import CachingAgentJudge

            return CachingAgentJudge(judge, self.cache)
        return judge

    def process(self, payload: Candidate, judge) -> StageOutcome:
        outcome = payload.outcome
        run = outcome.primary
        report = ToolReport(
            compile_rc=outcome.compile_rc,
            compile_stderr=outcome.compile_stderr,
            compile_stdout="",
            run_rc=run.returncode if run else None,
            run_stderr=run.stderr if run else None,
            run_stdout=run.stdout if run else None,
            diagnostic_codes=outcome.diagnostic_codes,
        )
        payload.judge = judge.judge(payload.test, report)
        return StageOutcome(
            payload,
            ok=payload.judge.says_valid,
            done=True,
            simulated_seconds=payload.judge.simulated_seconds,
        )
