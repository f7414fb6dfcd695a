"""One candidate's trip through a campaign round: mutate, then
differential → triage.

* ``mutate``       — apply the scheduled operator with the candidate's
  own seeded RNG (a :class:`MutationError` becomes a typed skip); the
  campaign's own thread mutates the whole batch, in slot order;
* ``differential`` — compile + run every oracle arm via
  :class:`~repro.fuzz.differential.DifferentialRunner`;
* ``triage``       — LLM-judge candidates the campaign's policy sends
  on (divergent ones always; optionally every survivor).

:func:`differential_and_triage` is the chain after mutation: one call
per candidate, in a loop on the campaign's thread or as one
:func:`chain_task` in the campaign's
:class:`~repro.pipeline.pool.ComputePool`.  It counts each stage
through :func:`~repro.pipeline.engine.count_stage` and makes every
cache lookup through one ``lookup`` callable, exactly as the
validation pipeline's chain does.

Determinism: every per-candidate effect is a pure function of the
candidate's recorded ``(parent, operator, seed)`` triple — mutation
draws from a private ``random.Random(seed)``, the toolchain is
deterministic, and the simulated judge is a pure function of (model
seed, prompt).  The campaign applies feedback serially in slot order,
so the order tasks finish in can never leak into corpora, findings or
weights.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace

from repro.cache.wrappers import agent_judge_key
from repro.corpus.generator import EXTENSIONS, TestFile
from repro.judge.agent import ToolReport
from repro.judge.llmj import AgentLLMJ, JudgeResult
from repro.llm.model import DeepSeekCoderSim
from repro.obs.metrics import get_metrics
from repro.pipeline.engine import Lookup, count_stage, recording, stage_counters
from repro.pipeline.pool import ComputeSpec, run_task
from repro.pipeline.stats import StageCounters
from repro.probing.mutators import MutationError

from repro.fuzz.differential import DifferentialOutcome, DifferentialRunner
from repro.fuzz.operators import FuzzOperator

#: a round's stages, in order
STAGES = ("mutate", "differential", "triage")

#: how the campaign's pool tasks name themselves
CHAIN_SPEC = ComputeSpec("differential", "candidate", "fuzz:worker-compute")


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

    @property
    def ok(self) -> bool:
        """No typed skip ended this candidate's mutation."""
        return self.skip is None


def candidate_name(round_no: int, slot: int, operator: str, language: str) -> str:
    ext = EXTENSIONS.get(language, ".c")
    return f"fz_r{round_no:02d}_{slot:03d}_{operator}{ext}"


def mutate(cand: Candidate, operators: dict[str, FuzzOperator], round_no: int) -> Candidate:
    """Apply ``cand``'s scheduled operator under its private RNG: set
    ``cand.test``, or ``cand.skip`` on a typed skip."""
    if cand.is_seed:
        cand.test = cand.parent
        return cand
    operator = operators[cand.operator]
    try:
        mutated = operator.apply(cand.parent, random.Random(cand.seed))
    except MutationError as exc:
        cand.skip = str(exc)
        return cand
    # issue operators stamp their defect class; behaviour-preserving
    # operators inherit the parent's ground truth (a dead store on an
    # issue-4 mutant is still an issue-4 test)
    issue = operator.issue if operator.issue is not None else cand.parent.issue
    cand.test = replace(
        mutated,
        name=candidate_name(round_no, cand.index, cand.operator, cand.parent.language),
        issue=issue,
    )
    return cand


def wants_judge(outcome: DifferentialOutcome, triage: str) -> bool:
    """Whether the triage policy sends this outcome to the judge."""
    if triage == "off":
        return False
    return outcome.divergent or (triage == "all" and outcome.compiled)


def tool_report(outcome: DifferentialOutcome) -> ToolReport:
    """What the judge sees: the primary arm's observables (``closure``
    when that arm runs, keeping digests stable across oracle
    widenings)."""
    run = outcome.primary
    return ToolReport(
        compile_rc=outcome.compile_rc,
        compile_stderr=outcome.compile_stderr,
        compile_stdout="",
        run_rc=run.returncode if run else None,
        run_stderr=run.stderr if run else None,
        run_stdout=run.stdout if run else None,
        diagnostic_codes=outcome.diagnostic_codes,
    )


def differential_and_triage(
    cand: Candidate, runner: DifferentialRunner, judge: AgentLLMJ, triage: str,
    lookup: Lookup, counters: dict[str, StageCounters],
) -> float:
    """One mutated candidate's chain: the differential oracle, then the
    judge when the ``triage`` policy wants a judgment (the paper's
    issue-4 detector; its verdict joins any finding, so a human triaging
    a :class:`~repro.fuzz.differential.Discrepancy` knows whether the
    candidate was even a plausible test).  A candidate the policy does
    not send on counts a triage skip.

    Returns the chain's modelled cost: the differential's busy seconds
    plus the judgment's simulated 33B seconds.
    """
    test = cand.test
    started = time.perf_counter()
    cand.outcome = count_stage(
        counters["differential"], test, lambda: runner.run(test, lookup)
    )
    cost = time.perf_counter() - started
    if not wants_judge(cand.outcome, triage):
        counters["triage"].skipped.inc()
        return cost
    report = tool_report(cand.outcome)
    cand.judge = count_stage(
        counters["triage"], test,
        lambda: lookup(
            "judge", agent_judge_key(judge, test, report), lambda: judge.judge(test, report)
        ),
    )
    return cost + cand.judge.simulated_seconds


def chain_parts(config) -> tuple[DifferentialRunner, AgentLLMJ]:
    """The oracle and the judge a campaign's ``config`` (a
    :class:`~repro.fuzz.campaign.CampaignConfig`) computes with."""
    runner = DifferentialRunner(
        model=config.flavor,
        step_limit=config.step_limit,
        openmp_max_version=config.openmp_max_version,
        arms=config.arms,
    )
    judge = AgentLLMJ(
        DeepSeekCoderSim(seed=config.model_seed), config.flavor, kind=config.judge_kind
    )
    return runner, judge


def chain_task(config, cand: Candidate, seeds: dict, trace_ctx) -> tuple:
    """A pooled round's task (module-level: spawn-safe): ``cand``'s
    :func:`differential_and_triage`, counted into this worker's
    registry, with ``seeds`` (the parent's entries by key) served in
    front of the computation.

    Its value is ``(cand, lookups, llm_calls, cost)``: ``lookups`` holds
    every lookup the chain made, for the parent to
    :func:`~repro.pipeline.engine.replay`, and ``llm_calls`` the
    rebuilt model's :meth:`GenerationStats.totals
    <repro.llm.model.GenerationStats.totals>`.
    """
    runner, judge = chain_parts(config)
    lookup, lookups = recording(seeds)

    def chain() -> tuple:
        cost = differential_and_triage(
            cand, runner, judge, config.triage, lookup,
            stage_counters(get_metrics(), STAGES),
        )
        return cand, lookups, judge.model.stats.totals(), cost

    return run_task(CHAIN_SPEC, cand.test.name, trace_ctx, chain)
