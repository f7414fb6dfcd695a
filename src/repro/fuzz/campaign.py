"""The campaign engine: rounds of mutate → differential → triage.

A :class:`Campaign` seeds a corpus from the template registry, then
runs feedback-driven rounds.  Each round it *serially* draws a batch
of (parent, operator, seed) triples — operators picked by adaptive
weight — mutates the batch, runs each candidate's differential → triage
chain (in a loop, or one task per candidate in a process pool; see
:meth:`Campaign._run_batch`), and applies feedback serially in slot
order:

* a candidate whose behaviour lights up a new coverage-frontier cell
  (feature ident, behaviour signature, or feature × signature) is
  accepted into the corpus and its operator's weight rises;
* any cross-backend divergence among the oracle arms becomes a
  :class:`Discrepancy` finding (and a large weight reward — the
  operator found a backend bug);
* a typed skip or known behaviour decays the operator's weight.

Every decision draws from the campaign's single seeded RNG or is a
pure function of recorded state, so a campaign is byte-reproducible
from its seed — and exactly replayable from a manifest's recorded
schedule even if the weight heuristics later change.
"""

from __future__ import annotations

import contextlib
import heapq
import threading
import time
from dataclasses import dataclass, field

from repro.corpus.coverage import CoverageReport, measure_coverage
from repro.corpus.generator import CorpusGenerator, TestFile
from repro.cache.keys import content_key
from repro.cache.wrappers import agent_judge_key
from repro.obs import trace
from repro.obs.metrics import get_metrics
from repro.pipeline.engine import count_stage, replay, stage_counters
from repro.pipeline import pool as compute
from repro.pipeline.stats import counted_run
from repro.fuzz.differential import DifferentialOutcome, Discrepancy, discrepancy_from
from repro.fuzz.operators import FuzzOperator, operators_by_name
from repro.fuzz.signature import behavior_signature, coverage_keys
from repro.fuzz.stages import (
    CHAIN_SPEC, STAGES, Candidate, chain_parts, chain_task, differential_and_triage,
    mutate, tool_report, wants_judge,
)

WEIGHT_FLOOR = 0.2
WEIGHT_CEIL = 8.0


@dataclass(frozen=True)
class CampaignConfig:
    """Everything a campaign's behaviour depends on (manifest-portable)."""

    flavor: str = "acc"
    languages: tuple[str, ...] = ("c", "cpp")
    seed: int = 1
    rounds: int = 4
    batch_size: int = 24
    seed_count: int = 12
    step_limit: int = 300_000
    #: compute pool processes; 1 runs every chain in-process
    workers: int = 2
    #: ignored: triage runs inside each candidate's chain (kept so
    #: configs and manifests that name it still load)
    judge_workers: int = 2
    triage: str = "divergent"  # 'divergent' | 'all' | 'off'
    judge_kind: str = "direct"
    model_seed: int = 20240822
    openmp_max_version: float = 4.5
    max_corpus: int = 512
    operators: tuple[str, ...] | None = None
    arms: tuple[str, ...] | None = None  # None = every registered backend

    def __post_init__(self):
        if type(self.workers) is not int or self.workers < 1:
            raise ValueError(f"workers must be an int >= 1, got {self.workers!r}")
        if self.triage not in ("divergent", "all", "off"):
            raise ValueError(f"triage must be divergent/all/off, got {self.triage!r}")
        if self.rounds < 0 or self.batch_size < 1 or self.seed_count < 1:
            raise ValueError("rounds >= 0, batch_size >= 1, seed_count >= 1 required")
        if self.arms is not None:
            from repro.runtime.interpreter import EXECUTION_BACKENDS

            unknown = [arm for arm in self.arms if arm not in EXECUTION_BACKENDS]
            if unknown or len(self.arms) < 2:
                raise ValueError(
                    f"arms must be >= 2 of {EXECUTION_BACKENDS}, got {self.arms!r}"
                )

    def to_json(self) -> dict:
        data = {k: getattr(self, k) for k in self.__dataclass_fields__}
        data["languages"] = list(self.languages)
        data["operators"] = list(self.operators) if self.operators else None
        data["arms"] = list(self.arms) if self.arms else None
        return data

    @classmethod
    def from_json(cls, data: dict) -> "CampaignConfig":
        kwargs = dict(data)
        kwargs["languages"] = tuple(kwargs.get("languages", ("c", "cpp")))
        operators = kwargs.get("operators")
        kwargs["operators"] = tuple(operators) if operators else None
        arms = kwargs.get("arms")
        kwargs["arms"] = tuple(arms) if arms else None
        known = set(cls.__dataclass_fields__)
        return cls(**{k: v for k, v in kwargs.items() if k in known})


@dataclass
class OperatorState:
    """Adaptive weight plus counters for one operator."""

    name: str
    weight: float = 1.0
    scheduled: int = 0
    applied: int = 0
    skipped: int = 0
    accepted: int = 0
    discrepancies: int = 0

    def reward_accept(self) -> None:
        self.weight = min(self.weight + 0.9, WEIGHT_CEIL)

    def reward_discrepancy(self) -> None:
        self.weight = min(self.weight + 2.0, WEIGHT_CEIL)

    def decay_known(self) -> None:
        self.weight = max(self.weight * 0.93, WEIGHT_FLOOR)

    def decay_skip(self) -> None:
        self.weight = max(self.weight * 0.75, WEIGHT_FLOOR)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "weight": round(self.weight, 6),
            "scheduled": self.scheduled,
            "applied": self.applied,
            "skipped": self.skipped,
            "accepted": self.accepted,
            "discrepancies": self.discrepancies,
        }

    @classmethod
    def from_json(cls, data: dict) -> "OperatorState":
        return cls(
            name=data["name"],
            weight=float(data.get("weight", 1.0)),
            scheduled=int(data.get("scheduled", 0)),
            applied=int(data.get("applied", 0)),
            skipped=int(data.get("skipped", 0)),
            accepted=int(data.get("accepted", 0)),
            discrepancies=int(data.get("discrepancies", 0)),
        )


@dataclass
class CorpusEntry:
    """One retained test with the frontier cells it covers."""

    test: TestFile
    signature: str
    keys: tuple[str, ...]  # every frontier key this entry lights up
    new_keys: tuple[str, ...]  # the subset that was new at acceptance


class CoverageFrontier:
    """The set of (feature / signature / cell) keys the corpus covers."""

    def __init__(self):
        self.keys: set[str] = set()

    def observe(self, test: TestFile, signature: str) -> tuple[set[str], set[str]]:
        """Returns (all keys of this candidate, the new subset)."""
        keys = coverage_keys(test, signature)
        fresh = keys - self.keys
        self.keys |= fresh
        return keys, fresh

    def __len__(self) -> int:
        return len(self.keys)


@dataclass
class CampaignStats:
    """Work and cost accounting for one campaign run."""

    rounds: int = 0
    scheduled: int = 0
    applied: int = 0
    skipped: int = 0
    compile_failures: int = 0
    accepted: int = 0
    discrepancies: int = 0
    executions: int = 0  # backend runs (2 per compiled candidate)
    judge_calls: int = 0
    #: accepted candidates dropped because the corpus hit max_corpus
    #: (divergent witnesses bypass the cap; drops are reported, never
    #: silent — the frontier may then cover more than the saved corpus)
    cap_dropped: int = 0
    wall_seconds: float = 0.0
    #: cost-model walls under the repo's simulated 33B service-rate
    #: convention, where a candidate costs its mutate and differential
    #: busy seconds plus its judgment's simulated seconds: serial = Σ
    #: per-candidate cost; parallel = Σ per round of the parent's
    #: mutate and in-process chain costs plus the pooled chains'
    #: makespan over ``workers`` slots (see :func:`makespan`)
    serial_wall_model: float = 0.0
    parallel_wall_model: float = 0.0
    coverage_curve: list[int] = field(default_factory=list)
    acceptance_curve: list[int] = field(default_factory=list)

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.applied if self.applied else 0.0

    @property
    def model_speedup(self) -> float:
        if self.parallel_wall_model <= 0:
            return 0.0
        return self.serial_wall_model / self.parallel_wall_model

    def to_json(self) -> dict:
        return {
            "rounds": self.rounds,
            "scheduled": self.scheduled,
            "applied": self.applied,
            "skipped": self.skipped,
            "compile_failures": self.compile_failures,
            "accepted": self.accepted,
            "discrepancies": self.discrepancies,
            "cap_dropped": self.cap_dropped,
            "executions": self.executions,
            "judge_calls": self.judge_calls,
            "wall_seconds": round(self.wall_seconds, 4),
            "serial_wall_model": round(self.serial_wall_model, 4),
            "parallel_wall_model": round(self.parallel_wall_model, 4),
            "model_speedup": round(self.model_speedup, 3),
            "acceptance_rate": round(self.acceptance_rate, 4),
            "coverage_curve": list(self.coverage_curve),
            "acceptance_curve": list(self.acceptance_curve),
        }

    @classmethod
    def from_json(cls, data: dict) -> "CampaignStats":
        stats = cls()
        for name in (
            "rounds", "scheduled", "applied", "skipped", "compile_failures",
            "accepted", "discrepancies", "cap_dropped", "executions",
            "judge_calls",
        ):
            setattr(stats, name, int(data.get(name, 0)))
        for name in ("wall_seconds", "serial_wall_model", "parallel_wall_model"):
            setattr(stats, name, float(data.get(name, 0.0)))
        stats.coverage_curve = [int(v) for v in data.get("coverage_curve", [])]
        stats.acceptance_curve = [int(v) for v in data.get("acceptance_curve", [])]
        return stats


@dataclass
class TriageFlag:
    """A judge verdict worth a human look (the issue-4 failure class)."""

    name: str
    operator: str
    verdict: str
    reason: str

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "operator": self.operator,
            "verdict": self.verdict,
            "reason": self.reason,
        }


@dataclass
class CampaignResult:
    """Everything one campaign produced."""

    config: CampaignConfig
    corpus: list[CorpusEntry]
    findings: list[Discrepancy]
    triage_flags: list[TriageFlag]
    coverage: CoverageReport
    stats: CampaignStats
    operator_states: dict[str, OperatorState]
    schedule: list[list[dict]]  # recorded (parent, operator, seed) per round
    #: True when the run stopped at a round boundary on request (job
    #: checkpoint-then-drain) rather than finishing every round; the
    #: state through the last completed round is on disk in the
    #: checkpoint, and the result must not be saved as a final manifest
    interrupted: bool = False

    def digest(self) -> str:
        """Content address of the observable outcome (replay identity)."""
        return content_key(
            "campaign-digest",
            [[e.test.name, e.test.source, e.signature] for e in self.corpus],
            [f.to_json() for f in self.findings],
            [f.to_json() for f in self.triage_flags],
            self.coverage.render(),
            self.stats.coverage_curve,
        )

    def tests(self) -> list[TestFile]:
        return [entry.test for entry in self.corpus]

    def render_report(self) -> str:
        lines = [
            f"Fuzzing campaign: flavor={self.config.flavor} seed={self.config.seed} "
            f"rounds={self.stats.rounds}",
            f"  corpus: {len(self.corpus)} tests "
            f"({self.stats.accepted} accepted of {self.stats.applied} applied, "
            f"{self.stats.skipped} typed skips"
            + (f", {self.stats.cap_dropped} dropped at the max_corpus cap"
               if self.stats.cap_dropped else "")
            + ")",
            f"  frontier: {self.stats.coverage_curve[-1] if self.stats.coverage_curve else 0} "
            f"keys; curve {self.stats.coverage_curve}",
            f"  discrepancies: {len(self.findings)}; triage flags: {len(self.triage_flags)}",
            f"  executions: {self.stats.executions} "
            f"(model speedup {self.stats.model_speedup:.2f}x over serial)",
            "  operator weights:",
        ]
        for name in sorted(self.operator_states):
            state = self.operator_states[name]
            lines.append(
                f"    {name:15s} w={state.weight:5.2f} "
                f"applied={state.applied:4d} accepted={state.accepted:3d} "
                f"skipped={state.skipped:3d} discrepancies={state.discrepancies}"
            )
        lines.append("")
        lines.append(self.coverage.render())
        for finding in self.findings:
            lines.append("")
            lines.append(finding.render())
        return "\n".join(lines)


class Campaign:
    """Coverage-guided differential fuzzing over the template corpus."""

    def __init__(self, config: CampaignConfig, cache=None,
                 reuse_differential: bool = True):
        """``cache`` is a :class:`~repro.cache.bundle.PipelineCache` (or
        None); the campaign uses its ``fuzz`` namespace for differential
        outcomes and its ``judge`` namespace for triage verdicts.

        ``reuse_differential=False`` ignores the fuzz namespace so every
        candidate genuinely re-executes — replay verification sets it,
        because a warm cache would otherwise verify only the cache
        round-trip, never that the current substrate still produces the
        recorded behaviour.
        """
        self.config = config
        self.caches = {
            "fuzz": getattr(cache, "fuzz", None) if reuse_differential else None,
            "judge": getattr(cache, "judge", None),
        }
        self.operators: dict[str, FuzzOperator] = {
            op.name: op for op in operators_by_name(config.operators)
        }
        self.runner, self.judge = chain_parts(config)
        self.model_sim = self.judge.model

    # ------------------------------------------------------------------

    def run(self, schedule_override: list[list[dict]] | None = None,
            progress=None, checkpoint_dir: str | None = None,
            checkpoint_every: int = 1, resume=None,
            stop: threading.Event | None = None) -> CampaignResult:
        """Run the campaign (or exactly replay a recorded schedule).

        Durability knobs:

        * ``checkpoint_dir`` — write an atomic resume checkpoint
          (``checkpoint.json``) into this directory after the seed phase
          and after every ``checkpoint_every``-th round.  The checkpoint
          captures the *entire* round-loop state — corpus, frontier
          keys, operator weights (full precision), the serial RNG's
          decision-stream position, stats and the recorded schedule —
          so a resumed run replays the exact remaining decision stream.
        * ``resume`` — a :class:`~repro.fuzz.checkpoint.CampaignCheckpoint`;
          skips seeding, restores the saved state and continues from the
          next unfinished round.  The final result is digest-identical
          to an uninterrupted run of the same config.
        * ``stop`` — optional event checked at round boundaries; when
          set, the run checkpoints what it has and returns early with
          ``result.interrupted`` True (the daemon's SIGTERM
          "checkpoint then drain" path).

        With ``config.workers >= 2`` each candidate's differential →
        triage chain runs in the process's shared compute pool of that
        many processes (:func:`~repro.pipeline.pool.shared`; an error
        or Ctrl-C that ends the call closes it).  A worker's death
        raises :class:`~repro.pipeline.pool.ComputeWorkerCrash`.
        ``workers=1`` runs everything in-process, on this thread: the
        spec the pooled digest matches.
        """
        with (compute.shared(self.config.workers) if self.config.workers > 1
              else contextlib.nullcontext()) as pool:
            return self._run(pool, schedule_override, progress, checkpoint_dir,
                             checkpoint_every, resume, stop)

    def _run(self, pool, schedule_override, progress, checkpoint_dir,
             checkpoint_every, resume, stop) -> CampaignResult:
        import random as _random

        from repro.testing.faultinject import fault_point

        config = self.config
        rng = _random.Random(f"fuzz-campaign:{config.seed}")
        stats = CampaignStats()
        frontier = CoverageFrontier()
        states = {name: OperatorState(name) for name in self.operators}
        corpus: list[CorpusEntry] = []
        by_name: dict[str, CorpusEntry] = {}
        findings: list[Discrepancy] = []
        triage_flags: list[TriageFlag] = []
        schedule: list[list[dict]] = []
        start_round = 1
        interrupted = False
        started = time.perf_counter()

        if resume is not None:
            (rng, stats, frontier, states, corpus, findings, triage_flags,
             schedule, start_round) = resume.restore()
            unknown = set(states) - set(self.operators)
            if unknown or resume.config.to_json() != config.to_json():
                raise ValueError(
                    "checkpoint does not match this campaign's config/operators"
                )
            by_name = {entry.test.name: entry for entry in corpus}
            if progress:
                progress(
                    f"resumed at round {start_round}: corpus {len(corpus)}, "
                    f"frontier {len(frontier)}, findings {len(findings)}"
                )
        wall_base = stats.wall_seconds

        def write_checkpoint(next_round: int, point: str) -> None:
            if checkpoint_dir is None:
                return
            from repro.fuzz.checkpoint import CampaignCheckpoint

            CampaignCheckpoint.capture(
                config=config, next_round=next_round, rng=rng,
                frontier=frontier, corpus=corpus, states=states, stats=stats,
                findings=findings, triage_flags=triage_flags,
                schedule=schedule,
                wall_seconds=wall_base + (time.perf_counter() - started),
            ).save(checkpoint_dir)
            fault_point(point)

        if resume is None:
            seeds = self._seed_tests()
            seed_candidates = [
                Candidate(index=i, parent=test, operator="", seed=0)
                for i, test in enumerate(seeds)
            ]
            processed = self._run_batch(seed_candidates, round_no=0, stats=stats,
                                        pool=pool)
            for cand in processed:
                entry = self._absorb(cand, frontier, states, stats, findings,
                                     triage_flags, accept_always=True)
                if entry is not None:
                    corpus.append(entry)
                    by_name[entry.test.name] = entry
            stats.coverage_curve.append(len(frontier))
            stats.acceptance_curve.append(len(corpus))
            if progress:
                progress(f"seeded {len(corpus)} tests, frontier {len(frontier)}")
            write_checkpoint(1, "campaign:post-seed")

        for round_no in range(start_round, config.rounds + 1):
            if stop is not None and stop.is_set():
                interrupted = True
                if progress:
                    progress(
                        f"stop requested: checkpointed through round {round_no - 1}"
                    )
                break
            if schedule_override is not None:
                if round_no - 1 >= len(schedule_override):
                    break
                plan = schedule_override[round_no - 1]
            else:
                plan = self._draw_plan(rng, corpus, states)
            schedule.append(plan)
            batch = []
            drifted = None
            for slot, triple in enumerate(plan):
                parent_entry = by_name.get(triple["parent"])
                if parent_entry is None:
                    # a recorded parent the replayed corpus never grew:
                    # the substrate drifted since the manifest was
                    # written.  Stop faithfully-replayable execution
                    # here; the digest mismatch reports the drift (a
                    # crash would hide exactly what replay exists to
                    # diagnose).
                    drifted = triple["parent"]
                    break
                batch.append(
                    Candidate(
                        index=slot,
                        parent=parent_entry.test,
                        operator=triple["operator"],
                        seed=triple["seed"],
                    )
                )
            if drifted is not None:
                if progress:
                    progress(
                        f"replay drift: round {round_no} schedule names "
                        f"unknown parent {drifted!r}; stopping here"
                    )
                break
            processed = self._run_batch(batch, round_no=round_no, stats=stats,
                                        pool=pool)
            for cand in processed:
                entry = self._absorb(cand, frontier, states, stats, findings,
                                     triage_flags)
                if entry is None:
                    continue
                # the corpus cap bounds memory/disk, never discovery: a
                # divergent witness always lands, and any other drop is
                # counted and reported instead of vanishing silently
                if (len(corpus) < config.max_corpus
                        or entry.signature == "DIVERGENT"):
                    corpus.append(entry)
                    by_name[entry.test.name] = entry
                else:
                    stats.cap_dropped += 1
            stats.rounds = round_no
            stats.coverage_curve.append(len(frontier))
            stats.acceptance_curve.append(len(corpus))
            # inert telemetry: counters/gauges only — the digest, RNG,
            # and checkpoint contents never see any of this
            registry = get_metrics()
            registry.counter("fuzz_rounds_total").inc()
            registry.counter("fuzz_candidates_total").inc(len(processed))
            registry.gauge("fuzz_corpus_size").set(len(corpus))
            registry.gauge("fuzz_frontier_size").set(len(frontier))
            if progress:
                progress(
                    f"round {round_no}: corpus {len(corpus)}, "
                    f"frontier {len(frontier)}, findings {len(findings)}"
                )
            if round_no % max(1, checkpoint_every) == 0 or round_no == config.rounds:
                write_checkpoint(round_no + 1, "campaign:post-round")

        stats.wall_seconds = wall_base + (time.perf_counter() - started)
        coverage = measure_coverage(config.flavor, [e.test for e in corpus])
        result = CampaignResult(
            config=config,
            corpus=corpus,
            findings=findings,
            triage_flags=triage_flags,
            coverage=coverage,
            stats=stats,
            operator_states=states,
            schedule=schedule,
            interrupted=interrupted,
        )
        if not interrupted:
            # partial runs stay out of the campaign totals: the resumed
            # continuation counts the completed campaign
            registry = get_metrics()
            registry.counter("fuzz_campaigns_total").inc()
            registry.counter("fuzz_executions_total").inc(stats.executions)
            registry.counter("fuzz_accepted_total").inc(stats.accepted)
            registry.counter("fuzz_discrepancies_total").inc(len(findings))
            registry.counter("fuzz_triage_flags_total").inc(len(triage_flags))
        return result

    # ------------------------------------------------------------------

    def _seed_tests(self) -> list[TestFile]:
        generator = CorpusGenerator(
            seed=self.config.seed,
            validate=False,  # the differential stage is the validator here
            openmp_max_version=self.config.openmp_max_version,
        )
        return generator.generate(
            self.config.flavor, self.config.seed_count, languages=self.config.languages
        )

    def _draw_plan(self, rng, corpus: list[CorpusEntry],
                   states: dict[str, OperatorState]) -> list[dict]:
        names = sorted(states)
        weights = [states[name].weight for name in names]
        plan = []
        for _ in range(self.config.batch_size):
            parent = corpus[rng.randrange(len(corpus))]
            operator = rng.choices(names, weights=weights, k=1)[0]
            plan.append(
                {
                    "parent": parent.test.name,
                    "operator": operator,
                    "seed": rng.getrandbits(32),
                }
            )
        return plan

    def _run_batch(self, batch: list[Candidate], round_no: int,
                   stats: CampaignStats,
                   pool: compute.ComputePool | None) -> list[Candidate]:
        """Run one round's batch; the candidates come back in slot order.

        Inside the round's ``scheduler.run`` span and registry:

        1. Mutate every candidate here, in slot order.
        2. With a pool, send each mutated candidate whose chain the cache
           does not hold whole (see :meth:`_seeds`) to the pool as one
           :func:`~repro.fuzz.stages.chain_task`, longest source first.
        3. In slot order, run every other chain here, and replay each
           pooled task's lookups against the cache (the counted lookups
           an in-process run makes), folding in its spans, stage counts
           and model calls.
        """
        config = self.config
        with counted_run(len(batch), ",".join(STAGES)) as registry:
            counters = stage_counters(registry, STAGES)
            mutate_cost = 0.0
            for cand in batch:
                started = time.perf_counter()
                count_stage(
                    counters["mutate"], cand.parent,
                    lambda: mutate(cand, self.operators, round_no),
                )
                mutate_cost += time.perf_counter() - started
                if cand.skip is not None:
                    counters["differential"].skipped.inc()
                    counters["triage"].skipped.inc()
            mutated = [cand for cand in batch if cand.skip is None]
            futures = {}
            if pool is not None:
                seeds = {cand.index: self._seeds(cand) for cand in mutated}
                ctx = trace.current()
                for cand in sorted(mutated, key=lambda c: len(c.test.source), reverse=True):
                    if seeds[cand.index] is not None:
                        futures[cand.index] = pool.submit(
                            chain_task, config, cand, seeds[cand.index], ctx
                        )
            local_cost, pooled_cost = 0.0, {}
            for cand in mutated:
                if cand.index not in futures:
                    local_cost += differential_and_triage(
                        cand, self.runner, self.judge, config.triage, self._lookup,
                        counters,
                    )
                    continue
                done, lookups, cost = pool.result(
                    futures[cand.index], CHAIN_SPEC, cand.test.name, registry
                )
                replay(self._lookup, lookups, self.model_sim)
                cand.outcome, cand.judge = done.outcome, done.judge
                pooled_cost[cand.index] = cost

        costs = [pooled_cost[index] for index in futures]  # in submission order
        stats.serial_wall_model += mutate_cost + local_cost + sum(costs)
        stats.parallel_wall_model += (
            mutate_cost + local_cost + makespan(costs, config.workers)
        )
        stats.judge_calls += sum(1 for cand in batch if cand.judge is not None)
        return batch

    def _lookup(self, namespace: str, key: str, compute):
        """A lookup in the campaign's ``fuzz`` or ``judge`` cache, counted
        as a hit or a miss; a namespace without a cache computes."""
        cache = self.caches[namespace]
        return compute() if cache is None else cache.get_or_compute(key, compute)

    def _seeds(self, cand: Candidate) -> dict | None:
        """The cached differential outcome ``cand``'s chain starts from,
        by key (peeked, uncounted); None when the cache holds the whole
        chain, which then runs here."""
        fuzz, key = self.caches["fuzz"], self.runner.key_for(cand.test.name, cand.test.source)
        stored = None if fuzz is None else fuzz.peek(key)
        if stored is None:
            return {}
        outcome = DifferentialOutcome.from_json(stored)
        if not wants_judge(outcome, self.config.triage):
            return None
        report = tool_report(outcome)
        judged = self.caches["judge"].peek(agent_judge_key(self.judge, cand.test, report))
        return None if judged is not None else {key: stored}

    def _absorb(self, cand: Candidate, frontier: CoverageFrontier,
                states: dict[str, OperatorState], stats: CampaignStats,
                findings: list[Discrepancy], triage_flags: list[TriageFlag],
                accept_always: bool = False) -> CorpusEntry | None:
        """Serial, deterministic feedback for one finished candidate."""
        state = states.get(cand.operator)
        stats.scheduled += 1
        if state is not None:
            state.scheduled += 1
        if cand.skip is not None:
            stats.skipped += 1
            if state is not None:
                state.skipped += 1
                state.decay_skip()
            return None
        stats.applied += 1
        if state is not None:
            state.applied += 1
        outcome = cand.outcome
        stats.executions += outcome.executions
        if not outcome.compiled:
            stats.compile_failures += 1
        signature = behavior_signature(outcome)
        if outcome.divergent:
            stats.discrepancies += 1
            findings.append(discrepancy_from(cand.test, cand.operator, outcome))
            if state is not None:
                state.discrepancies += 1
                state.reward_discrepancy()
        if cand.judge is not None and not outcome.divergent:
            run = outcome.primary
            tools_clean = outcome.compiled and run is not None and run.returncode == 0
            if tools_clean and cand.judge.says_invalid:
                verdict = cand.judge.verdict
                triage_flags.append(
                    TriageFlag(
                        name=cand.test.name,
                        operator=cand.operator,
                        verdict=verdict.value if verdict is not None else "unparsed",
                        reason=cand.judge.response.splitlines()[0][:160]
                        if cand.judge.response else "",
                    )
                )
        keys, fresh = frontier.observe(cand.test, signature)
        # divergent witnesses are always retained even when their keys
        # are already covered: every Discrepancy finding must have a
        # runnable reproducer in the corpus the minimizer pins
        if accept_always or fresh or outcome.divergent:
            stats.accepted += 0 if accept_always else 1
            if state is not None:
                state.accepted += 1
                state.reward_accept()
            return CorpusEntry(
                test=cand.test,
                signature=signature,
                keys=tuple(sorted(keys)),
                new_keys=tuple(sorted(fresh)),
            )
        if state is not None:
            state.decay_known()
        return None


def makespan(costs: list[float], slots: int) -> float:
    """The greedy list schedule's makespan: each cost, in order, starts
    on whichever of ``slots`` frees first."""
    finish = [0.0] * max(1, slots)
    for cost in costs:
        heapq.heapreplace(finish, finish[0] + cost)
    return max(finish)
